"""numpy loads only for requests that compute on arrays, and scipy only
where real-line or torus quadrature runs; the package holds no dead
definitions or imports, and its exports resolve."""
from __future__ import annotations

import ast
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import trace_lab

# one request of each subcommand, or mode, that computes on no array
_NUMPY_FREE = [
    ("theta", {"t": "1"}),
    ("padic-gamma", {"p": "3", "s": "0.3,0.7", "mode": "both"}),
    ("padic-integral", {"p": "2", "gamma": "1", "tau": "1", "domain": "both"}),
    ("padic-density", {"p": "2", "gamma": "1", "x": "1/4,1,4", "method": "both"}),
    ("padic-mass", {"p": "3", "gamma": "1/2"}),
    ("idele-norm", {"diagonal": "84/55"}),
    ("adele-eval", {"side": "char", "y": "inf=1,fill=1", "x": "inf=0,2=1/2"}),
    ("rr-check", {"parts": "product,reduction", "count": "50"}),
    ("adelic-theta", {"lam": "1"}),
    ("char-sum", {"mode": "paper_bound"}),
]

# requests that sum on arrays but need no quadrature
_SCIPY_FREE = [
    ("char-sum", {"mode": "direct", "heights": "4,8"}),
    ("mc-haar", {"p": "2", "count": "1000"}),
    ("cauchy-report", {"convention": "consistent"}),
    ("potential-identity", {"kind": "gaussian"}),
]

_PROBE = """
import contextlib, io, json, sys

def loaded():
    return ["numpy" in sys.modules, "scipy" in sys.modules]

out = []
import trace_lab
out.append(loaded())
from trace_lab.cli import CommandRequest, main, run_request
out.append(loaded())
with contextlib.redirect_stdout(io.StringIO()):
    code = main(["--help"])
out.append([code] + loaded())
for sub, params in json.loads(sys.argv[1]):
    code, _ = run_request(CommandRequest(sub, params))
    out.append([code] + loaded())
code, _ = run_request(CommandRequest("psf-check", {}))
out.append([code] + loaded())
print(json.dumps(out))
"""


def test_numpy_and_scipy_load_only_for_the_requests_that_use_them():
    """One fresh interpreter: after the import, --help and each request of
    _NUMPY_FREE, neither library is loaded; the first array request loads
    numpy, and scipy stays out until psf-check runs a quadrature."""
    src = str(Path(trace_lab.__file__).resolve().parent.parent)
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src if not path else src + os.pathsep + path)
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE, json.dumps(_NUMPY_FREE + _SCIPY_FREE)],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert out[0] == [False, False], "import trace_lab"
    assert out[1] == [False, False], "import trace_lab.cli"
    assert out[2] == [0, False, False], "--help"
    rows = out[3:]
    for (sub, params), row in zip(_NUMPY_FREE, rows):
        assert row == [0, False, False], (sub, params)
    rows = rows[len(_NUMPY_FREE) :]
    for (sub, params), row in zip(_SCIPY_FREE, rows):
        assert row == [0, True, False], (sub, params)
    assert rows[len(_SCIPY_FREE) :] == [[0, True, True]], "psf-check"


def _imports_of(tree: ast.AST, module: str) -> list[tuple[int, bool]]:
    """(line, inside a function body) of every import that names module."""
    found = []

    def visit(node: ast.AST, in_function: bool) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Import):
                names = [alias.name for alias in child.names]
            elif isinstance(child, ast.ImportFrom):
                names = [child.module or ""]
            else:
                names = []
            if any(n == module or n.startswith(module + ".") for n in names):
                found.append((child.lineno, in_function))
            visit(child, in_function or isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)))

    visit(tree, False)
    return found


def _package_trees() -> list[tuple[str, ast.AST]]:
    package = Path(trace_lab.__file__).resolve().parent
    return [
        (path.name, ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
        for path in sorted(package.glob("*.py"))
    ]


def test_only_the_quadrature_module_imports_scipy_and_only_in_functions():
    seen = False
    for name, tree in _package_trees():
        imports = _imports_of(tree, "scipy")
        if name == "quadrature.py":
            seen = bool(imports)
            assert all(in_function for _, in_function in imports), imports
        else:
            assert imports == [], (name, imports)
    assert seen


def test_numpy_is_imported_only_in_function_bodies():
    seen = 0
    for name, tree in _package_trees():
        imports = _imports_of(tree, "numpy")
        seen += len(imports)
        assert all(in_function for _, in_function in imports), (name, imports)
    assert seen


# numpy functions that dispatch to CPU-dependent SIMD code, not to libm
_SIMD_LIBM = {"exp", "power", "float_power", "expm1"}


def test_bit_exact_sums_call_no_simd_libm():
    """The torus and Cauchy sums and the real factor of the character sum
    over D are bit-identical to their scalar forms only while every power
    and exponential goes through Python ** and math.exp.

    np.power and np.exp take SIMD paths chosen by the CPU: on an AVX-512
    machine np.power(n, -1.5) differs from n ** -1.5 at 1,038 of
    n = 1..20,000, and np.exp(-w) from math.exp(-w) at 935 of 20,001
    points w in [0, 700].  np.sqrt, +, -, * and / are correctly rounded
    and may stay.
    """
    package = Path(trace_lab.__file__).resolve().parent
    for name in ("adeles.py", "core.py", "lattice.py", "real_stable.py"):
        tree = ast.parse((package / name).read_text(encoding="utf-8"), filename=name)
        found = [
            (node.lineno, node.attr)
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in ("np", "numpy")
            and node.attr in _SIMD_LIBM
        ]
        assert found == [], (name, found)


def _named(node: ast.AST) -> set[str]:
    """Every name the subtree reads, as a variable, an attribute or an import."""
    out = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            out.add(n.id)
        elif isinstance(n, ast.Attribute):
            out.add(n.attr)
        elif isinstance(n, ast.alias):
            out.add(n.name)
    return out


def test_every_private_definition_is_named_outside_its_body():
    trees = _package_trees()
    statements = [(stmt, _named(stmt)) for _, tree in trees for stmt in tree.body]
    dead = [
        f"{name[:-3]}.{stmt.name}"
        for name, tree in trees
        if name != "__init__.py"
        for stmt in tree.body
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
        and stmt.name.startswith("_")
        and not any(stmt.name in names for other, names in statements if other is not stmt)
    ]
    assert dead == []


# perfbench/test_perfbench.py::test_tracer_restores_every_binding checks that
# the tracer restores semistable's binding of shell_char_integral
_UNREAD_IMPORTS = {("semistable.py", "shell_char_integral")}


def test_every_import_is_read_in_its_module():
    unread = []
    for name, tree in _package_trees():
        if name == "__init__.py":
            continue
        read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    if bound not in read and (name, bound) not in _UNREAD_IMPORTS:
                        unread.append((name, node.lineno, bound))
    assert unread == []


def test_star_import_binds_every_exported_name():
    names: dict = {}
    exec("from trace_lab import *", names)
    for name in trace_lab.__all__:
        assert name in names and getattr(trace_lab, name) is names[name], name
    # every public function or class __init__.py binds from a submodule,
    # eagerly or on first use, is exported
    tree = ast.parse(inspect.getsource(trace_lab))
    bound = set(trace_lab._CLI_NAMES)
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            bound.update(alias.asname or alias.name for alias in node.names)
    public = {
        name
        for name in bound
        if not name.startswith("_")
        and (inspect.isfunction(getattr(trace_lab, name)) or inspect.isclass(getattr(trace_lab, name)))
    }
    assert sorted(public - set(trace_lab.__all__)) == []
