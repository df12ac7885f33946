"""scipy loads only where real-line or torus quadrature runs."""
from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import trace_lab

# one request of each subcommand that needs no quadrature
_SCIPY_FREE = [
    ("theta", {"t": "1"}),
    ("padic-gamma", {"p": "3", "s": "0.3,0.7", "mode": "both"}),
    ("padic-integral", {"p": "2", "gamma": "1", "tau": "1", "domain": "both"}),
    ("padic-density", {"p": "2", "gamma": "1", "x": "1/4,1,4", "method": "both"}),
    ("padic-mass", {"p": "3", "gamma": "1/2"}),
    ("mc-haar", {"p": "2", "count": "1000"}),
    ("char-sum", {"mode": "direct", "heights": "4,8"}),
    ("idele-norm", {"diagonal": "84/55"}),
    ("adele-eval", {"side": "char", "y": "inf=1,fill=1", "x": "inf=0,2=1/2"}),
    ("cauchy-report", {"convention": "consistent"}),
    ("potential-identity", {"kind": "gaussian"}),
    ("rr-check", {"parts": "product,reduction", "count": "50"}),
]

_PROBE = """
import json, sys
from trace_lab.cli import CommandRequest, run_request

out = {}
for sub, params in json.loads(sys.argv[1]):
    code, _ = run_request(CommandRequest(sub, params))
    out[sub] = [code, "scipy" in sys.modules]
code, _ = run_request(CommandRequest("psf-check", {}))
out["psf-check"] = [code, "scipy" in sys.modules]
print(json.dumps(out))
"""


def test_scipy_loads_only_for_quadrature():
    src = str(Path(trace_lab.__file__).resolve().parent.parent)
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src if not path else src + os.pathsep + path)
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE, json.dumps(_SCIPY_FREE)],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    for sub, _ in _SCIPY_FREE:
        assert out[sub] == [0, False], sub
    assert out["psf-check"] == [0, True]


def _scipy_imports(tree: ast.AST) -> list[tuple[int, bool]]:
    """(line, inside a function body) of every import that names scipy."""
    found = []

    def visit(node: ast.AST, in_function: bool) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Import):
                names = [alias.name for alias in child.names]
            elif isinstance(child, ast.ImportFrom):
                names = [child.module or ""]
            else:
                names = []
            if any(n == "scipy" or n.startswith("scipy.") for n in names):
                found.append((child.lineno, in_function))
            visit(child, in_function or isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)))

    visit(tree, False)
    return found


def test_only_the_quadrature_module_imports_scipy_and_only_in_functions():
    package = Path(trace_lab.__file__).resolve().parent
    seen = False
    for path in sorted(package.glob("*.py")):
        imports = _scipy_imports(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
        if path.name == "quadrature.py":
            seen = bool(imports)
            assert all(in_function for _, in_function in imports), imports
        else:
            assert imports == [], (path.name, imports)
    assert seen


# numpy functions that dispatch to CPU-dependent SIMD code, not to libm
_SIMD_LIBM = {"exp", "power", "float_power", "expm1"}


def test_bit_exact_sums_call_no_simd_libm():
    """The torus and Cauchy sums are bit-identical to their scalar forms only
    while every power and exponential goes through Python ** and math.exp.

    np.power and np.exp take SIMD paths chosen by the CPU: on an AVX-512
    machine np.power(n, -1.5) differs from n ** -1.5 at 1,038 of
    n = 1..20,000, and np.exp(-w) from math.exp(-w) at 935 of 20,001
    points w in [0, 700].  np.sqrt, +, -, * and / are correctly rounded
    and may stay.
    """
    package = Path(trace_lab.__file__).resolve().parent
    for name in ("core.py", "lattice.py", "real_stable.py"):
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
