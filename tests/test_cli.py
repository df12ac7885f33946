"""CLI contract: report schema, exit codes, rendering, and bit-for-bit replay."""
from __future__ import annotations

import ast
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import trace_lab
from trace_lab import cli
from trace_lab.cli import (
    CommandRequest,
    main,
    render_report,
    replay_report,
    run_request,
)


def run(sub: str, **params) -> tuple[int, dict]:
    return run_request(CommandRequest(sub, {k.replace("_", "-"): v for k, v in params.items()}))


# ---------------------------------------------------------------------------
# schema
# ---------------------------------------------------------------------------


def test_report_schema():
    code, rep = run("theta", t="1")
    assert code == 0
    assert set(rep) >= {"command", "params", "results"}
    assert rep["command"] == "theta"
    assert float(rep["params"]["t"]) == 1.0  # canonical echo
    for row in rep["results"]:
        assert {"name", "value"} <= set(row)
        for key in ("error_bound", "reference", "defect"):
            if key in row:
                assert isinstance(row[key], (int, float, str))
    names = [r["name"] for r in rep["results"]]
    assert "theta" in names and "functional_equation" in names


def test_report_is_json_clean():
    code, rep = run("trace-check", kind="stable", alpha="1.5", sigma="1", t="1", tol="1e-6")
    assert code == 0
    # round trips through the renderer without numpy leakage
    text = render_report(rep)
    assert "np.float64" not in text
    assert json.loads(text) == rep


def test_csv_rendering():
    code, rep = run("padic-gamma", p="3", s="0.3,0.7")
    assert code == 0
    text = render_report(rep, "csv")
    lines = text.strip().splitlines()
    assert lines[0] == "name,value,error_bound,reference,defect,pass,converged,tolerance"
    assert len(lines) == 1 + len(rep["results"])
    assert "true" in text


def test_rationals_on_the_wire():
    code, rep = run("padic-density", p="2", gamma="1", C="1", t="1", x="1/2,4", method="both")
    assert code == 0
    assert rep["params"]["x"] == "1/2,4"
    code2, rep2 = run("idele-norm", diagonal="-50/3")
    assert code2 == 0
    row = {r["name"]: r for r in rep2["results"]}
    assert row["product_formula_exact"]["value"] is True


# ---------------------------------------------------------------------------
# exit codes
# ---------------------------------------------------------------------------


def test_exit_0_on_success():
    assert run("theta", t="0.5")[0] == 0
    assert run("trace-check", kind="gaussian", t="0.5,2")[0] == 0


def test_exit_2_on_parameter_errors():
    assert main(["theta"]) == 2  # missing --t
    assert main(["theta", "--t", "1", "--bogus", "3"]) == 2
    assert main(["padic-gamma", "--p", "9", "--s", "0.5"]) == 2
    assert main(["theta", "--t", "-1"]) == 2
    assert main(["no-such-command"]) == 2


def test_large_p_shell_density_exits_cleanly():
    # at x = 7919^90 the shell integrals near n = v exceed double range;
    # with gamma = 1 their weights exp(-p^n) are 0.0 and the sum ends first
    x = str(7919**90)
    code, rep = run("padic-density", p="7919", gamma="1", method="shell", x=x)
    _, rep_one = run("padic-density", p="7919", gamma="1", method="shell", x="1")
    assert code == 0
    assert rep["results"][0]["converged"] is True
    assert rep["results"][0]["value"] == rep_one["results"][0]["value"]
    # with gamma = 0.001 the weights there are not negligible: exit 2
    args = ["padic-density", "--p", "7919", "--gamma", "0.001", "--method", "shell", "--x", x]
    assert main(args) == 2


def test_mc_haar_large_p_exits_cleanly():
    # a block on Z/p^k must fit an int64: p = 2^63 - 25 is the largest prime that works
    assert main(["mc-haar", "--p", str(2**63 - 25), "--count", "1000"]) == 0
    assert main(["mc-haar", "--p", "9223372036854775837", "--count", "1000"]) == 2


def test_exit_3_on_nonconvergence():
    code, rep = run("padic-integral", p="2", gamma="1", tau="1", tol_shell="1e-30")
    assert code == 3
    assert any(r.get("converged") is False for r in rep["results"])


def test_exit_4_on_identity_failure():
    code, rep = run(
        "padic-density",
        p="2", gamma="2", C="2", t="1", x="1/2", method="both", series_exponent="n-gamma",
    )
    assert code == 4
    assert any(r.get("pass") is False for r in rep["results"])
    # the plain reading of the same point passes
    code_ok, _ = run(
        "padic-density",
        p="2", gamma="2", C="2", t="1", x="1/2", method="both", series_exponent="n",
    )
    assert code_ok == 0


def test_error_objects_on_stderr(capsys):
    rc = main(["padic-gamma", "--p", "10", "--s", "0.5"])
    captured = capsys.readouterr()
    assert rc == 2
    err = json.loads(captured.err.strip().splitlines()[-1])
    assert err["code"] == 2
    assert "message" in err


def test_prime_beyond_proven_range_exits_2():
    # psi_12 = 399165290221 * 798330580441 passes all 12 Miller-Rabin bases
    psi_12 = "318665857834031151167461"
    assert main(["padic-gamma", "--p", psi_12, "--s", "0.5", "--mode", "closed"]) == 2


# ---------------------------------------------------------------------------
# replay
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "sub,params",
    [
        ("theta", {"t": "0.1"}),
        ("theta", {"t": "10"}),
        ("theta-integral", {}),
        ("padic-gamma", {"p": "3", "s": "0.2,0.5,0.8"}),
        ("padic-integral", {"p": "5", "gamma": "2", "tau": "1/2", "domain": "both"}),
        ("padic-density", {"p": "2", "gamma": "1", "C": "1", "t": "1", "x": "1,2", "method": "both"}),
        ("padic-mass", {"p": "3", "gamma": "2", "C": "1", "t": "1"}),
        ("mc-haar", {"p": "2", "count": "20000", "seed": "7", "gamma": "1", "tau": "1"}),
        ("trace-check", {"kind": "gaussian", "t": "0.5,1"}),
        ("potential-identity", {"alpha": "1.5", "sigma": "1"}),
        ("cauchy-report", {"convention": "paper"}),
        ("idele-norm", {"diagonal": "84/55"}),
        ("adele-eval", {"side": "char", "y": "inf=1,fill=1", "x": "inf=0,2=1/2"}),
        ("char-sum", {"S": "2", "mode": "paper_bound"}),
        ("adelic-theta", {"t": "1", "lam": "2"}),
    ],
)
def test_replay_bit_for_bit(sub, params):
    code, rep = run_request(CommandRequest(sub, dict(params)))
    assert code == 0, rep
    code2, rep2 = replay_report(rep)
    assert code2 == code
    assert rep2 == rep
    assert render_report(rep2) == render_report(rep)


def test_reproduce_paper_echo_is_empty_and_replays():
    # the report must not depend on the machine it ran on
    code, rep = run_request(CommandRequest("reproduce-paper", {}))
    assert code == 0
    assert rep["params"] == {}
    code2, rep2 = replay_report(rep)
    assert (code2, rep2) == (code, rep)
    assert render_report(rep2) == render_report(rep)


def test_replay_seeded_rr_check():
    code, rep = run_request(CommandRequest("rr-check", {"parts": "reduction,product"}))
    assert code == 0
    code2, rep2 = replay_report(rep)
    assert (code2, rep2) == (code, rep)


# ---------------------------------------------------------------------------
# argv-level behavior
# ---------------------------------------------------------------------------


def test_main_writes_json_to_stdout(capsys):
    rc = main(["theta", "--t", "1"])
    out = capsys.readouterr().out
    assert rc == 0
    rep = json.loads(out)
    assert rep["command"] == "theta"


def test_main_equals_form_and_output_file(tmp_path, capsys):
    target = tmp_path / "rep.json"
    rc = main(["theta", f"--t=1", "--format=json", "--output", str(target)])
    capsys.readouterr()
    assert rc == 0
    rep = json.loads(target.read_text())
    assert float(rep["params"]["t"]) == 1.0


def test_main_csv_format(capsys):
    rc = main(["theta", "--t", "1", "--format", "csv"])
    out = capsys.readouterr().out
    assert rc == 0
    assert out.startswith("name,value")


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert main(["theta", "--help"]) == 0
    capsys.readouterr()


def _keys_read(funcs: dict[str, ast.FunctionDef], name: str) -> set[str]:
    """The literal keys of the P.<getter>("key") calls in funcs[name],
    following the calls to _lattice_spec."""
    keys = set()
    for node in ast.walk(funcs[name]):
        if not isinstance(node, ast.Call):
            continue
        f = node.func
        if isinstance(f, ast.Name) and f.id == "_lattice_spec":
            keys |= _keys_read(funcs, "_lattice_spec")
        elif (
            isinstance(f, ast.Attribute)
            and isinstance(f.value, ast.Name)
            and f.value.id == "P"
            and node.args
            and isinstance(node.args[0], ast.Constant)
            and isinstance(node.args[0].value, str)
        ):
            keys.add(node.args[0].value)
    return keys


def test_flags_match_the_keys_each_handler_reads():
    # _FLAGS is both the --help text and the argv check, so a stale entry
    # advertises a flag that the handler then rejects
    tree = ast.parse(inspect.getsource(cli))
    funcs = {n.name: n for n in tree.body if isinstance(n, ast.FunctionDef)}
    assert set(cli._FLAGS) == set(cli._HANDLERS)
    for sub, handler in cli._HANDLERS.items():
        assert set(cli._FLAGS[sub]) == _keys_read(funcs, handler.__name__), sub
    assert main(["char-sum", "--tol", "1e-9"]) == 2


def test_unknown_format_rejected():
    assert main(["theta", "--t", "1", "--format", "yaml"]) == 2


def test_module_entry_point_runs_without_warnings():
    # `python -m trace_lab.cli` warns when importing the package has
    # already imported trace_lab.cli
    src = str(Path(trace_lab.__file__).resolve().parent.parent)
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src if not path else src + os.pathsep + path)
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "trace_lab.cli", "theta", "--t", "1"],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert json.loads(proc.stdout)["command"] == "theta"
