"""CLI contract: report schema, exit codes, rendering, and bit-for-bit replay."""
from __future__ import annotations

import ast
import importlib.util
import inspect
import json
import math
import os
import shlex
import subprocess
import sys
import time
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
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
from trace_lab.core import ParameterError
from trace_lab.padic_integrals import _HAAR_CHUNK, exp_norm_function, exp_radial_closed, mc_haar_zp


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


@pytest.mark.parametrize(
    "value, expected",
    [
        (None, None),
        (True, True),
        ("x", "x"),
        (3, 3.0),
        (2.5, 2.5),
        (np.float64(0.1), 0.1),
        (np.int64(-7), -7.0),
        (np.bool_(True), True),
        (np.bool_(False), False),
    ],
)
def test_plain_gives_builtin_values(value, expected):
    out = cli._plain(value)
    assert out == expected
    assert type(out) is type(expected)


@pytest.mark.parametrize("value", [1j, np.complex128(1)])
def test_plain_refuses_other_values(value):
    with pytest.raises(ParameterError):
        cli._plain(value)


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


def test_mc_haar_single_sample(capsys):
    # one sample has frequencies but no standard error: a mean asks for two
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["mc-haar", "--p", "2", "--count", "1", "--gamma", "1", "--tau", "1"]) == 2
        assert "count >= 2" in capsys.readouterr().err
        assert main(["mc-haar", "--p", "2", "--count", "1"]) == 0
    rep = json.loads(capsys.readouterr().out, parse_constant=lambda c: pytest.fail(c))
    assert [row["name"] for row in rep["results"]][-1] == "ball_norm<=p^-4"


# (value, error_bound, reference, defect) of each shell/ball row of
# mc-haar --p 2 with the given parameters, as the full-array statistics gave them
_HAAR_ROWS = {
    ("1000000", "20260814", "64"): [
        (0.50002, 0.0014999999987999999, 0.5, 2.0000000000020002e-05),
        (0.250184, 0.00129935664668943, 0.25, 0.00018400000000001748),
        (0.12451, 0.0009904874250085158, 0.125, 0.0004900000000000043),
        (0.062707, 0.000727305636826087, 0.0625, 0.00020699999999999885),
        (0.062579, 0.0007266125644599053, 0.0625, 7.899999999999574e-05),
    ],
    ("100000", "0", "1"): [
        (0.49958, 0.0047434148167749355, 0.5, 0.00041999999999997595),
        (0.50042, 0.0047434148167749355, 0.25, 0.25042),
        (0.0, 3.0000000000000004e-05, 0.125, 0.125),
        (0.0, 3.0000000000000004e-05, 0.0625, 0.0625),
        (0.0, 3.0000000000000004e-05, 0.0625, 0.0625),
    ],
    ("100000", "0", "3"): [
        (0.49907, 0.004743408285083628, 0.5, 0.0009299999999999864),
        (0.25057, 0.0041110364579993695, 0.25, 0.0005700000000000149),
        (0.12464, 0.003133598304824663, 0.125, 0.0003599999999999992),
        (0.12572, 0.0031452032277740015, 0.0625, 0.06322),
        (0.0, 3.0000000000000004e-05, 0.0625, 0.0625),
    ],
}


def _haar_rows(rep):
    return [
        tuple(repr(row[key]) for key in ("value", "error_bound", "reference", "defect"))
        for row in rep["results"][:5]
    ]


def test_mc_haar_paper_row_is_pinned():
    (params,) = [params for label, _, params in cli._reproduce_requests() if label == "haar-mc"]
    assert params == {"p": "2", "count": "1000000", "seed": "20260814", "gamma": "1", "tau": "1"}
    code, rep = run("mc-haar", **params)
    assert code == 0
    expected = _HAAR_ROWS[(params["count"], params["seed"], "64")]
    assert _haar_rows(rep) == [tuple(map(repr, row)) for row in expected]
    (mc,) = rep["results"][5:]
    assert mc["name"] == "mc_integral" and mc["pass"]
    assert abs(mc["value"] - mc["reference"]) <= mc["error_bound"]


@pytest.mark.parametrize("depth", ["1", "3"])
def test_mc_haar_shallow_rows_are_pinned(depth):
    code, rep = run("mc-haar", p="2", depth=depth)
    assert code == 4  # the depth truncation shows in the deep rows
    expected = _HAAR_ROWS[("100000", "0", depth)]
    assert _haar_rows(rep) == [tuple(map(repr, row)) for row in expected]


@pytest.mark.parametrize("gamma, tau", [("0.3", "5"), ("1.5", "2")])
@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_mc_haar_integral_row_is_the_scalar_mean(p, gamma, tau):
    # the mean over the norm histogram in plain Python floats: no numpy
    # exp or power, whose SIMD paths would make the digits CPU-dependent
    code, rep = run("mc-haar", p=str(p), gamma=gamma, tau=tau)
    sample = mc_haar_zp(p, 64, 100_000, 0)
    g = exp_norm_function(float(tau), float(gamma))
    hist = [(c, g(float(p) ** -k)) for k, c in enumerate(sample.counts.tolist()) if c]
    mean = math.fsum(c * v for c, v in hist) / sample.count
    var = math.fsum(c * ((v - mean) * (v - mean)) for c, v in hist) / (sample.count - 1)
    (row,) = [row for row in rep["results"] if row["name"] == "mc_integral"]
    assert code == 0 and row["pass"]
    assert row["value"] == mean
    closed = exp_radial_closed(p, float(gamma), float(tau), "unit_ball")
    assert row["error_bound"] == 3.0 * (math.sqrt(var) / math.sqrt(sample.count)) + closed.error_bound


def test_exit_3_on_nonconvergence():
    code, rep = run("padic-integral", p="2", gamma="1", tau="1", tol_shell="1e-30")
    assert code == 3
    assert any(r.get("converged") is False for r in rep["results"])


def test_padic_mass_below_the_rounding_floor_exits_3():
    code, rep = run("padic-mass", p="2", gamma="1", tol_shell="1e-20")
    assert code == 3
    assert rep["results"][0]["converged"] is False
    # rr-check's scaled mass is the same shell sum and must stop the same way
    code, rep = run("rr-check", parts="scaling", tol_shell="1e-20")
    assert code == 3
    row = next(r for r in rep["results"] if r["name"] == "scaled_mass[2]")
    assert row["error_bound"] == float("inf") and row["converged"] is False
    # every transform reads density windows whose bound 2^-61 exceeds 1e-20
    fourier = [r for r in rep["results"] if r["name"].startswith("fourier[")]
    assert fourier and all(r["converged"] is False for r in fourier)


# (name, value, error_bound) of each row of rr-check --parts scaling
# --grid-points 5 at two values of --a
_SCALING_ROWS = {
    "inf=-3,3=1/9,5=25": [
        ("scaled_mass[inf]", 1.0, 5.040794721470708e-11),
        ("scaled_mass[2]", 0.9999999999999242, 7.580108799848702e-14),
        ("scaled_mass[3]", 0.9999999999999672, 3.278536153304788e-14),
        ("scaled_mass[5]", 0.9999999999999915, 8.74751148889345e-15),
        ("fourier[0]", -9.754374415641893e-21, 3.545035081757635e-14),
        ("fourier[1]", 0.15119515348861617, 2.5680892305676398e-11),
        ("fourier[2]", 1.3992442576976245e-12, 1.0075242802070933e-14),
        ("fourier[3]", 0.002603151641360655, 1.1931551161796002e-12),
        ("fourier[4]", -2.092449610626469e-21, 7.604595737406845e-15),
    ],
    "inf=1/4,2=8": [
        ("scaled_mass[inf]", 1.0, 5.0408106389138527e-11),
        ("scaled_mass[2]", 0.9999999999999242, 7.580108799848702e-14),
        ("fourier[0]", 0.0003354626279025021, 1.1691031840932428e-13),
        ("fourier[1]", 5.8886888382429346e-06, 4.188812082501061e-12),
        ("fourier[2]", 1.2249892443635752e-23, 8.90227703114428e-17),
        ("fourier[3]", -2.4650775760644856e-18, 2.509949730503351e-10),
        ("fourier[4]", -1.2366116538626034e-20, 9.601057952379303e-14),
    ],
}


@pytest.mark.parametrize("a", sorted(_SCALING_ROWS))
def test_rr_check_scaling_rows_off_the_default_idele_are_pinned(a):
    # the benchmark snapshot holds only the default --a; these put S at
    # {2, 3, 5} and the real component below 1
    code, rep = run("rr-check", parts="scaling", grid_points="5", a=a)
    assert code == 0
    rows = [(r["name"], r["value"], r["error_bound"]) for r in rep["results"]]
    assert rows == _SCALING_ROWS[a]


def test_bruhat_schwartz_value_outside_the_unit_ball_is_zero():
    # |x_3|_3 = 3^700 is beyond double range; only v_3(x_3) < 0 matters
    for side in ("density", "transform"):
        code, rep = run("adele-eval", side=side, S="2", x=f"inf=0,3=1/{3**700}")
        assert code == 0
        assert rep["results"][0]["value"] == 0.0


def test_idele_norm_beyond_double_range_saturates():
    big = 2**1100
    code, rep = run("idele-norm", a=f"inf=2/1,2=1/{big}")
    assert code == 0
    assert [(r["name"], r["value"]) for r in rep["results"]] == [
        ("norm", float("inf")),
        ("norm_exact", str(2 * big)),
    ]
    code, rep = run("idele-norm", a=f"inf=2.5,2=1/{big}")
    assert code == 0
    assert [(r["name"], r["value"]) for r in rep["results"]] == [("norm", float("inf"))]


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
        # p0^{m gamma} and p0^M past double range saturate instead of raising
        ("char-sum", {"S": "2", "mode": "paper_bound", "gamma": "20"}),
        ("char-sum", {"S": "2", "mode": "paper_bound", "M": "1024"}),
        # |y|_2^2 = 2^1200 past double range: the character weight is 0.0
        ("adele-eval", {"side": "transform", "gamma": "2", "x": f"inf=0,2=1/{2**600}"}),
        # --kind gaussian echoes its pinned alpha = 2 and sigma = pi
        ("psf-check", {"kind": "gaussian", "x": "1/3"}),
        ("potential-identity", {"kind": "gaussian"}),
        ("adele-eval", {"kind": "gaussian", "x": "inf=1/2,2=4"}),
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


def test_reproduce_paper_mass_and_rr_rows_match_the_benchmark_snapshot():
    # perfbench records the rows the seed commit gave for every request of
    # reproduce-paper; every request but the Monte Carlo one (haar-mc, whose
    # draws may change within their 3-sigma bounds) must keep them field
    # for field
    snapshot = Path(__file__).resolve().parents[1] / "perfbench" / "reference" / "paper_battery.json"
    with open(snapshot) as fh:
        ref = json.load(fh)
    code, rep = run_request(CommandRequest("reproduce-paper", {}))
    assert code == 0
    labels = [k for k in ref if k != "haar-mc"]
    assert len(labels) == 103
    for label in labels:
        rows = [
            {**row, "name": row["name"][len(label) + 1 :]}
            for row in rep["results"]
            if row["name"].startswith(f"{label}:")
        ]
        assert rows == ref[label]["rows"], label


def _perfbench_workloads():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_adelic_rows_match_the_benchmark_snapshot():
    # the exact p-adic layer behind rr-check, char-sum, idele-norm and
    # adele-eval must keep the seed commit's rows and exit codes: the fixed
    # requests of the adelic_diagonal workload and its pool entries 0-63
    snapshot = Path(__file__).resolve().parents[1] / "perfbench" / "reference" / "adelic_diagonal.json"
    with open(snapshot) as fh:
        ref = json.load(fh)
    workloads = _perfbench_workloads()
    reqs = workloads.adelic_fixed_requests()
    for index in range(64):
        reqs += workloads.pool_requests(index)
    assert len(reqs) == 6 + 128
    for label, sub, params in reqs:
        code, rep = run_request(CommandRequest(sub, dict(params)))
        assert code == ref[label]["exit"], label
        assert rep["results"] == ref[label]["rows"], label


def test_torus_rows_match_the_benchmark_snapshot():
    # the real-line and torus layer behind trace-check, psf-check,
    # potential-identity, theta and cauchy-report must keep the seed
    # commit's rows and exit codes, the d = 3, t <= 0.01 requests that stop
    # at MAX_TERMS unconverged (exit 3) included
    snapshot = Path(__file__).resolve().parents[1] / "perfbench" / "reference" / "torus_small_t.json"
    with open(snapshot) as fh:
        ref = json.load(fh)
    reqs = _perfbench_workloads().torus_requests()
    assert len(reqs) == len(ref) == 56
    assert [label for label, _, _ in reqs if ref[label]["exit"] == 3] == [
        "trace[d=3,t=0.005]",
        "psf[d=3,t=0.005]",
        "trace[d=3,t=0.01]",
        "psf[d=3,t=0.01]",
    ]
    for label, sub, params in reqs:
        code, rep = run_request(CommandRequest(sub, dict(params)))
        assert code == ref[label]["exit"], label
        assert rep["results"] == ref[label]["rows"], label


def test_idele_norm_of_a_large_prime_answers_at_once():
    # 10^18 + 3 is prime; trial division to 10^9 would take about a minute
    start = time.perf_counter()
    code, rep = run("idele-norm", diagonal="1000000000000000003")
    assert time.perf_counter() - start < 1.0
    assert code == 0
    rows = {row["name"]: row for row in rep["results"]}
    assert rows["norm"]["value"] == 1.0
    assert rows["product_formula_exact"]["value"] is True


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


def _readme_cli_lines() -> list[str]:
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = readme.split("## CLI", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [line for line in block.splitlines() if line.startswith("trace-lab ")]


def test_readme_cli_examples_run(tmp_path, monkeypatch, capsys):
    # a flag removed from a command must leave no README example behind
    monkeypatch.chdir(tmp_path)
    lines = _readme_cli_lines()
    assert len(lines) == 13
    failed = [line for line in lines if main(shlex.split(line)[1:]) != 0]
    capsys.readouterr()
    assert failed == []
    assert json.loads((tmp_path / "report.json").read_text())["command"] == "reproduce-paper"


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert main(["theta", "--help"]) == 0
    capsys.readouterr()


def test_top_level_help_lists_each_subcommand_with_its_flags(capsys):
    assert main(["--help"]) == 0
    lines = capsys.readouterr().out.splitlines()
    start = lines.index("subcommands:") + 1
    listed = lines[start : lines.index("", start)]
    assert [ln.split()[0] for ln in listed] == list(cli._COMMANDS)
    for line, command in zip(listed, cli._COMMANDS.values()):
        flags = line.split(None, 1)[1]
        if command.flags:
            assert flags == ", ".join(f"--{f}" for f in command.flags)
        else:
            assert flags == "(no flags)"
    assert "--(no flags)" not in "\n".join(lines)


def _keys_read(funcs: dict[str, ast.FunctionDef], name: str) -> set[str]:
    """The literal keys of the P.<getter>("key") calls in funcs[name],
    following every module-level helper that is passed P."""
    keys = set()
    for node in ast.walk(funcs[name]):
        if not isinstance(node, ast.Call):
            continue
        f = node.func
        if (
            isinstance(f, ast.Name)
            and f.id in funcs
            and any(isinstance(arg, ast.Name) and arg.id == "P" for arg in node.args)
        ):
            keys |= _keys_read(funcs, f.id)
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
    # the table's flags are both the --help text and the key check, so a
    # stale entry advertises a flag that the handler then rejects
    tree = ast.parse(inspect.getsource(cli))
    funcs = {n.name: n for n in tree.body if isinstance(n, ast.FunctionDef)}
    assert all(callable(handler) and isinstance(flags, tuple) for handler, flags in cli._COMMANDS.values())
    for sub, (handler, flags) in cli._COMMANDS.items():
        assert set(flags) == _keys_read(funcs, handler.__name__), sub
    assert main(["char-sum", "--tol", "1e-9"]) == 2


def test_every_flag_refuses_malformed_values(capsys):
    # each flag alone with a value no parser may accept: a clean exit 2
    # with a JSON error, never a traceback, a report or a failed identity
    bad = []
    for sub, (_, flags) in cli._COMMANDS.items():
        for flag in flags:
            for val in ("abc", "", "nan", "inf", "1/0"):
                code = main([sub, f"--{flag}", val])
                err = capsys.readouterr().err.strip().splitlines()
                if code != 2 or json.loads(err[-1])["code"] != 2:
                    bad.append((sub, flag, val, code))
    assert bad == []


@pytest.mark.parametrize(
    "argv",
    [
        ["psf-check", "--x", "0.5,abc"],
        ["theta", "--t", "1" + "0" * 400 + "/1"],  # past double range
        ["idele-norm", "--a", "abc=1"],
        ["idele-norm", "--a", "inf=nan"],
        ["adele-eval", "--x", "inf=0,2=abc"],
        # a place given twice, or two keys that name one place
        ["idele-norm", "--a", "inf=2,inf=3"],
        ["idele-norm", "--a", "inf=2,2=1/2,02=4"],
        ["rr-check", "--parts", "scaling", "--a", "inf=2,2=1/2,2=4"],
        ["adele-eval", "--x", "inf=0,fill=1,fill=2"],
        ["adele-eval", "--x", "inf=0,3=1/3,+3=3"],
        ["adele-eval", "--side", "char", "--y", "inf=1,2=1,02=1/2", "--x", "inf=0"],
        ["rr-check", "--parts", ","],
        ["rr-check", "--parts", "product,bogus"],
        # counts and D past their declared maxima
        ["mc-haar", "--p", "2", "--count", "1000000000"],
        ["mc-haar", "--p", "3", "--count", str(cli._CAPS["mc-haar", "count"] + 1)],
        ["mc-haar", "--p", "2", "--count", "1000", "--depth", "10000000000000"],
        ["rr-check", "--parts", "product", "--count", "10000000"],
        ["rr-check", "--count", str(cli._CAPS["rr-check", "count"] + 1)],
        ["char-sum", "--S", "2,3,5,7,11,13", "--heights", "131071"],
    ],
)
def test_malformed_coordinates_and_place_maps_exit_2(argv, capsys):
    assert main(argv) == 2
    assert json.loads(capsys.readouterr().err.strip().splitlines()[-1])["code"] == 2


@pytest.mark.parametrize("sub, extra", [("mc-haar", ["--p", "2"]), ("rr-check", ["--parts", "product"])])
def test_count_above_its_maximum_is_refused_before_any_work(sub, extra, capsys, monkeypatch):
    cap = cli._CAPS[sub, "count"]
    tracemalloc.start()
    try:
        assert main([sub, *extra, "--count", "1000000000"]) == 2
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert f"--count must be <= {cap}" in capsys.readouterr().err
    assert f"--count is at most {cap}" in cli._usage_text(sub)
    assert f"--count <= {cap}" in cli._usage_text()
    # the cap itself is admitted, one more is not
    monkeypatch.setitem(cli._CAPS, (sub, "count"), 50)
    assert main([sub, *extra, "--count", "50"]) == 0
    assert main([sub, *extra, "--count", "51"]) == 2
    capsys.readouterr()


def test_depth_above_its_maximum_is_refused_before_any_draw(capsys, monkeypatch):
    cap = cli._CAPS["mc-haar", "depth"]
    assert f"--depth <= {cap}" in cli._usage_text()
    assert f"--depth is at most {cap}" in cli._usage_text("mc-haar")
    # the cap itself is admitted
    assert main(["mc-haar", "--p", "2", "--count", "1000", "--depth", str(cap)]) == 0

    def draw(*args):
        raise AssertionError("drew a sample")

    monkeypatch.setattr(cli, "mc_haar_zp", draw)
    capsys.readouterr()
    # 10^13 once asked numpy for a 73 TiB histogram and died with a traceback
    for depth in (cap + 1, 10**13):
        assert main(["mc-haar", "--p", "2", "--count", "1000", "--depth", str(depth)]) == 2
        assert f"--depth must be <= {cap}" in capsys.readouterr().err


def test_mc_haar_at_both_caps_stays_within_chunk_memory(capsys):
    # eight int64 arrays of one Haar chunk, as in test_padic_integrals; at
    # --depth 2^16 the histogram adds 0.5 MB to the chunk's 0.56 MB
    bound = 8 * 8 * _HAAR_CHUNK
    count, depth = cli._CAPS["mc-haar", "count"], cli._CAPS["mc-haar", "depth"]
    argv = ["mc-haar", "--p", "2", "--count", str(count), "--depth", str(depth)]
    tracemalloc.start()
    try:
        code = main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < bound
    capsys.readouterr()


_CHAR_SUM_EXTREMES = [
    ["--heights", "1"],
    ["--heights", "4096", "--S", "2"],
    ["--S", "2,1000003"],
    ["--t", "1e-300"],
    ["--t", "1e308", "--sigma", "10"],
    ["--gamma", "1e-300"],
    ["--gamma", "1e300"],
    ["--C", "1e-300"],
    ["--C", "1e300"],
    ["--gamma", "1e-300", "--C", "1e300"],
    ["--gamma", "1e300", "--C", "1e-300"],
    ["--S", "2,3,5,7,11,13", "--heights", "131071"],
]


def test_char_sum_at_extreme_values_exits_cleanly_in_bounded_memory(capsys, monkeypatch):
    # --heights 4096 --S 2 has 57,345 members and peaks near 4.2 MiB, about
    # nine int64 arrays of them; the default heights stop at 512, and the
    # last case is refused at the cell cap before its grid is built
    bound = 8 << 20
    main(["char-sum", "--heights", "1"])
    capsys.readouterr()
    for argv in _CHAR_SUM_EXTREMES:
        tracemalloc.start()
        try:
            code = main(["char-sum"] + argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        err = capsys.readouterr().err
        assert code in (0, 2, 3, 4), argv
        assert "Traceback" not in err, argv
        assert peak < bound, (argv, peak)
    # an A past double range once raised OverflowError out of main
    bound_mode = ["char-sum", "--mode", "paper_bound"]
    assert main([*bound_mode, "--A", str(10**400 + 1)]) == 2
    assert "exceeds double range" in capsys.readouterr().err
    cap = cli._CAPS["char-sum", "M"]
    assert main([*bound_mode, "--M", str(cap + 1)]) == 2
    assert f"--M must be <= {cap}" in capsys.readouterr().err
    assert f"--M is at most {cap}" in cli._usage_text("char-sum")
    assert f"--M <= {cap}" in cli._usage_text()
    # the cap itself is admitted, one more is not (from M = 92 on the
    # n-series passes 90, so the request exits 0)
    monkeypatch.setitem(cli._CAPS, ("char-sum", "M"), 200)
    assert main([*bound_mode, "--M", "200"]) == 0
    assert main([*bound_mode, "--M", "201"]) == 2
    capsys.readouterr()


def test_padic_density_names_the_first_failure_in_x_order(capsys):
    # the series refuses x = 0, and the shell integrals of 7919^95 pass
    # double range; the shells of all x are formed together, but the
    # error is still the one the x order meets first
    big = str(7919**95)
    for xs, message in ((f"0,{big}", "series mode needs x != 0"), (f"{big},0", "exceeds double range")):
        assert main(["padic-density", "--p", "7919", "--gamma", "0.001", "--x", xs]) == 2
        assert message in capsys.readouterr().err


def test_gaussian_kind_pins_alpha_and_sigma():
    # the gaussian is the law with alpha = 2, sigma = pi; other values
    # were once echoed and then ignored
    assert main(["psf-check", "--alpha", "1.5", "--t", "1"]) == 2
    assert main(["potential-identity", "--kind", "gaussian", "--sigma", "1"]) == 2
    assert main(["trace-check", "--kind", "gaussian", "--alpha", "-2"]) == 2
    assert main(["adele-eval", "--kind", "gaussian", "--x", "inf=0", "--sigma", "3"]) == 2
    code, rep = run("psf-check", alpha="2", sigma="3.141592653589793")
    assert code == 0
    assert (rep["params"]["alpha"], rep["params"]["sigma"]) == ("2.0", "3.141592653589793")


def test_mc_haar_checks_gamma_and_tau_before_drawing(monkeypatch):
    def draw(*args):
        raise AssertionError("drew a sample")

    monkeypatch.setattr(cli, "mc_haar_zp", draw)
    assert main(["mc-haar", "--p", "2", "--gamma", "1"]) == 2
    assert main(["mc-haar", "--p", "2", "--tau", "1"]) == 2


def test_a_flag_the_mode_does_not_read_is_refused_before_any_work(monkeypatch, capsys):
    def work(*args, **kwargs):
        raise AssertionError("computed before refusing a flag")

    monkeypatch.setattr(cli, "rational_char_sum", work)
    monkeypatch.setattr(cli, "scale_by_idele", work)
    monkeypatch.setattr(cli, "adelic_theta_reduction", work)
    monkeypatch.setattr(cli, "idele_norm", work)
    assert main(["char-sum", "--A", "1"]) == 2
    assert main(["char-sum", "--mode", "paper_bound", "--heights", "8"]) == 2
    assert main(["rr-check", "--parts", "scaling", "--count", "5"]) == 2
    assert main(["rr-check", "--parts", "product", "--lams", "1"]) == 2
    assert main(["rr-check", "--parts", "product,reduction", "--lams", "1,-1"]) == 2
    for parts, flag in (
        ("product", "t"),
        ("product", "tol"),
        ("product", "tol-shell"),
        ("product", "tol-quad"),
        ("reduction", "tol-shell"),
        ("reduction", "tol-quad"),
        ("scaling", "tol"),
    ):
        capsys.readouterr()
        assert main(["rr-check", "--parts", parts, f"--{flag}", "0.5"]) == 2
        assert f"unknown parameter(s): {flag}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["psf-check", "--tol-quad", "1e-3"],
        ["trace-check", "--tol-quad", "1e-3"],
        ["potential-identity", "--alpha", "1.5", "--tol-quad", "1e-3"],
        ["cauchy-report", "--tol-shell", "1e-3"],
        ["adelic-theta", "--lam", "1", "--tol-shell", "1e-3"],
        # flags that the chosen mode does not read
        ["padic-gamma", "--p", "2", "--mode", "closed", "--tol-shell", "1e-3"],
        ["padic-integral", "--p", "2", "--gamma", "1", "--tau", "1", "--mode", "closed", "--tol", "1e-3"],
        ["padic-integral", "--p", "2", "--gamma", "1", "--tau", "1", "--mode", "generic", "--tol", "1e-3"],
        ["padic-integral", "--p", "2", "--gamma", "1", "--tau", "1", "--mode", "closed", "--tol-shell", "1e-3"],
        ["padic-density", "--p", "2", "--gamma", "1", "--method", "series", "--tol", "1e-3"],
        ["padic-density", "--p", "2", "--gamma", "1", "--method", "shell", "--tol", "1e-3"],
        ["padic-density", "--p", "2", "--gamma", "1", "--method", "shell", "--series-exponent", "n-gamma"],
        ["cauchy-report", "--convention", "paper", "--tol", "1e-3"],
        ["adele-eval", "--side", "transform", "--x", "inf=0", "--tol-shell", "1e-3"],
        ["adele-eval", "--side", "transform", "--x", "inf=0", "--tol-quad", "1e-3"],
        ["adele-eval", "--x", "inf=0", "--kind", "gaussian", "--tol-quad", "1e-3"],
        ["adele-eval", "--x", "inf=0", "--alpha", "1", "--tol-quad", "1e-3"],
        ["adele-eval", "--x", "inf=0", "--alpha", "2", "--tol-quad", "1e-3"],
    ],
)
def test_a_tolerance_flag_that_sets_nothing_is_refused(argv, capsys):
    # no sum or quadrature of these commands, or of the chosen mode, reads
    # the flag
    assert main(argv) == 2
    assert f"unknown parameter(s): {argv[-2][2:]}" in capsys.readouterr().err


def test_tol_sets_the_tolerance_of_the_rows_it_judges():
    for sub, params, name in (
        ("psf-check", {}, "poisson_summation"),
        ("psf-check", {"kind": "stable", "alpha": "1.5"}, "poisson_summation"),
        ("trace-check", {"kind": "stable", "alpha": "1", "t": "1"}, "t=1"),
        ("potential-identity", {"alpha": "1.5"}, "zeta_identity"),
        ("cauchy-report", {}, "poisson_summation"),
        ("adelic-theta", {"lam": "2"}, "scaled_summation"),
        ("rr-check", {"parts": "reduction"}, "reduction_lambda=1"),
    ):
        code, rep = run_request(CommandRequest(sub, {**params, "tol": "1e-7"}))
        assert code == 0, sub
        assert {r["name"]: r.get("tolerance") for r in rep["results"]}[name] == 1e-7, sub
    # --tol-shell and --tol-quad set a sum or a quadrature, never the
    # default of --tol
    for sub, params, default in (
        ("theta", {"t": "1", "tol-shell": "1e-6"}, 1e-12),
        ("theta-integral", {"tol-quad": "1e-6"}, 1e-8),
        ("psf-check", {"tol-shell": "1e-6"}, 1e-12),
        ("psf-check", {"kind": "stable", "alpha": "1.5", "tol-shell": "1e-6"}, 1e-8),
        ("trace-check", {"kind": "gaussian", "t": "1", "tol-shell": "1e-6"}, 1e-12),
        ("trace-check", {"kind": "stable", "alpha": "1", "t": "1", "tol-shell": "1e-6"}, 1e-8),
        ("trace-check", {"kind": "stable", "alpha": "1.5", "t": "1", "tol-shell": "1e-9"}, 1e-6),
        ("padic-gamma", {"p": "2", "tol-shell": "1e-6"}, 1e-12),
        ("padic-integral", {"p": "2", "gamma": "1", "tau": "1", "tol-shell": "1e-6"}, 1e-12),
        ("padic-mass", {"p": "2", "gamma": "1", "tol-shell": "1e-6"}, 1e-12),
    ):
        _, rep = run_request(CommandRequest(sub, params))
        tols = {r["tolerance"] for r in rep["results"] if "tolerance" in r}
        assert tols == {default}, (sub, params, tols)
    # rr-check judges its reduction rows at --tol alone, and its scaling
    # rows at --tol-quad
    code, rep = run("rr-check", parts="reduction,scaling", grid_points="2", tol_shell="1e-10", tol_quad="1e-7")
    assert code == 0
    tols: dict[str, set] = {}
    for r in rep["results"]:
        tols.setdefault(r["name"].split("[")[0].split("=")[0], set()).add(r["tolerance"])
    assert tols == {"reduction_lambda": {1e-12}, "scaled_mass": {1e-7}, "fourier": {1e-7}}


def test_an_unknown_key_is_refused_before_any_work(monkeypatch):
    # a request or a replayed report refuses a key outside the command's
    # flags as the argv form does: before the handler computes anything
    def work(*args, **kwargs):
        raise AssertionError("computed before refusing a key")

    monkeypatch.setattr(cli, "wrapped_density", work)
    params = {"kind": "stable", "alpha": "0.5", "bogus": "1"}
    with pytest.raises(ParameterError, match="bogus"):
        run_request(CommandRequest("psf-check", params))
    with pytest.raises(ParameterError, match="bogus"):
        replay_report({"command": "psf-check", "params": params})
    assert main(["psf-check", "--kind", "stable", "--alpha", "0.5", "--bogus", "1"]) == 2
    monkeypatch.setattr(cli, "theta", work)
    assert main(["theta", "--t", "1", "--bogus", "1"]) == 2


@pytest.mark.parametrize("sub", ["trace-check", "psf-check"])
@pytest.mark.parametrize("law", [[], ["--kind", "stable", "--alpha", "1.5"]])
def test_d_above_3_is_refused_before_any_work(sub, law, monkeypatch, capsys):
    def work(*args, **kwargs):
        raise AssertionError("computed before refusing d = 4")

    monkeypatch.setattr(cli, "wrapped_density", work)
    monkeypatch.setattr(cli, "trace_defect", work)
    assert main([sub, *law, "--d", "4"]) == 2
    assert "d <= 3" in json.loads(capsys.readouterr().err.strip().splitlines()[-1])["message"]


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
