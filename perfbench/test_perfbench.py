"""Tests of the benchmark itself; run with ``python3 -m pytest perfbench``."""
from __future__ import annotations

import json
import os
import sys

import pytest

import reference
import run
import tracer
import workloads
from trace_lab import cli


def _bindings() -> dict[tuple[str, str], int]:
    out = {}
    for name, mod in sys.modules.items():
        if mod is not None and (name == "trace_lab" or name.startswith("trace_lab.")):
            for attr, value in vars(mod).items():
                out[(name, attr)] = id(value)
    out[("core", "CompensatedSum.add")] = id(sys.modules["trace_lab.core"].CompensatedSum.add)
    return out


def _short_passes(monkeypatch, count: int = 8) -> None:
    full = workloads.build_pass
    monkeypatch.setattr(workloads, "build_pass", lambda w, s, i: full(w, s, i)[:count])


def _traced_counts(workload: str, seed: int) -> dict:
    work = run.Workload(workload, seed, cli, reference.load(workload))
    trace = tracer.Tracer()
    with trace.installed():
        tally = work.run_pass(0, trace)
    assert work.failed == 0 and tally["out_of_bound"] == 0
    units = dict(tracer.metric_names())
    return {k: v for k, v in trace.take().items() if units[k] != "s"}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_passes_are_deterministic_per_seed(workload):
    for index in range(3):
        assert workloads.build_pass(workload, 11, index) == workloads.build_pass(workload, 11, index)
    assert workloads.build_pass(workload, 11, 0) != workloads.build_pass(workload, 12, 0)


def test_adelic_passes_draw_fresh_rationals():
    passes = workloads.POOL_SIZE // workloads.PER_PASS
    labels = [
        label
        for index in range(passes)
        for label, sub, _ in workloads.build_pass("adelic_diagonal", 3, index)
        if sub in ("idele-norm", "adele-eval")
    ]
    assert len(labels) == len(set(labels)) == 2 * workloads.PER_PASS * passes


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_request_has_a_reference(workload):
    snap = reference.load(workload)
    assert {label for label, _, _ in workloads.all_requests(workload)} == set(snap)


def test_tracer_restores_every_binding(monkeypatch):
    _short_passes(monkeypatch)
    before = _bindings()
    counts = _traced_counts("paper_battery", 5)
    assert counts["cli.run_request.calls"] == 8
    assert _bindings() == before
    assert sys.modules["trace_lab.semistable"].shell_char_integral is (
        sys.modules["trace_lab.padic_integrals"].shell_char_integral
    )


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_counts_repeat(monkeypatch, workload):
    _short_passes(monkeypatch)
    first = _traced_counts(workload, 5)
    assert first == _traced_counts(workload, 5)
    assert first["cli.run_request.calls"] == 8


def test_row_checks():
    ref = {"exit": 0, "rows": [{"name": "a", "value": 1.0, "error_bound": 1e-9}, {"name": "b", "value": True}]}
    same = reference.compare("theta", 0, ref["rows"], ref)
    assert same == {"rows": 2, "out_of_bound": 0, "changed": 0, "new_failure": False}
    moved = [{"name": "a", "value": 1.0 + 5e-10, "error_bound": 1e-9}, {"name": "b", "value": True}]
    assert reference.compare("theta", 0, moved, ref)["out_of_bound"] == 0
    assert reference.compare("theta", 0, moved, ref)["changed"] == 1
    far = [{"name": "a", "value": 1.0 + 2e-9}, {"name": "b", "value": 1}]
    assert reference.compare("theta", 0, far, ref)["out_of_bound"] == 2
    assert reference.compare("theta", 0, ref["rows"][:1], ref)["out_of_bound"] == 1
    assert reference.compare("theta", None, None, ref)["new_failure"]
    assert reference.compare("theta", 3, ref["rows"], dict(ref, exit=3))["new_failure"] is False
    mc = {"exit": 0, "rows": [{"name": "m", "value": 0.5, "error_bound": 0.0, "pass": True}]}
    drawn = [{"name": "m", "value": 0.52, "error_bound": 0.0, "pass": True}]
    assert reference.compare("mc-haar", 0, drawn, mc)["out_of_bound"] == 0
    assert reference.compare("mc-haar", 4, [dict(drawn[0], **{"pass": False})], mc)["out_of_bound"] == 1


def test_paper_list_matches_reproduce_paper():
    rows_by_label = {}
    for label, sub, params in workloads.paper_requests():
        _, rep = cli.run_request(cli.CommandRequest(sub, params))
        rows_by_label[label] = rep["results"]
    _, whole = cli.run_request(cli.CommandRequest("reproduce-paper", {}))
    assert len(whole["results"]) == 850
    assert reference.check_paper_list(whole["results"], rows_by_label) == []


def test_benchmark_json_names_what_the_runs_report():
    path = os.path.join(os.path.dirname(run.HERE), "BENCHMARK.json")
    with open(path) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == run.per_layer_metrics()
