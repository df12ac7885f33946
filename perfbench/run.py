"""trace-lab benchmark: one client, one thread, closed loop.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The benchmark drives the program only
through ``trace_lab.cli.run_request`` and checks every result row against
the reference snapshot in ``perfbench/reference``.  A pass is one full
request list of the workload (see ``workloads.py``); passes repeat until
the next one would end after ``--seconds``, with at least three passes and
100 requests.  Pass and request times are scaled to a reference machine
speed measured in the same run (see ``CALIBRATION_REF_S``); the raw times
are in ``perfbench/out/``.

With ``--trace 0`` the last line of standard output carries the
end-to-end metrics; with ``--trace 1`` it carries the per-layer metrics of
a traced run, whose passes alternate with untraced ones of the same
request list so that ``trace.overhead_s`` compares like with like.  The
lines before it give the run's environment, its failed requests and every
metric as a table; ``perfbench/out/`` receives the same as JSON, plus the
spans of a traced run.
"""
from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback

import reference
import tracer
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(HERE, "out")

SETUP_RUNS = 5
MIN_PASSES = 3
MIN_REQUESTS = 100
SETUP_TIMEOUT_S = 60

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("request_p90_ms", "ms"),
    ("ok_share", "ratio"),
    ("rows_in_bound_share", "ratio"),
    ("peak_rss_mb", "MB"),
)

# The speed of a shared machine drifts by a third over tens of seconds, for
# every process alike.  A fixed pure-Python loop, timed after each request,
# tracks that drift; the pass and request times the benchmark reports are
# scaled by CALIBRATION_REF_S over the pass's median loop time, i.e. given
# in seconds of a machine on which one loop takes CALIBRATION_REF_S.
CALIBRATION_REF_S = 1.5e-3
CALIBRATION_LOOPS = 20_000

# a fresh interpreter imports the program and answers one trivial request
_SETUP_CODE = (
    "import sys; sys.path.insert(0, sys.argv[1]); "
    "from trace_lab.cli import CommandRequest, run_request; "
    "code, rep = run_request(CommandRequest('theta', {'t': '1'})); "
    "sys.exit(0 if code == 0 and rep['results'] else 1)"
)


class BenchError(Exception):
    """The benchmark cannot run here."""


def calibration_s() -> float:
    """Time one fixed pure-Python loop."""
    start = time.perf_counter()
    acc = 0
    for i in range(CALIBRATION_LOOPS):
        acc += i * i % 7
    return time.perf_counter() - start


def measure_setup() -> list[float]:
    runs = []
    for _ in range(SETUP_RUNS):
        start = time.perf_counter()
        try:
            proc = subprocess.run(
                [sys.executable, "-c", _SETUP_CODE, SRC],
                stdin=subprocess.DEVNULL,
                capture_output=True,
                timeout=SETUP_TIMEOUT_S,
            )
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"set-up took more than {SETUP_TIMEOUT_S} s") from exc
        runs.append(time.perf_counter() - start)
        if proc.returncode != 0:
            raise BenchError("set-up request failed:\n" + proc.stderr.decode(errors="replace"))
    return runs


def _version(package: str) -> str | None:
    try:
        return importlib.metadata.version(package)
    except importlib.metadata.PackageNotFoundError:
        return None


def _git_sha() -> str | None:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def environment(args) -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "mpmath": _version("mpmath"),
        "git_sha": _git_sha(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


class Workload:
    """Sends passes of one workload and checks them against the snapshot."""

    def __init__(self, name: str, seed: int, cli, snapshot: dict):
        self.name = name
        self.seed = seed
        self.cli = cli
        self.snapshot = snapshot
        self.attempted = 0
        self.failed = 0
        self.nonzero = 0
        self.rows = 0
        self.out_of_bound = 0
        self.changed = 0
        self.latencies: list[float] = []
        self.failures: dict[str, dict] = {}
        self.first_rows: dict[str, list[dict]] = {}

    def run_pass(self, index: int, trace: tracer.Tracer | None = None) -> dict:
        """Send pass ``index``; return its time, scale and check counts.

        ``raw_s`` is the sum of the request latencies, ``wall_s`` the same
        scaled by the calibration loops timed after each request.
        """
        reqs = workloads.build_pass(self.name, self.seed, index)
        outcomes = []
        latencies = []
        loops = []
        run_request, command_request = self.cli.run_request, self.cli.CommandRequest
        for rid, (label, sub, params) in enumerate(reqs):
            if trace is not None:
                trace.request_id = rid
            start = time.perf_counter()
            try:
                code, report = run_request(command_request(sub, params))
                rows, error = report["results"], None
            except Exception:
                code, rows, error = None, None, traceback.format_exc()
            latencies.append(time.perf_counter() - start)
            outcomes.append((label, sub, params, code, rows, error))
            loops.append(calibration_s())
        scale = CALIBRATION_REF_S / statistics.median(loops)
        self.latencies += [lat * scale for lat in latencies]
        tally = {"raw_s": sum(latencies), "scale": scale, "wall_s": sum(latencies) * scale}
        return self._check(outcomes, tally)

    def _check(self, outcomes, tally: dict) -> dict:
        tally.update(rows=0, out_of_bound=0, changed=0)
        for label, sub, params, code, rows, error in outcomes:
            ref = self.snapshot.get(label)
            if ref is None:
                error = error or f"no reference entry for {label}"
                ref = {"exit": None, "rows": []}
            res = reference.compare(sub, code, rows, ref)
            new_failure = res["new_failure"] or error is not None
            for k in ("rows", "out_of_bound", "changed"):
                tally[k] += res[k]
            self.failed += new_failure
            self.nonzero += code != 0
            if code != 0 or new_failure:
                entry = self.failures.setdefault(
                    label,
                    {
                        "subcommand": sub,
                        "params": params,
                        "exit": code,
                        "expected_exit": ref["exit"],
                        "failing_rows": [
                            r["name"]
                            for r in rows or []
                            if r.get("pass") is False or r.get("converged") is False
                        ],
                        "error": error,
                        "count": 0,
                    },
                )
                entry["count"] += 1
            if self.name == "paper_battery" and rows is not None:
                self.first_rows.setdefault(label, rows)
        self.attempted += len(outcomes)
        self.rows += tally["rows"]
        self.out_of_bound += tally["out_of_bound"]
        self.changed += tally["changed"]
        return tally


def _more_passes(passes: list[dict], elapsed: float, requests: int, seconds: float) -> bool:
    if len(passes) < MIN_PASSES or requests < MIN_REQUESTS:
        return True
    return elapsed + statistics.median(p["raw_s"] for p in passes) <= seconds


def measure(work: Workload, seconds: float) -> dict:
    setup = measure_setup()
    passes = []
    start = time.perf_counter()
    while _more_passes(passes, time.perf_counter() - start, work.attempted, seconds):
        passes.append(work.run_pass(len(passes)))
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    latencies = work.latencies
    values = {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "request_p90_ms": statistics.quantiles(latencies, n=10)[8] * 1000.0,
        "ok_share": (work.attempted - work.nonzero) / work.attempted,
        "rows_in_bound_share": (work.rows - work.out_of_bound) / work.rows,
        "peak_rss_mb": rss_mb,
    }
    return {
        "metrics": {name: (values[name], unit) for name, unit in END_TO_END},
        "detail": {
            "setup_runs_s": setup,
            "pass_raw_s": [p["raw_s"] for p in passes],
            "pass_scale": [p["scale"] for p in passes],
            "latency_samples": len(latencies),
            "fail_share": work.nonzero / work.attempted,
            "rows_out_of_bound": work.out_of_bound,
            "rows_changed": work.changed,
        },
    }


def measure_traced(work: Workload, seconds: float) -> dict:
    trace = tracer.Tracer()
    plain, traced, layers = [], [], []
    units = dict(per_layer_metrics())
    start = time.perf_counter()
    while not traced or time.perf_counter() - start + plain[-1]["raw_s"] + traced[-1]["raw_s"] <= seconds:
        index = len(plain)
        plain.append(work.run_pass(index))
        with trace.installed():
            tally = work.run_pass(index, trace)
        traced.append(tally)
        layer = {k: v * tally["scale"] if units[k] == "s" else v for k, v in trace.take().items()}
        layers.append(dict(layer, **{"cli.rows": tally["rows"], "cli.rows_changed": tally["changed"]}))
    metrics = {}
    for name, unit in units.items():
        if name == "trace.overhead_s":
            value = statistics.median(p["wall_s"] for p in traced) - statistics.median(p["wall_s"] for p in plain)
        elif unit == "s":
            value = statistics.median(layer[name] for layer in layers)
        else:
            # counts repeat exactly for a given seed: report the first pass
            value = layers[0][name]
        metrics[name] = (value, unit)
    return {
        "metrics": metrics,
        "detail": {
            "untraced_pass_raw_s": [p["raw_s"] for p in plain],
            "untraced_pass_scale": [p["scale"] for p in plain],
            "traced_pass_raw_s": [p["raw_s"] for p in traced],
            "traced_pass_scale": [p["scale"] for p in traced],
            "missing_targets": trace.missing,
            "fail_share": work.nonzero / work.attempted,
            "rows_out_of_bound": work.out_of_bound,
            "rows_changed": work.changed,
        },
        "spans": trace.span_records(),
    }


def per_layer_metrics() -> list[tuple[str, str]]:
    return tracer.metric_names() + [
        ("cli.rows", "count"),
        ("cli.rows_changed", "count"),
        ("trace.overhead_s", "s"),
    ]


def _write(path: str, data, indent: int | None = 1) -> None:
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(data, fh, indent=indent)
        fh.write("\n")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    sys.path.insert(0, SRC)
    try:
        from trace_lab import cli

        if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
            raise ImportError(f"trace_lab was imported from {cli.__file__}, not from {SRC}")
        snapshot = reference.load(args.workload)
    except (ImportError, OSError) as exc:
        print(f"perfbench: cannot load the program or its reference: {exc}", file=sys.stderr)
        return 2

    env = environment(args)
    print("env " + json.dumps(env, sort_keys=True))
    work = Workload(args.workload, args.seed, cli, snapshot)
    try:
        result = measure_traced(work, args.seconds) if args.trace else measure(work, args.seconds)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    problems = []
    if args.workload == "paper_battery":
        try:
            _, whole = cli.run_request(cli.CommandRequest("reproduce-paper", {}))
            problems = reference.check_paper_list(whole["results"], work.first_rows)
        except Exception:
            problems = ["reproduce-paper raised: " + traceback.format_exc()]

    detail = result["detail"]
    detail.update(attempted=work.attempted, failed=work.failed, paper_list_problems=problems)
    for failure in work.failures.values():
        print("failed " + json.dumps(failure, sort_keys=True))
    for problem in problems:
        print("paper-list " + problem)
    for name, value in detail.items():
        if not isinstance(value, (list, dict)):
            print(f"detail {name} {value}")
    metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in result["metrics"].items()}
    for name, metric in metrics.items():
        print(f"metric {name} {metric['value']!r} {metric['unit']}")

    stem = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    _write(
        stem + ".json",
        {
            "env": env,
            "detail": detail,
            "failures": list(work.failures.values()),
            "metrics": metrics,
        },
    )
    if "spans" in result:
        _write(stem + "-spans.json", result["spans"], indent=None)

    correct = work.failed == 0 and work.out_of_bound == 0 and not problems
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": work.attempted,
                "failed": work.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
