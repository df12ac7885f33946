"""Reference snapshot of the seed commit's results and the row checks.

The snapshot maps the label of each request the workload can send to the
exit code and result rows that the seed commit produced for it.  A run compares every
request's rows against it:

* a numeric row is out of bound when its value moved by more than the
  snapshot row's ``error_bound`` (0 when none is declared) plus four ulps;
* a non-numeric row must match exactly;
* rows of `mc-haar` are judged by their own ``pass`` flag, because the
  Monte Carlo draws may change while staying within their 3-sigma bounds;
* a row is changed when any of its fields differs from the snapshot.

Run this file to record the snapshot; only the commit that defines the
reference should do so::

    python3 perfbench/reference.py
"""
from __future__ import annotations

import json
import math
import os
import sys

import workloads

REFERENCE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference")
ULPS = 4


def _encode(row: dict) -> str:
    # json.dumps writes NaN and inf literally, so equal text is equal rows
    return json.dumps(row, sort_keys=True)


def load(workload: str) -> dict[str, dict]:
    with open(os.path.join(REFERENCE_DIR, f"{workload}.json")) as fh:
        return json.load(fh)


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _value_within(row: dict, ref: dict) -> bool:
    v, r = row.get("value"), ref.get("value")
    if not (_is_number(v) and _is_number(r)):
        return v == r and type(v) is type(r)
    if math.isnan(r) or math.isnan(v):
        return math.isnan(r) and math.isnan(v)
    bound = ref.get("error_bound")
    bound = 0.0 if bound is None else bound
    if v == r or math.isinf(bound):
        return True
    slack = ULPS * math.ulp(max(abs(v), abs(r)))
    return abs(v - r) <= bound + slack


def compare(sub: str, exit_code: int | None, rows: list[dict] | None, ref: dict) -> dict:
    """Check one request's outcome against its snapshot entry.

    ``exit_code`` and ``rows`` are None when the request raised.  Returns
    counts: rows checked, rows out of bound, rows changed, and whether the
    outcome is a failure the seed did not have (a raise, or a nonzero exit
    code other than the recorded one).
    """
    ref_rows = ref["rows"]
    if rows is None:
        return {"rows": 0, "out_of_bound": len(ref_rows), "changed": len(ref_rows), "new_failure": True}
    out = changed = 0
    for i in range(max(len(rows), len(ref_rows))):
        if i >= len(rows) or i >= len(ref_rows):
            out += 1
            changed += 1
            continue
        row, snap = rows[i], ref_rows[i]
        changed += _encode(row) != _encode(snap)
        if row["name"] != snap["name"]:
            out += 1
        elif sub == "mc-haar":
            out += row.get("pass") is not True
        else:
            out += not _value_within(row, snap)
    return {
        "rows": max(len(rows), len(ref_rows)),
        "out_of_bound": out,
        "changed": changed,
        "new_failure": exit_code != 0 and exit_code != ref["exit"],
    }


def check_paper_list(whole: list[dict], rows_by_label: dict[str, list[dict]]) -> list[str]:
    """Differences between the rows of one `reproduce-paper` request and
    those of the benchmark's own copy of its list, run one at a time."""
    expected = []
    for label, _, _ in workloads.paper_requests():
        expected += [dict(row, name=f"{label}:{row['name']}") for row in rows_by_label.get(label, [])]
    problems = []
    if len(whole) != len(expected):
        problems.append(f"reproduce-paper gives {len(whole)} rows, the request list {len(expected)}")
    for a, b in zip(whole, expected):
        if _encode(a) != _encode(b):
            problems.append(f"row {a['name']!r} differs from {b['name']!r}")
    return problems


def record() -> None:
    sys.path.insert(0, os.path.join(os.path.dirname(REFERENCE_DIR), os.pardir, "src"))
    from trace_lab.cli import CommandRequest, run_request

    os.makedirs(REFERENCE_DIR, exist_ok=True)
    for workload in workloads.WORKLOADS:
        reqs = workloads.all_requests(workload)
        snap = {}
        for label, sub, params in reqs:
            code, rep = run_request(CommandRequest(sub, params))
            snap[label] = {"exit": code, "rows": rep["results"]}
        if len(snap) != len(reqs):
            raise SystemExit(f"{workload}: request labels are not unique")
        if workload == "paper_battery":
            _, whole = run_request(CommandRequest("reproduce-paper", {}))
            problems = check_paper_list(whole["results"], {k: v["rows"] for k, v in snap.items()})
            if problems:
                raise SystemExit("paper request list drifted from reproduce-paper:\n" + "\n".join(problems))
        path = os.path.join(REFERENCE_DIR, f"{workload}.json")
        with open(path, "w") as fh:
            json.dump(snap, fh, sort_keys=True, separators=(",", ":"))
            fh.write("\n")
        print(f"{path}: {len(snap)} requests")


if __name__ == "__main__":
    record()
