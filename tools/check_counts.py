#!/usr/bin/env python3
"""Exact work-count gate for the repository benchmark.

Usage: check_counts.py <workload> <trace.txt> [counts.json]
       check_counts.py --self-check

<trace.txt> is the stdout of

    python3 perfbench/run.py --workload <workload> --seed 1 --seconds S --trace 1

whose last line is one JSON object. Every count that counts.json (default:
perfbench_counts.json next to this script) records for <workload> must equal
the run's value exactly. These counts are deterministic functions of the
code and the seed: events, device calls, bytes moved, tasks. A change that
moves one on purpose updates the snapshot in the same commit and says why;
any other move is a regression or a determinism bug.

`--self-check` runs the checker's own unit tests (wired into ctest).

Exit code 0 = every count equal, 1 = a count moved or is missing,
2 = bad input.
"""

import json
import sys
from pathlib import Path

DEFAULT_SNAPSHOT = Path(__file__).resolve().parent / "perfbench_counts.json"


def last_json_line(text):
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        raise ValueError("no output")
    return json.loads(lines[-1])


def compare(workload, result, snapshot):
    """Returns one failure line per count that differs or is missing."""
    expected = snapshot["workloads"].get(workload)
    if expected is None:
        return [f"{workload}: no counts recorded in the snapshot"]
    metrics = result.get("metrics", {})
    failures = []
    for name, want in expected.items():
        if name not in metrics:
            failures.append(f"{workload} {name}: missing (want {want})")
            continue
        got = metrics[name]["value"]
        if got != want:
            delta = f"{100.0 * (got - want) / want:+.2f}%" if want else "n/a"
            failures.append(f"{workload} {name}: {got} != snapshot {want} "
                            f"({delta})")
    return failures


def self_check():
    snapshot = {"seed": 1, "workloads": {"w": {"a": 10, "b": 0}}}

    def result(**values):
        return {"metrics": {k: {"value": v} for k, v in values.items()}}

    cases = [
        ("equal counts pass", result(a=10, b=0.0, extra=5), 0),
        ("a moved count fails", result(a=11, b=0), 1),
        ("a missing count fails", result(a=10), 1),
    ]
    ok = True
    for label, res, want_failures in cases:
        got = len(compare("w", res, snapshot))
        if got != want_failures:
            print(f"FAIL {label}: {got} failures, want {want_failures}")
            ok = False
    if compare("unknown", result(a=10, b=0), snapshot) == []:
        print("FAIL an unrecorded workload must fail")
        ok = False
    print("check_counts self-check:", "ok" if ok else "FAILED")
    return 0 if ok else 1


def main():
    if len(sys.argv) == 2 and sys.argv[1] == "--self-check":
        return self_check()
    if len(sys.argv) not in (3, 4):
        print(__doc__, file=sys.stderr)
        return 2
    workload, trace_path = sys.argv[1], sys.argv[2]
    snapshot_path = Path(sys.argv[3]) if len(sys.argv) == 4 else DEFAULT_SNAPSHOT
    try:
        result = last_json_line(Path(trace_path).read_text())
        snapshot = json.loads(snapshot_path.read_text())
    except (OSError, ValueError) as e:
        print(f"check_counts: bad input: {e}", file=sys.stderr)
        return 2
    failures = compare(workload, result, snapshot)
    for line in failures:
        print(line)
    checked = len(snapshot["workloads"].get(workload, {}))
    print(f"{workload}: {checked} counts checked, {len(failures)} moved")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
