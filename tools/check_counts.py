#!/usr/bin/env python3
"""Exact work-count and report-digest gate for the repository benchmark and
the smoke benches.

Usage: check_counts.py <workload> <trace.txt> [counts.json]
       check_counts.py --smoke <smoke.json> [smoke_counts.json]
       check_counts.py --digest <run.json> [digests.json]
       check_counts.py --self-check

<trace.txt> is the stdout of

    python3 perfbench/run.py --workload <workload> --seed 1 --seconds S --trace 1

whose last line is one JSON object. Every count that counts.json (default:
perfbench_counts.json next to this script) records for <workload> must equal
the run's value exactly.

<smoke.json> is the file a bench writes with `--smoke --json <smoke.json>`
(see .github/workflows/ci.yml). Every row's `events` must equal the count
smoke_counts.json (default: next to this script) records for that bench and
row, and every row must be recorded. The BENCH_*.json events/s budgets
cannot see a count that moves, because a run with fewer events also takes
less time.

<run.json> is the stdout of one repository benchmark run,

    .bench_build/perfbench/saex_perfbench --workload <workload> --seed <seed> --setups 1

one JSON object whose `digest` hashes every report the run rendered. It must
equal the digest perfbench_digests.json (default: next to this script)
records for that workload and seed.

These counts and digests are deterministic functions of the code and the
seed: events, device calls, bytes moved, tasks, rendered reports. A change
that moves one on purpose updates the snapshot in the same commit and says
why; any other move is a regression or a determinism bug.

`--self-check` runs the checker's own unit tests (wired into ctest).

Exit code 0 = every count equal, 1 = a count moved or is missing,
2 = bad input.
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
DEFAULT_SNAPSHOT = HERE / "perfbench_counts.json"
DEFAULT_SMOKE_SNAPSHOT = HERE / "smoke_counts.json"
DEFAULT_DIGEST_SNAPSHOT = HERE / "perfbench_digests.json"


def last_json_line(text):
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        raise ValueError("no output")
    return json.loads(lines[-1])


def compare_counts(label, expected, got):
    """Returns one failure line per count in `expected` that `got` (name ->
    value) lacks or holds a different value for."""
    failures = []
    for name, want in expected.items():
        if name not in got:
            failures.append(f"{label} {name}: missing (want {want})")
            continue
        if got[name] != want:
            delta = (f"{100.0 * (got[name] - want) / want:+.2f}%" if want
                     else "n/a")
            failures.append(f"{label} {name}: {got[name]} != snapshot {want} "
                            f"({delta})")
    return failures


def compare(workload, result, snapshot):
    """perfbench mode: one failure line per count that differs or is
    missing. Metrics the snapshot does not record are not checked."""
    expected = snapshot["workloads"].get(workload)
    if expected is None:
        return [f"{workload}: no counts recorded in the snapshot"]
    got = {name: m["value"] for name, m in result.get("metrics", {}).items()}
    return compare_counts(workload, expected, got)


def compare_smoke(doc, snapshot):
    """Smoke mode: one failure line per row whose event count differs from
    the snapshot, is missing, or is not recorded."""
    bench = doc.get("bench", "?")
    expected = snapshot["benches"].get(bench)
    if expected is None:
        return [f"{bench}: no counts recorded in the snapshot"]
    got = {row["name"]: row["events"] for row in doc.get("benchmarks", [])}
    failures = compare_counts(f"{bench} events", expected, got)
    for name in got:
        if name not in expected:
            failures.append(f"{bench} events {name}: {got[name]} not recorded "
                            "in the snapshot")
    return failures


def compare_digest(result, snapshot):
    """Digest mode: one failure line if the run's report digest differs from
    the one recorded for its workload and seed, or none is recorded."""
    workload = result.get("workload", "?")
    seed = str(result.get("seed", "?"))
    label = f"{workload} seed {seed}"
    want = snapshot["workloads"].get(workload, {}).get(seed)
    if want is None:
        return [f"{label}: no digest recorded in the snapshot"]
    got = result.get("digest")
    if got != want:
        return [f"{label} digest: {got} != snapshot {want}"]
    return []


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

    smoke_snapshot = {"benches": {"k": {"r1": 100, "r2": 7}}}

    def smoke(bench="k", **events):
        return {"bench": bench,
                "benchmarks": [{"name": n, "wall_seconds": 0.1, "events": e,
                                "events_per_sec": e / 0.1}
                               for n, e in events.items()]}

    smoke_cases = [
        ("equal smoke events pass", smoke(r1=100, r2=7), 0),
        ("a moved smoke count fails", smoke(r1=99, r2=7), 1),
        ("a missing smoke row fails", smoke(r1=100), 1),
        ("an unrecorded smoke row fails", smoke(r1=100, r2=7, r3=1), 1),
        ("an unrecorded bench fails", smoke("other", r1=100, r2=7), 1),
    ]
    for label, doc, want_failures in smoke_cases:
        got = len(compare_smoke(doc, smoke_snapshot))
        if got != want_failures:
            print(f"FAIL {label}: {got} failures, want {want_failures}")
            ok = False

    digest_snapshot = {"workloads": {"w": {"1": "00ff", "9": "abcd"}}}

    def run(workload="w", seed=1, **fields):
        return {"workload": workload, "seed": seed, **fields}

    digest_cases = [
        ("an equal digest passes", run(digest="00ff"), 0),
        ("the other seed's digest passes", run(seed=9, digest="abcd"), 0),
        ("a moved digest fails", run(digest="00fe"), 1),
        ("a missing digest fails", run(), 1),
        ("an unrecorded seed fails", run(seed=2, digest="00ff"), 1),
        ("an unrecorded workload fails", run("other", digest="00ff"), 1),
    ]
    for label, res, want_failures in digest_cases:
        got = len(compare_digest(res, digest_snapshot))
        if got != want_failures:
            print(f"FAIL {label}: {got} failures, want {want_failures}")
            ok = False
    print("check_counts self-check:", "ok" if ok else "FAILED")
    return 0 if ok else 1


def load(path, parse=json.loads):
    try:
        return parse(Path(path).read_text())
    except (OSError, ValueError) as e:
        print(f"check_counts: bad input: {e}", file=sys.stderr)
        return None


def report(label, failures, checked, what):
    for line in failures:
        print(line)
    print(f"{label}: {checked} {what} checked, {len(failures)} moved")
    return 1 if failures else 0


def run_workload(workload, trace_path, snapshot_path=DEFAULT_SNAPSHOT):
    result = load(trace_path, last_json_line)
    snapshot = load(snapshot_path)
    if result is None or snapshot is None:
        return 2
    return report(workload, compare(workload, result, snapshot),
                  len(snapshot["workloads"].get(workload, {})), "counts")


def run_smoke(smoke_path, snapshot_path=DEFAULT_SMOKE_SNAPSHOT):
    doc = load(smoke_path)
    snapshot = load(snapshot_path)
    if doc is None or snapshot is None:
        return 2
    return report(doc.get("bench", "?"), compare_smoke(doc, snapshot),
                  len(doc.get("benchmarks", [])), "rows")


def run_digest(run_path, snapshot_path=DEFAULT_DIGEST_SNAPSHOT):
    result = load(run_path, last_json_line)
    snapshot = load(snapshot_path)
    if result is None or snapshot is None:
        return 2
    label = f"{result.get('workload', '?')} seed {result.get('seed', '?')}"
    return report(label, compare_digest(result, snapshot), 1, "digest")


def main():
    args = sys.argv[1:]
    if args == ["--self-check"]:
        return self_check()
    if args[:1] == ["--smoke"] and len(args) in (2, 3):
        return run_smoke(*args[1:])
    if args[:1] == ["--digest"] and len(args) in (2, 3):
        return run_digest(*args[1:])
    if len(args) in (2, 3) and not args[0].startswith("--"):
        return run_workload(*args)
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())
