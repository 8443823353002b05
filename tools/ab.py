#!/usr/bin/env python3
"""Paired parent/change timing of one repository-benchmark workload.

Usage: ab.py --base <rev> --workload W --pairs N [--seed S] [--seconds T]
             [--work-dir D]
       ab.py --self-check

Compares the current checkout (the "change", uncommitted edits included)
against git revision <rev> (the "parent"). Each side is built from its own
tree into its own target directory, as perfbench/run.py builds with
$CARGO_TARGET_DIR set: the parent's tree is extracted with `git archive`
under D (default .ab_build/ in the repository root), and both build
directories live under D too. Then N pairs of samples run back to back,
alternating which side runs first. One sample is one

    saex_perfbench --workload W --seed S --setups 1

run, or, with --seconds T, the medians of one

    perfbench/run.py --workload W --seed S --seconds T --trace 0

(the side's own run.py, building into the side's target directory), so a
sample matches the benchmark's own run length. Every run must exit 0 with
`errors == []` (run.py: `"correct": true`), and every run of both sides
must report the same digest (the change is bitwise identical to its
parent); otherwise the tool exits 1. run.py prints no digest, so with
--seconds each side first makes one `--setups 1` run for the digest, and
the simulated end-to-end metrics (makespan, job p50, SLO attainment,
finished fraction) of every sample must match too.

For wall_s, setup_s and peak_rss_mib it prints each side's median and
interquartile range (IQR) and the pairs in which the change read lower, then
the verdict of the paired rule in PERFORMANCE.md ("Repository benchmark"):

    faster   the change is lower in at least 9/10 of the pairs (ties count
             for neither side) and its median is lower than the parent's by
             more than the parent's IQR
    slower   the same rule with the sides swapped
    same     neither

The last stdout line is one JSON object with every sample and verdict.
`--self-check` runs the statistics' unit tests on synthetic samples.

Exit code 0 = every run correct, 1 = a run failed or digests differ,
2 = bad arguments or a build failure.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("batch_paper", "serve_fair", "serve_churn_shard")
METRICS = ("wall_s", "setup_s", "peak_rss_mib")
SIM_METRICS = ("sim_makespan_s", "sim_job_p50_s", "slo_attainment",
               "finished_frac")
WIN_SHARE = 0.9


def log(msg):
    print(msg, file=sys.stderr, flush=True)


# --- statistics ---------------------------------------------------------------

def quartiles(xs):
    """(q1, median, q3) by linear interpolation between order statistics."""
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, med, q3


def compare(base, change):
    """Paired verdict for one lower-is-better metric. `base` and `change`
    are equally long sample lists; sample i of each comes from pair i."""
    assert len(base) == len(change) and base
    lower = sum(1 for b, c in zip(base, change) if c < b)
    higher = sum(1 for b, c in zip(base, change) if c > b)
    bq1, bmed, bq3 = quartiles(base)
    cq1, cmed, cq3 = quartiles(change)
    iqr = bq3 - bq1
    need = WIN_SHARE * len(base)
    if lower >= need and bmed - cmed > iqr:
        verdict = "faster"
    elif higher >= need and cmed - bmed > iqr:
        verdict = "slower"
    else:
        verdict = "same"
    return {
        "base": {"median": bmed, "q1": bq1, "q3": bq3, "iqr": iqr},
        "change": {"median": cmed, "q1": cq1, "q3": cq3, "iqr": cq3 - cq1},
        "lower": lower, "higher": higher, "pairs": len(base),
        "verdict": verdict,
    }


def self_check():
    cases = []

    def case(desc, got, want):
        cases.append((desc, got == want, got, want))

    case("quartiles of 1..5", quartiles([5, 1, 3, 2, 4]), (2, 3, 4))
    case("quartiles of one sample", quartiles([7.0]), (7.0, 7.0, 7.0))
    base = [1.00, 1.10, 0.95, 1.05, 1.02, 0.98, 1.08, 1.01, 0.97, 1.04]
    case("clear 20% gain is faster",
         compare(base, [b * 0.8 for b in base])["verdict"], "faster")
    case("clear 20% loss is slower",
         compare(base, [b * 1.2 for b in base])["verdict"], "slower")
    case("identical samples are the same",
         compare(base, list(base))["verdict"], "same")
    case("identical samples: ties count for neither",
         (compare(base, list(base))["lower"],
          compare(base, list(base))["higher"]), (0, 0))
    shuffled = base[5:] + base[:5]
    case("same distribution, other order, is the same",
         compare(base, shuffled)["verdict"], "same")
    eight = [b * 0.5 for b in base[:8]] + [b * 1.5 for b in base[8:]]
    case("8/10 wins is not enough", compare(base, eight)["verdict"], "same")
    nine = [b * 0.5 for b in base[:9]] + [b * 1.5 for b in base[9:]]
    case("9/10 wins with a wide gap is faster",
         compare(base, nine)["verdict"], "faster")
    small = [b - 0.01 for b in base]
    case("10/10 wins inside the parent's IQR is the same",
         compare(base, small)["verdict"], "same")
    tied = list(base[:2]) + [b * 0.8 for b in base[2:]]
    case("two ties: 8/10 wins is the same",
         compare(base, tied)["verdict"], "same")
    run_py = {"correct": True, "attempted": 12, "failed": 0, "metrics": {
        "wall_s": {"value": 1.5, "unit": "s"},
        "setup_s": {"value": 0.002, "unit": "s"},
        "peak_rss_mib": {"value": 33.0, "unit": "MiB"},
        "sim_makespan_s": {"value": 3000.0, "unit": "sim_s"},
        "sim_job_p50_s": {"value": 40.0, "unit": "sim_s"},
        "slo_attainment": {"value": 0.9, "unit": "ratio"},
        "finished_frac": {"value": 1.0, "unit": "ratio"}}}
    got = parse_run_py("workload serve_fair ...\n" + json.dumps(run_py))
    case("a run.py sample is its medians",
         (got["wall_s"], got["setup_s"], got["peak_rss_mib"],
          got["sim"]["sim_makespan_s"], got["problems"]),
         (1.5, 0.002, 33.0, 3000.0, []))
    run_py["correct"] = False
    case("an incorrect run.py run is a problem",
         parse_run_py(json.dumps(run_py))["problems"] != [], True)

    bad = 0
    for desc, ok, got, want in cases:
        if ok:
            print(f"ab: ok: {desc}")
        else:
            print(f"ab: SELF-CHECK FAIL: {desc}: got {got!r}, want {want!r}")
            bad += 1
    if bad:
        print(f"ab: self-check: {bad}/{len(cases)} case(s) wrong")
        return 1
    print(f"ab: self-check passed ({len(cases)} cases)")
    return 0


# --- building and running -----------------------------------------------------

def run_checked(cmd):
    proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True)
    if proc.returncode != 0:
        log(proc.stdout[-4000:])
        raise RuntimeError("failed: " + " ".join(map(str, cmd)))
    return proc.stdout


def extract(rev, dest):
    """Writes the tree of `rev` to `dest` (a fresh directory)."""
    dest.mkdir(parents=True)
    with tempfile.TemporaryFile() as tar:
        subprocess.run(["git", "-C", str(ROOT), "archive", rev], stdout=tar,
                       check=True)
        tar.seek(0)
        with tarfile.open(fileobj=tar) as t:
            if hasattr(tarfile, "data_filter"):
                t.extractall(dest, filter="data")
            else:
                t.extractall(dest)


def build(tree, target):
    """Builds saex_perfbench from `tree` into `target`/perfbench, as
    perfbench/run.py does with $CARGO_TARGET_DIR=`target`."""
    build_dir = target / "perfbench"
    if not (build_dir / "CMakeCache.txt").is_file():
        run_checked(["cmake", "-S", str(tree / "perfbench"), "-B",
                     str(build_dir), "-DCMAKE_BUILD_TYPE=Release"])
    run_checked(["cmake", "--build", str(build_dir), "-j", "4", "--target",
                 "saex_perfbench"])
    return build_dir / "saex_perfbench"


def run_once(exe, workload, seed):
    proc = subprocess.run([str(exe), "--workload", workload, "--seed",
                           str(seed), "--setups", "1"],
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"{exe} exited {proc.returncode} without a result")
    out = json.loads(lines[-1])
    problems = list(out.get("errors", []))
    if proc.returncode != 0 and not problems:
        problems.append(f"exited {proc.returncode}")
    return {"wall_s": out["wall_s"], "setup_s": out["setup_s"][0],
            "peak_rss_mib": out["peak_rss_mib"], "digest": out["digest"],
            "problems": problems}


def parse_run_py(stdout):
    """One sample from perfbench/run.py --trace 0 output: its medians."""
    out = json.loads(stdout.strip().splitlines()[-1])
    values = {name: m["value"] for name, m in out["metrics"].items()}
    problems = []
    if not out.get("correct"):
        problems.append(f"run.py: correct is false ({out.get('failed')} of "
                        f"{out.get('attempted')} repetitions failed)")
    return {"wall_s": values["wall_s"], "setup_s": values["setup_s"],
            "peak_rss_mib": values["peak_rss_mib"],
            "sim": {m: values[m] for m in SIM_METRICS},
            "problems": problems}


def run_py_once(tree, target, workload, seed, seconds):
    """The medians of one run.py invocation of `tree`'s benchmark, built
    into `target` (its $CARGO_TARGET_DIR)."""
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    proc = subprocess.run([sys.executable, str(tree / "perfbench" / "run.py"),
                           "--workload", workload, "--seed", str(seed),
                           "--seconds", str(seconds), "--trace", "0"],
                          cwd=str(tree), env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True)
    if not proc.stdout.strip():
        log(proc.stderr[-4000:])
        raise RuntimeError(f"run.py exited {proc.returncode} without a result")
    r = parse_run_py(proc.stdout)
    if proc.returncode != 0 and not r["problems"]:
        r["problems"].append(f"run.py exited {proc.returncode}")
    return r


def fmt(metric, x):
    if metric == "wall_s":
        return f"{x:.3f} s"
    if metric == "setup_s":
        return f"{x * 1e3:.3f} ms"
    return f"{x:.2f}"


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--self-check", action="store_true")
    ap.add_argument("--base")
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--pairs", type=int)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float,
                    help="one sample = the medians of perfbench/run.py "
                    "--seconds T --trace 0 (default: one --setups 1 run)")
    ap.add_argument("--work-dir", type=Path, default=ROOT / ".ab_build")
    args = ap.parse_args()
    if args.self_check:
        return self_check()
    if not args.base or not args.workload or not args.pairs \
            or args.pairs < 1:
        ap.print_usage(sys.stderr)
        log("ab: --base, --workload and --pairs (>= 1) are required")
        return 2
    if args.seconds is not None and args.seconds <= 0:
        log("ab: --seconds must be > 0")
        return 2

    work = args.work_dir.resolve()
    try:
        rev = run_checked(["git", "-C", str(ROOT), "rev-parse", "--verify",
                           args.base + "^{commit}"]).strip()
        base_tree = work / f"base-{rev[:12]}"
        if not base_tree.is_dir():
            extract(rev, base_tree)
        trees = {"base": base_tree, "change": ROOT}
        targets = {"base": work / f"base-{rev[:12]}-target",
                   "change": work / "change-target"}
        exes = {side: build(trees[side], targets[side]) for side in trees}
    except (RuntimeError, OSError, subprocess.CalledProcessError,
            tarfile.TarError) as e:
        log(f"ab: {e}")
        return 2

    def sample(side):
        if args.seconds is None:
            return run_once(exes[side], args.workload, args.seed)
        return run_py_once(trees[side], targets[side], args.workload,
                           args.seed, args.seconds)

    samples = {"base": [], "change": []}
    problems = []
    digest_runs = []
    try:
        if args.seconds is not None:
            digest_runs = [run_once(exes[side], args.workload, args.seed)
                           for side in ("base", "change")]
            for side, r in zip(("base", "change"), digest_runs):
                problems += [f"{side} digest run: {p}" for p in r["problems"]]
        for i in range(args.pairs):
            order = ("base", "change") if i % 2 == 0 else ("change", "base")
            for side in order:
                r = sample(side)
                samples[side].append(r)
                problems += [f"{side} run {i}: {p}" for p in r["problems"]]
            log(f"ab: pair {i + 1}/{args.pairs}: parent "
                f"{samples['base'][-1]['wall_s']:.3f} s, change "
                f"{samples['change'][-1]['wall_s']:.3f} s")
    except (RuntimeError, ValueError, KeyError, IndexError) as e:
        log(f"ab: FAILED run: {e}")
        return 1
    runs = digest_runs or [r for side in samples.values() for r in side]
    digests = sorted({r["digest"] for r in runs})
    if len(digests) != 1:
        problems.append("report digests differ: " + ", ".join(digests))
    if args.seconds is not None:
        sims = {json.dumps(r["sim"], sort_keys=True)
                for side in samples.values() for r in side}
        if len(sims) != 1:
            problems.append("simulated end-to-end metrics differ: "
                            + "; ".join(sorted(sims)))
    for p in problems:
        log(f"ab: FAILED {p}")

    results = {m: compare([r[m] for r in samples["base"]],
                          [r[m] for r in samples["change"]]) for m in METRICS}
    unit = (f"run.py --seconds {args.seconds:g} medians"
            if args.seconds is not None else "--setups 1 runs")
    print(f"parent {rev[:12]} vs change (working tree), "
          f"workload {args.workload}, seed {args.seed}, {args.pairs} pairs "
          f"of {unit}")
    print("| metric | parent | change | lower | verdict |")
    print("|---|---:|---:|---:|---|")
    for m, r in results.items():
        b, c = r["base"], r["change"]
        print(f"| `{m}` | {fmt(m, b['median'])} ({fmt(m, b['iqr'])}) "
              f"| {fmt(m, c['median'])} ({fmt(m, c['iqr'])}) "
              f"| {r['lower']}/{r['pairs']} | {r['verdict']} |")
    print(json.dumps({
        "correct": not problems,
        "base": rev, "workload": args.workload, "seed": args.seed,
        "pairs": args.pairs, "seconds": args.seconds,
        "digest": digests[0] if len(digests) == 1 else None,
        "verdict": results["wall_s"]["verdict"],
        "metrics": results,
        "samples": {side: [{m: r[m] for m in METRICS} for r in runs]
                    for side, runs in samples.items()},
    }))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
