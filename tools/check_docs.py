#!/usr/bin/env python3
"""Documentation checks run by the CI docs job (stdlib only).

1. Link check: every relative markdown link in *.md (repo root and docs/)
   resolves to an existing file.
2. Fault-key sync: the saex.fault.* / spark.speculation.* keys documented in
   docs/FAULT_MODEL.md and the ones defined in conf::spark_registry()
   (src/conf/spark_params.cpp) are exactly the same set.
3. Bench freshness: every `bench binary` EXPERIMENTS.md names in backticks
   has a matching bench/<name>.cpp.
4. Module freshness: every module docs/ARCHITECTURE.md bolds as
   **`src/<name>/`** exists, and every directory under src/ is documented.
5. Bench-snapshot sync: BENCH_kernel.json, BENCH_engine.json,
   BENCH_storage.json, BENCH_serve.json, BENCH_fault.json,
   BENCH_resilience.json and BENCH_aqe.json parse and every scenario they
   record is discussed in docs/PERFORMANCE.md.
6. Scaling story: docs/SCALING.md exists and is linked from README.md and
   docs/ARCHITECTURE.md.
7. Test-count agreement: the test count README.md claims matches the one
   EXPERIMENTS.md records.
8. Documented keys exist: every saex.* key written in backticks in
   README.md, DESIGN.md, EXPERIMENTS.md and docs/*.md is defined in
   src/conf/spark_params.cpp (`.*` wildcards are skipped; CHANGES.md and
   ROADMAP.md record history and are not checked).
9. Registered keys are read: every saex.* key registered in
   src/conf/spark_params.cpp is read by a get_*("<key>") call somewhere
   under src/. The one exception is saex.net.flowBatch, which is accepted
   and ignored until ROADMAP item 8 decides its fate.

Exit code 0 iff everything holds; each violation prints one line.
"""
import os
import re
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
failures = []


def fail(msg):
    failures.append(msg)
    print(f"FAIL: {msg}")


def md_files():
    out = []
    for d in (ROOT, os.path.join(ROOT, "docs")):
        if not os.path.isdir(d):
            continue
        for name in sorted(os.listdir(d)):
            if name.endswith(".md"):
                out.append(os.path.join(d, name))
    return out


def read(path):
    with open(path, encoding="utf-8") as f:
        return f.read()


def check_links():
    link_re = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
    for path in md_files():
        for target in link_re.findall(read(path)):
            if target.startswith(("http://", "https://", "mailto:", "#")):
                continue
            rel = target.split("#", 1)[0]
            if not rel:
                continue
            resolved = os.path.normpath(os.path.join(os.path.dirname(path), rel))
            if not os.path.exists(resolved):
                fail(f"{os.path.relpath(path, ROOT)}: broken link -> {target}")


def registry_keys():
    src = read(os.path.join(ROOT, "src/conf/spark_params.cpp"))
    return set(re.findall(r'"((?:saex\.fault|spark\.speculation)[\w.]*)"', src))


def documented_keys():
    doc = read(os.path.join(ROOT, "docs/FAULT_MODEL.md"))
    keys = set(re.findall(r"`((?:saex\.fault|spark\.speculation)[\w.]*)`", doc))
    return {k for k in keys if not k.endswith(".")}


def check_fault_keys():
    reg, doc = registry_keys(), documented_keys()
    for k in sorted(reg - doc):
        fail(f"docs/FAULT_MODEL.md: registry key `{k}` is undocumented")
    for k in sorted(doc - reg):
        fail(f"docs/FAULT_MODEL.md: documents `{k}` which is not in the registry")


def check_bench_references():
    text = read(os.path.join(ROOT, "EXPERIMENTS.md"))
    benches = {
        os.path.splitext(n)[0]
        for n in os.listdir(os.path.join(ROOT, "bench"))
        if n.endswith(".cpp")
    }
    # Headings name their binary in backticks: `(`fig8_endtoend`)`.
    for name in re.findall(r"`([a-z0-9_]+)`\)", text):
        if name not in benches:
            fail(f"EXPERIMENTS.md: names bench `{name}` but bench/{name}.cpp is missing")


def check_architecture_modules():
    doc = read(os.path.join(ROOT, "docs/ARCHITECTURE.md"))
    documented = set(re.findall(r"\*\*`src/([a-z]+)/`\*\*", doc))
    actual = {
        n for n in os.listdir(os.path.join(ROOT, "src"))
        if os.path.isdir(os.path.join(ROOT, "src", n))
    }
    for m in sorted(documented - actual):
        fail(f"docs/ARCHITECTURE.md: documents src/{m}/ which does not exist")
    for m in sorted(actual - documented):
        fail(f"docs/ARCHITECTURE.md: src/{m}/ exists but has no module paragraph")


def check_bench_snapshot(json_name, bench_binary):
    """A checked-in BENCH_*.json snapshot must stay in sync with
    docs/PERFORMANCE.md: every scenario it records is discussed there."""
    import json

    path = os.path.join(ROOT, json_name)
    if not os.path.exists(path):
        fail(f"{json_name}: missing (run ./build/bench/{bench_binary} --json {json_name})")
        return
    try:
        data = json.loads(read(path))
    except ValueError as e:
        fail(f"{json_name}: invalid JSON ({e})")
        return
    doc = read(os.path.join(ROOT, "docs/PERFORMANCE.md"))
    for entry in data.get("benchmarks", []):
        name = entry.get("name", "")
        if f"`{name}`" not in doc:
            fail(f"docs/PERFORMANCE.md: {json_name} scenario `{name}` is undocumented")


def check_kernel_bench():
    check_bench_snapshot("BENCH_kernel.json", "kernel_perf")


def check_engine_bench():
    check_bench_snapshot("BENCH_engine.json", "engine_perf")


def check_storage_bench():
    check_bench_snapshot("BENCH_storage.json", "cache_policies")


def check_serve_bench():
    check_bench_snapshot("BENCH_serve.json", "serve_shard")


def check_fault_bench():
    check_bench_snapshot("BENCH_fault.json", "fault_recovery")


def check_resilience_bench():
    check_bench_snapshot("BENCH_resilience.json", "serve_resilience")


def check_aqe_bench():
    check_bench_snapshot("BENCH_aqe.json", "aqe_ablation")


def check_scaling_doc():
    """docs/SCALING.md must exist and be reachable from README.md and
    docs/ARCHITECTURE.md (the scaling story is load-bearing docs, not an
    orphan page)."""
    path = os.path.join(ROOT, "docs/SCALING.md")
    if not os.path.exists(path):
        fail("docs/SCALING.md: missing")
        return
    for source, link in (("README.md", "docs/SCALING.md"),
                         ("docs/ARCHITECTURE.md", "SCALING.md")):
        if link not in read(os.path.join(ROOT, source)):
            fail(f"{source}: no link to {link}")


def check_test_count():
    readme = re.search(r"#\s*(\d+)\s+tests", read(os.path.join(ROOT, "README.md")))
    exp = re.search(r"(\d+)/\1 tests pass", read(os.path.join(ROOT, "EXPERIMENTS.md")))
    if not readme:
        fail("README.md: no '# <N> tests' claim found next to the ctest command")
        return
    if not exp:
        fail("EXPERIMENTS.md: no '<N>/<N> tests pass' claim found")
        return
    if readme.group(1) != exp.group(1):
        fail(
            f"test-count drift: README.md says {readme.group(1)}, "
            f"EXPERIMENTS.md says {exp.group(1)}"
        )


def check_saex_keys():
    src = read(os.path.join(ROOT, "src/conf/spark_params.cpp"))
    defined = set(re.findall(r'"(saex\.[\w.]+)"', src))
    docs = [os.path.join(ROOT, n) for n in ("README.md", "DESIGN.md", "EXPERIMENTS.md")]
    docs += [p for p in md_files() if os.path.dirname(p) == os.path.join(ROOT, "docs")]
    for path in docs:
        for span in re.findall(r"`([^`\n]+)`", read(path)):
            for key in re.findall(r"saex\.[\w.]*\*?", span):
                key = key.rstrip(".")
                if key.endswith("*") or key in defined:
                    continue
                fail(f"{os.path.relpath(path, ROOT)}: documents `{key}` which is not in the registry")


# Registered but deliberately unread (see the module docstring, check 9).
UNREAD_SAEX_KEYS = {"saex.net.flowBatch"}


def check_saex_keys_read():
    src = read(os.path.join(ROOT, "src/conf/spark_params.cpp"))
    defined = set(re.findall(r'r\.define\(\{\s*"(saex\.[\w.]+)"', src))
    read_keys = set()
    for dirpath, _, names in os.walk(os.path.join(ROOT, "src")):
        for name in names:
            if name.endswith((".cpp", ".h")):
                text = read(os.path.join(dirpath, name))
                read_keys.update(re.findall(r'get_\w+\(\s*"(saex\.[\w.]+)"', text))
    for key in sorted(defined - read_keys - UNREAD_SAEX_KEYS):
        fail(f"src/conf/spark_params.cpp: registers `{key}` but nothing under src/ reads it")


def main():
    check_links()
    check_fault_keys()
    check_bench_references()
    check_architecture_modules()
    check_kernel_bench()
    check_engine_bench()
    check_storage_bench()
    check_serve_bench()
    check_fault_bench()
    check_resilience_bench()
    check_aqe_bench()
    check_scaling_doc()
    check_test_count()
    check_saex_keys()
    check_saex_keys_read()
    if failures:
        print(f"\n{len(failures)} documentation check(s) failed")
        return 1
    print("all documentation checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
