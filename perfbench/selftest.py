"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py

Checks, in about three minutes, that:

- each workload generated twice at each of two seeds gives byte-identical
  files, and the two seeds give different ladder documents;
- every relabeled ladder subject keeps its size, its idempotent count, and
  per suite its check total and its failing checks;
- one short run of ``corpus`` with and without tracing prints every metric
  that BENCHMARK.json declares, with the declared unit, and passes its gate.

Exits 0 when all hold and 1 otherwise, listing what failed.
"""

from __future__ import annotations

import filecmp
import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = (1, 2)


def check_generation(workloads, generate, scratch: Path) -> list[str]:
    problems = []
    for workload in workloads:
        dirs = {}
        for seed in SEEDS:
            a, b = scratch / f"{workload}-{seed}-a", scratch / f"{workload}-{seed}-b"
            generate(workload, seed, a)
            generate(workload, seed, b)
            names = sorted(p.name for p in a.iterdir())
            _, mismatch, errors = filecmp.cmpfiles(a, b, names, shallow=False)
            if mismatch or errors:
                problems.append(f"{workload} seed {seed}: not byte-identical: {mismatch + errors}")
            dirs[seed] = a
        if workload != "corpus":
            docs = [p.name for p in dirs[SEEDS[0]].iterdir() if p.name != "manifest.json"]
            _, mismatch, _ = filecmp.cmpfiles(dirs[SEEDS[0]], dirs[SEEDS[1]], docs,
                                              shallow=False)
            if len(mismatch) != len(docs):
                problems.append(f"{workload}: seeds {SEEDS} share documents")
    return problems


def suite_outcomes(name: str, S, suite: str) -> tuple[int, list[str]]:
    from germlab.suites import run_suite

    checks = [c for r in run_suite(name, S, suite) for c in r.checks]
    return len(checks), [c.name for c in checks if not c.passed]


def check_relabeling(workloads, build_recipe, scratch: Path) -> list[str]:
    """Relabeled subjects must behave like the subjects they came from."""
    from germlab.io import load_semigroup

    problems = []
    for workload in workloads:
        if workload == "corpus":
            continue
        for seed in SEEDS:
            docs = scratch / f"{workload}-{seed}-a"
            manifest = json.loads((docs / "manifest.json").read_text())
            suites = {}
            for name, suite in manifest["operations"]:
                suites.setdefault(name, []).append(suite)
            for subject in manifest["subjects"]:
                name = subject["name"]
                original = build_recipe(subject["recipe"])
                relabeled = load_semigroup(str(docs / subject["file"]))
                if (relabeled.size, len(relabeled.idempotent_set)) != \
                        (original.size, len(original.idempotent_set)):
                    problems.append(f"{workload} seed {seed} {name}: size or idempotents changed")
                for suite in suites[name]:
                    before = suite_outcomes(name, original, suite)
                    after = suite_outcomes(name, relabeled, suite)
                    if before != after:
                        problems.append(f"{workload} seed {seed} {name} --suite {suite}: "
                                        f"{before} before relabeling, {after} after")
    return problems


def check_metrics(declared: dict) -> list[str]:
    """One short corpus run per trace mode prints every declared metric with its unit."""
    problems = []
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", "corpus",
               "--seed", "1", "--seconds", "1", "--trace", str(trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
        if proc.returncode != 0:
            problems.append(f"trace {trace}: run.py exited {proc.returncode}: {proc.stderr[-2000:]}")
            continue
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        if not result["correct"] or result["failed"]:
            problems.append(f"trace {trace}: gate failed: {lines[-2]}")
        want = {m["name"]: m["unit"] for m in declared[key]}
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        if want != got:
            problems.append(f"trace {trace}: metrics {got} differ from BENCHMARK.json {want}")
        for name, unit in want.items():
            if not any(line.split()[:1] == [name] and unit in line.split()
                       for line in lines[:-1]):
                problems.append(f"trace {trace}: no summary line for {name} [{unit}]")
    return problems


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS, build_recipe, generate

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    scratch = HERE / ".out" / "selftest"
    shutil.rmtree(scratch, ignore_errors=True)
    problems = check_generation(WORKLOADS, generate, scratch)
    problems += check_relabeling(WORKLOADS, build_recipe, scratch)
    problems += check_metrics(declared)
    for line in problems:
        print("FAIL: " + line)
    print("selftest: " + ("ok" if not problems else f"{len(problems)} problems"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
