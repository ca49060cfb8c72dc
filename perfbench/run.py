"""germlab benchmark: what a ``germlab verify`` user waits for, end to end and per layer.

    python3 perfbench/run.py --workload corpus|universal-ladder|structure-ladder
                             --seed N --seconds T --trace 0|1

The benchmark generates the workload's inputs from the seed (workloads.py),
then starts worker processes (worker.py), each with freshly built subjects,
one thread of BLAS and the germlab sources of this checkout.

``--trace 0`` runs untraced verify passes, one per worker, until T seconds
have gone (at least two), plus set-up-only workers until it has eleven
set-up samples, and prints the end-to-end metrics: ``verify_s`` (median pass),
``setup_s`` (median worker set-up), ``peak_rss_mb`` (median worker peak RSS)
and ``checks_ok_frac`` (share of checks that did not FAIL).  Times are
scaled to the reference host speed of hostspeed.py, because this shared host
changes speed by up to 2x within a minute: each pass by the speed sampled
while it ran, each set-up by the run's median reference start (one runs
just before each worker).  The raw wall times and speeds are printed
beside them and kept in the result file.

``--trace 1`` runs one untraced pass and one traced worker (tracing.py) and
prints the per-layer metrics, ``checks_failed_frac`` and
``trace.overhead_frac``.

Both gate the outputs: every pass renders a byte-identical report, the traced
run renders the same report as the untraced one, and every subject's
universal groupoid has |S| - [S has zero] arrows (Steinberg).  The last line
of stdout is the JSON result; the environment record, sample counts and the
spans go to ``perfbench/.out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from hostspeed import REFERENCE_START_S, reference_start

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / ".out"
BLAS_PIN = {name: "1" for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                   "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
                                   "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}
MIN_PASSES = 2
MIN_SETUPS = 11
RUN_DEADLINE_S = 170       # a run must end within 180 s
WORKER_STARTUP_S = 5       # a worker is not started with less time than this left

END_TO_END_UNITS = {"verify_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
                    "checks_ok_frac": "ratio"}


class BenchError(Exception):
    """The benchmark could not measure; it exits non-zero without a result."""


def worker_env() -> dict:
    env = dict(os.environ, **BLAS_PIN)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def run_worker(mode: str, docs: Path, deadline: float, *extra: str) -> dict:
    """Time a reference start, then start one worker, wait for it, and return
    its JSON result with the reference start time as ``start_ref_s``."""
    remaining = deadline - time.monotonic()
    if remaining < WORKER_STARTUP_S:
        raise BenchError(f"no time left for a {mode} worker")
    try:
        start_ref_s = reference_start(worker_env(), remaining)
    except (subprocess.SubprocessError, OSError) as exc:
        raise BenchError(f"reference start failed: {exc}") from exc
    remaining = deadline - time.monotonic()
    t0 = time.monotonic()
    cmd = [sys.executable, str(HERE / "worker.py"), mode, str(docs), repr(t0), *extra]
    try:
        proc = subprocess.run(cmd, cwd=docs, env=worker_env(), capture_output=True,
                              text=True, timeout=remaining)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{mode} worker did not finish within the run deadline") from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"{mode} worker exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["start_ref_s"] = start_ref_s
    if "env" in result and Path(result["env"]["germlab"]) != ROOT / "src" / "germlab":
        raise BenchError(f"worker imported germlab from {result['env']['germlab']}, "
                         f"not from this checkout")
    return result


def commit_id() -> str:
    """HEAD of the checkout's git metadata, read without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[5:]
    if ref_file.is_file():
        return ref_file.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return "unknown"


def environment(seed: int, worker: dict) -> dict:
    sources = hashlib.sha256()
    for path in sorted((ROOT / "src" / "germlab").glob("*.py")):
        sources.update(path.name.encode() + b"\0" + path.read_bytes())
    cpu = "unknown"
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.is_file():
        cpu = next((line.split(":", 1)[1].strip() for line in cpuinfo.read_text().splitlines()
                    if line.startswith("model name")), cpu)
    return dict(worker["env"], seed=seed, commit=commit_id(),
                germlab_sources_sha256=sources.hexdigest(), nproc=os.cpu_count(),
                cpu_affinity=len(os.sched_getaffinity(0)), cpu_model=cpu)


def gate(passes: list[dict], traced: dict | None) -> list[str]:
    """Reasons the outputs are wrong; empty when they are correct."""
    problems = []
    if len({p["digest"] for p in passes}) != 1:
        problems.append("passes rendered different reports")
    if traced is not None and traced["digest"] != passes[0]["digest"]:
        diff = [a for a, b in zip(passes[0]["statuses"], traced["statuses"]) if a != b]
        problems.append(f"traced report differs from the untraced one ({len(diff)} statuses)")
    oracle = passes[0]["oracle_failures"]
    problems += [f"Steinberg oracle: {line}" for line in oracle]
    return problems


def end_to_end(docs: Path, seconds: int, deadline: float) -> tuple[list, dict, dict]:
    """Untraced passes until `seconds` have gone, and set-up samples."""
    start = time.monotonic()
    passes = []
    while len(passes) < MIN_PASSES or time.monotonic() - start < seconds:
        extra = ("--oracle",) if not passes else ()
        passes.append(run_worker("pass", docs, deadline, *extra))
    setups = list(passes)
    while len(setups) < MIN_SETUPS:
        setups.append(run_worker("setup", docs, deadline))
    setup_wall = [s["setup_wall_s"] for s in setups]
    start_ref = [s["start_ref_s"] for s in setups]
    samples = {
        "verify_s": [p["verify_wall_s"] / p["verify_speed"] for p in passes],
        "setup_s": [w * REFERENCE_START_S / statistics.median(start_ref) for w in setup_wall],
        "peak_rss_mb": [p["peak_rss_mb"] for p in passes],
        "checks_ok_frac": [1 - p["checks_failed"] / p["checks"] for p in passes],
    }
    raw = {
        "verify_wall_s": [p["verify_wall_s"] for p in passes],
        "verify_speed": [p["verify_speed"] for p in passes],
        "setup_wall_s": setup_wall,
        "start_ref_s": start_ref,
    }
    return passes, {name: statistics.median(v) for name, v in samples.items()}, samples, raw


def per_layer(traced: dict, untraced: dict) -> dict:
    """Per-layer metrics of the traced run, in wall seconds as measured.

    The tracing overhead compares the suite spans with the untraced pass,
    both scaled to the reference speed, as the two ran at different times.
    """
    values = dict(traced["metrics"])
    values.update({f"suites.{key}": float(traced[key]) for key in
                   ("checks", "checks_failed", "checks_skipped", "checks_vacuous")})
    values["checks_failed_frac"] = traced["checks_failed"] / traced["checks"]
    verify_s = untraced["verify_wall_s"] / untraced["verify_speed"]
    values["trace.overhead_frac"] = (traced["suite_s"] / traced["speed"] - verify_s) / verify_s
    return values


def unit(name: str) -> str:
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    if name.endswith("_s"):
        return "s"
    return "ratio" if name.endswith("_frac") else "count"


def main(argv=None) -> int:
    from workloads import WORKLOADS, generate

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    deadline = time.monotonic() + RUN_DEADLINE_S

    if not (ROOT / "src" / "germlab" / "__init__.py").is_file():
        raise BenchError(f"no germlab sources under {ROOT / 'src'}")
    os.environ.update(BLAS_PIN)
    sys.path.insert(0, str(ROOT / "src"))
    docs = OUT / "docs" / f"{args.workload}-{args.seed}"
    manifest = generate(args.workload, args.seed, docs)

    if args.trace == 0:
        passes, values, samples, raw = end_to_end(docs, args.seconds, deadline)
        traced = None
    else:
        passes = [run_worker("pass", docs, deadline, "--oracle")]
        traced = run_worker("trace", docs, deadline)
        values = per_layer(traced, passes[0])
        samples = {name: [value] for name, value in values.items()}
        raw = {"verify_wall_s": [passes[0]["verify_wall_s"]],
               "verify_speed": [passes[0]["verify_speed"]], "trace_speed": [traced["speed"]]}
    metrics = {name: {"value": value, "unit": unit(name)} for name, value in values.items()}

    problems = gate(passes, traced)
    runs = passes + ([traced] if traced else [])
    op_failures = [f for r in runs for f in r["op_failures"]]
    env = environment(args.seed, passes[0])
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "env": env, "manifest": manifest, "gate": problems,
              "op_failures": op_failures, "op_s": [p["op_s"] for p in passes],
              "metrics": {n: dict(m, samples=samples[n]) for n, m in metrics.items()},
              "raw": raw}
    (results / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if traced:
        (results / f"{stem}-spans.json").write_text(json.dumps(traced["spans"]) + "\n")

    print(f"germlab benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    print("env " + json.dumps(env, sort_keys=True))
    for name, m in metrics.items():
        print(f"  {name:<36} {m['value']:>14.6g} {m['unit']:<6} n={len(samples[name])}")
    for name, values in raw.items():
        print(f"  ({name} median {statistics.median(values):.6g}, n={len(values)})")
    print(f"  ({passes[0]['checks']} checks per pass, {passes[0]['checks_failed']} failed)")
    for line in problems:
        print("GATE: " + line)
    for line in op_failures:
        print("FAILED OPERATION: " + line)
    print(json.dumps({"correct": not problems, "attempted": sum(r["ops"] for r in runs),
                      "failed": len(op_failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        sys.exit(1)
