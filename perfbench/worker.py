"""One benchmark worker: a fresh process that sets up one workload and runs it.

    python3 worker.py MODE DOCS_DIR T0 [--oracle]

MODE is ``setup`` (set up and stop), ``pass`` (set up, then one untraced pass
over the workload's verify operations) or ``trace`` (set up, then the traced
pipeline and suite calls of tracing.py).  DOCS_DIR holds the documents and
``manifest.json`` written by workloads.generate; the worker runs with it as
its working directory, so ladder subjects are named by their file names just
as ``germlab verify <file>`` names them.  T0 is the parent's
``time.monotonic()`` just before it started this process; ``setup_wall_s``
runs from T0 to the end of set-up.  ``--oracle`` adds the Steinberg
arrow-count oracle after the timed pass.  The result is one JSON line on
stdout.

The pass and the traced run come with the host speed they ran at
(hostspeed.py): the pass with reference chunks sampled all through it, whose
time is taken out of ``verify_wall_s``, the traced run with chunks right
before and after it.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import resource
import sys
import time
import traceback
from pathlib import Path

import hostspeed
from workloads import load_subjects, operations, run_operation


def summarize(reports) -> dict:
    """Digest of the rendered report plus per-check statuses and counts."""
    from germlab.suites import render_reports

    checks = [c for r in reports for c in r.checks]
    return {
        "digest": hashlib.sha256(render_reports(reports).encode()).hexdigest(),
        "statuses": [[r.subject, r.suite, c.name, c.passed] for r in reports for c in r.checks],
        "checks": len(checks),
        "checks_failed": sum(1 for c in checks if not c.passed),
        "checks_skipped": sum(1 for c in checks if c.passed and c.witness.startswith("skipped:")),
        "checks_vacuous": sum(1 for c in checks if c.witness.startswith("vacuous:")),
    }


def steinberg_oracle(subjects: dict) -> list[str]:
    """Subjects whose universal groupoid does not have |S| - [S has zero] arrows."""
    from germlab.extensions import universal_germs

    bad = []
    for name, S in subjects.items():
        arrows = universal_germs(S).groupoid.n_arrows
        expected = S.size - (S.zero is not None)
        if arrows != expected:
            bad.append(f"{name}: {arrows} arrows, expected {expected}")
    return bad


def environment() -> dict:
    import germlab
    import numpy as np

    env = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "germlab": str(Path(germlab.__file__).resolve().parent),
        "thread_pins": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_THREADS")},
    }
    try:
        config = np.show_config(mode="dicts")
    except TypeError:  # numpy before 1.25 only prints its configuration
        config = {}
    env["blas"] = config.get("Build Dependencies", {}).get("blas", {}).get("name", "unknown")
    return env


def main(argv: list[str]) -> int:
    mode, docs, t0 = argv[0], Path(argv[1]), float(argv[2])
    oracle = "--oracle" in argv[3:]
    manifest = json.loads((docs / "manifest.json").read_text())
    import germlab.cli  # noqa: F401  -- the imports `germlab verify` pays for at start

    if mode == "trace":
        import tracing

        before = hostspeed.measure_now()
        result = tracing.traced_run(manifest)
        result["speed"] = hostspeed.speed(before + hostspeed.measure_now())
        result.update(summarize(result.pop("reports")))
        result["env"] = environment()
        print(json.dumps(result))
        return 0

    subjects = load_subjects(manifest)
    result = {"setup_wall_s": time.monotonic() - t0}
    if mode == "pass":
        reports, failures, op_s = [], [], []
        ops = operations(manifest)
        with hostspeed.SpeedSampler() as sampler:
            started = time.monotonic()
            for name, suite in ops:
                op_start = time.monotonic()
                try:
                    reports += run_operation(subjects, name, suite)
                except Exception:  # a crashed operation is counted, and the pass goes on
                    failures.append(f"{name} --suite {suite}: {traceback.format_exc()}")
                op_s.append([name, suite, time.monotonic() - op_start])
            wall = time.monotonic() - started
        result["verify_wall_s"] = wall - sampler.busy_s
        result["verify_speed"] = hostspeed.speed(sampler.chunks)
        result["speed_chunks"] = len(sampler.chunks)
        result["op_s"] = op_s
        result["ops"] = len(ops)
        result["op_failures"] = failures
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        result.update(summarize(reports))
        result["oracle_failures"] = steinberg_oracle(subjects) if oracle else None
        result["env"] = environment()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
