"""Benchmark entry point.

    python3 perfbench/run.py --workload progress|service \\
        --seed N --seconds S --trace 0|1

Run it from the repository root: the package is imported from ``src/``.
The last line on stdout is one JSON object ``{"correct", "attempted",
"failed", "metrics"}`` with the end-to-end metrics of ``BENCHMARK.json``
(``--trace 0``) or its per-layer metrics (``--trace 1``).  Diagnostics
go to stderr.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
import time
from pathlib import Path

WORKLOADS = ("progress", "service")


def _parse(argv):
    parser = argparse.ArgumentParser(prog="perfbench")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument(
        "--seconds",
        type=float,
        required=True,
        help="seconds of repeated set-up and timed work (at least ten repetitions)",
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    root = Path.cwd()
    src = root / "src"
    spec_path = root / "BENCHMARK.json"
    if not (src / "repro" / "__init__.py").is_file() or not spec_path.is_file():
        print(
            f"perfbench: {root} has no src/repro package or no BENCHMARK.json; "
            f"run from the repository root",
            file=sys.stderr,
        )
        return 2
    spec = json.loads(spec_path.read_text())
    # A run must not pick up an operator's progress, parallel or
    # trace-store settings.
    for key in list(os.environ):
        if key in ("REPRO_PROGRESS", "REPRO_TRACE_CACHE") or key.startswith(
            "REPRO_PARALLEL_"
        ):
            del os.environ[key]
    os.environ["PYTHONPATH"] = str(src)  # inherited by the service daemon
    sys.path.insert(0, str(src))
    # SIGTERM unwinds like an exception, so a workload's cleanup stops
    # the daemon it started.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    from common import pin_to_one_cpu

    pin_to_one_cpu()
    if args.workload == "service":
        import online as workload
    else:
        import offline as workload
    t0 = time.perf_counter()
    outcome = workload.run(args.workload, args.seed, args.seconds, bool(args.trace))
    elapsed = time.perf_counter() - t0

    failed_checks = [name for name, ok in outcome["checks"] if not ok]
    for name in failed_checks:
        print(f"perfbench: check failed: {name}", file=sys.stderr)
    sent, failed_requests = outcome.get("requests", (0, 0))
    attempted = len(outcome["checks"]) + sent
    failed = len(failed_checks) + failed_requests
    values = outcome["values"]
    values["failed_ratio"] = failed / attempted

    declared = spec["per_layer" if args.trace else "end_to_end"]
    absent = [m["name"] for m in declared if m["name"] not in values]
    if absent and not args.trace:
        raise RuntimeError(f"{args.workload} measured no {', '.join(absent)}")
    if absent:
        print(
            f"perfbench: {len(absent)} per-layer metrics do no work in "
            f"{args.workload} and read 0: {' '.join(absent)}",
            file=sys.stderr,
        )
    print(
        f"perfbench: {args.workload} seed {args.seed}: {elapsed:.1f} s "
        f"(run length {args.seconds:g} s); {failed}/{attempted} failed",
        file=sys.stderr,
    )
    metrics = {
        m["name"]: {"value": float(values.get(m["name"], 0)), "unit": m["unit"]}
        for m in declared
    }
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
