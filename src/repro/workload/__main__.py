"""Command-line trace generator: ``python -m repro.workload``.

Generates a calibrated synthetic SAM trace and writes it in an
interchange format, for driving external tools or inspecting workloads::

    python -m repro.workload --scale small --seed 42 --format jsonl \
        --out traces/small42.jsonl
    python -m repro.workload --scale default --format csv --out traces/d7

``--validate`` additionally runs the paper-derived calibration targets
(:mod:`repro.workload.validate`) against the generated trace; when any
target falls outside its tolerance band, a structured JSON error report
goes to stderr and the process exits with code 3, so pipelines can gate
on trace quality.  Calibration targets the ``default`` and ``paper``
scales; the ``tiny``/``small`` presets trade fidelity for speed and are
expected to miss some bands.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

#: Exit code when --validate finds calibration targets out of band.
EXIT_CALIBRATION_FAILED = 3

from repro.traces.io import write_trace_csv, write_trace_jsonl
from repro.traces.stats import summarize
from repro.workload.calibration import SCALES
from repro.workload.generator import generate_trace


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.workload",
        description="Generate a calibrated synthetic DZero/SAM trace.",
    )
    parser.add_argument(
        "--scale",
        default="small",
        choices=sorted(SCALES),
        help="population preset (paper = full DZero scale; default: small)",
    )
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument(
        "--format",
        default="jsonl",
        choices=("jsonl", "csv"),
        help="jsonl: one self-contained file; csv: a directory of tables",
    )
    parser.add_argument(
        "--out",
        required=True,
        help="output path (file for jsonl, directory for csv)",
    )
    parser.add_argument(
        "--validate",
        action="store_true",
        help=(
            "check the paper-derived calibration targets; exit 3 with a "
            "JSON error report on stderr if any is out of band"
        ),
    )
    args = parser.parse_args(argv)

    config = SCALES[args.scale]()
    t0 = time.perf_counter()
    trace = generate_trace(config, seed=args.seed)
    generated = time.perf_counter() - t0
    print(f"generated '{config.name}' (seed {args.seed}) in {generated:.1f}s")
    print(f"  {summarize(trace)}")

    t0 = time.perf_counter()
    if args.format == "jsonl":
        path = write_trace_jsonl(trace, args.out)
    else:
        path = write_trace_csv(trace, args.out)
    print(f"wrote {path} in {time.perf_counter() - t0:.1f}s")

    if args.validate:
        from repro.workload.validate import validate_calibration

        results = validate_calibration(trace)
        failed = [r for r in results if not r.ok]
        print(
            f"calibration: {len(results) - len(failed)}/{len(results)} "
            "targets in band"
        )
        if failed:
            report = {
                "error": "calibration-check-failed",
                "scale": args.scale,
                "seed": args.seed,
                "n_targets": len(results),
                "n_failed": len(failed),
                "failures": [
                    {
                        "target": r.name,
                        "expected": r.expected,
                        "measured": r.measured,
                        "rel_tolerance": r.rel_tolerance,
                        "deviation": r.deviation,
                    }
                    for r in failed
                ],
            }
            print(json.dumps(report, indent=2), file=sys.stderr)
            return EXIT_CALIBRATION_FAILED
    return 0


if __name__ == "__main__":
    sys.exit(main())
