#!/usr/bin/env python
"""Paper-scale smoke check: one sweep cell at DZero size, on a budget.

CI runs this (the ``paper-scale-smoke`` job) to catch throughput
regressions where they matter — at the ~13M-access scale the paper
characterizes — without paying for the full benchmark matrix.  It:

1. obtains the ``paper``-tier trace through the on-disk trace store
   (cold: generates and caches; warm CI runs restore the artifact from
   the actions cache and skip generation entirely);
2. asserts the generated access count lands inside the documented band
   around the paper's ~13M file accesses (PAPER.md §2) — a drift here
   means the calibration, not the engine, changed;
3. identifies filecules and replays one file-LRU cell (capacity =
   total/10, the mixed-pressure regime) through the batch kernel,
   gating its throughput against the floor below (bit-identity to the
   per-access path is the benchmark suite's job, not the smoke check's);
4. replays the same cell again with a ``ProgressReporter`` attached
   (its lines discarded) — what ``REPRO_PROGRESS=1`` gives — gating it
   on the same floor and on metrics equal to the first replay, so
   turning progress on cannot quietly drop the cell to per-access
   replay;
5. writes ``benchmarks/output/paper_smoke.json`` with host info and
   per-phase timings.

Exit status is non-zero on any failed gate.  Run locally with::

    PYTHONPATH=src python tools/paper_smoke.py
"""

from __future__ import annotations

import json
import os
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.core import find_filecules  # noqa: E402
from repro.engine import simulate  # noqa: E402
from repro.obs.instrument import ProgressReporter  # noqa: E402
from repro.util.host import host_info  # noqa: E402
from repro.util.units import format_bytes  # noqa: E402
from repro.workload import cached_trace, paper_config  # noqa: E402

SEED = 7

#: Documented band around the paper's ~13M accesses (PAPER.md §2); the
#: calibrated generator lands near 12.9M at seed 7.
ACCESS_BAND = (11_000_000, 16_000_000)

#: Replay throughput floor for the batch-kernel cell, in accesses per
#: second.  The measured rate on a single 2020s CPU core is ~1.8M/s;
#: the floor is set loose enough for slow CI runners but tight enough
#: that an accidental fall back to per-access replay (~0.7M/s) fails.
MIN_BATCH_ACCESSES_PER_S = 900_000

OUTPUT = REPO_ROOT / "benchmarks" / "output" / "paper_smoke.json"


def main() -> int:
    timings: dict[str, float] = {}
    t0 = time.perf_counter()
    config = paper_config()
    trace = cached_trace(config, seed=SEED, on_event=print)
    timings["trace_s"] = round(time.perf_counter() - t0, 2)

    n = trace.n_accesses
    lo, hi = ACCESS_BAND
    print(
        f"paper trace: {n:,} accesses, {trace.n_files:,} files, "
        f"{format_bytes(trace.total_bytes(), 1)} "
        f"(documented band {lo:,}..{hi:,})"
    )
    if not lo <= n <= hi:
        print(
            f"FAIL: access count {n:,} outside the documented band "
            f"{lo:,}..{hi:,} — workload calibration drifted",
            file=sys.stderr,
        )
        return 1

    t0 = time.perf_counter()
    partition = find_filecules(trace)
    timings["partition_s"] = round(time.perf_counter() - t0, 2)
    print(f"filecules: {len(partition):,} ({timings['partition_s']}s)")

    capacity = trace.total_bytes() // 10
    t0 = time.perf_counter()
    metrics = simulate(trace, "file-lru", capacity, batch=True)
    cell_s = time.perf_counter() - t0
    timings["batch_cell_s"] = round(cell_s, 2)
    rate = n / cell_s
    print(
        f"file-lru@{format_bytes(capacity, 1)} (batch): {cell_s:.2f}s, "
        f"{rate:,.0f} accesses/s, miss rate {metrics.miss_rate:.4f}"
    )

    with open(os.devnull, "w") as discard:
        t0 = time.perf_counter()
        observed = simulate(
            trace,
            "file-lru",
            capacity,
            instrumentation=ProgressReporter("smoke", stream=discard),
        )
        cell_s = time.perf_counter() - t0
    timings["instrumented_cell_s"] = round(cell_s, 2)
    instrumented_rate = n / cell_s
    print(
        f"file-lru@{format_bytes(capacity, 1)} (progress): {cell_s:.2f}s, "
        f"{instrumented_rate:,.0f} accesses/s"
    )

    ok = True
    for label, value in (("batch", rate), ("instrumented", instrumented_rate)):
        if value < MIN_BATCH_ACCESSES_PER_S:
            ok = False
            print(
                f"FAIL: {label} replay {value:,.0f} accesses/s < floor "
                f"{MIN_BATCH_ACCESSES_PER_S:,} — throughput regression",
                file=sys.stderr,
            )
    if observed != metrics:
        ok = False
        print(
            f"FAIL: instrumented replay {observed} differs from the "
            f"uninstrumented {metrics}",
            file=sys.stderr,
        )

    OUTPUT.parent.mkdir(parents=True, exist_ok=True)
    OUTPUT.write_text(
        json.dumps(
            {
                "check": "paper-scale-smoke",
                "host": host_info(),
                "seed": SEED,
                "accesses": n,
                "files": trace.n_files,
                "total_bytes": trace.total_bytes(),
                "filecules": len(partition),
                "capacity": capacity,
                "miss_rate": round(metrics.miss_rate, 6),
                "batch_accesses_per_s": round(rate, 1),
                "instrumented_accesses_per_s": round(instrumented_rate, 1),
                "floor_accesses_per_s": MIN_BATCH_ACCESSES_PER_S,
                "timings": timings,
                "ok": ok,
            },
            indent=2,
        )
        + "\n"
    )
    print(f"wrote {OUTPUT}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
