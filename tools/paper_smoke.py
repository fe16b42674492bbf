#!/usr/bin/env python
"""Paper-scale smoke check: one sweep cell at DZero size, on a budget.

CI runs this (the ``paper-scale-smoke`` job) to catch throughput
regressions where they matter — at the ~13M-access scale the paper
characterizes — without paying for the full benchmark matrix.  It:

1. obtains the ``paper``-tier trace through the on-disk trace store:
   loads the artifact on a hit, and on a miss (every CI run: CI keeps
   no trace cache) generates the trace, timing generation on its own,
   and stores it;
2. asserts the generated access count lands inside the documented band
   around the paper's ~13M file accesses (PAPER.md §2) — a drift here
   means the calibration, not the engine, changed;
3. identifies filecules and checks the partition with
   ``assert_partition_valid`` (coverage, disjointness, one signature
   per filecule, maximality, sizes), failing on
   ``FileculeInvariantError``;
4. replays one file-LRU cell (capacity = total/10, the mixed-pressure
   regime) through the batch kernel, gating its throughput against the
   floor below (bit-identity to the per-access path is the benchmark
   suite's job, not the smoke check's);
5. replays the same cell again with a ``ProgressReporter`` attached
   (its lines discarded) — what ``REPRO_PROGRESS=1`` gives — gating it
   on the same floor and on metrics equal to the first replay, so
   turning progress on cannot quietly drop the cell to per-access
   replay;
6. fails unless the kernel ran its compiled residency loop
   (:func:`repro.cache.native.residency_loop`): the Python-loop
   fallback clears the throughput floor, so only this check catches a
   host that silently lost its build;
7. writes ``benchmarks/output/paper_smoke.json`` with host info, the
   residency loop that ran, whether the store hit, and per-phase
   timings (``generate_s`` is null on a hit).

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

from repro.cache import native  # noqa: E402
from repro.core import (  # noqa: E402
    FileculeInvariantError,
    assert_partition_valid,
    find_filecules,
)
from repro.engine import simulate  # noqa: E402
from repro.obs.instrument import ProgressReporter  # noqa: E402
from repro.util.host import host_info  # noqa: E402
from repro.util.units import format_bytes  # noqa: E402
from repro.workload import paper_config  # noqa: E402
from repro.workload.generator import generate_trace  # noqa: E402
from repro.workload.store import load_trace, save_trace, trace_path  # noqa: E402

SEED = 7

#: Documented band around the paper's ~13M accesses (PAPER.md §2); the
#: calibrated generator lands near 12.9M at seed 7.
ACCESS_BAND = (11_000_000, 16_000_000)

#: Replay throughput floor for the batch-kernel cell, in accesses per
#: second.  On the compiled residency loop the cell runs at ~16M/s, on
#: the Python-loop fallback at ~1.7M/s (``BENCH_sweep.json``); the
#: floor catches an accidental fall back to per-access replay
#: (~0.7M/s), and the residency-loop check catches the fallback.
MIN_BATCH_ACCESSES_PER_S = 900_000

OUTPUT = REPO_ROOT / "benchmarks" / "output" / "paper_smoke.json"


def obtain_trace(config, timings: dict) -> tuple:
    """The paper-tier trace and whether the trace store had it.

    A hit loads the artifact; a miss (or an unreadable artifact)
    generates the trace, records ``timings["generate_s"]`` and stores
    it for the next run.
    """
    path = trace_path(config, SEED)
    timings["generate_s"] = None
    if path.is_file():
        try:
            trace = load_trace(path)
        except Exception as exc:
            print(f"trace store: discarding unreadable artifact {path} ({exc})")
        else:
            print(f"trace store: hit {path}")
            return trace, True
    t0 = time.perf_counter()
    trace = generate_trace(config, seed=SEED)
    timings["generate_s"] = round(time.perf_counter() - t0, 2)
    print(f"trace store: miss, generated in {timings['generate_s']}s")
    save_trace(trace, path)
    return trace, False


def main() -> int:
    timings: dict[str, float | None] = {}
    t0 = time.perf_counter()
    trace, store_hit = obtain_trace(paper_config(), timings)
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

    ok = True
    t0 = time.perf_counter()
    try:
        assert_partition_valid(trace, partition)
    except FileculeInvariantError as exc:
        ok = False
        print(f"FAIL: invalid filecule partition: {exc}", file=sys.stderr)
    timings["validate_s"] = round(time.perf_counter() - t0, 2)
    print(f"partition check: {'ok' if ok else 'FAILED'} ({timings['validate_s']}s)")

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
    loop = "compiled" if native.residency_loop() is not None else "python"
    print(f"residency loop: {loop}")
    if loop != "compiled":
        ok = False
        print(
            "FAIL: the batch kernel ran the Python residency loop; the "
            "compiled one could not be built (see the native-fallback "
            "warning)",
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
                "residency_loop": loop,
                "store_hit": store_hit,
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
