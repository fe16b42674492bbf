"""Benchmark the hierarchical replay engine across workload tiers.

For each tier in ``REPRO_BENCH_TIERS`` (comma list; default ``tiny``):

* **flat-collapse overhead** — a single-tier hierarchy replays the same
  stream as :func:`repro.engine.simulate`; the results must be
  bit-identical and the hierarchy wrapper's wall-clock overhead is
  reported (and gated ≤ ``FLAT_OVERHEAD_TOL`` at every tier — the
  wrapper is spec parsing plus arithmetic, not a second replay);
* **miss-through grid** — the hierarchy-scale Figure 10 cells
  (two-tier ``site + regional`` stacks, file vs filecule regional
  policy) replayed through :func:`repro.hierarchy.hierarchy_sweep`,
  serially and with ``jobs=4``; the parallel run must be bit-identical
  and never slower than serial beyond tolerance;
* **ordering gate** — the filecule regional tier's origin offload must
  match or beat file granularity at every measured capacity (the §5
  result the hierarchy experiment reproduces).

Results go to ``BENCH_hierarchy.json`` (repo root, with
:func:`~repro.util.host.host_info` provenance) and
``benchmarks/output/hierarchy.txt``.  Run with::

    PYTHONPATH=src python -m pytest benchmarks/bench_hierarchy.py -q

The committed artifact is regenerated with
``REPRO_BENCH_TIERS=tiny,paper``; the ``paper`` trace comes from the
on-disk trace store, so only the first run pays generation.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

from repro.engine import simulate
from repro.experiments.base import EXPERIMENT_SEED, get_context
from repro.hierarchy import (
    estimate_transfer_seconds,
    hierarchy_sweep,
    simulate_hierarchy,
)
from repro.parallel import plan_sweep
from repro.util.host import host_info
from repro.util.units import format_bytes

REPO_ROOT = Path(__file__).resolve().parent.parent
BENCH_JSON = REPO_ROOT / "BENCH_hierarchy.json"

#: Single-tier hierarchy wall clock vs the flat replay it wraps.  The
#: wrapper adds spec parsing and origin arithmetic only; the tolerance
#: absorbs run-to-run noise on sub-second tiny-tier cells.
FLAT_OVERHEAD_TOL = 1.5
FLAT_OVERHEAD_GRACE_S = 0.25

#: "jobs=4 is never slower than serial" tolerance, as in bench_sweep.
NEVER_SLOWER_TOL = 1.35
NEVER_SLOWER_GRACE_S = 0.5

#: Site tier fraction (fixed) and regional-tier fractions (swept) for
#: the miss-through grid — the hierarchy_fig10 shape, coarsened.
SITE_FRACTION = 0.005
REGIONAL_FRACTIONS: dict[str, tuple[float, ...]] = {
    "tiny": (0.01, 0.05, 0.2),
    "small": (0.01, 0.05, 0.2),
    "default": (0.01, 0.05, 0.2),
    "paper": (0.01, 0.1),
    "grown": (0.1,),
}

TIERS = tuple(REGIONAL_FRACTIONS)


def bench_tiers() -> tuple[str, ...]:
    raw = os.environ.get("REPRO_BENCH_TIERS", "tiny")
    tiers = tuple(t.strip() for t in raw.split(",") if t.strip())
    unknown = [t for t in tiers if t not in TIERS]
    if unknown:
        raise ValueError(
            f"REPRO_BENCH_TIERS: unknown tiers {unknown}; "
            f"choose from {sorted(TIERS)}"
        )
    return tiers


def _timed(fn):
    t0 = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - t0


def _two_tier(policy: str, fraction: float) -> str:
    return (
        f"site:file-lru@{SITE_FRACTION * 100:g}%"
        f"+regional:{policy}@{fraction * 100:g}%+origin"
    )


def _bench_tier(tier: str, lines: list[str]) -> dict:
    ctx = get_context(tier, EXPERIMENT_SEED)
    trace, partition = ctx.trace, ctx.partition
    total = trace.total_bytes()
    lines.append(
        f"[{tier}] {trace.n_accesses:,} accesses, "
        f"{format_bytes(total, 1)} data"
    )

    # --- flat collapse: single tier == simulate, and nearly free -----
    cap = max(total // 10, 1)
    flat, flat_wall = _timed(
        lambda: simulate(trace, "filecule-lru", cap, partition=partition)
    )
    single, single_wall = _timed(
        lambda: simulate_hierarchy(
            trace, f"site:filecule-lru@{cap}+origin", partition=partition
        )
    )
    assert single.tiers[0].metrics == flat, (
        f"{tier}: single-tier hierarchy diverged from simulate()"
    )
    overhead = single_wall / flat_wall if flat_wall else 1.0
    lines.append(
        f"[{tier}] flat collapse: simulate {flat_wall:6.2f}s, "
        f"1-tier hierarchy {single_wall:6.2f}s ({overhead:.2f}x)"
    )
    assert single_wall <= flat_wall * FLAT_OVERHEAD_TOL + FLAT_OVERHEAD_GRACE_S, (
        f"{tier}: single-tier hierarchy {single_wall:.2f}s vs flat "
        f"{flat_wall:.2f}s — wrapper overhead above tolerance"
    )

    # --- miss-through grid: serial vs jobs=4, bit-identical ----------
    fractions = REGIONAL_FRACTIONS[tier]
    grid = [
        _two_tier(policy, f)
        for policy in ("file-lru", "filecule-lru")
        for f in fractions
    ]
    serial, serial_wall = _timed(
        lambda: hierarchy_sweep(trace, grid, partition=partition)
    )
    plan = plan_sweep(len(grid), trace.n_accesses, 4)
    parallel, parallel_wall = _timed(
        lambda: hierarchy_sweep(trace, grid, jobs=4, partition=partition)
    )
    assert parallel == serial, f"{tier}: jobs=4 diverged from serial"
    mode = "pool" if plan.use_parallel else "auto-serial"
    lines.append(
        f"[{tier}] {len(grid)}-cell grid: serial {serial_wall:6.2f}s, "
        f"jobs=4 ({mode}) {parallel_wall:6.2f}s "
        f"({serial_wall / parallel_wall:.2f}x)"
    )
    assert (
        parallel_wall <= serial_wall * NEVER_SLOWER_TOL + NEVER_SLOWER_GRACE_S
    ), (
        f"{tier}: hierarchy_sweep(jobs=4) took {parallel_wall:.2f}s vs "
        f"{serial_wall:.2f}s serial — slower than serial"
    )

    # --- ordering gate + per-cell report -----------------------------
    cells = []
    for f in fractions:
        file_res = serial[_two_tier("file-lru", f)]
        cule_res = serial[_two_tier("filecule-lru", f)]
        assert (
            cule_res.origin_byte_hit_rate
            >= file_res.origin_byte_hit_rate - 1e-9
        ), (
            f"{tier}: filecule regional tier offloads less than file "
            f"at {f:.1%} ({cule_res.origin_byte_hit_rate:.4f} < "
            f"{file_res.origin_byte_hit_rate:.4f})"
        )
        refill = estimate_transfer_seconds(cule_res)
        cells.append(
            {
                "regional_fraction": f,
                "file_origin_offload": round(
                    file_res.origin_byte_hit_rate, 4
                ),
                "filecule_origin_offload": round(
                    cule_res.origin_byte_hit_rate, 4
                ),
                "filecule_request_hit_rate": round(
                    cule_res.request_hit_rate, 4
                ),
                "filecule_link_refill_s": {
                    name: round(sec, 2) for name, sec in refill.items()
                },
            }
        )
        lines.append(
            f"[{tier}]   regional@{f:5.1%}: origin offload "
            f"{cells[-1]['file_origin_offload']:.3f} (file) vs "
            f"{cells[-1]['filecule_origin_offload']:.3f} (filecule)"
        )

    n_replays = len(grid) * 2  # two caching tiers per cell
    return {
        "seed": EXPERIMENT_SEED,
        "grid": {
            "hierarchies": grid,
            "cells": len(grid),
            "tier_replays": n_replays,
            "accesses_per_cell": trace.n_accesses,
        },
        "flat_collapse": {
            "simulate_s": round(flat_wall, 4),
            "single_tier_s": round(single_wall, 4),
            "overhead": round(overhead, 2),
            "bit_identical": True,
        },
        "sweep": {
            "serial_s": round(serial_wall, 4),
            "jobs4_s": round(parallel_wall, 4),
            "jobs4_mode": mode,
            "vs_serial": round(serial_wall / parallel_wall, 2),
            "identical_to_serial": True,
        },
        "cells": cells,
        "gates": {
            "flat_overhead_tol": FLAT_OVERHEAD_TOL,
            "never_slower_tol": NEVER_SLOWER_TOL,
            "filecule_beats_file_at_origin": True,
        },
    }


def test_bench_hierarchy(benchmark, archive):
    tiers = bench_tiers()
    lines: list[str] = []

    def run_all():
        return {tier: _bench_tier(tier, lines) for tier in tiers}

    tier_payloads = benchmark.pedantic(run_all, rounds=1, iterations=1)

    payload = {
        "benchmark": "hierarchy",
        "host": host_info(),
        "tiers_run": list(tiers),
        "tiers": tier_payloads,
    }
    BENCH_JSON.write_text(json.dumps(payload, indent=2) + "\n")

    header = (
        f"hierarchy bench — tiers {', '.join(tiers)} on "
        f"{payload['host']['cpus']} cpu(s), "
        f"python {payload['host']['python']}"
    )
    rendered = "\n".join(
        [header, *lines, "all variants bit-identical: yes"]
    )
    print()
    print(rendered)
    archive("hierarchy", rendered)
