"""Benchmark the sweep engine across workload tiers, at paper scale.

For each tier in ``REPRO_BENCH_TIERS`` (comma list; default ``tiny``)
the Figure 10 contenders (file-LRU and filecule-LRU) replay a capacity
grid four ways, and the three batch-capable policies a fifth:

* ``legacy`` — a faithful transcription of the pre-optimization replay
  (per-access loop with numpy scalar boxing, a per-access metrics
  fold, and policies that allocate a fresh ``RequestOutcome`` on every
  request, both copied into this file); measured
  at the ``tiny`` tier only — it is a frozen historical reference, not
  a contender;
* ``serial`` — the per-access fast path
  (:func:`repro.engine.simulate` with ``batch=False``);
* ``batch`` — the vectorized batch kernel (``batch=True``), the default
  path for batch-capable policies since the kernel landed;
* ``parallel`` — ``sweep(jobs=N)``: the chunked process pool, or the
  auto-serial fallback when the planner says a pool cannot win (a
  one-CPU host, a tiny grid) — either way never slower than serial;
* ``python-loop`` — the batch kernel on its Python residency loop
  (:func:`repro.cache.native.residency_loop` patched to report no
  library, as on a host without a C compiler), for file-LRU, file-FIFO
  and filecule-LRU, each cell timed right after the same cell's
  ``batch`` run in the same process;
* ``instrumented`` — the batch kernel with a ``ProgressReporter``
  attached (what ``REPRO_PROGRESS=1`` gives), each cell timed
  alternately with and without one for :data:`INSTRUMENTED_PAIRS`
  pairs in this process; each pair's ratio sums the policy's cells,
  and the median ratio is reported against the 3% observability
  target (no gate).

Each tier also gets a ``generate`` block: the seconds
``generate_trace`` takes for the tier's trace, and the peak RSS
(``VmHWM``) of a fresh interpreter that only imports the generator and
generates it (reported, no gate; the child's trace must have the
benchmarked trace's access count).

Every variant must produce bit-identical :class:`CacheMetrics` — the
benchmark *fails* on any divergence; so do the paper-tier performance
gates (batch >= 2x the per-access path per policy on the gated
capacities; ``jobs=4`` >= 2x serial when the host actually has >= 4
CPUs).  The batch gate applies to capacities at or above 10% of the
accessed data, where hits dominate.  Below that the workload is
*eviction-bound* (at total/100 the miss rate is ~87%).  The floor was
drawn when only hit-dominated cells ran on a numpy bulk path; today's
kernel is one residency loop at every capacity, so eviction-bound cells
are measured, asserted bit-identical, and reported — flagged
``eviction_bound`` — like the rest; they just carry no 2x floor.  At
the paper tier the compiled loop must also run file-LRU and file-FIFO
at >= 5x the Python loop at every capacity, so a silent fall back to
the Python loop (1x) fails the run; filecule-LRU's ratio is reported
(see :data:`LOOP_GATED`).
Results go to ``BENCH_sweep.json`` (repo root) and
``benchmarks/output/sweep.txt``.

Run with::

    PYTHONPATH=src python -m pytest benchmarks/bench_sweep.py -q

The committed artifact is regenerated with
``REPRO_BENCH_TIERS=tiny,paper,grown``; the ``paper`` and ``grown``
traces come from the on-disk trace store (``~/.cache/repro-traces`` or
``REPRO_TRACE_CACHE``), so only the first run pays generation.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from unittest import mock

from repro.cache import native
from repro.cache.base import CacheMetrics
from repro.cache.fifo import FileFIFO
from repro.cache.filecule_lru import FileculeLRU
from repro.cache.lru import FileLRU
from repro.cache.simulator import sweep
from repro.engine import simulate
from repro.experiments.base import EXPERIMENT_SEED, get_context
from repro.experiments.fig10 import capacities_for
from repro.obs.instrument import ProgressReporter
from repro.parallel import plan_sweep
from repro.traces.trace import Trace
from repro.util.host import host_info, usable_cpus
from repro.util.units import format_bytes

REPO_ROOT = Path(__file__).resolve().parent.parent
BENCH_JSON = REPO_ROOT / "BENCH_sweep.json"

#: Wall-clock tolerance for the "--jobs is never slower than serial"
#: gate.  Single-CPU hosts show double-digit run-to-run variance on
#: multi-second replays; the auto-serial fallback's true overhead is a
#: single plan_sweep call (microseconds).  The absolute grace term
#: covers millisecond-scale grids where dispatch fixed costs (policy
#: resolution, one planner call) dwarf the replay itself.
NEVER_SLOWER_TOL = 1.35
NEVER_SLOWER_GRACE_S = 0.5

#: Per-tier shape: capacity grid, parallel degrees, whether the legacy
#: baseline runs, and the per-policy batch-speedup floor (None = report
#: only).  Paper-tier capacities are total/100, total/10 and total —
#: the high-eviction-pressure, mixed, and no-eviction regimes.
TIER_SPECS = {
    "tiny": {"caps": "fig10", "jobs": (1, 2, 4), "legacy": True, "gate": None},
    "small": {"caps": "fig10", "jobs": (1, 2, 4), "legacy": True, "gate": None},
    "default": {"caps": "fig10", "jobs": (1, 2, 4), "legacy": True, "gate": None},
    "paper": {"caps": "coarse3", "jobs": (4,), "legacy": False, "gate": 2.0},
    "grown": {"caps": "coarse1", "jobs": (4,), "legacy": False, "gate": None},
}

#: Floor of the compiled over the Python residency loop, per tier, for
#: the LOOP_GATED policies at every capacity (other tiers report only).
LOOP_GATES = {"paper": 5.0}

#: Policies whose compiled-loop speedup is gated.  The Python loop
#: walks only run heads, and a filecule-LRU run covers ~7 accesses at
#: paper scale, while the compiled pass walks every access; so
#: filecule-LRU's ratio is the smallest (4.2x at total capacity in the
#: committed paper-tier run, under the floor) and is reported only.
LOOP_GATED = ("file-lru", "file-fifo")

#: Alternating with/without-reporter pairs per cell behind the
#: ``instrumented`` column, and the observability target it reports
#: against (an instrumented replay within 3% of a plain one).
INSTRUMENTED_PAIRS = 5
INSTRUMENTED_TARGET = 1.03

#: Capacities below total_bytes // GATE_MIN_CAP_DIVISOR are
#: eviction-bound (the total/100 cell runs at ~87% miss rate; see the
#: module docstring).  Such cells are measured and reported but
#: excluded from the batch-speedup floor.  An integer
#: divisor, matching ``tier_capacities``'s own floor division, so the
#: total/10 cell compares equal rather than a float-rounding hair
#: below the threshold.
GATE_MIN_CAP_DIVISOR = 10


#: Run by a fresh interpreter: generate one tier's trace (argv: tier,
#: seed) and print its seconds, the process's RSS before and its peak
#: RSS after, and the trace's access count, as one JSON line.
GENERATE_CHILD = """
import json, resource, sys, time
from repro.workload.calibration import SCALES, grown_config
from repro.workload.generator import generate_trace

def rss_mb(field):
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith(field + ":"):
                return int(line.split()[1]) / 1024
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

config = {**SCALES, "grown": grown_config}[sys.argv[1]]()
before = rss_mb("VmRSS")
t0 = time.perf_counter()
trace = generate_trace(config, seed=int(sys.argv[2]))
seconds = time.perf_counter() - t0
print(json.dumps({
    "seconds": round(seconds, 4),
    "rss_before_mb": round(before, 1),
    "vmhwm_mb": round(rss_mb("VmHWM"), 1),
    "accesses": trace.n_accesses,
}))
"""


def generate_in_child(tier: str, seed: int) -> dict:
    """Seconds and peak RSS of generating ``tier``'s trace in a fresh
    process (the store is not involved)."""
    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
    out = subprocess.run(
        [sys.executable, "-c", GENERATE_CHILD, tier, str(seed)],
        env=env,
        check=True,
        capture_output=True,
        text=True,
    ).stdout
    return json.loads(out.strip().splitlines()[-1])


def bench_tiers() -> tuple[str, ...]:
    raw = os.environ.get("REPRO_BENCH_TIERS", "tiny")
    tiers = tuple(t.strip() for t in raw.split(",") if t.strip())
    unknown = [t for t in tiers if t not in TIER_SPECS]
    if unknown:
        raise ValueError(
            f"REPRO_BENCH_TIERS: unknown tiers {unknown}; "
            f"choose from {sorted(TIER_SPECS)}"
        )
    return tiers


def tier_capacities(kind: str, total_bytes: int) -> list[int]:
    if kind == "fig10":
        return capacities_for(total_bytes)
    if kind == "coarse3":
        return [total_bytes // 100, total_bytes // 10, total_bytes]
    if kind == "coarse1":
        return [total_bytes // 10]
    raise ValueError(kind)


# --------------------------------------------------------------------------
# Faithful pre-optimization baseline.  The loop below is the replay inner
# loop as it stood before the fast path landed (numpy scalar boxing per
# access, per-access metrics recording), and the two _Legacy* policies
# restore the original `request` bodies that allocated a RequestOutcome
# per call.  RequestOutcome and the per-access fold (`_record`, once
# `CacheMetrics.record`) are copied as they read before request codes
# replaced them.  Keep in sync with nothing — this is a frozen reference.
# --------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class RequestOutcome:
    """Result of one file request against a policy.

    ``bytes_fetched`` is what the miss pulled into the cache — for
    group-granularity policies this exceeds the requested file's size
    (the whole filecule/group is loaded).  ``bypassed`` marks objects
    larger than the cache, which are streamed without being cached.
    """

    hit: bool
    bytes_fetched: int = 0
    bypassed: bool = False


def _record(self: CacheMetrics, size: int, outcome: RequestOutcome) -> None:
    # Hot path: one call per access.  Hits read exactly one outcome
    # attribute; misses skip the (almost always zero-delta) bypass
    # and fetched updates when they can.  Adding 0 is the identity,
    # so the counters are bit-identical to the naive form.
    self.requests += 1
    self.bytes_requested += size
    if outcome.hit:
        self.hits += 1
        self.bytes_hit += size
        return
    fetched = outcome.bytes_fetched
    if fetched:
        self.bytes_fetched += fetched
    if outcome.bypassed:
        self.bypasses += 1


class _LegacyFileLRU(FileLRU):
    def request(self, file_id: int, size: int, now: float) -> RequestOutcome:
        entry = self._entries.get(file_id)
        if entry is not None:
            self._entries.move_to_end(file_id)
            return RequestOutcome(hit=True)
        if size > self.capacity_bytes:
            return RequestOutcome(hit=False, bytes_fetched=size, bypassed=True)
        while self.used_bytes + size > self.capacity_bytes:
            _, evicted_size = self._entries.popitem(last=False)
            self._release(evicted_size)
        self._entries[file_id] = size
        self._charge(size)
        return RequestOutcome(hit=False, bytes_fetched=size)


class _LegacyFileculeLRU(FileculeLRU):
    def request(self, file_id: int, size: int, now: float) -> RequestOutcome:
        label = int(self._labels[file_id])
        if label < 0:
            raise KeyError(
                f"file {file_id} has no filecule; partition does not match "
                f"the replayed trace"
            )
        if label in self._entries:
            self._entries.move_to_end(label)
            if not self._intra_job_hits and self._load_key.get(label) == now:
                return RequestOutcome(hit=False, bytes_fetched=0)
            return RequestOutcome(hit=True)
        fc_size = int(self._sizes[label])
        if fc_size > self.capacity_bytes:
            return RequestOutcome(hit=False, bytes_fetched=size, bypassed=True)
        while self.used_bytes + fc_size > self.capacity_bytes:
            evicted_label, evicted = self._entries.popitem(last=False)
            self._release(evicted)
            self._load_key.pop(evicted_label, None)
        self._entries[label] = fc_size
        self._charge(fc_size)
        if not self._intra_job_hits:
            self._load_key[label] = now
        return RequestOutcome(hit=False, bytes_fetched=fc_size)


def _legacy_simulate(trace: Trace, policy, name: str, capacity: int) -> CacheMetrics:
    metrics = CacheMetrics(name=name, capacity_bytes=int(capacity))
    sizes = trace.file_sizes
    starts = trace.job_starts
    access_jobs = trace.access_jobs
    access_files = trace.access_files
    record = partial(_record, metrics)
    request = policy.request
    begin_job = policy.begin_job
    ptr = trace.job_access_ptr
    current_job = -1
    for i in range(len(access_jobs)):
        j = int(access_jobs[i])
        if j != current_job:
            begin_job(
                trace.access_files[ptr[j] : ptr[j + 1]], float(starts[j])
            )
            current_job = j
        f = int(access_files[i])
        size = int(sizes[f])
        record(size, request(f, size, float(starts[j])))
    return metrics


def _timed(fn):
    t0 = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - t0


def _assert_cells_identical(reference, other, label: str) -> None:
    assert other.capacities == reference.capacities, label
    assert set(other.metrics) == set(reference.metrics), label
    for name, ref_cells in reference.metrics.items():
        for ref, got in zip(ref_cells, other.metrics[name]):
            assert got == ref, (
                f"{label}: {name}@{format_bytes(ref.capacity_bytes, 1)} "
                f"diverged: {got} != {ref}"
            )


def _bench_tier(tier: str, lines: list[str]) -> dict:
    spec = TIER_SPECS[tier]
    ctx = get_context(tier, EXPERIMENT_SEED)
    trace, partition = ctx.trace, ctx.partition
    caps = tier_capacities(spec["caps"], trace.total_bytes())
    factories = {
        "file-lru": lambda c: FileLRU(c),
        "filecule-lru": lambda c: FileculeLRU(c, partition),
    }
    n_cells = len(factories) * len(caps)
    total_accesses = trace.n_accesses * n_cells
    lines.append(
        f"[{tier}] {n_cells} cells x {trace.n_accesses:,} accesses "
        f"({format_bytes(trace.total_bytes(), 1)} data)"
    )

    # Serial per-access fast path and batch kernel, timed per cell so
    # the per-policy speedups (the paper-tier gate) fall out directly.
    from repro.cache.simulator import SweepResult

    per_policy: dict[str, dict] = {}
    serial_cells: dict[str, list] = {}
    batch_cells: dict[str, list] = {}
    serial_wall = batch_wall = 0.0
    gate_floor_cap = trace.total_bytes() // GATE_MIN_CAP_DIVISOR
    for name, factory in factories.items():
        s_wall = b_wall = 0.0
        gs_wall = gb_wall = 0.0
        s_cells, b_cells = [], []
        per_cap = []
        for cap in caps:
            m, sw = _timed(
                lambda f=factory, c=cap, n=name: simulate(
                    trace, f, c, name=n, batch=False
                )
            )
            s_cells.append(m)
            s_wall += sw
            m, bw = _timed(
                lambda f=factory, c=cap, n=name: simulate(
                    trace, f, c, name=n, batch=True
                )
            )
            b_cells.append(m)
            b_wall += bw
            eviction_bound = cap < gate_floor_cap
            if not eviction_bound:
                gs_wall += sw
                gb_wall += bw
            per_cap.append(
                {
                    "capacity": cap,
                    "serial_s": round(sw, 4),
                    "batch_s": round(bw, 4),
                    "batch_speedup": round(sw / bw, 2),
                    "eviction_bound": eviction_bound,
                }
            )
        serial_cells[name] = s_cells
        batch_cells[name] = b_cells
        serial_wall += s_wall
        batch_wall += b_wall
        per_policy[name] = {
            "serial_s": round(s_wall, 4),
            "batch_s": round(b_wall, 4),
            "batch_speedup": round(s_wall / b_wall, 2),
            "batch_speedup_gated": round(gs_wall / gb_wall, 2)
            if gb_wall
            else None,
            "per_capacity": per_cap,
        }
        lines.append(
            f"[{tier}] {name:>14}: serial {s_wall:7.2f}s  "
            f"batch {b_wall:7.2f}s  ({s_wall / b_wall:.2f}x all caps, "
            f"{per_policy[name]['batch_speedup_gated']}x gated)"
        )
        for row in per_cap:
            regime = "eviction-bound" if row["eviction_bound"] else "gated"
            lines.append(
                f"[{tier}]   {format_bytes(row['capacity'], 1):>10}: "
                f"serial {row['serial_s']:7.2f}s  "
                f"batch {row['batch_s']:7.2f}s  "
                f"({row['batch_speedup']:.2f}x, {regime})"
            )
    serial = SweepResult(
        capacities=tuple(caps),
        metrics={n: tuple(c) for n, c in serial_cells.items()},
    )
    batch = SweepResult(
        capacities=tuple(caps),
        metrics={n: tuple(c) for n, c in batch_cells.items()},
    )
    _assert_cells_identical(serial, batch, f"{tier}: batch vs per-access")

    # The compiled residency loop against the Python one: each cell runs
    # on both, back to back in this process, so the ratio holds however
    # the host's speed drifts between runs.
    loop_factories = {**factories, "file-fifo": lambda c: FileFIFO(c)}
    python_loop: dict[str, dict] = {}
    for name in ("file-lru", "file-fifo", "filecule-lru"):
        factory = loop_factories[name]
        c_wall = p_wall = 0.0
        per_cap = []
        for k, cap in enumerate(caps):

            def run(f=factory, c=cap, n=name):
                return simulate(trace, f, c, name=n, batch=True)

            compiled, cw = _timed(run)
            with mock.patch.object(native, "residency_loop", lambda: None):
                python, pw = _timed(run)
            assert python == compiled, (
                f"{tier}: python-loop vs batch: {name}@"
                f"{format_bytes(cap, 1)} diverged: {python} != {compiled}"
            )
            if name in batch_cells:
                assert compiled == batch_cells[name][k], name
            c_wall += cw
            p_wall += pw
            per_cap.append(
                {
                    "capacity": cap,
                    "batch_s": round(cw, 4),
                    "python_loop_s": round(pw, 4),
                    "loop_speedup": round(pw / cw, 2),
                }
            )
        python_loop[name] = {
            "batch_s": round(c_wall, 4),
            "python_loop_s": round(p_wall, 4),
            "loop_speedup": round(p_wall / c_wall, 2),
            "per_capacity": per_cap,
        }
        lines.append(
            f"[{tier}] {name:>14}: python-loop {p_wall:7.2f}s  "
            f"batch {c_wall:7.2f}s  ({p_wall / c_wall:.2f}x compiled loop)"
        )
        for row in per_cap:
            lines.append(
                f"[{tier}]   {format_bytes(row['capacity'], 1):>10}: "
                f"python-loop {row['python_loop_s']:7.2f}s  "
                f"batch {row['batch_s']:7.2f}s  "
                f"({row['loop_speedup']:.2f}x)"
            )
    # The kernel with a progress reporter against the kernel without
    # one, alternating cell by cell in this process.
    instrumented: dict[str, dict] = {}
    with open(os.devnull, "w") as discard:
        for name, factory in factories.items():
            ratios = []
            for _ in range(INSTRUMENTED_PAIRS):
                plain_wall = observed_wall = 0.0
                for k, cap in enumerate(caps):

                    def run(reporter=None, f=factory, c=cap, n=name):
                        return simulate(
                            trace, f, c, name=n, instrumentation=reporter,
                            batch=True,
                        )

                    plain, pw = _timed(run)
                    reporter = ProgressReporter(f"{name}@{cap}", stream=discard)
                    observed, ow = _timed(partial(run, reporter))
                    assert plain == observed == batch_cells[name][k], name
                    plain_wall += pw
                    observed_wall += ow
                ratios.append(observed_wall / plain_wall)
            q1, median, q3 = statistics.quantiles(ratios, n=4)
            instrumented[name] = {
                "pairs": INSTRUMENTED_PAIRS,
                "ratio_median": round(statistics.median(ratios), 4),
                "ratio_quartiles": [round(q1, 4), round(q3, 4)],
                "ratio_per_pair": [round(r, 4) for r in ratios],
                "target": INSTRUMENTED_TARGET,
            }
            lines.append(
                f"[{tier}] {name:>14}: instrumented/plain "
                f"{statistics.median(ratios):.3f} median over "
                f"{INSTRUMENTED_PAIRS} pairs (quartiles {q1:.3f}-{q3:.3f}; "
                f"target <= {INSTRUMENTED_TARGET})"
            )

    loop_gate = LOOP_GATES.get(tier)
    if loop_gate is not None:
        for name in LOOP_GATED:
            for row in python_loop[name]["per_capacity"]:
                assert row["loop_speedup"] >= loop_gate, (
                    f"{tier}: {name}@{format_bytes(row['capacity'], 1)} "
                    f"compiled loop only {row['loop_speedup']}x the Python "
                    f"loop (gate: >= {loop_gate}x); did it fall back?"
                )

    # Frozen pre-optimization reference, cheap tiers only.
    legacy_stats = None
    if spec["legacy"]:
        legacy_factories = {
            "file-lru": lambda c: _LegacyFileLRU(c),
            "filecule-lru": lambda c: _LegacyFileculeLRU(c, partition),
        }
        t0 = time.perf_counter()
        legacy_cells = {
            name: tuple(
                _legacy_simulate(trace, factory(cap), name, cap)
                for cap in caps
            )
            for name, factory in legacy_factories.items()
        }
        legacy_wall = time.perf_counter() - t0
        legacy = SweepResult(
            capacities=tuple(caps), metrics=legacy_cells
        )
        _assert_cells_identical(serial, legacy, f"{tier}: legacy vs serial")
        legacy_stats = {
            "wall_s": round(legacy_wall, 4),
            "speedup_serial": round(legacy_wall / serial_wall, 2),
            "speedup_batch": round(legacy_wall / batch_wall, 2),
        }
        lines.append(
            f"[{tier}] legacy loop: {legacy_wall:7.2f}s  "
            f"(fast path {legacy_stats['speedup_serial']:.2f}x, "
            f"batch {legacy_stats['speedup_batch']:.2f}x faster)"
        )

    # The parallel engine at each requested degree.  On hosts/grids
    # where the planner rejects a pool this measures the auto-serial
    # fallback — which is the point: --jobs must never be slower.
    parallel = {}
    for jobs in spec["jobs"]:
        plan = plan_sweep(n_cells, trace.n_accesses, jobs)
        result, wall = _timed(
            lambda j=jobs: sweep(trace, factories, caps, jobs=j)
        )
        _assert_cells_identical(
            serial, result, f"{tier}: parallel jobs={jobs} vs serial"
        )
        mode = "pool" if plan.use_parallel else "auto-serial"
        parallel[str(jobs)] = {
            "wall_s": round(wall, 4),
            "mode": mode,
            "effective_workers": plan.workers if plan.use_parallel else 1,
            "chunks": plan.n_chunks if plan.use_parallel else n_cells,
            "vs_serial": round(serial_wall / wall, 2),
            "vs_batch": round(batch_wall / wall, 2),
            "plan_reason": plan.reason,
        }
        lines.append(
            f"[{tier}] jobs={jobs} ({mode}): {wall:7.2f}s  "
            f"({serial_wall / wall:.2f}x vs serial, "
            f"{batch_wall / wall:.2f}x vs batch)"
        )
        # Acceptance: --jobs is never slower than the shipped serial
        # path (which uses the batch kernel where policies offer one).
        assert wall <= batch_wall * NEVER_SLOWER_TOL + NEVER_SLOWER_GRACE_S, (
            f"{tier}: sweep(jobs={jobs}) took {wall:.2f}s vs "
            f"{batch_wall:.2f}s serial — slower than serial"
        )

    cpus = usable_cpus()
    if spec["gate"] is not None:
        for name, stats in per_policy.items():
            gated = stats["batch_speedup_gated"]
            assert gated is not None, (
                f"{tier}: {name} has no gated capacities (all below "
                f"total/{GATE_MIN_CAP_DIVISOR}) — cannot gate"
            )
            assert gated >= spec["gate"], (
                f"{tier}: {name} batch kernel {gated}x "
                f"< required {spec['gate']}x over the per-access path "
                f"on gated (hit-dominated) capacities"
            )
        if cpus >= 4 and "4" in parallel:
            assert parallel["4"]["vs_serial"] >= 2.0, (
                f"{tier}: jobs=4 only {parallel['4']['vs_serial']}x vs "
                f"serial on a {cpus}-cpu host (gate: >= 2x)"
            )

    def stats(wall: float) -> dict:
        return {
            "wall_s": round(wall, 4),
            "accesses_per_s": round(total_accesses / wall, 1),
            "ns_per_access": round(wall / total_accesses * 1e9, 1),
        }

    generate = generate_in_child(tier, EXPERIMENT_SEED)
    assert generate["accesses"] == trace.n_accesses, (
        f"{tier}: the generator child made {generate['accesses']:,} "
        f"accesses, the benchmarked trace has {trace.n_accesses:,}"
    )
    lines.append(
        f"[{tier}] generate: {generate['seconds']:.3f}s, peak RSS "
        f"{generate['vmhwm_mb']:.0f} MB (fresh process, "
        f"{generate['rss_before_mb']:.0f} MB before)"
    )

    payload = {
        "seed": EXPERIMENT_SEED,
        "generate": generate,
        "grid": {
            "policies": sorted(factories),
            "capacities": list(caps),
            "cells": n_cells,
            "accesses_per_cell": trace.n_accesses,
            "total_accesses": total_accesses,
        },
        "identical_to_serial": True,
        "serial_per_access": stats(serial_wall),
        "batch": stats(batch_wall),
        "per_policy": per_policy,
        "python_loop": python_loop,
        "instrumented": instrumented,
        "parallel": parallel,
    }
    if legacy_stats is not None:
        payload["legacy_serial"] = legacy_stats
    if spec["gate"] is not None:
        payload["gates"] = {
            "batch_speedup_floor": spec["gate"],
            "batch_gate_min_cap_frac": 1 / GATE_MIN_CAP_DIVISOR,
            "batch_gated_capacities": [
                cap for cap in caps if cap >= gate_floor_cap
            ],
            "parallel_jobs4_floor": 2.0 if cpus >= 4 else None,
            "note": (
                "parallel gate skipped: host has "
                f"{cpus} cpu(s), pool gated behind cpus >= 4"
            )
            if cpus < 4
            else "all gates enforced",
        }
    if loop_gate is not None:
        payload.setdefault("gates", {}).update(
            compiled_loop_floor=loop_gate,
            compiled_loop_gated_policies=list(LOOP_GATED),
        )
    return payload


def test_bench_sweep(benchmark, archive):
    tiers = bench_tiers()
    lines: list[str] = []

    def run_all():
        return {tier: _bench_tier(tier, lines) for tier in tiers}

    tier_payloads = benchmark.pedantic(run_all, rounds=1, iterations=1)

    payload = {
        "benchmark": "sweep",
        "host": host_info(),
        "tiers_run": list(tiers),
        "tiers": tier_payloads,
    }
    BENCH_JSON.write_text(json.dumps(payload, indent=2) + "\n")

    header = (
        f"sweep bench — tiers {', '.join(tiers)} on "
        f"{payload['host']['cpus']} cpu(s), "
        f"python {payload['host']['python']}"
    )
    rendered = "\n".join([header, *lines, "all variants bit-identical: yes"])
    print()
    print(rendered)
    archive("sweep", rendered)
