"""The shared trace-replay core: one policy, one capacity, one trace.

:func:`simulate` is the single replay loop every consumer shares — the
serial simulator façade (:mod:`repro.cache.simulator`), the parallel
sweep cells (:mod:`repro.parallel`), every tier of a cache hierarchy
(:mod:`repro.engine.hierarchy`) and the benchmarks all execute this
exact code, which is what makes their results bit-identical by
construction.

Each traced job issues its input files at its start time, in job order;
every policy sees the identical request stream, so miss rates are
directly comparable.  A run takes one of two routes, instrumented or
not: the policy's vectorized batch kernel whenever it offers one
(:meth:`~repro.cache.base.ReplacementPolicy.batch_kernel`), else a
tight per-job loop — the trace's columns read as plain Python lists
(:attr:`~repro.traces.trace.Trace.replay_columns`, converted once per
trace, not per run), per-job values hoisted out of the per-access loop,
and metrics counters accumulated in locals that are folded into
:class:`~repro.cache.base.CacheMetrics` at each progress mark and at the
end.  Instrumentation observes both routes at the same exact progress
marks (see :mod:`repro.obs.instrument`) without changing either, and
both routes can record the per-access hit mask (``hit_out``) from
which a hierarchy cuts the next tier's demand stream.
"""

from __future__ import annotations

from collections.abc import Callable

import numpy as np

from repro.cache.base import CacheMetrics, ReplacementPolicy
from repro.obs.instrument import Instrumentation
from repro.traces.trace import Trace

#: A factory building a fresh policy instance for a given capacity.
PolicyFactory = Callable[[int], ReplacementPolicy]


def simulate(
    trace: Trace,
    policy_factory: PolicyFactory | str,
    capacity: int,
    name: str | None = None,
    instrumentation: Instrumentation | None = None,
    *,
    partition=None,
    batch: bool | None = None,
    hit_out: np.ndarray | None = None,
) -> CacheMetrics:
    """Replay ``trace`` against a fresh policy of the given capacity.

    ``policy_factory`` is either a callable ``capacity -> policy`` or a
    policy *spec* (a registry name/spec string such as
    ``"filecule-lru?intra_job_hits=false"`` or a
    :class:`~repro.registry.BoundSpec`), resolved through
    :mod:`repro.registry` with this trace and the optional ``partition``
    as resources.

    ``instrumentation`` observes the replay without affecting it: run
    start, progress checkpoints at exact multiples of its
    ``progress_every`` plus one at the end, and the evicted volume; see
    :mod:`repro.obs.instrument`.

    ``batch`` selects the vectorized whole-trace kernel offered by
    batch-capable policies (:meth:`~repro.cache.base.ReplacementPolicy
    .batch_kernel`; bit-identical to per-access replay, tested).  The
    default ``None`` uses a kernel whenever the policy offers one,
    ``False`` forces the per-access path, ``True`` demands a kernel and
    raises :class:`ValueError` if the policy has none.  Instrumentation
    does not change the route.

    ``hit_out``, when given, must be a boolean array of length
    ``trace.n_accesses`` (else :class:`ValueError`); on either route
    the replay sets ``hit_out[k] = True`` for every access ``k`` that
    hits and leaves misses and bypasses untouched.
    """
    if hit_out is not None:
        if len(hit_out) != trace.n_accesses:
            raise ValueError(
                f"hit_out length {len(hit_out)} != trace accesses "
                f"{trace.n_accesses}"
            )
        if getattr(hit_out, "dtype", None) != np.bool_:
            raise ValueError("hit_out must be a numpy bool array")
    if not callable(policy_factory):
        # Spec-based selection.  The registry sits above the engine in
        # the layer map (it must see every policy class), so this upcall
        # is deliberately lazy — see docs/ARCHITECTURE.md.
        from repro import registry

        bound = registry.parse(policy_factory)
        policy = registry.build(
            bound, capacity, trace=trace, partition=partition
        )
        if name is None:
            name = str(bound)
    else:
        policy = policy_factory(capacity)
    metrics = CacheMetrics(
        name=name or policy.name, capacity_bytes=int(capacity)
    )
    kernel = None if batch is False else policy.batch_kernel(trace, hit_out)
    if kernel is None and batch:
        raise ValueError(
            f"batch=True but policy {metrics.name!r} offers no "
            f"batch kernel for this trace/configuration"
        )
    inst = instrumentation
    total = trace.n_accesses
    every = 0
    if inst is not None:
        every = inst.progress_every
        inst.on_run_start(metrics.name, int(capacity), total)
    if kernel is not None:
        # The kernel replays the whole trace without materializing the
        # per-access list columns.
        if inst is None:
            kernel(metrics)
            return metrics
        evicted = 0

        def checkpoint(done: int, evicted_now: int) -> None:
            nonlocal evicted
            if evicted_now > evicted:
                inst.on_evict(evicted_now - evicted)
                evicted = evicted_now
            inst.on_progress(done, total, metrics)

        kernel(metrics, checkpoint, every)
        return metrics

    access_files = trace.access_files
    ptr_list, files, sizes, starts = trace.replay_columns
    request = policy.request
    begin_job = policy.begin_job
    # Per-job outer loop (job id and timestamp hoisted out of the access
    # loop), list columns (no numpy scalar boxing) and local counters
    # folded into the metrics at each progress mark and at the end.  A
    # job straddling a mark is split there; ``mark`` is the next one,
    # or ``total`` when none is left (reported after the loop).  The
    # access being served is ``start + requests - 1``, where ``start``
    # is the first access of the current fold window.
    mark = min(every, total) if every > 0 else total
    start = 0
    requests = hits = 0
    bytes_requested = bytes_hit = bytes_fetched = bypasses = 0
    if inst is not None:
        policy.evict_listener = inst.on_evict
    try:
        for job in range(trace.n_jobs):
            lo = ptr_list[job]
            hi = ptr_list[job + 1]
            if lo == hi:
                continue
            now = starts[job]
            begin_job(access_files[lo:hi], now)
            while True:
                cut = mark if mark < hi else hi
                for f in files[lo:cut]:
                    size = sizes[f]
                    outcome = request(f, size, now)
                    requests += 1
                    bytes_requested += size
                    if outcome.hit:
                        hits += 1
                        bytes_hit += size
                        if hit_out is not None:
                            hit_out[start + requests - 1] = True
                    else:
                        fetched = outcome.bytes_fetched
                        if fetched:
                            bytes_fetched += fetched
                        if outcome.bypassed:
                            bypasses += 1
                if cut != mark or cut == total:
                    break
                metrics.record_totals(
                    requests, hits, bytes_requested, bytes_hit,
                    bytes_fetched, bypasses,
                )
                requests = hits = 0
                bytes_requested = bytes_hit = bytes_fetched = bypasses = 0
                inst.on_progress(mark, total, metrics)
                start = mark
                mark = min(mark + every, total)
                lo = cut
    finally:
        if inst is not None:
            policy.evict_listener = None
    metrics.record_totals(
        requests, hits, bytes_requested, bytes_hit, bytes_fetched, bypasses
    )
    if inst is not None:
        inst.on_progress(total, total, metrics)
    return metrics
