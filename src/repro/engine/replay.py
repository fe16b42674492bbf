"""The shared trace-replay core: one policy, one capacity, one trace.

:func:`simulate` is the single replay loop every consumer shares — the
serial simulator façade (:mod:`repro.cache.simulator`), the parallel
sweep cells (:mod:`repro.parallel`), every tier of a cache hierarchy
(:mod:`repro.engine.hierarchy`) and the benchmarks all execute this
exact code, which is what makes their results bit-identical by
construction.

Each traced job issues its input files at its start time, in job order;
every policy sees the identical request stream, so miss rates are
directly comparable.  Both routes are one window driver,
:func:`~repro.cache.base.replay_windows`, which folds each window's
totals into :class:`~repro.cache.base.CacheMetrics`; the window's loop
also marks the optional per-access hit mask (``hit_out``) from which a
hierarchy cuts the next tier's demand stream.  Only the loop differs:
the policy's batch kernel whenever it offers one
(:meth:`~repro.cache.base.ReplacementPolicy.batch_kernel`), else
:meth:`~repro.cache.base.ReplacementPolicy.request` per access, every
access its own run, reading each window's file ids and sizes as plain
Python lists converted when the loop reaches the window (so the route
holds ``WINDOW``-sized lists whatever the trace length, and nothing
outlives the replay) and folding its codes with
:func:`~repro.cache.base.fold_runs`.  Instrumentation observes both
routes at the same exact progress marks (see :mod:`repro.obs.instrument`)
without changing either.
"""

from __future__ import annotations

from collections.abc import Callable
from functools import partial
from itertools import repeat

import numpy as np

from repro.cache.base import (
    CacheMetrics,
    ReplacementPolicy,
    fold_runs,
    replay_windows,
)
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
    replay = None if batch is False else policy.batch_kernel(trace, hit_out)
    if replay is None:
        if batch:
            raise ValueError(
                f"batch=True but policy {metrics.name!r} offers no "
                f"batch kernel for this trace/configuration"
            )
        replay = _per_access(policy, trace, hit_out)
    inst = instrumentation
    checkpoint = None
    every = 0
    if inst is not None:
        every = inst.progress_every
        total = trace.n_accesses
        inst.on_run_start(metrics.name, int(capacity), total)
        evicted = 0

        def checkpoint(done: int, evicted_now: int) -> None:
            nonlocal evicted
            if evicted_now > evicted:
                inst.on_evict(evicted_now - evicted)
                evicted = evicted_now
            inst.on_progress(done, total, metrics)

    replay(metrics, checkpoint, every)
    return metrics


def _per_access(policy: ReplacementPolicy, trace: Trace, hit_out):
    """The per-access route, callable like a batch kernel.

    Its loop reads a window's file ids, their sizes, and the bounds and
    start times of the jobs it overlaps from the trace's columns when it
    reaches the window.  It serves every access with ``policy.request``
    as a run of its own, announcing each non-empty job's files with
    ``begin_job`` at the job's first access.
    """
    access_files = trace.access_files
    file_sizes = trace.file_sizes
    ptr = trace.job_access_ptr
    starts = trace.job_starts
    request = policy.request
    begin_job = policy.begin_job

    def loop(i: int, j: int):
        window = access_files[i:j]
        files = window.tolist()
        sizes = file_sizes[window].tolist()
        # Jobs [first, last) hold the window: first holds access i,
        # last - 1 holds access j - 1, and empty jobs may lie between.
        first = ptr.searchsorted(i, "right") - 1
        last = ptr.searchsorted(j)
        bounds = ptr[first : last + 1].tolist()
        nows = starts[first:last].tolist()
        codes: list[int] = []
        for lo, hi, now in zip(bounds, bounds[1:], nows):
            if i <= lo < hi:
                begin_job(access_files[lo:hi], now)
            run = slice(max(lo, i) - i, min(hi, j) - i)
            codes += map(request, files[run], sizes[run], repeat(now))
        totals = fold_runs(trace, i, j, np.arange(j - i), codes, hit_out)
        return (*totals, policy.used_bytes)

    return partial(replay_windows, trace, loop)
