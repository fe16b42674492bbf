"""Observation hooks for trace-driven cache simulation.

:func:`repro.cache.simulator.simulate` (and :func:`~repro.cache.simulator.sweep`)
accept an :class:`Instrumentation`: a window-level callback interface —
run start, progress checkpoints at exact access counts, and evicted
volume.  Hooks are **observation-only** by contract — they receive
values, never the policy — and they do not change the replay route: an
instrumented run takes the same batch kernel or per-access loop as an
uninstrumented one and produces bit-identical metrics (asserted by the
test suite).

Two implementations ship here:

* :class:`SimStats` — a counting collector (accesses, hits, misses,
  bypasses, requested/fetched/evicted bytes) for programmatic use;
* :class:`ProgressReporter` — a throttled live reporter for long Figure
  10-style sweeps (~1.13M accesses per run at paper scale): hit rate so
  far, evicted bytes, throughput and ETA, one line per interval via
  structured logging or a raw stream.

:func:`progress_from_env` gates reporting behind ``REPRO_PROGRESS=1`` so
batch/pytest runs stay silent by default while an operator watching a
long sweep gets live feedback.
"""

from __future__ import annotations

import os
import sys
import time
from typing import IO

from repro.util.units import format_bytes


class Instrumentation:
    """Callback interface for :func:`repro.cache.simulator.simulate`.

    Subclass and override what you need; every hook defaults to a no-op.
    A run calls :meth:`on_run_start` once, then :meth:`on_progress` at
    exactly ``done = k * progress_every < total`` (none when
    ``progress_every`` is 0) and once more at ``done == total`` — also
    for a run of zero accesses.  :meth:`on_evict` reports the evicted
    volume before the checkpoint that covers it, aggregated per
    checkpoint on both replay routes (one call per checkpoint that saw
    evictions, never one per evicted entry).
    """

    progress_every: int = 0

    def on_run_start(self, name: str, capacity: int, total_accesses: int) -> None:
        """A simulation run is starting against a fresh policy."""

    def on_evict(self, bytes_evicted: int) -> None:
        """The policy evicted ``bytes_evicted`` bytes since the last report."""

    def on_progress(self, done: int, total: int, metrics) -> None:
        """Checkpoint after ``done`` accesses (``metrics``: the run's
        :class:`~repro.cache.base.CacheMetrics`, holding the totals of
        exactly those accesses)."""


class SimStats(Instrumentation):
    """Counting collector: folds each run's totals into plain integers.

    One instance may observe several runs (counters accumulate and
    never reset): each run's final
    :class:`~repro.cache.base.CacheMetrics` is folded in at its
    ``done == total`` checkpoint, and eviction volume, which the
    metrics object cannot see, accumulates from :meth:`on_evict`.
    """

    def __init__(self) -> None:
        self.accesses = 0
        self.hits = 0
        self.misses = 0
        self.bypasses = 0
        self.bytes_requested = 0
        self.bytes_fetched = 0
        self.bytes_evicted = 0
        self.progress_calls = 0

    def on_evict(self, bytes_evicted: int) -> None:
        self.bytes_evicted += bytes_evicted

    def on_progress(self, done: int, total: int, metrics) -> None:
        self.progress_calls += 1
        if done == total:
            self.accesses += metrics.requests
            self.hits += metrics.hits
            self.misses += metrics.misses
            self.bypasses += metrics.bypasses
            self.bytes_requested += metrics.bytes_requested
            self.bytes_fetched += metrics.bytes_fetched

    def merge(self, other: "SimStats") -> "SimStats":
        """Fold another collector's counters into this one (in place).

        Parallel sweep workers each observe their own cells with a
        private ``SimStats``; the parent combines them with this, the
        counting analogue of
        :meth:`repro.obs.metrics.MetricsRegistry.merge`.
        """
        self.accesses += other.accesses
        self.hits += other.hits
        self.misses += other.misses
        self.bypasses += other.bypasses
        self.bytes_requested += other.bytes_requested
        self.bytes_fetched += other.bytes_fetched
        self.bytes_evicted += other.bytes_evicted
        self.progress_calls += other.progress_calls
        return self

    @property
    def hit_rate(self) -> float:
        return self.hits / self.accesses if self.accesses else 0.0

    def snapshot(self) -> dict:
        return {
            "accesses": self.accesses,
            "hits": self.hits,
            "misses": self.misses,
            "bypasses": self.bypasses,
            "hit_rate": self.hit_rate,
            "bytes_requested": self.bytes_requested,
            "bytes_fetched": self.bytes_fetched,
            "bytes_evicted": self.bytes_evicted,
        }


class ProgressReporter(Instrumentation):
    """Live progress lines for long simulation runs.

    Emits at most one line per ``min_interval_s`` seconds (plus one at
    each run's end) showing completion, live hit rate, evicted bytes,
    access throughput and ETA.  Lines go to ``stream`` when given,
    otherwise to the ``repro.obs.sim`` structured logger.
    """

    def __init__(
        self,
        label: str = "sim",
        *,
        progress_every: int = 65536,
        min_interval_s: float = 1.0,
        stream: IO[str] | None = None,
    ) -> None:
        if progress_every < 1:
            raise ValueError(f"progress_every must be >= 1, got {progress_every}")
        self.label = label
        self.progress_every = progress_every
        self.min_interval_s = min_interval_s
        self.stream = stream
        self._run = ""
        self._evicted = 0
        self._t_start = 0.0
        self._t_last = 0.0

    def on_run_start(self, name: str, capacity: int, total_accesses: int) -> None:
        self._run = f"{name}@{format_bytes(capacity, 1)}"
        self._evicted = 0
        self._t_start = time.perf_counter()
        self._t_last = float("-inf")  # always report the first checkpoint

    def on_evict(self, bytes_evicted: int) -> None:
        self._evicted += bytes_evicted

    def on_progress(self, done: int, total: int, metrics) -> None:
        now = time.perf_counter()
        if done < total and now - self._t_last < self.min_interval_s:
            return
        self._t_last = now
        elapsed = now - self._t_start
        rate = done / elapsed if elapsed > 0 else 0.0
        eta = (total - done) / rate if rate > 0 and done < total else 0.0
        if self.stream is not None:
            # A run of zero accesses is complete at its only checkpoint.
            self.stream.write(
                f"[{self.label} {self._run}] "
                f"{done / total if total else 1.0:6.1%} {done}/{total} "
                f"hit={metrics.hit_rate:.3f} "
                f"evicted={format_bytes(self._evicted, 1)} "
                f"{rate:,.0f} acc/s eta={eta:.0f}s\n"
            )
            self.stream.flush()
        else:
            from repro.obs.log import get_logger

            get_logger("repro.obs.sim").info(
                "sim-progress",
                label=self.label,
                run=self._run,
                done=done,
                total=total,
                hit_rate=round(metrics.hit_rate, 4),
                evicted_bytes=self._evicted,
                accesses_per_s=round(rate),
                eta_s=round(eta, 1),
            )


class MultiInstrumentation(Instrumentation):
    """Fan one event stream out to several instrumentations."""

    def __init__(self, *children: Instrumentation) -> None:
        self.children = tuple(children)
        intervals = [c.progress_every for c in children if c.progress_every > 0]
        self.progress_every = min(intervals) if intervals else 0

    def on_run_start(self, name, capacity, total_accesses) -> None:
        for c in self.children:
            c.on_run_start(name, capacity, total_accesses)

    def on_evict(self, bytes_evicted) -> None:
        for c in self.children:
            c.on_evict(bytes_evicted)

    def on_progress(self, done, total, metrics) -> None:
        for c in self.children:
            c.on_progress(done, total, metrics)


def progress_from_env(
    label: str, *, env: str = "REPRO_PROGRESS", stream: IO[str] | None = None
) -> ProgressReporter | None:
    """A :class:`ProgressReporter` when ``$REPRO_PROGRESS`` is truthy.

    Experiment drivers call this so sweeps stay silent under pytest but
    report live hit rates/ETA when an operator exports ``REPRO_PROGRESS=1``
    (any value other than empty/``0``).  Reports go to stderr.
    """
    value = os.environ.get(env, "")
    if value in ("", "0"):
        return None
    return ProgressReporter(label, stream=stream if stream is not None else sys.stderr)
