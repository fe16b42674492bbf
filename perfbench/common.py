"""Pieces shared by the benchmark's workloads: the trace, the host probe.

Every workload replays one trace made from the run's seed: an excerpt
of ``EXCERPT_JOBS`` consecutive jobs from
``generate_trace(paper_config().scaled(SCALE), seed)``, chosen by
:func:`generate`.  Whole traces differ by up to ±30% in accesses
between seeds (1.23M–2.28M at 0.125 over seeds 1–12), which would swamp
any change a later PR makes; the excerpt fixes the job count (the
service's cost is mostly per request), nearly fixes the access count of
each half (the offline workload's cost is per access, and the service
ingests the first half in its backfill phase) and fixes the number of
sites (the daemon's memory and ingest cost follow it).  The trace is never loaded from the on-disk trace store, whose
warm/cold state would make set-up time bimodal.

Each workload repeats short timed stages until the run's ``--seconds``
are spent.  The vCPU behind the benchmark runs at one of two speeds,
about 1.8× apart, for stretches of seconds to minutes, set by load
outside the container.  Which speed a run lands on says nothing about
the program, so every stage is timed between two samples of
:class:`HostProbe` and its seconds are scaled to the reference speed
(:meth:`HostProbe.scale`); each stage then reports its median over the
run (:func:`sum_of_medians`).  The whole benchmark runs pinned to one
vCPU (:func:`pin_to_one_cpu`).
"""

from __future__ import annotations

import os
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np

from repro.workload.calibration import paper_config
from repro.workload.generator import generate_trace

#: One factor for all workloads; it must leave room for the excerpt.
SCALE = 0.25

#: Consecutive jobs in the excerpt every workload replays.
EXCERPT_JOBS = 2_000

#: Target accesses of the excerpt (about the seeds' typical 2k jobs),
#: half in each half: the service's backfill phase replays the first.
EXCERPT_ACCESSES = 100_000

#: Distinct submitting sites in the excerpt.  The daemon keeps one
#: advisor per site, so its memory and its ingest cost follow this
#: count; every seed 1–10 has 2k-job windows with 16 sites.
EXCERPT_SITES = 16

#: Each workload repeats its timed work at least this many times, and
#: more until the run's ``--seconds`` are spent.
MIN_REPEATS = 10
MAX_REPEATS = 400

#: Repetitions per set-up: the trace is generated again (and, for the
#: service, the stream encoded again) before every SETUP_EVERY-th one;
#: ``setup_s`` is the median of those set-ups.
SETUP_EVERY = 4

#: :meth:`HostProbe.sample` milliseconds on the reference host at its
#: faster speed; scaled times read as seconds on that host.
REFERENCE_PROBE_MS = 9.0

#: Spans, digests and daemon logs go here, under the working directory.
OUT_DIR = Path.cwd() / ".perfbench_out"


def generate(seed: int):
    """One seeded generation, cut to the excerpt.

    Among the windows with EXCERPT_SITES submitting sites (or the
    nearest count), the one whose two halves come nearest
    EXCERPT_ACCESSES / 2 accesses each.
    """
    trace = generate_trace(paper_config().scaled(SCALE), seed)
    half = EXCERPT_JOBS // 2
    starts = trace.n_jobs - EXCERPT_JOBS + 1
    ptr = trace.job_access_ptr
    runs = ptr[half:] - ptr[:-half]  # accesses of the `half` jobs from each index
    imbalance = np.abs(runs[:starts] - EXCERPT_ACCESSES / 2) + np.abs(
        runs[half : half + starts] - EXCERPT_ACCESSES / 2
    )
    sites = np.asarray(trace.job_sites)
    n_sites = np.zeros(starts, dtype=np.int64)
    for site in np.unique(sites):
        seen = np.concatenate(([0], np.cumsum(sites == site)))
        n_sites += seen[EXCERPT_JOBS:] > seen[:starts]
    off = np.abs(n_sites - EXCERPT_SITES)
    start = int(np.argmin(np.where(off == off.min(), imbalance, np.inf)))
    keep = np.zeros(trace.n_jobs, dtype=bool)
    keep[start : start + EXCERPT_JOBS] = True
    return trace.subset_jobs(keep)


def pin_to_one_cpu() -> None:
    """Run this process, and every process it starts, on one vCPU."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def fresh_copy(trace):
    """A copy of ``trace`` whose lazily built columns are not built yet."""
    return trace.subset_jobs(np.ones(trace.n_jobs, dtype=bool))


def repeat_until(seconds: float):
    """Repetition indices: at least MIN_REPEATS, then until ``seconds`` pass."""
    t0 = time.perf_counter()
    for i in range(MAX_REPEATS):
        if i >= MIN_REPEATS and time.perf_counter() - t0 >= seconds:
            return
        yield i


def sum_of_medians(repetitions: list[list[float]]) -> float:
    """Sum over stages of each stage's median time across repetitions.

    ``repetitions[r][k]`` is stage ``k``'s seconds in repetition ``r``;
    every repetition does the same work stage for stage.
    """
    return sum(statistics.median(stage) for stage in zip(*repetitions))


def reset_peak_rss() -> None:
    """Restart this process's peak-RSS count from its current RSS.

    Set-up generates a trace larger than the one replayed, and its peak
    would otherwise hide the timed pass's memory.  Writing ``5`` to
    ``/proc/self/clear_refs`` resets ``VmHWM`` (Linux 4.0+); where that
    is refused, :func:`peak_rss_mb` reports the whole-process peak.
    """
    try:
        with open("/proc/self/clear_refs", "w") as fh:
            fh.write("5")
    except OSError as exc:
        print(f"perfbench: peak RSS not reset ({exc})", file=sys.stderr)


def peak_rss_mb() -> float:
    """Peak resident set size of this process since :func:`reset_peak_rss`."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


class HostProbe:
    """A fixed, program-independent loop that gauges the host's speed.

    Dict churn plus a numpy pass.  Sampled before and after a stage, it
    scales the stage's seconds by ``REFERENCE_PROBE_MS`` over the two
    samples' mean, so a stage that ran while the host was slow reads
    what it would have read at the reference speed.  The probe is the
    same at every commit, so a change to the program moves the scaled
    time as much as the raw one.  The samples are also a diagnostic of
    their own (``host.probe_ms``, ``host.probe_spread_ratio``).
    """

    _KEYS = 4096
    _ITERATIONS = 48_000

    def __init__(self) -> None:
        self.samples_ms: list[float] = []
        self._array = np.arange(200_000, dtype=np.float64)

    def sample(self) -> float:
        """Run the loop once; its milliseconds."""
        t0 = time.perf_counter()
        table: dict[int, int] = {}
        keys = self._KEYS
        for i in range(self._ITERATIONS):
            key = (i * 40503) % keys
            table[key] = table.get(key, 0) + i
            if i % keys == keys - 1:
                table.clear()
        float(np.sqrt(self._array).sum())
        ms = (time.perf_counter() - t0) * 1e3
        self.samples_ms.append(ms)
        return ms

    @staticmethod
    def scale(seconds: float, before_ms: float, after_ms: float) -> float:
        """``seconds`` measured between two samples, at the reference speed."""
        return seconds * REFERENCE_PROBE_MS * 2 / (before_ms + after_ms)

    def measure(self, fn, *args):
        """``(fn(*args), scaled seconds, raw seconds)``, sampled around."""
        before = self.sample()
        t0 = time.perf_counter()
        out = fn(*args)
        seconds = time.perf_counter() - t0
        return out, self.scale(seconds, before, self.sample()), seconds

    def values(self) -> dict[str, float]:
        median = statistics.median(self.samples_ms)
        spread = max(self.samples_ms) - min(self.samples_ms)
        return {
            "host.probe_ms": median,
            "host.probe_spread_ratio": spread / median,
        }
