"""The offline workload ``progress``, and the Figure-10 pass behind it.

``progress`` is the Figure-10 identification and flat cells run with a
``ProgressReporter`` attached — what ``REPRO_PROGRESS=1`` gives:
``find_filecules``, then ``simulate()`` for file-LRU and filecule-LRU at
0.2%, 2% and 20% of the accessed bytes, then the report checks.  The
reporter sends every access through the instrumented per-access loop,
so that loop and the ``obs`` hooks do the work and no batch kernel runs.

The uninstrumented Figure-10 pipeline (``fig10`` below: the same cells
through the batch kernels, plus two ``simulate_hierarchy()`` cells, a
0.5% file-LRU site tier in front of a 2% regional tier of either
policy) is not a timed workload: on the reference host its numpy-bound
time drifted too far between runs to compare (see README.md).  Traced
runs still trace one pass of it, for the kernel and hierarchy layers.
"""

from __future__ import annotations

import gc
import hashlib
import json
import statistics
import time
from pathlib import Path

from repro.cache.filecule_lru import FileculeLRU
from repro.cache.lru import FileLRU
from repro.core import find_filecules
from repro.engine import simulate, simulate_hierarchy
from repro.obs.instrument import ProgressReporter
from repro.traces.trace import Trace

from common import (
    OUT_DIR,
    SETUP_EVERY,
    HostProbe,
    fresh_copy,
    generate,
    peak_rss_mb,
    repeat_until,
    reset_peak_rss,
    sum_of_medians,
)
from spans import Tracer

POLICIES = ("file-lru", "filecule-lru")
#: Eviction-bound, middle and hit-dominated regimes of Figure 10.
FRACTIONS = (0.002, 0.02, 0.2)
#: ``(cell name, policy, capacity fraction)`` of the six flat cells.
CELLS = tuple(
    (f"{policy}.f{fraction}", policy, fraction)
    for policy in POLICIES
    for fraction in FRACTIONS
)
HIERARCHY = "site:file-lru@0.5%+regional:{}@2%+origin"
PINNED_DIGESTS = Path(__file__).with_name("pinned_digests.json")

def digest(metrics) -> str:
    """Fingerprint of every counter of one replay's ``CacheMetrics``."""
    fields = (
        metrics.name,
        metrics.capacity_bytes,
        metrics.requests,
        metrics.hits,
        metrics.bytes_requested,
        metrics.bytes_hit,
        metrics.bytes_fetched,
        metrics.bypasses,
    )
    return hashlib.sha256(repr(fields).encode()).hexdigest()[:16]


def digests_of(result: dict) -> dict[str, str]:
    out = {name: digest(metrics) for name, metrics in result["flat"].items()}
    for policy, hierarchy in result["hierarchy"].items():
        tiers = " ".join(digest(tier.metrics) for tier in hierarchy.tiers)
        out[f"hierarchy.{policy}"] = hashlib.sha256(tiers.encode()).hexdigest()[:16]
    return out


class _Discard:
    """Progress sink: the reporter formats its lines and they are dropped."""

    def write(self, text: str) -> None:
        pass

    def flush(self) -> None:
        pass


def report_checks(flat: dict, hierarchy: dict) -> list[tuple[str, bool]]:
    """The Figure-10 report checks as ``(name, passed)`` pairs."""
    checks = []
    for fraction in FRACTIONS:
        file_mr = flat[f"file-lru.f{fraction}"].miss_rate
        cule_mr = flat[f"filecule-lru.f{fraction}"].miss_rate
        checks.append((f"filecule-lru wins at f{fraction}", cule_mr <= file_mr))
    for policy in POLICIES:
        rates = [flat[f"{policy}.f{fraction}"].miss_rate for fraction in FRACTIONS]
        checks.append(
            (
                f"{policy} miss rate falls as capacity grows",
                all(a >= b for a, b in zip(rates, rates[1:])),
            )
        )
    if hierarchy:
        checks.append(
            (
                "regional filecule tier offloads at least as much as file",
                hierarchy["filecule-lru"].origin_offload
                >= hierarchy["file-lru"].origin_offload,
            )
        )
        for policy, result in hierarchy.items():
            tiers = [tier.metrics for tier in result.tiers]
            checks.append(
                (
                    f"{policy} hierarchy: tier[k+1].requests == tier[k].misses",
                    all(b.requests == a.misses for a, b in zip(tiers, tiers[1:])),
                )
            )
    return checks


def _pass(trace, workload: str, tracer: Tracer, probe: HostProbe) -> dict:
    """One pass of ``workload`` over ``trace``.

    ``stages`` maps each stage to its seconds at the reference host
    speed, gauged by a probe sample before and after it.
    """
    stages: dict[str, float] = {}

    def stage(name, fn, *args, **kwargs):
        with tracer.span("host.probe"):
            before = probe.sample()
        with tracer.span(name):
            t0 = time.perf_counter()
            out = fn(*args, **kwargs)
            seconds = time.perf_counter() - t0
        with tracer.span("host.probe"):
            stages[name] = probe.scale(seconds, before, probe.sample())
        return out

    reporter = None
    if workload == "progress":
        reporter = ProgressReporter(workload, stream=_Discard())
        if tracer.enabled:
            reporter.on_progress = tracer.timed(
                "obs.on_progress", reporter.on_progress
            )
    t_start = time.perf_counter()
    partition = stage("core.find_filecules", find_filecules, trace)
    total = stage("traces.total_bytes", trace.total_bytes)
    flat = {
        name: stage(
            f"engine.simulate.{name}",
            simulate,
            trace,
            policy,
            max(int(fraction * total), 1),
            partition=partition,
            instrumentation=reporter,
        )
        for name, policy, fraction in CELLS
    }
    hierarchy = {}
    if workload == "fig10":
        hierarchy = {
            policy: stage(
                f"engine.simulate_hierarchy.{policy}",
                simulate_hierarchy,
                trace,
                HIERARCHY.format(policy),
                partition=partition,
                total_bytes=total,
            )
            for policy in POLICIES
        }
    checks = stage("checks", report_checks, flat, hierarchy)
    return {
        "stages": stages,
        "elapsed": time.perf_counter() - t_start,
        "n_filecules": len(partition),
        "flat": flat,
        "hierarchy": hierarchy,
        "checks": checks,
    }


def pinned_checks(seed: int, digests: dict[str, str]) -> list[tuple[str, bool]]:
    """Digests against the values pinned for the default seed."""
    pinned = json.loads(PINNED_DIGESTS.read_text()).get(str(seed), {})
    return [
        (f"{key} digest equals the pinned seed-{seed} value", value == pinned[key])
        for key, value in digests.items()
        if key in pinned
    ]


def layer_values(result: dict, tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics of one traced pass."""
    totals = tracer.totals()
    counts = tracer.counts()
    spans = tracer.spans
    kernel_s: dict[str, float] = {}
    for name, start, end, parent in spans:
        if name == "cache.kernel" and parent >= 0:
            owner = spans[parent][0]
            if owner.startswith("engine.simulate."):
                cell = owner[len("engine.simulate.") :]
                kernel_s[cell] = kernel_s.get(cell, 0.0) + (end - start)
    values = {
        "core.find_filecules_s": totals["core.find_filecules"],
        "core.n_filecules": result["n_filecules"],
        "cache.kernel_cells": len(kernel_s),
        "traces.subset_accesses_s": totals.get("traces.subset_accesses", 0.0),
        "traces.replay_columns_s": totals.get("traces.replay_columns", 0.0),
        "obs.on_progress_calls": counts.get("obs.on_progress", 0),
        "obs.on_progress_s": totals.get("obs.on_progress", 0.0),
    }
    replay = 0.0
    for cell, metrics in result["flat"].items():
        seconds = totals[f"engine.simulate.{cell}"]
        replay += seconds
        values[f"engine.simulate_s.{cell}"] = seconds
        values[f"cache.kernel_s.{cell}"] = kernel_s.get(cell, 0.0)
        values[f"cache.hit_ratio.{cell}"] = metrics.hit_rate
        values[f"cache.fetched_per_requested.{cell}"] = (
            metrics.bytes_fetched / metrics.bytes_requested
        )
    values["engine.replay_s"] = replay
    for policy, hierarchy in result["hierarchy"].items():
        values[f"engine.simulate_hierarchy_s.{policy}"] = totals[
            f"engine.simulate_hierarchy.{policy}"
        ]
        values[f"hierarchy.origin_offload.{policy}"] = hierarchy.origin_offload
        for tier in hierarchy.tiers:
            values[f"hierarchy.tier_requests.{tier.tier}.{policy}"] = (
                tier.metrics.requests
            )
    return values


def _wrap_layers(tracer: Tracer) -> None:
    def timed_kernel(kernel):
        return None if kernel is None else tracer.timed("cache.kernel", kernel)

    tracer.wrap(Trace, "subset_accesses", "traces.subset_accesses")
    tracer.wrap(Trace, "replay_columns", "traces.replay_columns")
    for policy_class in (FileLRU, FileculeLRU):
        tracer.wrap(
            policy_class, "batch_kernel", "cache.batch_kernel", result=timed_kernel
        )


def _traced_pass(workload: str, seed: int, probe: HostProbe) -> tuple[dict, Tracer]:
    """One traced pass over a fresh trace, its spans written out."""
    trace = generate(seed)
    tracer = Tracer(True)
    _wrap_layers(tracer)
    try:
        result = _pass(trace, workload, tracer, probe)
    finally:
        tracer.restore()
    tracer.dump(OUT_DIR / f"spans-{workload}-seed{seed}.jsonl")
    return result, tracer


#: Layers only the Figure-10 reference pass exercises.
_REFERENCE_LAYERS = (
    "cache.kernel_s.",
    "engine.simulate_hierarchy_s.",
    "hierarchy.",
    "traces.subset_accesses_s",
)


def run(workload: str, seed: int, seconds: float, traced: bool) -> dict:
    """Time untraced passes for ``seconds`` and, when ``traced``, trace one more.

    Each pass replays its own copy of the trace, so every pass starts
    with the trace's lazily built columns unbuilt; the trace is
    generated again every SETUP_EVERY passes, and that is the set-up.
    ``wall_s`` sums each stage's median over the passes, in seconds at
    the reference host speed; ``peak_rss_mb`` is the median pass's peak.

    The traced run also traces the Figure-10 pipeline itself (batch
    kernels and the tier hierarchy, with no progress hooks) over the
    same seed: it gives the kernel and hierarchy layers their numbers,
    the base of ``obs.instrumented_overhead_ratio``, and the reference
    digests the per-access replay must equal.
    """
    setup_s, passes, peaks = [], [], []
    probe = HostProbe()
    base = trace = None
    for rep in repeat_until(seconds):
        trace = None  # drops the previous pass's trace
        if rep % SETUP_EVERY == 0:
            base = None
            gc.collect()
            base, setup, _ = probe.measure(generate, seed)
            setup_s.append(setup)
        trace = fresh_copy(base)
        gc.collect()
        reset_peak_rss()
        passes.append(_pass(trace, workload, Tracer(False), probe))
        peaks.append(peak_rss_mb())
    wall = sum_of_medians([list(p["stages"].values()) for p in passes])
    replay = sum_of_medians(
        [
            [s for name, s in p["stages"].items() if name.startswith("engine.")]
            for p in passes
        ]
    )
    values = {
        "wall_s": wall,
        "setup_s": statistics.median(setup_s),
        "peak_rss_mb": statistics.median(peaks),
        "ingest_jobs_per_s": trace.n_jobs / wall,
        "mixed_jobs_per_s": trace.n_jobs * len(CELLS) / replay,
        "workload.generate_trace_s": statistics.median(setup_s),
    }
    digests = digests_of(passes[0])
    checks = pinned_checks(seed, digests)
    for i, result in enumerate(passes):
        checks += [(f"pass {i}: {name}", ok) for name, ok in result["checks"]]
        checks += [
            (f"pass {i}: {name} digest equals pass 0's", value == digests[name])
            for name, value in digests_of(result).items()
        ]
    if traced:
        base = trace = None
        gc.collect()
        result, tracer = _traced_pass(workload, seed, probe)
        reference, reference_tracer = _traced_pass("fig10", seed, probe)
        reference_values = layer_values(reference, reference_tracer)
        values.update(layer_values(result, tracer))
        values.update(
            (name, value)
            for name, value in reference_values.items()
            if name.startswith(_REFERENCE_LAYERS)
        )
        values["obs.instrumented_overhead_ratio"] = (
            values["engine.replay_s"] / reference_values["engine.replay_s"]
        )
        values["bench.trace_overhead_ratio"] = sum(
            result["stages"].values()
        ) / statistics.median(sum(p["stages"].values()) for p in passes)
        values["bench.span_coverage_ratio"] = tracer.root_seconds() / result["elapsed"]
        reference_digests = digests_of(reference)
        checks += [(f"traced pass: {name}", ok) for name, ok in result["checks"]]
        checks += [(f"fig10 pass: {name}", ok) for name, ok in reference["checks"]]
        checks += pinned_checks(seed, reference_digests)
        checks += [
            (
                f"{name}: per-access and kernel replays agree",
                value == reference_digests[name],
            )
            for name, value in digests_of(result).items()
        ]
    values.update(probe.values())
    return {"values": values, "checks": checks}
