"""The scenario transform catalog: trace → trace workload perturbations.

Every transform here is registered with
:func:`~repro.scenario.spec.register_scenario` and has the signature
``fn(trace, rng, **params) -> Trace``.  Transforms never mutate their
input (traces are immutable); they rebuild the columns they change and
let the :class:`~repro.traces.trace.Trace` constructor re-canonicalize
and re-validate.  All randomness comes from the passed generator, which
:class:`~repro.scenario.compose.Composition` seeds deterministically per
(composition seed, position, spec string) — the property behind the
bit-identical-replay guarantee the tests assert.

The catalog covers the non-stationarities the in-network-caching studies
report for scientific workloads (dataset drift, reprocessing campaigns,
flash crowds, infrastructure churn) plus one adversary:

======================  =================================================
``stationary``          identity — the paper's single-world baseline
``popularity-drift``    gradual dataset-popularity rotation over time
``phase-shift``         reprocessing campaign: popularity ranks mirror
                        after a cut-over instant
``flash-crowd``         a burst of extra jobs hammering one dataset's
                        hottest files (welds a transient filecule)
``site-outage``         one site's jobs fail over to other sites for a
                        window, then rejoin
``scan-flood``          adversarial sequential scans striding across the
                        whole file population
======================  =================================================
"""

from __future__ import annotations

import numpy as np

from repro.scenario.spec import register_scenario
from repro.traces.trace import Trace


# ----------------------------------------------------------------------
# shared helpers
# ----------------------------------------------------------------------


def _replace(trace: Trace, **overrides) -> Trace:
    """Rebuild a trace with some columns replaced (re-validated)."""
    columns = dict(
        file_sizes=trace.file_sizes,
        file_tiers=trace.file_tiers,
        file_datasets=trace.file_datasets,
        job_users=trace.job_users,
        job_nodes=trace.job_nodes,
        job_tiers=trace.job_tiers,
        job_starts=trace.job_starts,
        job_ends=trace.job_ends,
        access_jobs=trace.access_jobs,
        access_files=trace.access_files,
        user_domains=trace.user_domains,
        node_sites=trace.node_sites,
        node_domains=trace.node_domains,
        site_names=trace.site_names,
        domain_names=trace.domain_names,
        job_labels=trace.job_labels,
    )
    columns.update(overrides)
    return Trace(**columns)


def _time_fractions(trace: Trace) -> np.ndarray:
    """Each job's start as a fraction of the trace's time span, in [0, 1]."""
    t0, t1 = trace.time_span()
    span = t1 - t0
    if span <= 0.0:
        return np.zeros(trace.n_jobs)
    return (trace.job_starts - t0) / span


class _DatasetIndex:
    """File ↔ dataset cross-index for rank-preserving remapping.

    ``map_files(file_ids, target_ds)`` sends each file to the file at
    the *same within-dataset rank* in its target dataset (rank taken
    modulo the target's size) — the structure-preserving way to move a
    job's working set between datasets without inventing file ids.
    """

    def __init__(self, trace: Trace) -> None:
        ds = trace.file_datasets
        self.n_datasets = int(ds.max()) + 1 if len(ds) else 0
        self.order = np.argsort(ds, kind="stable")
        self.counts = np.bincount(ds, minlength=self.n_datasets)
        self.starts = np.zeros(self.n_datasets + 1, dtype=np.int64)
        np.cumsum(self.counts, out=self.starts[1:])
        self.rank = np.empty(len(ds), dtype=np.int64)
        self.rank[self.order] = (
            np.arange(len(ds)) - self.starts[ds[self.order]]
        )

    def map_files(self, file_ids: np.ndarray, target_ds: np.ndarray) -> np.ndarray:
        counts = self.counts[target_ds]
        mapped = np.where(
            counts > 0,
            self.order[
                self.starts[target_ds]
                + self.rank[file_ids] % np.maximum(counts, 1)
            ],
            file_ids,  # empty target dataset: keep the original file
        )
        return mapped


def _inject_jobs(
    trace: Trace,
    starts: np.ndarray,
    ends: np.ndarray,
    users: np.ndarray,
    nodes: np.ndarray,
    tiers: np.ndarray,
    file_lists: list[np.ndarray],
) -> Trace:
    """New trace with extra jobs spliced in chronologically.

    Existing jobs keep their labels; injected jobs get fresh labels past
    the current maximum, so sub-traces stay attributable.  The combined
    job table is stably re-sorted by start time (Trace contract: job id
    order ≈ chronological) and the access columns renumbered to match.
    """
    n_old, n_new = trace.n_jobs, len(starts)
    if n_new == 0:
        return trace
    all_starts = np.concatenate([trace.job_starts, starts])
    order = np.argsort(all_starts, kind="stable")
    pos = np.empty(n_old + n_new, dtype=np.int64)
    pos[order] = np.arange(n_old + n_new)

    lens = np.fromiter(
        (len(fl) for fl in file_lists), dtype=np.int64, count=n_new
    )
    new_access_jobs = pos[n_old + np.repeat(np.arange(n_new), lens)]
    new_access_files = (
        np.concatenate([np.asarray(fl, dtype=np.int64) for fl in file_lists])
        if lens.sum()
        else np.empty(0, dtype=np.int64)
    )
    next_label = int(trace.job_labels.max()) + 1 if n_old else 0
    all_labels = np.concatenate(
        [trace.job_labels, next_label + np.arange(n_new, dtype=np.int64)]
    )
    return _replace(
        trace,
        job_users=np.concatenate([trace.job_users, users])[order],
        job_nodes=np.concatenate([trace.job_nodes, nodes])[order],
        job_tiers=np.concatenate([trace.job_tiers, tiers])[order],
        job_starts=all_starts[order],
        job_ends=np.concatenate([trace.job_ends, ends])[order],
        access_jobs=np.concatenate([pos[trace.access_jobs], new_access_jobs]),
        access_files=np.concatenate([trace.access_files, new_access_files]),
        job_labels=all_labels[order],
    )


def _template_rows(trace: Trace, rng: np.random.Generator, n: int):
    """Copy user/node/tier rows from ``n`` randomly drawn existing jobs."""
    idx = rng.integers(0, trace.n_jobs, size=n)
    return (
        trace.job_users[idx],
        trace.job_nodes[idx],
        trace.job_tiers[idx],
    )


# ----------------------------------------------------------------------
# transforms
# ----------------------------------------------------------------------


@register_scenario(
    "stationary",
    summary="identity transform: the paper's single stationary world",
)
def stationary(trace: Trace, rng: np.random.Generator) -> Trace:
    return trace


@register_scenario(
    "popularity-drift",
    summary="rotate dataset popularity over time (late jobs drift most)",
    defaults={"strength": 0.5, "shift": 1},
    aliases=("drift",),
    window=lambda params: (0.0, 1.0),
)
def popularity_drift(
    trace: Trace,
    rng: np.random.Generator,
    strength: float = 0.5,
    shift: int = 1,
) -> Trace:
    """Remap drifting jobs' accesses to rank-shifted datasets.

    Each job drifts with probability ``strength`` × its time fraction —
    early jobs almost never, late jobs up to ``strength`` — and a
    drifting job reads the files at the same within-dataset ranks of the
    dataset ``shift`` places over.  This reproduces the gradual
    interest-rotation the in-network cache studies observe: the file
    population is unchanged, but *which* files are popular moves.
    """
    index = _DatasetIndex(trace)
    if trace.n_jobs == 0 or trace.n_accesses == 0 or index.n_datasets < 2:
        return trace
    p = np.clip(strength * _time_fractions(trace), 0.0, 1.0)
    drifts = rng.random(trace.n_jobs) < p
    if not drifts.any():
        return trace
    files = trace.access_files
    target_ds = (trace.file_datasets[files] + shift) % index.n_datasets
    mapped = index.map_files(files, target_ds)
    new_files = np.where(drifts[trace.access_jobs], mapped, files)
    return _replace(trace, access_files=new_files)


@register_scenario(
    "phase-shift",
    summary="reprocessing campaign: popularity ranks mirror at a cut-over",
    defaults={"at": 0.5},
    aliases=("reprocessing",),
    window=lambda params: (params["at"], 1.0),
)
def phase_shift(
    trace: Trace, rng: np.random.Generator, at: float = 0.5
) -> Trace:
    """Mirror the dataset popularity order for jobs after ``at``.

    Jobs starting at or past time fraction ``at`` read the mirrored
    dataset (``d → n_datasets - 1 - d``) at the same within-dataset
    ranks: a hard cut-over where yesterday's cold data becomes today's
    campaign input — the reprocessing pattern of §2's production tier.
    Deterministic (no randomness).
    """
    index = _DatasetIndex(trace)
    if trace.n_jobs == 0 or trace.n_accesses == 0 or index.n_datasets < 2:
        return trace
    shifted = _time_fractions(trace) >= at
    if not shifted.any():
        return trace
    files = trace.access_files
    target_ds = index.n_datasets - 1 - trace.file_datasets[files]
    mapped = index.map_files(files, target_ds)
    new_files = np.where(shifted[trace.access_jobs], mapped, files)
    return _replace(trace, access_files=new_files)


@register_scenario(
    "flash-crowd",
    summary="burst of extra jobs hammering one dataset's hottest files",
    defaults={
        "at": 0.6,
        "width": 0.1,
        "boost": 0.3,
        "dataset": -1,
        "files": 32,
    },
    aliases=("crowd",),
    window=lambda params: (params["at"], params["at"] + params["width"]),
)
def flash_crowd(
    trace: Trace,
    rng: np.random.Generator,
    at: float = 0.6,
    width: float = 0.1,
    boost: float = 0.3,
    dataset: int = -1,
    files: int = 32,
) -> Trace:
    """Inject ``boost × n_jobs`` jobs all reading one hot file group.

    The crowd lands in the window ``[at, at + width)`` (time fractions)
    and every crowd job reads the same ``files`` most-popular files of
    the target dataset (``dataset=-1`` picks the globally hottest one).
    The repeated identical co-access welds those files into one filecule
    — which then goes *stale* the moment the crowd passes, the pattern
    the decayed identifier exists to unwind.
    """
    index = _DatasetIndex(trace)
    if trace.n_jobs == 0 or trace.n_accesses == 0 or index.n_datasets == 0:
        return trace
    if dataset < 0:
        by_ds = np.zeros(index.n_datasets, dtype=np.int64)
        np.add.at(by_ds, trace.file_datasets, trace.file_popularity)
        dataset = int(by_ds.argmax())
    if dataset >= index.n_datasets or index.counts[dataset] == 0:
        return trace
    members = index.order[
        index.starts[dataset] : index.starts[dataset] + index.counts[dataset]
    ]
    # Hottest first; ties break on the lower file id for determinism.
    hot = members[
        np.lexsort((members, -trace.file_popularity[members]))
    ][: max(1, files)]
    hot = np.sort(hot)

    n_new = max(1, int(round(boost * trace.n_jobs)))
    t0, t1 = trace.time_span()
    span = t1 - t0
    starts = t0 + (at + width * rng.random(n_new)) * span
    duration = float(np.median(trace.job_ends - trace.job_starts))
    users, nodes, tiers = _template_rows(trace, rng, n_new)
    return _inject_jobs(
        trace,
        starts=starts,
        ends=starts + duration,
        users=users,
        nodes=nodes,
        tiers=tiers,
        file_lists=[hot] * n_new,
    )


@register_scenario(
    "site-outage",
    summary="one site's jobs fail over to other sites for a window",
    defaults={"site": 0, "at": 0.3, "duration": 0.2},
    aliases=("outage",),
    window=lambda params: (params["at"], params["at"] + params["duration"]),
)
def site_outage(
    trace: Trace,
    rng: np.random.Generator,
    site: int = 0,
    at: float = 0.3,
    duration: float = 0.2,
) -> Trace:
    """Reassign the outaged site's jobs to nodes of other sites.

    Jobs submitted from ``site`` during ``[at, at + duration)`` are
    re-homed onto uniformly drawn nodes of the surviving sites; outside
    the window the site operates (and rejoins) unchanged.  Only the
    ``job_nodes`` column changes — the access pattern is intact, which
    is exactly what makes the scenario interesting for per-site cache
    advisors and the service's cluster workers: traffic moves, co-access
    does not.
    """
    if trace.n_jobs == 0:
        return trace
    survivors = np.flatnonzero(trace.node_sites != site)
    if len(survivors) == 0:
        return trace
    tf = _time_fractions(trace)
    hit = (
        (trace.job_sites == site) & (tf >= at) & (tf < at + duration)
    )
    if not hit.any():
        return trace
    new_nodes = trace.job_nodes.copy()
    new_nodes[hit] = survivors[rng.integers(0, len(survivors), int(hit.sum()))]
    return _replace(trace, job_nodes=new_nodes)


@register_scenario(
    "scan-flood",
    summary="adversarial sequential scans striding across all files",
    defaults={"at": 0.0, "rate": 0.1, "files": 64, "stride": 1},
    aliases=("scan",),
    window=lambda params: (params["at"], 1.0),
)
def scan_flood(
    trace: Trace,
    rng: np.random.Generator,
    at: float = 0.0,
    rate: float = 0.1,
    files: int = 64,
    stride: int = 1,
) -> Trace:
    """Inject ``rate × n_jobs`` scan jobs sweeping the file population.

    Scan job ``k`` reads ``files`` consecutive (mod ``stride``) file ids
    starting where job ``k-1`` stopped, wrapping around the catalog —
    the classic cache-adversarial sequential scan.  Scans share no
    stable co-access signature with real jobs, so they both pollute
    caches and shatter filecule classes, which is what the robustness
    matrix measures.  Jobs are spread evenly over ``[at, 1]``.
    """
    if trace.n_jobs == 0 or trace.n_files == 0:
        return trace
    n_new = max(1, int(round(rate * trace.n_jobs)))
    files = max(1, int(files))
    stride = max(1, int(stride))
    file_lists = [
        (k * files * stride + stride * np.arange(files)) % trace.n_files
        for k in range(n_new)
    ]
    t0, t1 = trace.time_span()
    span = t1 - t0
    starts = t0 + (at + (1.0 - at) * (np.arange(n_new) + 0.5) / n_new) * span
    duration = float(np.median(trace.job_ends - trace.job_starts))
    users, nodes, tiers = _template_rows(trace, rng, n_new)
    return _inject_jobs(
        trace,
        starts=starts,
        ends=starts + duration,
        users=users,
        nodes=nodes,
        tiers=tiers,
        file_lists=file_lists,
    )
