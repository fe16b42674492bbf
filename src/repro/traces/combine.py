"""Trace manipulation: subsampling, time shifting, concatenation.

Utilities for building experiment inputs out of existing traces:

* :func:`subsample_jobs` — keep a random fraction of jobs, the exact
  setup of §6's "larger filecules are identified when only a part of the
  jobs submitted ... are considered";
* :func:`shift_time` — translate all timestamps (align epochs, splice
  windows);
* :func:`concat_traces` — append the jobs of several traces over the
  *same* catalog (same files/users/nodes/sites/domains), e.g. stitching
  per-period exports back together.
"""

from __future__ import annotations

import numpy as np

from repro.traces.trace import Trace
from repro.util.rng import SeedLike, as_generator


def subsample_jobs(trace: Trace, fraction: float, seed: SeedLike = 0) -> Trace:
    """Keep each job independently with probability ``fraction``.

    Deterministic given (trace, fraction, seed).  File/user/node catalogs
    are preserved, so filecules identified on the sample are directly
    comparable to the full trace's (see :mod:`repro.core.partial`).
    """
    if not 0 <= fraction <= 1:
        raise ValueError(f"fraction must be in [0, 1], got {fraction}")
    rng = as_generator(seed)
    mask = rng.random(trace.n_jobs) < fraction
    return trace.subset_jobs(mask)


def shift_time(trace: Trace, offset_seconds: float) -> Trace:
    """Translate every job's start/end by ``offset_seconds``.

    Offsets that would push any start below zero are rejected (trace
    timestamps are defined relative to the window start).
    """
    starts = trace.job_starts + offset_seconds
    if trace.n_jobs and starts.min() < 0:
        raise ValueError(
            f"offset {offset_seconds} pushes job starts below zero"
        )
    return Trace(
        file_sizes=trace.file_sizes,
        file_tiers=trace.file_tiers,
        file_datasets=trace.file_datasets,
        job_users=trace.job_users,
        job_nodes=trace.job_nodes,
        job_tiers=trace.job_tiers,
        job_starts=starts,
        job_ends=trace.job_ends + offset_seconds,
        access_jobs=trace.access_jobs,
        access_files=trace.access_files,
        user_domains=trace.user_domains,
        node_sites=trace.node_sites,
        node_domains=trace.node_domains,
        site_names=trace.site_names,
        domain_names=trace.domain_names,
        job_labels=trace.job_labels,
        validate=False,
        canonical=True,
    )


def _same_catalog(a: Trace, b: Trace) -> bool:
    return (
        a.n_files == b.n_files
        and np.array_equal(a.file_sizes, b.file_sizes)
        and np.array_equal(a.file_tiers, b.file_tiers)
        and np.array_equal(a.file_datasets, b.file_datasets)
        and a.n_users == b.n_users
        and np.array_equal(a.user_domains, b.user_domains)
        and np.array_equal(a.node_sites, b.node_sites)
        and np.array_equal(a.node_domains, b.node_domains)
        and a.site_names == b.site_names
        and a.domain_names == b.domain_names
    )


def concat_traces(traces: list[Trace]) -> Trace:
    """Append the jobs of several traces sharing one catalog.

    Jobs are renumbered in concatenation order and re-sorted by start
    time by the caller if needed (job ids follow input order here, so
    chronological inputs stay chronological).  ``job_labels`` are kept,
    so provenance back to the source traces survives.  Each input's
    accesses are canonical and its job ids are shifted past the
    previous inputs', so the concatenated accesses are adopted without
    sorting.
    """
    if not traces:
        raise ValueError("need at least one trace")
    first = traces[0]
    for other in traces[1:]:
        if not _same_catalog(first, other):
            raise ValueError(
                "traces must share an identical file/user/node catalog"
            )
    offsets = np.cumsum([0] + [t.n_jobs for t in traces[:-1]])
    return Trace(
        file_sizes=first.file_sizes,
        file_tiers=first.file_tiers,
        file_datasets=first.file_datasets,
        job_users=np.concatenate([t.job_users for t in traces]),
        job_nodes=np.concatenate([t.job_nodes for t in traces]),
        job_tiers=np.concatenate([t.job_tiers for t in traces]),
        job_starts=np.concatenate([t.job_starts for t in traces]),
        job_ends=np.concatenate([t.job_ends for t in traces]),
        access_jobs=np.concatenate(
            [t.access_jobs + off for t, off in zip(traces, offsets)]
        ),
        access_files=np.concatenate([t.access_files for t in traces]),
        user_domains=first.user_domains,
        node_sites=first.node_sites,
        node_domains=first.node_domains,
        site_names=first.site_names,
        domain_names=first.domain_names,
        job_labels=np.concatenate([t.job_labels for t in traces]),
        canonical=True,
    )


def shuffled_null(trace: Trace, seed: SeedLike = 0) -> Trace:
    """The null model: destroy co-access structure, keep the marginals.

    Randomly permutes the file column of the access table, preserving
    each job's input-set *size* and each file's request count while
    erasing which files appear together.  Under this null, filecules
    should collapse to (mostly) single files and every filecule-granular
    advantage should vanish — the falsifiability control for the whole
    pipeline: if an analysis still "finds" structure here, the analysis
    is broken, not the workload.

    Duplicate (job, file) pairs created by the permutation are merged by
    the Trace constructor, so the access count shrinks by the collision
    mass (a few percent at default scale, more on tiny catalogs where
    hot files repeat within a job); the preserved-marginals statement is
    exact only up to those merges.
    """
    rng = as_generator(seed)
    permuted = trace.access_files[rng.permutation(trace.n_accesses)]
    return Trace(
        file_sizes=trace.file_sizes,
        file_tiers=trace.file_tiers,
        file_datasets=trace.file_datasets,
        job_users=trace.job_users,
        job_nodes=trace.job_nodes,
        job_tiers=trace.job_tiers,
        job_starts=trace.job_starts,
        job_ends=trace.job_ends,
        access_jobs=trace.access_jobs,
        access_files=permuted,
        user_domains=trace.user_domains,
        node_sites=trace.node_sites,
        node_domains=trace.node_domains,
        site_names=trace.site_names,
        domain_names=trace.domain_names,
        job_labels=trace.job_labels,
    )
