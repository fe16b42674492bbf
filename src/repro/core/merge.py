"""Merging partial filecule knowledge from multiple observers (§6).

The paper's §6 sketches a decentralized deployment: job logs accumulate at
"concentration points" (per-site schedulers) and no single point sees all
submissions.  Each concentrator identifies filecules from its own log —
necessarily *coarser* than the truth (see :mod:`repro.core.partial`).

This module supplies the missing aggregation step: two (or more) local
partitions can be combined **without exchanging raw logs** by taking the
*meet* (common refinement) of the partitions: files end up together iff
every observer that saw both kept them together.  Properties:

* the meet of all sites' partitions over the files they observed equals
  the global partition (each job is observed somewhere, and signature
  grouping factors through per-observer refinement);
* merging is commutative, associative and idempotent — concentrators can
  gossip partitions in any order;
* each additional observer can only refine (never coarsen) the estimate,
  so accuracy improves monotonically — quantified by
  :func:`merge_accuracy_curve`.

The exchanged state is one integer label per observed file — compact
enough for gossip.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.filecule import FileculePartition
from repro.core.dynamics import partition_similarity
from repro.core.identify import find_filecules
from repro.core.partial import identify_per_site
from repro.traces.trace import Trace


def merge_partitions(
    a: FileculePartition, b: FileculePartition
) -> FileculePartition:
    """The meet (common refinement) of two partial partitions.

    Files observed by both are grouped by the *pair* of labels; files
    observed by exactly one observer keep that observer's grouping; files
    observed by neither stay uncovered.  Request counts are not
    meaningful after a merge (observers count disjoint job sets), so the
    merged filecules carry the *sum* of both observers' counts where
    available — an upper bound on the true global count used only for
    ranking.
    """
    if a.n_files != b.n_files:
        raise ValueError(
            f"partitions cover catalogs of different sizes: "
            f"{a.n_files} vs {b.n_files}"
        )
    la, lb = a.labels, b.labels
    covered = np.flatnonzero((la >= 0) | (lb >= 0))
    la, lb = la[covered], lb[covered]
    # group by the label pair; -1 (unobserved) is a valid pair component
    # and picks the 0 appended to each observer's counts
    return FileculePartition.from_labels(
        covered,
        (la + 1) * (int(lb.max(initial=0)) + 2) + (lb + 1),
        a.n_files,
        np.append(a.requests, 0)[la] + np.append(b.requests, 0)[lb],
    )


def merge_all(partitions: list[FileculePartition]) -> FileculePartition:
    """Fold :func:`merge_partitions` over a list of observers."""
    if not partitions:
        raise ValueError("need at least one partition to merge")
    merged = partitions[0]
    for other in partitions[1:]:
        merged = merge_partitions(merged, other)
    return merged


@dataclass(frozen=True, slots=True)
class MergeAccuracyPoint:
    """Accuracy of the merged estimate after adding the k-th observer."""

    n_observers: int
    observer: str
    n_files_covered: int
    n_classes: int
    exact_fraction: float
    rand_index: float


def merge_accuracy_curve(
    trace: Trace,
    global_partition: FileculePartition | None = None,
) -> list[MergeAccuracyPoint]:
    """How identification accuracy grows as sites pool their knowledge.

    Sites are merged in descending activity order (busiest concentrator
    first, the deployment §6 suggests).  Accuracy of each prefix-merge is
    measured against the global partition on the files the merge covers.
    """
    if global_partition is None:
        global_partition = find_filecules(trace)
    locals_ = identify_per_site(trace)
    by_activity = sorted(
        locals_.items(),
        key=lambda kv: int((trace.job_sites == kv[0]).sum()),
        reverse=True,
    )
    points: list[MergeAccuracyPoint] = []
    merged: FileculePartition | None = None
    for k, (site, local) in enumerate(by_activity, start=1):
        merged = local if merged is None else merge_partitions(merged, local)
        sim = partition_similarity(merged, global_partition)
        points.append(
            MergeAccuracyPoint(
                n_observers=k,
                observer=trace.site_names[site],
                n_files_covered=int((merged.labels >= 0).sum()),
                n_classes=len(merged),
                exact_fraction=sim.exact_fraction,
                rand_index=sim.rand_index,
            )
        )
    return points
