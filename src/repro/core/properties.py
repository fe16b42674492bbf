"""Invariant checks for filecule partitions.

These validators encode the three properties the paper derives from the
filecule definition (§3) plus maximality (the partition is the *coarsest*
signature-consistent grouping).  They are used by the test suite and
available to users who load partitions from external sources.
"""

from __future__ import annotations

import numpy as np

from repro.core.filecule import FileculePartition
from repro.traces.trace import Trace


class FileculeInvariantError(AssertionError):
    """A filecule partition violates one of the definitional invariants."""


def assert_partition_valid(trace: Trace, partition: FileculePartition) -> None:
    """Raise :class:`FileculeInvariantError` unless ``partition`` is a valid
    filecule partition of ``trace``.

    Checks, in order:

    1. **coverage** — exactly the accessed files of the trace are covered;
    2. **disjointness** — no file belongs to two filecules (property 1);
    3. **non-emptiness** — every filecule has ≥ 1 file (property 2);
    4. **signature consistency** — all members of a filecule are accessed
       by the same job set, and ``n_requests`` equals its length
       (property 3: file and filecule popularity coincide);
    5. **maximality** — distinct filecules have distinct signatures (else
       they should have been one filecule).
    """
    if partition.n_files != trace.n_files:
        raise FileculeInvariantError(
            f"partition covers a catalog of {partition.n_files} files, "
            f"trace has {trace.n_files}"
        )

    covered = np.flatnonzero(partition.labels >= 0)
    accessed = trace.accessed_file_ids
    if not np.array_equal(covered, accessed):
        missing = np.setdiff1d(accessed, covered)
        extra = np.setdiff1d(covered, accessed)
        raise FileculeInvariantError(
            f"coverage mismatch: {len(missing)} accessed files uncovered, "
            f"{len(extra)} unaccessed files covered"
        )

    filecules = list(partition)  # built once from the partition's columns
    seen = np.zeros(trace.n_files, dtype=bool)
    for fc in filecules:
        if fc.n_files == 0:
            raise FileculeInvariantError(f"filecule #{fc.filecule_id} is empty")
        if np.any(seen[fc.file_ids]):
            raise FileculeInvariantError(
                f"filecule #{fc.filecule_id} overlaps a previous filecule"
            )
        seen[fc.file_ids] = True

    signatures: dict[bytes, int] = {}
    for fc in filecules:
        ref_jobs = trace.file_jobs(int(fc.file_ids[0]))
        sig = ref_jobs.tobytes()
        if fc.n_requests != len(ref_jobs):
            raise FileculeInvariantError(
                f"filecule #{fc.filecule_id} claims {fc.n_requests} requests "
                f"but its files were accessed by {len(ref_jobs)} jobs"
            )
        for f in fc.file_ids[1:]:
            if trace.file_jobs(int(f)).tobytes() != sig:
                raise FileculeInvariantError(
                    f"filecule #{fc.filecule_id}: files {int(fc.file_ids[0])} "
                    f"and {int(f)} have different access signatures"
                )
        other = signatures.get(sig)
        if other is not None:
            raise FileculeInvariantError(
                f"filecules #{other} and #{fc.filecule_id} share a signature "
                f"and should be merged (partition is not maximal)"
            )
        signatures[sig] = fc.filecule_id

    # size bookkeeping
    for fc in filecules:
        expected = int(trace.file_sizes[fc.file_ids].sum())
        if fc.size_bytes not in (0, expected):
            raise FileculeInvariantError(
                f"filecule #{fc.filecule_id} size {fc.size_bytes} != "
                f"sum of member sizes {expected}"
            )


def partition_is_valid(trace: Trace, partition: FileculePartition) -> bool:
    """Boolean form of :func:`assert_partition_valid`."""
    try:
        assert_partition_valid(trace, partition)
    except FileculeInvariantError:
        return False
    return True
