"""Exact filecule identification by access-signature grouping.

Two files belong to the same filecule iff they are accessed by exactly the
same set of jobs (paper §3).  The *signature* of a file is therefore its
sorted array of accessing job ids; grouping files by signature yields the
filecule partition directly.

The grouping runs as a few whole-array passes over the trace's file-major
job column (``access_jobs[_file_order]``, each file's signature as one
contiguous run), with no loop over files:

1. **Key.**  Every accessed file gets a 64-bit job-set key: the sum,
   wrapping modulo 2**64, of a fixed splitmix64 mix of each of its job
   ids (one ``np.add.reduceat``).  Equal signatures give equal keys.
2. **Proposal.**  One ``lexsort`` by (popularity, key, file id) puts
   files with equal keys next to each other; each run is a proposed
   group, led by its smallest file.
3. **Proof.**  Every access of a non-leading file is compared with the
   access at the same offset in its leader's run.  A group in which some
   files differ splits into the leader with the files that match and the
   rest; the rest form a new group under their own smallest file and are
   proved again.  Each round settles at least every leader, so the loop
   ends, and a key collision can cost rounds but never merge two
   signatures: the result is exact.  The comparison runs in slices of
   about 2**20 accesses, which bounds its temporaries.

The cost is ``O(A log A)`` for the trace's file-major sort plus a handful
of ``O(A)`` passes, with ``A`` the number of accesses — what the DZero
history (13M accesses) needs.  The groups become a
:class:`~repro.core.filecule.FileculePartition` through
:meth:`~repro.core.filecule.FileculePartition.from_labels`.
:func:`signature_of_file` and
:func:`~repro.core.properties.assert_partition_valid` stay the
independent per-file reference.
"""

from __future__ import annotations

import numpy as np

from repro.core.filecule import FileculePartition
from repro.traces.trace import Trace, check_ids


def signature_of_file(trace: Trace, file_id: int) -> tuple[int, ...]:
    """The access signature of one file: the sorted tuple of its job ids.

    Raises ``IndexError`` unless ``file_id`` is in ``[0, n_files)``.
    """
    # .tolist() converts the whole slice in C — much faster than a
    # per-element int() loop for popular files with long signatures.
    return tuple(trace.file_jobs(file_id).tolist())


def _job_keys(jobs: np.ndarray) -> np.ndarray:
    """A fixed splitmix64 mix of each job id, as ``uint64`` (no RNG, no
    ``hash()``, so keys are the same in every process)."""
    z = jobs.astype(np.uint64) + np.uint64(0x9E3779B97F4A7C15)
    z ^= z >> np.uint64(30)
    z *= np.uint64(0xBF58476D1CE4E5B9)
    z ^= z >> np.uint64(27)
    z *= np.uint64(0x94D049BB133111EB)
    z ^= z >> np.uint64(31)
    return z


def _heads(values: np.ndarray) -> np.ndarray:
    """Mask of the first element of each run of equal ``values``."""
    out = np.empty(len(values), dtype=bool)
    out[:1] = True
    out[1:] = values[1:] != values[:-1]
    return out


#: Accesses compared per slice of the proof; bounds its temporaries.
_SLICE = 1 << 20


def _differs(
    jobs: np.ndarray, ptr: np.ndarray, files: np.ndarray, leaders: np.ndarray
) -> np.ndarray:
    """Mask over ``files``: True where a file's run of ``jobs`` differs
    from its leader's run of the same length.  Files are compared in
    slices of about ``_SLICE`` accesses."""
    lengths = ptr[files + 1] - ptr[files]
    cuts = np.searchsorted(
        np.cumsum(lengths), np.arange(_SLICE, lengths.sum(), _SLICE)
    )
    return np.concatenate(
        [
            _differs_slice(jobs, ptr, f, lead)
            for f, lead in zip(np.split(files, cuts), np.split(leaders, cuts))
        ]
    )


def _differs_slice(jobs, ptr, files, leaders) -> np.ndarray:
    lengths = ptr[files + 1] - ptr[files]
    starts = np.cumsum(lengths) - lengths
    at = np.repeat(ptr[files] - starts, lengths)
    at += np.arange(len(at))
    mine = jobs[at]
    at += np.repeat(ptr[leaders] - ptr[files], lengths)
    return np.logical_or.reduceat(mine != jobs[at], starts)


def find_filecules(trace: Trace) -> FileculePartition:
    """Partition the accessed files of ``trace`` into filecules.

    Returns a :class:`FileculePartition` whose filecules are ordered by
    (descending request count, ascending first file id) — a deterministic
    order convenient for "top filecule" selections in the transfer
    experiments.

    Files never accessed in the trace are left out of the partition
    (label ``-1``); the filecule definition is usage-based.  A file or
    job id outside its catalog raises ``IndexError`` naming the access.
    """
    ptr = trace.file_access_ptr
    files = trace.accessed_file_ids
    popularity = trace.file_popularity
    check_ids(trace.access_jobs, trace.n_jobs, kind="job")
    jobs = trace.access_jobs[trace._file_order]
    keys = np.add.reduceat(_job_keys(np.arange(trace.n_jobs))[jobs], ptr[files])

    # proposal: runs of equal (popularity, key), ascending file ids
    order = np.lexsort((files, keys, popularity[files]))
    files = files[order]
    starts = _heads(keys[order]) | _heads(popularity[files])
    label = np.full(trace.n_files, -1, dtype=np.int64)
    label[files] = np.cumsum(starts) - 1
    n_groups = int(starts.sum())

    # proof: `pending` stays sorted by (label, file id), so the first
    # file of each label is its leader; files that differ from theirs
    # get a fresh label per group and are proved again
    pending = files
    while len(pending):
        lead = _heads(label[pending])
        leaders = pending[lead][np.cumsum(lead) - 1]
        rest = ~lead
        pending = pending[rest][_differs(jobs, ptr, pending[rest], leaders[rest])]
        fresh = _heads(label[pending])
        label[pending] = n_groups + np.cumsum(fresh) - 1
        n_groups += int(fresh.sum())

    return FileculePartition.from_labels(
        files, label[files], trace.n_files, popularity[files], trace.file_sizes
    )
