"""The :class:`Filecule` value type and :class:`FileculePartition` container."""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Iterator

import numpy as np

from repro.traces.trace import Trace, check_id
from repro.util.units import format_bytes


@dataclass(frozen=True)
class Filecule:
    """One filecule: a maximal always-used-together group of files.

    Attributes
    ----------
    filecule_id:
        Dense index within the owning partition.
    file_ids:
        Sorted, read-only array of member file ids.
    n_requests:
        Number of jobs that accessed the filecule.  By property 3 of the
        definition this equals the request count of every member file.
    size_bytes:
        Total size of all member files.
    """

    filecule_id: int
    file_ids: np.ndarray = field(repr=False)
    n_requests: int
    size_bytes: int

    def __post_init__(self) -> None:
        arr = np.asarray(self.file_ids, dtype=np.int64)
        if arr.ndim != 1 or len(arr) == 0:
            raise ValueError("a filecule must contain at least one file")
        arr = np.sort(arr)
        arr.setflags(write=False)
        object.__setattr__(self, "file_ids", arr)
        if self.n_requests < 0:
            raise ValueError(f"negative request count: {self.n_requests}")
        if self.size_bytes < 0:
            raise ValueError(f"negative size: {self.size_bytes}")

    @property
    def n_files(self) -> int:
        """Number of member files (1 for a "monatomic" filecule)."""
        return len(self.file_ids)

    @property
    def is_monatomic(self) -> bool:
        """True for single-file filecules (paper: the noble-gas analogy)."""
        return self.n_files == 1

    def __contains__(self, file_id: int) -> bool:
        idx = int(np.searchsorted(self.file_ids, file_id))
        return idx < len(self.file_ids) and int(self.file_ids[idx]) == file_id

    def __len__(self) -> int:
        return self.n_files

    def __str__(self) -> str:
        return (
            f"filecule #{self.filecule_id}: {self.n_files} files, "
            f"{format_bytes(self.size_bytes)}, {self.n_requests} requests"
        )


class FileculePartition:
    """A partition of the accessed files of a trace into filecules.

    The canonical way to obtain one is :func:`repro.core.find_filecules`.
    Files that were never accessed are outside the partition and carry
    label ``-1`` — the paper's filecules are defined by usage, so unused
    files have no filecule.

    The partition is kept as read-only columns:

    * ``labels`` — the filecule of each catalog file, ``-1`` if none;
    * ``requests`` (Figures 8–9), ``sizes_bytes`` (Figure 6) and
      ``files_per_filecule`` (Figure 7) — one entry per filecule;
    * ``members`` — the member file ids ordered by filecule, ascending
      within each, with filecule ``i`` at
      ``members[offsets[i]:offsets[i + 1]]``.

    A :class:`Filecule` is built only when one is indexed or iterated;
    its ``filecule_id`` is its position.

    Construction takes a list of filecules, kept in the given order, or
    a file→group labelling (:meth:`from_labels`), put in canonical
    order.  Either way a file id outside ``[0, n_files)`` or a file in
    two filecules raises ``ValueError``.
    """

    def __init__(self, filecules: list[Filecule], n_files: int) -> None:
        filecules = list(filecules)
        members = [fc.file_ids for fc in filecules]
        self._set_columns(
            int(n_files),
            np.concatenate(members) if members else np.empty(0, np.int64),
            np.cumsum([0] + [len(m) for m in members]),
            np.array([fc.n_requests for fc in filecules], dtype=np.int64),
            np.array([fc.size_bytes for fc in filecules], dtype=np.int64),
        )

    @classmethod
    def from_labels(
        cls,
        file_ids: np.ndarray,
        labels: np.ndarray,
        n_files: int,
        requests: np.ndarray,
        file_sizes: np.ndarray | None = None,
    ) -> FileculePartition:
        """The partition grouping ``file_ids[k]`` by ``labels[k]``.

        ``requests[k]`` is the request count of ``file_ids[k]``'s group;
        each group takes the value at its smallest member.  A group's
        size is the sum of ``file_sizes`` (indexed by file id) over its
        members, or 0 without ``file_sizes``.  Groups are numbered in
        canonical order: descending request count, then ascending
        smallest member.
        """
        file_ids = np.asarray(file_ids, dtype=np.int64)
        labels = np.asarray(labels, dtype=np.int64)
        requests = np.asarray(requests, dtype=np.int64)
        # runs of equal label, ascending file ids within each run
        order = np.lexsort((file_ids, labels))
        labels = labels[order]
        first = np.flatnonzero(np.diff(labels, prepend=labels[:1] - 1))
        heads = order[first]
        rank = np.lexsort((file_ids[heads], -requests[heads]))
        counts = np.diff(first, append=len(labels))[rank]
        offsets = np.zeros(len(rank) + 1, dtype=np.int64)
        np.cumsum(counts, out=offsets[1:])
        # the runs, moved to their filecule's place
        runs = np.repeat(first[rank] - offsets[:-1], counts)
        runs += np.arange(len(runs))
        part = cls.__new__(cls)
        part._set_columns(
            int(n_files),
            file_ids[order[runs]],
            offsets,
            requests[heads[rank]],
            file_sizes=file_sizes,
        )
        return part

    def _set_columns(
        self, n_files, members, offsets, requests, sizes=None, file_sizes=None
    ) -> None:
        """Adopt the columns after the two checks: ids in
        ``[0, n_files)`` and no file in two filecules.  Without
        ``sizes``, each filecule's size sums ``file_sizes`` (indexed by
        file id) over its members, or is 0 without ``file_sizes``."""
        members = np.asarray(members, dtype=np.int64)
        offsets = np.asarray(offsets, dtype=np.int64)
        counts = np.diff(offsets)
        owner = np.repeat(np.arange(len(counts)), counts)
        bad = (members < 0) | (members >= n_files)
        if bad.any():
            k = int(np.argmax(bad))
            raise ValueError(
                f"filecule #{owner[k]} references file id {members[k]}, "
                f"beyond the catalog [0, {n_files})"
            )
        labels = np.full(n_files, -1, dtype=np.int64)
        labels[members] = owner
        if np.count_nonzero(labels >= 0) < len(members):
            first_seen = np.zeros(len(members), dtype=bool)
            first_seen[np.unique(members, return_index=True)[1]] = True
            k = int(np.argmin(first_seen))
            raise ValueError(
                f"filecule #{owner[k]} overlaps another filecule "
                f"at file {members[k]}"
            )
        if sizes is None and file_sizes is not None and len(members):
            sizes = np.add.reduceat(
                np.asarray(file_sizes, dtype=np.int64)[members], offsets[:-1]
            )
        elif sizes is None:
            sizes = np.zeros(len(counts), dtype=np.int64)
        self.n_files = n_files
        self.labels = labels
        self.members = members
        self.offsets = offsets
        self.files_per_filecule = counts
        self.requests = requests
        self.sizes_bytes = sizes
        for column in (labels, members, offsets, counts, requests, sizes):
            column.setflags(write=False)

    # -- container protocol -------------------------------------------------
    def __len__(self) -> int:
        return len(self.files_per_filecule)

    def __iter__(self) -> Iterator[Filecule]:
        return (self[i] for i in range(len(self)))

    def __getitem__(self, filecule_id: int) -> Filecule:
        i = range(len(self))[filecule_id]
        return Filecule(
            filecule_id=i,
            file_ids=self.members[self.offsets[i] : self.offsets[i + 1]],
            n_requests=int(self.requests[i]),
            size_bytes=int(self.sizes_bytes[i]),
        )

    def filecule_of(self, file_id: int) -> Filecule | None:
        """The filecule containing ``file_id``, or None if never accessed."""
        label = int(self.labels[check_id(file_id, self.n_files)])
        return None if label == -1 else self[label]

    @property
    def n_covered_files(self) -> int:
        """Number of files that belong to some filecule."""
        return len(self.members)

    # -- trace-coupled statistics ---------------------------------------------
    def representative_files(self) -> np.ndarray:
        """The smallest member file id of each filecule.

        All members of a filecule share the same job set, so any analysis
        of "which jobs/users/sites touch this filecule" may be run on one
        representative file per filecule.
        """
        out = self.members[self.offsets[:-1]]
        out.setflags(write=False)
        return out

    def filecules_per_job(self, trace: Trace) -> np.ndarray:
        """Distinct filecules touched by each job (Figure 5 series).

        Vectorized: label every access, then count unique (job, label)
        pairs per job.
        """
        if trace.n_files != self.n_files:
            raise ValueError(
                f"partition covers {self.n_files} files but trace has "
                f"{trace.n_files}"
            )
        if trace.n_accesses == 0:
            return np.zeros(trace.n_jobs, dtype=np.int64)
        labels = self.labels[trace.access_files]
        if np.any(labels < 0):
            raise ValueError(
                "trace accesses files outside this partition; identify "
                "filecules on the same trace"
            )
        pairs = trace.access_jobs * (len(self) + 1) + labels
        unique_pairs = np.unique(pairs)
        jobs_of_pairs = unique_pairs // (len(self) + 1)
        return np.bincount(jobs_of_pairs, minlength=trace.n_jobs).astype(np.int64)

    def users_per_filecule(self, trace: Trace) -> np.ndarray:
        """Distinct users that accessed each filecule (Figure 4 series)."""
        reps = self.representative_files()
        out = np.empty(len(self), dtype=np.int64)
        for i, rep in enumerate(reps):
            jobs = trace.file_jobs(int(rep))
            out[i] = len(np.unique(trace.job_users[jobs]))
        return out

    def sites_per_filecule(self, trace: Trace) -> np.ndarray:
        """Distinct submission sites that accessed each filecule."""
        reps = self.representative_files()
        out = np.empty(len(self), dtype=np.int64)
        for i, rep in enumerate(reps):
            jobs = trace.file_jobs(int(rep))
            out[i] = len(np.unique(trace.job_sites[jobs]))
        return out

    def dominant_tiers(self, trace: Trace) -> np.ndarray:
        """Most common file tier within each filecule.

        Filecules identified on a mixed trace are normally tier-pure
        (datasets are tier-homogeneous); this resolves ties deterministically
        toward the lowest tier code when they are not.
        """
        out = np.empty(len(self), dtype=np.int16)
        for i, (lo, hi) in enumerate(zip(self.offsets[:-1], self.offsets[1:])):
            tiers = trace.file_tiers[self.members[lo:hi]]
            codes, counts = np.unique(tiers, return_counts=True)
            out[i] = codes[np.argmax(counts)]
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"FileculePartition({len(self)} filecules over "
            f"{self.n_covered_files}/{self.n_files} files)"
        )
