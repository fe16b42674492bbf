"""Column-oriented trace container.

A :class:`Trace` is the in-memory form of the two SAM trace types the paper
analyzes (§2.3): application traces (one row per job) and file traces (one
row per *access*, i.e. per (job, file) pair).  Storage is structure-of-
arrays on numpy so the §3 characterization — millions of accesses — runs as
a handful of ``bincount``/``sort`` calls rather than Python loops (per the
scientific-python optimization guides: vectorize, use views, avoid copies).

Access rows are canonicalized at construction: sorted by (job, file) and
de-duplicated, giving CSR-style slicing in both directions (job → files and
file → jobs).  The *number of requests for a file* is therefore the number
of distinct jobs that read it, which is exactly the popularity notion the
paper uses (a job reads every event of every input file once, §3).
"""

from __future__ import annotations

import operator
from functools import cached_property
from collections.abc import Iterator

import numpy as np

from repro.traces.records import (
    TIER_NAMES,
    FileMeta,
    JobMeta,
    tier_name,
)


class TraceValidationError(ValueError):
    """Raised when trace columns are mutually inconsistent."""


#: Accesses compared per step when validating a canonical promise.
CANONICAL_CHECK_CHUNK = 1 << 20


def _as_array(values, dtype) -> np.ndarray:
    arr = np.asarray(values, dtype=dtype)
    if arr.ndim != 1:
        raise TraceValidationError(f"expected 1-D column, got shape {arr.shape}")
    return arr


def check_ids(ids: np.ndarray, bound: int, first: int = 0, kind="file") -> None:
    """Raise ``IndexError`` naming the first access (``first + k``) whose
    id ``ids[k]`` is outside ``[0, bound)``: unvalidated traces (the
    store, subsets) may carry any file id."""
    if len(ids) and (ids.min() < 0 or ids.max() >= bound):
        p = int(np.argmax((ids < 0) | (ids >= bound)))
        raise IndexError(
            f"access {first + p} requests {kind} {int(ids[p])}, "
            f"outside [0, {bound})"
        )


def check_id(value: int, bound: int, kind: str = "file") -> int:
    """``value`` as an ``int``; ``IndexError`` naming it unless it is in
    ``[0, bound)`` (a negative id would silently index from the end)."""
    value = operator.index(value)
    if not 0 <= value < bound:
        raise IndexError(f"{kind} id {value} outside [0, {bound})")
    return value


class Trace:
    """An immutable job/file-access trace.

    Parameters
    ----------
    file_sizes, file_tiers, file_datasets:
        Per-file columns (length ``n_files``): size in bytes, tier code,
        producing dataset id.
    job_users, job_nodes, job_tiers, job_starts, job_ends:
        Per-job columns (length ``n_jobs``).  ``job_nodes`` indexes the
        node table; user/site/domain structure is resolved through it.
    access_jobs, access_files:
        The file trace: parallel arrays of (job id, file id) pairs.
        Duplicates are merged; order is not significant.
    user_domains:
        Per-user domain code (length ``n_users``).
    node_sites, node_domains:
        Per-node site and domain codes (length ``n_nodes``).
    site_names, domain_names:
        Decoding tables for site and domain codes.
    job_labels:
        Optional original job ids, preserved by the filter functions so
        sub-traces remain attributable to the full trace.
    canonical:
        Promise that ``access_jobs``/``access_files`` are already sorted
        by (job, file) and de-duplicated, skipping canonicalization so
        the columns are adopted as zero-copy views.  Internal fast path
        for columns that are canonical by construction: the generator's,
        the trace store's :func:`~repro.workload.store.load_trace`, and
        a trace rebuilt from another trace's columns (subsets, time
        shifts, concatenation).  With ``validate`` the promise is
        checked, and the first access out of order raises
        :class:`TraceValidationError`.
    """

    __slots__ = (
        "file_sizes",
        "file_tiers",
        "file_datasets",
        "job_users",
        "job_nodes",
        "job_tiers",
        "job_starts",
        "job_ends",
        "access_jobs",
        "access_files",
        "user_domains",
        "node_sites",
        "node_domains",
        "site_names",
        "domain_names",
        "job_labels",
        "__dict__",  # for cached_property
    )

    def __init__(
        self,
        *,
        file_sizes,
        file_tiers,
        file_datasets,
        job_users,
        job_nodes,
        job_tiers,
        job_starts,
        job_ends,
        access_jobs,
        access_files,
        user_domains,
        node_sites,
        node_domains,
        site_names,
        domain_names,
        job_labels=None,
        validate: bool = True,
        canonical: bool = False,
    ) -> None:
        self.file_sizes = _as_array(file_sizes, np.int64)
        self.file_tiers = _as_array(file_tiers, np.int16)
        self.file_datasets = _as_array(file_datasets, np.int32)
        self.job_users = _as_array(job_users, np.int32)
        self.job_nodes = _as_array(job_nodes, np.int32)
        self.job_tiers = _as_array(job_tiers, np.int16)
        self.job_starts = _as_array(job_starts, np.float64)
        self.job_ends = _as_array(job_ends, np.float64)
        self.user_domains = _as_array(user_domains, np.int16)
        self.node_sites = _as_array(node_sites, np.int32)
        self.node_domains = _as_array(node_domains, np.int16)
        self.site_names = tuple(site_names)
        self.domain_names = tuple(domain_names)
        self.job_labels = (
            np.arange(len(self.job_users), dtype=np.int64)
            if job_labels is None
            else _as_array(job_labels, np.int64)
        )

        aj = _as_array(access_jobs, np.int64)
        af = _as_array(access_files, np.int64)
        if len(aj) != len(af):
            raise TraceValidationError(
                f"access columns differ in length: {len(aj)} jobs vs {len(af)} files"
            )
        # Canonical order: by job then file, duplicates merged.
        if len(aj) and not canonical:
            order = np.lexsort((af, aj))
            aj, af = aj[order], af[order]
            keep = np.empty(len(aj), dtype=bool)
            keep[0] = True
            np.logical_or(aj[1:] != aj[:-1], af[1:] != af[:-1], out=keep[1:])
            aj, af = aj[keep], af[keep]
        self.access_jobs = aj
        self.access_files = af

        # Freeze all columns; Trace is immutable by contract.
        for name in (
            "file_sizes",
            "file_tiers",
            "file_datasets",
            "job_users",
            "job_nodes",
            "job_tiers",
            "job_starts",
            "job_ends",
            "access_jobs",
            "access_files",
            "user_domains",
            "node_sites",
            "node_domains",
            "job_labels",
        ):
            getattr(self, name).setflags(write=False)

        if validate:
            self._validate()
            if canonical:
                self._check_canonical()

    # ------------------------------------------------------------------
    # basic shape
    # ------------------------------------------------------------------
    @property
    def n_files(self) -> int:
        """Number of files in the catalog (including never-accessed ones)."""
        return len(self.file_sizes)

    @property
    def n_jobs(self) -> int:
        return len(self.job_users)

    @property
    def n_users(self) -> int:
        return len(self.user_domains)

    @property
    def n_nodes(self) -> int:
        return len(self.node_sites)

    @property
    def n_sites(self) -> int:
        return len(self.site_names)

    @property
    def n_domains(self) -> int:
        return len(self.domain_names)

    @property
    def n_accesses(self) -> int:
        """Number of (job, file) access pairs after de-duplication."""
        return len(self.access_jobs)

    def _validate(self) -> None:
        nf, nj, nu, nn = self.n_files, self.n_jobs, self.n_users, self.n_nodes
        for name, col, expect in (
            ("file_tiers", self.file_tiers, nf),
            ("file_datasets", self.file_datasets, nf),
            ("job_nodes", self.job_nodes, nj),
            ("job_tiers", self.job_tiers, nj),
            ("job_starts", self.job_starts, nj),
            ("job_ends", self.job_ends, nj),
            ("job_labels", self.job_labels, nj),
        ):
            if len(col) != expect:
                raise TraceValidationError(
                    f"{name} has length {len(col)}, expected {expect}"
                )
        if nf and self.file_sizes.min() < 0:
            raise TraceValidationError("negative file size")
        for name, col, hi in (
            ("file_tiers", self.file_tiers, len(TIER_NAMES)),
            ("job_tiers", self.job_tiers, len(TIER_NAMES)),
            ("job_users", self.job_users, nu),
            ("job_nodes", self.job_nodes, nn),
            ("user_domains", self.user_domains, self.n_domains),
            ("node_sites", self.node_sites, self.n_sites),
            ("node_domains", self.node_domains, self.n_domains),
        ):
            if len(col) and (col.min() < 0 or col.max() >= hi):
                raise TraceValidationError(
                    f"{name} contains codes outside [0, {hi})"
                )
        if nj and np.any(self.job_ends < self.job_starts):
            raise TraceValidationError("job ends before it starts")
        if self.n_accesses:
            if self.access_jobs.min() < 0 or self.access_jobs.max() >= nj:
                raise TraceValidationError("access job id out of range")
            if self.access_files.min() < 0 or self.access_files.max() >= nf:
                raise TraceValidationError("access file id out of range")

    def _check_canonical(self) -> None:
        """Raise unless job ids never decrease and file ids strictly
        increase within a job, naming the first access that breaks it.

        Compares in chunks of ``CANONICAL_CHECK_CHUNK`` accesses, so no
        temporary grows with the trace.
        """
        aj, af = self.access_jobs, self.access_files
        for a in range(0, self.n_accesses - 1, CANONICAL_CHECK_CHUNK):
            b = min(a + CANONICAL_CHECK_CHUNK, self.n_accesses - 1)
            dj = np.diff(aj[a : b + 1])
            bad = (dj < 0) | ((dj == 0) & (np.diff(af[a : b + 1]) <= 0))
            if bad.any():
                k = a + 1 + int(np.argmax(bad))
                raise TraceValidationError(
                    f"access {k} (job {int(aj[k])}, file {int(af[k])}) "
                    f"follows (job {int(aj[k - 1])}, file {int(af[k - 1])}): "
                    f"accesses promised canonical are not sorted by "
                    f"(job, file) without duplicates"
                )

    # ------------------------------------------------------------------
    # derived structure (lazy, cached, all read-only views)
    # ------------------------------------------------------------------
    @cached_property
    def job_access_ptr(self) -> np.ndarray:
        """CSR pointer: accesses of job ``j`` live at ``[ptr[j], ptr[j+1])``.

        Raises ``IndexError`` on a job id outside ``[0, n_jobs)``.  The
        job column is sorted, so the bounds are binary searches (a
        ``bincount`` would first copy the read-only column whole).
        """
        check_ids(self.access_jobs, self.n_jobs, kind="job")
        ptr = np.searchsorted(
            self.access_jobs, np.arange(self.n_jobs + 1, dtype=np.int64)
        ).astype(np.int64, copy=False)
        ptr.setflags(write=False)
        return ptr

    @cached_property
    def _file_order(self) -> np.ndarray:
        """Permutation sorting accesses by (file, job)."""
        order = np.lexsort((self.access_jobs, self.access_files))
        order.setflags(write=False)
        return order

    @cached_property
    def file_access_ptr(self) -> np.ndarray:
        """CSR pointer into ``accesses[_file_order]`` grouped per file.

        Raises ``IndexError`` on a file id outside ``[0, n_files)``.
        """
        check_ids(self.access_files, self.n_files)
        counts = np.bincount(self.access_files, minlength=self.n_files)
        ptr = np.zeros(self.n_files + 1, dtype=np.int64)
        np.cumsum(counts, out=ptr[1:])
        ptr.setflags(write=False)
        return ptr

    @cached_property
    def files_per_job(self) -> np.ndarray:
        """Number of distinct input files of each job (Figure 1 series)."""
        out = np.diff(self.job_access_ptr)
        out.setflags(write=False)
        return out

    @cached_property
    def file_popularity(self) -> np.ndarray:
        """Requests per file = number of distinct jobs reading it."""
        out = np.diff(self.file_access_ptr)
        out.setflags(write=False)
        return out

    @cached_property
    def job_input_bytes(self) -> np.ndarray:
        """Total input bytes of each job (sum of its files' sizes).

        Raises ``IndexError`` on a job or file id outside the catalogs.
        """
        check_ids(self.access_jobs, self.n_jobs, kind="job")
        check_ids(self.access_files, self.n_files)
        contrib = self.file_sizes[self.access_files]
        out = np.zeros(self.n_jobs, dtype=np.int64)
        np.add.at(out, self.access_jobs, contrib)
        out.setflags(write=False)
        return out

    @cached_property
    def job_sites(self) -> np.ndarray:
        """Site code of each job (through its submission node)."""
        out = self.node_sites[self.job_nodes]
        out.setflags(write=False)
        return out

    @cached_property
    def job_domains(self) -> np.ndarray:
        """Internet-domain code of each job (through its submission node)."""
        out = self.node_domains[self.job_nodes]
        out.setflags(write=False)
        return out

    @cached_property
    def replay_columns(self) -> tuple[list, list, list, list]:
        """``(job_ptr, access_files, file_sizes, job_starts)`` as plain lists.

        Nothing in the package reads this: the per-access replay route
        converts one window at a time.  It stays only because
        ``perfbench/offline.py`` wraps it by name (through
        ``Trace.__dict__``) for its ``traces.replay_columns_s`` span;
        delete it together with that wrap.  Raises ``IndexError`` on a
        file id outside the catalog.
        """
        check_ids(self.access_files, self.n_files)
        return (
            self.job_access_ptr.tolist(),
            self.access_files.tolist(),
            self.file_sizes.tolist(),
            self.job_starts.tolist(),
        )

    @cached_property
    def access_size_cumsum(self) -> np.ndarray:
        """Prefix sums of per-access byte sizes (length ``n_accesses+1``).

        ``cumsum[b] - cumsum[a]`` is the total bytes requested by the
        access range ``[a, b)`` — the batch replay kernels account whole
        hit runs with one subtraction instead of per-access adds.
        Raises ``IndexError`` on a file id outside the catalog.
        """
        check_ids(self.access_files, self.n_files)
        out = np.zeros(self.n_accesses + 1, dtype=np.int64)
        np.cumsum(self.file_sizes[self.access_files], out=out[1:])
        out.setflags(write=False)
        return out

    @cached_property
    def accessed_file_ids(self) -> np.ndarray:
        """Sorted ids of files with at least one access."""
        out = np.flatnonzero(self.file_popularity > 0)
        out.setflags(write=False)
        return out

    # ------------------------------------------------------------------
    # row access
    # ------------------------------------------------------------------
    def job_files(self, job_id: int) -> np.ndarray:
        """File ids accessed by ``job_id`` (sorted, read-only view).

        Raises ``IndexError`` unless ``job_id`` is in ``[0, n_jobs)``.
        """
        job_id = check_id(job_id, self.n_jobs, "job")
        ptr = self.job_access_ptr
        return self.access_files[ptr[job_id] : ptr[job_id + 1]]

    def file_jobs(self, file_id: int) -> np.ndarray:
        """Job ids that accessed ``file_id`` (sorted, read-only view).

        Raises ``IndexError`` unless ``file_id`` is in ``[0, n_files)``.
        """
        file_id = check_id(file_id, self.n_files)
        ptr = self.file_access_ptr
        return self.access_jobs[self._file_order[ptr[file_id] : ptr[file_id + 1]]]

    def iter_jobs(self) -> Iterator[tuple[int, np.ndarray]]:
        """Yield ``(job_id, file_ids)`` in job-id (≈ chronological) order."""
        ptr = self.job_access_ptr
        for j in range(self.n_jobs):
            yield j, self.access_files[ptr[j] : ptr[j + 1]]

    def file_meta(self, file_id: int) -> FileMeta:
        """Materialize one file row as a :class:`FileMeta`."""
        return FileMeta(
            file_id=file_id,
            name=f"f{file_id:08d}.{tier_name(int(self.file_tiers[file_id]))}",
            size_bytes=int(self.file_sizes[file_id]),
            tier=int(self.file_tiers[file_id]),
            dataset_id=int(self.file_datasets[file_id]),
        )

    def job_meta(self, job_id: int) -> JobMeta:
        """Materialize one job row as a :class:`JobMeta`."""
        node = int(self.job_nodes[job_id])
        return JobMeta(
            job_id=int(self.job_labels[job_id]),
            user_id=int(self.job_users[job_id]),
            node_id=node,
            site_id=int(self.node_sites[node]),
            domain_id=int(self.node_domains[node]),
            tier=int(self.job_tiers[job_id]),
            start_time=float(self.job_starts[job_id]),
            end_time=float(self.job_ends[job_id]),
            file_ids=tuple(int(f) for f in self.job_files(job_id)),
        )

    # ------------------------------------------------------------------
    # misc
    # ------------------------------------------------------------------
    def total_bytes(self, file_ids=None) -> int:
        """Total size of the given files (default: all accessed files)."""
        if file_ids is None:
            file_ids = self.accessed_file_ids
        return int(self.file_sizes[np.asarray(file_ids, dtype=np.int64)].sum())

    def time_span(self) -> tuple[float, float]:
        """(earliest job start, latest job end) over the whole trace."""
        if self.n_jobs == 0:
            return (0.0, 0.0)
        return float(self.job_starts.min()), float(self.job_ends.max())

    def subset_jobs(self, mask: np.ndarray) -> "Trace":
        """New trace keeping only jobs where ``mask`` is True.

        The file/user/node catalogs are preserved unchanged (global file
        ids stay comparable across sub-traces — required by the §6
        partial-knowledge experiments); job rows are renumbered densely
        and their original ids retained in ``job_labels``.  The dense
        renumbering keeps the kept accesses in canonical order, so the
        result adopts them without sorting.
        """
        mask = np.asarray(mask, dtype=bool)
        if len(mask) != self.n_jobs:
            raise ValueError(
                f"mask length {len(mask)} != number of jobs {self.n_jobs}"
            )
        new_of_old = np.full(self.n_jobs, -1, dtype=np.int64)
        kept = np.flatnonzero(mask)
        new_of_old[kept] = np.arange(len(kept))
        a_keep = mask[self.access_jobs]
        return Trace(
            file_sizes=self.file_sizes,
            file_tiers=self.file_tiers,
            file_datasets=self.file_datasets,
            job_users=self.job_users[kept],
            job_nodes=self.job_nodes[kept],
            job_tiers=self.job_tiers[kept],
            job_starts=self.job_starts[kept],
            job_ends=self.job_ends[kept],
            access_jobs=new_of_old[self.access_jobs[a_keep]],
            access_files=self.access_files[a_keep],
            user_domains=self.user_domains,
            node_sites=self.node_sites,
            node_domains=self.node_domains,
            site_names=self.site_names,
            domain_names=self.domain_names,
            job_labels=self.job_labels[kept],
            validate=False,
            canonical=True,
        )

    def subset_accesses(self, mask: np.ndarray) -> "Trace":
        """New trace keeping only accesses where ``mask`` is True.

        All catalogs *and all job rows* are preserved unchanged — job
        ids, start times and file ids stay comparable with the parent
        trace.  This is the miss-through primitive of the hierarchical
        replay (:mod:`repro.engine.hierarchy`): the accesses a cache
        tier missed become the demand stream of the tier below it, with
        each surviving access keeping its original job and timestamp.

        Filtering the canonical (job, file)-sorted, de-duplicated access
        columns preserves both properties, so the result adopts the
        filtered columns zero-copy via the ``canonical`` fast path.
        """
        mask = np.asarray(mask, dtype=bool)
        if len(mask) != self.n_accesses:
            raise ValueError(
                f"mask length {len(mask)} != number of accesses "
                f"{self.n_accesses}"
            )
        return Trace(
            file_sizes=self.file_sizes,
            file_tiers=self.file_tiers,
            file_datasets=self.file_datasets,
            job_users=self.job_users,
            job_nodes=self.job_nodes,
            job_tiers=self.job_tiers,
            job_starts=self.job_starts,
            job_ends=self.job_ends,
            access_jobs=self.access_jobs[mask],
            access_files=self.access_files[mask],
            user_domains=self.user_domains,
            node_sites=self.node_sites,
            node_domains=self.node_domains,
            site_names=self.site_names,
            domain_names=self.domain_names,
            job_labels=self.job_labels,
            validate=False,
            canonical=True,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Trace(jobs={self.n_jobs}, files={self.n_files}, "
            f"accesses={self.n_accesses}, users={self.n_users}, "
            f"sites={self.n_sites}, domains={self.n_domains})"
        )
