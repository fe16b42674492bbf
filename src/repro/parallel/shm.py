"""Zero-copy trace transport over POSIX shared memory.

:func:`~repro.parallel.cells.map_trace_cells` fans cells — the
(policy, capacity) cells of ``sweep(jobs=N)``, hierarchy replays — out
to worker processes that all replay the *same immutable*
:class:`~repro.traces.trace.Trace`.  Pickling a multi-million-access
trace per worker would dominate the fan-out cost, so the parent instead
packs every numpy column into **one**
:class:`multiprocessing.shared_memory.SharedMemory` segment
(:class:`SharedTraceBuffers`) and ships only a tiny picklable
:class:`SharedTraceSpec` — segment name plus per-column dtype/length/
offset — to the pool.  Each worker attaches once (not once per cell),
rebuilds numpy views directly over the shared buffer and constructs a
``Trace`` with ``canonical=True`` so the columns are adopted verbatim:
no sort, no copy, no per-worker duplication of the column data.

Lifecycle: the parent owns the segment and must :meth:`~SharedTraceBuffers.close`
and :meth:`~SharedTraceBuffers.unlink` it (``map_trace_cells`` does so
in a ``finally``, so segments never leak even when a worker cell
fails).  Workers only map the segment; their mappings die with the
process.
"""

from __future__ import annotations

import os
import secrets
from dataclasses import dataclass
from multiprocessing import shared_memory

import numpy as np

from repro.traces.trace import Trace

#: Every array column of a Trace, in constructor-argument order.
TRACE_COLUMNS: tuple[str, ...] = (
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
)

#: Shared-memory segment name prefix; the leak tests glob for it.
SEGMENT_PREFIX = "repro_trace_"


@dataclass(frozen=True, slots=True)
class SharedTraceSpec:
    """Everything a worker needs to reattach a trace: the segment name,
    the column layout and the (small) string decoding tables."""

    segment: str
    #: (column name, dtype string, length, byte offset) per column.
    columns: tuple[tuple[str, str, int, int], ...]
    site_names: tuple[str, ...]
    domain_names: tuple[str, ...]

    @property
    def total_bytes(self) -> int:
        if not self.columns:
            return 0
        name, dtype, length, offset = self.columns[-1]
        return offset + np.dtype(dtype).itemsize * length


class SharedTraceBuffers:
    """Pack a trace's columns into one owned shared-memory segment.

    Use as a context manager — exit closes *and unlinks* the segment::

        with SharedTraceBuffers(trace) as buffers:
            pool = ctx.Pool(..., initargs=(buffers.spec, ...))
    """

    def __init__(self, trace: Trace) -> None:
        layout: list[tuple[str, str, int, int]] = []
        offset = 0
        arrays: list[np.ndarray] = []
        for column in TRACE_COLUMNS:
            arr = getattr(trace, column)
            # Align each column to its itemsize so the worker-side views
            # are naturally aligned.
            itemsize = arr.dtype.itemsize
            offset = -(-offset // itemsize) * itemsize
            layout.append((column, arr.dtype.str, len(arr), offset))
            arrays.append(arr)
            offset += arr.nbytes
        name = f"{SEGMENT_PREFIX}{os.getpid()}_{secrets.token_hex(4)}"
        self.shm = shared_memory.SharedMemory(
            create=True, size=max(offset, 1), name=name
        )
        for (column, dtype, length, off), arr in zip(layout, arrays):
            view = np.ndarray(
                (length,), dtype=np.dtype(dtype), buffer=self.shm.buf, offset=off
            )
            view[:] = arr
        self.spec = SharedTraceSpec(
            segment=self.shm.name,
            columns=tuple(layout),
            site_names=trace.site_names,
            domain_names=trace.domain_names,
        )
        self._unlinked = False

    def close(self) -> None:
        self.shm.close()

    def unlink(self) -> None:
        if not self._unlinked:
            self._unlinked = True
            try:
                self.shm.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass

    def __enter__(self) -> "SharedTraceBuffers":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
        self.unlink()


def attach_trace(
    spec: SharedTraceSpec,
) -> tuple[Trace, shared_memory.SharedMemory]:
    """Rebuild a trace as zero-copy views over an existing segment.

    Returns the reconstructed trace and the attached segment; the caller
    must keep the segment object alive as long as the trace is used (the
    trace's columns are views into its buffer) and should let it die with
    the process — only the segment's creator unlinks it.

    Workers are forked, so they share the parent's resource tracker:
    this attach re-registers the same name into the tracker's (deduped)
    set, and the creator's single unlink/unregister settles the books.
    """
    shm = shared_memory.SharedMemory(name=spec.segment)
    columns = {
        column: np.ndarray(
            (length,), dtype=np.dtype(dtype), buffer=shm.buf, offset=offset
        )
        for column, dtype, length, offset in spec.columns
    }
    trace = Trace(
        site_names=spec.site_names,
        domain_names=spec.domain_names,
        validate=False,
        canonical=True,
        **columns,
    )
    return trace, shm
