"""The service's file-LRU/FIFO advisor, on the shared residency loop.

:class:`BatchedFileCache` is a drop-in for :class:`~repro.cache.lru.FileLRU`
(and, with ``touch_on_hit=False``, :class:`~repro.cache.fifo.FileFIFO`) whose
state is a :class:`~repro.cache.batch.Residency` with file ids as groups: the
``OrderedDict`` and :meth:`~repro.cache.batch.Residency.replay` step the batch
kernel falls back to, as unbounded wire ids rule out the compiled loop's dense
state.  Its payoff is :meth:`request_window`, the one override of the base
class's per-access reference: every service ingest hands it a window of
deduped job segments as plain lists in CSR shape and gets back the residency
loop's request codes, one per access, which
:meth:`~repro.service.state.ServiceState.ingest_batch` folds.

The per-access :meth:`request` replays a single file on the same state;
it is how :func:`~repro.engine.replay.simulate` drives the advisor as an
ordinary replacement policy.  Semantics are those of the
dict-backed policies by construction: a hit never updates the stored
size, a miss larger than the whole cache bypasses, and eviction runs in
least-recently-touched (LRU) or insertion (FIFO) order.
"""

from __future__ import annotations

from repro.cache.base import ReplacementPolicy
from repro.cache.batch import Residency


class BatchedFileCache(ReplacementPolicy):
    """File-granularity LRU/FIFO with a windowed API.

    Parameters
    ----------
    capacity_bytes:
        Modelled cache capacity.
    touch_on_hit:
        ``True`` for LRU semantics (hits refresh recency), ``False`` for
        FIFO (eviction strictly by insertion order).
    """

    def __init__(self, capacity_bytes: int, touch_on_hit: bool = True) -> None:
        super().__init__(capacity_bytes)
        self.name = "file-lru" if touch_on_hit else "file-fifo"
        self.touch_on_hit = touch_on_hit
        self._state = Residency(self.capacity_bytes, touch_on_hit)

    def __contains__(self, file_id: int) -> bool:
        return file_id in self._state.entries

    def request(self, file_id: int, size: int, now: float) -> int:
        (code,) = self._state.replay((file_id,), {file_id: size})
        self.used_bytes = self._state.used
        return code

    def request_window(
        self,
        flat: list[int],
        offsets: list[int],
        sizes: list[int],
        nows: list[float],
    ) -> list[int]:
        """:meth:`ReplacementPolicy.request_window` on the residency loop.

        Same arguments and codes as the per-access reference; ``nows``
        is unused, as LRU and FIFO read neither the clock nor
        :meth:`begin_job`.  Each job replays with its own ``{file:
        size}`` dict, since a later job in the window may carry a
        refined size for a file.
        """
        replay = self._state.replay
        codes: list[int] = []
        for lo, hi in zip(offsets, offsets[1:]):
            job = flat[lo:hi]
            codes += replay(job, dict(zip(job, sizes[lo:hi])))
        self.used_bytes = self._state.used
        return codes


def batched_policy_for(spec) -> "BatchedFileCache | None":
    """A :class:`BatchedFileCache` factory for eligible policy specs.

    Returns a constructor taking ``capacity_bytes`` when ``spec`` (a
    :class:`~repro.registry.spec.BoundSpec`) names a plain ``file-lru``
    or ``file-fifo`` with no parameter overrides — the two policies
    whose semantics the kernel replicates bit-for-bit — else ``None``
    (callers build the registry's policy, whose ``request_window`` is the
    per-access reference).
    """
    if getattr(spec, "params", ()):
        return None
    name = getattr(spec, "name", None)
    if name == "file-lru":
        return lambda capacity: BatchedFileCache(capacity, touch_on_hit=True)
    if name == "file-fifo":
        return lambda capacity: BatchedFileCache(capacity, touch_on_hit=False)
    return None
