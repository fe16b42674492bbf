"""Trace-driven cache simulation: file vs filecule granularity.

The paper's §4 experiment replays the DZero request stream against a disk
cache of 1–100 TB and compares LRU at file granularity with LRU at
*filecule* granularity (load and evict whole filecules).  This package
implements that simulator plus the related-work baselines discussed in §7
(FIFO, LFU, SIZE, Greedy-Dual-Size, Landlord, and group-prefetching LRU),
all behind one :class:`ReplacementPolicy` interface.

Typical use::

    from repro.cache import FileLRU, FileculeLRU, simulate
    from repro.core import find_filecules
    from repro.util import TB

    partition = find_filecules(trace)
    m_file = simulate(trace, lambda cap: FileLRU(cap), capacity=10 * TB)
    m_cule = simulate(
        trace, lambda cap: FileculeLRU(cap, partition), capacity=10 * TB
    )
    print(m_file.miss_rate, m_cule.miss_rate)
"""

from repro.cache.base import (
    BYPASS_CODE,
    HIT_CODE,
    CacheMetrics,
    ReplacementPolicy,
)
from repro.cache.lru import FileLRU
from repro.cache.fifo import FileFIFO
from repro.cache.size import LargestFirst
from repro.cache.frequency import FileLFU
from repro.cache.gds import GreedyDualSize, Landlord
from repro.cache.arc import AdaptiveReplacementCache
from repro.cache.filecule_lru import FileculeLRU
from repro.cache.filecule_variants import FileculeGDS, FileculeLFU
from repro.cache.bundle import FileBundleCache
from repro.cache.working_set import WorkingSetPrefetchLRU
from repro.cache.prefetch import GroupPrefetchLRU
from repro.cache.belady import BeladyMIN, FileculeBeladyMIN, next_use_positions

__all__ = [
    "BYPASS_CODE",
    "HIT_CODE",
    "CacheMetrics",
    "ReplacementPolicy",
    "FileLRU",
    "FileFIFO",
    "LargestFirst",
    "FileLFU",
    "GreedyDualSize",
    "Landlord",
    "AdaptiveReplacementCache",
    "FileculeLRU",
    "FileculeGDS",
    "FileculeLFU",
    "FileBundleCache",
    "WorkingSetPrefetchLRU",
    "GroupPrefetchLRU",
    "BeladyMIN",
    "FileculeBeladyMIN",
    "next_use_positions",
    "simulate",
    "sweep",
    "SweepResult",
]

#: Replay entry points re-exported lazily (PEP 562) from
#: :mod:`repro.cache.simulator`, which fronts :mod:`repro.engine`.  The
#: engine imports :mod:`repro.cache.base` at load time, so an eager
#: import here would be circular whenever ``repro.engine`` (or the
#: registry above it) is imported before this package finishes loading.
_ENGINE_EXPORTS = frozenset(("simulate", "sweep", "SweepResult"))


def __getattr__(name: str):
    if name in _ENGINE_EXPORTS:
        from repro.cache import simulator

        return getattr(simulator, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
