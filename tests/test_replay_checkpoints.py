"""The progress-checkpoint contract, on the kernel and per-access routes.

An instrumented :func:`~repro.engine.simulate` reports progress at
exactly ``done = k * progress_every < total`` and once at
``done == total``, with the run's metrics holding the totals of exactly
``done`` accesses and the evicted volume reported before the checkpoint
that covers it.  The batch kernel (``batch=None`` for the three
batch-capable policies) and the per-access loop (``batch=False``) must
record the same sequence, checkpoint for checkpoint, on small
adversarial traces: 1-byte caches, zero-size files, empty jobs, repeated
ids and files larger than the cache.  The kernel's per-access hit mask,
with its runs split at those marks, must equal the per-access loop's.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings, strategies as st

from repro import registry
from repro.cache.base import CacheMetrics
from repro.core.identify import find_filecules
from repro.engine import simulate
from repro.engine.hierarchy import _replay_recorded
from repro.obs.instrument import Instrumentation
from tests.conftest import make_trace

N_FILES = 8

#: Files of 0–5 bytes plus occasional giants larger than any drawn cache.
file_sizes = st.lists(
    st.one_of(st.integers(min_value=0, max_value=5), st.just(100)),
    min_size=N_FILES,
    max_size=N_FILES,
)
job_lists = st.lists(
    st.lists(st.integers(min_value=0, max_value=N_FILES - 1), max_size=6),
    min_size=1,
    max_size=10,
)
capacities = st.one_of(st.just(1), st.integers(min_value=1, max_value=30))
kernel_specs = st.sampled_from(["file-lru", "file-fifo", "filecule-lru"])


class Recorder(Instrumentation):
    """Records ``(done, six counters, cumulative evicted bytes)`` per call."""

    def __init__(self, progress_every: int) -> None:
        self.progress_every = progress_every
        self.evicted = 0
        self.calls: list[tuple] = []

    def on_evict(self, bytes_evicted: int) -> None:
        self.evicted += bytes_evicted

    def on_progress(self, done: int, total: int, metrics) -> None:
        self.calls.append(
            (
                done,
                metrics.requests,
                metrics.hits,
                metrics.bytes_requested,
                metrics.bytes_hit,
                metrics.bytes_fetched,
                metrics.bypasses,
                self.evicted,
            )
        )


def expected_marks(n: int, every: int) -> list[int]:
    return [*range(every, n, every), n]


def _replay(trace, spec, capacity, every, batch):
    recorder = Recorder(every)
    metrics = simulate(
        trace,
        spec,
        capacity,
        partition=find_filecules(trace),
        instrumentation=recorder,
        batch=batch,
    )
    return metrics, recorder.calls


@given(
    jobs=job_lists,
    sizes=file_sizes,
    capacity=capacities,
    spec=kernel_specs,
    data=st.data(),
)
@settings(max_examples=300, deadline=None)
def test_kernel_and_per_access_checkpoints_agree(
    jobs, sizes, capacity, spec, data
):
    trace = make_trace(jobs, n_files=N_FILES, file_sizes=sizes)
    n = trace.n_accesses
    every = data.draw(st.integers(min_value=1, max_value=n + 1), label="every")
    kernel, kernel_calls = _replay(trace, spec, capacity, every, None)
    serial, serial_calls = _replay(trace, spec, capacity, every, False)
    assert kernel_calls == serial_calls
    assert [call[0] for call in kernel_calls] == expected_marks(n, every)
    assert all(call[0] == call[1] for call in kernel_calls)
    plain = simulate(
        trace, spec, capacity, partition=find_filecules(trace)
    )
    assert kernel == serial == plain


@given(
    jobs=job_lists,
    sizes=file_sizes,
    capacity=capacities,
    spec=kernel_specs,
    data=st.data(),
)
@settings(max_examples=300, deadline=None)
def test_kernel_hit_mask_matches_per_access(jobs, sizes, capacity, spec, data):
    """The kernel, run under a checkpoint so runs split at the marks,
    marks exactly the accesses the per-access loop records as hits."""
    trace = make_trace(jobs, n_files=N_FILES, file_sizes=sizes)
    n = trace.n_accesses
    every = data.draw(st.integers(min_value=1, max_value=n + 1), label="every")
    partition = find_filecules(trace)
    bound = registry.parse(spec)

    def policy():
        return registry.build(bound, capacity, trace=trace, partition=partition)

    kernel_mask = np.zeros(n, dtype=bool)
    kernel_metrics = CacheMetrics()
    marks: list[int] = []
    policy().batch_kernel(trace, kernel_mask)(
        kernel_metrics, lambda done, evicted: marks.append(done), every
    )
    assert marks == expected_marks(n, every)

    serial_mask = np.zeros(n, dtype=bool)
    serial_metrics = CacheMetrics()
    _replay_recorded(trace, policy(), serial_metrics, serial_mask, batch=False)
    assert kernel_mask.tolist() == serial_mask.tolist()
    assert kernel_metrics == serial_metrics


@given(jobs=job_lists, sizes=file_sizes, capacity=capacities, data=st.data())
@settings(max_examples=100, deadline=None)
def test_per_access_only_policy_checkpoints(jobs, sizes, capacity, data):
    """``gds`` has no kernel: both routes are the per-access loop, and it
    alone must honour the exact marks."""
    trace = make_trace(jobs, n_files=N_FILES, file_sizes=sizes)
    n = trace.n_accesses
    every = data.draw(st.integers(min_value=1, max_value=n + 1), label="every")
    metrics, calls = _replay(trace, "gds", capacity, every, None)
    assert [call[0] for call in calls] == expected_marks(n, every)
    assert all(call[0] == call[1] for call in calls)
    assert metrics == simulate(trace, "gds", capacity)
