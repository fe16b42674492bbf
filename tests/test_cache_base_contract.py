"""Contract tests for the policy base class and simulator driving."""

import numpy as np
import pytest

from repro.cache.base import HIT_CODE, ReplacementPolicy
from repro.cache.simulator import simulate
from repro.service.state import _fold_window
from tests.conftest import make_trace


class RecordingPolicy(ReplacementPolicy):
    """Caches nothing; records the begin_job/request call sequence."""

    name = "recording"

    def __init__(self, capacity_bytes: int) -> None:
        super().__init__(capacity_bytes)
        self.calls: list[tuple] = []

    def begin_job(self, file_ids, now: float) -> None:
        self.calls.append(("job", tuple(int(f) for f in file_ids), now))

    def request(self, file_id: int, size: int, now: float) -> int:
        self.calls.append(("req", file_id, now))
        return size

    def __contains__(self, file_id: int) -> bool:
        return False


class TestSimulatorDriving:
    def test_begin_job_once_per_job_before_its_requests(self):
        trace = make_trace([[0, 1], [2], [0]])
        policy_holder: list[RecordingPolicy] = []

        def factory(capacity):
            policy = RecordingPolicy(capacity)
            policy_holder.append(policy)
            return policy

        simulate(trace, factory, capacity=100)
        calls = policy_holder[0].calls
        job_calls = [c for c in calls if c[0] == "job"]
        assert [c[1] for c in job_calls] == [(0, 1), (2,), (0,)]
        # the announcement precedes the job's first request
        first_job_idx = calls.index(("job", (0, 1), 0.0))
        first_req_idx = calls.index(("req", 0, 0.0))
        assert first_job_idx < first_req_idx

    def test_every_access_becomes_exactly_one_request(self):
        trace = make_trace([[0, 1, 2], [1]])
        holder: list[RecordingPolicy] = []

        def factory(capacity):
            policy = RecordingPolicy(capacity)
            holder.append(policy)
            return policy

        metrics = simulate(trace, factory, capacity=100)
        reqs = [c for c in holder[0].calls if c[0] == "req"]
        assert len(reqs) == trace.n_accesses == metrics.requests

    def test_request_timestamp_is_job_start(self):
        trace = make_trace([[0]], job_starts=[123.0])
        holder: list[RecordingPolicy] = []

        def factory(capacity):
            policy = RecordingPolicy(capacity)
            holder.append(policy)
            return policy

        simulate(trace, factory, capacity=100)
        assert holder[0].calls[-1] == ("req", 0, 123.0)


class TestRequestWindow:
    def test_begin_job_then_requests_at_each_jobs_clock(self):
        policy = RecordingPolicy(100)
        codes = policy.request_window(
            [3, 4, 5], [0, 2, 2, 3], [10, 20, 30], [1.0, 2.0, 3.0]
        )
        assert codes == [10, 20, 30]
        job_hits, totals = _fold_window(codes, [0, 2, 2, 3], [10, 20, 30])
        assert policy.calls == [
            ("job", (3, 4), 1.0),
            ("req", 3, 1.0),
            ("req", 4, 1.0),
            ("job", (), 2.0),
            ("job", (5,), 3.0),
            ("req", 5, 3.0),
        ]
        assert job_hits == [0, 0, 0]
        assert totals == (3, 0, 60, 0, 60, 0)


class TestCapacityGuards:
    def test_overcharge_detected(self):
        class BrokenPolicy(ReplacementPolicy):
            name = "broken"

            def request(self, file_id, size, now):
                self._charge(size)  # never evicts
                return size

            def __contains__(self, file_id):
                return False

        p = BrokenPolicy(10)
        p.request(0, 10, 0.0)
        with pytest.raises(RuntimeError, match="eviction logic is broken"):
            p.request(1, 10, 0.0)

    def test_negative_release_detected(self):
        class Leaky(ReplacementPolicy):
            name = "leaky"

            def request(self, file_id, size, now):  # pragma: no cover
                return HIT_CODE

            def __contains__(self, file_id):  # pragma: no cover
                return False

        p = Leaky(10)
        with pytest.raises(RuntimeError, match="negative occupancy"):
            p._release(5)

    def test_free_bytes(self):
        class Noop(ReplacementPolicy):
            name = "noop"

            def request(self, file_id, size, now):  # pragma: no cover
                return HIT_CODE

            def __contains__(self, file_id):  # pragma: no cover
                return False

        p = Noop(100)
        assert p.free_bytes == 100
        p._charge(30)
        assert p.free_bytes == 70
