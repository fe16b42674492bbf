"""State-layer tests: stream/offline equivalence, advice, crash recovery."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import registry
from repro.core.identify import find_filecules
from repro.core.incremental import IncrementalFileculeIdentifier
from repro.service.state import (
    ServiceState,
    SnapshotError,
    partition_checksum,
)
from repro.workload.calibration import tiny_config
from repro.workload.generator import generate_trace
from tests.conftest import make_trace


def offline_groups(trace):
    return sorted(tuple(fc.file_ids.tolist()) for fc in find_filecules(trace))


def state_groups(state):
    return sorted(tuple(c["files"]) for c in state.partition()["classes"])


@pytest.fixture(scope="module")
def tiny_trace():
    return generate_trace(tiny_config(), seed=11)


class TestStreamOfflineEquivalence:
    def test_partition_matches_offline_at_every_checkpoint(self, tiny_trace):
        """The service's streamed partition after N jobs equals offline
        find_filecules on the same N-job prefix (acceptance criterion)."""
        state = ServiceState()
        checkpoints = sorted(
            {1, 7, tiny_trace.n_jobs // 3, tiny_trace.n_jobs}
        )
        for job_id, files in tiny_trace.iter_jobs():
            state.ingest([int(f) for f in files])
            if job_id + 1 in checkpoints:
                prefix = tiny_trace.subset_jobs(
                    np.arange(tiny_trace.n_jobs) < job_id + 1
                )
                assert state_groups(state) == offline_groups(prefix)

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(
            st.lists(st.integers(0, 12), min_size=0, max_size=6),
            min_size=1,
            max_size=25,
        )
    )
    def test_property_random_streams(self, jobs):
        state = ServiceState()
        for files in jobs:
            state.ingest(files)
        trace = make_trace([sorted(set(f)) for f in jobs], n_files=13)
        assert state_groups(state) == offline_groups(trace)
        assert state.partition()["checksum"] == partition_checksum(
            offline_groups(trace)
        )

    def test_checksum_ignores_request_counts_but_not_grouping(self):
        assert partition_checksum([[1, 2], [3]]) == partition_checksum(
            [(3,), (2, 1)]
        )
        assert partition_checksum([[1, 2], [3]]) != partition_checksum(
            [[1], [2, 3]]
        )


class TestAdvise:
    def test_hit_fetch_bypass_and_prefetch(self):
        state = ServiceState(policy="lru", capacity_bytes=100)
        # filecule {1,2} (2 jobs), filecule {3} — and 3 is huge
        state.ingest([1, 2], sizes=[10, 10])
        state.ingest([1, 2, 3], sizes=[10, 10, 500])

        plan = state.advise([1], site=0)
        by_class = {tuple(e["files"]): e for e in plan["plan"]}
        entry = by_class[(1,)]
        assert entry["action"] == "hit"  # ingest warmed the site-0 model
        assert entry["prefetch"] == [2]  # co-access prediction

        # same files at a cold site: fetch the whole filecule
        cold = state.advise([1], site=9)
        assert cold["plan"][0]["action"] == "fetch"
        assert cold["plan"][0]["bytes"] == 20
        assert cold["fetch_bytes"] == 20
        assert cold["prefetch_files"] == 1

        # file 3's filecule exceeds capacity: bypass
        over = state.advise([3], site=9)
        assert over["plan"][0]["action"] == "bypass"

    def test_unknown_files_form_provisional_group(self):
        state = ServiceState(capacity_bytes=100)
        plan = state.advise([41, 42], site=0)
        assert plan["plan"][0]["class_id"] is None
        assert plan["plan"][0]["files"] == [41, 42]
        assert plan["plan"][0]["action"] == "fetch"

    def test_advise_is_read_only(self, tiny_trace):
        state = ServiceState()
        for _, files in tiny_trace.iter_jobs():
            state.ingest([int(f) for f in files])
        before = state.partition()
        state.advise([0, 1, 2], site=3)
        assert state.partition() == before
        assert "3" not in state.stats()["sites"]  # no advisor materialized

    def test_ingest_models_site_cache(self):
        state = ServiceState(policy="lru", capacity_bytes=1000)
        state.ingest([1, 2], sizes=[10, 10], site=0)
        receipt = state.ingest([1, 2], sizes=[10, 10], site=0)
        assert receipt["site_hits"] == 2
        stats = state.stats()
        assert stats["sites"]["0"]["requests"] == 4
        assert stats["sites"]["0"]["hits"] == 2
        assert stats["sites"]["0"]["used_bytes"] == 20


class TestStatsAndConfig:
    def test_stats_shape(self, tiny_trace):
        state = ServiceState()
        for _, files in tiny_trace.iter_jobs():
            state.ingest([int(f) for f in files])
        stats = state.stats()
        assert stats["jobs_observed"] == tiny_trace.n_jobs
        assert stats["n_classes"] == len(find_filecules(tiny_trace))
        assert len(stats["top_filecules"]) == min(10, stats["n_classes"])
        requests = [fc["requests"] for fc in stats["top_filecules"]]
        assert requests == sorted(requests, reverse=True)

    def test_every_registered_policy_constructs_and_serves(self):
        for name in registry.service_policy_names():
            state = ServiceState(policy=name, capacity_bytes=100)
            state.ingest([1, 2, 3], sizes=[5, 5, 5])
            plan = state.advise([1])
            assert plan["plan"], name

    def test_bad_config_rejected(self):
        with pytest.raises(ValueError, match="unknown policy"):
            ServiceState(policy="clairvoyant")
        with pytest.raises(ValueError, match="capacity"):
            ServiceState(capacity_bytes=0)
        with pytest.raises(ValueError, match="default_size"):
            ServiceState(default_size=0)


class TestSnapshotRestore:
    def _drive(self, state, trace, upto):
        for job_id, files in trace.iter_jobs():
            if job_id >= upto:
                break
            file_list = [int(f) for f in files]
            state.ingest(
                file_list, sizes=[int(trace.file_sizes[f]) for f in file_list]
            )

    def test_crash_recovery_mid_stream(self, tiny_trace, tmp_path):
        """Snapshot mid-stream, 'crash', restore, replay the rest: the
        final partition equals the uninterrupted run's, exactly."""
        half = tiny_trace.n_jobs // 2
        interrupted = ServiceState()
        self._drive(interrupted, tiny_trace, half)
        receipt = interrupted.snapshot(tmp_path / "state.jsonl")
        assert receipt["n_jobs"] == half
        del interrupted  # the crash

        resumed = ServiceState.restore(tmp_path / "state.jsonl")
        for job_id, files in tiny_trace.iter_jobs():
            if job_id < half:
                continue
            file_list = [int(f) for f in files]
            resumed.ingest(
                file_list,
                sizes=[int(tiny_trace.file_sizes[f]) for f in file_list],
            )

        uninterrupted = ServiceState()
        self._drive(uninterrupted, tiny_trace, tiny_trace.n_jobs)
        assert state_groups(resumed) == state_groups(uninterrupted)
        assert state_groups(resumed) == offline_groups(tiny_trace)
        # sizes catalog survived too: advise bytes agree
        assert (
            resumed.advise([0, 1])["fetch_bytes"]
            == uninterrupted.advise([0, 1])["fetch_bytes"]
        )

    def test_restore_preserves_config_and_counters(self, tmp_path):
        state = ServiceState(policy="gds", capacity_bytes=12345, default_size=7)
        state.ingest([1, 2], sizes=[3, 4])
        state.snapshot(tmp_path / "s.jsonl")
        restored = ServiceState.restore(tmp_path / "s.jsonl")
        assert restored.policy_name == "gds"
        assert restored.capacity_bytes == 12345
        assert restored.default_size == 7
        assert restored.stats()["jobs_observed"] == 1
        # advisors are soft state: rebuilt cold
        assert restored.stats()["sites"] == {}

    def test_snapshot_is_jsonl(self, tmp_path):
        state = ServiceState()
        state.ingest([1, 2])
        state.snapshot(tmp_path / "s.jsonl")
        lines = (tmp_path / "s.jsonl").read_text().splitlines()
        records = [json.loads(line) for line in lines]
        assert records[0]["type"] == "meta"
        assert any(r["type"] == "class" for r in records)

    def test_restore_rejects_garbage(self, tmp_path):
        missing = tmp_path / "nope.jsonl"
        with pytest.raises(SnapshotError, match="cannot read"):
            ServiceState.restore(missing)

        bad = tmp_path / "bad.jsonl"
        bad.write_text("{not json\n")
        with pytest.raises(SnapshotError, match="invalid JSON"):
            ServiceState.restore(bad)

        wrong = tmp_path / "wrong.jsonl"
        wrong.write_text('{"type": "meta", "format": "other"}\n')
        with pytest.raises(SnapshotError, match="not a repro-service-snapshot"):
            ServiceState.restore(wrong)

        corrupt = tmp_path / "corrupt.jsonl"
        state = ServiceState()
        state.ingest([1, 2])
        state.snapshot(corrupt)
        lines = corrupt.read_text().splitlines()
        class_line = next(l for l in lines if '"class"' in l)
        corrupt.write_text("\n".join(lines + [class_line]) + "\n")
        with pytest.raises(SnapshotError, match="corrupt partition"):
            ServiceState.restore(corrupt)


class TestIncrementalStateDict:
    def test_roundtrip_through_json(self, tiny_trace):
        ident = IncrementalFileculeIdentifier()
        ident.observe_trace(tiny_trace)
        payload = json.dumps(ident.state_dict())
        clone = IncrementalFileculeIdentifier.from_state_dict(json.loads(payload))
        assert clone.n_jobs_observed == ident.n_jobs_observed
        assert sorted(map(sorted, clone.classes())) == sorted(
            map(sorted, ident.classes())
        )
        for cid in ident.class_ids():
            assert clone.requests_of_class(cid) == ident.requests_of_class(cid)

    def test_validation(self):
        ident = IncrementalFileculeIdentifier()
        ident.observe_job([1, 2])
        state = ident.state_dict()
        state["classes"][0]["id"] = 99  # beyond next_class
        with pytest.raises(ValueError, match="next_class"):
            IncrementalFileculeIdentifier.from_state_dict(state)


class TestFileculeOfJson:
    """The memoized read path serves exactly what filecule_of returns."""

    def _dumps(self, obj):
        return json.dumps(obj, separators=(",", ":")).encode()

    def test_matches_dict_api(self):
        state = ServiceState()
        state.ingest([1, 2, 3], sizes=[10, 20, 30])
        state.ingest([2, 3])
        for f in (1, 2, 3):
            assert state.filecule_of_json(f) == self._dumps(
                state.filecule_of(f)
            )

    def test_unknown_file(self):
        state = ServiceState()
        assert state.filecule_of_json(99) == self._dumps(
            {"file": 99, "filecule": None}
        )

    def test_cache_invalidated_by_split(self):
        state = ServiceState()
        state.ingest([1, 2, 3])
        before = state.filecule_of_json(2)
        state.ingest([2, 3])  # splits {1,2,3} -> {1} and {2,3}
        after = state.filecule_of_json(2)
        assert before != after
        assert after == self._dumps(state.filecule_of(2))
        # the shrunken parent class also re-renders
        assert state.filecule_of_json(1) == self._dumps(state.filecule_of(1))

    def test_cache_invalidated_by_request_count(self):
        state = ServiceState()
        state.ingest([1, 2])
        first = state.filecule_of_json(1)
        state.ingest([1, 2])  # same class touched again: requests += 1
        second = state.filecule_of_json(1)
        assert first != second
        assert b'"requests":2' in second

    def test_cache_reused_between_ingests_of_other_classes(self):
        state = ServiceState()
        state.ingest([1, 2])
        state.filecule_of_json(1)
        cached = state._filecule_json.copy()
        state.ingest([10, 11])  # disjoint class: no invalidation
        assert all(state._filecule_json[k] == v for k, v in cached.items())
