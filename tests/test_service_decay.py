"""Decay-aware service state: ``--decay-half-life`` wiring, dissolution
through ingest, and decay-preserving snapshot/restore."""

from __future__ import annotations

import json
import math

from repro.service.state import ServiceState


def weld_then_quiet(state):
    """Crowd welds {0,1,2}; 200 unrelated jobs let the weld go stale."""
    for _ in range(3):
        state.ingest([0, 1, 2], sizes=[10, 10, 10])
    for _ in range(200):
        state.ingest([7, 8], sizes=[5, 5])
    return [tuple(c["files"]) for c in state.partition()["classes"]]


class TestDecayedIngest:
    def test_stale_filecule_dissolves(self):
        groups = weld_then_quiet(ServiceState(decay_half_life=5.0))
        assert (0, 1, 2) not in groups
        assert {(0,), (1,), (2,)} <= set(groups)
        assert (7, 8) in groups

    def test_default_keeps_append_only_semantics(self):
        groups = weld_then_quiet(ServiceState())
        assert (0, 1, 2) in groups

    def test_lookup_cache_invalidated_on_dissolution(self):
        state = ServiceState(decay_half_life=5.0)
        state.ingest([0, 1, 2], sizes=[10, 10, 10])
        cached = json.loads(state.filecule_of_json(0))
        assert cached["filecule"]["n_files"] == 3
        for _ in range(200):
            state.ingest([7, 8], sizes=[5, 5])
        fresh = json.loads(state.filecule_of_json(0))
        assert fresh["filecule"]["files"] == [0]


class TestDecaySnapshots:
    def test_restore_preserves_decay_and_continues_identically(self, tmp_path):
        state = ServiceState(decay_half_life=5.0)
        for _ in range(3):
            state.ingest([0, 1, 2], sizes=[10, 10, 10])
        path = tmp_path / "snap.jsonl"
        state.snapshot(path)

        restored = ServiceState.restore(path)
        assert isinstance(restored, ServiceState)
        assert restored.decay_half_life == 5.0
        assert restored.partition() == state.partition()
        # Restore-and-continue equals never-restarted, through the
        # dissolution the quiet stream triggers.
        for s in (state, restored):
            for _ in range(200):
                s.ingest([7, 8], sizes=[5, 5])
        assert restored.partition() == state.partition()

    def test_inf_snapshot_has_no_decay_fields(self, tmp_path):
        state = ServiceState()
        state.ingest([1, 2, 3])
        path = tmp_path / "snap.jsonl"
        state.snapshot(path)
        meta = json.loads(path.read_text().splitlines()[0])
        assert "decay_half_life" not in meta
        restored = ServiceState.restore(path)
        assert restored.decay_half_life == math.inf
