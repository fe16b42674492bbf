"""The robustness-matrix driver: full policy x scenario coverage,
serial/parallel equivalence and the ``--matrix-json`` artifact."""

from __future__ import annotations

import json
import math

import pytest

from repro import registry
from repro.experiments.base import get_context, run_experiment
from repro.experiments.robustness_matrix import (
    BASELINE,
    DEFAULT_SCENARIOS,
    build_matrix,
    write_matrix_json,
)


@pytest.fixture(scope="module")
def matrix():
    return build_matrix(get_context("tiny", seed=11))


class TestMatrix:
    def test_complete_and_covers_every_policy(self, matrix):
        assert matrix.complete
        assert matrix.policies == tuple(registry.policy_names())
        assert matrix.scenarios == tuple(DEFAULT_SCENARIOS)

    def test_at_least_five_scenarios_beyond_baseline(self, matrix):
        assert matrix.baseline == BASELINE
        assert len([s for s in matrix.scenarios if s != matrix.baseline]) >= 5

    def test_baseline_degradation_is_zero(self, matrix):
        for policy in matrix.policies:
            assert matrix.degradation(matrix.baseline, policy) == 0.0

    def test_cells_are_finite_miss_rates(self, matrix):
        for scenario in matrix.scenarios:
            for policy in matrix.policies:
                value = matrix.score(scenario, policy)
                assert math.isfinite(value)
                assert 0.0 <= value <= 1.0

    def test_serial_equals_parallel(self, matrix, monkeypatch):
        # A tiny grid sits far below the pool's crossover; force the pool
        # so the jobs=2 side really forks.
        monkeypatch.setenv("REPRO_PARALLEL_FORCE", "1")
        parallel = build_matrix(get_context("tiny", seed=11, jobs=2))
        assert matrix.scores == parallel.scores
        assert matrix.capacity_bytes == parallel.capacity_bytes


class TestArtifact:
    def test_matrix_json_round_trips(self, matrix, tmp_path):
        path = write_matrix_json(tmp_path / "matrix.json", matrix)
        data = json.loads(path.read_text())
        assert sorted(data) == [
            "baseline",
            "capacity_bytes",
            "degradation",
            "policies",
            "scenarios",
            "scores",
            "seed",
        ]
        assert data["baseline"] == BASELINE
        assert data["policies"] == list(matrix.policies)
        names = [entry["name"] for entry in data["scenarios"]]
        assert names == list(matrix.scenarios)
        for entry in data["scenarios"]:
            assert entry["composition"] == matrix.compositions[entry["name"]]
        for scenario in names:
            for policy in data["policies"]:
                assert data["scores"][scenario][policy] == matrix.score(
                    scenario, policy
                )
                assert data["degradation"][scenario][policy] == pytest.approx(
                    matrix.degradation(scenario, policy)
                )


class TestDriver:
    def test_all_checks_pass(self):
        result = run_experiment(
            "robustness-matrix", get_context("tiny", seed=11)
        )
        assert result.experiment_id == "robustness-matrix"
        for check, ok in result.checks.items():
            assert ok, check
        assert len(result.rows) == len(registry.policy_names())
