"""Shared benchmark fixtures.

Each benchmark regenerates one of the paper's tables/figures against the
shared default-scale workload (5% of DZero scale, seed 7 — the same
context `python -m repro.experiments all` uses), times it, prints the
rendered rows, and archives them under ``benchmarks/output/``.

The scale is fixed: the experiments' calibration checks are tuned to
the default workload, and ``run_and_report`` asserts every check.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.experiments.base import get_context, run_experiment

OUTPUT_DIR = Path(__file__).parent / "output"


@pytest.fixture(scope="session")
def ctx():
    return get_context("default")


@pytest.fixture(scope="session")
def archive():
    OUTPUT_DIR.mkdir(exist_ok=True)

    def save(experiment_id: str, text: str) -> None:
        (OUTPUT_DIR / f"{experiment_id}.txt").write_text(text + "\n")

    return save


def run_and_report(benchmark, ctx, archive, experiment_id: str):
    """Benchmark one experiment once and emit its table/figure."""
    result = benchmark.pedantic(
        lambda: run_experiment(experiment_id, ctx), rounds=1, iterations=1
    )
    rendered = result.render()
    print()
    print(rendered)
    archive(experiment_id, rendered)
    assert result.rows, f"{experiment_id} produced no rows"
    failing = [name for name, ok in result.checks.items() if not ok]
    assert not failing, f"{experiment_id}: failing checks {failing}"
    return result
