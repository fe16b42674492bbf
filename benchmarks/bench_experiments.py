"""Benchmark: regenerate every registered experiment — each paper table
and figure and each extension — as one timed, archived run per id.

Run them all with ``pytest benchmarks/bench_experiments.py
--benchmark-only -s``, or one by its node id, e.g.
``pytest "benchmarks/bench_experiments.py::test_experiment[fig10]"
--benchmark-only -s``.  The ``detection`` run's wall clock is dominated
by its paced live replays (a fixed number of seconds per scenario), not
by computation.
"""

import pytest

from benchmarks.conftest import run_and_report
from repro.experiments.base import all_experiment_ids


@pytest.mark.parametrize("experiment_id", all_experiment_ids())
def test_experiment(benchmark, ctx, archive, experiment_id):
    run_and_report(benchmark, ctx, archive, experiment_id)
