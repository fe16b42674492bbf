"""Experiment registry, shared context and result type."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from collections.abc import Callable

from repro.core.filecule import FileculePartition
from repro.core.identify import find_filecules
from repro.traces.trace import Trace
from repro.util.tables import render_table
from repro.workload import calibration
from repro.workload.generator import generate_trace
from repro.workload.store import cached_trace

#: The fixed seed behind every number in EXPERIMENTS.md.
EXPERIMENT_SEED: int = 7

#: The ``--scale`` presets of the experiments: the workload's, and the
#: paper workload grown 10x.
SCALES = {**calibration.SCALES, "grown": calibration.grown_config}

#: Scales expensive enough to generate that their traces go through the
#: on-disk artifact store (:mod:`repro.workload.store`) instead of being
#: regenerated per process.
_STORE_BACKED = frozenset({"paper", "grown"})


@dataclass(frozen=True)
class ExperimentContext:
    """The workload every experiment runs against.

    ``jobs`` is the worker-process count for the sweep-backed
    experiments (``fig10``, ``null_model``, ``robustness`` and the
    ablations): 1 replays serially, N > 1 fans the (policy, capacity)
    grid out through :mod:`repro.parallel` with results guaranteed
    identical to serial.
    """

    scale: str
    seed: int
    trace: Trace
    partition: FileculePartition
    jobs: int = 1


@lru_cache(maxsize=4)
def get_context(
    scale: str = "default",
    seed: int = EXPERIMENT_SEED,
    jobs: int = 1,
) -> ExperimentContext:
    """Build (once per scale/seed) the shared trace and partition."""
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    try:
        config = SCALES[scale]()
    except KeyError:
        raise ValueError(
            f"unknown scale {scale!r}; choose from {sorted(SCALES)}"
        ) from None
    if scale in _STORE_BACKED:
        trace = cached_trace(config, seed=seed)
    else:
        trace = generate_trace(config, seed=seed)
    return ExperimentContext(
        scale=scale,
        seed=seed,
        trace=trace,
        partition=find_filecules(trace),
        jobs=jobs,
    )


@dataclass(frozen=True)
class ExperimentResult:
    """Everything an experiment reports.

    ``rows``/``headers`` hold the table (or figure series) data;
    ``figure_text`` an optional ASCII rendering; ``notes`` the
    paper-vs-measured comparison lines that EXPERIMENTS.md collects.
    ``checks`` maps named qualitative assertions (e.g. "filecule-LRU wins
    at every capacity") to booleans — the integration tests require all
    of them to hold.
    """

    experiment_id: str
    title: str
    headers: tuple[str, ...]
    rows: tuple[tuple, ...]
    figure_text: str = ""
    notes: tuple[str, ...] = ()
    checks: dict[str, bool] = field(default_factory=dict)

    def render(self) -> str:
        parts = [f"== {self.experiment_id}: {self.title} =="]
        if self.rows:
            parts.append(render_table(self.headers, self.rows))
        if self.figure_text:
            parts.append(self.figure_text)
        if self.notes:
            parts.append("notes:")
            parts.extend(f"  - {n}" for n in self.notes)
        if self.checks:
            parts.append("checks:")
            parts.extend(
                f"  [{'PASS' if ok else 'FAIL'}] {name}"
                for name, ok in self.checks.items()
            )
        return "\n".join(parts)

    @property
    def all_checks_pass(self) -> bool:
        return all(self.checks.values())


Runner = Callable[[ExperimentContext], ExperimentResult]

_REGISTRY: dict[str, Runner] = {}


def register(experiment_id: str) -> Callable[[Runner], Runner]:
    """Class the decorated ``run`` function under ``experiment_id``."""

    def deco(fn: Runner) -> Runner:
        if experiment_id in _REGISTRY:
            raise ValueError(f"duplicate experiment id {experiment_id!r}")
        _REGISTRY[experiment_id] = fn
        return fn

    return deco


def all_experiment_ids() -> list[str]:
    return sorted(_REGISTRY)


def get_experiment(experiment_id: str) -> Runner:
    try:
        return _REGISTRY[experiment_id]
    except KeyError:
        raise KeyError(
            f"unknown experiment {experiment_id!r}; "
            f"known: {', '.join(sorted(_REGISTRY))}"
        ) from None


def run_experiment(
    experiment_id: str, ctx: ExperimentContext | None = None
) -> ExperimentResult:
    """Run one experiment against the shared (or a custom) context."""
    runner = get_experiment(experiment_id)
    return runner(ctx or get_context())
