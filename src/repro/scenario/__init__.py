"""Composable, seed-deterministic workload scenarios.

The paper studies one stationary 27-month workload; this package turns
that single world into a family of perturbed ones — dataset popularity
drift, reprocessing phase shifts, flash crowds, site outages and scan
floods — so identification and caching can be stress-tested where
filecule structure is *not* a fixed point (see ``docs/SCENARIOS.md``).

Three public surfaces:

* **specs** — ``"name?param=value"`` wire strings (the format of
  :mod:`repro.util.specs`, shared with :mod:`repro.registry`) parsed by
  :func:`parse_scenario`, stacked with ``+`` / :func:`compose` into a
  :class:`Composition`;
* **offline** — ``composition.apply(trace, seed)`` rewrites a trace;
* **streaming** — :func:`scenario_job_stream` feeds the transformed
  world to the service load generator as lazy job events.

Determinism: the same composition string and seed produce bit-identical
traces (property-tested); each transform owns an independent
:func:`~repro.util.rng.stable_seed`-derived stream.
"""

from repro.scenario.compose import Composition, compose, parse_composition
from repro.scenario.spec import (
    ScenarioSpec,
    ScenarioSpecError,
    TransformSpec,
    UnknownScenarioError,
    bound_params,
    get_transform,
    injection_window,
    list_transforms,
    parse_scenario,
    register_scenario,
    scenario_names,
)
from repro.scenario.stream import scenario_job_stream

# Import the catalog for its registration side effects.
from repro.scenario import transforms  # noqa: F401  (registration import)

__all__ = [
    "Composition",
    "ScenarioSpec",
    "ScenarioSpecError",
    "TransformSpec",
    "UnknownScenarioError",
    "bound_params",
    "compose",
    "get_transform",
    "injection_window",
    "list_transforms",
    "parse_composition",
    "parse_scenario",
    "register_scenario",
    "scenario_job_stream",
    "scenario_names",
]
