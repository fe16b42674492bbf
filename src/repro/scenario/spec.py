"""Scenario-spec data model: declarative, picklable workload transforms.

A :class:`TransformSpec` describes one registered scenario transform —
its canonical name, the transform function, and the tunable parameters
with their defaults.  A :class:`ScenarioSpec` is the *picklable
selection* of one: canonical name plus explicit parameter overrides,
with the URL-query-ish ``"name?param=value&other=value"`` wire format
of :mod:`repro.util.specs`, which :mod:`repro.registry` policy specs use
too, and its canonicalizer guarantee: ``parse_scenario(str(spec)) ==
spec`` for every representable spec (property-tested).  Transforms stack
with ``+``: ``"popularity-drift?strength=0.8+flash-crowd?boost=0.5"``
parses into a :class:`~repro.scenario.compose.Composition` applied left
to right.

Each default's Python type drives string-value coercion, booleans
accept ``1/true/yes/on`` and ``0/false/no/off``, floats must be finite,
and unknown parameters are rejected at parse time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Callable, Mapping

from repro.util.specs import Catalog, Selection


class UnknownScenarioError(ValueError):
    """No registered transform matches the requested scenario name."""


class ScenarioSpecError(ValueError):
    """A scenario spec string or parameter set is malformed."""


@dataclass(frozen=True)
class TransformSpec:
    """Declarative description of one registered scenario transform.

    ``fn`` is called as ``fn(trace, rng, **params)`` and must return a
    new :class:`~repro.traces.trace.Trace`; ``rng`` is a seeded
    :class:`numpy.random.Generator` owned exclusively by this transform
    application.  ``defaults`` is the complete parameter schema.
    """

    name: str
    fn: Callable = field(repr=False)
    summary: str = ""
    defaults: Mapping[str, object] = field(default_factory=dict)
    aliases: tuple[str, ...] = ()
    #: Optional ``params -> (lo, hi) | None`` callable giving the
    #: transform's injection window as run-time fractions — the ground
    #: truth the detection experiment scores detectors against.  ``None``
    #: (the callable, or its return) means "no anomalous window".
    window: Callable | None = field(default=None, repr=False, compare=False)


@dataclass(frozen=True)
class ScenarioSpec(Selection):
    """A picklable (name, explicit-params) scenario selection.

    ``params`` holds only the caller's overrides (sorted by key);
    defaults stay implicit so two ways of spelling the same choice
    compare equal and render the same string.
    """


_CATALOG: Catalog[TransformSpec, ScenarioSpec] = Catalog(
    kind="scenario",
    plural="scenarios",
    selection=ScenarioSpec,
    unknown_error=UnknownScenarioError,
    spec_error=ScenarioSpecError,
)


def register_scenario(
    name: str,
    *,
    summary: str = "",
    defaults: Mapping[str, object] | None = None,
    aliases: tuple[str, ...] = (),
    window: Callable | None = None,
) -> Callable[[Callable], Callable]:
    """Decorator registering a transform function under ``name``."""

    def deco(fn: Callable) -> Callable:
        _CATALOG.register(
            TransformSpec(
                name=name,
                fn=fn,
                summary=summary,
                defaults=dict(defaults or {}),
                aliases=tuple(aliases),
                window=window,
            )
        )
        return fn

    return deco


def list_transforms() -> list[TransformSpec]:
    """Every registered transform spec, sorted by canonical name."""
    return _CATALOG.entries()


def scenario_names(*, include_aliases: bool = False) -> list[str]:
    return _CATALOG.names(include_aliases=include_aliases)


def get_transform(name: str) -> TransformSpec:
    """Look a transform up by canonical name or alias."""
    return _CATALOG.get(name)


def parse_scenario(text: str | ScenarioSpec) -> ScenarioSpec:
    """Parse ``"name?param=value&..."`` into a canonical :class:`ScenarioSpec`.

    Aliases resolve to the canonical name, parameter values are coerced
    to the type of the transform's default, and parameters are sorted —
    so ``parse_scenario`` is a canonicalizer and
    ``parse_scenario(str(spec)) == spec`` holds for every parseable
    spec, matching the :mod:`repro.registry` convention.
    """
    if isinstance(text, str) and "+" in text:
        raise ScenarioSpecError(
            f"{text!r} is a composition; parse it with parse_composition"
        )
    return _CATALOG.parse(text)


def bound_params(spec: ScenarioSpec) -> dict[str, object]:
    """The spec's full parameter dict: registered defaults + overrides."""
    return _CATALOG.bound_params(spec)


def injection_window(spec) -> tuple[float, float] | None:
    """The spec's anomaly window as clipped run-time fractions.

    Accepts a spec string, a :class:`ScenarioSpec`, or a composition
    (anything with a ``specs`` tuple); a composition's window is the
    convex hull of its members' windows.  ``None`` means the scenario is
    stationary — no ground-truth window for detectors to hit.
    """
    specs = getattr(spec, "specs", None)
    if specs is not None:
        windows = [w for w in map(injection_window, specs) if w is not None]
        if not windows:
            return None
        return (min(w[0] for w in windows), max(w[1] for w in windows))
    parsed = parse_scenario(spec)
    transform = get_transform(parsed.name)
    if transform.window is None:
        return None
    window = transform.window(bound_params(parsed))
    if window is None:
        return None
    lo, hi = window
    lo = min(max(float(lo), 0.0), 1.0)
    hi = min(max(float(hi), 0.0), 1.0)
    return (lo, hi) if hi > lo else None
