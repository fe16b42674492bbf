"""Policy-spec data model and the registry's lookup/parse/build core.

A :class:`PolicySpec` describes one replacement policy *declaratively*:
its canonical name, a factory, the tunable parameters with their
defaults, and capability flags saying which shared resources the factory
needs (``needs_filecules`` → a :class:`~repro.core.filecule.FileculePartition`,
``needs_trace`` → the replayed :class:`~repro.traces.trace.Trace`) or
whether it is a clairvoyant offline bound (``is_offline_optimal``).

A :class:`BoundSpec` is the *picklable selection* of a spec: canonical
name plus explicit parameter overrides.  Its string form is the
URL-query-ish ``"name?param=value&other=value"`` syntax accepted
everywhere a policy can be chosen (``repro-serve --advisor-policy``,
``sweep`` policy tables, parallel worker dispatch), and
``parse(str(bound)) == bound`` is guaranteed (and property-tested): the
string is the canonical wire format that crosses process boundaries.
The format itself — rendering, coercion, aliases, parsing and default
merging — is :mod:`repro.util.specs`, shared with scenario specs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Callable, Mapping

from repro.cache.base import ReplacementPolicy
from repro.util.specs import Catalog, Selection

#: Ordered capability-flag names, as exposed by :attr:`PolicySpec.flags`.
#: New flags are appended, never reordered — consumers index by name but
#: serialized flag tuples must stay stable across versions.
FLAG_NAMES = (
    "needs_filecules",
    "needs_trace",
    "is_offline_optimal",
    "supports_batch",
    "is_placement",
    "needs_hierarchy",
)


class UnknownPolicyError(ValueError):
    """No registered spec matches the requested policy name."""


class PolicySpecError(ValueError):
    """A spec string or parameter set is malformed for its policy."""


class PolicyResourceError(ValueError):
    """A policy needs a resource (trace/partition) the caller didn't pass."""


@dataclass(frozen=True)
class PolicySpec:
    """Declarative description of one registered replacement policy.

    ``factory`` is called as ``factory(capacity, trace=..., partition=...,
    **params)`` and must return a fresh
    :class:`~repro.cache.base.ReplacementPolicy`.  ``defaults`` is the
    complete parameter schema: a parameter unknown to ``defaults`` is
    rejected at parse/build time, and each default's Python type drives
    the string-value coercion in :func:`parse`.

    Specs with ``is_placement=True`` describe *replication placement*
    strategies instead of cache policies: their factory is called as
    ``factory(**params)`` (plus ``hierarchy=...`` when
    ``needs_hierarchy``) and returns a
    :class:`repro.replication.ReplicationStrategy`.  They share the
    parse/canonicalize machinery but build through
    :func:`build_placement`, never :func:`build`.
    """

    name: str
    factory: Callable[..., ReplacementPolicy] = field(repr=False)
    summary: str = ""
    defaults: Mapping[str, object] = field(default_factory=dict)
    needs_filecules: bool = False
    needs_trace: bool = False
    is_offline_optimal: bool = False
    supports_batch: bool = False
    is_placement: bool = False
    needs_hierarchy: bool = False
    aliases: tuple[str, ...] = ()

    @property
    def flags(self) -> tuple[str, ...]:
        """The active capability-flag names, in :data:`FLAG_NAMES` order."""
        return tuple(f for f in FLAG_NAMES if getattr(self, f))


@dataclass(frozen=True)
class BoundSpec(Selection):
    """A picklable (name, explicit-params) policy or placement selection.

    ``params`` holds only the caller's overrides (sorted by key);
    defaults stay implicit so two ways of spelling the same choice
    compare equal and render the same string.
    """


def _ensure_placements() -> None:
    """Load the placement spec table (registered by ``repro.replication``).

    Lazy upward import, same sanctioned pattern as the engine's registry
    upcall: the placement *implementations* live in the replication
    layer above this one, so the registry pulls them in only when a
    placement name is actually asked for — importing ``repro.registry``
    alone never drags in the replication stack.  The catalog runs it at
    most once: on the first lookup of an unregistered name, or from the
    placement listings.
    """
    import repro.replication  # noqa: F401  (registration side effect)


#: Policies and placements share one namespace and one wire format.
_CATALOG: Catalog[PolicySpec, BoundSpec] = Catalog(
    kind="policy",
    plural="specs",
    selection=BoundSpec,
    unknown_error=UnknownPolicyError,
    spec_error=PolicySpecError,
    loader=_ensure_placements,
)


def _register(
    name: str,
    *,
    defaults: Mapping[str, object] | None,
    aliases: tuple[str, ...],
    **fields,
) -> Callable:
    def deco(factory: Callable):
        _CATALOG.register(
            PolicySpec(
                name=name,
                factory=factory,
                defaults=dict(defaults or {}),
                aliases=tuple(aliases),
                **fields,
            )
        )
        return factory

    return deco


def register_policy(
    name: str,
    *,
    summary: str = "",
    defaults: Mapping[str, object] | None = None,
    needs_filecules: bool = False,
    needs_trace: bool = False,
    is_offline_optimal: bool = False,
    supports_batch: bool = False,
    aliases: tuple[str, ...] = (),
) -> Callable[[Callable[..., ReplacementPolicy]], Callable[..., ReplacementPolicy]]:
    """Decorator registering ``factory`` under ``name`` (plus aliases)."""
    return _register(
        name,
        summary=summary,
        defaults=defaults,
        aliases=aliases,
        needs_filecules=needs_filecules,
        needs_trace=needs_trace,
        is_offline_optimal=is_offline_optimal,
        supports_batch=supports_batch,
    )


def register_placement(
    name: str,
    *,
    summary: str = "",
    defaults: Mapping[str, object] | None = None,
    needs_hierarchy: bool = False,
    aliases: tuple[str, ...] = (),
) -> Callable:
    """Decorator registering a replication *placement* strategy factory.

    Placements share the registry's namespace, parse/canonicalize
    machinery and wire format with cache policies, but are kept out of
    :func:`policy_names` / :func:`list_specs` (a placement can never
    replay a cache) and build through :func:`build_placement`.
    ``needs_hierarchy`` marks factories that must be handed a
    :class:`repro.hierarchy.HierarchySpec` to place against.
    """
    return _register(
        name,
        summary=summary,
        defaults=defaults,
        aliases=aliases,
        is_placement=True,
        needs_hierarchy=needs_hierarchy,
    )


def list_specs() -> list[PolicySpec]:
    """Every registered cache-policy spec, sorted by canonical name."""
    return _CATALOG.entries(lambda spec: not spec.is_placement)


def list_placement_specs() -> list[PolicySpec]:
    """Every registered placement spec, sorted by canonical name."""
    _CATALOG.load()
    return _CATALOG.entries(lambda spec: spec.is_placement)


def policy_names(*, include_aliases: bool = False) -> list[str]:
    return _CATALOG.names(
        include_aliases=include_aliases, where=lambda spec: not spec.is_placement
    )


def placement_names(*, include_aliases: bool = False) -> list[str]:
    """Registered placement names (canonical, optionally with aliases)."""
    _CATALOG.load()
    return _CATALOG.names(
        include_aliases=include_aliases, where=lambda spec: spec.is_placement
    )


def get_spec(name: str) -> PolicySpec:
    """Look a spec up by canonical name or alias (policy or placement)."""
    return _CATALOG.get(name)


def service_policy_names(*, include_aliases: bool = True) -> list[str]:
    """Names usable as online service advisors (no offline resources)."""
    names = []
    for spec in list_specs():
        if spec.needs_filecules or spec.needs_trace:
            continue
        names.append(spec.name)
        if include_aliases:
            names.extend(spec.aliases)
    return sorted(names)


def parse(text: str | BoundSpec) -> BoundSpec:
    """Parse ``"name?param=value&..."`` into a canonical :class:`BoundSpec`.

    Aliases resolve to the canonical name, parameter values are coerced
    to the type of the spec's default, and parameters are sorted — so
    ``parse`` is a canonicalizer and ``parse(str(spec)) == spec`` holds
    for every parseable spec.
    """
    return _CATALOG.parse(text)


def build(
    spec: str | BoundSpec,
    capacity: int,
    *,
    trace=None,
    partition=None,
    **params,
) -> ReplacementPolicy:
    """Construct a fresh policy instance from a spec, by name.

    ``trace``/``partition`` are the shared resources a capability-tagged
    spec may require; explicit ``**params`` override both the spec
    string's parameters and the registered defaults.
    """
    bound = parse(spec)
    policy_spec = get_spec(bound.name)
    if policy_spec.is_placement:
        raise PolicySpecError(
            f"{policy_spec.name!r} is a replication placement, not a "
            f"cache policy; build it with build_placement(...)"
        )
    merged = _CATALOG.bound_params(bound, params)
    if policy_spec.needs_filecules and partition is None:
        raise PolicyResourceError(
            f"policy {policy_spec.name!r} needs a filecule partition; "
            f"pass partition=find_filecules(trace)"
        )
    if policy_spec.needs_trace and trace is None:
        raise PolicyResourceError(
            f"policy {policy_spec.name!r} needs the replayed trace; "
            f"pass trace=..."
        )
    return policy_spec.factory(
        int(capacity), trace=trace, partition=partition, **merged
    )


def build_placement(spec: str | BoundSpec, *, hierarchy=None, **params):
    """Construct a fresh replication placement strategy from a spec.

    The placement counterpart of :func:`build`: resolves the name (or
    alias) through the shared registry, merges parameter overrides, and
    calls the placement factory.  ``hierarchy`` is the shared resource a
    ``needs_hierarchy``-flagged placement requires — a
    :class:`repro.hierarchy.HierarchySpec` or its wire string.  Passing
    a cache-policy name here raises :class:`PolicySpecError` (use
    :func:`build`), mirroring :func:`build`'s guard in the other
    direction.
    """
    bound = parse(spec)
    placement_spec = get_spec(bound.name)
    if not placement_spec.is_placement:
        raise PolicySpecError(
            f"{placement_spec.name!r} is a cache policy, not a "
            f"replication placement; build it with build(...)"
        )
    merged = _CATALOG.bound_params(bound, params)
    if placement_spec.needs_hierarchy:
        if hierarchy is None:
            raise PolicyResourceError(
                f"placement {placement_spec.name!r} needs a hierarchy; "
                f"pass hierarchy='site:lru@10%+origin' or a HierarchySpec"
            )
        return placement_spec.factory(hierarchy=hierarchy, **merged)
    return placement_spec.factory(**merged)
