"""Declarative, capability-tagged policy registry.

Every replacement policy in the repository is registered here as a
:class:`PolicySpec` — name, factory, parameter defaults, and capability
flags (``needs_filecules``, ``needs_trace``, ``is_offline_optimal``) —
so policy selection is *data*, not code:

* experiment drivers declare policy tables as tuples of spec strings;
* ``sweep(jobs=N)`` and hierarchy sweeps name their cells by the same
  canonical strings;
* ``repro-serve --advisor-policy <spec>`` configures the online
  service's per-site cache advisors from the same names;
* ``repro-experiments list-policies`` prints the whole catalog.

Spec strings use the URL-query-ish syntax of :mod:`repro.util.specs`,
which :mod:`repro.scenario` shares::

    >>> from repro import registry
    >>> bound = registry.parse("filecule-lru?intra_job_hits=false")
    >>> str(bound)
    'filecule-lru?intra_job_hits=false'
    >>> registry.parse(str(bound)) == bound
    True

and :func:`build` turns one into a live policy instance, given the
shared resources its flags demand::

    policy = registry.build("filecule-lru", capacity, partition=partition)

Replication *placement* strategies (``is_placement`` specs, registered
lazily by :mod:`repro.replication`) share the same namespace and wire
format but are listed by :func:`placement_names` and built by
:func:`build_placement` — so experiment drivers declare replication
strategy tables as spec strings exactly like policy tables::

    strategy = registry.build_placement("filecule-rank")

See ``docs/ARCHITECTURE.md`` for where the registry sits in the layer
map and why it is the only module that pairs policy classes with
construction recipes.
"""

from repro.registry.spec import (
    FLAG_NAMES,
    BoundSpec,
    PolicyResourceError,
    PolicySpec,
    PolicySpecError,
    UnknownPolicyError,
    build,
    build_placement,
    get_spec,
    list_placement_specs,
    list_specs,
    parse,
    placement_names,
    policy_names,
    register_placement,
    register_policy,
    service_policy_names,
)

# Importing the builtin table populates the registry as a side effect.
from repro.registry import builtin as _builtin  # noqa: F401  (registration)

__all__ = [
    "FLAG_NAMES",
    "BoundSpec",
    "PolicyResourceError",
    "PolicySpec",
    "PolicySpecError",
    "UnknownPolicyError",
    "build",
    "build_placement",
    "get_spec",
    "list_placement_specs",
    "list_specs",
    "parse",
    "placement_names",
    "policy_names",
    "register_placement",
    "register_policy",
    "service_policy_names",
]
