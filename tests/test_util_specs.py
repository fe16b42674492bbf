"""The shared spec wire format (:mod:`repro.util.specs`): what has no
spelling, duplicate names and aliases, and the catalog's lazy loader.

Parsing, coercion and the ``parse(str(spec)) == spec`` round trip are
property-tested through the two catalogs that use this module, in
``test_registry.py`` and ``test_scenario_spec.py``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import pytest

from repro.util.specs import Catalog, Selection, coerce_value, render_value


@dataclass(frozen=True)
class _Entry:
    name: str
    defaults: dict = field(default_factory=dict)
    aliases: tuple[str, ...] = ()


class _UnknownThing(ValueError):
    pass


class _BadThing(ValueError):
    pass


def _catalog(loader=None) -> Catalog:
    return Catalog(
        kind="thing",
        plural="things",
        selection=Selection,
        unknown_error=_UnknownThing,
        spec_error=_BadThing,
        loader=loader,
    )


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_non_finite_float_has_no_spelling(value):
    with pytest.raises(ValueError, match="not a finite number"):
        render_value(value)
    with pytest.raises(ValueError, match="not a finite number"):
        str(Selection("thing", (("x", value),)))
    with pytest.raises(ValueError, match="not a finite number"):
        coerce_value(0.5, repr(value))


def test_duplicate_name_or_alias_refused():
    catalog = _catalog()
    catalog.register(_Entry("a", aliases=("b",)))
    with pytest.raises(ValueError, match="duplicate thing name 'a'"):
        catalog.register(_Entry("a"))
    with pytest.raises(ValueError, match="duplicate thing name 'b'"):
        catalog.register(_Entry("b"))
    with pytest.raises(ValueError, match="duplicate thing alias 'a'"):
        catalog.register(_Entry("c", aliases=("a",)))


def test_loader_runs_once_on_first_miss():
    calls = []

    def loader():
        calls.append(1)
        catalog.register(_Entry("late", aliases=("l",)))

    catalog = _catalog(loader)
    catalog.register(_Entry("early"))
    assert catalog.get("early").name == "early"
    assert not calls
    assert catalog.parse("l") == Selection("late")
    with pytest.raises(_UnknownThing, match="known things: early, l, late"):
        catalog.get("never")
    assert calls == [1]
