"""Spec-grammar tests for ``repro.scenario``: canonicalization, errors,
composition round-trips — including the hypothesis-tested
``parse_scenario(str(spec)) == spec`` canonicalizer property."""

from __future__ import annotations

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.scenario import (
    Composition,
    ScenarioSpec,
    ScenarioSpecError,
    UnknownScenarioError,
    bound_params,
    compose,
    get_transform,
    list_transforms,
    parse_composition,
    parse_scenario,
    scenario_names,
)

CANONICAL = (
    "flash-crowd",
    "phase-shift",
    "popularity-drift",
    "scan-flood",
    "site-outage",
    "stationary",
)


def _value_strategy(default: object) -> st.SearchStrategy:
    """Values of the default's type (the coercion rule's type driver)."""
    if isinstance(default, bool):
        return st.booleans()
    if isinstance(default, int):
        return st.integers(min_value=-(10**6), max_value=10**6)
    if isinstance(default, float):
        return st.floats(allow_nan=False, allow_infinity=False)
    raise AssertionError(f"unexpected default type: {default!r}")


@st.composite
def scenario_specs(draw) -> ScenarioSpec:
    transform = draw(st.sampled_from(list_transforms()))
    keys = draw(
        st.lists(st.sampled_from(sorted(transform.defaults) or [""]), unique=True)
        if transform.defaults
        else st.just([])
    )
    params = tuple(
        sorted((k, draw(_value_strategy(transform.defaults[k]))) for k in keys)
    )
    return ScenarioSpec(name=transform.name, params=params)


class TestCatalog:
    def test_canonical_names(self):
        assert tuple(scenario_names()) == CANONICAL

    def test_aliases_resolve(self):
        assert get_transform("drift").name == "popularity-drift"
        assert get_transform("reprocessing").name == "phase-shift"
        assert get_transform("crowd").name == "flash-crowd"
        assert get_transform("outage").name == "site-outage"
        assert get_transform("scan").name == "scan-flood"

    def test_names_with_aliases_superset(self):
        with_aliases = scenario_names(include_aliases=True)
        assert set(CANONICAL) < set(with_aliases)
        assert "drift" in with_aliases


class TestParse:
    def test_plain_name(self):
        assert parse_scenario("stationary") == ScenarioSpec("stationary")

    def test_alias_canonicalizes(self):
        spec = parse_scenario("drift?strength=0.25")
        assert spec == ScenarioSpec(
            "popularity-drift", (("strength", 0.25),)
        )
        assert str(spec) == "popularity-drift?strength=0.25"

    def test_param_coercion_types(self):
        spec = parse_scenario("flash-crowd?files=16&boost=0.5")
        params = dict(spec.params)
        assert params["files"] == 16 and isinstance(params["files"], int)
        assert params["boost"] == 0.5 and isinstance(params["boost"], float)

    def test_params_sorted(self):
        a = parse_scenario("flash-crowd?boost=0.5&files=16")
        b = parse_scenario("flash-crowd?files=16&boost=0.5")
        assert a == b

    def test_spec_passthrough_validates(self):
        spec = ScenarioSpec("stationary")
        assert parse_scenario(spec) is spec
        with pytest.raises(UnknownScenarioError):
            parse_scenario(ScenarioSpec("no-such-scenario"))

    def test_unknown_name(self):
        with pytest.raises(UnknownScenarioError, match="known scenarios"):
            parse_scenario("meteor-strike")

    def test_unknown_param(self):
        with pytest.raises(ScenarioSpecError, match="valid parameters"):
            parse_scenario("popularity-drift?speed=2")

    def test_malformed_pair(self):
        with pytest.raises(ScenarioSpecError, match="param=value"):
            parse_scenario("popularity-drift?strength")

    def test_bad_value(self):
        with pytest.raises(ScenarioSpecError, match="bad value"):
            parse_scenario("popularity-drift?strength=lots")

    @pytest.mark.parametrize(
        "text, fragment",
        [
            ("flash-crowd?at=nan", "bad value for flash-crowd?at:"),
            ("flash-crowd?at=-inf", "bad value for flash-crowd?at:"),
            (
                "popularity-drift?strength=inf",
                "bad value for popularity-drift?strength:",
            ),
            ("stationary+crowd?at=nan", "bad value for flash-crowd?at:"),
        ],
    )
    def test_non_finite_float_refused(self, text, fragment):
        with pytest.raises(ScenarioSpecError, match=re.escape(fragment)):
            parse_composition(text)

    def test_composition_string_rejected(self):
        with pytest.raises(ScenarioSpecError, match="parse_composition"):
            parse_scenario("stationary+flash-crowd")

    @settings(max_examples=200)
    @given(spec=scenario_specs())
    def test_parse_str_round_trip(self, spec):
        assert parse_scenario(str(spec)) == spec


class TestBoundParams:
    def test_defaults_plus_overrides(self):
        merged = bound_params(parse_scenario("flash-crowd?boost=0.5"))
        assert merged["boost"] == 0.5
        assert merged["at"] == 0.6  # untouched default

    def test_unknown_override_rejected(self):
        with pytest.raises(ScenarioSpecError, match="valid parameters"):
            bound_params(ScenarioSpec("stationary", (("x", 1),)))


class TestComposition:
    def test_compose_order_preserved(self):
        comp = compose("drift?strength=0.8", "flash-crowd")
        assert isinstance(comp, Composition)
        assert str(comp) == "popularity-drift?strength=0.8+flash-crowd"
        assert len(comp) == 2

    def test_parse_composition_round_trip(self):
        text = "popularity-drift?strength=0.8+flash-crowd?boost=0.5"
        comp = parse_composition(text)
        assert parse_composition(str(comp)) == comp

    def test_single_member(self):
        comp = parse_composition("stationary")
        assert len(comp) == 1
        assert comp.specs[0] == ScenarioSpec("stationary")

    def test_accepts_spec_and_composition(self):
        spec = parse_scenario("stationary")
        assert parse_composition(spec).specs == (spec,)
        comp = compose(spec)
        assert parse_composition(comp) is comp

    def test_empty_member_rejected(self):
        with pytest.raises(ScenarioSpecError):
            parse_composition("stationary++flash-crowd")

    @settings(max_examples=100)
    @given(specs=st.lists(scenario_specs(), min_size=1, max_size=4))
    def test_composition_str_round_trip(self, specs):
        comp = compose(*specs)
        assert parse_composition(str(comp)) == comp
