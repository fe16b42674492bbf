"""Tiered hierarchy: spec wire format, miss-through replay, sweeps, metrics.

The two load-bearing guarantees of :mod:`repro.hierarchy`:

* **canonical round-trip** — ``parse_hierarchy(str(spec)) == spec`` for
  every constructible spec (hypothesis sweeps adversarial floats, where
  ``%g`` exponents would otherwise collide with the ``+`` delimiter);
* **flat collapse** — a single-tier hierarchy is bit-identical to
  :func:`~repro.engine.simulate` for *every* registry policy, so the
  hierarchical engine is a strict generalization, not a parallel
  implementation that can drift.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import registry
from repro.engine import simulate
from repro.hierarchy import (
    HierarchyResult,
    HierarchySpec,
    HierarchySpecError,
    TierCapacity,
    TierSpec,
    estimate_transfer_seconds,
    fold_hierarchy_metrics,
    hierarchy_sweep,
    parse_hierarchy,
    simulate_hierarchy,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.timeseries import TimeSeriesRecorder
from repro.transfer import LINK_PRESETS, LinkModel, default_tier_links

# ---------------------------------------------------------------------------
# spec model and wire format
# ---------------------------------------------------------------------------


class TestSpecModel:
    def test_wire_round_trip_example(self):
        text = "site:file-lru@10%+regional:filecule-lru@5%+origin"
        spec = parse_hierarchy(text)
        assert str(spec) == text
        assert parse_hierarchy(str(spec)) == spec
        assert spec.tier_names == ("site", "regional")
        assert spec.origin == "origin"

    def test_aliases_canonicalize(self):
        spec = parse_hierarchy("site:lru@10%+origin")
        assert str(spec) == "site:file-lru@10%+origin"

    def test_absolute_capacity_and_link_cost(self):
        spec = parse_hierarchy("a:fifo@1000^2.5+b:file-lru@50%^0.5+o")
        assert spec.tiers[0].capacity.capacity_bytes(10**9) == 1000
        assert spec.tiers[1].capacity.capacity_bytes(1000) == 500
        assert spec.tiers[0].link_cost == 2.5
        # "fifo" is an alias; the wire form canonicalizes it
        assert str(spec) == "a:file-fifo@1000^2.5+b:file-lru@50%^0.5+o"

    def test_unit_link_cost_omitted(self):
        spec = HierarchySpec(
            (TierSpec("a", "file-lru", TierCapacity(10.0, relative=True)),)
        )
        assert "^" not in str(spec)
        assert parse_hierarchy(str(spec)) == spec

    def test_parse_accepts_spec_instance(self):
        spec = parse_hierarchy("site:file-lru@10%+origin")
        assert parse_hierarchy(spec) is spec

    @pytest.mark.parametrize(
        "bad",
        [
            "",  # no tiers
            "origin",  # no caching tier
            "site:file-lru@10%",  # trailing segment is a tier, not origin
            "site:file-lru@10%+more:fifo@5",  # ditto (has ':' / '@')
            "site:file-lru@10%+site",  # duplicate name with origin
            "a:file-lru@10%+a:fifo@5%+o",  # duplicate tier names
            "1a:file-lru@10%+o",  # bad tier name
            "a:no-such-policy@10%+o",  # unknown policy spec
            "a:file-lru@0%+o",  # non-positive capacity
            "a:file-lru@-5+o",  # negative absolute capacity
            "a:file-lru@1.5+o",  # fractional absolute bytes
            "a:file-lru@10%^-1+o",  # negative link cost
            "a:file-lru@10%^inf+o",  # non-finite link cost
            "a:file-lru+o",  # missing capacity
        ],
    )
    def test_malformed_rejected(self, bad):
        with pytest.raises((HierarchySpecError, ValueError)):
            parse_hierarchy(bad)

    def test_exponent_capacity_survives_the_plus_delimiter(self):
        # repr(1e22) is "1e+22"; a naive formatter would split the wire
        # string at the exponent's '+'.
        spec = HierarchySpec(
            (TierSpec("a", "file-lru", TierCapacity(1e22, relative=True)),)
        )
        assert "+origin" in str(spec)
        assert parse_hierarchy(str(spec)) == spec


_names = st.from_regex(r"[A-Za-z][A-Za-z0-9_-]{0,11}", fullmatch=True)
_policies = st.one_of(
    st.sampled_from(["file-lru", "filecule-lru", "fifo", "lru", "file-lfu"]),
    # A parameterized policy: its float renders inside the tier, so a
    # large one (1e16) must not put an exponent's '+' in the wire string.
    st.floats(allow_nan=False, allow_infinity=False).map(
        lambda v: f"working-set-prefetch?max_prefetch_fraction={v!r}"
    ),
)
_caps = st.one_of(
    st.integers(min_value=1, max_value=10**18).map(TierCapacity),
    st.floats(
        min_value=1e-12,
        max_value=1e24,
        allow_nan=False,
        allow_infinity=False,
        exclude_min=True,
    ).map(lambda v: TierCapacity(v, relative=True)),
)
_link_costs = st.one_of(
    st.just(1.0),
    st.floats(min_value=0.0, max_value=1e9, allow_nan=False),
)


@st.composite
def hierarchy_specs(draw):
    names = draw(
        st.lists(_names, min_size=2, max_size=5, unique_by=str.lower)
    )
    *tier_names, origin = names
    tiers = tuple(
        TierSpec(name, draw(_policies), draw(_caps), draw(_link_costs))
        for name in tier_names
    )
    return HierarchySpec(tiers, origin=origin)


class TestSpecRoundTripProperty:
    @given(spec=hierarchy_specs())
    @settings(max_examples=60, deadline=None)
    def test_parse_of_str_is_identity(self, spec):
        wire = str(spec)
        again = parse_hierarchy(wire)
        assert again == spec
        assert str(again) == wire


# ---------------------------------------------------------------------------
# flat collapse: single tier == simulate(), bit for bit
# ---------------------------------------------------------------------------


class TestFlatCollapse:
    @pytest.mark.parametrize("policy", registry.policy_names())
    @pytest.mark.parametrize("fraction", [0.01, 0.1])
    def test_single_tier_bit_identical(
        self, policy, fraction, tiny_trace, tiny_partition
    ):
        cap = max(int(fraction * tiny_trace.total_bytes()), 1)
        flat = simulate(tiny_trace, policy, cap, partition=tiny_partition)
        res = simulate_hierarchy(
            tiny_trace,
            f"site:{policy}@{cap}+origin",
            partition=tiny_partition,
        )
        assert len(res.tiers) == 1
        assert res.tiers[0].metrics == flat
        assert res.origin_requests == flat.misses
        assert res.origin_demand_bytes == flat.bytes_requested - flat.bytes_hit
        assert res.origin_fetched_bytes == flat.bytes_fetched


# ---------------------------------------------------------------------------
# multi-tier invariants
# ---------------------------------------------------------------------------

TWO_TIER = "site:file-lru@1%+regional:filecule-lru@5%+origin"


class TestMissThrough:
    @pytest.fixture(scope="class")
    def result(self, tiny_trace, tiny_partition) -> HierarchyResult:
        return simulate_hierarchy(
            tiny_trace, TWO_TIER, partition=tiny_partition
        )

    def test_conservation_law(self, result):
        for upper, lower in zip(result.tiers, result.tiers[1:]):
            assert lower.metrics.requests == upper.metrics.misses
            assert (
                lower.metrics.bytes_requested
                == upper.metrics.bytes_requested - upper.metrics.bytes_hit
            )
        last = result.tiers[-1].metrics
        assert result.origin_requests == last.misses
        assert (
            result.origin_demand_bytes
            == last.bytes_requested - last.bytes_hit
        )

    def test_demand_totals_are_tier_zero(self, result, tiny_trace):
        assert result.demand_requests == tiny_trace.n_accesses
        assert result.hit_requests == sum(
            t.metrics.hits for t in result.tiers
        )
        assert 0.0 <= result.request_hit_rate <= 1.0
        assert 0.0 <= result.origin_byte_hit_rate <= 1.0
        assert result.origin_offload == result.origin_byte_hit_rate

    def test_outer_tier_matches_flat_replay(self, result, tiny_trace):
        cap = result.tiers[0].capacity_bytes
        flat = simulate(tiny_trace, "file-lru", cap)
        assert result.tiers[0].metrics == flat

    def test_batch_and_per_access_agree(self, tiny_trace, tiny_partition):
        fast = simulate_hierarchy(
            tiny_trace, TWO_TIER, partition=tiny_partition, batch=True
        )
        slow = simulate_hierarchy(
            tiny_trace, TWO_TIER, partition=tiny_partition, batch=False
        )
        assert [t.metrics for t in fast.tiers] == [
            t.metrics for t in slow.tiers
        ]
        assert fast.origin_requests == slow.origin_requests
        assert fast.origin_demand_bytes == slow.origin_demand_bytes

    def test_weighted_link_bytes(self, tiny_trace, tiny_partition):
        res = simulate_hierarchy(
            tiny_trace,
            "site:file-lru@1%^3.0+regional:filecule-lru@5%^0.5+origin",
            partition=tiny_partition,
        )
        expect = (
            3.0 * res.tiers[0].link_bytes + 0.5 * res.tiers[1].link_bytes
        )
        assert res.weighted_link_bytes == pytest.approx(expect)

    def test_filecule_tier_beats_file_tier_at_origin(
        self, tiny_trace, tiny_partition
    ):
        cule = simulate_hierarchy(
            tiny_trace,
            "site:file-lru@1%+regional:filecule-lru@5%+origin",
            partition=tiny_partition,
        )
        file = simulate_hierarchy(
            tiny_trace,
            "site:file-lru@1%+regional:file-lru@5%+origin",
            partition=tiny_partition,
        )
        assert cule.origin_byte_hit_rate >= file.origin_byte_hit_rate


class TestSubsetAccesses:
    def test_mask_partition_conserves_accesses(self, tiny_trace):
        rng = np.random.default_rng(11)
        mask = rng.random(tiny_trace.n_accesses) < 0.4
        kept = tiny_trace.subset_accesses(mask)
        dropped = tiny_trace.subset_accesses(~mask)
        assert kept.n_accesses + dropped.n_accesses == tiny_trace.n_accesses
        # catalogs and job rows are preserved, so ids stay comparable
        assert kept.n_files == tiny_trace.n_files
        assert kept.n_jobs == tiny_trace.n_jobs
        assert np.array_equal(kept.job_starts, tiny_trace.job_starts)
        assert np.array_equal(
            kept.access_files, tiny_trace.access_files[mask]
        )
        assert np.array_equal(kept.access_jobs, tiny_trace.access_jobs[mask])

    def test_empty_and_full_masks(self, tiny_trace):
        none = tiny_trace.subset_accesses(
            np.zeros(tiny_trace.n_accesses, dtype=bool)
        )
        assert none.n_accesses == 0
        full = tiny_trace.subset_accesses(
            np.ones(tiny_trace.n_accesses, dtype=bool)
        )
        assert np.array_equal(full.access_files, tiny_trace.access_files)

    def test_wrong_length_rejected(self, tiny_trace):
        with pytest.raises(ValueError, match="mask length"):
            tiny_trace.subset_accesses(np.zeros(3, dtype=bool))


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------


class TestHierarchySweep:
    HIERARCHIES = (
        "site:file-lru@1%+origin",
        "site:filecule-lru@1%+origin",
        TWO_TIER,
    )

    def test_serial_matches_loop(self, tiny_trace, tiny_partition):
        swept = hierarchy_sweep(
            tiny_trace, self.HIERARCHIES, partition=tiny_partition
        )
        for text in self.HIERARCHIES:
            solo = simulate_hierarchy(
                tiny_trace, text, partition=tiny_partition
            )
            assert swept[str(parse_hierarchy(text))] == solo

    def test_parallel_matches_serial(
        self, tiny_trace, tiny_partition, monkeypatch
    ):
        serial = hierarchy_sweep(
            tiny_trace, self.HIERARCHIES, partition=tiny_partition
        )
        monkeypatch.setenv("REPRO_PARALLEL_FORCE", "1")
        parallel = hierarchy_sweep(
            tiny_trace, self.HIERARCHIES, jobs=2, partition=tiny_partition
        )
        assert parallel == serial

    def test_duplicate_hierarchies_rejected(self, tiny_trace):
        with pytest.raises(ValueError, match="duplicate"):
            hierarchy_sweep(
                tiny_trace,
                ["site:file-lru@1%+origin", "site:lru@1%+origin"],
            )

    def test_empty_sweep(self, tiny_trace):
        assert hierarchy_sweep(tiny_trace, []) == {}


# ---------------------------------------------------------------------------
# metrics, links, flight recorder
# ---------------------------------------------------------------------------


class TestHierarchyMetrics:
    def test_fold_counters(self, tiny_trace, tiny_partition):
        res = simulate_hierarchy(
            tiny_trace, TWO_TIER, partition=tiny_partition
        )
        metrics = fold_hierarchy_metrics(res, MetricsRegistry())
        assert metrics.get("hier_replays") == 1
        assert metrics.get("hier_demand_requests") == res.demand_requests
        assert metrics.get("hier_demand_bytes") == res.demand_bytes
        for tier in res.tiers:
            assert (
                metrics.get("hier_requests", tier=tier.tier)
                == tier.metrics.requests
            )
            assert (
                metrics.get("hier_hits", tier=tier.tier)
                == tier.metrics.hits
            )
            assert (
                metrics.get("hier_link_bytes", tier=tier.tier)
                == tier.link_bytes
            )
        assert metrics.get("hier_origin_requests") == res.origin_requests
        assert metrics.get("hier_origin_bytes") == res.origin_demand_bytes

    def test_link_model_pricing(self):
        lan = LINK_PRESETS["lan"]
        # 1 GB over 100 Gbit/s: 0.08 s wire time + one setup
        assert lan.transfer_seconds(10**9) == pytest.approx(
            0.08 + lan.setup_s
        )
        assert lan.transfer_seconds(0, transfers=0) == 0.0
        with pytest.raises(ValueError):
            LinkModel("bad", bandwidth_bps=0.0)

    def test_default_tier_links_positions(self):
        links = default_tier_links(["site", "regional", "campus"])
        assert links["campus"] is LINK_PRESETS["wan"]
        assert links["regional"] is LINK_PRESETS["regional"]
        assert links["site"] is LINK_PRESETS["lan"]

    def test_estimate_transfer_seconds(self, tiny_trace, tiny_partition):
        res = simulate_hierarchy(
            tiny_trace, TWO_TIER, partition=tiny_partition
        )
        times = estimate_transfer_seconds(res)
        assert set(times) == {"site", "regional"}
        assert all(t >= 0.0 for t in times.values())
        with pytest.raises(KeyError):
            estimate_transfer_seconds(
                res, links={"site": LINK_PRESETS["lan"]}
            )

    def test_derived_origin_offload_series(self, tiny_trace, tiny_partition):
        res = simulate_hierarchy(
            tiny_trace, TWO_TIER, partition=tiny_partition
        )
        registry_ = MetricsRegistry()
        recorder = TimeSeriesRecorder(interval=1.0)
        recorder.sample(registry_, 0.0)
        fold_hierarchy_metrics(res, registry_)
        recorder.sample(registry_, 1.0)
        series = recorder.get("derived:origin_offload")
        assert series.agg == "mean"
        ((_, value, weight),) = series.points()
        assert value == pytest.approx(res.origin_byte_hit_rate)
        assert weight == pytest.approx(res.demand_bytes)
