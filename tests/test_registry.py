"""The policy registry: specs, parsing, building, and equivalence.

The registry's contract is twofold.  *Completeness*: every replacement
policy shipped in ``src/`` is constructible by name through
:func:`repro.registry.build`, and replaying a trace through a
registry-built policy produces the **same metrics** as the legacy direct
constructor.  *Canonical strings*: ``parse`` is a canonicalizer —
aliases resolve, values coerce to the defaults' types, parameters sort —
so ``parse(str(spec)) == spec`` for every representable spec (property
tested below), which is what lets a spec string name a policy in every
table and wire format (sweep grids, hierarchy tiers, the service).
"""

from __future__ import annotations

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import registry
from repro.cache.arc import AdaptiveReplacementCache
from repro.cache.base import ReplacementPolicy
from repro.cache.belady import BeladyMIN, FileculeBeladyMIN
from repro.cache.bundle import FileBundleCache
from repro.cache.fifo import FileFIFO
from repro.cache.filecule_lru import FileculeLRU
from repro.cache.filecule_variants import FileculeGDS, FileculeLFU
from repro.cache.frequency import FileLFU
from repro.cache.gds import GreedyDualSize, Landlord
from repro.cache.lru import FileLRU
from repro.cache.prefetch import GroupPrefetchLRU
from repro.cache.size import LargestFirst
from repro.cache.working_set import WorkingSetPrefetchLRU
from repro.engine import simulate, sweep
from repro.registry import (
    BoundSpec,
    PolicyResourceError,
    PolicySpecError,
    UnknownPolicyError,
)


def legacy_factories(trace, partition) -> dict:
    """Direct-constructor twins of every registered spec (the pre-registry
    wiring, kept here as the equivalence baseline)."""
    return {
        "file-fifo": lambda c: FileFIFO(c),
        "file-lru": lambda c: FileLRU(c),
        "file-lfu": lambda c: FileLFU(c),
        "largest-first": lambda c: LargestFirst(c),
        "greedy-dual-size": lambda c: GreedyDualSize(c),
        "landlord": lambda c: Landlord(c),
        "arc": lambda c: AdaptiveReplacementCache(c),
        "file-bundle": lambda c: FileBundleCache(c),
        "group-prefetch-lru": lambda c: GroupPrefetchLRU(
            c, trace.file_datasets.astype("int64"), trace.file_sizes
        ),
        "working-set-prefetch": lambda c: WorkingSetPrefetchLRU(
            c, trace.file_sizes
        ),
        "file-belady-min": lambda c: BeladyMIN(c, trace),
        "filecule-lru": lambda c: FileculeLRU(c, partition),
        "filecule-lfu": lambda c: FileculeLFU(c, partition),
        "filecule-gds": lambda c: FileculeGDS(c, partition),
        "filecule-belady-min": lambda c: FileculeBeladyMIN(
            c, trace, partition
        ),
    }


def two_capacities(trace) -> list[int]:
    total = trace.total_bytes()
    return [max(int(f * total), 1) for f in (0.01, 0.05)]


class TestCatalog:
    def test_every_shipped_policy_is_registered(self, tiny_trace, tiny_partition):
        registered = set(registry.policy_names())
        expected = set(legacy_factories(tiny_trace, tiny_partition))
        assert registered == expected

    def test_specs_are_sorted_and_flagged(self):
        specs = registry.list_specs()
        assert [s.name for s in specs] == sorted(s.name for s in specs)
        by_name = {s.name: s for s in specs}
        assert by_name["filecule-lru"].needs_filecules
        assert not by_name["filecule-lru"].needs_trace
        assert by_name["file-belady-min"].is_offline_optimal
        assert by_name["file-belady-min"].needs_trace
        assert by_name["filecule-belady-min"].flags == (
            "needs_filecules",
            "needs_trace",
            "is_offline_optimal",
        )
        assert by_name["file-lru"].flags == ("supports_batch",)
        assert by_name["file-lfu"].flags == ()
        # The batch capability matches exactly the policies whose
        # instances actually offer a kernel (see test_engine_batch).
        batchable = {s.name for s in specs if s.supports_batch}
        assert batchable == {"file-lru", "file-fifo", "filecule-lru"}

    def test_aliases_resolve_to_canonical_specs(self):
        for alias, canonical in (
            ("lru", "file-lru"),
            ("fifo", "file-fifo"),
            ("lfu", "file-lfu"),
            ("size", "largest-first"),
            ("gds", "greedy-dual-size"),
        ):
            assert registry.get_spec(alias).name == canonical
            assert registry.parse(alias) == BoundSpec(canonical)

    def test_service_policy_names_exclude_offline_resources(self):
        names = registry.service_policy_names()
        assert "file-lru" in names and "lru" in names
        for needing in (
            "filecule-lru",
            "filecule-lfu",
            "filecule-gds",
            "file-belady-min",
            "filecule-belady-min",
            "group-prefetch-lru",
            "working-set-prefetch",
        ):
            assert needing not in names

    def test_unknown_name_lists_known_specs(self):
        with pytest.raises(UnknownPolicyError, match="unknown policy 'nope'"):
            registry.get_spec("nope")
        with pytest.raises(UnknownPolicyError, match="file-lru"):
            registry.build("nope", 100)


class TestParse:
    def test_parse_canonicalizes_alias_and_params(self):
        bound = registry.parse("lru")
        assert bound == BoundSpec("file-lru")
        assert str(bound) == "file-lru"

        bound = registry.parse("filecule-lru?intra_job_hits=0")
        assert bound == BoundSpec(
            "filecule-lru", (("intra_job_hits", False),)
        )
        assert str(bound) == "filecule-lru?intra_job_hits=false"

    def test_params_sort_into_one_canonical_form(self):
        a = registry.parse(
            "working-set-prefetch?max_group_size=128&max_prefetch_fraction=0.25"
        )
        b = registry.parse(
            "working-set-prefetch?max_prefetch_fraction=0.25&max_group_size=128"
        )
        assert a == b
        assert str(a) == str(b)

    def test_bool_coercions(self):
        for raw, value in (
            ("1", True), ("true", True), ("YES", True), ("on", True),
            ("0", False), ("false", False), ("No", False), ("off", False),
        ):
            assert registry.parse(f"filecule-lru?intra_job_hits={raw}") == (
                BoundSpec("filecule-lru", (("intra_job_hits", value),))
            )

    def test_malformed_specs_rejected(self):
        with pytest.raises(PolicySpecError, match="param=value"):
            registry.parse("file-lru?oops")
        with pytest.raises(PolicySpecError, match="no parameter"):
            registry.parse("file-lru?speed=11")
        with pytest.raises(PolicySpecError, match="not a boolean"):
            registry.parse("filecule-lru?intra_job_hits=maybe")
        with pytest.raises(PolicySpecError, match="bad value"):
            registry.parse("working-set-prefetch?max_group_size=lots")

    @pytest.mark.parametrize("raw", ["nan", "inf", "-inf", "NaN", "Infinity"])
    def test_non_finite_float_refused(self, raw):
        with pytest.raises(
            PolicySpecError,
            match=re.escape(
                "bad value for working-set-prefetch?max_prefetch_fraction:"
            ),
        ):
            registry.parse(f"working-set-prefetch?max_prefetch_fraction={raw}")

    @pytest.mark.parametrize("raw", ["a+b", "a@b", "a^b", "a,b", "a?b", "a=b"])
    def test_string_value_holding_a_delimiter_refused(self, raw):
        with pytest.raises(
            PolicySpecError,
            match=re.escape("bad value for filecule-gds?cost_mode:"),
        ):
            registry.parse(f"filecule-gds?cost_mode={raw}")

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_parse_of_str_is_idempotent(self, data):
        """parse(str(spec)) == spec for any representable BoundSpec."""
        spec = data.draw(st.sampled_from(registry.list_specs()))
        overrides = {}
        for key, default in sorted(spec.defaults.items()):
            if not data.draw(st.booleans(), label=f"override {key}?"):
                continue
            if isinstance(default, bool):
                overrides[key] = data.draw(st.booleans(), label=key)
            elif isinstance(default, int):
                overrides[key] = data.draw(
                    st.integers(min_value=0, max_value=10**6), label=key
                )
            elif isinstance(default, float):
                overrides[key] = data.draw(
                    st.floats(allow_nan=False, allow_infinity=False),
                    label=key,
                )
            else:
                overrides[key] = data.draw(
                    st.text(
                        alphabet=st.characters(
                            whitelist_categories=("Ll", "Nd")
                        ),
                        min_size=1,
                        max_size=8,
                    ),
                    label=key,
                )
        bound = BoundSpec(spec.name, tuple(sorted(overrides.items())))
        reparsed = registry.parse(str(bound))
        assert reparsed == bound
        assert str(reparsed) == str(bound)
        # and once more around the loop, for good measure
        assert registry.parse(str(reparsed)) == bound


class TestBuild:
    def test_build_round_trip_matches_legacy_constructors(
        self, tiny_trace, tiny_partition
    ):
        """parse -> build == direct constructor, for all 15 policies x 2 caps."""
        legacy = legacy_factories(tiny_trace, tiny_partition)
        for cap in two_capacities(tiny_trace):
            for name, factory in legacy.items():
                expected = simulate(tiny_trace, factory, cap, name=name)
                built = registry.build(
                    registry.parse(name),
                    cap,
                    trace=tiny_trace,
                    partition=tiny_partition,
                )
                assert isinstance(built, ReplacementPolicy)
                got = simulate(tiny_trace, lambda c, _p=built: _p, cap, name=name)
                assert got == expected, f"{name}@{cap} diverged from legacy"

    def test_build_missing_resources_rejected(self):
        with pytest.raises(PolicyResourceError, match="filecule partition"):
            registry.build("filecule-lru", 100)
        with pytest.raises(PolicyResourceError, match="replayed trace"):
            registry.build("file-belady-min", 100)

    def test_build_kwargs_override_spec_string(self, tiny_partition):
        policy = registry.build(
            "filecule-lru?intra_job_hits=false",
            100,
            partition=tiny_partition,
            intra_job_hits=True,
        )
        assert policy._intra_job_hits is True

    def test_build_unknown_kwarg_rejected(self):
        with pytest.raises(PolicySpecError, match="no parameter"):
            registry.build("file-lru", 100, speed=11)


class TestSweepBySpec:
    def test_spec_sweep_matches_factory_sweep_serial_and_parallel(
        self, tiny_trace, tiny_partition, monkeypatch
    ):
        caps = two_capacities(tiny_trace)
        legacy = legacy_factories(tiny_trace, tiny_partition)
        by_factory = sweep(tiny_trace, legacy, caps)
        by_spec_serial = sweep(
            tiny_trace, tuple(legacy), caps, partition=tiny_partition
        )
        assert by_spec_serial.capacities == by_factory.capacities
        assert by_spec_serial.metrics == by_factory.metrics
        monkeypatch.setenv("REPRO_PARALLEL_FORCE", "1")
        by_spec_parallel = sweep(
            tiny_trace, tuple(legacy), caps, partition=tiny_partition, jobs=2
        )
        assert by_spec_parallel.metrics == by_factory.metrics

    def test_display_name_mapping_to_specs(self, tiny_trace, tiny_partition):
        caps = two_capacities(tiny_trace)
        named = sweep(
            tiny_trace,
            {"file": "file-lru", "cule": "filecule-lru"},
            caps,
            partition=tiny_partition,
        )
        assert set(named.metrics) == {"file", "cule"}
        plain = sweep(
            tiny_trace,
            ("file-lru", "filecule-lru"),
            caps,
            partition=tiny_partition,
        )
        # CacheMetrics equality includes the display name, so compare rates.
        assert named.miss_rates("file") == plain.miss_rates("file-lru")
        assert named.miss_rates("cule") == plain.miss_rates("filecule-lru")
        assert named.byte_miss_rates("cule") == plain.byte_miss_rates(
            "filecule-lru"
        )

    def test_simulate_accepts_spec_strings(self, tiny_trace, tiny_partition):
        cap = two_capacities(tiny_trace)[0]
        via_spec = simulate(
            tiny_trace, "filecule-lru", cap, partition=tiny_partition
        )
        direct = simulate(
            tiny_trace,
            lambda c: FileculeLRU(c, tiny_partition),
            cap,
            name="filecule-lru",
        )
        assert via_spec == direct


class TestWorkerDispatchErrors:
    def test_unknown_spec_name_in_worker_is_a_clear_sweep_cell_error(
        self, tiny_trace, monkeypatch
    ):
        """An unregistered spec that reaches a worker surfaces as
        SweepCellError naming the cell with the registry's message."""
        from repro.parallel import runner as runner_mod

        def poisoned_resolve(policies):
            # Ship an unregistered spec to the workers, bypassing the
            # parent-side parse that normally makes this impossible.
            return {"file-lru": BoundSpec("not-a-registered-policy")}

        monkeypatch.setattr(runner_mod, "resolve_policies", poisoned_resolve)
        monkeypatch.setenv("REPRO_PARALLEL_FORCE", "1")
        with pytest.raises(
            runner_mod.SweepCellError, match="unknown policy"
        ) as excinfo:
            runner_mod.parallel_sweep(tiny_trace, ("file-lru",), [1000], jobs=2)
        assert excinfo.value.policy == "file-lru"
        assert excinfo.value.capacity == 1000


class TestPicklability:
    def test_bound_specs_and_spec_strings_pickle(self):
        import pickle

        for text in (
            "file-lru",
            "filecule-lru?intra_job_hits=false",
            "working-set-prefetch?max_group_size=64&max_prefetch_fraction=0.1",
        ):
            bound = registry.parse(text)
            clone = pickle.loads(pickle.dumps(bound))
            assert clone == bound
            assert str(clone) == str(bound)
