"""Unit and statistical tests for the synthetic workload generator."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.traces.records import TIER_OTHER
from repro.traces.stats import summarize, tier_table
from repro.util.timeutil import SECONDS_PER_DAY
from repro.workload.calibration import small_config, tiny_config
from repro.workload.datasets import build_population
from repro.traces.trace import Trace
from repro.workload.generator import _apportion, _expand_intervals, generate_trace


class TestApportion:
    def test_total_preserved(self):
        shares = _apportion(np.array([5.0, 3.0, 2.0]), 100)
        assert shares.sum() == 100

    def test_proportionality(self):
        shares = _apportion(np.array([50.0, 30.0, 20.0]), 100)
        assert shares.tolist() == [50, 30, 20]

    def test_small_weights_get_one(self):
        shares = _apportion(np.array([1000.0, 1.0, 1.0]), 50)
        assert shares[1] >= 1 and shares[2] >= 1

    def test_zero_weight_gets_nothing(self):
        shares = _apportion(np.array([1.0, 0.0]), 10)
        assert shares.tolist() == [10, 0]

    def test_fewer_units_than_entries(self):
        shares = _apportion(np.array([5.0, 1.0, 3.0]), 2)
        assert shares.sum() == 2
        assert shares[0] == 1 and shares[2] == 1

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            _apportion(np.array([1.0]), -1)
        with pytest.raises(ValueError):
            _apportion(np.array([0.0]), 1)


class TestPopulation:
    def test_counts_match_config(self):
        cfg = tiny_config()
        pop, catalog = build_population(cfg, seed=0)
        assert pop.n_files == cfg.n_files
        assert catalog.n_datasets == cfg.n_datasets

    def test_tier_ranges_partition_files(self):
        cfg = tiny_config()
        pop, _ = build_population(cfg, seed=0)
        spans = sorted(pop.tier_ranges.values())
        assert spans[0][0] == 0
        for (a0, a1), (b0, _) in zip(spans, spans[1:]):
            assert a1 == b0
        assert spans[-1][1] == pop.n_files

    def test_datasets_inside_tier(self):
        cfg = tiny_config()
        pop, catalog = build_population(cfg, seed=0)
        for d in range(catalog.n_datasets):
            tier = int(catalog.tier_codes[d])
            lo, hi = pop.tier_ranges[tier]
            files = catalog.files_of(d)
            assert files.min() >= lo and files.max() < hi
            assert np.all(pop.tiers[files] == tier)

    def test_sizes_in_bounds(self):
        cfg = tiny_config()
        pop, _ = build_population(cfg, seed=0)
        for tier_cfg in cfg.tiers:
            lo, hi = pop.tier_ranges[tier_cfg.code]
            sizes = pop.sizes[lo:hi]
            if len(sizes):
                assert sizes.min() >= tier_cfg.file_size_min - 1
                assert sizes.max() <= tier_cfg.file_size_max + 1

    def test_deterministic(self):
        cfg = tiny_config()
        p1, c1 = build_population(cfg, seed=9)
        p2, c2 = build_population(cfg, seed=9)
        np.testing.assert_array_equal(p1.sizes, p2.sizes)
        np.testing.assert_array_equal(c1.starts, c2.starts)


class TestGenerateTrace:
    def test_deterministic(self):
        cfg = tiny_config()
        a = generate_trace(cfg, seed=5)
        b = generate_trace(cfg, seed=5)
        np.testing.assert_array_equal(a.access_files, b.access_files)
        np.testing.assert_array_equal(a.job_starts, b.job_starts)

    def test_seed_changes_output(self):
        cfg = tiny_config()
        a = generate_trace(cfg, seed=5)
        b = generate_trace(cfg, seed=6)
        assert not np.array_equal(a.job_starts, b.job_starts)

    def test_job_counts(self, tiny_trace):
        cfg = tiny_config()
        assert tiny_trace.n_jobs == cfg.n_jobs
        traced = (tiny_trace.files_per_job > 0).sum()
        # every traced job must have at least one file
        assert traced <= cfg.n_traced_jobs
        assert (tiny_trace.job_tiers == TIER_OTHER).sum() == cfg.n_other_jobs

    def test_other_jobs_have_no_files(self, tiny_trace):
        other = tiny_trace.job_tiers == TIER_OTHER
        assert tiny_trace.files_per_job[other].max(initial=0) == 0

    def test_chronological_job_ids(self, tiny_trace):
        starts = tiny_trace.job_starts
        assert np.all(starts[:-1] <= starts[1:])

    def test_time_window(self, tiny_trace):
        t_lo, t_hi = tiny_trace.time_span()
        assert t_lo >= 0
        assert t_hi <= (tiny_config().span_days + 110) * SECONDS_PER_DAY

    def test_jobs_request_whole_datasets(self, tiny_trace):
        """Each traced job's file set is a union of 1-2 contiguous runs."""
        for j in range(tiny_trace.n_jobs):
            files = tiny_trace.job_files(j)
            if len(files) == 0:
                continue
            breaks = int((np.diff(files) > 1).sum())
            assert breaks <= 1, f"job {j} spans {breaks + 1} runs"


class TestCalibrationShape:
    """Statistical checks on the small-scale preset (seed-fixed)."""

    def test_mean_files_per_job_near_paper(self, small_trace):
        fpj = small_trace.files_per_job[small_trace.files_per_job > 0]
        assert 50 <= fpj.mean() <= 220  # paper: 108

    def test_hub_dominates(self, small_trace):
        domains = small_trace.job_domains
        hub_jobs = (domains == 0).sum()
        assert hub_jobs > 0.5 * small_trace.n_jobs

    def test_tier_mix_ordering(self, small_trace):
        rows = {r["tier"]: r for r in tier_table(small_trace)}
        assert rows["Thumbnail"]["jobs"] > rows["Reconstructed"]["jobs"]
        assert rows["Reconstructed"]["jobs"] > rows["Root-tuple"]["jobs"]

    def test_summary_scale(self, small_trace):
        s = summarize(small_trace)
        assert s.n_jobs == small_config().n_jobs
        assert s.span_days > 365

    def test_multiple_domains_active(self, small_trace):
        assert len(np.unique(small_trace.job_domains)) >= 3


#: How a job's second interval relates to its first.
RELATIONS = ("identical", "nested", "overlapping", "adjacent", "disjoint")


@st.composite
def job_intervals(draw) -> list[tuple[int, int]]:
    """Zero, one or two ``(start, length)`` intervals of one job, the
    second identical to, nested in, overlapping, adjacent to or disjoint
    from the first, in either order."""
    n = draw(st.integers(0, 2))
    start, length = draw(st.integers(0, 40)), draw(st.integers(1, 12))
    if n == 0:
        return []
    if n == 1:
        return [(start, length)]
    relation = draw(st.sampled_from(RELATIONS))
    if relation == "identical":
        other = (start, length)
    elif relation == "nested":
        off = draw(st.integers(0, length - 1))
        other = (start + off, draw(st.integers(1, length - off)))
    elif relation == "overlapping":
        length = max(length, 2)
        off = draw(st.integers(1, length - 1))
        other = (start + off, length - off + draw(st.integers(1, 6)))
    elif relation == "adjacent":
        other = (start + length, draw(st.integers(1, 6)))
    else:
        other = (start + length + draw(st.integers(1, 6)), draw(st.integers(1, 6)))
    pair = [(start, length), other]
    return pair[::-1] if draw(st.booleans()) else pair


class TestExpandIntervals:
    @settings(max_examples=300, deadline=None)
    @given(jobs=st.lists(job_intervals(), max_size=10), slot=st.booleans())
    def test_matches_per_job_union(self, jobs, slot):
        starts = np.zeros((len(jobs), 2), dtype=np.int64)
        lengths = np.zeros((len(jobs), 2), dtype=np.int64)
        for j, intervals in enumerate(jobs):
            # a lone interval may sit in either slot
            cols = [int(slot)] if len(intervals) == 1 else [0, 1]
            for col, (a, n) in zip(cols, intervals):
                starts[j, col], lengths[j, col] = a, n
        want_jobs, want_files = [], []
        for j, intervals in enumerate(jobs):
            files = sorted(set().union(*(range(a, a + n) for a, n in intervals)))
            want_jobs += [j] * len(files)
            want_files += files
        block = _expand_intervals(starts, lengths)
        assert block.shape == (2, len(want_files))
        assert block.dtype == np.int64
        assert block[0].tolist() == want_jobs
        assert block[1].tolist() == want_files


class TestCanonicalAccesses:
    @pytest.mark.parametrize("seed", [0, 7])
    def test_shuffled_rows_sort_back(self, seed):
        """The sorting constructor, given the generated access rows in a
        random order, rebuilds exactly the generated columns."""
        trace = generate_trace(small_config(), seed=seed)
        perm = np.random.default_rng(seed).permutation(trace.n_accesses)
        rebuilt = Trace(
            file_sizes=trace.file_sizes,
            file_tiers=trace.file_tiers,
            file_datasets=trace.file_datasets,
            job_users=trace.job_users,
            job_nodes=trace.job_nodes,
            job_tiers=trace.job_tiers,
            job_starts=trace.job_starts,
            job_ends=trace.job_ends,
            access_jobs=trace.access_jobs[perm],
            access_files=trace.access_files[perm],
            user_domains=trace.user_domains,
            node_sites=trace.node_sites,
            node_domains=trace.node_domains,
            site_names=trace.site_names,
            domain_names=trace.domain_names,
        )
        np.testing.assert_array_equal(rebuilt.access_jobs, trace.access_jobs)
        np.testing.assert_array_equal(rebuilt.access_files, trace.access_files)
