"""The synthetic SAM job-stream generator.

:func:`generate_trace` turns a :class:`~repro.workload.config.WorkloadConfig`
plus a seed into a complete :class:`~repro.traces.Trace`:

1. build the file population and dataset catalog
   (:mod:`repro.workload.datasets`);
2. apportion users to domains (largest-remainder, so small domains keep
   their one user as in Table 2) and draw per-user activity (bounded
   Pareto × per-domain boost) and tier preferences (Dirichlet around the
   global tier mix);
3. draw traced jobs: user → tier → dataset(s), where a user's dataset
   popularity is the tier's flattened-Zipf base weight boosted for
   datasets "homed" in the user's domain (geographic interest
   partitioning, §3.2), plus untraced "other"-tier jobs;
4. place jobs in time (ramped/bursty daily profile × uniform within day)
   and at submission nodes (home-domain nodes with probability
   ``home_bias``, else hub nodes);
5. expand each job's dataset intervals, merged where they overlap, into
   (job, file) access pairs already in the trace's canonical (job, file)
   order, so :class:`~repro.traces.Trace` adopts them without sorting.

Jobs are sorted by start time before trace construction, so job ids are
chronological — the replay order the cache simulator uses.  Draws are
made per group (per user, per (user, tier)), with the groups cut from
one stable sort and visited in ascending key order.
"""

from __future__ import annotations

import numpy as np

from repro.traces.records import TIER_OTHER
from repro.traces.trace import Trace
from repro.util.rng import SeedLike, as_generator, spawn_children
from repro.util.timeutil import SECONDS_PER_DAY, SECONDS_PER_HOUR
from repro.workload.config import WorkloadConfig
from repro.workload.datasets import build_population
from repro.workload.distributions import (
    bounded_lognormal,
    bounded_pareto,
    categorical_cdf,
    daily_rate_profile,
    draw_categorical,
    sample_categorical,
)

#: Hub domain index: remote users submit (1 - home_bias) of jobs here.
HUB_DOMAIN = 0


def _apportion(weights: np.ndarray, total: int) -> np.ndarray:
    """Largest-remainder apportionment of ``total`` into integer shares.

    Guarantees every strictly positive weight receives at least one unit
    when ``total`` allows, mirroring Table 2 where even the single-user
    domains appear.
    """
    weights = np.asarray(weights, dtype=np.float64)
    if total < 0:
        raise ValueError(f"total must be non-negative, got {total}")
    if np.any(weights < 0) or weights.sum() <= 0:
        raise ValueError("weights must be non-negative and not all zero")
    positive = np.flatnonzero(weights > 0)
    shares = np.zeros(len(weights), dtype=np.int64)
    if total >= len(positive):
        shares[positive] = 1
        remaining = total - len(positive)
    else:
        # not enough units for everyone: give to the largest weights
        top = positive[np.argsort(weights[positive])[::-1][:total]]
        shares[top] = 1
        return shares
    quota = weights / weights.sum() * remaining
    floors = np.floor(quota).astype(np.int64)
    shares += floors
    leftover = remaining - int(floors.sum())
    if leftover > 0:
        frac = quota - floors
        order = np.argsort(frac)[::-1]
        shares[order[:leftover]] += 1
    return shares


def _build_nodes(
    config: WorkloadConfig,
) -> tuple[np.ndarray, np.ndarray, list[str], list[str], dict[int, np.ndarray]]:
    """Node/site tables: returns (node_sites, node_domains, site_names,
    domain_names, nodes_by_domain)."""
    node_sites: list[int] = []
    node_domains: list[int] = []
    site_names: list[str] = []
    domain_names: list[str] = []
    nodes_by_domain: dict[int, np.ndarray] = {}
    node_id = 0
    for d_idx, dom in enumerate(config.domains):
        domain_names.append(dom.name)
        first_site = len(site_names)
        site_names.extend(f"{dom.name.lstrip('.')}-site{k}" for k in range(dom.n_sites))
        ids = []
        for k in range(dom.n_nodes):
            node_sites.append(first_site + (k % dom.n_sites))
            node_domains.append(d_idx)
            ids.append(node_id)
            node_id += 1
        nodes_by_domain[d_idx] = np.asarray(ids, dtype=np.int64)
    return (
        np.asarray(node_sites, dtype=np.int32),
        np.asarray(node_domains, dtype=np.int16),
        site_names,
        domain_names,
        nodes_by_domain,
    )


def _groups(keys: np.ndarray) -> list[tuple[int, np.ndarray]]:
    """``(key, indices)`` of each distinct key, keys ascending.

    Cut from one stable sort, so each group's indices ascend: the same
    groups, in the same order, as one ``flatnonzero(keys == k)`` per
    key of ``np.unique(keys)``.
    """
    if len(keys) == 0:
        return []
    order = np.argsort(keys, kind="stable")
    ordered = keys[order]
    cuts = [0, *(np.flatnonzero(ordered[1:] != ordered[:-1]) + 1).tolist(), len(keys)]
    return [(int(ordered[a]), order[a:b]) for a, b in zip(cuts[:-1], cuts[1:])]


def _expand_intervals(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Expand each job's file intervals into canonical (job, file) pairs.

    ``starts`` and ``lengths`` are ``(n_jobs, 2)``: row ``j`` holds job
    ``j``'s two intervals ``[start, start + length)``, a zero length
    marking an absent one.  Returns one ``(2, N)`` int64 block, job ids
    in row 0 and file ids in row 1, sorted by (job, file) with no
    duplicates: each job's files are the union of its intervals.
    Datasets overlap by design, so two intervals of a job that overlap
    or touch are merged into one first.

    Both rows are filled in place, as running sums of their steps, so no
    other array as long as the output is allocated.
    """
    s = np.array(starts, dtype=np.int64)
    n = np.array(lengths, dtype=np.int64)
    # the earlier non-empty interval first
    swap = (n[:, 1] > 0) & ((n[:, 0] == 0) | (s[:, 1] < s[:, 0]))
    s[swap] = s[swap, ::-1]
    n[swap] = n[swap, ::-1]
    end = s[:, 0] + n[:, 0]
    merge = (n[:, 1] > 0) & (s[:, 1] <= end)
    n[merge, 0] = np.maximum(end[merge], s[merge, 1] + n[merge, 1]) - s[merge, 0]
    n[merge, 1] = 0

    pieces = np.flatnonzero(n.ravel())  # (job, interval) order
    piece_jobs = pieces // 2
    piece_starts = s.ravel()[pieces]
    piece_lens = n.ravel()[pieces]
    firsts = np.cumsum(piece_lens) - piece_lens
    block = np.empty((2, int(piece_lens.sum())), dtype=np.int64)
    if block.shape[1] == 0:
        return block
    jobs, files = block
    jobs.fill(0)
    jobs[firsts] = np.diff(piece_jobs, prepend=0)
    np.cumsum(jobs, out=jobs)
    files.fill(1)
    last = piece_starts + piece_lens - 1
    files[firsts] = piece_starts - np.concatenate(([0], last[:-1]))
    np.cumsum(files, out=files)
    return block


def generate_trace(config: WorkloadConfig, seed: SeedLike = 0) -> Trace:
    """Generate a complete synthetic SAM trace for ``config``.

    Deterministic given (config, seed); components draw from independent
    child streams so local config edits do not reshuffle everything.
    """
    master = as_generator(seed)
    (
        rng_pop,
        rng_users,
        rng_jobs,
        rng_time,
        rng_nodes,
        rng_datasets,
    ) = spawn_children(master, 6)

    population, catalog = build_population(config, rng_pop)
    node_sites, node_domains, site_names, domain_names, nodes_by_domain = (
        _build_nodes(config)
    )

    # ------------------------------------------------------------------
    # users: domains, activity, tier preference
    # ------------------------------------------------------------------
    n_users = config.n_users
    user_weights = np.array([d.user_weight for d in config.domains])
    users_per_domain = _apportion(user_weights, n_users)
    user_domains = np.repeat(
        np.arange(len(config.domains), dtype=np.int16), users_per_domain
    )
    boosts = np.array([d.activity_boost for d in config.domains])
    activity = bounded_pareto(
        rng_users, config.user_activity_alpha, 1.0, 1000.0, size=n_users
    )
    activity *= boosts[user_domains]

    tier_mix = np.array([t.job_weight for t in config.tiers], dtype=np.float64)
    tier_mix = tier_mix / tier_mix.sum()
    # Dirichlet around the global mix: users mostly follow the popular
    # tiers but individuals specialize (Table 1's overlapping user sets).
    concentration = 1.2
    user_tier_pref = rng_users.dirichlet(
        tier_mix * len(config.tiers) * concentration + 0.05, size=n_users
    )

    # ------------------------------------------------------------------
    # traced jobs: user -> tier -> dataset(s)
    # ------------------------------------------------------------------
    n_traced = config.n_traced_jobs
    job_users = sample_categorical(rng_jobs, activity, n_traced).astype(np.int32)
    job_tier_idx = np.zeros(n_traced, dtype=np.int64)
    for u, idx in _groups(job_users):
        job_tier_idx[idx] = sample_categorical(
            rng_jobs, user_tier_pref[u], len(idx)
        )

    tier_codes = np.array([t.code for t in config.tiers], dtype=np.int16)
    job_tiers = tier_codes[job_tier_idx]

    # Dataset choice per (user, tier) group with a geographic locality
    # boost.  The weights depend only on the tier and the user's home
    # domain, so each (domain, tier) CDF is built once.
    n_tiers = len(config.tiers)
    tier_ds = [catalog.datasets_of_tier(t.code) for t in config.tiers]
    cdfs: dict[tuple[int, int], np.ndarray] = {}

    def pick_datasets(groups, out: np.ndarray) -> None:
        for key, idx in groups:
            u, t_idx = divmod(key, n_tiers)
            ds_ids = tier_ds[t_idx]
            if len(idx) == 0 or len(ds_ids) == 0:
                continue
            dom = int(user_domains[u])
            cdf = cdfs.get((dom, t_idx))
            if cdf is None:
                w = catalog.base_weights[ds_ids].copy()
                w[catalog.home_domains[ds_ids] == dom] *= config.locality_boost
                cdf = cdfs[dom, t_idx] = categorical_cdf(w)
            out[idx] = ds_ids[draw_categorical(rng_datasets, cdf, len(idx))]

    groups = _groups(job_users.astype(np.int64) * n_tiers + job_tier_idx)
    job_dataset = np.full(n_traced, -1, dtype=np.int64)
    pick_datasets(groups, job_dataset)
    # optional second dataset (same user, same tier)
    multi = rng_datasets.random(n_traced) < config.multi_dataset_prob
    job_dataset2 = np.full(n_traced, -1, dtype=np.int64)
    pick_datasets(((key, idx[multi[idx]]) for key, idx in groups), job_dataset2)

    # ------------------------------------------------------------------
    # untraced ("other") jobs
    # ------------------------------------------------------------------
    n_other = config.n_other_jobs
    other_users = sample_categorical(rng_jobs, activity, n_other).astype(np.int32)

    all_users = np.concatenate([job_users, other_users])
    all_tiers = np.concatenate(
        [job_tiers, np.full(n_other, TIER_OTHER, dtype=np.int16)]
    )
    n_jobs = n_traced + n_other

    # ------------------------------------------------------------------
    # submission nodes
    # ------------------------------------------------------------------
    home = user_domains[all_users].astype(np.int64)
    go_home = rng_nodes.random(n_jobs) < config.home_bias
    job_domain = np.where(go_home, home, HUB_DOMAIN)
    all_nodes = np.zeros(n_jobs, dtype=np.int32)
    for d, idx in _groups(job_domain):
        pool = nodes_by_domain[d]
        all_nodes[idx] = pool[rng_nodes.integers(0, len(pool), size=len(idx))]

    # ------------------------------------------------------------------
    # timing
    # ------------------------------------------------------------------
    n_days = max(1, int(round(config.span_days)))
    profile = daily_rate_profile(rng_time, n_days)
    days = sample_categorical(rng_time, profile, n_jobs)
    starts = days * SECONDS_PER_DAY + rng_time.random(n_jobs) * SECONDS_PER_DAY

    durations = np.empty(n_jobs, dtype=np.float64)
    for t_idx, tier_cfg in enumerate(config.tiers):
        idx = np.flatnonzero(all_tiers == tier_cfg.code)
        if len(idx):
            durations[idx] = bounded_lognormal(
                rng_time,
                tier_cfg.duration_hours_mean * SECONDS_PER_HOUR,
                tier_cfg.duration_hours_sigma,
                60.0,
                100 * 24 * SECONDS_PER_HOUR,
                size=len(idx),
            )
    other_idx = np.flatnonzero(all_tiers == TIER_OTHER)
    if len(other_idx):
        durations[other_idx] = bounded_lognormal(
            rng_time,
            config.other_duration_hours_mean * SECONDS_PER_HOUR,
            0.8,
            60.0,
            100 * 24 * SECONDS_PER_HOUR,
            size=len(other_idx),
        )
    ends = starts + durations

    # ------------------------------------------------------------------
    # chronological job order, then access expansion
    # ------------------------------------------------------------------
    order = np.argsort(starts, kind="stable")
    rank = np.empty(n_jobs, dtype=np.int64)
    rank[order] = np.arange(n_jobs)

    # each traced job's (up to) two dataset intervals, by new job id
    interval_starts = np.zeros((n_jobs, 2), dtype=np.int64)
    interval_lens = np.zeros((n_jobs, 2), dtype=np.int64)
    for col, ds in enumerate((job_dataset, job_dataset2)):
        have = ds >= 0
        ids = rank[:n_traced][have]
        interval_starts[ids, col] = catalog.starts[ds[have]]
        interval_lens[ids, col] = catalog.lengths[ds[have]]
    access_jobs, access_files = _expand_intervals(interval_starts, interval_lens)

    return Trace(
        file_sizes=population.sizes,
        file_tiers=population.tiers,
        file_datasets=population.datasets_of_birth,
        job_users=all_users[order],
        job_nodes=all_nodes[order],
        job_tiers=all_tiers[order],
        job_starts=starts[order],
        job_ends=ends[order],
        access_jobs=access_jobs,
        access_files=access_files,
        user_domains=user_domains,
        node_sites=node_sites,
        node_domains=node_domains,
        site_names=site_names,
        domain_names=domain_names,
        canonical=True,
    )
