"""Pinned per-access outcomes of every registry policy.

Each of the 15 registered policies replays one fixed trace per access
(``batch=False``) at four capacities, and its six ``CacheMetrics``
counters and the SHA-256 of its hit mask must equal the literals below.
The literals were recorded from the policies as they stood before their
eviction loops were shared (one lazy heap, one prefetching LRU), so a
refactor of a policy's internals that changes any decision fails here.

The trace is drawn from :class:`random.Random` in this file, so the pins
depend neither on numpy's generators nor on the workload calibration.
It has overlapping file groups, zero-size files, files larger than the
smaller capacities, ungrouped files and a few empty jobs.
"""

from __future__ import annotations

import hashlib
import random

import numpy as np
import pytest

from repro import registry
from repro.core.identify import find_filecules
from repro.engine import simulate
from repro.traces.trace import Trace

#: Counters compared per cell, in this order.
COUNTERS = (
    "requests",
    "hits",
    "bytes_requested",
    "bytes_hit",
    "bytes_fetched",
    "bypasses",
)


def _pin_trace() -> Trace:
    rng = random.Random(7)
    n_files = 160
    sizes = []
    for _ in range(n_files):
        kind = rng.random()
        if kind < 0.08:
            sizes.append(0)
        elif kind < 0.9:
            sizes.append(rng.randint(1, 4_000))
        else:
            sizes.append(rng.randint(20_000, 60_000))
    # dataset-of-birth blocks, some files ungrouped (-1)
    datasets = [
        -1 if rng.random() < 0.1 else f // 12 for f in range(n_files)
    ]
    # overlapping co-access groups: group g draws from a sliding window
    groups = [
        sorted(
            rng.sample(
                range(g * 6, min(g * 6 + 20, n_files)), rng.randint(3, 10)
            )
        )
        for g in range(26)
    ]
    weights = [1.0 / (g + 1) for g in range(len(groups))]
    jobs = []
    for _ in range(320):
        if rng.random() < 0.03:
            jobs.append([])
            continue
        files = set()
        for group in rng.choices(groups, weights=weights, k=rng.randint(1, 2)):
            files.update(group)
        files.update(rng.sample(range(n_files), rng.randint(0, 2)))
        jobs.append(sorted(files))
    starts = []
    clock = 0.0
    for _ in jobs:
        clock += rng.randint(1, 600)
        starts.append(clock)
    return Trace(
        file_sizes=sizes,
        file_tiers=[1] * n_files,
        file_datasets=datasets,
        job_users=[rng.randrange(4) for _ in jobs],
        job_nodes=[rng.randrange(3) for _ in jobs],
        job_tiers=[1] * len(jobs),
        job_starts=starts,
        job_ends=[s + 3600.0 for s in starts],
        access_jobs=[j for j, files in enumerate(jobs) for _ in files],
        access_files=[f for files in jobs for f in files],
        user_domains=[0, 0, 1, 1],
        node_sites=[0, 1, 1],
        node_domains=[0, 1, 1],
        site_names=["site0", "site1"],
        domain_names=[".d0", ".d1"],
    )


def _capacities(trace: Trace, partition) -> dict[str, int]:
    accessed = int(trace.access_size_cumsum[-1])
    return {
        "1B": 1,
        "half-largest-filecule": int(partition.sizes_bytes.max()) // 2,
        "2%": accessed * 2 // 100,
        "20%": accessed * 20 // 100,
    }


def _outcome(trace, partition, name: str, capacity: int):
    hits = np.zeros(trace.n_accesses, dtype=bool)
    metrics = simulate(
        trace, name, capacity, partition=partition, batch=False, hit_out=hits
    )
    counters = tuple(getattr(metrics, field) for field in COUNTERS)
    return counters, hashlib.sha256(hits.tobytes()).hexdigest()[:16]


@pytest.fixture(scope="module")
def pin_setup():
    trace = _pin_trace()
    partition = find_filecules(trace)
    return trace, partition, _capacities(trace, partition)


#: (policy, capacity label) -> (counters, first 16 hex digits of the
#: SHA-256 of the hit mask's bytes).
PINS: dict[tuple[str, str], tuple[tuple[int, ...], str]] = {
    ("arc", "1B"): (
        (3259, 268, 12722569, 0, 12722569, 2981), "9f5445b7711b2113"
    ),
    ("arc", "half-largest-filecule"): (
        (3259, 1020, 12722569, 1454176, 11268393, 163), "bf1e21bdd4be1749"
    ),
    ("arc", "2%"): (
        (3259, 2163, 12722569, 6122245, 6600324, 0), "800e60ec4da78885"
    ),
    ("arc", "20%"): (
        (3259, 3108, 12722569, 11891909, 830660, 0), "347da5734b1344b5"
    ),
    ("file-belady-min", "1B"): (
        (3259, 268, 12722569, 0, 12722569, 2982), "9f5445b7711b2113"
    ),
    ("file-belady-min", "half-largest-filecule"): (
        (3259, 1588, 12722569, 2257446, 10465123, 275), "2e62bd97cc47b129"
    ),
    ("file-belady-min", "2%"): (
        (3259, 2639, 12722569, 8722021, 4000548, 67), "113938c73df946df"
    ),
    ("file-belady-min", "20%"): (
        (3259, 3108, 12722569, 11891909, 830660, 11), "347da5734b1344b5"
    ),
    ("file-bundle", "1B"): (
        (3259, 268, 12722569, 0, 12722569, 2981), "9f5445b7711b2113"
    ),
    ("file-bundle", "half-largest-filecule"): (
        (3259, 1219, 12722569, 1112279, 11610290, 163), "f67e7bd708203181"
    ),
    ("file-bundle", "2%"): (
        (3259, 2840, 12722569, 5886393, 6836176, 0), "527e099e1ef7b4df"
    ),
    ("file-bundle", "20%"): (
        (3259, 3108, 12722569, 11891909, 830660, 0), "347da5734b1344b5"
    ),
    ("file-fifo", "1B"): (
        (3259, 268, 12722569, 0, 12722569, 2981), "9f5445b7711b2113"
    ),
    ("file-fifo", "half-largest-filecule"): (
        (3259, 730, 12722569, 1044107, 11678462, 163), "004e8a4cf28270a8"
    ),
    ("file-fifo", "2%"): (
        (3259, 1884, 12722569, 5468273, 7254296, 0), "402ec7c9ecf3a284"
    ),
    ("file-fifo", "20%"): (
        (3259, 3108, 12722569, 11891909, 830660, 0), "347da5734b1344b5"
    ),
    ("file-lfu", "1B"): (
        (3259, 268, 12722569, 0, 12722569, 2981), "9f5445b7711b2113"
    ),
    ("file-lfu", "half-largest-filecule"): (
        (3259, 1357, 12722569, 1894782, 10827787, 163), "cc481426fe805f9e"
    ),
    ("file-lfu", "2%"): (
        (3259, 2408, 12722569, 7475505, 5247064, 0), "b3e439fba3165608"
    ),
    ("file-lfu", "20%"): (
        (3259, 3108, 12722569, 11891909, 830660, 0), "347da5734b1344b5"
    ),
    ("file-lru", "1B"): (
        (3259, 268, 12722569, 0, 12722569, 2981), "9f5445b7711b2113"
    ),
    ("file-lru", "half-largest-filecule"): (
        (3259, 786, 12722569, 1119205, 11603364, 163), "f437a2f04ef36875"
    ),
    ("file-lru", "2%"): (
        (3259, 2089, 12722569, 5898198, 6824371, 0), "9d6ac332e7db6775"
    ),
    ("file-lru", "20%"): (
        (3259, 3108, 12722569, 11891909, 830660, 0), "347da5734b1344b5"
    ),
    ("filecule-belady-min", "1B"): (
        (3259, 268, 12722569, 0, 12722569, 2982), "9f5445b7711b2113"
    ),
    ("filecule-belady-min", "half-largest-filecule"): (
        (3259, 1631, 12722569, 2417872, 10490878, 279), "aaa95e977c2e7d0d"
    ),
    ("filecule-belady-min", "2%"): (
        (3259, 2653, 12722569, 9121710, 4045817, 67), "7f113e2bc1acb5a6"
    ),
    ("filecule-belady-min", "20%"): (
        (3259, 3113, 12722569, 11961275, 830660, 11), "49a82167d862fabe"
    ),
    ("filecule-gds", "1B"): (
        (3259, 268, 12722569, 0, 12722569, 2981), "9f5445b7711b2113"
    ),
    ("filecule-gds", "half-largest-filecule"): (
        (3259, 1460, 12722569, 1536103, 11581881, 172), "2a7117b5c82a7916"
    ),
    ("filecule-gds", "2%"): (
        (3259, 2890, 12722569, 6274746, 6999639, 0), "ce6cc1fde97aa0f0"
    ),
    ("filecule-gds", "20%"): (
        (3259, 3113, 12722569, 11961275, 830660, 0), "49a82167d862fabe"
    ),
    ("filecule-lfu", "1B"): (
        (3259, 268, 12722569, 0, 12722569, 2981), "9f5445b7711b2113"
    ),
    ("filecule-lfu", "half-largest-filecule"): (
        (3259, 1386, 12722569, 2028545, 10847952, 172), "c60a2555f826cddd"
    ),
    ("filecule-lfu", "2%"): (
        (3259, 2409, 12722569, 7837973, 5377158, 0), "2cc6bbe0ad9896fa"
    ),
    ("filecule-lfu", "20%"): (
        (3259, 3113, 12722569, 11961275, 830660, 0), "49a82167d862fabe"
    ),
    ("filecule-lru", "1B"): (
        (3259, 268, 12722569, 0, 12722569, 2981), "9f5445b7711b2113"
    ),
    ("filecule-lru", "half-largest-filecule"): (
        (3259, 955, 12722569, 1528788, 11575998, 172), "6ab12490ea3e9414"
    ),
    ("filecule-lru", "2%"): (
        (3259, 2131, 12722569, 6465340, 6822059, 0), "99da28184b26317d"
    ),
    ("filecule-lru", "20%"): (
        (3259, 3113, 12722569, 11961275, 830660, 0), "49a82167d862fabe"
    ),
    ("greedy-dual-size", "1B"): (
        (3259, 268, 12722569, 0, 12722569, 2981), "9f5445b7711b2113"
    ),
    ("greedy-dual-size", "half-largest-filecule"): (
        (3259, 1307, 12722569, 1143323, 11579246, 163), "3335533c5d1f7625"
    ),
    ("greedy-dual-size", "2%"): (
        (3259, 2892, 12722569, 5805221, 6917348, 0), "ec4cd7c5a111888c"
    ),
    ("greedy-dual-size", "20%"): (
        (3259, 3108, 12722569, 11891909, 830660, 0), "347da5734b1344b5"
    ),
    ("group-prefetch-lru", "1B"): (
        (3259, 270, 12722569, 0, 12722569, 2981), "b0ed81dfc55a34e2"
    ),
    ("group-prefetch-lru", "half-largest-filecule"): (
        (3259, 1524, 12722569, 2497879, 22643492, 163), "2acbc487dc998345"
    ),
    ("group-prefetch-lru", "2%"): (
        (3259, 2294, 12722569, 7570382, 35382863, 0), "8dae5bce155996e6"
    ),
    ("group-prefetch-lru", "20%"): (
        (3259, 3228, 12722569, 12451844, 848024, 0), "8135a5ccb6627384"
    ),
    ("landlord", "1B"): (
        (3259, 268, 12722569, 0, 12722569, 2981), "9f5445b7711b2113"
    ),
    ("landlord", "half-largest-filecule"): (
        (3259, 744, 12722569, 1119205, 11603364, 163), "7f4e39bdfa55fabd"
    ),
    ("landlord", "2%"): (
        (3259, 2030, 12722569, 5898198, 6824371, 0), "c24fc273f4a5b9ba"
    ),
    ("landlord", "20%"): (
        (3259, 3108, 12722569, 11891909, 830660, 0), "347da5734b1344b5"
    ),
    ("largest-first", "1B"): (
        (3259, 268, 12722569, 0, 12722569, 2981), "9f5445b7711b2113"
    ),
    ("largest-first", "half-largest-filecule"): (
        (3259, 1353, 12722569, 942132, 11780437, 163), "e623932311b1ec8d"
    ),
    ("largest-first", "2%"): (
        (3259, 2924, 12722569, 5435668, 7286901, 0), "16d36a0d22a87622"
    ),
    ("largest-first", "20%"): (
        (3259, 3108, 12722569, 11891909, 830660, 0), "347da5734b1344b5"
    ),
    ("working-set-prefetch", "1B"): (
        (3259, 269, 12722569, 0, 12722569, 2981), "e18efb427499f77c"
    ),
    ("working-set-prefetch", "half-largest-filecule"): (
        (3259, 1870, 12722569, 2943548, 11725541, 163), "f75cf04c1e9abc78"
    ),
    ("working-set-prefetch", "2%"): (
        (3259, 2565, 12722569, 8835994, 6831537, 0), "711939a89ea51d27"
    ),
    ("working-set-prefetch", "20%"): (
        (3259, 3199, 12722569, 12388914, 830660, 0), "0ac207587f043d42"
    ),
}


def test_pins_cover_every_policy_and_capacity(pin_setup):
    _, _, capacities = pin_setup
    assert sorted(PINS) == sorted(
        (name, label)
        for name in registry.policy_names()
        for label in capacities
    )


@pytest.mark.parametrize("name", registry.policy_names())
def test_per_access_outcomes_match_the_pins(pin_setup, name):
    trace, partition, capacities = pin_setup
    for label, capacity in capacities.items():
        assert _outcome(trace, partition, name, capacity) == PINS[(name, label)], (
            f"{name} at {label} ({capacity} bytes)"
        )
