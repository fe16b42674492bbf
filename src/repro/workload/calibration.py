"""Paper-calibrated generator presets.

``paper_config()`` encodes the DZero numbers from the paper:

* Table 1 — per-tier user/job/file counts, mean input per job and mean
  wall time per job;
* Table 2 — per-domain sites/nodes/users and the extreme activity skew;
* §1/§2 — 27-month window, ~108 files per job on average, raw events of
  250 KB packed into ~1 GB raw files.

Mean file sizes per tier are not printed in the paper; they are solved
from Table 1 as (input per job) / (files per job per tier), with the
files-per-job split chosen so the overall mean lands near the reported
108.  These derived constants are documented inline.

At seed 7 the paper tier has ≈ 114k traced jobs, ≈ 1M files and 11.3M
accesses.  On one vCPU of a 2-vCPU Xeon host it generates in 0.45–0.52 s
at a 289 MB peak RSS, and a Figure-10 run on it
(``repro-experiments fig10 --scale paper``, trace from the store) takes
5.9 s at a 671 MB peak; the scaled presets below are what the tests and
benchmarks use by default.
"""

from __future__ import annotations

from functools import lru_cache

from repro.util.units import GB, MB
from repro.workload.config import DomainConfig, TierConfig, WorkloadConfig

#: The paper's trace window: January 2003 – May 2005.
PAPER_SPAN_DAYS: float = 820.0

#: Traced job counts per tier, Table 1.
_JOBS_RECONSTRUCTED = 17_898
_JOBS_ROOTTUPLE = 1_307
_JOBS_THUMBNAIL = 94_625
_JOBS_OTHER = 120_962

#: Dataset counts and the length-distribution tail (sigma = 1.6) are the
#: two structural calibration knobs: together they set the filecule/file
#: ratio (Table 2: ~0.10), the request-weighted files-per-filecule that
#: bounds Figure 10's large-cache factor (paper: 4-5x), and a heavy
#: filecule-size tail whose largest member scales to the paper's 17 TB.
#: Derived per-tier mean files per job (see module docstring): chosen so
#: 36 GB / 60 files ≈ 620 MB reconstructed files, 83 GB / 80 ≈ 1.0 GB
#: root-tuples, 54 GB / 120 ≈ 450 MB thumbnails, and the traced-job mean
#: is (17898·60 + 1307·80 + 94625·120) / 113830 ≈ 110 ≈ the paper's 108.
_FILES_PER_JOB = {"reconstructed": 60.0, "root-tuple": 80.0, "thumbnail": 120.0}


@lru_cache(maxsize=None)
def paper_config() -> WorkloadConfig:
    """Full-scale configuration calibrated to the paper's Tables 1–2."""
    tiers = (
        TierConfig(
            name="reconstructed",
            n_files=515_677,
            n_datasets=30_000,
            # 36,371 MB/job over ~60 files/job ⇒ ~620 MB mean file
            file_size_mean=620 * MB,
            file_size_sigma=0.45,
            file_size_min=32 * MB,
            file_size_max=2 * GB,
            dataset_len_mean=_FILES_PER_JOB["reconstructed"],
            dataset_len_sigma=1.6,
            dataset_len_max=20_000,
            job_weight=_JOBS_RECONSTRUCTED,
            duration_hours_mean=11.01,
        ),
        TierConfig(
            name="root-tuple",
            n_files=60_719,
            n_datasets=3_500,
            # 83,041 MB/job over ~80 files/job ⇒ ~1.0 GB mean file
            file_size_mean=1.0 * GB,
            file_size_sigma=0.35,
            file_size_min=64 * MB,
            file_size_max=4 * GB,
            dataset_len_mean=_FILES_PER_JOB["root-tuple"],
            dataset_len_sigma=1.6,
            dataset_len_max=10_000,
            job_weight=_JOBS_ROOTTUPLE,
            duration_hours_mean=13.68,
        ),
        TierConfig(
            name="thumbnail",
            n_files=428_610,
            n_datasets=100_000,
            # 53,619 MB/job over ~120 files/job ⇒ ~450 MB mean file
            file_size_mean=450 * MB,
            file_size_sigma=0.5,
            file_size_min=16 * MB,
            file_size_max=2 * GB,
            dataset_len_mean=_FILES_PER_JOB["thumbnail"],
            dataset_len_sigma=1.6,
            dataset_len_max=30_000,
            job_weight=_JOBS_THUMBNAIL,
            duration_hours_mean=4.89,
        ),
    )
    # Table 2: domain rows (sites, nodes, users).  User weights follow the
    # paper's per-domain user counts; .gov's activity boost reproduces the
    # three-orders-of-magnitude job skew of the Jobs column.
    domains = (
        DomainConfig(".gov", n_sites=1, n_nodes=12, user_weight=466, activity_boost=6.0),
        DomainConfig(".de", n_sites=4, n_nodes=5, user_weight=23, activity_boost=2.0),
        DomainConfig(".uk", n_sites=4, n_nodes=8, user_weight=21, activity_boost=1.5),
        DomainConfig(".edu", n_sites=12, n_nodes=18, user_weight=32),
        DomainConfig(".cz", n_sites=1, n_nodes=1, user_weight=1, activity_boost=2.0),
        DomainConfig(".ca", n_sites=2, n_nodes=5, user_weight=4),
        DomainConfig(".fr", n_sites=1, n_nodes=2, user_weight=11),
        DomainConfig(".nl", n_sites=2, n_nodes=3, user_weight=8),
        DomainConfig(".mx", n_sites=1, n_nodes=1, user_weight=1),
        DomainConfig(".br", n_sites=2, n_nodes=2, user_weight=2),
        DomainConfig(".cn", n_sites=1, n_nodes=1, user_weight=2),
        DomainConfig(".in", n_sites=1, n_nodes=1, user_weight=2),
    )
    return WorkloadConfig(
        tiers=tiers,
        domains=domains,
        n_users=561,
        n_traced_jobs=_JOBS_RECONSTRUCTED + _JOBS_ROOTTUPLE + _JOBS_THUMBNAIL,
        n_other_jobs=_JOBS_OTHER,
        span_days=PAPER_SPAN_DAYS,
        name="paper",
    )


@lru_cache(maxsize=None)
def grown_config() -> WorkloadConfig:
    """Stress preset: the paper workload grown 10x.

    ≈ 1.1M traced jobs over ≈ 10M files, 119.7M accesses at seed 7 —
    the forward-looking tier for scheduler-scale stress runs (the
    paper's DZero numbers kept growing after the trace window closed).
    Only the benchmark harness and the trace store touch this; go
    through :func:`repro.workload.store.cached_trace` so the generation
    cost (8.0 s at a 2.65 GB peak RSS on one vCPU) is paid once per
    machine.
    """
    return paper_config().scaled(10, name="grown")


@lru_cache(maxsize=None)
def default_config() -> WorkloadConfig:
    """The benchmark-scale preset: paper structure at 5% population.

    ≈ 5.7k traced jobs, ≈ 50k files, ≈ 650k accesses — identification,
    cache sweeps and transfer analyses all run in seconds on a laptop
    while preserving every qualitative result.
    """
    return paper_config().scaled(0.05, name="default")


@lru_cache(maxsize=None)
def small_config() -> WorkloadConfig:
    """Integration-test preset: ≈ 600 traced jobs, ≈ 5k files."""
    return paper_config().scaled(0.005, name="small")


@lru_cache(maxsize=None)
def tiny_config() -> WorkloadConfig:
    """Unit-test preset: ≈ 120 traced jobs, ≈ 1k files; runs in ~0.1 s."""
    return paper_config().scaled(0.001, name="tiny")


#: The ``--scale`` presets every CLI offers, by name.  The experiments
#: add ``grown`` (:mod:`repro.experiments.base`).
SCALES = {
    "default": default_config,
    "small": small_config,
    "tiny": tiny_config,
    "paper": paper_config,
}
