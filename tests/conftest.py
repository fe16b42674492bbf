"""Shared fixtures: hand-built micro traces and generated workloads."""

from __future__ import annotations

import contextlib
from unittest import mock

import numpy as np
import pytest

from repro.cache import native
from repro.core.identify import find_filecules
from repro.traces.trace import Trace
from repro.workload.calibration import small_config, tiny_config
from repro.workload.generator import generate_trace

#: The batch kernel's two residency loops: the compiled one and the
#: Python fallback.
RESIDENCY_LOOPS = ("compiled", "python")


def residency_loop_of(loop: str):
    """Context in which the batch kernel runs ``loop``.

    ``"python"`` patches the loader to report no library, which is what
    the kernel sees where the C loop cannot be built; ``"compiled"``
    leaves the loader alone.
    """
    if loop == "python":
        return mock.patch.object(native, "residency_loop", lambda: None)
    return contextlib.nullcontext()


def make_trace(
    jobs: list[list[int]],
    n_files: int | None = None,
    file_sizes: list[int] | None = None,
    job_users: list[int] | None = None,
    job_nodes: list[int] | None = None,
    job_starts: list[float] | None = None,
    job_durations: list[float] | None = None,
    job_tiers: list[int] | None = None,
    file_tiers: list[int] | None = None,
    n_users: int | None = None,
    node_sites: list[int] | None = None,
    node_domains: list[int] | None = None,
    user_domains: list[int] | None = None,
    site_names: list[str] | None = None,
    domain_names: list[str] | None = None,
) -> Trace:
    """Build a small trace from a list of per-job file-id lists.

    Defaults: one user, one node/site/domain, unit-size files, jobs one
    hour long starting at hours 0, 1, 2, ...  Every parameter can be
    overridden for targeted scenarios.
    """
    n_jobs = len(jobs)
    if n_files is None:
        n_files = max((max(fs) for fs in jobs if fs), default=-1) + 1
    file_sizes = file_sizes if file_sizes is not None else [1] * n_files
    job_users = job_users if job_users is not None else [0] * n_jobs
    job_nodes = job_nodes if job_nodes is not None else [0] * n_jobs
    job_starts = (
        job_starts if job_starts is not None else [3600.0 * j for j in range(n_jobs)]
    )
    job_durations = (
        job_durations if job_durations is not None else [3600.0] * n_jobs
    )
    job_tiers = job_tiers if job_tiers is not None else [1] * n_jobs
    file_tiers = file_tiers if file_tiers is not None else [1] * n_files
    node_sites = node_sites if node_sites is not None else [0]
    node_domains = node_domains if node_domains is not None else [0]
    if n_users is None:
        n_users = max(job_users, default=0) + 1
    user_domains = user_domains if user_domains is not None else [0] * n_users
    site_names = (
        site_names
        if site_names is not None
        else [f"site{s}" for s in range(max(node_sites) + 1)]
    )
    domain_names = (
        domain_names
        if domain_names is not None
        else [f".d{d}" for d in range(max(max(node_domains), max(user_domains, default=0)) + 1)]
    )

    access_jobs = [j for j, files in enumerate(jobs) for _ in files]
    access_files = [f for files in jobs for f in files]
    return Trace(
        file_sizes=file_sizes,
        file_tiers=file_tiers,
        file_datasets=[0] * n_files,
        job_users=job_users,
        job_nodes=job_nodes,
        job_tiers=job_tiers,
        job_starts=job_starts,
        job_ends=[s + d for s, d in zip(job_starts, job_durations)],
        access_jobs=access_jobs,
        access_files=access_files,
        user_domains=user_domains,
        node_sites=node_sites,
        node_domains=node_domains,
        site_names=site_names,
        domain_names=domain_names,
    )


def unvalidated_trace(access_jobs, access_files) -> Trace:
    """Three files of sizes 10/20/30 and two jobs, built without
    validation, as the store and subsets build traces."""
    return Trace(
        file_sizes=[10, 20, 30],
        file_tiers=[1, 1, 1],
        file_datasets=[0, 0, 0],
        job_users=[0, 0],
        job_nodes=[0, 0],
        job_tiers=[1, 1],
        job_starts=[0.0, 3600.0],
        job_ends=[3600.0, 7200.0],
        access_jobs=access_jobs,
        access_files=access_files,
        user_domains=[0],
        node_sites=[0],
        node_domains=[0],
        site_names=["site0"],
        domain_names=[".d0"],
        canonical=True,
        validate=False,
    )


@pytest.fixture(scope="session")
def tiny_trace() -> Trace:
    """Generated tiny-scale workload (seed 3), shared per session."""
    return generate_trace(tiny_config(), seed=3)


@pytest.fixture(scope="session")
def small_trace() -> Trace:
    """Generated small-scale workload (seed 3), shared per session."""
    return generate_trace(small_config(), seed=3)


@pytest.fixture(scope="session")
def tiny_partition(tiny_trace):
    return find_filecules(tiny_trace)


@pytest.fixture(scope="session")
def small_partition(small_trace):
    return find_filecules(small_trace)


@pytest.fixture()
def classic_trace() -> Trace:
    """Five jobs over eight files with a known filecule structure.

    Signatures: files {0,1} seen by jobs {0,2,4}; {2,3} by jobs {0,1};
    {4} by jobs {1,2}; {5} by job {3}; {6,7} never accessed... except 6
    by job 4.  Expected filecules: {0,1}, {2,3}, {4}, {5}, {6}.
    """
    return make_trace(
        [
            [0, 1, 2, 3],
            [2, 3, 4],
            [0, 1, 4],
            [5],
            [0, 1, 6],
        ],
        n_files=8,
    )
