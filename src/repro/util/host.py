"""Host identification for benchmark artifacts.

Every ``BENCH_*.json`` this repository commits embeds :func:`host_info`
so a reader can tell *what machine* produced the numbers — a 0.63x
"parallel speedup" means something entirely different on one CPU than on
sixteen, and the committed artifacts have historically come from
single-CPU CI-class hosts.
"""

from __future__ import annotations

import os
import platform


def usable_cpus() -> int:
    """The CPUs this process may run on: its affinity mask where the OS
    has one (``taskset`` narrows it), else every installed CPU."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def host_info() -> dict:
    """The fields benchmark artifacts record about the machine."""
    return {
        "cpus": usable_cpus(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "machine": platform.machine(),
    }
