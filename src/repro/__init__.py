"""repro — a full reproduction of *Filecules in High-Energy Physics:
Characteristics and Impact on Resource Management* (HPDC 2006).

The package provides:

* :mod:`repro.traces` — SAM-style trace schema, I/O, filters, statistics;
* :mod:`repro.workload` — calibrated synthetic DZero workload generator
  (substitute for the proprietary SAM history traces);
* :mod:`repro.core` — the filecule abstraction: exact, incremental and
  partial-knowledge identification, invariants, dynamics;
* :mod:`repro.cache` — trace-driven cache simulation (file-LRU vs
  filecule-LRU and related-work baselines);
* :mod:`repro.sam` — discrete-event grid substrate (stations, catalog,
  tape/network transfer costs);
* :mod:`repro.transfer` — access-interval concurrency analysis and a
  BitTorrent-style swarm model;
* :mod:`repro.replication` — filecule-aware proactive replication;
* :mod:`repro.analysis` — histograms, popularity/Zipf fitting, reports;
* :mod:`repro.service` — online data-management daemon: live filecule
  identification, cache-advice queries, snapshot/restore, load generator;
* :mod:`repro.experiments` — one runnable module per paper table/figure.

Quickstart::

    from repro import default_config, generate_trace, find_filecules
    trace = generate_trace(default_config(), seed=42)
    filecules = find_filecules(trace)
    print(len(filecules), "filecules over", trace.n_files, "files")
"""

from repro.traces import Trace
from repro.workload import (
    WorkloadConfig,
    default_config,
    generate_trace,
    paper_config,
    small_config,
    tiny_config,
)
from repro.core import (
    Filecule,
    FileculePartition,
    IncrementalFileculeIdentifier,
    find_filecules,
)

__version__ = "1.26.0"

__all__ = [
    "Trace",
    "WorkloadConfig",
    "default_config",
    "paper_config",
    "small_config",
    "tiny_config",
    "generate_trace",
    "Filecule",
    "FileculePartition",
    "IncrementalFileculeIdentifier",
    "find_filecules",
    "__version__",
]
