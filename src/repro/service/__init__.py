"""Online filecule data-management service (paper §6, deployed form).

The paper argues that a data-management middleware cannot identify
filecules offline: it must maintain them "adaptively and dynamically" as
job submissions stream in, and use them for cache admission and prefetch
decisions.  This package is that serving layer — the online counterpart
of :mod:`repro.core` — structured like the on-demand storage caches that
succeeded SAM (XCache-style services fed by a live job stream):

* :mod:`repro.service.protocol` — newline-delimited-JSON wire protocol
  (versioned requests, typed errors);
* :mod:`repro.service.state` — single-writer service state: the exact
  incremental filecule partition, per-site cache advisors backed by a
  configurable :mod:`repro.cache` policy, and JSONL snapshot/restore;
* :mod:`repro.service.server` — asyncio daemon: one protocol object
  per connection (line framing, per-connection backpressure) and one
  drain callback as the state's single writer (cross-connection request
  batching, one write per connection per drain), with graceful
  shutdown;
* :mod:`repro.service.cluster` — pre-fork ``SO_REUSEPORT`` multi-worker
  supervisor with crash restarts and coordinated shutdown
  (``repro-serve serve --workers N``);
* :mod:`repro.service.aggregate` — cross-worker read side: merges
  partitions (exactly, via the §6 partial-knowledge meet), stats and
  metric registries over per-worker admin ports;
* :mod:`repro.service.client` — sync and async clients, both pipelined;
* :mod:`repro.service.loadgen` — concurrent load generator replaying a
  :class:`~repro.traces.Trace` or synthetic stream at a target rate —
  optionally pipelined and multi-process — reporting throughput and
  latency percentiles;
Metrics (counters, gauges and the log-bucketed latency histograms behind
the ``stats`` and ``metrics`` queries, the latter in Prometheus text
format) live in :mod:`repro.obs.metrics` — see
``docs/OBSERVABILITY.md``.  The old ``repro.service.metrics`` shim is
gone; this package re-exports the common names for convenience.

Typical use (in one process, e.g. for tests and benchmarks)::

    from repro.service import FileculeServer, ServiceState, run_load_sync

    server = FileculeServer(ServiceState(policy="lru"), host="127.0.0.1")
    ...

Operationally: ``repro-serve serve`` starts the daemon and
``repro-serve loadgen`` drives it; see ``docs/SERVICE.md``.
"""

from repro.service.protocol import (
    PROTOCOL_VERSION,
    ProtocolError,
    ServiceError,
    decode_request,
    encode_request,
    encode_response,
    error_response,
    ok_response,
)
from repro.obs.metrics import (
    PROMETHEUS_CONTENT_TYPE,
    LatencyHistogram,
    MetricsRegistry,
)
from repro.service.state import (
    ServiceState,
    SnapshotError,
)
from repro.service.server import FileculeServer
from repro.service.cluster import (
    ClusterConfig,
    ClusterServer,
    pick_free_port,
    pick_free_port_block,
)
from repro.service.aggregate import (
    aggregate_partition,
    aggregate_registry,
    aggregate_stats,
    merge_partition_payloads,
    worker_ports,
)
from repro.service.client import AsyncServiceClient, ServiceClient
from repro.service.loadgen import (
    LoadReport,
    jobs_from_trace,
    merge_reports,
    run_load,
    run_load_procs,
    run_load_sync,
)

__all__ = [
    "PROTOCOL_VERSION",
    "ProtocolError",
    "ServiceError",
    "decode_request",
    "encode_request",
    "encode_response",
    "error_response",
    "ok_response",
    "PROMETHEUS_CONTENT_TYPE",
    "LatencyHistogram",
    "MetricsRegistry",
    "ServiceState",
    "SnapshotError",
    "FileculeServer",
    "ClusterConfig",
    "ClusterServer",
    "pick_free_port",
    "pick_free_port_block",
    "aggregate_partition",
    "aggregate_registry",
    "aggregate_stats",
    "merge_partition_payloads",
    "worker_ports",
    "AsyncServiceClient",
    "ServiceClient",
    "LoadReport",
    "jobs_from_trace",
    "merge_reports",
    "run_load",
    "run_load_procs",
    "run_load_sync",
]
