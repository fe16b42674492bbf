"""Cross-worker aggregation over per-worker admin HTTP endpoints.

A pre-fork cluster (:mod:`repro.service.cluster`) has no shared state:
worker ``k`` serves its own view on admin port ``base + k``.  This module
is the read side — it fans requests out over those ports and merges the
answers into one cluster-wide view:

* **partition** — per-worker partitions merge with the §6 meet
  (:func:`merge_partition_payloads`); because each worker observed a
  disjoint slice of the job stream, the merge equals what a single
  observer of everything would have identified;
* **metrics** — per-worker ``/registry`` payloads (full-fidelity
  :meth:`MetricsRegistry.state_dict`, bucket-exact histograms) rebuild
  into registries and fold together with :meth:`MetricsRegistry.merge`;
* **stats** — scalar counts sum; per-site advisor counters sum (with
  hit rates recomputed from the summed counts, since the same site's
  traffic reaches every worker the kernel routed its connections to).

Used by ``repro-top --workers N``, ``repro-serve metrics --worker``/
``--aggregate`` and the service benchmark's multi-worker equivalence
gate.
"""

from __future__ import annotations

import json
import urllib.request

from repro.core.filecule import Filecule, FileculePartition
from repro.core.merge import merge_all
from repro.obs.metrics import MetricsRegistry
from repro.obs.timeseries import TimeSeriesRecorder
from repro.service.state import partition_checksum

#: Per-request timeout for one admin fetch.
FETCH_TIMEOUT = 5.0


def fetch_json(host: str, port: int, path: str, timeout: float = FETCH_TIMEOUT):
    """GET ``http://host:port{path}`` and decode the JSON body."""
    url = f"http://{host}:{port}{path}"
    with urllib.request.urlopen(url, timeout=timeout) as response:
        return json.loads(response.read().decode())


def fetch_text(host: str, port: int, path: str, timeout: float = FETCH_TIMEOUT) -> str:
    """GET ``http://host:port{path}`` and return the raw text body."""
    url = f"http://{host}:{port}{path}"
    with urllib.request.urlopen(url, timeout=timeout) as response:
        return response.read().decode()


def worker_ports(base: int, workers: int) -> list[int]:
    """The admin-port layout of a ``--workers N --metrics-port base`` run."""
    return [base + index for index in range(workers)]


def merge_partition_payloads(payloads: list[dict]) -> dict:
    """Merge ``partition()`` payloads from disjoint observers.

    ``payloads`` are the wire-shaped results of the ``partition`` op —
    ``{"classes": [{"files": [...], "requests": n}, ...]}`` — one per
    cluster worker (``None`` entries are skipped).  Returns a payload of
    the same shape whose grouping is the meet of the inputs; because each
    job was observed by exactly one input, the meet equals the partition
    a single observer of the whole stream would have produced (and the
    summed request counts are exact).
    """
    payloads = [p for p in payloads if p is not None]
    if not payloads:
        return {"n_classes": 0, "checksum": partition_checksum([]), "classes": []}
    n_files = 0
    for payload in payloads:
        for cls in payload["classes"]:
            if cls["files"]:
                n_files = max(n_files, max(cls["files"]) + 1)
    partitions = []
    for payload in payloads:
        filecules = [
            Filecule(
                filecule_id=i,
                file_ids=cls["files"],
                n_requests=int(cls["requests"]),
                size_bytes=0,
            )
            for i, cls in enumerate(payload["classes"])
        ]
        partitions.append(FileculePartition(filecules, n_files))
    merged = merge_all(partitions)
    classes = [
        {"files": fc.file_ids.tolist(), "requests": fc.n_requests}
        for fc in merged
    ]
    classes.sort(key=lambda c: c["files"])
    return {
        "n_classes": len(classes),
        "checksum": partition_checksum(c["files"] for c in classes),
        "classes": classes,
    }


def aggregate_partition(host: str, ports: list[int]) -> dict:
    """Merged partition payload across all workers' ``/partition`` views."""
    return merge_partition_payloads(
        [fetch_json(host, port, "/partition") for port in ports]
    )


def aggregate_registry(host: str, ports: list[int]) -> MetricsRegistry:
    """One registry folding every worker's ``/registry`` state together."""
    merged = MetricsRegistry()
    merged.merge(
        *(
            MetricsRegistry.from_state_dict(fetch_json(host, port, "/registry"))
            for port in ports
        )
    )
    return merged


def _merge_sites(per_worker_sites: list[dict]) -> dict:
    """Sum per-site advisor counters across workers; recompute rates.

    With kernel connection balancing, one site's jobs reach several
    workers, each modelling its own advisor cache for that site — so
    requests/hits/bytes sum, and the rates are recomputed from the sums.
    Occupancy (``used_bytes``) also sums: it is the total footprint the
    site's traffic pinned across all worker cache models.
    """
    merged: dict[str, dict] = {}
    for sites in per_worker_sites:
        for site, adv in sites.items():
            into = merged.get(site)
            if into is None:
                merged[site] = {
                    "policy": adv["policy"],
                    "requests": adv["requests"],
                    "hits": adv["hits"],
                    "used_bytes": adv["used_bytes"],
                    "_miss_bytes": adv["byte_miss_rate"] * _requested_bytes(adv),
                    "_requested_bytes": _requested_bytes(adv),
                }
            else:
                into["requests"] += adv["requests"]
                into["hits"] += adv["hits"]
                into["used_bytes"] += adv["used_bytes"]
                into["_miss_bytes"] += adv["byte_miss_rate"] * _requested_bytes(adv)
                into["_requested_bytes"] += _requested_bytes(adv)
    for adv in merged.values():
        requests = adv["requests"]
        requested_bytes = adv.pop("_requested_bytes")
        miss_bytes = adv.pop("_miss_bytes")
        adv["hit_rate"] = adv["hits"] / requests if requests else 0.0
        adv["byte_miss_rate"] = (
            miss_bytes / requested_bytes if requested_bytes else 0.0
        )
    return dict(sorted(merged.items(), key=lambda kv: int(kv[0])))


def _requested_bytes(adv: dict) -> float:
    # The stats payload exposes rates, not raw byte totals; weight the
    # byte-miss-rate average by request count as the best available proxy
    # when workers did not report byte volumes.
    return float(adv.get("requested_bytes", adv["requests"]))


def aggregate_history(host: str, ports: list[int]) -> dict:
    """Cluster-wide ``history`` payload merged from every worker.

    Per-worker flight-recorder series rebuild into
    :class:`~repro.obs.timeseries.TimeSeriesRecorder` instances and fold
    with the slot-aligned :meth:`~repro.obs.timeseries.TimeSeriesRecorder.merge`
    (sums add, means combine weighted, maxima max) — so the cluster view
    has the same shape a single worker serves, and ``repro-top
    --workers`` renders it unchanged.  Health events concatenate in
    timestamp order.
    """
    payloads = [fetch_json(host, port, "/history") for port in ports]
    recorders = [TimeSeriesRecorder.from_state_dict(p) for p in payloads]
    merged = recorders[0].merge(*recorders[1:]) if recorders else TimeSeriesRecorder()
    events = sorted(
        (
            event
            for payload in payloads
            for event in payload.get("health", {}).get("events", [])
        ),
        key=lambda e: e.get("ts", 0.0),
    )
    result = merged.state_dict()
    result["enabled"] = any(p.get("enabled") for p in payloads)
    result["health"] = {
        "enabled": any(p.get("health", {}).get("enabled") for p in payloads),
        "events": events,
    }
    result["workers"] = len(payloads)
    return result


def aggregate_spans(host: str, ports: list[int]) -> dict:
    """Every worker's live span ring buffer, concatenated in time order.

    Each span dict gains a ``worker`` key naming its origin; ``dropped``
    and ``capacity`` sum across workers.
    """
    payloads = [fetch_json(host, port, "/spans") for port in ports]
    spans: list[dict] = []
    for index, payload in enumerate(payloads):
        worker = payload.get("worker", index)
        for span in payload.get("spans", []):
            span.setdefault("worker", worker)
            spans.append(span)
    spans.sort(key=lambda s: s.get("ts", 0.0))
    return {
        "capacity": sum(p.get("capacity", 0) for p in payloads),
        "dropped": sum(p.get("dropped", 0) for p in payloads),
        "count": len(spans),
        "spans": spans,
        "workers": len(payloads),
    }


def aggregate_stats(host: str, ports: list[int]) -> dict:
    """Cluster-wide ``stats`` payload merged from every worker.

    Shape-compatible with the single-server ``stats`` op result (so
    ``repro-top`` renders it unchanged), plus a ``workers`` list with
    each worker's contribution.
    """
    per_worker = [fetch_json(host, port, "/stats") for port in ports]
    partition = merge_partition_payloads(
        [fetch_json(host, port, "/partition") for port in ports]
    )
    registry = aggregate_registry(host, ports)
    files_observed = len(
        {f for cls in partition["classes"] for f in cls["files"]}
    )
    top = sorted(
        partition["classes"], key=lambda c: -c["requests"]
    )[:10]
    return {
        "policy": per_worker[0]["policy"] if per_worker else "?",
        "capacity_bytes": per_worker[0]["capacity_bytes"] if per_worker else 0,
        "jobs_observed": sum(s["jobs_observed"] for s in per_worker),
        "files_observed": files_observed,
        "n_classes": partition["n_classes"],
        "partition_checksum": partition["checksum"],
        "top_filecules": [
            {
                "class_id": i,
                "files": cls["files"],
                "n_files": len(cls["files"]),
                "requests": cls["requests"],
                "bytes": 0,  # sizes live in worker catalogs, not merged here
            }
            for i, cls in enumerate(top)
        ],
        "sites": _merge_sites([s["sites"] for s in per_worker]),
        "server": registry.snapshot(),
        "workers": [
            {
                "port": port,
                "jobs_observed": s["jobs_observed"],
                "n_classes": s["n_classes"],
            }
            for port, s in zip(ports, per_worker)
        ],
    }


__all__ = [
    "fetch_json",
    "fetch_text",
    "worker_ports",
    "merge_partition_payloads",
    "aggregate_partition",
    "aggregate_registry",
    "aggregate_history",
    "aggregate_spans",
    "aggregate_stats",
    "FETCH_TIMEOUT",
]
