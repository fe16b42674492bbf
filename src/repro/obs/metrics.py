"""Metrics: labeled counters/gauges and log-bucketed latency histograms.

This is the single metrics vocabulary shared by the daemon, the cache
simulators and the experiment drivers (it originated in the service
package; the old ``repro.service.metrics`` import path is gone).

The daemon is the hot path, so recording must be O(1) and allocation-free:
counters are plain ints and latencies land in a fixed geometric bucket
array (20% resolution from 1 µs to ~17 minutes), from which percentiles
are answered by a cumulative walk.  Everything is exposed three ways — the
``stats`` protocol query returns :meth:`MetricsRegistry.snapshot`, the
``metrics`` query (and the optional HTTP endpoint) return
:meth:`MetricsRegistry.expose` in Prometheus text format, and the server
periodically emits :meth:`MetricsRegistry.format_log_line`.

Registries from parallel workers (one per process or per sweep shard)
combine with :meth:`MetricsRegistry.merge`: counters add, gauges add,
histograms merge bucket-wise — so a fan-out run reports one registry.
"""

from __future__ import annotations

import math
import time
from typing import Iterable

#: Bucket geometry: bucket ``i`` holds latencies in
#: ``[FIRST_BOUND * GROWTH**(i-1), FIRST_BOUND * GROWTH**i)`` seconds.
FIRST_BOUND = 1e-6
GROWTH = 1.2
N_BUCKETS = 128  # upper bound of last finite bucket ≈ 1e-6 * 1.2**128 ≈ 3.8 h

#: Content type of :meth:`MetricsRegistry.expose` output.
PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

#: A metric key: bare name plus a canonical (sorted) label tuple.
_Key = tuple[str, tuple[tuple[str, str], ...]]


def _key(name: str, labels: dict) -> _Key:
    if not labels:
        return (name, ())
    return (name, tuple(sorted((k, str(v)) for k, v in labels.items())))


def _format_key(key: _Key) -> str:
    """Human-readable form used in snapshots: ``name{k="v",...}``."""
    name, labels = key
    if not labels:
        return name
    inner = ",".join(f'{k}="{v}"' for k, v in labels)
    return f"{name}{{{inner}}}"


def _prom_name(name: str) -> str:
    """Sanitize a registry name into a Prometheus metric name."""
    return "".join(c if c.isalnum() or c == "_" else "_" for c in name)


def _prom_labels(labels: tuple[tuple[str, str], ...]) -> str:
    if not labels:
        return ""
    escaped = (
        (k, v.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n"))
        for k, v in labels
    )
    return "{" + ",".join(f'{k}="{v}"' for k, v in escaped) + "}"


def _prom_number(value: float) -> str:
    """Render a sample value the way Prometheus parsers expect."""
    if value == math.inf:
        return "+Inf"
    if value == -math.inf:
        return "-Inf"
    if isinstance(value, int) or (isinstance(value, float) and value.is_integer()):
        return str(int(value))
    return repr(float(value))


class LatencyHistogram:
    """Fixed-size geometric histogram of durations in seconds."""

    __slots__ = ("_buckets", "count", "total", "max", "_min")

    def __init__(self) -> None:
        self._buckets = [0] * (N_BUCKETS + 1)  # +1 overflow bucket
        self.count = 0
        self.total = 0.0
        self.max = 0.0
        self._min = math.inf

    def record(self, seconds: float) -> None:
        if seconds < 0:
            seconds = 0.0
        if seconds < FIRST_BOUND:
            index = 0
        else:
            index = min(
                N_BUCKETS,
                1 + int(math.log(seconds / FIRST_BOUND) / math.log(GROWTH)),
            )
        self._buckets[index] += 1
        self.count += 1
        self.total += seconds
        if seconds > self.max:
            self.max = seconds
        if seconds < self._min:
            self._min = seconds

    def record_many(self, seconds: float, count: int) -> None:
        """Record ``count`` identical observations with one bucket update.

        Equivalent to calling :meth:`record` ``count`` times — the
        coalesced ingest path observes one amortized per-request duration
        for a whole writer batch without paying one call per request.
        """
        if count <= 0:
            return
        if seconds < 0:
            seconds = 0.0
        if seconds < FIRST_BOUND:
            index = 0
        else:
            index = min(
                N_BUCKETS,
                1 + int(math.log(seconds / FIRST_BOUND) / math.log(GROWTH)),
            )
        self._buckets[index] += count
        self.count += count
        self.total += seconds * count
        if seconds > self.max:
            self.max = seconds
        if seconds < self._min:
            self._min = seconds

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    @property
    def min(self) -> float:
        """Smallest recorded duration (0.0 when empty)."""
        return self._min if self.count else 0.0

    def percentile(self, q: float) -> float:
        """Bucket-resolution ``q`` quantile in seconds.

        ``q`` in [0, 1].  Resolution is one bucket (±20%), which is ample
        for p50/p99 reporting; returns 0.0 when empty.  The answer is the
        upper bound of the bucket holding the quantile rank, clamped into
        ``[min, max]`` so reported percentiles never fall outside the
        observed range; ``q=0`` reports the first non-empty bucket (the
        latency floor), not the absolute bucket-0 bound.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if self.count == 0:
            return 0.0
        # A zero rank would be satisfied before any observation is seen
        # (the first, possibly empty, bucket); any rank in (0, 1] walks
        # to the first non-empty bucket instead.
        rank = max(q * self.count, 0.5)
        seen = 0
        bound = self.max
        for i, n in enumerate(self._buckets):
            seen += n
            if seen >= rank:
                bound = self.max if i >= N_BUCKETS else FIRST_BOUND * GROWTH**i
                break
        return min(max(bound, self.min), self.max)

    def merge(self, other: "LatencyHistogram") -> "LatencyHistogram":
        """Fold ``other``'s observations into this histogram (in place)."""
        buckets = self._buckets
        for i, n in enumerate(other._buckets):
            buckets[i] += n
        self.count += other.count
        self.total += other.total
        if other.max > self.max:
            self.max = other.max
        if other._min < self._min:
            self._min = other._min
        return self

    def state_dict(self) -> dict:
        """Full-fidelity serializable form (sparse buckets; JSON-safe).

        Unlike :meth:`snapshot` (which reduces to percentiles), this
        round-trips through :meth:`from_state_dict` without losing bucket
        counts — what lets per-process histograms travel across process
        or HTTP boundaries and still :meth:`merge` exactly.
        """
        return {
            "buckets": {
                str(i): n for i, n in enumerate(self._buckets) if n
            },
            "count": self.count,
            "total": self.total,
            "max": self.max,
            "min": self._min if self.count else None,
        }

    @classmethod
    def from_state_dict(cls, state: dict) -> "LatencyHistogram":
        """Rebuild a histogram from :meth:`state_dict` output.

        Tolerates a missing/invalid ``min`` on a non-empty payload (older
        producers omitted it): the floor is re-derived from the first
        non-empty bucket's lower bound, so ``min``/``percentile`` never
        leak ``inf`` into snapshots or exposition.
        """
        hist = cls()
        for index, n in state.get("buckets", {}).items():
            hist._buckets[int(index)] = int(n)
        hist.count = int(state["count"])
        hist.total = float(state["total"])
        hist.max = float(state["max"])
        raw_min = state.get("min")
        if raw_min is not None and math.isfinite(float(raw_min)):
            hist._min = float(raw_min)
        elif hist.count:
            hist._min = hist._derive_min()
        else:
            hist._min = math.inf
        return hist

    def _derive_min(self) -> float:
        """Lower bound of the first non-empty bucket (a floor estimate)."""
        for i, n in enumerate(self._buckets):
            if n:
                bound = 0.0 if i == 0 else FIRST_BOUND * GROWTH ** (i - 1)
                return min(bound, self.max)
        return 0.0

    def bucket_bounds(self) -> Iterable[tuple[float, int]]:
        """Yield ``(upper_bound_seconds, cumulative_count)`` per non-empty
        bucket, ending with ``(inf, count)`` — Prometheus histogram shape.
        """
        seen = 0
        for i, n in enumerate(self._buckets):
            if n == 0:
                continue
            seen += n
            bound = math.inf if i >= N_BUCKETS else FIRST_BOUND * GROWTH**i
            if bound != math.inf:
                yield (bound, seen)
        yield (math.inf, self.count)

    def snapshot(self) -> dict:
        return {
            "count": self.count,
            "mean_ms": self.mean * 1e3,
            "min_ms": self.min * 1e3,
            "p50_ms": self.percentile(0.50) * 1e3,
            "p90_ms": self.percentile(0.90) * 1e3,
            "p99_ms": self.percentile(0.99) * 1e3,
            "max_ms": self.max * 1e3,
        }


class MetricsRegistry:
    """Named (optionally labeled) counters, gauges and latency histograms.

    Labels are passed as keyword arguments and become part of the metric
    identity::

        registry.inc("requests")                    # unlabeled, as before
        registry.inc("site_requests", site=3)       # labeled counter
        registry.set_gauge("site_hit_rate", 0.91, site=3)
        registry.observe("op.ingest", 0.0012)
    """

    def __init__(self, clock=time.monotonic, namespace: str = "repro") -> None:
        self._clock = clock
        self._started = clock()
        self.namespace = namespace
        self._counters: dict[_Key, int] = {}
        self._gauges: dict[_Key, float] = {}
        self._histograms: dict[_Key, LatencyHistogram] = {}

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def inc(self, name: str, delta: int = 1, **labels) -> None:
        key = _key(name, labels)
        self._counters[key] = self._counters.get(key, 0) + delta

    def get(self, name: str, **labels) -> int:
        return self._counters.get(_key(name, labels), 0)

    def set_gauge(self, name: str, value: float, **labels) -> None:
        self._gauges[_key(name, labels)] = float(value)

    def gauge(self, name: str, **labels) -> float:
        return self._gauges.get(_key(name, labels), 0.0)

    def histogram(self, name: str, **labels) -> LatencyHistogram:
        key = _key(name, labels)
        hist = self._histograms.get(key)
        if hist is None:
            hist = self._histograms[key] = LatencyHistogram()
        return hist

    def observe(self, name: str, seconds: float, **labels) -> None:
        self.histogram(name, **labels).record(seconds)

    def observe_many(
        self, name: str, seconds: float, count: int, **labels
    ) -> None:
        """Record ``count`` identical observations in one call."""
        self.histogram(name, **labels).record_many(seconds, count)

    @property
    def uptime_seconds(self) -> float:
        return self._clock() - self._started

    # ------------------------------------------------------------------
    # combination
    # ------------------------------------------------------------------
    def merge(self, *others: "MetricsRegistry") -> "MetricsRegistry":
        """Fold other registries into this one (counters and gauges add,
        histograms merge bucket-wise); returns ``self`` for chaining.

        This is how parallel workers — one registry per process or per
        sweep shard — combine into a single report.  Uptime stays this
        registry's own.
        """
        for other in others:
            for key, value in other._counters.items():
                self._counters[key] = self._counters.get(key, 0) + value
            for key, value in other._gauges.items():
                self._gauges[key] = self._gauges.get(key, 0.0) + value
            for key, hist in other._histograms.items():
                name, labels = key
                self.histogram(name, **dict(labels)).merge(hist)
        return self

    # ------------------------------------------------------------------
    # serialization (cross-process / cross-worker aggregation)
    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        """Full-fidelity JSON-safe form of every metric in the registry.

        This is the cross-worker aggregation wire format: each worker of
        a cluster daemon serves its registry's ``state_dict`` over its
        admin endpoint, and an aggregator rebuilds them with
        :meth:`from_state_dict` and folds them together with
        :meth:`merge` — bucket-exact, unlike merging rendered
        percentiles.
        """
        return {
            "namespace": self.namespace,
            "uptime_seconds": self.uptime_seconds,
            "counters": [
                [name, list(labels), value]
                for (name, labels), value in sorted(self._counters.items())
            ],
            "gauges": [
                [name, list(labels), value]
                for (name, labels), value in sorted(self._gauges.items())
            ],
            "histograms": [
                [name, list(labels), hist.state_dict()]
                for (name, labels), hist in sorted(self._histograms.items())
            ],
        }

    @classmethod
    def from_state_dict(cls, state: dict) -> "MetricsRegistry":
        """Rebuild a registry from :meth:`state_dict` output.

        Uptime restarts at zero (it is a property of the local clock, not
        of the serialized observations).
        """
        registry = cls(namespace=state.get("namespace", "repro"))
        for name, labels, value in state.get("counters", []):
            registry._counters[(name, tuple(tuple(kv) for kv in labels))] = int(
                value
            )
        for name, labels, value in state.get("gauges", []):
            registry._gauges[(name, tuple(tuple(kv) for kv in labels))] = float(
                value
            )
        for name, labels, hist_state in state.get("histograms", []):
            registry._histograms[
                (name, tuple(tuple(kv) for kv in labels))
            ] = LatencyHistogram.from_state_dict(hist_state)
        return registry

    # ------------------------------------------------------------------
    # exposition
    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        snap = {
            "uptime_seconds": self.uptime_seconds,
            "counters": {
                _format_key(key): value
                for key, value in sorted(self._counters.items())
            },
            "latency": {
                _format_key(key): hist.snapshot()
                for key, hist in sorted(self._histograms.items())
            },
        }
        if self._gauges:
            snap["gauges"] = {
                _format_key(key): value
                for key, value in sorted(self._gauges.items())
            }
        return snap

    def expose(self) -> str:
        """Render the registry in Prometheus text exposition format.

        Counters become ``<ns>_<name>_total``, gauges ``<ns>_<name>``,
        histograms ``<ns>_<name>_seconds`` with cumulative ``_bucket``
        lines (only non-empty buckets plus ``+Inf`` are emitted — the
        cumulative form stays valid and the payload stays small).
        """
        ns = self.namespace
        lines: list[str] = []
        lines.append(f"# HELP {ns}_uptime_seconds Seconds since registry creation.")
        lines.append(f"# TYPE {ns}_uptime_seconds gauge")
        lines.append(f"{ns}_uptime_seconds {_prom_number(self.uptime_seconds)}")

        by_name: dict[str, list[_Key]] = {}
        for key in self._counters:
            by_name.setdefault(key[0], []).append(key)
        for base in sorted(by_name):
            metric = f"{ns}_{_prom_name(base)}_total"
            lines.append(f"# TYPE {metric} counter")
            for key in sorted(by_name[base]):
                lines.append(
                    f"{metric}{_prom_labels(key[1])} "
                    f"{_prom_number(self._counters[key])}"
                )

        by_name = {}
        for key in self._gauges:
            by_name.setdefault(key[0], []).append(key)
        for base in sorted(by_name):
            metric = f"{ns}_{_prom_name(base)}"
            lines.append(f"# TYPE {metric} gauge")
            for key in sorted(by_name[base]):
                lines.append(
                    f"{metric}{_prom_labels(key[1])} "
                    f"{_prom_number(self._gauges[key])}"
                )

        by_name = {}
        for key in self._histograms:
            by_name.setdefault(key[0], []).append(key)
        for base in sorted(by_name):
            metric = f"{ns}_{_prom_name(base)}_seconds"
            lines.append(f"# TYPE {metric} histogram")
            for key in sorted(by_name[base]):
                hist = self._histograms[key]
                labels = key[1]
                for bound, cumulative in hist.bucket_bounds():
                    le = (("le", _prom_number(bound)),)
                    lines.append(
                        f"{metric}_bucket{_prom_labels(labels + le)} {cumulative}"
                    )
                lines.append(
                    f"{metric}_sum{_prom_labels(labels)} {_prom_number(hist.total)}"
                )
                lines.append(f"{metric}_count{_prom_labels(labels)} {hist.count}")

        return "\n".join(lines) + "\n"

    def format_log_line(self) -> str:
        """One-line operational summary for the periodic server log."""
        parts = [f"up={self.uptime_seconds:.0f}s"]
        parts += [
            f"{_format_key(key)}={value}"
            for key, value in sorted(self._counters.items())
        ]
        for key, hist in sorted(self._histograms.items()):
            if hist.count:
                name = _format_key(key)
                parts.append(
                    f"{name}.p50={hist.percentile(0.5) * 1e3:.2f}ms"
                    f" {name}.p99={hist.percentile(0.99) * 1e3:.2f}ms"
                )
        return "metrics " + " ".join(parts)
