"""On-disk trace artifact store: generate once, replay many times.

This module caches a generated :class:`~repro.traces.trace.Trace` as a
single ``.npz`` artifact keyed by the *content* of the generating
:class:`~repro.workload.config.WorkloadConfig` plus the seed, so repeat
runs (a benchmark re-run, a second experiment at the same scale) skip
generation.  Measured at seed 7 on one vCPU of a 2-vCPU Xeon host
(docs/PERFORMANCE.md, "Trace generation"): the paper tier (≈ 114k
traced jobs, 11.3M accesses) generates in 0.45–0.52 s at a 289 MB peak
RSS, and loading its 193.5 MB artifact takes 0.20 s; the grown (10x)
tier (119.7M accesses) generates in 8.0 s at a 2.65 GB peak.

Keying is structural, not nominal: the key is a SHA-256 over the JSON
form of the full config dataclass, the seed and :data:`FORMAT_VERSION`.
Renaming a preset does not invalidate its artifact; changing any
calibrated number does.  The key does not cover the generator's code,
so a change to what :func:`~repro.workload.generator.generate_trace`
emits for a given config and seed must bump :data:`FORMAT_VERSION`, or
stale artifacts keep being loaded (``tests/test_generator_pins.py``
fails on any such change).  Artifacts are written atomically (temp
file + :func:`os.replace`) so a crashed or parallel writer never leaves
a torn file, and a corrupt artifact is silently regenerated.

The cache directory defaults to ``~/.cache/repro-traces`` and is
overridable with ``REPRO_TRACE_CACHE``.

Entry point: :func:`cached_trace`.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import tempfile
from pathlib import Path
from typing import Callable

import numpy as np

from repro.traces.trace import Trace
from repro.workload.config import WorkloadConfig
from repro.workload.generator import generate_trace

#: Bump when the on-disk layout or Trace column semantics change, or
#: when the generator's output for a given config and seed changes; old
#: artifacts are then ignored (never loaded, eventually overwritten).
FORMAT_VERSION = 1

#: Trace array columns persisted verbatim (names match Trace attributes).
TRACE_ARRAY_COLUMNS = (
    "file_sizes",
    "file_tiers",
    "file_datasets",
    "job_users",
    "job_nodes",
    "job_tiers",
    "job_starts",
    "job_ends",
    "access_jobs",
    "access_files",
    "user_domains",
    "node_sites",
    "node_domains",
    "job_labels",
)


def trace_cache_dir() -> Path:
    """The artifact directory: ``REPRO_TRACE_CACHE`` or the XDG default."""
    raw = os.environ.get("REPRO_TRACE_CACHE", "").strip()
    if raw:
        return Path(raw).expanduser()
    return Path.home() / ".cache" / "repro-traces"


def trace_key(config: WorkloadConfig, seed: int) -> str:
    """Content hash identifying one (config, seed, format) artifact."""
    payload = {
        "format": FORMAT_VERSION,
        "seed": int(seed),
        "config": _config_payload(config),
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _config_payload(config: WorkloadConfig) -> dict:
    payload = dataclasses.asdict(config)
    # The preset name is cosmetic; keying on it would split identical
    # workloads into distinct artifacts.
    payload.pop("name", None)
    return payload


def trace_path(
    config: WorkloadConfig, seed: int, cache_dir: Path | None = None
) -> Path:
    """Where the artifact for ``(config, seed)`` lives (may not exist)."""
    base = cache_dir if cache_dir is not None else trace_cache_dir()
    key = trace_key(config, seed)
    return base / f"{config.name}-s{int(seed)}-{key[:16]}.npz"


def save_trace(trace: Trace, path: Path) -> None:
    """Atomically persist ``trace`` as an ``.npz`` artifact at ``path``."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    columns = {name: getattr(trace, name) for name in TRACE_ARRAY_COLUMNS}
    columns["site_names"] = np.asarray(trace.site_names, dtype=np.str_)
    columns["domain_names"] = np.asarray(trace.domain_names, dtype=np.str_)
    columns["format_version"] = np.asarray(FORMAT_VERSION, dtype=np.int64)
    fd, tmp_name = tempfile.mkstemp(
        dir=path.parent, prefix=path.name, suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "wb") as handle:
            np.savez(handle, **columns)
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


def load_trace(path: Path) -> Trace:
    """Rebuild a :class:`Trace` from an artifact written by
    :func:`save_trace`.

    The columns were canonical and validated when written, so the
    reconstruction skips both steps.
    """
    with np.load(path, allow_pickle=False) as data:
        version = int(data["format_version"])
        if version != FORMAT_VERSION:
            raise ValueError(
                f"trace artifact {path} has format {version}, "
                f"expected {FORMAT_VERSION}"
            )
        arrays = {name: data[name] for name in TRACE_ARRAY_COLUMNS}
        site_names = tuple(str(s) for s in data["site_names"])
        domain_names = tuple(str(s) for s in data["domain_names"])
    return Trace(
        **arrays,
        site_names=site_names,
        domain_names=domain_names,
        canonical=True,
        validate=False,
    )


def cached_trace(
    config: WorkloadConfig,
    seed: int = 0,
    *,
    cache_dir: Path | None = None,
    refresh: bool = False,
    on_event: Callable[[str], None] | None = None,
) -> Trace:
    """Return the trace for ``(config, seed)``, generating at most once.

    A valid artifact is loaded as-is; a missing, corrupt or
    format-mismatched one triggers regeneration and an atomic rewrite.
    ``refresh=True`` forces regeneration.  ``on_event`` (if given)
    receives one human-readable line per cache decision — the CLI and
    the benchmark harness forward it to their progress streams.
    """
    say = on_event if on_event is not None else lambda _msg: None
    path = trace_path(config, seed, cache_dir)
    if not refresh and path.is_file():
        try:
            trace = load_trace(path)
        except Exception as exc:
            say(f"trace store: discarding unreadable artifact {path} ({exc})")
        else:
            say(f"trace store: hit {path}")
            return trace
    say(
        f"trace store: generating {config.name!r} seed={seed} "
        f"(~{config.estimated_accesses:,} accesses estimated)"
    )
    trace = generate_trace(config, seed=seed)
    save_trace(trace, path)
    say(f"trace store: wrote {path}")
    return trace
