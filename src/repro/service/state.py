"""Service state: live filecule partition, cache advisors, persistence.

One :class:`ServiceState` instance is the single source of truth behind a
running daemon.  It is deliberately synchronous and not thread-safe: the
server makes every state call from one drain callback on its event loop
(:mod:`repro.service.server`), which is what makes the incremental
partition refinement race-free without locks.

Three concerns live here:

* **partition** — an :class:`~repro.core.incremental.IncrementalFileculeIdentifier`
  maintains the *exact* filecule partition of the ingested job stream
  (equal, by construction and by test, to offline
  :func:`~repro.core.identify.find_filecules` over the same jobs).
  There is one ingest path: :meth:`ServiceState.ingest_batch` takes a
  window of jobs as plain lists, and :meth:`ServiceState.ingest` is a
  window of one;
* **advice** — one cache advisor per site models that site's cache with a
  configurable :mod:`repro.cache` policy, fed each ingest window through
  its ``request_window``; ``advise`` turns a job's input set into a
  filecule-granularity admission/prefetch plan against that model
  (paper §4: load whole filecules, bypass ones larger than the cache);
* **persistence** — ``snapshot``/``restore`` write the hard state
  (partition + file sizes + counters) as JSONL so a restarted daemon
  resumes without replaying history.  Advisor cache contents are *soft*
  state: they are rebuilt from traffic after a restart, exactly like a
  real cache warming up.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from functools import partial
from itertools import compress, repeat
from pathlib import Path

from repro import registry
from repro.cache.base import BYPASS_CODE, HIT_CODE, CacheMetrics, ReplacementPolicy
from repro.cache.online import batched_policy_for
from repro.core.incremental import IncrementalFileculeIdentifier
from repro.obs.log import get_logger
from repro.util.units import TB

slog = get_logger("repro.service.state")

def _parse_advisor_policy(policy: str) -> "registry.BoundSpec":
    """Validate an advisor policy spec: known, and buildable online.

    Raises ``ValueError`` (the registry's ``unknown policy`` error, or a
    capability complaint listing the eligible names) on anything the
    online service cannot instantiate from configuration alone.
    """
    bound = registry.parse(policy)
    spec = registry.get_spec(bound.name)
    if spec.needs_filecules or spec.needs_trace:
        raise ValueError(
            f"policy {bound.name!r} needs offline resources "
            f"({', '.join(spec.flags)}) and cannot back an online advisor; "
            f"choose from {registry.service_policy_names()}"
        )
    return bound

SNAPSHOT_FORMAT = "repro-service-snapshot"
SNAPSHOT_VERSION = 1


class SnapshotError(Exception):
    """A snapshot file could not be written, read, or understood."""


def partition_checksum(groups) -> str:
    """Deterministic fingerprint of a partition's grouping.

    ``groups`` is any iterable of iterables of file ids.  The checksum
    only depends on *which files are grouped together*, so the streamed
    service partition and an offline :func:`find_filecules` run can be
    compared across the wire with 16 hex characters.
    """
    canonical = sorted(sorted(int(f) for f in g) for g in groups)
    payload = json.dumps(canonical, separators=(",", ":")).encode()
    return hashlib.sha256(payload).hexdigest()[:16]


def _fold_window(
    codes: list[int], offsets: list[int], sizes: list[int]
) -> tuple[list[int], tuple[int, int, int, int, int, int]]:
    """Fold one advisor window's request codes, one per access.

    Returns the hits of each job (``codes[offsets[j]:offsets[j + 1]]``)
    and the window's ``(requests, hits, bytes_requested, bytes_hit,
    bytes_fetched, bypasses)`` for
    :meth:`~repro.cache.base.CacheMetrics.record_totals`: a miss fetches
    the bytes its code admitted, a bypass its own requested size.
    """
    job_hits = [codes[lo:hi].count(HIT_CODE) for lo, hi in zip(offsets, offsets[1:])]
    bytes_hit = sum(compress(sizes, map(HIT_CODE.__eq__, codes)))
    fetched = sum(filter((0).__le__, codes))
    bypasses = codes.count(BYPASS_CODE)
    if bypasses:
        fetched += sum(compress(sizes, map(BYPASS_CODE.__eq__, codes)))
    return job_hits, (
        len(codes), sum(job_hits), sum(sizes), bytes_hit, fetched, bypasses
    )


class _SiteAdvisor:
    """Cache model for one site: a policy instance plus its metrics."""

    __slots__ = ("policy", "metrics")

    def __init__(self, name: str, policy: ReplacementPolicy) -> None:
        self.policy = policy
        self.metrics = CacheMetrics(
            name=name, capacity_bytes=policy.capacity_bytes
        )


class ServiceState:
    """The daemon's mutable state (single-writer; see module docstring).

    Plain ``file-lru``/``file-fifo`` advisors are
    :class:`~repro.cache.online.BatchedFileCache` instances; every other
    policy is registry-built and runs the per-access ``request_window``.

    Parameters
    ----------
    policy:
        :mod:`repro.registry` spec string for the cache policy backing
        the per-site advisors — a canonical name, a legacy short alias
        (``"lru"``, ``"gds"``, ...) or a parameterized spec such as
        ``"greedy-dual-size"``.  Policies needing offline resources (a
        trace or a filecule partition) are rejected; see
        :func:`repro.registry.service_policy_names`.
    capacity_bytes:
        Modelled cache capacity of every site.
    default_size:
        Size assumed for files ingested without an explicit size (sizes
        refine retroactively: a later ingest carrying the real size
        updates the catalog).
    decay_half_life:
        Co-access evidence half-life in ingest ticks (one tick per job).
        Finite values make the partition forget: filecules whose decayed
        request weight falls below the identifier's staleness threshold
        dissolve into singletons, so a flash crowd's co-access pattern
        stops binding files long after the crowd is gone.  The default
        (``inf``) preserves the exact append-only refinement semantics.
    """

    def __init__(
        self,
        policy: str = "lru",
        capacity_bytes: int = 1 * TB,
        default_size: int = 1,
        decay_half_life: float = math.inf,
    ) -> None:
        self._policy_spec = _parse_advisor_policy(policy)
        if capacity_bytes <= 0:
            raise ValueError(f"capacity must be positive, got {capacity_bytes}")
        if default_size <= 0:
            raise ValueError(f"default_size must be positive, got {default_size}")
        self.policy_name = policy
        self.capacity_bytes = int(capacity_bytes)
        self.default_size = int(default_size)
        self.decay_half_life = float(decay_half_life)
        # A site's cache model: the residency loop for plain LRU/FIFO.
        self._new_policy = batched_policy_for(self._policy_spec) or partial(
            registry.build, self._policy_spec
        )
        self._ident = IncrementalFileculeIdentifier(
            half_life=self.decay_half_life
        )
        self._sizes: dict[int, int] = {}
        self._advisors: dict[int, _SiteAdvisor] = {}
        self._clock = 0.0  # logical request time fed to the policies
        # Reused per-call scratch set for advise's order-preserving
        # de-duplication — cleared, never reallocated.
        self._seen: set[int] = set()
        # Memoized JSON payload of each class's _class_info, keyed by
        # class id — the read fast path behind ``filecule_of_json``.
        # Classes only ever split, so invalidation is exact: ingest
        # drops the entries observe_job reports as affected.
        self._filecule_json: dict[int, bytes] = {}

    @property
    def jobs_observed(self) -> int:
        """Stream position — cheap accessor for the ``ping`` hot path."""
        return self._ident.n_jobs_observed

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _advisor(self, site: int) -> _SiteAdvisor:
        advisor = self._advisors.get(site)
        if advisor is None:
            advisor = _SiteAdvisor(
                f"{self.policy_name}@site{site}",
                self._new_policy(self.capacity_bytes),
            )
            self._advisors[site] = advisor
        return advisor

    def _size_of(self, file_id: int) -> int:
        return self._sizes.get(file_id, self.default_size)

    def _class_info(self, class_id: int) -> dict:
        members = sorted(self._ident.members_of_class(class_id))
        return {
            "class_id": class_id,
            "files": members,
            "n_files": len(members),
            "requests": self._ident.requests_of_class(class_id),
            "bytes": sum(self._size_of(f) for f in members),
        }

    # ------------------------------------------------------------------
    # mutations (must run on the single writer)
    # ------------------------------------------------------------------
    def ingest(
        self,
        files: list[int],
        sizes: list[int] | None = None,
        site: int = 0,
    ) -> dict:
        """Observe one job submission: refine the partition, warm the model.

        Returns a small receipt (stream position and partition shape) so
        pipelining clients can cheaply spot-check progress.  A window of
        one job through :meth:`ingest_batch`.
        """
        return self.ingest_batch([(files, sizes, site)])[0]

    def ingest_batch(
        self, batch: list[tuple[list[int], list[int] | None, int]]
    ) -> list[dict]:
        """Observe a window of queued jobs in one pass.

        ``batch`` is a list of ``(files, sizes, site)`` triples in
        arrival order.  Returns one :meth:`ingest` receipt per job.  The
        partition refinement goes through
        :meth:`~repro.core.incremental.IncrementalFileculeIdentifier.observe_jobs_batch`,
        which equals ``observe_job`` per job, and advisor accounting
        through one ``request_window`` per site, each job at its own
        clock, whose request codes are folded once into per-job hits and
        the site's metrics; the size catalog, advisor caches, metrics
        and read-cache invalidation end as they would job by job.  The
        server's drain calls this with each run of queued ingest
        requests.
        """
        n = len(batch)
        if n == 0:
            return []
        # Build phase, in job order: update the size catalog and resolve
        # each job's deduped file ids and request sizes at that job's
        # turn (a later job's size refinement must not leak into an
        # earlier job's accounting).
        size_get = self._sizes.get
        sizes_update = self._sizes.update
        default_sizes = repeat(self.default_size)
        flat: list[int] = []
        req_sizes: list[int] = []
        offsets = [0]
        for files, sizes, _ in batch:
            if sizes is not None:
                # int() keeps direct API callers' numpy sizes JSON-safe
                # for snapshots.
                sizes_update(zip(files, map(int, sizes)))
            unique = dict.fromkeys(files)
            flat += unique
            req_sizes += map(size_get, unique, default_sizes)
            offsets.append(len(flat))
        clock0 = self._clock
        job_seq0 = self._ident.n_jobs_observed
        counts: list[tuple[int, int]] = []
        # Each job ticks the clock once; decay time is the post-tick
        # clock the advisors see (at half_life=inf it is irrelevant).
        nows = [clock0 + i for i in range(1, n + 1)]
        affected = self._ident.observe_jobs_batch(
            flat, offsets, now=nows, job_counts=counts
        )
        self._clock = clock0 + n
        if self._filecule_json:
            # Exact read-cache invalidation: only the classes these jobs
            # created, split, or advanced change their lookup payload.
            cache_pop = self._filecule_json.pop
            for cid in affected:
                cache_pop(cid, None)
        # Advisor accounting: group jobs by site (arrival order is
        # preserved within each group; sites have independent caches, so
        # cross-site order is immaterial).
        hits_per_job = [0] * n
        by_site: dict[int, list[int]] = {}
        for i, (_, _, site) in enumerate(batch):
            by_site.setdefault(site, []).append(i)
        for site, idxs in by_site.items():
            if len(idxs) == n:
                window = flat, offsets, req_sizes, nows
            else:
                site_flat, site_offs, site_sizes = [], [0], []
                for i in idxs:
                    lo, hi = offsets[i], offsets[i + 1]
                    site_flat += flat[lo:hi]
                    site_sizes += req_sizes[lo:hi]
                    site_offs.append(len(site_flat))
                site_nows = [nows[i] for i in idxs]
                window = site_flat, site_offs, site_sizes, site_nows
            advisor = self._advisor(site)
            codes = advisor.policy.request_window(*window)
            job_hits, totals = _fold_window(codes, window[1], window[2])
            advisor.metrics.record_totals(*totals)
            for i, h in zip(idxs, job_hits):
                hits_per_job[i] = h
        return [
            {
                "job_seq": job_seq0 + i + 1,
                "n_files": counts[i][0],
                "n_classes": counts[i][1],
                "site_hits": hits_per_job[i],
            }
            for i in range(n)
        ]

    # ------------------------------------------------------------------
    # queries (read-only)
    # ------------------------------------------------------------------
    def filecule_of(self, file_id: int) -> dict:
        class_id = self._ident.class_of(file_id)
        if class_id is None:
            return {"file": file_id, "filecule": None}
        return {"file": file_id, "filecule": self._class_info(class_id)}

    def filecule_of_json(self, file_id: int) -> bytes:
        """Encoded ``filecule_of`` result — the memoized read fast path.

        ``_class_info`` re-sorts members and re-sums sizes on every call,
        which dominates lookup latency for large filecules.  The encoded
        payload is a pure function of the class's membership, request
        count and member sizes — all of which only change when ingest
        touches the class — so it is rendered once per class version and
        served from :attr:`_filecule_json` until invalidated.  Returns
        the JSON bytes of exactly what :meth:`filecule_of` would return.
        """
        class_id = self._ident.class_of(file_id)
        if class_id is None:
            return b'{"file":%d,"filecule":null}' % file_id
        cached = self._filecule_json.get(class_id)
        if cached is None:
            cached = json.dumps(
                self._class_info(class_id), separators=(",", ":")
            ).encode()
            self._filecule_json[class_id] = cached
        return b'{"file":%d,"filecule":%s}' % (file_id, cached)

    def advise(self, files: list[int], site: int = 0) -> dict:
        """Filecule-granularity prefetch/admission plan for one job.

        For each filecule touched by the job's input set the plan says
        whether the site's modelled cache already holds the requested
        members (``hit``), should fetch the whole filecule (``fetch`` —
        listing the non-requested members to prefetch), or should stream
        the requested files uncached because the filecule exceeds
        capacity (``bypass``).  Never-before-seen files form a
        provisional group of their own (they share the signature "this
        job only" until a later job splits them).
        """
        seen = self._seen
        seen.clear()
        advisor = self._advisors.get(site)
        class_of = self._ident.class_of
        by_class: dict[int | None, list[int]] = {}
        for f in files:
            if f in seen:
                continue
            seen.add(f)
            by_class.setdefault(class_of(f), []).append(f)

        entries = []
        fetch_bytes = 0
        prefetch_files = 0
        for class_id, members_requested in sorted(
            by_class.items(), key=lambda kv: (kv[0] is None, kv[0] or 0)
        ):
            if class_id is None:
                size = sum(self._size_of(f) for f in members_requested)
                entry = {
                    "class_id": None,
                    "files": sorted(members_requested),
                    "prefetch": [],
                    "bytes": size,
                    "action": "fetch" if size <= self.capacity_bytes else "bypass",
                }
            else:
                # Resolve members once; avoid the _class_info round trip
                # (it re-sorts and re-sums on every call).
                members = self._ident.members_of_class(class_id)
                class_bytes = sum(self._size_of(f) for f in members)
                cached = advisor is not None and all(
                    f in advisor.policy for f in members_requested
                )
                if cached:
                    action = "hit"
                elif class_bytes > self.capacity_bytes:
                    action = "bypass"
                else:
                    action = "fetch"
                entry = {
                    "class_id": class_id,
                    "files": sorted(members_requested),
                    "prefetch": sorted(members.difference(members_requested)),
                    "bytes": class_bytes,
                    "action": action,
                }
            if entry["action"] == "fetch":
                fetch_bytes += entry["bytes"]
                prefetch_files += len(entry["prefetch"])
            elif entry["action"] == "bypass":
                fetch_bytes += sum(self._size_of(f) for f in entry["files"])
            entries.append(entry)

        return {
            "site": site,
            "plan": entries,
            "fetch_bytes": fetch_bytes,
            "prefetch_files": prefetch_files,
        }

    def summary(self) -> dict:
        """The partition's counts and the per-site advisor stats.

        :meth:`stats` without the checksum and the top filecules, which
        walk every class: the view the server's gauges publish.
        """
        return {
            "jobs_observed": self._ident.n_jobs_observed,
            "files_observed": self._ident.n_files_observed,
            "n_classes": self._ident.n_classes,
            "sites": {
                str(site): {
                    "policy": adv.metrics.name,
                    "requests": adv.metrics.requests,
                    "hits": adv.metrics.hits,
                    "hit_rate": adv.metrics.hit_rate,
                    "byte_miss_rate": adv.metrics.byte_miss_rate,
                    "used_bytes": adv.policy.used_bytes,
                }
                for site, adv in sorted(self._advisors.items())
            },
        }

    def stats(self) -> dict:
        """Live popularity/partition metrics (the ``stats`` query body)."""
        top = sorted(
            (
                (self._ident.requests_of_class(cid), cid)
                for cid in self._ident.class_ids()
            ),
            reverse=True,
        )[:10]
        summary = self.summary()
        sites = summary.pop("sites")
        return {
            "policy": self.policy_name,
            "capacity_bytes": self.capacity_bytes,
            **summary,
            "partition_checksum": partition_checksum(self._ident.classes()),
            "top_filecules": [self._class_info(cid) for _, cid in top],
            "sites": sites,
        }

    def partition(self) -> dict:
        """The full current partition (for equivalence checks and export)."""
        classes = [
            {
                "files": sorted(self._ident.members_of_class(cid)),
                "requests": self._ident.requests_of_class(cid),
            }
            for cid in self._ident.class_ids()
        ]
        classes.sort(key=lambda c: c["files"])
        return {
            "n_classes": len(classes),
            "checksum": partition_checksum(c["files"] for c in classes),
            "classes": classes,
        }

    # ------------------------------------------------------------------
    # persistence
    # ------------------------------------------------------------------
    def snapshot(self, path: str | Path) -> dict:
        """Atomically write the hard state as JSONL; returns a receipt."""
        path = Path(path)
        ident_state = self._ident.state_dict()
        meta: dict = {
            "type": "meta",
            "format": SNAPSHOT_FORMAT,
            "version": SNAPSHOT_VERSION,
            "policy": self.policy_name,
            "capacity_bytes": self.capacity_bytes,
            "default_size": self.default_size,
            "clock": self._clock,
            "n_jobs": ident_state["n_jobs"],
            "next_class": ident_state["next_class"],
        }
        if "half_life" in ident_state:
            # Decay configuration travels with the snapshot (JSON cannot
            # carry inf, so the keys only appear for finite half-lives;
            # their absence means the classic append-only identifier).
            meta["decay_half_life"] = ident_state["half_life"]
            meta["decay_threshold"] = ident_state["stale_threshold"]
            meta["decay_time"] = ident_state["time"]
        tmp = path.with_name(path.name + ".tmp")
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            with open(tmp, "w") as fh:
                fh.write(json.dumps(meta) + "\n")
                for entry in ident_state["classes"]:
                    fh.write(json.dumps({"type": "class", **entry}) + "\n")
                for f, s in sorted(self._sizes.items()):
                    fh.write(
                        json.dumps({"type": "file", "id": f, "size": s}) + "\n"
                    )
            os.replace(tmp, path)
        except OSError as exc:
            raise SnapshotError(f"cannot write snapshot {path}: {exc}") from exc
        receipt = {
            "path": str(path),
            "n_jobs": ident_state["n_jobs"],
            "n_classes": len(ident_state["classes"]),
            "n_files": len(self._sizes),
        }
        slog.debug("state-snapshot", **receipt)
        return receipt

    @classmethod
    def restore(cls, path: str | Path) -> "ServiceState":
        """Rebuild a state from :meth:`snapshot` output.

        The partition and file-size catalog come back exactly; advisor
        caches restart cold (soft state, rewarmed by traffic).
        """
        path = Path(path)
        try:
            with open(path) as fh:
                lines = fh.readlines()
        except OSError as exc:
            raise SnapshotError(f"cannot read snapshot {path}: {exc}") from exc

        meta = None
        classes: list[dict] = []
        sizes: dict[int, int] = {}
        for lineno, line in enumerate(lines, 1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise SnapshotError(f"{path}:{lineno}: invalid JSON: {exc}") from exc
            kind = record.get("type")
            if kind == "meta":
                meta = record
            elif kind == "class":
                classes.append(record)
            elif kind == "file":
                sizes[int(record["id"])] = int(record["size"])
            else:
                raise SnapshotError(
                    f"{path}:{lineno}: unknown record type {kind!r}"
                )
        if meta is None:
            raise SnapshotError(f"{path}: missing meta record")
        if meta.get("format") != SNAPSHOT_FORMAT:
            raise SnapshotError(f"{path}: not a {SNAPSHOT_FORMAT} file")
        if meta.get("version") != SNAPSHOT_VERSION:
            raise SnapshotError(
                f"{path}: snapshot version {meta.get('version')!r} not supported"
            )

        state = cls(
            policy=meta["policy"],
            capacity_bytes=meta["capacity_bytes"],
            default_size=meta["default_size"],
            decay_half_life=float(meta.get("decay_half_life", math.inf)),
        )
        ident_state = {
            "n_jobs": meta["n_jobs"],
            "next_class": meta["next_class"],
            "classes": classes,
        }
        if "decay_half_life" in meta:
            ident_state["half_life"] = float(meta["decay_half_life"])
            ident_state["stale_threshold"] = float(
                meta.get("decay_threshold", 0.5)
            )
            ident_state["time"] = float(meta.get("decay_time", 0.0))
        try:
            state._ident = IncrementalFileculeIdentifier.from_state_dict(
                ident_state
            )
        except (KeyError, ValueError) as exc:
            raise SnapshotError(f"{path}: corrupt partition state: {exc}") from exc
        state._sizes = sizes
        state._clock = float(meta.get("clock", 0.0))
        slog.info(
            "state-restored",
            path=str(path),
            n_jobs=meta["n_jobs"],
            n_classes=len(classes),
            n_files=len(sizes),
        )
        return state
