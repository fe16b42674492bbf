"""Online filecule identification by streaming partition refinement.

The paper (§6) notes that deployed data-management services cannot rely on
an offline pass over the full history: filecules must be identified
"adaptively and dynamically" as job submissions stream in.  This module
provides that: an :class:`IncrementalFileculeIdentifier` maintains the
exact filecule partition of the jobs observed *so far* and refines it in
time proportional to each job's input size.

Algorithm: classic partition refinement.  All files seen so far live in
classes; when a job arrives with input set ``S``, every class ``C`` is
split into ``C ∩ S`` (touched) and ``C \\ S`` (untouched) if both parts are
non-empty.  Brand-new files form one fresh class (they share the signature
"this job only" until a later job separates them).  An inductive argument
shows the maintained partition always equals signature grouping over the
observed prefix, which is asserted against :func:`find_filecules` in the
test suite.

Classes only ever split, never merge — the monotonicity that underlies the
paper's observation that partial knowledge yields *coarser* filecules.

**Decayed co-access** (``half_life``): the stationary algorithm treats a
co-access observed two years ago exactly like one observed two minutes
ago, which makes filecules *stale* under the drifting/bursting workloads
of :mod:`repro.scenario` — a flash crowd welds files into one class that
then never comes apart.  With a finite ``half_life`` each class carries a
half-life-weighted co-access weight (+1 per touching job, halved every
``half_life`` time units); when a multi-member class's weight decays
below ``stale_threshold`` it is *dissolved* into singleton classes, so
files must re-earn their grouping from fresh traffic.  Dissolution is
still a split (each singleton is a refinement of the old class), so the
split-only monotonicity — and the service layer's exact cache
invalidation built on it — is preserved.  At the default
``half_life=inf`` nothing decays and the identifier's behavior *and*
serialized state are bit-identical to the undecayed algorithm.
"""

from __future__ import annotations

import heapq
import math
from collections.abc import Iterable

import numpy as np

from repro.core.filecule import FileculePartition
from repro.traces.trace import Trace


def _as_list(values, kind) -> list:
    """``values`` (a sequence or numpy array) as a list of ``kind``."""
    if isinstance(values, np.ndarray):
        values = values.tolist()
    return list(map(kind, values))


class IncrementalFileculeIdentifier:
    """Maintains the filecule partition of a growing job stream.

    Parameters
    ----------
    half_life:
        Time units after which a class's co-access weight halves.  The
        unit is whatever ``observe_job``'s ``now`` is measured in — job
        ticks when ``now`` is omitted, trace seconds under
        :meth:`observe_trace`.  ``inf`` (default) disables decay.
    stale_threshold:
        A multi-member class whose decayed weight falls below this is
        dissolved into singletons.  Must be positive; every touch sets
        the weight to at least 1, so thresholds below 1 give each class
        at least one half-life of grace after its last request.

    Example
    -------
    >>> ident = IncrementalFileculeIdentifier()
    >>> sorted(ident.observe_job([1, 2, 3]))  # class 0 created
    [0]
    >>> sorted(ident.observe_job([2, 3]))  # class 0 split -> 0 and 1
    [0, 1]
    >>> sorted(tuple(c) for c in ident.classes())
    [(1,), (2, 3)]
    """

    def __init__(
        self,
        half_life: float = math.inf,
        stale_threshold: float = 0.5,
    ) -> None:
        if not half_life > 0:
            raise ValueError(f"half_life must be positive, got {half_life}")
        if not stale_threshold > 0:
            raise ValueError(
                f"stale_threshold must be positive, got {stale_threshold}"
            )
        self.half_life = float(half_life)
        self.stale_threshold = float(stale_threshold)
        # class id -> set of member file ids (only current classes present)
        self._members: dict[int, set[int]] = {}
        # file id -> class id
        self._class_of: dict[int, int] = {}
        # class id -> number of jobs that accessed the class
        self._requests: dict[int, int] = {}
        self._next_class = 0
        self._n_jobs = 0
        # Decay bookkeeping (inert at half_life=inf): per-class decayed
        # co-access weight as of the class's last touch time, the clock's
        # high-water mark, and a lazy min-heap of (deadline, class id)
        # dissolution candidates.  Heap entries may be stale (class gone,
        # reduced to a singleton, or re-touched since the push); they are
        # re-validated against the live weight when popped.
        self._weight: dict[int, float] = {}
        self._last: dict[int, float] = {}
        self._time = 0.0
        self._expiry: list[tuple[float, int]] = []

    # ------------------------------------------------------------------
    @property
    def n_jobs_observed(self) -> int:
        return self._n_jobs

    @property
    def n_files_observed(self) -> int:
        return len(self._class_of)

    @property
    def n_classes(self) -> int:
        return len(self._members)

    def class_of(self, file_id: int) -> int | None:
        """Current class id of ``file_id`` (None if never observed)."""
        return self._class_of.get(int(file_id))

    def classes(self) -> list[frozenset[int]]:
        """The current partition as a list of frozen member sets."""
        return [frozenset(m) for m in self._members.values()]

    def class_ids(self) -> list[int]:
        """Ids of the current classes (ascending; stable under queries)."""
        return sorted(self._members)

    def members_of_class(self, class_id: int) -> frozenset[int]:
        """Member file ids of one current class."""
        return frozenset(self._members[class_id])

    def requests_of_class(self, class_id: int) -> int:
        """How many observed jobs accessed the given class."""
        return self._requests[class_id]

    # ------------------------------------------------------------------
    def _fresh_class(
        self,
        members: set[int],
        requests: int,
        weight: float = 1.0,
        last: float = 0.0,
    ) -> int:
        cid = self._next_class
        self._next_class += 1
        self._members[cid] = members
        self._requests[cid] = requests
        # dict.fromkeys + update walk the members at C speed.
        self._class_of.update(dict.fromkeys(members, cid))
        self._weight[cid] = weight
        self._last[cid] = last
        return cid

    def _decayed_weight(self, cid: int, now: float) -> float:
        """The class's co-access weight decayed forward to ``now``."""
        if self.half_life == math.inf:
            return self._weight[cid]
        dt = now - self._last[cid]
        if dt <= 0.0:
            return self._weight[cid]
        return self._weight[cid] * 2.0 ** (-dt / self.half_life)

    def _push_expiry(self, cid: int) -> None:
        """Schedule the (multi-member) class's dissolution deadline."""
        if self.half_life == math.inf or len(self._members[cid]) <= 1:
            return
        weight = self._weight[cid]
        if weight <= self.stale_threshold:
            deadline = self._last[cid]
        else:
            deadline = self._last[cid] + self.half_life * math.log2(
                weight / self.stale_threshold
            )
        heapq.heappush(self._expiry, (deadline, cid))

    def _expire(self, now: float) -> set[int]:
        """Dissolve every multi-member class gone stale by ``now``.

        Each stale class splits into singleton classes (fresh ids in
        ascending member order), which inherit its request count and its
        decayed weight.  Returns the affected ids — the dissolved class
        and its singletons — so callers can fold them into the
        ``observe_job`` invalidation set.  Stale classes are collected
        first and processed in ascending class-id order, so the fresh ids
        assigned do not depend on heap history — a restored identifier
        dissolves identically to an uninterrupted one.
        """
        expiry = self._expiry
        due: set[int] = set()
        while expiry and expiry[0][0] <= now:
            deadline, cid = heapq.heappop(expiry)
            if cid in due:
                continue  # duplicate entry for an already-collected class
            members = self._members.get(cid)
            if members is None or len(members) <= 1:
                continue  # stale entry: class dissolved, split away, ...
            if self._decayed_weight(cid, now) > self.stale_threshold:
                # Re-touched since the push: reschedule at the true
                # deadline — but only if that makes strict progress.  A
                # weight sitting exactly on the threshold (e.g. exactly
                # one touch popped exactly one half-life later) would
                # otherwise reschedule to this same instant forever.
                new_deadline = self._last[cid] + self.half_life * math.log2(
                    self._weight[cid] / self.stale_threshold
                )
                if new_deadline > now:
                    heapq.heappush(expiry, (new_deadline, cid))
                    continue
            due.add(cid)
        affected: set[int] = set()
        for cid in sorted(due):
            members = self._members.pop(cid)
            requests = self._requests.pop(cid)
            weight = self._decayed_weight(cid, now)
            del self._weight[cid], self._last[cid]
            affected.add(cid)
            for f in sorted(members):
                affected.add(
                    self._fresh_class(
                        {f}, requests=requests, weight=weight, last=now
                    )
                )
        return affected

    def observe_job(
        self, file_ids: Iterable[int], now: float | None = None
    ) -> set[int]:
        """Refine the partition with one job's input set.

        ``now`` is the job's timestamp on the decay clock (defaults to a
        logical per-call tick; ignored at ``half_life=inf``).  The clock
        is clamped monotonic, so replaying out-of-order timestamps never
        *un*-decays a class.

        Returns the ids of every class the job affected — freshly created
        classes, both halves of a split, whole classes whose request
        count advanced, and (under decay) stale classes dissolved before
        this job was applied plus their singleton successors.  Callers
        that memoize per-class derived data (the service's lookup fast
        path) invalidate exactly these entries.
        """
        # map(int, ...) normalizes numpy integers from direct callers (so
        # keys hash/serialize as plain ints) without per-element bytecode.
        request = set(map(int, file_ids))
        self._n_jobs += 1
        now = float(self._n_jobs) if now is None else float(now)
        if now > self._time:
            self._time = now
        else:
            now = self._time
        affected = self._expire(now) if self._expiry else set()
        if request:
            self._apply_request(request, now, affected)
        return affected

    def _apply_request(
        self, request: set[int], now: float, affected: set[int]
    ) -> None:
        """Refine the partition with one (non-empty) request set.

        The exact sequential core shared by :meth:`observe_job` and
        :meth:`observe_jobs_batch`'s split path.  Consumes ``request``
        (it is mutated) and folds the affected class ids into
        ``affected``.  Split fresh-class ids depend on the iteration
        order of ``request``, so callers must build it the same way
        ``observe_job`` does (``set(map(int, <ids in wire order>))``)
        for bit-identical results.
        """
        class_of = self._class_of
        # set.difference(dict) takes CPython's dict fast path: iterate
        # the (small) request, probe the dict.  `request - keys_view`
        # instead walks the WHOLE view — O(files observed) per job, the
        # quadratic that made paper-scale ingest minutes, not seconds.
        new_files = request.difference(class_of)
        if new_files:
            # Unseen files share the signature {this job} so far.
            cid = self._fresh_class(new_files, requests=1, weight=1.0, last=now)
            affected.add(cid)
            self._push_expiry(cid)
            request -= new_files

        # Group the remaining (known) files by their current class.
        touched: dict[int, set[int]] = {}
        for f in request:
            touched.setdefault(class_of[f], set()).add(f)

        for cid, touched_files in touched.items():
            affected.add(cid)
            current = self._members[cid]
            if len(touched_files) == len(current):
                # whole class requested: signature extends uniformly
                self._requests[cid] += 1
                self._weight[cid] = self._decayed_weight(cid, now) + 1.0
                self._last[cid] = now
                self._push_expiry(cid)
            else:
                # split: touched part gains this job in its signature
                weight = self._decayed_weight(cid, now) + 1.0
                current -= touched_files
                new_cid = self._fresh_class(
                    touched_files,
                    requests=self._requests[cid] + 1,
                    weight=weight,
                    last=now,
                )
                affected.add(new_cid)
                self._push_expiry(new_cid)

    def observe_jobs_batch(
        self,
        file_ids,
        offsets,
        now=None,
        job_counts: list | None = None,
    ) -> set[int]:
        """Refine the partition with a window of jobs in columnar form.

        ``file_ids`` is the flat concatenation of the jobs' input sets
        and ``offsets`` the job boundaries (``offsets[j]:offsets[j+1]``
        is job ``j``'s segment), mirroring :class:`~repro.traces.trace.Trace`'s
        CSR layout; lists and numpy arrays are both accepted.  ``now``,
        when given, is one decay timestamp per job; omitted, each job
        gets the logical per-call tick exactly as :meth:`observe_job`
        would.  ``job_counts``, when given, receives one
        ``(n_files_observed, n_classes)`` tuple per job, read after that
        job applied — the service layer's per-request receipts.

        Bit-identical to calling :meth:`observe_job` per segment — same
        partition, same class ids, same :meth:`state_dict`, and the
        returned set is exactly the union of the per-job affected sets —
        at ``half_life=inf`` and finite.  The win is the common case: a
        job whose files make up whole existing classes advances their
        request counts after one dict probe per file, without grouping
        the files into per-class sets; jobs that create, split, or
        dissolve classes take the sequential core for that job only.
        """
        flat = _as_list(file_ids, int)
        offs = _as_list(offsets, int)
        n_jobs = len(offs) - 1
        if n_jobs < 0:
            raise ValueError("offsets must be a non-empty 1-d array")
        if (
            offs[0] != 0
            or (n_jobs and offs[-1] != len(flat))
            or offs != sorted(offs)
        ):
            raise ValueError(
                "offsets must start at 0, end at len(file_ids), "
                "and be non-decreasing"
            )
        if flat and min(flat) < 0:
            raise ValueError("file ids must be non-negative")
        nows = None if now is None else _as_list(now, float)
        if nows is not None and len(nows) != n_jobs:
            raise ValueError(
                f"now must have one timestamp per job, got {len(nows)} "
                f"timestamps for {n_jobs} jobs"
            )
        affected: set[int] = set()
        members = self._members
        class_of_get = self._class_of.get
        counts_append = None if job_counts is None else job_counts.append
        for j in range(n_jobs):
            self._n_jobs += 1
            t = float(self._n_jobs) if nows is None else nows[j]
            if t > self._time:
                self._time = t
            else:
                t = self._time
            if self._expiry:
                affected |= self._expire(t)
            # set() over the wire-order ids reproduces observe_job's
            # insertion order (duplicates are no-ops on the hash table),
            # which fixes the ids a split hands out.
            request = set(flat[offs[j] : offs[j + 1]])
            touched = set(map(class_of_get, request))
            # Every file belongs to one class, so the touched classes'
            # sizes add up to len(request) exactly when each is touched
            # whole.
            if None in touched or sum(
                len(members[cid]) for cid in touched
            ) != len(request):
                # New files or a split: exact sequential core.
                self._apply_request(request, t, affected)
            else:
                # Whole-class touches: the sequential whole-touch branch
                # per class (order across classes is immaterial — the
                # updates are independent and the expiry heap pops by
                # value).
                affected |= touched
                for cid in touched:
                    self._requests[cid] += 1
                    self._weight[cid] = self._decayed_weight(cid, t) + 1.0
                    self._last[cid] = t
                    self._push_expiry(cid)
            if counts_append is not None:
                counts_append((len(self._class_of), len(members)))
        return affected

    def state_dict(self) -> dict:
        """Serializable form of the full identifier state.

        The returned dict round-trips through JSON and
        :meth:`from_state_dict`; continuing to observe jobs after a
        restore yields exactly the partition (including class ids) an
        uninterrupted identifier would have produced.  This is the
        persistence hook behind the service layer's snapshot/restore.

        At ``half_life=inf`` the output is byte-for-byte the undecayed
        format (no decay fields), so pre-decay snapshots and undecayed
        identifiers stay interchangeable.  A finite half-life adds the
        decay configuration and clock at the top level plus per-class
        ``weight``/``last`` fields.
        """
        decayed = self.half_life != math.inf
        state = {
            "next_class": self._next_class,
            "n_jobs": self._n_jobs,
            "classes": [
                {
                    "id": cid,
                    "members": sorted(members),
                    "requests": self._requests[cid],
                    **(
                        {
                            "weight": self._weight[cid],
                            "last": self._last[cid],
                        }
                        if decayed
                        else {}
                    ),
                }
                for cid, members in sorted(self._members.items())
            ],
        }
        if decayed:
            state["half_life"] = self.half_life
            state["stale_threshold"] = self.stale_threshold
            state["time"] = self._time
        return state

    @classmethod
    def from_state_dict(cls, state: dict) -> "IncrementalFileculeIdentifier":
        """Rebuild an identifier from :meth:`state_dict` output.

        Accepts both formats: snapshots without decay fields restore an
        undecayed identifier (weights default to the request counts), and
        decayed snapshots restore the decay clock and per-class weights —
        continuing the stream after a restore dissolves stale classes at
        exactly the times an uninterrupted identifier would.
        """
        ident = cls(
            half_life=float(state.get("half_life", math.inf)),
            stale_threshold=float(state.get("stale_threshold", 0.5)),
        )
        ident._n_jobs = int(state["n_jobs"])
        ident._next_class = int(state["next_class"])
        ident._time = float(state.get("time", 0.0))
        for entry in state["classes"]:
            cid = int(entry["id"])
            if cid >= ident._next_class:
                raise ValueError(
                    f"class id {cid} not below next_class {ident._next_class}"
                )
            members = {int(f) for f in entry["members"]}
            if not members:
                raise ValueError(f"class {cid} has no members")
            ident._members[cid] = members
            ident._requests[cid] = int(entry["requests"])
            ident._weight[cid] = float(entry.get("weight", entry["requests"]))
            ident._last[cid] = float(entry.get("last", 0.0))
            for f in members:
                if f in ident._class_of:
                    raise ValueError(f"file {f} appears in two classes")
                ident._class_of[f] = cid
            ident._push_expiry(cid)
        return ident

    def observe_trace(self, trace: Trace, window: int = 8192) -> None:
        """Feed every traced job of ``trace`` in job-id order.

        Job start times drive the decay clock, so a finite ``half_life``
        is measured in trace seconds here (and the clock clamp makes the
        ≈-chronological job order safe).  Jobs stream through
        :meth:`observe_jobs_batch` in windows of ``window`` jobs (the
        trace is already columnar, so each window is one slice of its
        access array) — bit-identical to the per-job loop this method
        used to run.
        """
        ptr = trace.job_access_ptr
        starts = np.asarray(trace.job_starts, dtype=np.float64)
        files = trace.access_files
        # The per-job loop skipped empty jobs entirely (no clock tick),
        # so the batch windows index only non-empty jobs.  Empty jobs
        # occupy zero accesses, which keeps any run of jobs contiguous
        # in the flat access array: ptr[sel[i] + 1] == ptr[sel[i + 1]].
        nonempty = np.flatnonzero(np.diff(ptr) > 0)
        for lo in range(0, nonempty.size, window):
            sel = nonempty[lo : lo + window]
            base = int(ptr[sel[0]])
            ends = ptr[sel + 1]
            offs = np.empty(sel.size + 1, dtype=np.int64)
            offs[0] = 0
            offs[1:] = ends - base
            self.observe_jobs_batch(
                files[base : int(ends[-1])], offs, now=starts[sel]
            )

    # ------------------------------------------------------------------
    def partition(self, n_files: int | None = None, sizes=None) -> FileculePartition:
        """Snapshot the current partition as a :class:`FileculePartition`.

        ``n_files`` defaults to one past the largest observed file id;
        ``sizes`` (optional array indexed by file id) fills in byte sizes,
        else sizes are reported as 0.
        """
        if n_files is None:
            n_files = max(self._class_of, default=-1) + 1
        n = len(self._class_of)
        classes = self._class_of.values()
        return FileculePartition.from_labels(
            np.fromiter(self._class_of, np.int64, n),
            np.fromiter(classes, np.int64, n),
            n_files,
            np.fromiter(map(self._requests.__getitem__, classes), np.int64, n),
            sizes,
        )
