"""Runtime sanitizers: ``do_all`` race detection and Gluon protocol checking.

Both sanitizers are strictly observational — they read model state, never
write it, and draw no randomness — so a sanitized run is **bit-identical**
to an unsanitized one (pinned by ``tests/test_analysis_sanitizers.py``).

Race detection (:class:`DoAllRaceSanitizer` + :class:`SanitizedExecutor`)
works in *shadow* mode: the executor wrapper assigns every loop item its
own chunk id and instrumented operators report the NumPy row sets they
read/write via :func:`note_read` / :func:`note_write`.  After the loop
barrier, cross-chunk write–write and read–write overlaps are reported with
the offending chunk pair and a sample of the overlapping rows.  Treating
each item as its own chunk makes findings independent of the executor that
actually ran the loop (chunking is a scheduling knob, not a correctness
boundary): a race is reported even when the loop happened to run serially.

Protocol checking (:class:`GluonSyncChecker`) hooks the synchronizer's one
fold kernel — so every caller, the training engine and direct ``fold``
users alike, is audited by the same code.  For each field it watches
(:meth:`~GluonSyncChecker.watch`) it keeps a *shadow* of every replica —
the rows as the protocol last left them (a landing, a capture, a restore)
— and tracks three per-(field, host) invariants:

- **dropped writes** — rows where the replica differs from its shadow that
  were neither in the fold's touched set nor part of the *expected
  residual* (PullModel legitimately leaves already-reduced deltas in place
  on rows it chose not to refresh);
- **stale reads** — a host contributing a row its replica held stale
  *when the step started* (the master changed in an earlier fold without
  a broadcast reaching this host since).  Rows that go stale while a host
  runs ahead of the fold frontier are the bounded-staleness contract,
  which ``note_async_step`` audits, not a finding;
- **redundant broadcasts** — received rows that neither changed at their
  master nor were requested through the plan's access mechanism.

A :func:`note_write` outside any sanitized loop is a no-op, so the
instrumentation can stay in place permanently at negligible cost.
"""

from __future__ import annotations

from dataclasses import dataclass, field
import itertools
import os
import threading
from typing import Any, Callable, Sequence

import numpy as np

from repro.gluon.proxies import master_block_slice

__all__ = [
    "SANITIZE_ENV_VAR",
    "SanitizeFinding",
    "SanitizeError",
    "DoAllRaceSanitizer",
    "SanitizedExecutor",
    "GluonSyncChecker",
    "note_read",
    "note_write",
    "sanitize_from_env",
]

#: Environment variable enabling the sanitizers in components that consult
#: it (``GraphWord2Vec`` when ``sanitize=None``); how the CI job runs the
#: whole tier-1 suite under full checking.
SANITIZE_ENV_VAR = "REPRO_SANITIZE"

_TRUTHY = frozenset({"1", "true", "yes", "on"})


def sanitize_from_env() -> bool:
    """Whether ``REPRO_SANITIZE`` requests sanitized execution."""
    return os.environ.get(SANITIZE_ENV_VAR, "").strip().lower() in _TRUTHY


#: Rows quoted per finding (full overlap sets can be huge).
_SAMPLE_ROWS = 8
#: Findings emitted per checked loop/round before truncation.
_MAX_FINDINGS_PER_CHECK = 16


def _sample(rows: np.ndarray) -> list[int]:
    return [int(r) for r in np.asarray(rows).ravel()[:_SAMPLE_ROWS]]


@dataclass(frozen=True)
class SanitizeFinding:
    """One observed violation, with enough context to locate it."""

    checker: str  # "do_all" | "gluon"
    kind: str  # e.g. "write-write", "dropped-write", "stale-read"
    message: str
    details: dict = field(default_factory=dict)

    def __str__(self) -> str:
        return f"[{self.checker}:{self.kind}] {self.message}"


class SanitizeError(RuntimeError):
    """Raised at a checking barrier when any sanitizer collected findings."""

    def __init__(self, findings: Sequence[SanitizeFinding], context: str = ""):
        self.findings = list(findings)
        where = f" ({context})" if context else ""
        body = "\n".join(f"  {f}" for f in self.findings)
        super().__init__(
            f"{len(self.findings)} sanitizer finding(s){where}:\n{body}"
        )


# ----------------------------------------------------------------------
# do_all race detection
# ----------------------------------------------------------------------
class _ChunkAccess:
    """Row sets one chunk reported; written only by the executing thread."""

    __slots__ = ("chunk_id", "reads", "writes")

    def __init__(self, chunk_id: int):
        self.chunk_id = chunk_id
        # (array id, label, rows) triples.
        self.reads: list[tuple[int, str, np.ndarray]] = []
        self.writes: list[tuple[int, str, np.ndarray]] = []

    def note(self, array: np.ndarray, rows: Any, mode: str, label: str | None) -> None:
        rows = np.asarray(rows)
        entry = (id(array), label or f"array@{id(array):#x}", rows)
        (self.writes if mode == "w" else self.reads).append(entry)


class _LoopRecord:
    """All chunks of one sanitized ``do_all`` loop."""

    __slots__ = ("name", "chunks", "_lock")

    def __init__(self, name: str):
        self.name = name
        self.chunks: list[_ChunkAccess] = []
        self._lock = threading.Lock()

    def add(self, chunk: _ChunkAccess) -> None:
        with self._lock:
            self.chunks.append(chunk)


_ctx = threading.local()


def note_write(array: np.ndarray, rows: Any, label: str | None = None) -> None:
    """Report rows of ``array`` the current loop item writes.

    No-op unless called from inside a :class:`SanitizedExecutor` run, so
    instrumented operators cost one thread-local lookup when sanitizers
    are off.  ``rows`` must not be mutated afterwards (a reference is
    kept until the loop barrier).
    """
    record = getattr(_ctx, "record", None)
    if record is not None:
        record.note(array, rows, "w", label)


def note_read(array: np.ndarray, rows: Any, label: str | None = None) -> None:
    """Report rows of ``array`` the current loop item reads (see
    :func:`note_write`)."""
    record = getattr(_ctx, "record", None)
    if record is not None:
        record.note(array, rows, "r", label)


class DoAllRaceSanitizer:
    """Collects and checks shadow access records of sanitized loops."""

    name = "do_all"

    def __init__(self) -> None:
        self.findings: list[SanitizeFinding] = []
        self.loops_checked = 0
        self._lock = threading.Lock()

    def check_loop(self, loop: _LoopRecord) -> list[SanitizeFinding]:
        """Analyze one finished loop; appends and returns new findings."""
        per_array: dict[int, dict[int, tuple[str, list[np.ndarray], list[np.ndarray]]]] = {}
        for chunk in loop.chunks:
            for arr_id, label, rows in chunk.writes:
                slot = per_array.setdefault(arr_id, {}).setdefault(
                    chunk.chunk_id, (label, [], [])
                )
                slot[1].append(rows)
            for arr_id, label, rows in chunk.reads:
                slot = per_array.setdefault(arr_id, {}).setdefault(
                    chunk.chunk_id, (label, [], [])
                )
                slot[2].append(rows)

        new: list[SanitizeFinding] = []

        def union(parts: list[np.ndarray]) -> np.ndarray:
            if not parts:
                return np.empty(0, dtype=np.int64)
            return np.unique(np.concatenate([np.asarray(p).ravel() for p in parts]))

        for arr_id, by_chunk in per_array.items():
            if len(by_chunk) < 2:
                continue
            resolved = {
                cid: (label, union(w), union(r))
                for cid, (label, w, r) in by_chunk.items()
            }
            for a, b in itertools.combinations(sorted(resolved), 2):
                if len(new) >= _MAX_FINDINGS_PER_CHECK:
                    break
                label, wa, ra = resolved[a]
                _, wb, rb = resolved[b]
                ww = np.intersect1d(wa, wb, assume_unique=True)
                if ww.size:
                    new.append(
                        SanitizeFinding(
                            self.name,
                            "write-write",
                            f"loop {loop.name}: chunks {a} and {b} both write "
                            f"{label} rows {_sample(ww)} ({ww.size} overlapping)",
                            {
                                "loop": loop.name,
                                "chunks": (a, b),
                                "array": label,
                                "rows": _sample(ww),
                                "overlap": int(ww.size),
                            },
                        )
                    )
                for (ca, cb, w, r) in ((a, b, wa, rb), (b, a, wb, ra)):
                    rw = np.intersect1d(w, r, assume_unique=True)
                    if rw.size:
                        new.append(
                            SanitizeFinding(
                                self.name,
                                "read-write",
                                f"loop {loop.name}: chunk {ca} writes {label} rows "
                                f"{_sample(rw)} that chunk {cb} reads "
                                f"({rw.size} overlapping)",
                                {
                                    "loop": loop.name,
                                    "chunks": (ca, cb),
                                    "array": label,
                                    "rows": _sample(rw),
                                    "overlap": int(rw.size),
                                },
                            )
                        )

        with self._lock:
            self.findings.extend(new)
            self.loops_checked += 1
        return new


class SanitizedExecutor:
    """Executor wrapper that shadow-records per-chunk access sets.

    Wraps any :class:`~repro.galois.do_all.DoAllExecutor`; the inner
    executor still runs the loop (serial or thread pool), while each item
    executes with a thread-local access record bound for
    :func:`note_read`/:func:`note_write`.  Item order, chunk scheduling
    and exception semantics are untouched, so results are exactly those
    of the inner executor.
    """

    def __init__(
        self,
        inner: Any,
        sanitizer: DoAllRaceSanitizer,
        name: str = "do_all",
    ):
        self.inner = inner
        self.sanitizer = sanitizer
        self.name = name
        self._loop_counter = itertools.count()

    def run(self, items: Sequence[Any], operator: Callable[[Any], None]) -> None:
        items = list(items)
        if not items:
            self.inner.run(items, operator)
            return
        loop = _LoopRecord(f"{self.name}#{next(self._loop_counter)}")

        def shadowed(index: int) -> None:
            chunk = _ChunkAccess(index)
            _ctx.record = chunk
            try:
                operator(items[index])
            finally:
                _ctx.record = None
                loop.add(chunk)

        try:
            self.inner.run(range(len(items)), shadowed)
        finally:
            # Check even on operator failure: access records collected
            # before the error still carry race evidence.
            self.sanitizer.check_loop(loop)


# ----------------------------------------------------------------------
# Gluon synchronization protocol checking
# ----------------------------------------------------------------------
def _empty_ids() -> np.ndarray:
    return np.empty(0, dtype=np.int64)


def _concat_sorted(parts: Sequence[np.ndarray]) -> np.ndarray:
    nonempty = [np.asarray(p, dtype=np.int64) for p in parts if len(p)]
    if not nonempty:
        return _empty_ids()
    return np.sort(np.concatenate(nonempty))


class GluonSyncChecker:
    """Tracks per-field dirty/stale invariants across folds.

    Attach via ``synchronizer.checker = checker`` (both the embedding and
    output synchronizers may share one instance; state is keyed by field
    name) and :meth:`watch` every field it will sync.  The checker observes
    the fold kernel's entry and exit, every broadcast landing (a fold's or
    a PullModel refresh's) and ``restore_host``, and — for the BSP
    value-mode loop — per-round outcomes through :meth:`observe_bsp_round`.
    It doubles as the divergence sentinel: rows a fold leaves non-finite
    are a finding naming the round, field and host.  It never writes a
    replica.
    """

    name = "gluon"

    def __init__(self) -> None:
        self.findings: list[SanitizeFinding] = []
        self.rounds_observed = 0
        # Per watched field: each host's replica rows as the protocol last
        # left them — a landing, the engine's capture, a restore.
        self._shadow: dict[str, list[np.ndarray]] = {}
        # Expected residual per (field, host): rows where array != shadow is
        # legitimate because the delta was already reduced but the plan
        # chose not to refresh the row (PullModel).
        self._residual: dict[tuple[str, int], np.ndarray] = {}
        # Stale rows per (field, host): master changed, no broadcast
        # received by this host since.  Arrays are replaced, never
        # mutated, so a reference is a snapshot.
        self._stale: dict[tuple[str, int], np.ndarray] = {}
        # The stale set each noted step started from, per (field, host,
        # round): what its fold's stale-read rule is judged against.
        self._stale_at_start: dict[tuple[str, int, int], np.ndarray] = {}
        # Bounded-staleness audit: the next round each (field, host) clock
        # may start, and the fold frontier per field.
        self._async_clock: dict[tuple[str, int], int] = {}
        self._async_folds: dict[str, int] = {}

    def watch(self, field_sync: Any) -> None:
        """Audit ``field_sync`` from its replicas' current values on: before
        its first sync, and after its replicas are rebuilt outside the
        protocol (a checkpoint load)."""
        self._shadow[field_sync.name] = [a.copy() for a in field_sync.arrays]

    def require_watched(self, field_sync: Any) -> list[np.ndarray]:
        """The field's shadow; a ``ValueError`` naming it when unwatched."""
        if field_sync.name not in self._shadow:
            raise ValueError(f"field {field_sync.name!r} is not watched by the sync checker")
        return self._shadow[field_sync.name]

    def note_capture(self, field_sync: Any, host: int, ids: np.ndarray) -> None:
        """The engine buffered ``host``'s rows ``ids`` as a step's delta."""
        self._shadow[field_sync.name][host][ids] = field_sync.arrays[host][ids]

    def reset_state(self) -> None:
        """Forget residual/stale tracking (e.g. after a checkpoint load)."""
        self._residual.clear()
        self._stale.clear()
        self._stale_at_start.clear()
        self._async_clock.clear()
        self._async_folds.clear()

    # -- bounded-staleness hooks (training engine) ----------------------
    def note_async_step(
        self,
        field_name: str,
        host: int,
        round_index: int,
        folds_done: int,
        staleness: int,
    ) -> None:
        """A host is starting ``round_index`` with ``folds_done`` folds behind it.

        Asserts the SSP contract: a host may lead the sync frontier by at
        most ``staleness`` rounds, and its own per-(field, host) clock only
        ever moves forward.  Called by the engine as each step starts —
        after the step's mirror refresh, before its kernel — so the stale
        set recorded here is what the step may not touch; any violation is
        a scheduler bug, never legal behavior.
        """
        lead = round_index - folds_done
        if lead > staleness:
            self.findings.append(
                SanitizeFinding(
                    self.name,
                    "staleness-exceeded",
                    f"field {field_name!r}: host {host} starts round "
                    f"{round_index} with only {folds_done} folds done — lead "
                    f"{lead} exceeds the staleness bound {staleness}",
                    {
                        "field": field_name,
                        "host": host,
                        "round": round_index,
                        "folds_done": folds_done,
                        "staleness": staleness,
                    },
                )
            )
        expected = self._async_clock.get((field_name, host), 0)
        if round_index < expected or folds_done > round_index:
            self.findings.append(
                SanitizeFinding(
                    self.name,
                    "clock-skew",
                    f"field {field_name!r}: host {host} starts round "
                    f"{round_index} out of order (next expected "
                    f"{expected}, folds done {folds_done})",
                    {
                        "field": field_name,
                        "host": host,
                        "round": round_index,
                        "expected": expected,
                        "folds_done": folds_done,
                    },
                )
            )
        self._async_clock[(field_name, host)] = round_index + 1
        self._stale_at_start[(field_name, host, round_index)] = self._stale.get(
            (field_name, host), _empty_ids()
        )

    def note_async_fold(self, field_name: str, round_index: int) -> None:
        """The sync frontier folded ``round_index`` for ``field_name``.

        Folds must advance one round at a time (the frontier is the min of
        the host clocks, which only moves in unit steps).
        """
        # The first fold observed seeds the ledger (a resumed run's
        # frontier starts wherever the checkpoint left it).
        expected = self._async_folds.get(field_name, round_index)
        if round_index != expected:
            self.findings.append(
                SanitizeFinding(
                    self.name,
                    "fold-skipped",
                    f"field {field_name!r}: fold of round {round_index} "
                    f"arrived out of order (expected {expected})",
                    {
                        "field": field_name,
                        "round": round_index,
                        "expected": expected,
                    },
                )
            )
        self._async_folds[field_name] = round_index + 1

    # -- fold-kernel hooks ----------------------------------------------
    def before_fold(
        self, field_sync: Any, touched: Sequence[np.ndarray], sync_round: int
    ) -> None:
        """Entry hook: validate writes against the touched sets, before any
        mutation.  ``sync_round`` is the caller's ``fold_offset`` — the
        trainer's global round."""
        name = field_sync.name
        shadow = self.require_watched(field_sync)
        emitted = 0
        for h, flagged in enumerate(touched):
            arr = field_sync.arrays[h]
            neq = arr != shadow[h]
            if np.issubdtype(arr.dtype, np.floating):
                # NaN != NaN: rows that diverged to NaN on both sides are
                # equal for protocol purposes (divergence is a legitimate
                # training outcome, not a dropped write).
                neq &= ~(np.isnan(arr) & np.isnan(shadow[h]))
            dirty = np.flatnonzero(neq.any(axis=1)).astype(np.int64)
            allowed = np.union1d(flagged, self._residual.get((name, h), _empty_ids()))
            # Touched rows stay expected residual until a landing
            # refreshes them (``after_broadcast``).
            self._residual[(name, h)] = allowed
            dropped = np.setdiff1d(dirty, allowed, assume_unique=True)
            if dropped.size and emitted < _MAX_FINDINGS_PER_CHECK:
                emitted += 1
                self.findings.append(
                    SanitizeFinding(
                        self.name,
                        "dropped-write",
                        f"field {name!r}: host {h} rows {_sample(dropped)} "
                        f"({dropped.size} total) differ from what the protocol last "
                        "left there, outside the touched set it handed the fold: "
                        "a write whose delta will never be reduced, or a landing "
                        "that never stored what it received",
                        {"field": name, "host": h, "rows": _sample(dropped)},
                    )
                )
            # A step the engine noted is judged against the stale set it
            # started from; without a note the caller is lock-step and
            # every row still stale now was stale when it computed.
            stale = self._stale_at_start.pop(
                (name, h, sync_round), self._stale.get((name, h), _empty_ids())
            )
            hit = np.intersect1d(flagged, stale, assume_unique=True)
            if hit.size and emitted < _MAX_FINDINGS_PER_CHECK:
                emitted += 1
                self.findings.append(
                    SanitizeFinding(
                        self.name,
                        "stale-read",
                        f"field {name!r}: host {h} updated rows {_sample(hit)} "
                        f"({hit.size} total) whose replica is stale (master "
                        "changed without a broadcast reaching this host)",
                        {"field": name, "host": h, "rows": _sample(hit)},
                    )
                )

    def after_broadcast(
        self,
        field_sync: Any,
        bounds: np.ndarray,
        plan: Any,
        changed_per_master: Sequence[np.ndarray],
        accessed: Sequence[np.ndarray] | None,
        received_per_host: Sequence[np.ndarray],
        landed_per_host: Sequence[np.ndarray],
    ) -> None:
        """Rows landed on mirrors (a fold's broadcast or a PullModel
        refresh): audit them, shadow them and roll the stale/residual
        ledgers.  The shadow takes what the landing stored
        (``landed_per_host[h]``, read-my-writes adjustment included), not
        the replica's rows: a receiver that never stored them then
        differs from its shadow at the next fold."""
        name = field_sync.name
        changed_all = _concat_sorted(changed_per_master)  # blocks disjoint => unique
        emitted = 0
        for h, (recv, landed) in enumerate(zip(received_per_host, landed_per_host)):
            if recv.size:
                self._shadow[name][h][recv] = landed
                justified = np.isin(recv, changed_all)
                if plan.requires_access_sets and accessed is not None:
                    justified |= np.isin(recv, np.asarray(accessed[h], dtype=np.int64))
                redundant = recv[~justified]
                if redundant.size and emitted < _MAX_FINDINGS_PER_CHECK:
                    emitted += 1
                    self.findings.append(
                        SanitizeFinding(
                            self.name,
                            "redundant-broadcast",
                            f"field {name!r}: host {h} received rows "
                            f"{_sample(redundant)} ({redundant.size} total) that "
                            "neither changed at their master nor were requested "
                            "by the plan's access mechanism",
                            {"field": name, "host": h, "rows": _sample(redundant)},
                        )
                    )
            # A master's own freshly folded rows landed like a broadcast.
            self._residual[(name, h)] = np.setdiff1d(
                self._residual.get((name, h), _empty_ids()),
                np.union1d(recv, changed_per_master[h]),
                assume_unique=True,
            )
            block = master_block_slice(bounds, h)
            foreign = changed_all[
                (changed_all < block.start) | (changed_all >= block.stop)
            ]
            stale = np.union1d(self._stale.get((name, h), _empty_ids()), foreign)
            self._stale[(name, h)] = np.setdiff1d(stale, recv, assume_unique=True)

    def after_fold(
        self, field_sync: Any, result: Any, own_landed: Sequence[np.ndarray], sync_round: int
    ) -> None:
        """Exit hook: shadow each master's own folded rows as its landing
        stored them (``own_landed[h]``, ``None`` with no rows), then the
        divergence sentinel over the rows this fold wrote (``result`` is
        the kernel's ``ReplicatedSyncResult``)."""
        name = field_sync.name
        emitted = 0
        for h, (own, recv) in enumerate(
            zip(result.changed_per_master, result.received_per_host)
        ):
            if own.size:
                self._shadow[name][h][own] = own_landed[h]
            landed = np.union1d(recv, own)
            broken = landed[~np.isfinite(field_sync.arrays[h][landed]).all(axis=1)]
            if broken.size and emitted < _MAX_FINDINGS_PER_CHECK:
                emitted += 1
                self.findings.append(
                    SanitizeFinding(
                        self.name,
                        "non-finite",
                        f"field {name!r}: the sync of round {sync_round} left rows "
                        f"{_sample(broken)} ({broken.size} total) non-finite on "
                        f"host {h} (training diverged)",
                        {"field": name, "round": sync_round, "host": h,
                         "rows": _sample(broken)},
                    )
                )
        self.rounds_observed += 1

    def after_restore(self, field_sync: Any, host: int) -> None:
        """Crash recovery rebuilt ``host``'s replica: everything is fresh,
        for the steps it has already noted too."""
        np.copyto(self._shadow[field_sync.name][host], field_sync.arrays[host])
        self._residual[(field_sync.name, host)] = _empty_ids()
        self._stale[(field_sync.name, host)] = _empty_ids()
        for key in self._stale_at_start:
            if key[:2] == (field_sync.name, host):
                self._stale_at_start[key] = _empty_ids()

    # -- BSP value-mode hook --------------------------------------------
    def observe_bsp_round(self, round_index: int, local_work: int, result: Any) -> None:
        """Value-mode rounds: synchronization may only change labels when
        some host did local work (masters cannot invent updates)."""
        if local_work == 0 and getattr(result, "any_changed", False):
            self.findings.append(
                SanitizeFinding(
                    self.name,
                    "phantom-sync",
                    f"BSP round {round_index}: synchronization changed labels "
                    "although no host performed local work",
                    {"round": round_index},
                )
            )
