"""Durable, crash-safe work-unit store for distributed campaigns.

The campaign service (:mod:`repro.experiments.service`) shards sweeps and
verification campaigns into self-describing *work units* persisted in a
:class:`JobStore`: one SQLite database file, ``<store>/store.sqlite3``, in WAL
mode, shared by any number of coordinator and worker processes on one host.
The store is the single source of truth for a campaign's progress.  A unit is
one row of the ``units`` table, so it is in exactly one state at a time, and
every transition is one ``BEGIN IMMEDIATE`` transaction that writes the state
change together with its ``journal`` row — a crash at any instant leaves
either the whole transition or none of it:

``pending``
    claimable units.  ``claim()`` flips the first ready row to ``leased``
    inside a write transaction, so exactly one worker wins a unit no matter
    how many race for it.
``leased``
    units being executed.  The row carries the worker, a fencing
    ``lease_id`` and a wall clock deadline; workers renew the deadline by
    heartbeat.  A crashed or wedged worker stops renewing, the deadline
    passes, and :meth:`JobStore.recover` moves the unit back to ``pending`` —
    worker death is a re-dispatch, not a loss.
``done``
    completed units; the result is committed in the same row by the same
    transaction, so a ``done`` unit always has its result — or is requeued
    for recomputation if that result turns out unreadable.
``failed``
    units awaiting their retry backoff (exponential in the attempt count).
``quarantine``
    poison units that failed ``max_attempts`` times.  A failure artifact is
    recorded under ``artifacts/`` and the campaign *continues* — graceful
    degradation, never a hang.

The ``journal`` table records every transition (enqueue, claim, done, failed,
lease-expired, requeue, retry, speculate, quarantine, ...) so resume
semantics are auditable: the chaos tests assert "zero recomputation of
``done`` units" directly from the journal.

Execution is **at-least-once**: a lease can expire under a worker that is
merely slow, and speculation deliberately double-dispatches stragglers, so
the same unit may run twice.  That is safe here by construction — campaign
units are deterministic (the reset-equivalence and parallel==serial
contracts), so duplicate executions produce identical results; a commit
whose ``lease_id`` no longer matches the row is fenced.

SQLite's locking needs a local filesystem: many processes on one host may
share a store, but a store on a network filesystem is not supported.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import threading
import time
import uuid
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional

from ..errors import JobStoreError

#: Work-unit states; a unit is one row whose ``state`` column is one of these.
PENDING = "pending"
LEASED = "leased"
DONE = "done"
FAILED = "failed"
QUARANTINED = "quarantine"

STATES = (PENDING, LEASED, DONE, FAILED, QUARANTINED)

#: Seconds a transaction waits for another process's write lock before the
#: store gives up with ``sqlite3.OperationalError: database is locked``.
BUSY_TIMEOUT = 60.0

_SCHEMA = """
CREATE TABLE IF NOT EXISTS units (
    id TEXT PRIMARY KEY,
    kind TEXT NOT NULL,
    description TEXT NOT NULL,
    payload TEXT NOT NULL,
    state TEXT NOT NULL,
    attempts INTEGER NOT NULL,
    not_before REAL NOT NULL,
    enqueued_at REAL NOT NULL,
    last_error TEXT,
    lease_id TEXT,
    worker_id TEXT,
    deadline REAL,
    claimed_at REAL,
    result TEXT
);
CREATE INDEX IF NOT EXISTS units_by_state ON units (state, id);
CREATE TABLE IF NOT EXISTS journal (
    seq INTEGER PRIMARY KEY,
    record TEXT NOT NULL
);
"""

#: The ``units`` columns a :class:`WorkUnit` is rebuilt from, in field order.
_UNIT_COLUMNS = (
    "id, kind, description, payload, attempts, not_before, enqueued_at, last_error"
)


@dataclass
class WorkUnit:
    """One self-describing unit of campaign work.

    ``unit_id`` is the unit's durable identity — the existing config-hash
    cache key for sweep points, a content hash for verification tasks — so
    re-enqueueing the same campaign into the same store finds its completed
    units instead of recomputing them.  ``payload`` is whatever the executor
    (:func:`repro.experiments.service.execute_unit`) needs, JSON-encodable.
    """

    unit_id: str
    kind: str
    description: str = ""
    payload: Dict = field(default_factory=dict)
    attempts: int = 0
    not_before: float = 0.0
    enqueued_at: float = 0.0
    last_error: Optional[str] = None

    def to_jsonable(self) -> Dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_jsonable(cls, data: Dict) -> "WorkUnit":
        return cls(**data)

    @classmethod
    def from_row(cls, row) -> "WorkUnit":
        unit_id, kind, description, payload, *rest = row
        return cls(unit_id, kind, description, json.loads(payload), *rest)


@dataclass
class Lease:
    """A claimed unit plus the fencing token proving the claim is still ours."""

    unit: WorkUnit
    lease_id: str
    worker_id: str
    deadline: float


class JobStore:
    """SQLite-backed durable work queue (see the module docstring).

    All timestamps are wall-clock seconds from ``clock`` (default
    :func:`time.time`); tests inject a fake clock to exercise lease expiry
    and retry backoff without sleeping.  One store object may be shared by
    the threads of a process (a worker's heartbeat thread does this): its
    single connection is guarded by a re-entrant lock, so queries may run
    inside a transaction and see its writes.
    """

    def __init__(
        self,
        root,
        lease_timeout: float = 30.0,
        max_attempts: int = 3,
        backoff_base: float = 0.5,
        backoff_cap: float = 30.0,
        clock: Callable[[], float] = time.time,
    ) -> None:
        # Imported here, not at module level: importing repro.experiments
        # must not pay for sqlite3 unless a store is actually opened.
        import sqlite3

        self.root = Path(root).expanduser()
        self.lease_timeout = float(lease_timeout)
        self.max_attempts = int(max_attempts)
        self.backoff_base = float(backoff_base)
        self.backoff_cap = float(backoff_cap)
        self.clock = clock
        self.artifacts_dir = self.root / "artifacts"
        self.artifacts_dir.mkdir(parents=True, exist_ok=True)
        self._lock = threading.RLock()
        self._db = sqlite3.connect(
            self.root / "store.sqlite3",
            timeout=BUSY_TIMEOUT,
            isolation_level=None,  # explicit BEGIN IMMEDIATE per transition
            check_same_thread=False,  # shared under self._lock
        )
        self._db.execute("PRAGMA journal_mode=WAL")
        # WAL + NORMAL survives any process crash; only an OS crash or power
        # loss can drop the last few commits.
        self._db.execute("PRAGMA synchronous=NORMAL")
        self._db.executescript(_SCHEMA)

    # ------------------------------------------------------------ primitives

    @contextlib.contextmanager
    def _write(self):
        """One write transaction: every statement in it commits or none does."""
        with self._lock:
            self._db.execute("BEGIN IMMEDIATE")
            try:
                yield self._db
            except BaseException:
                self._db.execute("ROLLBACK")
                raise
            self._db.execute("COMMIT")

    def _query(self, sql: str, *args) -> List[tuple]:
        with self._lock:
            return self._db.execute(sql, args).fetchall()

    def _log(self, db, event: str, unit_id: str = "", **fields) -> None:
        """Append one journal record inside the caller's transaction."""
        record = {"t": round(self.clock(), 3), "event": event}
        if unit_id:
            record["unit"] = unit_id
        record.update(fields)
        db.execute(
            "INSERT INTO journal (record) VALUES (?)",
            (json.dumps(record, sort_keys=True),),
        )

    def _settle(self, db, unit: WorkUnit, state: str) -> None:
        """Write ``unit``'s retry bookkeeping and move it to ``state``.

        Any lease on the row is dropped, which fences its holder.
        """
        db.execute(
            "UPDATE units SET state = ?, attempts = ?, not_before = ?,"
            " last_error = ?, lease_id = NULL, worker_id = NULL,"
            " deadline = NULL, claimed_at = NULL WHERE id = ?",
            (state, unit.attempts, unit.not_before, unit.last_error, unit.unit_id),
        )

    def journal(self, event: str, unit_id: str = "", **fields) -> None:
        """Append one record to the journal, in its own transaction."""
        with self._write() as db:
            self._log(db, event, unit_id, **fields)

    def journal_entries(self, offset: int = 0) -> List[Dict]:
        """Parsed journal records after the first ``offset``."""
        rows = self._query(
            "SELECT record FROM journal WHERE seq > ? ORDER BY seq", offset
        )
        return [json.loads(record) for (record,) in rows]

    def journal_offset(self) -> int:
        """Current journal length, for run-scoped summaries after a resume."""
        return self._query("SELECT COALESCE(MAX(seq), 0) FROM journal")[0][0]

    # ----------------------------------------------------------------- query

    def find(self, unit_id: str) -> Optional[str]:
        """The state a unit is currently in, or None if unknown."""
        rows = self._query("SELECT state FROM units WHERE id = ?", unit_id)
        return rows[0][0] if rows else None

    def ids(self, state: str) -> List[str]:
        """Sorted unit ids currently in ``state``."""
        rows = self._query("SELECT id FROM units WHERE state = ? ORDER BY id", state)
        return [unit_id for (unit_id,) in rows]

    def counts(self) -> Dict[str, int]:
        counts = dict.fromkeys(STATES, 0)
        counts.update(
            self._query("SELECT state, COUNT(*) FROM units GROUP BY state")
        )
        return counts

    def unit(self, unit_id: str) -> WorkUnit:
        """Load a unit from whatever state it is in."""
        rows = self._query(f"SELECT {_UNIT_COLUMNS} FROM units WHERE id = ?", unit_id)
        if not rows:
            raise JobStoreError(f"unknown unit {unit_id!r}")
        return WorkUnit.from_row(rows[0])

    def stragglers(self, older_than: float) -> List[str]:
        """Sorted ids of leased units claimed at least ``older_than`` s ago."""
        rows = self._query(
            "SELECT id FROM units WHERE state = ? AND claimed_at <= ? ORDER BY id",
            LEASED,
            self.clock() - older_than,
        )
        return [unit_id for (unit_id,) in rows]

    # --------------------------------------------------------------- enqueue

    def enqueue(self, unit: WorkUnit) -> str:
        """Add a unit; a unit already known keeps its state (resume!).

        Returns the state the unit is in afterwards: ``done`` means the
        store already has a committed result for this id and nothing will be
        recomputed.
        """
        with self._write() as db:
            existing = self.find(unit.unit_id)
            if existing is not None:
                return existing
            db.execute(
                f"INSERT INTO units ({_UNIT_COLUMNS}, state)"
                " VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?)",
                (
                    unit.unit_id,
                    unit.kind,
                    unit.description,
                    json.dumps(unit.payload, sort_keys=True),
                    unit.attempts,
                    unit.not_before,
                    self.clock(),
                    unit.last_error,
                    PENDING,
                ),
            )
            self._log(db, "enqueue", unit.unit_id, kind=unit.kind)
        return PENDING

    # ----------------------------------------------------------------- claim

    def claim(self, worker_id: str) -> Optional[Lease]:
        """Atomically claim one ready pending unit, or None.

        The write transaction is the only arbitration: concurrent claimants
        serialise on it, and each sees the rows its predecessors flipped.
        """
        now = self.clock()
        with self._write() as db:
            row = db.execute(
                f"SELECT {_UNIT_COLUMNS} FROM units WHERE state = ?"
                " AND not_before <= ? ORDER BY id LIMIT 1",
                (PENDING, now),
            ).fetchone()
            if row is None:
                return None
            lease = Lease(
                unit=WorkUnit.from_row(row),
                lease_id=uuid.uuid4().hex,
                worker_id=worker_id,
                deadline=now + self.lease_timeout,
            )
            db.execute(
                "UPDATE units SET state = ?, lease_id = ?, worker_id = ?,"
                " deadline = ?, claimed_at = ? WHERE id = ?",
                (LEASED, lease.lease_id, worker_id, lease.deadline, now, row[0]),
            )
            self._log(
                db, "claim", row[0], worker=worker_id, attempt=lease.unit.attempts + 1
            )
        return lease

    def heartbeat(self, lease: Lease) -> bool:
        """Renew the lease deadline; False means the lease was lost (fenced)."""
        deadline = self.clock() + self.lease_timeout
        with self._write() as db:
            renewed = db.execute(
                "UPDATE units SET deadline = ? WHERE id = ? AND lease_id = ?",
                (deadline, lease.unit.unit_id, lease.lease_id),
            ).rowcount
        if renewed:
            lease.deadline = deadline
        return bool(renewed)

    # ---------------------------------------------------------- transitions

    def complete(self, lease: Lease, result: Dict, _corrupt: bool = False) -> bool:
        """Commit a finished unit: result and ``done`` state in one transaction.

        Returns False when the commit was fenced — the lease expired and the
        unit was re-dispatched (or already completed) elsewhere.  Fencing a
        *correct* duplicate result is harmless: units are deterministic, so
        whichever commit landed recorded the same values.

        ``_corrupt`` is the :class:`~repro.experiments.service.FaultPlan`
        chaos hook: it commits a deliberately garbled result so the
        read-side corruption check can be tested end to end.
        """
        unit_id = lease.unit.unit_id
        text = '{"kind": "torn' if _corrupt else json.dumps(result, sort_keys=True)
        with self._write() as db:
            committed = db.execute(
                "UPDATE units SET state = ?, result = ?, lease_id = NULL,"
                " deadline = NULL WHERE id = ? AND lease_id = ?",
                (DONE, text, unit_id, lease.lease_id),
            ).rowcount
            event = "done" if committed else "commit-fenced"
            self._log(db, event, unit_id, worker=lease.worker_id)
        return bool(committed)

    def _backoff(self, attempts: int) -> float:
        return min(self.backoff_cap, self.backoff_base * (2 ** max(0, attempts - 1)))

    def _retire(self, db, unit: WorkUnit, reason: str, worker: str = "") -> str:
        """Move a unit that just failed an attempt to ``failed`` or quarantine."""
        unit_id = unit.unit_id
        if unit.attempts >= self.max_attempts:
            artifact = self.artifacts_dir / f"{unit_id}.poison.json"
            artifact.write_text(
                json.dumps(
                    {
                        "format": "repro-poison-unit-v1",
                        "unit": unit.to_jsonable(),
                        "reason": reason,
                    },
                    sort_keys=True,
                )
            )
            self._settle(db, unit, QUARANTINED)
            self._log(
                db,
                "quarantine",
                unit_id,
                attempts=unit.attempts,
                artifact=str(artifact),
                worker=worker,
            )
            return QUARANTINED
        self._settle(db, unit, FAILED)
        self._log(
            db,
            "failed",
            unit_id,
            attempts=unit.attempts,
            retry_at=round(unit.not_before, 3),
            worker=worker,
        )
        return FAILED

    def _holds_lease(self, lease: Lease) -> bool:
        return bool(
            self._query(
                "SELECT 1 FROM units WHERE id = ? AND lease_id = ?",
                lease.unit.unit_id,
                lease.lease_id,
            )
        )

    def fail(self, lease: Lease, error: str) -> str:
        """Record a failed attempt; backoff-retry or quarantine after N tries."""
        with self._write() as db:
            if not self._holds_lease(lease):
                # The lease expired and the unit was re-dispatched: its fate
                # now belongs to the new holder, not to this stale attempt.
                self._log(db, "fail-fenced", lease.unit.unit_id, worker=lease.worker_id)
                return self.find(lease.unit.unit_id) or PENDING
            unit = dataclasses.replace(
                lease.unit,
                attempts=lease.unit.attempts + 1,
                last_error=str(error)[-2000:],
            )
            unit.not_before = self.clock() + self._backoff(unit.attempts)
            return self._retire(db, unit, unit.last_error, worker=lease.worker_id)

    def release(self, lease: Lease) -> None:
        """Hand an unfinished unit back (graceful shutdown; no attempt burned)."""
        with self._write() as db:
            if self._holds_lease(lease):
                self._settle(db, lease.unit, PENDING)
                self._log(db, "release", lease.unit.unit_id, worker=lease.worker_id)

    # ---------------------------------------------------------------- results

    def load_result(self, unit_id: str) -> Optional[Dict]:
        """The committed result payload of a ``done`` unit.

        A garbled result (fault injection, or an edit to the database) is
        copied to ``artifacts/<id>.result.corrupt`` and the unit is requeued
        for recomputation; the caller sees None now and a fresh result after
        the next drain.
        """
        rows = self._query("SELECT result FROM units WHERE id = ?", unit_id)
        if not rows or rows[0][0] is None:
            return None
        text = rows[0][0]
        try:
            return json.loads(text)
        except ValueError:
            pass
        corrupt = self.artifacts_dir / f"{unit_id}.result.corrupt"
        with self._write() as db:
            # Requeue only if nobody recomputed the unit since our read.
            requeued = db.execute(
                "UPDATE units SET state = ?, result = NULL WHERE id = ? AND result = ?",
                (PENDING, unit_id, text),
            ).rowcount
            if requeued:
                corrupt.write_text(text)
                self._log(db, "result-corrupt", unit_id, quarantined=str(corrupt))
        return None

    # --------------------------------------------------------------- recovery

    def _expire(self, db, unit: WorkUnit, reason: str) -> None:
        """One expired lease: burn an attempt and requeue (or quarantine)."""
        unit.attempts += 1
        unit.last_error = reason
        unit.not_before = self.clock() + self._backoff(unit.attempts)
        self._log(db, "lease-expired", unit.unit_id, reason=reason, attempts=unit.attempts)
        if unit.attempts >= self.max_attempts:
            self._retire(db, unit, reason)
        else:
            self._settle(db, unit, PENDING)
            self._log(db, "requeue", unit.unit_id, attempts=unit.attempts)

    def recover(self) -> Dict[str, int]:
        """Reclaim expired leases and requeue due retries; safe to call often.

        Any process sharing the store may run recovery: it is one write
        transaction, so it interleaves with claims and commits atomically.
        """
        now = self.clock()
        with self._write() as db:
            expired = db.execute(
                f"SELECT {_UNIT_COLUMNS}, worker_id FROM units"
                " WHERE state = ? AND deadline < ? ORDER BY id",
                (LEASED, now),
            ).fetchall()
            for *row, worker_id in expired:
                self._expire(
                    db, WorkUnit.from_row(row), f"lease expired (worker {worker_id})"
                )
            due = db.execute(
                "SELECT id, attempts FROM units WHERE state = ? AND not_before <= ?"
                " ORDER BY id",
                (FAILED, now),
            ).fetchall()
            for unit_id, attempts in due:
                db.execute(
                    "UPDATE units SET state = ? WHERE id = ?", (PENDING, unit_id)
                )
                self._log(db, "retry", unit_id, attempts=attempts)
        return {"expired": len(expired), "retried": len(due)}

    def expire_worker(self, worker_id: str) -> int:
        """Force-expire every lease held by ``worker_id`` (observed dead).

        The local coordinator watches its spawned worker processes directly,
        so a worker that died holding leases is re-dispatched immediately
        instead of after the wall-clock lease timeout.
        """
        with self._write() as db:
            held = db.execute(
                f"SELECT {_UNIT_COLUMNS} FROM units"
                " WHERE state = ? AND worker_id = ? ORDER BY id",
                (LEASED, worker_id),
            ).fetchall()
            for row in held:
                self._expire(db, WorkUnit.from_row(row), f"worker {worker_id} died")
        return len(held)

    # ------------------------------------------------------------ speculation

    def speculate(self, unit_id: str) -> bool:
        """Double-dispatch a leased straggler: make it claimable again.

        The unit returns to ``pending`` with its current lease intact.  If
        the straggler commits before anyone claims the copy, it wins.  Once
        another worker claims the copy, that claim replaces the lease, so the
        straggler is fenced and the speculative commit wins.  Deterministic
        units make the duplicate execution observationally harmless — this
        trades redundant work for tail latency, exactly the HPC-workflow
        straggler pattern.
        """
        with self._write() as db:
            moved = db.execute(
                "UPDATE units SET state = ?, not_before = 0 WHERE id = ? AND state = ?",
                (PENDING, unit_id, LEASED),
            ).rowcount
            if moved:
                self._log(db, "speculate", unit_id)
        return bool(moved)

    # ------------------------------------------------------------------ misc

    def finished(self, unit_ids: Optional[List[str]] = None) -> bool:
        """True when every unit has reached ``done`` or ``quarantine``."""
        if unit_ids is not None:
            settled = set(self.ids(DONE)).union(self.ids(QUARANTINED))
            return settled.issuperset(unit_ids)
        counts = self.counts()
        return not (counts[PENDING] or counts[LEASED] or counts[FAILED])

    def close(self) -> None:
        """Close the database connection; the store is unusable afterwards."""
        with self._lock:
            self._db.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"JobStore({str(self.root)!r}, {self.counts()})"
