"""Claim-based work queue on top of the experiment store.

The store's ``queue`` table promotes the content-addressed cell cache
into a *pull* scheduler: any number of worker processes — on any number
of machines sharing one store file (or one file server) — repeatedly
claim batches of open cells, compute them through the ordinary
evaluation stack, and commit the results as normal ``cells`` rows. The
queue key *is* the cell key, so queue jobs, warm cells and in-flight
claims all live in one namespace: a matrix whose cells are already
stored enqueues nothing, and a report regeneration neither knows nor
cares which machine computed each cell.

Design points, in claim order:

* **Atomic batch claims.** :meth:`WorkQueue.claim` grabs up to ``limit``
  cells in one ``BEGIN IMMEDIATE`` transaction — one commit per batch,
  not per cell, which amortizes sqlite's commit latency across the
  batch and rides the store's lock-retry backoff under contention.
* **Work stealing via leases.** A claim holds a lease
  (``lease_expiry``); workers renew it by heartbeat while computing.
  Claims whose lease has expired are claimable again by anyone — a
  SIGKILLed worker silently returns its cells to the pool, no janitor
  required (though :meth:`requeue_expired` lets a dispatcher reap
  eagerly and observably).
* **Expensive cells first.** Open cells are handed out in descending
  ``cost_hint`` order (longest-processing-time-first): the big streamed
  workloads start immediately and the small kernels pack around them,
  which is what makes pull scheduling beat static ``--shard``
  partitioning on skewed matrices.
* **Bounded retries with a persisted error log.** Every failed attempt
  appends to ``queue_errors``; once ``attempts`` reaches
  ``max_attempts`` the cell is quarantined as ``failed`` and never
  claimed again (until :meth:`retry_failed` resets it).

Both claim queries are satisfied by covering indexes —
``idx_queue_claim (status, lease_expiry)`` for expired-lease stealing
and ``idx_queue_open (status, cost_hint DESC, key)`` for fresh work —
so claiming stays O(log n + batch) as queues grow to millions of cells.
"""

from __future__ import annotations

import json
import time
from collections.abc import Iterable, Sequence
from dataclasses import dataclass

from repro.errors import ExperimentError
from repro.store.store import ExperimentStore

#: Default retry budget: a cell failing this many attempts is quarantined.
DEFAULT_MAX_ATTEMPTS = 3

#: Default claim lease in seconds; workers heartbeat well inside it.
DEFAULT_LEASE_S = 60.0


@dataclass(frozen=True)
class QueueJob:
    """One unit of work to submit: a cell key plus its recompute recipe."""

    key: str
    benchmark: str
    policy: str
    dbcs: int
    job: dict
    cost_hint: int = 0
    max_attempts: int = DEFAULT_MAX_ATTEMPTS


@dataclass(frozen=True)
class ClaimedCell:
    """One claimed unit of work, as handed to a worker."""

    key: str
    benchmark: str
    policy: str
    dbcs: int
    job: dict
    attempts: int
    lease_expiry: float


class WorkQueue:
    """Claimable work table of one :class:`ExperimentStore`."""

    def __init__(self, store: ExperimentStore):
        self._store = store
        self._conn = store._conn

    # -- submission ----------------------------------------------------------

    def submit(self, jobs: Iterable[QueueJob]) -> dict:
        """Enqueue jobs in one transaction; content keys deduplicate.

        Returns ``{"submitted": n, "already_queued": n,
        "already_stored": n}``: keys with a stored cell are skipped
        outright (the work is done — the queue never re-opens a computed
        cell), keys already present in the queue are left untouched in
        whatever state they are (``INSERT OR IGNORE``; resubmitting a
        matrix mid-flight is a no-op, and quarantined cells stay
        quarantined until :meth:`retry_failed`).
        """
        jobs = list(jobs)
        counts = {"submitted": 0, "already_queued": 0, "already_stored": 0}

        def write() -> None:
            counts.update(submitted=0, already_queued=0, already_stored=0)
            now = time.time()
            with self._conn:
                for job in jobs:
                    stored = self._conn.execute(
                        "SELECT 1 FROM cells WHERE key = ?", (job.key,)
                    ).fetchone()
                    if stored is not None:
                        counts["already_stored"] += 1
                        continue
                    cur = self._conn.execute(
                        "INSERT OR IGNORE INTO queue (key, benchmark, policy, "
                        "dbcs, job, status, attempts, max_attempts, "
                        "cost_hint, submitted_at, updated_at) "
                        "VALUES (?, ?, ?, ?, ?, 'open', 0, ?, ?, ?, ?)",
                        (job.key, job.benchmark, job.policy, job.dbcs,
                         json.dumps(job.job, sort_keys=True),
                         int(job.max_attempts), int(job.cost_hint), now, now),
                    )
                    if cur.rowcount:
                        counts["submitted"] += 1
                    else:
                        counts["already_queued"] += 1

        self._store._write_with_retry(f"queue submit x{len(jobs)}", write)
        return counts

    # -- claiming ------------------------------------------------------------

    def claim(
        self, limit: int, owner: str, lease_s: float = DEFAULT_LEASE_S
    ) -> list[ClaimedCell]:
        """Atomically claim up to ``limit`` cells for ``owner``.

        One immediate transaction: expired claims are stolen first
        (oldest lease first — the longest-dead worker's cells return to
        the pool soonest), then open cells in descending ``cost_hint``
        order. Expired claims that are out of attempts are quarantined
        instead of re-handed out. Returns the claimed cells with their
        parsed job recipes; an empty list means nothing is claimable.
        """
        if limit < 1:
            raise ExperimentError(f"claim limit must be >= 1, got {limit}")
        if not owner:
            raise ExperimentError("claim needs a non-empty owner id")
        # Cheap read-only probe: idle workers polling an empty (or fully
        # claimed) queue must not take the write lock every poll tick.
        now = time.time()
        if not self._claimable_exists(now):
            return []
        claimed: list[ClaimedCell] = []

        def write() -> None:
            claimed.clear()
            now = time.time()
            conn = self._conn
            conn.execute("BEGIN IMMEDIATE")
            try:
                self._quarantine_expired(now)
                rows = conn.execute(
                    "SELECT key FROM queue WHERE status = 'claimed' "
                    "AND lease_expiry <= ? ORDER BY lease_expiry LIMIT ?",
                    (now, limit),
                ).fetchall()
                need = limit - len(rows)
                if need > 0:
                    rows += conn.execute(
                        "SELECT key FROM queue WHERE status = 'open' "
                        "ORDER BY cost_hint DESC, key LIMIT ?",
                        (need,),
                    ).fetchall()
                expiry = now + lease_s
                for (key,) in rows:
                    conn.execute(
                        "UPDATE queue SET status = 'claimed', owner = ?, "
                        "lease_expiry = ?, attempts = attempts + 1, "
                        "updated_at = ? WHERE key = ?",
                        (owner, expiry, now, key),
                    )
                    row = conn.execute(
                        "SELECT benchmark, policy, dbcs, job, attempts "
                        "FROM queue WHERE key = ?",
                        (key,),
                    ).fetchone()
                    claimed.append(ClaimedCell(
                        key=key, benchmark=row[0], policy=row[1],
                        dbcs=row[2], job=json.loads(row[3]),
                        attempts=row[4], lease_expiry=expiry,
                    ))
                conn.execute("COMMIT")
            except BaseException:
                conn.execute("ROLLBACK")
                raise

        self._store._write_with_retry(f"queue claim x{limit}", write)
        # Claim selection order is the work order: stolen leases first
        # (oldest expiry first), then fresh cells biggest-first.
        return claimed

    def _claimable_exists(self, now: float) -> bool:
        row = self._conn.execute(
            "SELECT 1 FROM queue WHERE status = 'open' "
            "OR (status = 'claimed' AND lease_expiry <= ?) LIMIT 1",
            (now,),
        ).fetchone()
        return row is not None

    # -- worker lifecycle ----------------------------------------------------

    def heartbeat(self, owner: str, lease_s: float = DEFAULT_LEASE_S) -> int:
        """Renew every lease ``owner`` currently holds; returns the count."""
        renewed = 0

        def write() -> None:
            nonlocal renewed
            now = time.time()
            with self._conn:
                cur = self._conn.execute(
                    "UPDATE queue SET lease_expiry = ?, updated_at = ? "
                    "WHERE owner = ? AND status = 'claimed'",
                    (now + lease_s, now, owner),
                )
                renewed = cur.rowcount

        self._store._write_with_retry(f"queue heartbeat {owner}", write)
        return renewed

    def complete(self, key: str, owner: str) -> bool:
        """Mark one claimed cell done. Returns ``False`` when the lease
        was lost (another worker stole the cell after expiry) — harmless,
        since both computed the identical content-keyed result."""
        done = False

        def write() -> None:
            nonlocal done
            with self._conn:
                cur = self._conn.execute(
                    "UPDATE queue SET status = 'done', lease_expiry = NULL, "
                    "error = NULL, updated_at = ? "
                    "WHERE key = ? AND status = 'claimed' AND owner = ?",
                    (time.time(), key, owner),
                )
                done = bool(cur.rowcount)

        self._store._write_with_retry(f"queue complete {key[:12]}", write)
        return done

    def fail(self, key: str, owner: str, error: str) -> str:
        """Record one failed attempt; requeue or quarantine.

        The error lands in the persisted ``queue_errors`` log either
        way. While attempts remain the cell reopens for any worker;
        once the budget is spent it is quarantined as ``failed``.
        Returns the resulting status (``open``/``failed``), or
        ``"lost"`` when the lease was already stolen (the error is
        still logged).
        """
        outcome = "lost"

        def write() -> None:
            nonlocal outcome
            now = time.time()
            conn = self._conn
            conn.execute("BEGIN IMMEDIATE")
            try:
                row = conn.execute(
                    "SELECT attempts, max_attempts FROM queue "
                    "WHERE key = ? AND status = 'claimed' AND owner = ?",
                    (key, owner),
                ).fetchone()
                attempts = row[0] if row else None
                self._log_error(key, owner, attempts or 0, error, now)
                if row is None:
                    outcome = "lost"
                elif row[0] >= row[1]:
                    conn.execute(
                        "UPDATE queue SET status = 'failed', owner = NULL, "
                        "lease_expiry = NULL, error = ?, updated_at = ? "
                        "WHERE key = ?",
                        (error, now, key),
                    )
                    outcome = "failed"
                else:
                    conn.execute(
                        "UPDATE queue SET status = 'open', owner = NULL, "
                        "lease_expiry = NULL, error = ?, updated_at = ? "
                        "WHERE key = ?",
                        (error, now, key),
                    )
                    outcome = "open"
                conn.execute("COMMIT")
            except BaseException:
                conn.execute("ROLLBACK")
                raise

        self._store._write_with_retry(f"queue fail {key[:12]}", write)
        return outcome

    def release(self, owner: str) -> int:
        """Return every cell ``owner`` still claims to the open pool
        (graceful shutdown with unfinished claims); returns the count."""
        released = 0

        def write() -> None:
            nonlocal released
            with self._conn:
                cur = self._conn.execute(
                    "UPDATE queue SET status = 'open', owner = NULL, "
                    "lease_expiry = NULL, updated_at = ? "
                    "WHERE owner = ? AND status = 'claimed'",
                    (time.time(), owner),
                )
                released = cur.rowcount

        self._store._write_with_retry(f"queue release {owner}", write)
        return released

    # -- maintenance ---------------------------------------------------------

    def requeue_expired(self) -> dict:
        """Reap stale leases eagerly: expired claims reopen, and those
        out of retry budget are quarantined. Claims do this lazily
        anyway; a dispatcher calls this to make crashed workers visible
        before any claim happens to land on their cells. Returns
        ``{"reopened": n, "quarantined": n}``."""
        result = {"reopened": 0, "quarantined": 0}

        def write() -> None:
            now = time.time()
            conn = self._conn
            conn.execute("BEGIN IMMEDIATE")
            try:
                result["quarantined"] = self._quarantine_expired(now)
                cur = conn.execute(
                    "UPDATE queue SET status = 'open', owner = NULL, "
                    "lease_expiry = NULL, updated_at = ? "
                    "WHERE status = 'claimed' AND lease_expiry <= ?",
                    (now, now),
                )
                result["reopened"] = cur.rowcount
                conn.execute("COMMIT")
            except BaseException:
                conn.execute("ROLLBACK")
                raise

        self._store._write_with_retry("queue requeue", write)
        return result

    def retry_failed(self) -> int:
        """Un-quarantine every failed cell with a fresh retry budget;
        the error log keeps the old failures. Returns the count."""
        retried = 0

        def write() -> None:
            nonlocal retried
            with self._conn:
                cur = self._conn.execute(
                    "UPDATE queue SET status = 'open', attempts = 0, "
                    "owner = NULL, lease_expiry = NULL, updated_at = ? "
                    "WHERE status = 'failed'",
                    (time.time(),),
                )
                retried = cur.rowcount

        self._store._write_with_retry("queue retry-failed", write)
        return retried

    def _quarantine_expired(self, now: float) -> int:
        """Mark expired claims that are out of retry budget ``failed``,
        logging one error each (caller holds the transaction). Returns
        how many were quarantined."""
        expired = self._conn.execute(
            "SELECT key, attempts FROM queue WHERE status = 'claimed' "
            "AND lease_expiry <= ? AND attempts >= max_attempts",
            (now,),
        ).fetchall()
        for key, attempts in expired:
            self._log_error(
                key, None, attempts,
                "lease expired with retry budget exhausted", now,
            )
            self._conn.execute(
                "UPDATE queue SET status = 'failed', owner = NULL, "
                "lease_expiry = NULL, updated_at = ?, error = "
                "COALESCE(error, 'lease expired; retries exhausted') "
                "WHERE key = ?",
                (now, key),
            )
        return len(expired)

    def _log_error(
        self, key: str, owner: str | None, attempt: int, error: str,
        now: float,
    ) -> None:
        """Append to the error log (caller holds the transaction)."""
        self._conn.execute(
            "INSERT INTO queue_errors (key, owner, attempt, error, logged_at) "
            "VALUES (?, ?, ?, ?, ?)",
            (key, owner, attempt, error, now),
        )

    # -- observability -------------------------------------------------------

    def counts(self) -> dict:
        """Row count per status (absent statuses are 0)."""
        counts = {"open": 0, "claimed": 0, "done": 0, "failed": 0}
        counts.update(self._conn.execute(
            "SELECT status, COUNT(*) FROM queue GROUP BY status"
        ).fetchall())
        return counts

    def pending(self) -> int:
        """Cells not yet settled (open + claimed)."""
        counts = self.counts()
        return counts["open"] + counts["claimed"]

    def stats(self) -> dict:
        """Queue-state payload for ``repro-store stats``."""
        now = time.time()
        oldest = self._conn.execute(
            "SELECT MIN(lease_expiry) FROM queue WHERE status = 'claimed'"
        ).fetchone()[0]
        expired = self._conn.execute(
            "SELECT COUNT(*) FROM queue WHERE status = 'claimed' "
            "AND lease_expiry <= ?",
            (now,),
        ).fetchone()[0]
        attempts = {
            str(a): n for a, n in self._conn.execute(
                "SELECT attempts, COUNT(*) FROM queue GROUP BY attempts "
                "ORDER BY attempts"
            ).fetchall()
        }
        errors = self._conn.execute(
            "SELECT COUNT(*) FROM queue_errors"
        ).fetchone()[0]
        return {
            **self.counts(),
            "oldest_lease_expiry": oldest,
            "expired_leases": expired,
            "attempt_histogram": attempts,
            "error_log_rows": errors,
        }

    def done_among(self, keys: Sequence[str]) -> set[str]:
        """The subset of ``keys`` whose queue row is ``done`` — i.e.
        cells computed by queue workers rather than by a local run."""
        done: set[str] = set()
        keys = list(keys)
        for i in range(0, len(keys), 500):
            chunk = keys[i:i + 500]
            done.update(k for (k,) in self._conn.execute(
                f"SELECT key FROM queue WHERE status = 'done' AND key IN "
                f"({','.join('?' * len(chunk))})",
                chunk,
            ).fetchall())
        return done

    def jobs(
        self, status: str | None = None, limit: int | None = None
    ) -> list[dict]:
        """Queue rows (without the job payloads) for listing."""
        sql = ("SELECT key, benchmark, policy, dbcs, status, owner, "
               "lease_expiry, attempts, max_attempts, cost_hint, error, "
               "submitted_at, updated_at FROM queue")
        params: tuple = ()
        if status is not None:
            sql += " WHERE status = ?"
            params = (status,)
        sql += " ORDER BY submitted_at, key"
        if limit is not None:
            sql += f" LIMIT {int(limit)}"
        names = ("key", "benchmark", "policy", "dbcs", "status", "owner",
                 "lease_expiry", "attempts", "max_attempts", "cost_hint",
                 "error", "submitted_at", "updated_at")
        return [dict(zip(names, row))
                for row in self._conn.execute(sql, params)]

    def errors(self, key: str | None = None, limit: int = 50) -> list[dict]:
        """The persisted error log, most recent first."""
        sql = ("SELECT key, owner, attempt, error, logged_at "
               "FROM queue_errors")
        params: tuple = ()
        if key is not None:
            sql += " WHERE key = ?"
            params = (key,)
        sql += f" ORDER BY id DESC LIMIT {int(limit)}"
        names = ("key", "owner", "attempt", "error", "logged_at")
        return [dict(zip(names, row))
                for row in self._conn.execute(sql, params)]
