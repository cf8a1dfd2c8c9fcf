"""The sqlite-backed, content-addressed experiment store.

One :class:`ExperimentStore` wraps one sqlite database file. Cells are
addressed by the matrix runner's content digest, so *what* was computed
is the key and identical inputs land on identical rows no matter which
process, shard or machine computed them — merging two shard stores is a
plain ``INSERT OR IGNORE`` copy.

Concurrency: sqlite's own file locking is the arbiter. The store opens
in WAL mode with a generous busy timeout, every write is one immediate
transaction, and cell rows are immutable once written (``INSERT OR
IGNORE``: under a content key, both writers hold the same value). Many
writer processes — e.g. ``--shard 0/2`` and ``--shard 1/2`` pointed at
one file — can therefore share a store safely. Only the parent process
of a matrix run ever writes; pool workers stay side-effect-free.
"""

from __future__ import annotations

import json
import os
import sqlite3
import time
import uuid
from collections.abc import Iterator
from pathlib import Path

from repro.errors import ExperimentError
from repro.store import schema
from repro.store.serde import cell_from_payload, cell_to_payload

#: Write-transaction retries after sqlite reports the file locked. The
#: busy timeout already absorbs ordinary contention; retries cover the
#: rarer case where the timeout itself expires (e.g. a sibling shard
#: holding the lock through a slow checkpoint on networked storage).
_LOCK_RETRIES = 5
#: First retry delay in seconds; doubles each attempt (bounded, ~1.5 s
#: total across all five retries).
_LOCK_BACKOFF_S = 0.05


def _is_locked(exc: sqlite3.OperationalError) -> bool:
    msg = str(exc).lower()
    return "locked" in msg or "busy" in msg


class ExperimentStore:
    """Persistent cache of matrix cells plus run provenance manifests."""

    def __init__(self, path: str | Path, *, timeout: float = 30.0):
        self._path = Path(path)
        self._path.parent.mkdir(parents=True, exist_ok=True)
        self._conn = sqlite3.connect(self._path, timeout=timeout)
        self._conn.execute("PRAGMA journal_mode=WAL")
        self._conn.execute("PRAGMA synchronous=NORMAL")
        self._migrate()

    # -- lifecycle -----------------------------------------------------------

    @property
    def path(self) -> Path:
        return self._path

    def close(self) -> None:
        self._conn.close()

    def __enter__(self) -> "ExperimentStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _migrate(self) -> None:
        """Create tables; migrate or discard stores written under another schema.

        Versions in :data:`schema.UPGRADABLE_VERSIONS` migrate *in
        place*: their tables are a strict subset of the current layout,
        so the missing ones are created and every existing row survives
        (a v1 store keeps all its cells warm when the queue tables
        arrive). Any other foreign version is dropped wholesale — cells
        are pure caches, so nothing is lost but compute time.
        """
        with self._conn:
            found = self._schema_version()
            if (found is not None and found != schema.SCHEMA_VERSION
                    and found not in schema.UPGRADABLE_VERSIONS):
                for table in schema.TABLES:
                    self._conn.execute(f"DROP TABLE IF EXISTS {table}")
            self._conn.executescript(schema.CREATE_SQL)
            self._conn.execute(
                "INSERT OR REPLACE INTO meta (key, value) VALUES (?, ?)",
                ("schema_version", str(schema.SCHEMA_VERSION)),
            )
            self._conn.execute(
                "INSERT OR IGNORE INTO meta (key, value) VALUES (?, ?)",
                ("created_at", repr(time.time())),
            )

    def _write_with_retry(self, what: str, write) -> None:
        """Run one write transaction, retrying when sqlite holds the lock.

        ``write`` is re-invoked from scratch on every attempt (each call
        is one self-contained ``with self._conn`` transaction, so a
        failed attempt leaves nothing behind). Backoff doubles per
        retry; exhaustion raises a pointed :class:`ExperimentError`
        instead of leaking the raw sqlite exception.
        """
        delay = _LOCK_BACKOFF_S
        for attempt in range(_LOCK_RETRIES + 1):
            try:
                write()
                return
            except sqlite3.OperationalError as exc:
                if not _is_locked(exc) or attempt == _LOCK_RETRIES:
                    if _is_locked(exc):
                        raise ExperimentError(
                            f"store {self._path} stayed locked while "
                            f"writing {what} ({_LOCK_RETRIES + 1} attempts "
                            f"over ~{delay - _LOCK_BACKOFF_S:.2f}s): "
                            f"another long-lived writer holds it — point "
                            f"each shard at its own store file and merge "
                            f"them afterwards (repro-store merge)"
                        ) from exc
                    raise
                time.sleep(delay)
                delay *= 2

    def _schema_version(self) -> int | None:
        try:
            row = self._conn.execute(
                "SELECT value FROM meta WHERE key = 'schema_version'"
            ).fetchone()
        except sqlite3.OperationalError:  # no meta table yet: fresh file
            return None
        return int(row[0]) if row else None

    # -- cells ---------------------------------------------------------------

    def get_cell(self, key: str):
        """The stored cell under ``key``, or ``None``."""
        row = self._conn.execute(
            "SELECT payload FROM cells WHERE key = ?", (key,)
        ).fetchone()
        return cell_from_payload(row[0]) if row else None

    def has_cell(self, key: str) -> bool:
        row = self._conn.execute(
            "SELECT 1 FROM cells WHERE key = ?", (key,)
        ).fetchone()
        return row is not None

    def put_cell(self, key: str, cell, run_id: str | None = None) -> None:
        """Persist one cell atomically; content keys make re-puts no-ops."""
        def write() -> None:
            with self._conn:
                self._conn.execute(
                    "INSERT OR IGNORE INTO cells "
                    "(key, benchmark, policy, dbcs, payload, run_id, created_at) "
                    "VALUES (?, ?, ?, ?, ?, ?, ?)",
                    (key, cell.benchmark, cell.policy, cell.dbcs,
                     cell_to_payload(cell), run_id, time.time()),
                )

        self._write_with_retry(f"cell {key[:12]}", write)

    def __len__(self) -> int:
        return self._conn.execute("SELECT COUNT(*) FROM cells").fetchone()[0]

    def iter_cells(
        self, limit: int | None = None
    ) -> Iterator[tuple[str, str, str, int, str | None, float]]:
        """Yield ``(key, benchmark, policy, dbcs, run_id, created_at)`` rows."""
        sql = ("SELECT key, benchmark, policy, dbcs, run_id, created_at "
               "FROM cells ORDER BY benchmark, policy, dbcs, key")
        if limit is not None:
            sql += f" LIMIT {int(limit)}"
        yield from self._conn.execute(sql)

    # -- run manifests -------------------------------------------------------

    def begin_run(self, manifest: dict) -> str:
        """Open a provenance record; returns the new run id."""
        run_id = uuid.uuid4().hex

        def write() -> None:
            with self._conn:
                self._conn.execute(
                    "INSERT INTO runs (run_id, status, started_at, manifest) "
                    "VALUES (?, 'running', ?, ?)",
                    (run_id, time.time(), json.dumps(manifest, sort_keys=True)),
                )

        self._write_with_retry(f"run manifest {run_id[:12]}", write)
        return run_id

    def finish_run(
        self,
        run_id: str,
        *,
        status: str = "complete",
        wall_time_s: float | None = None,
        cells_total: int | None = None,
        hits_memory: int | None = None,
        hits_store: int | None = None,
        computed: int | None = None,
    ) -> None:
        def write() -> None:
            with self._conn:
                self._conn.execute(
                    "UPDATE runs SET status = ?, finished_at = ?, "
                    "wall_time_s = ?, cells_total = ?, hits_memory = ?, "
                    "hits_store = ?, computed = ? WHERE run_id = ?",
                    (status, time.time(), wall_time_s, cells_total,
                     hits_memory, hits_store, computed, run_id),
                )

        self._write_with_retry(f"run record {run_id[:12]}", write)

    def runs(self) -> list[dict]:
        """All run manifests, most recent first, as plain dicts."""
        rows = self._conn.execute(
            "SELECT run_id, status, started_at, finished_at, wall_time_s, "
            "manifest, cells_total, hits_memory, hits_store, computed "
            "FROM runs ORDER BY started_at DESC"
        ).fetchall()
        return [
            {
                "run_id": r[0], "status": r[1], "started_at": r[2],
                "finished_at": r[3], "wall_time_s": r[4],
                "manifest": json.loads(r[5]), "cells_total": r[6],
                "hits_memory": r[7], "hits_store": r[8], "computed": r[9],
            }
            for r in rows
        ]

    # -- maintenance ---------------------------------------------------------

    def stats(self) -> dict:
        """Aggregate store statistics (the ``repro-store stats`` payload)."""
        from repro.store.queue import WorkQueue

        by_policy = dict(self._conn.execute(
            "SELECT policy, COUNT(*) FROM cells GROUP BY policy ORDER BY policy"
        ).fetchall())
        benchmarks = self._conn.execute(
            "SELECT COUNT(DISTINCT benchmark) FROM cells"
        ).fetchone()[0]
        run_rows = dict(self._conn.execute(
            "SELECT status, COUNT(*) FROM runs GROUP BY status"
        ).fetchall())
        return {
            "path": str(self._path),
            "schema_version": schema.SCHEMA_VERSION,
            "cells": len(self),
            "benchmarks": benchmarks,
            "cells_by_policy": by_policy,
            "runs": run_rows,
            "queue": WorkQueue(self).stats(),
            "size_bytes": os.path.getsize(self._path),
        }

    def gc(self, older_than_s: float | None = None) -> dict:
        """Drop stale rows, reap queue debris, and compact the file.

        With ``older_than_s``, cells created more than that many seconds
        ago are removed, and then run records finished (or, if never
        finished, started) before the same horizon — but only runs no
        surviving cell still points at, so live cells never lose their
        provenance; settled queue rows (``done``/``failed``) older than
        the horizon go too. Regardless of horizon, stale leases are
        reaped (expired claims reopen, or quarantine when out of
        attempts) and error-log rows whose queue row no longer exists
        are dropped. Without a horizon only the queue reaping and
        compaction happen.
        """
        from repro.store.queue import WorkQueue

        removed = {"cells": 0, "runs": 0, "queue_rows": 0,
                   "orphaned_errors": 0, "leases_reopened": 0,
                   "leases_quarantined": 0}
        queue = WorkQueue(self)
        reaped = queue.requeue_expired()
        removed["leases_reopened"] = reaped["reopened"]
        removed["leases_quarantined"] = reaped["quarantined"]
        if older_than_s is not None:
            horizon = time.time() - older_than_s
            with self._conn:
                cur = self._conn.execute(
                    "DELETE FROM cells WHERE created_at < ?", (horizon,)
                )
                removed["cells"] = cur.rowcount
                cur = self._conn.execute(
                    "DELETE FROM runs WHERE COALESCE(finished_at, started_at) "
                    "< ? AND run_id NOT IN "
                    "(SELECT run_id FROM cells WHERE run_id IS NOT NULL)",
                    (horizon,),
                )
                removed["runs"] = cur.rowcount
                cur = self._conn.execute(
                    "DELETE FROM queue WHERE status IN ('done', 'failed') "
                    "AND updated_at < ?",
                    (horizon,),
                )
                removed["queue_rows"] = cur.rowcount
        with self._conn:
            cur = self._conn.execute(
                "DELETE FROM queue_errors WHERE key NOT IN "
                "(SELECT key FROM queue)"
            )
            removed["orphaned_errors"] = cur.rowcount
        self._conn.execute("VACUUM")
        return removed

    def export(self, fileobj) -> int:
        """Write every cell as one JSON line; returns the row count."""
        count = 0
        for key, benchmark, policy, dbcs, run_id, created_at, payload in \
                self._conn.execute(
                    "SELECT key, benchmark, policy, dbcs, run_id, created_at, "
                    "payload FROM cells ORDER BY benchmark, policy, dbcs, key"
                ):
            fileobj.write(json.dumps(
                {"key": key, "benchmark": benchmark, "policy": policy,
                 "dbcs": dbcs, "run_id": run_id, "created_at": created_at,
                 "cell": json.loads(payload)},
                sort_keys=True,
            ) + "\n")
            count += 1
        return count

    def merge_from(self, other: "ExperimentStore | str | Path") -> int:
        """Copy all cells (and run manifests) from another store.

        Content keys make the merge idempotent and order-independent:
        rows already present are left untouched. Returns the number of
        newly added cells — the heart of the shard workflow, where each
        shard fills its own store and the union regenerates reports.

        A source written under a foreign, non-upgradable schema version
        is refused: opening it normally would drop its tables, and a
        merge must not destroy its source. Upgradable versions are fine
        — opening them migrates additively, losing nothing.
        """
        if not isinstance(other, ExperimentStore):
            found = _peek_schema_version(Path(other))
            if (found is not None and found != schema.SCHEMA_VERSION
                    and found not in schema.UPGRADABLE_VERSIONS):
                raise ExperimentError(
                    f"cannot merge from {other}: written under schema "
                    f"version {found}, this build expects "
                    f"{schema.SCHEMA_VERSION} (recompute the source instead)"
                )
        src = other if isinstance(other, ExperimentStore) else ExperimentStore(other)
        owned = src is not other
        try:
            before = len(self)
            with self._conn:
                for row in src._conn.execute(
                    "SELECT key, benchmark, policy, dbcs, payload, run_id, "
                    "created_at FROM cells"
                ):
                    self._conn.execute(
                        "INSERT OR IGNORE INTO cells (key, benchmark, policy, "
                        "dbcs, payload, run_id, created_at) "
                        "VALUES (?, ?, ?, ?, ?, ?, ?)", row,
                    )
                for row in src._conn.execute(
                    "SELECT run_id, status, started_at, finished_at, "
                    "wall_time_s, manifest, cells_total, hits_memory, "
                    "hits_store, computed FROM runs"
                ):
                    self._conn.execute(
                        "INSERT OR IGNORE INTO runs (run_id, status, "
                        "started_at, finished_at, wall_time_s, manifest, "
                        "cells_total, hits_memory, hits_store, computed) "
                        "VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?)", row,
                    )
            return len(self) - before
        finally:
            if owned:
                src.close()


def _peek_schema_version(path: Path) -> int | None:
    """Read a store file's schema version without migrating (or creating) it."""
    if not path.exists():
        return None
    conn = sqlite3.connect(f"file:{path}?mode=ro", uri=True)
    try:
        row = conn.execute(
            "SELECT value FROM meta WHERE key = 'schema_version'"
        ).fetchone()
    except sqlite3.OperationalError:  # no meta table: nothing to destroy
        return None
    finally:
        conn.close()
    return int(row[0]) if row else None

