"""SQLite schema of the persistent experiment store.

Four tables carry everything:

* ``cells`` — one row per computed matrix cell, keyed by the runner's
  content digest (:meth:`repro.eval.runner.CellRecipe.key`). The payload
  is the JSON serialization of the :class:`~repro.eval.runner.CellResult`
  (see :mod:`repro.store.serde`); benchmark/policy/dbcs are denormalized
  for listing and GC without deserializing payloads.
* ``runs`` — one row per ``run_matrix`` invocation that touched the
  store: provenance (the full profile, backend, search scale, package
  and schema versions — the *manifest*), wall time and the hit/miss
  counters, so any stored cell can be traced back to how it was
  produced.
* ``queue`` — the claim-based work queue (:mod:`repro.store.queue`):
  one row per *pending or settled unit of work*, keyed by the same cell
  digest as ``cells`` so queue jobs and warm cells share one namespace.
  ``status`` walks ``open -> claimed -> done``/``failed``; ``owner`` and
  ``lease_expiry`` implement heartbeat leases (a claim whose lease
  expires becomes claimable again — crashed workers lose their cells,
  never the queue); ``attempts``/``max_attempts`` bound retries and
  quarantine repeat offenders as ``failed``; ``job`` is the cell's
  :class:`~repro.eval.runner.CellRecipe` payload, from which a worker
  recomputes the cell from scratch; ``cost_hint``
  (resolved trace accesses) lets claims hand out expensive cells first.
* ``queue_errors`` — the persisted error log: one row per failed
  attempt, so quarantined cells keep their full failure history even
  after requeues.

``meta`` holds the schema version. Bumping :data:`SCHEMA_VERSION`
invalidates existing stores *cleanly*: opening a store written under an
unknown version drops and recreates all tables instead of trying to
read incompatible rows — except for versions listed in
:data:`UPGRADABLE_VERSIONS`, which migrate additively (version 1 stores
predate the queue tables but their ``cells``/``runs`` layout is
unchanged, so upgrading just creates the missing tables and every
stored cell stays warm).
"""

from __future__ import annotations

#: Bump when the table layout or the cell payload format changes
#: incompatibly; stores written under a version that is neither current
#: nor upgradable are discarded on open.
SCHEMA_VERSION = 2

#: Older versions whose tables are a strict subset of the current
#: layout: opening such a store creates the missing tables in place and
#: keeps every existing row (v1 -> v2 added only ``queue`` and
#: ``queue_errors``).
UPGRADABLE_VERSIONS = (1,)

#: All tables, indexes and names the store owns (dropped on migration).
TABLES = ("meta", "cells", "runs", "queue", "queue_errors")

CREATE_SQL = """
CREATE TABLE IF NOT EXISTS meta (
    key   TEXT PRIMARY KEY,
    value TEXT NOT NULL
);

CREATE TABLE IF NOT EXISTS cells (
    key        TEXT PRIMARY KEY,
    benchmark  TEXT NOT NULL,
    policy     TEXT NOT NULL,
    dbcs       INTEGER NOT NULL,
    payload    TEXT NOT NULL,
    run_id     TEXT,
    created_at REAL NOT NULL
);

CREATE INDEX IF NOT EXISTS idx_cells_triple
    ON cells (benchmark, policy, dbcs);

CREATE TABLE IF NOT EXISTS runs (
    run_id      TEXT PRIMARY KEY,
    status      TEXT NOT NULL,
    started_at  REAL NOT NULL,
    finished_at REAL,
    wall_time_s REAL,
    manifest    TEXT NOT NULL,
    cells_total INTEGER,
    hits_memory INTEGER,
    hits_store  INTEGER,
    computed    INTEGER
);

CREATE TABLE IF NOT EXISTS queue (
    key          TEXT PRIMARY KEY,
    benchmark    TEXT NOT NULL,
    policy       TEXT NOT NULL,
    dbcs         INTEGER NOT NULL,
    job          TEXT NOT NULL,
    status       TEXT NOT NULL DEFAULT 'open',
    owner        TEXT,
    lease_expiry REAL,
    attempts     INTEGER NOT NULL DEFAULT 0,
    max_attempts INTEGER NOT NULL DEFAULT 3,
    cost_hint    INTEGER NOT NULL DEFAULT 0,
    error        TEXT,
    submitted_at REAL NOT NULL,
    updated_at   REAL NOT NULL
);

CREATE INDEX IF NOT EXISTS idx_queue_claim
    ON queue (status, lease_expiry);

CREATE INDEX IF NOT EXISTS idx_queue_open
    ON queue (status, cost_hint DESC, key);

CREATE TABLE IF NOT EXISTS queue_errors (
    id        INTEGER PRIMARY KEY AUTOINCREMENT,
    key       TEXT NOT NULL,
    owner     TEXT,
    attempt   INTEGER NOT NULL,
    error     TEXT NOT NULL,
    logged_at REAL NOT NULL
);

CREATE INDEX IF NOT EXISTS idx_queue_errors_key
    ON queue_errors (key);
"""
