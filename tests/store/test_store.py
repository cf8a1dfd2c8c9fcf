"""Unit tests for the persistent experiment store."""

import io
import json
import threading

import pytest

from repro.eval.runner import CellResult
from repro.rtm.report import SimReport
from repro.store import (
    ExperimentStore,
    cell_from_payload,
    cell_to_payload,
)
from repro.store import schema
from repro.errors import ExperimentError


def make_cell(benchmark="adpcm", policy="DMA-SR", dbcs=4, shifts=123,
              **report_fields) -> CellResult:
    """A cell with awkward floats to exercise exact round-tripping."""
    report = SimReport(
        dbcs=dbcs, accesses=100, reads=75, writes=25, shifts=shifts,
        runtime_ns=0.1 + 0.2,  # 0.30000000000000004
        read_energy_pj=1.0 / 3.0,
        write_energy_pj=2.18e-13,
        shift_energy_pj=987.6543210123456,
        leakage_energy_pj=8.94,
        area_mm2=0.0186,
        per_dbc_shifts=(40, 30, 33, 20),
        **report_fields,
    )
    return CellResult(benchmark=benchmark, policy=policy, dbcs=dbcs,
                      shifts=shifts, report=report)


class TestSerde:
    def test_roundtrip_is_exact(self):
        cell = make_cell()
        again = cell_from_payload(cell_to_payload(cell))
        assert again == cell  # dataclass eq: every float bit-exact
        assert again.report.runtime_ns == 0.1 + 0.2
        assert isinstance(again.report.per_dbc_shifts, tuple)

    def test_payload_is_canonical(self):
        cell = make_cell()
        assert cell_to_payload(cell) == cell_to_payload(cell)
        assert json.loads(cell_to_payload(cell))["benchmark"] == "adpcm"

    def test_faulted_report_roundtrips(self):
        cell = make_cell(
            fault_injected=7, fault_misaligned=31, fault_corrupted=True,
            scrub_shifts=12, scrub_events=3,
            drift_histogram=((-2, 1), (1, 2)),
        )
        again = cell_from_payload(cell_to_payload(cell))
        assert again == cell
        assert again.report.drift_histogram == ((-2, 1), (1, 2))
        assert isinstance(again.report.drift_histogram[0], tuple)

    def test_faulted_payload_bytes_are_pinned(self):
        """The exact payload of a fully populated cell: stored cells are
        read back by these bytes, so any format drift must fail here."""
        cell = make_cell(
            fault_injected=7, fault_misaligned=31, fault_corrupted=True,
            scrub_shifts=12, scrub_events=3,
            drift_histogram=((-2, 1), (1, 2)),
        )
        assert cell_to_payload(cell) == (
            '{"benchmark":"adpcm","dbcs":4,"policy":"DMA-SR","report":'
            '{"accesses":100,"area_mm2":0.0186,"dbcs":4,'
            '"drift_histogram":[[-2,1],[1,2]],"fault_corrupted":true,'
            '"fault_injected":7,"fault_misaligned":31,'
            '"leakage_energy_pj":8.94,"per_dbc_shifts":[40,30,33,20],'
            '"read_energy_pj":0.3333333333333333,"reads":75,'
            '"runtime_ns":0.30000000000000004,"scrub_events":3,'
            '"scrub_shifts":12,"shift_energy_pj":987.6543210123456,'
            '"shifts":123,"write_energy_pj":2.18e-13,"writes":25},'
            '"shifts":123}'
        )

    def test_prefault_payload_still_loads(self):
        """Payloads written before the fault axis deserialize cleanly."""
        data = json.loads(cell_to_payload(make_cell()))
        for field in ("drift_histogram", "fault_injected", "fault_misaligned",
                      "fault_corrupted", "scrub_shifts", "scrub_events"):
            data["report"].pop(field, None)
        again = cell_from_payload(json.dumps(data))
        assert again == make_cell()
        assert again.report.drift_histogram == ()
        assert again.report.fault_injected == 0


class TestStoreBasics:
    def test_put_get_roundtrip(self, tmp_path):
        with ExperimentStore(tmp_path / "s.db") as store:
            cell = make_cell()
            store.put_cell("k1", cell)
            assert store.get_cell("k1") == cell
            assert store.get_cell("missing") is None
            assert store.has_cell("k1") and not store.has_cell("k2")
            assert len(store) == 1

    def test_cells_persist_across_reopen(self, tmp_path):
        path = tmp_path / "s.db"
        cell = make_cell()
        with ExperimentStore(path) as store:
            store.put_cell("k1", cell)
        with ExperimentStore(path) as store:
            assert store.get_cell("k1") == cell

    def test_reput_is_idempotent(self, tmp_path):
        with ExperimentStore(tmp_path / "s.db") as store:
            store.put_cell("k1", make_cell(shifts=1))
            store.put_cell("k1", make_cell(shifts=999))  # content key: no-op
            assert store.get_cell("k1").shifts == 1
            assert len(store) == 1

    def test_iter_cells_ordered(self, tmp_path):
        with ExperimentStore(tmp_path / "s.db") as store:
            store.put_cell("kb", make_cell(benchmark="jpeg"))
            store.put_cell("ka", make_cell(benchmark="adpcm"))
            rows = list(store.iter_cells())
            assert [r[1] for r in rows] == ["adpcm", "jpeg"]


class TestSchemaVersion:
    def test_version_bump_invalidates_cleanly(self, tmp_path, monkeypatch):
        path = tmp_path / "s.db"
        with ExperimentStore(path) as store:
            store.put_cell("k1", make_cell())
            run = store.begin_run({"why": "test"})
            store.finish_run(run)
        monkeypatch.setattr(schema, "SCHEMA_VERSION", schema.SCHEMA_VERSION + 1)
        with ExperimentStore(path) as store:  # no crash, just empty
            assert len(store) == 0
            assert store.runs() == []
            store.put_cell("k2", make_cell())
        with ExperimentStore(path) as store:  # new version sticks
            assert len(store) == 1

    def test_same_version_preserves(self, tmp_path):
        path = tmp_path / "s.db"
        with ExperimentStore(path) as store:
            store.put_cell("k1", make_cell())
        with ExperimentStore(path) as store:
            assert len(store) == 1


class TestRunManifests:
    def test_run_lifecycle(self, tmp_path):
        with ExperimentStore(tmp_path / "s.db") as store:
            run_id = store.begin_run({"profile": {"name": "quick"}, "backend": "numpy"})
            store.put_cell("k1", make_cell(), run_id=run_id)
            store.finish_run(run_id, status="complete", wall_time_s=1.5,
                             cells_total=4, hits_memory=1, hits_store=2,
                             computed=1)
            (run,) = store.runs()
            assert run["run_id"] == run_id
            assert run["status"] == "complete"
            assert run["manifest"]["backend"] == "numpy"
            assert run["cells_total"] == 4
            assert run["hits_store"] == 2
            assert run["wall_time_s"] == 1.5

    def test_stats_aggregates(self, tmp_path):
        with ExperimentStore(tmp_path / "s.db") as store:
            store.put_cell("k1", make_cell(policy="GA"))
            store.put_cell("k2", make_cell(policy="GA", benchmark="jpeg"))
            store.put_cell("k3", make_cell(policy="DMA-SR"))
            stats = store.stats()
            assert stats["cells"] == 3
            assert stats["cells_by_policy"] == {"GA": 2, "DMA-SR": 1}
            assert stats["benchmarks"] == 2
            assert stats["schema_version"] == schema.SCHEMA_VERSION
            assert stats["size_bytes"] > 0


class TestMaintenance:
    def test_gc_horizon(self, tmp_path):
        with ExperimentStore(tmp_path / "s.db") as store:
            store.put_cell("old", make_cell())
            removed = store.gc(older_than_s=-1.0)  # everything is "old"
            assert removed["cells"] == 1
            assert len(store) == 0

    def test_gc_without_horizon_keeps_everything(self, tmp_path):
        with ExperimentStore(tmp_path / "s.db") as store:
            store.put_cell("k1", make_cell())
            removed = store.gc()
            assert removed == {
                "cells": 0, "runs": 0, "queue_rows": 0,
                "orphaned_errors": 0, "leases_reopened": 0,
                "leases_quarantined": 0,
            }
            assert len(store) == 1

    def test_export_jsonl(self, tmp_path):
        with ExperimentStore(tmp_path / "s.db") as store:
            store.put_cell("k1", make_cell())
            store.put_cell("k2", make_cell(benchmark="jpeg"))
            buf = io.StringIO()
            assert store.export(buf) == 2
        lines = [json.loads(line) for line in buf.getvalue().splitlines()]
        assert {line["benchmark"] for line in lines} == {"adpcm", "jpeg"}
        assert all("cell" in line and "key" in line for line in lines)

    def test_gc_keeps_runs_referenced_by_live_cells(self, tmp_path):
        import sqlite3

        path = tmp_path / "s.db"
        with ExperimentStore(path) as store:
            run_id = store.begin_run({"k": "v"})
            store.put_cell("live", make_cell(), run_id=run_id)
            store.finish_run(run_id)
            # Age the *run* past the horizon but keep its cell fresh.
            conn = sqlite3.connect(path)
            with conn:
                conn.execute("UPDATE runs SET started_at = 0, finished_at = 1")
            conn.close()
            removed = store.gc(older_than_s=3600)
            # Provenance survives; no queue debris to reap either.
            assert removed == {
                "cells": 0, "runs": 0, "queue_rows": 0,
                "orphaned_errors": 0, "leases_reopened": 0,
                "leases_quarantined": 0,
            }
            (run,) = store.runs()
            assert run["run_id"] == run_id

    def test_merge_refuses_stale_source_without_destroying_it(
        self, tmp_path, monkeypatch
    ):
        src_path = tmp_path / "old.db"
        with ExperimentStore(src_path) as src:
            src.put_cell("k1", make_cell())
        monkeypatch.setattr(schema, "SCHEMA_VERSION", schema.SCHEMA_VERSION + 1)
        with ExperimentStore(tmp_path / "dest.db") as dest:
            with pytest.raises(ExperimentError, match="cannot merge"):
                dest.merge_from(src_path)
        monkeypatch.undo()
        with ExperimentStore(src_path) as src:  # source data intact
            assert len(src) == 1

    def test_merge_unions_and_is_idempotent(self, tmp_path):
        a_path, b_path = tmp_path / "a.db", tmp_path / "b.db"
        cell_a, cell_b = make_cell(), make_cell(benchmark="jpeg")
        with ExperimentStore(a_path) as a:
            a.put_cell("ka", cell_a)
            a.put_cell("shared", cell_a)
        with ExperimentStore(b_path) as b:
            b.put_cell("kb", cell_b)
            b.put_cell("shared", cell_a)
        with ExperimentStore(tmp_path / "m.db") as merged:
            assert merged.merge_from(a_path) == 2
            assert merged.merge_from(b_path) == 1  # 'shared' already there
            assert merged.merge_from(b_path) == 0  # idempotent
            assert len(merged) == 3
            assert merged.get_cell("kb") == cell_b


class _LockedProxy:
    """A connection that reports 'database is locked' for the first
    ``failures`` write statements, then delegates to the real one —
    the classic transient-lock scenario the retry loop must absorb."""

    def __init__(self, conn, failures, message="database is locked"):
        self._conn = conn
        self._failures = failures
        self._message = message
        self.write_attempts = 0

    def __enter__(self):
        return self._conn.__enter__()

    def __exit__(self, *exc):
        return self._conn.__exit__(*exc)

    def execute(self, sql, *args):
        if sql.lstrip().upper().startswith(("INSERT", "UPDATE")):
            self.write_attempts += 1
            if self.write_attempts <= self._failures:
                import sqlite3

                raise sqlite3.OperationalError(self._message)
        return self._conn.execute(sql, *args)

    def __getattr__(self, name):
        return getattr(self._conn, name)


class TestLockRetry:
    @pytest.fixture(autouse=True)
    def _no_backoff_sleep(self, monkeypatch):
        from repro.store import store as store_module

        monkeypatch.setattr(store_module, "_LOCK_BACKOFF_S", 0.0)

    def test_put_cell_retries_through_transient_lock(self, tmp_path):
        from repro.store.store import _LOCK_RETRIES

        with ExperimentStore(tmp_path / "s.db") as store:
            proxy = _LockedProxy(store._conn, failures=_LOCK_RETRIES)
            store._conn = proxy
            store.put_cell("k1", make_cell())  # must absorb every failure
            store._conn = proxy._conn
            assert proxy.write_attempts == _LOCK_RETRIES + 1
            assert store.get_cell("k1") == make_cell()

    def test_exhausted_retries_raise_pointed_error(self, tmp_path):
        from repro.store.store import _LOCK_RETRIES

        path = tmp_path / "s.db"
        with ExperimentStore(path) as store:
            proxy = _LockedProxy(store._conn, failures=_LOCK_RETRIES + 1)
            store._conn = proxy
            with pytest.raises(ExperimentError, match="stayed locked"):
                store.put_cell("k1", make_cell())
            assert proxy.write_attempts == _LOCK_RETRIES + 1
            store._conn = proxy._conn

    def test_non_lock_errors_propagate_immediately(self, tmp_path):
        import sqlite3

        with ExperimentStore(tmp_path / "s.db") as store:
            proxy = _LockedProxy(store._conn, failures=99,
                                 message="no such table: cells")
            store._conn = proxy
            with pytest.raises(sqlite3.OperationalError, match="no such table"):
                store.put_cell("k1", make_cell())
            assert proxy.write_attempts == 1  # no retry on real errors
            store._conn = proxy._conn

    def test_begin_and_finish_run_retry(self, tmp_path):
        with ExperimentStore(tmp_path / "s.db") as store:
            proxy = _LockedProxy(store._conn, failures=2)
            store._conn = proxy
            run_id = store.begin_run({"k": "v"})
            proxy.write_attempts = 0
            proxy._failures = 2
            store.finish_run(run_id)
            store._conn = proxy._conn
            (run,) = store.runs()
            assert run["status"] == "complete"


class TestConcurrentWriters:
    def test_parallel_writers_one_file(self, tmp_path):
        """Shards pointed at one store file must not corrupt it."""
        path = tmp_path / "s.db"
        errors = []

        def writer(offset: int) -> None:
            try:
                with ExperimentStore(path) as store:
                    for i in range(20):
                        store.put_cell(f"k{offset}-{i}", make_cell(shifts=i))
            except Exception as exc:  # pragma: no cover - failure detail
                errors.append(exc)

        threads = [threading.Thread(target=writer, args=(t,)) for t in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        with ExperimentStore(path) as store:
            assert len(store) == 80
