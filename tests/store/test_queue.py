"""Unit tests for the claim-based work queue."""

import time

import pytest

from repro.errors import ExperimentError
from repro.store import ExperimentStore, QueueJob, WorkQueue
from repro.store.queue import DEFAULT_MAX_ATTEMPTS

from tests.store.test_store import make_cell


def make_jobs(n=5, max_attempts=DEFAULT_MAX_ATTEMPTS):
    """n jobs whose cost_hint rises with the index (k0 cheapest)."""
    return [
        QueueJob(key=f"k{i}", benchmark="adpcm", policy="DMA-SR", dbcs=4,
                 job={"i": i}, cost_hint=100 * (i + 1),
                 max_attempts=max_attempts)
        for i in range(n)
    ]


@pytest.fixture
def store(tmp_path):
    with ExperimentStore(tmp_path / "s.db") as s:
        yield s


class TestSubmit:
    def test_submit_counts_and_dedup(self, store):
        queue = WorkQueue(store)
        assert queue.submit(make_jobs(3)) == {
            "submitted": 3, "already_queued": 0, "already_stored": 0,
        }
        assert queue.submit(make_jobs(3)) == {
            "submitted": 0, "already_queued": 3, "already_stored": 0,
        }
        assert queue.counts()["open"] == 3

    def test_submit_skips_stored_cells(self, store):
        store.put_cell("k1", make_cell())
        counts = WorkQueue(store).submit(make_jobs(3))
        assert counts == {
            "submitted": 2, "already_queued": 0, "already_stored": 1,
        }

    def test_resubmit_never_reopens_settled_rows(self, store):
        queue = WorkQueue(store)
        queue.submit(make_jobs(2))
        [cell, _] = queue.claim(2, "w")
        queue.complete(cell.key, "w")
        queue.submit(make_jobs(2))
        counts = queue.counts()
        assert counts["done"] == 1 and counts["claimed"] == 1


class TestClaim:
    def test_expensive_cells_first(self, store):
        queue = WorkQueue(store)
        queue.submit(make_jobs(5))
        claimed = queue.claim(3, "w")
        assert [c.key for c in claimed] == ["k4", "k3", "k2"]
        assert all(c.job == {"i": int(c.key[1])} for c in claimed)
        counts = queue.counts()
        assert counts == {"open": 2, "claimed": 3, "done": 0, "failed": 0}

    def test_claim_is_exclusive(self, store):
        queue = WorkQueue(store)
        queue.submit(make_jobs(4))
        first = {c.key for c in queue.claim(2, "w1")}
        second = {c.key for c in queue.claim(10, "w2")}
        assert not first & second
        assert first | second == {"k0", "k1", "k2", "k3"}

    def test_claim_increments_attempts_and_sets_lease(self, store):
        queue = WorkQueue(store)
        queue.submit(make_jobs(1))
        [cell] = queue.claim(1, "w", lease_s=60)
        assert cell.attempts == 1
        assert cell.lease_expiry > time.time() + 30
        [row] = queue.jobs(status="claimed")
        assert row["owner"] == "w"

    def test_empty_queue_claims_nothing(self, store):
        assert WorkQueue(store).claim(5, "w") == []

    def test_claim_validates_arguments(self, store):
        queue = WorkQueue(store)
        with pytest.raises(ExperimentError, match="limit"):
            queue.claim(0, "w")
        with pytest.raises(ExperimentError, match="owner"):
            queue.claim(1, "")


class TestLeases:
    def test_expired_claim_is_stolen(self, store):
        queue = WorkQueue(store)
        queue.submit(make_jobs(1))
        assert queue.claim(1, "w1", lease_s=0.05)
        time.sleep(0.1)
        [stolen] = queue.claim(1, "w2")
        assert stolen.key == "k0"
        assert stolen.attempts == 2
        # The original owner's late completion is harmlessly rejected.
        assert queue.complete("k0", "w1") is False
        assert queue.complete("k0", "w2") is True

    def test_live_lease_is_not_stolen(self, store):
        queue = WorkQueue(store)
        queue.submit(make_jobs(1))
        assert queue.claim(1, "w1", lease_s=60)
        assert queue.claim(1, "w2") == []

    def test_heartbeat_renews_all_owned_leases(self, store):
        queue = WorkQueue(store)
        queue.submit(make_jobs(3))
        queue.claim(2, "w1", lease_s=0.1)
        assert queue.heartbeat("w1", lease_s=60) == 2
        time.sleep(0.15)
        # Renewed leases survive the original 0.1s expiry: w2 gets only
        # the one cell that was never claimed, never w1's.
        assert [c.key for c in queue.claim(3, "w2")] == ["k0"]
        assert queue.counts()["claimed"] == 3
        assert queue.stats()["expired_leases"] == 0

    def test_release_reopens_owned_claims(self, store):
        queue = WorkQueue(store)
        queue.submit(make_jobs(3))
        queue.claim(2, "w1")
        assert queue.release("w1") == 2
        assert queue.counts() == {"open": 3, "claimed": 0, "done": 0,
                                  "failed": 0}

    def test_claim_quarantines_expired_claim_out_of_attempts(self, store):
        queue = WorkQueue(store)
        queue.submit(make_jobs(1, max_attempts=1))
        assert queue.claim(1, "w1", lease_s=0.05)
        time.sleep(0.1)
        assert queue.claim(1, "w2") == []
        assert queue.counts()["failed"] == 1
        [error] = queue.errors()
        assert (error["key"], error["owner"], error["attempt"]) == ("k0", None, 1)

    def test_requeue_expired_reopens_and_quarantines(self, store):
        queue = WorkQueue(store)
        queue.submit(make_jobs(2, max_attempts=1))
        queue.submit([QueueJob(key="fresh", benchmark="b", policy="p",
                               dbcs=2, job={}, max_attempts=3)])
        assert len(queue.claim(3, "w1", lease_s=0.05)) == 3
        time.sleep(0.1)
        result = queue.requeue_expired()
        # k0/k1 had max_attempts=1 and are out of budget: quarantined.
        assert result == {"reopened": 1, "quarantined": 2}
        counts = queue.counts()
        assert counts["open"] == 1 and counts["failed"] == 2
        assert len(queue.errors()) == 2


class TestFailure:
    def test_fail_reopens_until_budget_exhausted(self, store):
        queue = WorkQueue(store)
        queue.submit(make_jobs(1, max_attempts=2))
        [cell] = queue.claim(1, "w")
        assert queue.fail(cell.key, "w", "boom 1") == "open"
        [cell] = queue.claim(1, "w")
        assert cell.attempts == 2
        assert queue.fail(cell.key, "w", "boom 2") == "failed"
        assert queue.counts()["failed"] == 1

    def test_quarantined_cell_is_never_claimed(self, store):
        queue = WorkQueue(store)
        queue.submit(make_jobs(1, max_attempts=1))
        [cell] = queue.claim(1, "w")
        queue.fail(cell.key, "w", "boom")
        assert queue.claim(5, "w") == []

    def test_error_log_keeps_every_attempt(self, store):
        queue = WorkQueue(store)
        queue.submit(make_jobs(1, max_attempts=2))
        [cell] = queue.claim(1, "w1")
        queue.fail(cell.key, "w1", "first")
        [cell] = queue.claim(1, "w2")
        queue.fail(cell.key, "w2", "second")
        log = queue.errors(key="k0")
        assert [(e["error"], e["owner"], e["attempt"]) for e in log] == [
            ("second", "w2", 2), ("first", "w1", 1),
        ]

    def test_retry_failed_restores_budget(self, store):
        queue = WorkQueue(store)
        queue.submit(make_jobs(1, max_attempts=1))
        [cell] = queue.claim(1, "w")
        queue.fail(cell.key, "w", "boom")
        assert queue.retry_failed() == 1
        [cell] = queue.claim(1, "w")
        assert cell.attempts == 1
        # The pre-retry failure stays in the log.
        assert len(queue.errors()) == 1

    def test_fail_after_lost_lease_still_logs(self, store):
        queue = WorkQueue(store)
        queue.submit(make_jobs(1))
        queue.claim(1, "w1", lease_s=0.05)
        time.sleep(0.1)
        queue.claim(1, "w2")
        assert queue.fail("k0", "w1", "late boom") == "lost"
        assert queue.counts()["claimed"] == 1  # w2's claim untouched
        assert len(queue.errors()) == 1


class TestObservability:
    def test_stats_shape(self, store):
        queue = WorkQueue(store)
        queue.submit(make_jobs(4))
        [cell, _] = queue.claim(2, "w", lease_s=60)
        queue.complete(cell.key, "w")
        stats = queue.stats()
        assert stats["open"] == 2 and stats["claimed"] == 1
        assert stats["done"] == 1 and stats["failed"] == 0
        assert stats["oldest_lease_expiry"] > time.time()
        assert stats["expired_leases"] == 0
        assert stats["attempt_histogram"] == {"0": 2, "1": 2}
        assert stats["error_log_rows"] == 0

    def test_store_stats_carries_queue_block(self, store):
        WorkQueue(store).submit(make_jobs(2))
        assert store.stats()["queue"]["open"] == 2

    def test_done_among(self, store):
        queue = WorkQueue(store)
        queue.submit(make_jobs(3))
        [cell] = queue.claim(1, "w")
        queue.complete(cell.key, "w")
        assert queue.done_among(["k0", "k1", "k2", "absent"]) == {cell.key}

    def test_gc_reaps_settled_rows_and_orphaned_errors(self, store):
        queue = WorkQueue(store)
        queue.submit(make_jobs(2, max_attempts=1))
        [cell, other] = queue.claim(2, "w")
        queue.complete(cell.key, "w")
        queue.fail(other.key, "w", "boom")
        removed = store.gc(older_than_s=0)
        assert removed["queue_rows"] == 2
        # The failed row's error log went with it.
        assert removed["orphaned_errors"] == 1
        assert queue.counts() == {"open": 0, "claimed": 0, "done": 0,
                                  "failed": 0}

    def test_gc_reaps_stale_leases(self, store):
        queue = WorkQueue(store)
        queue.submit(make_jobs(1))
        queue.claim(1, "w", lease_s=0.05)
        time.sleep(0.1)
        removed = store.gc()
        assert removed["leases_reopened"] == 1
        assert queue.counts()["open"] == 1


class TestClaimIndexes:
    """The satellite requirement: claims stay O(log n) as queues grow."""

    def _plans(self, store, sql, params):
        return " | ".join(
            row[-1] for row in
            store._conn.execute(f"EXPLAIN QUERY PLAN {sql}", params)
        )

    def test_expired_lease_scan_uses_covering_index(self, store):
        WorkQueue(store).submit(make_jobs(3))
        plan = self._plans(
            store,
            "SELECT key FROM queue WHERE status = 'claimed' "
            "AND lease_expiry <= ? ORDER BY lease_expiry LIMIT ?",
            (time.time(), 4),
        )
        assert "idx_queue_claim" in plan
        # The ORDER BY is satisfied by the index: no sort step.
        assert "TEMP B-TREE" not in plan

    def test_open_scan_uses_cost_ordered_index(self, store):
        WorkQueue(store).submit(make_jobs(3))
        plan = self._plans(
            store,
            "SELECT key FROM queue WHERE status = 'open' "
            "ORDER BY cost_hint DESC, key LIMIT ?",
            (4,),
        )
        assert "idx_queue_open" in plan
        assert "TEMP B-TREE" not in plan


class TestMigration:
    def test_v1_store_upgrades_in_place_keeping_cells(self, tmp_path):
        """A pre-queue (v1) store gains the queue tables; cells stay warm."""
        path = tmp_path / "old.db"
        with ExperimentStore(path) as store:
            store.put_cell("k1", make_cell())
            with store._conn:
                store._conn.execute("DROP TABLE queue")
                store._conn.execute("DROP TABLE queue_errors")
                store._conn.execute(
                    "UPDATE meta SET value = '1' WHERE key = 'schema_version'"
                )
        with ExperimentStore(path) as store:
            assert len(store) == 1  # the v1 cell survived the upgrade
            queue = WorkQueue(store)
            queue.submit(make_jobs(1))
            assert queue.counts()["open"] == 1
            assert store.stats()["schema_version"] == 2
