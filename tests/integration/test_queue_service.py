"""Integration tests for the distributed queue service.

The PR's acceptance semantics end-to-end: a SIGKILLed worker forfeits
its claim through lease expiry and the retried cell lands bit-identical
to a cold single-process run; ``repro-serve`` plus real ``repro-worker``
subprocesses compute a matrix and stream its report out; a poisoned
recipe exhausts its bounded retries into quarantine without ever
stopping the worker loop.
"""

import json
import os
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import pytest

from repro.errors import ExperimentError
from repro.eval.profiles import EvalProfile
from repro.eval.runner import clear_cell_cache, last_matrix_stats, run_matrix
from repro.eval.service import compute_job, worker_loop
from repro.rtm.geometry import iso_capacity_sweep
from repro.store import ExperimentStore, QueueJob, WorkQueue

SRC = str(Path(__file__).resolve().parents[2] / "src")

TINY = EvalProfile(
    name="tiny",
    suite_scale=0.12,
    ga_options={"mu": 6, "lam": 6, "generations": 3},
    rw_iterations=20,
    benchmarks=("adpcm", "dct"),
)

CONFIGS = iso_capacity_sweep(dbc_counts=(2, 4))
POLICIES = ("DMA-SR", "GA")  # 2 benchmarks x 2 configs x 2 policies = 8


def _subprocess_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    return env


#: A claimer that grabs one cell, announces it, then hangs — the stand-in
#: for a worker that dies mid-computation (no heartbeat, no progress).
_HANG_AFTER_CLAIM = """
import sys, time
sys.path.insert(0, {src!r})
from repro.store import ExperimentStore, WorkQueue

store = ExperimentStore({store!r})
cells = WorkQueue(store).claim(1, "crashy", lease_s={lease})
assert cells, "nothing claimable"
print("CLAIMED", cells[0].key, flush=True)
time.sleep(600)  # SIGKILLed long before this returns
"""


class TestCrashSemantics:
    def test_sigkilled_worker_requeues_and_result_lands(self, tmp_path):
        """Kill a claim-holder mid-cell; lease expiry returns the cell,
        a healthy worker retries it, and the final matrix is
        bit-identical to a cold single-process run."""
        clear_cell_cache()
        path = str(tmp_path / "s.db")
        run_matrix(POLICIES, TINY, configs=CONFIGS, store=path, enqueue=True)
        assert last_matrix_stats().enqueued == 8

        lease_s = 1.0
        script = tmp_path / "crashy.py"
        script.write_text(_HANG_AFTER_CLAIM.format(
            src=SRC, store=path, lease=lease_s,
        ))
        proc = subprocess.Popen(
            [sys.executable, str(script)],
            stdout=subprocess.PIPE, text=True, env=_subprocess_env(),
        )
        try:
            line = proc.stdout.readline().split()
            assert line[0] == "CLAIMED"
            claimed_key = line[1]
        finally:
            proc.kill()  # SIGKILL: no cleanup, no release, no heartbeat
            proc.wait(timeout=30)

        with ExperimentStore(path) as store:
            queue = WorkQueue(store)
            [row] = queue.jobs(status="claimed")
            assert row["key"] == claimed_key and row["owner"] == "crashy"
            # The lease is still live: nobody can steal the cell yet.
            assert all(c.key != claimed_key for c in queue.claim(8, "probe"))
            assert queue.release("probe") == 7

        time.sleep(lease_s + 0.2)  # let the dead worker's lease lapse

        outcome = worker_loop(path, drain=True, batch=4, lease_s=30)
        assert (outcome["computed"], outcome["failed"]) == (8, 0)
        with ExperimentStore(path) as store:
            queue = WorkQueue(store)
            assert queue.counts() == {"open": 0, "claimed": 0, "done": 8,
                                      "failed": 0}
            # The stolen cell records both claims' attempts.
            [stolen] = [r for r in queue.jobs() if r["key"] == claimed_key]
            assert stolen["attempts"] == 2

        clear_cell_cache()
        via_queue = run_matrix(POLICIES, replace(TINY, offline=True),
                               configs=CONFIGS, store=path)
        stats = last_matrix_stats()
        assert (stats.hits_store, stats.hits_queue) == (8, 8)
        clear_cell_cache()
        cold = run_matrix(POLICIES, replace(TINY, workers=1), configs=CONFIGS)
        assert via_queue == cold  # dataclass eq: every float bit-exact


class TestBoundedRetry:
    def test_poisoned_recipe_quarantines_without_stopping_worker(
        self, tmp_path
    ):
        clear_cell_cache()
        path = str(tmp_path / "s.db")
        run_matrix(("DMA-SR",), TINY, configs=CONFIGS, store=path,
                   enqueue=True)
        with ExperimentStore(path) as store:
            WorkQueue(store).submit([QueueJob(
                key="poison", benchmark="bad", policy="NO-SUCH-POLICY",
                dbcs=2,
                job={"workload": "adpcm",
                     "context": {"scale": 0.12, "seed": 7,
                                 "write_ratio": 0.25},
                     "policy": ["NO-SUCH-POLICY", {}],
                     "config": {"dbcs": 2, "tracks_per_dbc": 32,
                                "domains_per_track": 512,
                                "ports_per_track": 1, "banks": 1,
                                "subarrays": 1},
                     "seed": 1, "backend": None, "fault": None,
                     "scrub_interval": None},
                max_attempts=2,
            )])

        outcome = worker_loop(path, drain=True, batch=4, lease_s=30)
        assert outcome["computed"] == 4
        assert outcome["failed"] == 2  # both retry attempts, then give up
        with ExperimentStore(path) as store:
            queue = WorkQueue(store)
            counts = queue.counts()
            assert counts["done"] == 4 and counts["failed"] == 1
            log = queue.errors(key="poison")
            assert len(log) == 2
            assert all("NO-SUCH-POLICY" in e["error"] or "policy"
                       in e["error"].lower() for e in log)

    def test_key_drift_is_refused(self):
        job = {"workload": "synthetic:uniform,vars=8,length=64",
               "context": {"scale": 1.0, "seed": 0, "write_ratio": 0.25},
               "policy": ["DMA-SR", {}],
               "config": {"dbcs": 2, "tracks_per_dbc": 32,
                          "domains_per_track": 512, "ports_per_track": 1,
                          "banks": 1, "subarrays": 1},
               "seed": 1, "backend": None, "fault": None,
               "scrub_interval": None}
        with pytest.raises(ExperimentError, match="drift"):
            compute_job(job, expected_key="0" * 64)


class TestServeWorkersEndToEnd:
    def test_serve_plus_two_workers_produce_report(self, tmp_path):
        """The CI leg's shape in miniature: one dispatcher, two real
        worker processes, report written while the parent only watches."""
        env = _subprocess_env()
        env["REPRO_WORKLOADS"] = ("synthetic:uniform,vars=10,length=120 "
                                  "synthetic:zipf,vars=12,length=160")
        store = str(tmp_path / "s.db")
        report_dir = tmp_path / "reports"

        serve = subprocess.Popen(
            [sys.executable, "-m", "repro.eval.service", "serve", "fig4",
             "--store", store, "--interval", "0.5",
             "--report-dir", str(report_dir), "--timeout", "240", "-q"],
            env=env,
        )
        workers = []
        try:
            # Wait for the dispatcher to populate the queue before the
            # drain-mode workers start, or they exit on an empty queue.
            deadline = time.monotonic() + 60
            while time.monotonic() < deadline:
                try:
                    with ExperimentStore(store) as s:
                        if WorkQueue(s).counts()["open"] > 0:
                            break
                except Exception:
                    pass
                time.sleep(0.25)
            else:
                pytest.fail("serve never populated the queue")

            workers = [
                subprocess.Popen(
                    [sys.executable, "-m", "repro.eval.service", "worker",
                     "--store", store, "--drain", "--batch", "4",
                     "--lease", "15", "--poll", "0.2", "-q"],
                    env=env,
                )
                for _ in range(2)
            ]
            for worker in workers:
                assert worker.wait(timeout=240) == 0
            assert serve.wait(timeout=60) == 0
        finally:
            for proc in [serve, *workers]:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait(timeout=30)

        report = json.loads((report_dir / "fig4.json").read_text())
        assert report["experiment_id"] == "fig4"
        assert report["rows"]
        with ExperimentStore(store) as s:
            counts = WorkQueue(s).counts()
            assert counts["failed"] == 0 and counts["open"] == 0
            assert counts["done"] == len(s)
