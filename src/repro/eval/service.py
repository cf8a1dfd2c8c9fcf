"""Distributed queue service: the ``repro-worker`` / ``repro-serve`` pair.

The repo's first multi-process layer. The store's work queue
(:mod:`repro.store.queue`) holds cell *recipes*
(:class:`~repro.eval.runner.CellRecipe` payloads) keyed by the same
content digest that keys stored cells, and this module supplies the two
long-lived processes that turn recipes into cells:

* :func:`worker_loop` (``repro-worker``) — claim a batch, recompute each
  cell through :meth:`~repro.eval.runner.CellRecipe.compute`, exactly
  as a local ``run_matrix`` does, commit the result to the store, mark
  the claim done. A heartbeat thread renews the worker's leases from
  its own store connection, so a stuck *computation* keeps its claim
  while a dead *process* silently forfeits it.
* :func:`serve_loop` (``repro-serve``) — submit matrix experiments to
  the queue, then watch it: requeue expired leases eagerly, log queue
  depth, and regenerate each experiment's report from the store (the
  ``--from-store`` machinery) as soon as its cells are all present —
  reports stream out while later experiments are still computing.

Because workload resolution, placement and simulation are deterministic
functions of the recipe, a matrix computed by any number of workers on
any machines is bit-identical to a single-process cold run. Workers
re-derive the content key from the recipe before committing and refuse
mismatches, so serialization drift can never land a wrong-keyed cell.
"""

from __future__ import annotations

import argparse
import logging
import os
import socket
import sys
import threading
import time
import uuid
from collections.abc import Sequence
from dataclasses import replace

from repro.errors import ExperimentError
from repro.eval.profiles import EvalProfile, profile_from_env
from repro.eval.runner import CellRecipe, CellResult, provenance
from repro.store import ExperimentStore
from repro.store.queue import DEFAULT_LEASE_S, WorkQueue

logger = logging.getLogger(__name__)

#: Resolved workloads, cached per (spec, context) — a worker claiming
#: many cells of one matrix resolves each workload once, not per cell.
_WORKLOAD_CACHE: dict[tuple, object] = {}


def compute_job(job: dict, expected_key: str | None = None) -> CellResult:
    """Recompute one queue payload into its cell result.

    Rebuilds the exact :class:`~repro.eval.runner.CellRecipe` the
    enqueuing ``run_matrix`` enumerated — resolution is deterministic,
    so the traces, the policy and the seed are bit-identical — and, when
    ``expected_key`` is given, re-derives the content digest and raises
    :class:`~repro.errors.ExperimentError` on mismatch rather than ever
    committing under a drifted key.
    """
    from repro.workloads import resolve_workload

    recipe = CellRecipe.from_json(job)
    cache_key = (recipe.workload, recipe.context)
    program = _WORKLOAD_CACHE.get(cache_key)
    if program is None:
        program = resolve_workload(recipe.workload, recipe.context)
        _WORKLOAD_CACHE[cache_key] = program
    if expected_key is not None:
        derived = recipe.key(program)
        if derived != expected_key:
            raise ExperimentError(
                f"job recipe re-keys to {derived[:12]}..., but was "
                f"claimed as {expected_key[:12]}...: recipe/key "
                f"serialization drift — refusing to commit"
            )
    return recipe.compute(program)


def default_owner() -> str:
    """A collision-free worker identity: host, pid, and a random tail
    (two loops in one process — tests do this — must not share leases)."""
    return f"{socket.gethostname()}:{os.getpid()}:{uuid.uuid4().hex[:8]}"


class _Heartbeat(threading.Thread):
    """Lease-renewal daemon with its own store connection.

    sqlite connections are not thread-safe across threads by default, so
    the heartbeat opens the store file independently; it renews every
    lease the owner holds at a third of the lease period — a worker
    stuck in a long cell keeps its claim, a SIGKILLed worker stops
    heartbeating and its leases lapse.
    """

    def __init__(self, store_path, owner: str, lease_s: float):
        super().__init__(daemon=True, name=f"heartbeat:{owner}")
        self._store_path = store_path
        self._owner = owner
        self._lease_s = lease_s
        self._halt = threading.Event()

    def run(self) -> None:  # pragma: no cover - timing-dependent thread
        store = ExperimentStore(self._store_path)
        try:
            while not self._halt.wait(self._lease_s / 3.0):
                try:
                    WorkQueue(store).heartbeat(self._owner, self._lease_s)
                except Exception:
                    logger.exception("heartbeat failed (will retry)")
        finally:
            store.close()

    def stop(self) -> None:
        self._halt.set()
        self.join(timeout=self._lease_s)


def worker_loop(
    store_path,
    owner: str | None = None,
    batch: int = 4,
    lease_s: float = DEFAULT_LEASE_S,
    poll_s: float = 1.0,
    drain: bool = False,
    max_cells: int | None = None,
    heartbeat: bool = True,
) -> dict:
    """Claim, compute and commit cells until stopped.

    ``drain=True`` exits once the queue holds no open or claimed cells
    (the batch-job mode CI and tests use); otherwise the loop polls
    forever (the long-lived service mode). ``max_cells`` bounds the
    number of cells this call settles — crash tests use it to stop a
    worker mid-matrix. Failed computations are reported to the queue
    (bounded retry, persisted error log) and never kill the loop; an
    interrupt releases all unfinished claims before exiting. Returns
    ``{"owner", "computed", "failed"}``.
    """
    owner = owner or default_owner()
    store = ExperimentStore(store_path)
    queue = WorkQueue(store)
    computed = failed = 0
    started = time.perf_counter()
    run_id = store.begin_run({
        "mode": "worker",
        "owner": owner,
        "store": str(store_path),
        "batch": batch,
        "lease_s": lease_s,
        **provenance(),
    })
    hb = _Heartbeat(store_path, owner, lease_s) if heartbeat else None
    if hb is not None:
        hb.start()
    status = "failed"
    try:
        while max_cells is None or computed + failed < max_cells:
            limit = batch
            if max_cells is not None:
                limit = min(limit, max_cells - computed - failed)
            cells = queue.claim(limit, owner, lease_s=lease_s)
            if not cells:
                if drain and queue.pending() == 0:
                    break
                time.sleep(poll_s)
                continue
            for cell in cells:
                try:
                    result = compute_job(cell.job, expected_key=cell.key)
                except KeyboardInterrupt:
                    raise
                except Exception as exc:
                    outcome = queue.fail(
                        cell.key, owner, f"{type(exc).__name__}: {exc}"
                    )
                    failed += 1
                    logger.warning(
                        "worker %s: cell %s attempt %d failed (%s): %s",
                        owner, cell.key[:12], cell.attempts, outcome, exc,
                    )
                    continue
                store.put_cell(cell.key, result, run_id=run_id)
                queue.complete(cell.key, owner)
                computed += 1
                logger.info(
                    "worker %s: %s/%s/%d done (%d computed)",
                    owner, result.benchmark, result.policy, result.dbcs,
                    computed,
                )
        status = "complete"
    except KeyboardInterrupt:
        released = queue.release(owner)
        status = "interrupted"
        logger.info("worker %s: interrupted, released %d claim(s)",
                    owner, released)
    finally:
        if hb is not None:
            hb.stop()
        store.finish_run(
            run_id,
            status=status,
            wall_time_s=time.perf_counter() - started,
            cells_total=computed + failed,
            hits_memory=0,
            hits_store=0,
            computed=computed,
        )
        store.close()
    return {"owner": owner, "computed": computed, "failed": failed}


#: The matrix experiments' report generators, by experiment id.
def _experiment_fn(experiment_id: str):
    from repro.eval import experiments as exp

    exp.matrix_policies(experiment_id)  # rejects non-matrix experiments
    return getattr(exp, f"experiment_{experiment_id}")


def serve_loop(
    store_path,
    experiments: Sequence[str],
    profile: EvalProfile | None = None,
    interval: float = 2.0,
    report_dir=None,
    timeout_s: float | None = None,
) -> dict:
    """Submit matrix experiments to the queue and dispatch to completion.

    The scheduler half of the scheduler/worker split: enqueue every
    experiment's missing cells (warm cells skipped — the queue shares
    the store's content namespace), then watch the queue — requeue
    expired leases each tick so crashed workers' cells return to the
    pool promptly, log depth, and regenerate each experiment's report
    offline from the store the moment its cells are all present, while
    other experiments are still in flight. Exits when every experiment
    reported, or when the queue drains without satisfying one (failed
    cells — their error log explains why). Returns
    ``{"reported": {id: result}, "pending": [ids], "queue": counts}``.
    """
    from repro.eval import experiments as exp
    from repro.eval.reporting import save_experiment

    if profile is None:
        profile = profile_from_env()
    experiments = list(dict.fromkeys(experiments))
    for experiment_id in experiments:
        _experiment_fn(experiment_id)  # validate all ids before any work
    store = ExperimentStore(store_path)
    queue = WorkQueue(store)
    reported: dict[str, object] = {}
    started = time.monotonic()
    try:
        for experiment_id in experiments:
            stats = exp.enqueue_matrix(experiment_id, profile, store=store)
            logger.info("serve: %s submitted: %s", experiment_id,
                        stats.describe())
        # Reports regenerate purely from the store; workers do the math.
        offline_profile = replace(profile, offline=True, store=None,
                                  workers=1)
        while True:
            maintenance = queue.requeue_expired()
            if maintenance["reopened"] or maintenance["quarantined"]:
                logger.warning(
                    "serve: requeued %d expired lease(s), quarantined %d",
                    maintenance["reopened"], maintenance["quarantined"],
                )
            counts = queue.counts()
            logger.info(
                "serve: depth open=%d claimed=%d done=%d failed=%d "
                "reported=%d/%d",
                counts["open"], counts["claimed"], counts["done"],
                counts["failed"], len(reported), len(experiments),
            )
            for experiment_id in experiments:
                if experiment_id in reported:
                    continue
                try:
                    result = _experiment_fn(experiment_id)(
                        replace(offline_profile, store=store_path)
                    )
                except ExperimentError:
                    continue  # cells still missing; keep dispatching
                reported[experiment_id] = result
                logger.info("serve: %s report ready", experiment_id)
                if report_dir is not None:
                    path = save_experiment(result, results_dir=report_dir)
                    logger.info("serve: %s saved to %s", experiment_id, path)
            if len(reported) == len(experiments):
                break
            if counts["open"] + counts["claimed"] == 0:
                logger.error(
                    "serve: queue drained but %d experiment(s) "
                    "unreported — %d cell(s) quarantined as failed "
                    "(see repro-store errors)",
                    len(experiments) - len(reported), counts["failed"],
                )
                break
            if timeout_s is not None and time.monotonic() - started > timeout_s:
                logger.error("serve: timed out after %.0fs", timeout_s)
                break
            time.sleep(interval)
    finally:
        final_counts = WorkQueue(store).counts()
        store.close()
    return {
        "reported": reported,
        "pending": [e for e in experiments if e not in reported],
        "queue": final_counts,
    }


# -- command-line entry points -----------------------------------------------


def _add_logging_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("-q", "--quiet", action="store_true",
                        help="log warnings and errors only")


def _setup_logging(quiet: bool) -> None:
    logging.basicConfig(
        level=logging.WARNING if quiet else logging.INFO,
        format="%(asctime)s %(levelname)s %(message)s",
    )


def main_worker(argv: Sequence[str] | None = None) -> int:
    """Long-lived queue worker: claim cells from a store, compute, commit."""
    parser = argparse.ArgumentParser(
        prog="repro-worker", description=main_worker.__doc__
    )
    parser.add_argument("--store", metavar="PATH",
                        default=os.environ.get("REPRO_STORE"),
                        help="experiment store holding the queue "
                             "(default: REPRO_STORE)")
    parser.add_argument("--batch", type=int, default=4,
                        help="cells claimed per transaction (default: 4)")
    parser.add_argument("--lease", type=float, default=DEFAULT_LEASE_S,
                        metavar="S",
                        help="claim lease in seconds; renewed by heartbeat "
                             f"(default: {DEFAULT_LEASE_S:.0f})")
    parser.add_argument("--poll", type=float, default=1.0, metavar="S",
                        help="idle poll interval (default: 1.0)")
    parser.add_argument("--drain", action="store_true",
                        help="exit when the queue is empty instead of "
                             "polling forever")
    parser.add_argument("--max-cells", type=int, default=None, metavar="N",
                        help="stop after settling N cells")
    parser.add_argument("--owner", default=None,
                        help="worker identity (default: host:pid:random)")
    _add_logging_arg(parser)
    args = parser.parse_args(argv)
    if args.store is None:
        parser.error("--store (or REPRO_STORE) is required")
    if args.batch < 1:
        parser.error("--batch must be >= 1")
    if args.lease <= 0:
        parser.error("--lease must be > 0")
    _setup_logging(args.quiet)
    outcome = worker_loop(
        args.store, owner=args.owner, batch=args.batch, lease_s=args.lease,
        poll_s=args.poll, drain=args.drain, max_cells=args.max_cells,
    )
    print(f"worker {outcome['owner']}: {outcome['computed']} computed, "
          f"{outcome['failed']} failed")
    return 0 if outcome["failed"] == 0 else 1


def main_serve(argv: Sequence[str] | None = None) -> int:
    """Queue dispatcher: submit matrix experiments, watch the queue,
    regenerate reports from the store as results land."""
    from repro.eval import experiments as exp

    parser = argparse.ArgumentParser(
        prog="repro-serve", description=main_serve.__doc__
    )
    parser.add_argument("experiments", nargs="+",
                        choices=sorted(exp.MATRIX_POLICIES),
                        help="matrix experiments to submit")
    parser.add_argument("--store", metavar="PATH",
                        default=os.environ.get("REPRO_STORE"),
                        help="experiment store holding the queue "
                             "(default: REPRO_STORE)")
    parser.add_argument("--interval", type=float, default=2.0, metavar="S",
                        help="dispatch tick in seconds (default: 2.0)")
    parser.add_argument("--report-dir", metavar="DIR", default=None,
                        help="write each report (.txt + .json) under DIR "
                             "as it becomes available")
    parser.add_argument("--timeout", type=float, default=None, metavar="S",
                        help="give up after S seconds (default: wait "
                             "forever)")
    _add_logging_arg(parser)
    args = parser.parse_args(argv)
    if args.store is None:
        parser.error("--store (or REPRO_STORE) is required")
    _setup_logging(args.quiet)
    try:
        profile = profile_from_env()
        outcome = serve_loop(
            args.store, args.experiments, profile=profile,
            interval=args.interval, report_dir=args.report_dir,
            timeout_s=args.timeout,
        )
    except ExperimentError as exc:
        print(f"repro-serve: {exc}", file=sys.stderr)
        return 2
    counts = outcome["queue"]
    print(f"serve: {len(outcome['reported'])}/{len(args.experiments)} "
          f"report(s) generated; queue done={counts['done']} "
          f"failed={counts['failed']}")
    return 0 if not outcome["pending"] else 1


if __name__ == "__main__":  # pragma: no cover - manual dispatch helper
    # ``python -m repro.eval.service worker|serve ...`` — the form tests
    # and CI use when console scripts are not installed.
    if len(sys.argv) > 1 and sys.argv[1] in ("worker", "serve"):
        mode, rest = sys.argv[1], sys.argv[2:]
        sys.exit(main_worker(rest) if mode == "worker" else main_serve(rest))
    print("usage: python -m repro.eval.service {worker|serve} ...",
          file=sys.stderr)
    sys.exit(2)
