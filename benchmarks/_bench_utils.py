"""Helpers shared by the benchmark harness files.

Rendered artifacts are written to ``results/`` and queued so the
``pytest_terminal_summary`` hook (in ``conftest.py``) can echo them into
the benchmark log. :func:`time_pair` and :func:`provenance` are the one
timing rule and the one seed-and-host record of the micro-benchmark
scripts.
:class:`RssSampler` adds ``psutil``-free peak-memory observation
(parent + descendant workers) for the parallel benches.
"""

from __future__ import annotations

import os
import platform
import threading
import time
from pathlib import Path

import numpy as np

import repro
from repro.eval.profiles import profile_from_env
from repro.eval.reporting import render_experiment, save_experiment

RESULTS_DIR = Path(
    os.environ.get(
        "REPRO_RESULTS_DIR",
        str(Path(__file__).resolve().parent.parent / "results"),
    )
)

#: Reports queued for the terminal summary.
REPORTS: list[str] = []

#: The profile every benchmark runs under (REPRO_PROFILE, default quick).
PROFILE = profile_from_env()


def publish(result, max_rows: int | None = 12) -> None:
    """Archive an experiment result and queue it for the terminal summary."""
    save_experiment(result, results_dir=RESULTS_DIR)
    REPORTS.append(render_experiment(result, max_rows=max_rows))


def publish_text(title: str, text: str) -> None:
    """Archive free-form text (ablation summaries) and queue it."""
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    slug = title.lower().replace(" ", "_").replace("/", "-").replace(":", "")
    (RESULTS_DIR / f"{slug}.txt").write_text(text + "\n", encoding="utf-8")
    REPORTS.append(f"{title}\n{text}")


# -- micro-benchmark timing and provenance ------------------------------------


def time_pair(fn_a, fn_b, repeats: int) -> tuple[float, float]:
    """Interleaved best-of-``repeats`` wall seconds of two calls.

    A speedup or overhead ratio compares two timings, so any drift
    between two back-to-back timing blocks (CPU frequency, cache
    warmth, a noisy neighbour) would read as a change in the ratio;
    alternating the calls makes both minima sample the same conditions.
    """
    best_a = best_b = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn_a()
        best_a = min(best_a, time.perf_counter() - start)
        start = time.perf_counter()
        fn_b()
        best_b = min(best_b, time.perf_counter() - start)
    return best_a, best_b


def provenance(seed: int) -> dict:
    """The seed, host and versions a benchmark record was measured with.

    ``seed`` is the seed the benchmark drew its inputs from, so a
    committed record can be re-run on the same data.
    """
    return {
        "seed": seed,
        "cores": os.cpu_count() or 1,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "repro": repro.__version__,
    }


# -- psutil-free RSS sampling -------------------------------------------------


def _read_rss_kib(pid: int) -> int:
    """Current resident memory of ``pid`` in KiB via ``/proc``.

    Prefers PSS (proportional set size, from ``smaps_rollup``): shared
    pages — a forked worker's copy-on-write image, shared-memory arena
    mappings — are divided among the processes mapping them, so summing
    over a process tree counts each physical page once. Plain ``VmRSS``
    counts the same shared page in *every* worker, which made the
    shared-arena configuration look ~20% heavier than pickled workers
    when it actually maps strictly less physical memory. Falls back to
    VmRSS where ``smaps_rollup`` is unavailable (old kernels, no
    ``/proc``), and to 0 when the process is gone.
    """
    try:
        with open(f"/proc/{pid}/smaps_rollup", "rb") as fh:
            for line in fh:
                if line.startswith(b"Pss:"):
                    return int(line.split()[1])
    except OSError:
        pass
    try:
        with open(f"/proc/{pid}/status", "rb") as fh:
            for line in fh:
                if line.startswith(b"VmRSS:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def _descendant_pids(pid: int) -> list[int]:
    """All live descendants of ``pid`` through ``/proc/*/task/*/children``."""
    out: list[int] = []
    frontier = [pid]
    while frontier:
        parent = frontier.pop()
        try:
            with open(
                f"/proc/{parent}/task/{parent}/children", "rb"
            ) as fh:
                kids = [int(tok) for tok in fh.read().split()]
        except OSError:
            continue
        out.extend(kids)
        frontier.extend(kids)
    return out


class RssSampler:
    """Peak resident memory of this process tree, sampled from ``/proc``.

    ``psutil``-free: a daemon thread sums PSS (VmRSS where unavailable,
    see :func:`_read_rss_kib`) over the parent and every live
    descendant (pool workers included) a few times per second.
    ``peak_mib`` is the largest sum observed — an *observed* peak, not
    an exact high-water mark, which is plenty to make the zero-copy
    claim measurable: pickled-suite workers each carry their own copy
    of the arrays, shared-arena workers map one, and PSS attributes
    every physical page exactly once across the tree. On platforms
    without ``/proc`` the sampler degrades to reporting 0 rather than
    failing the bench.

    Use as a context manager around the timed region::

        with RssSampler() as mem:
            run_matrix(...)
        print(mem.peak_mib)
    """

    def __init__(self, interval_s: float = 0.05):
        self._interval = interval_s
        self._pid = os.getpid()
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        self.peak_kib = 0

    def _sample_once(self) -> int:
        total = _read_rss_kib(self._pid)
        for pid in _descendant_pids(self._pid):
            total += _read_rss_kib(pid)
        return total

    def _run(self) -> None:
        while not self._stop.is_set():
            self.peak_kib = max(self.peak_kib, self._sample_once())
            time.sleep(self._interval)
        self.peak_kib = max(self.peak_kib, self._sample_once())

    def __enter__(self) -> "RssSampler":
        self._stop.clear()
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None

    @property
    def peak_mib(self) -> float:
        return self.peak_kib / 1024.0
