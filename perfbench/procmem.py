"""Peak memory of a process tree, from ``/proc``.

A thread samples PSS (proportional set size) summed over this process
and every live descendant, so pages shared by forked pool workers or a
shared-memory trace arena count once. Sampling misses short-lived
peaks, so the result is the larger of that sampled sum and this
process's exact RSS high-water mark over the region (``VmHWM``, reset
on entry). The benchmark keeps its own copy of this sampler rather than
importing the repository's bench helpers, so a change to those helpers
cannot change what the benchmark measures.
"""

from __future__ import annotations

import os
import threading


def _pss_kib(pid: int) -> int:
    """PSS of ``pid`` in KiB (VmRSS where PSS is unavailable; 0 if gone)."""
    for path, key in ((f"/proc/{pid}/smaps_rollup", b"Pss:"),
                      (f"/proc/{pid}/status", b"VmRSS:")):
        try:
            with open(path, "rb") as fh:
                for line in fh:
                    if line.startswith(key):
                        return int(line.split()[1])
        except OSError:
            continue
    return 0


def _own_hwm_kib() -> int:
    """This process's RSS high-water mark in KiB (0 where unavailable)."""
    try:
        with open("/proc/self/status", "rb") as fh:
            for line in fh:
                if line.startswith(b"VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def _reset_own_hwm() -> None:
    try:
        with open("/proc/self/clear_refs", "w") as fh:
            fh.write("5")
    except OSError:
        pass


def _descendants(pid: int) -> list[int]:
    out: list[int] = []
    frontier = [pid]
    while frontier:
        parent = frontier.pop()
        try:
            with open(f"/proc/{parent}/task/{parent}/children", "rb") as fh:
                kids = [int(tok) for tok in fh.read().split()]
        except OSError:
            continue
        out.extend(kids)
        frontier.extend(kids)
    return out


class PeakMemory:
    """Context manager: peak memory of the process tree, in MiB."""

    def __init__(self, interval_s: float = 0.05):
        self._interval = interval_s
        self._pid = os.getpid()
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        self.peak_kib = 0

    def _sample(self) -> None:
        total = _pss_kib(self._pid)
        for pid in _descendants(self._pid):
            total += _pss_kib(pid)
        self.peak_kib = max(self.peak_kib, total)

    def _run(self) -> None:
        while not self._stop.wait(self._interval):
            self._sample()

    def __enter__(self) -> "PeakMemory":
        _reset_own_hwm()
        self._sample()
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join()
            self._thread = None
        self._sample()
        self.peak_kib = max(self.peak_kib, _own_hwm_kib())

    @property
    def peak_mib(self) -> float:
        return self.peak_kib / 1024.0
