"""One repetition of one workload, in a fresh process started by run.py.

The first statements time set-up: from the moment the harness started
this process (``PERFBENCH_SPAWNED_AT``, a ``time.monotonic`` reading,
which every process on the host shares) to ``import repro`` returning.
With ``--probe`` the process reports only that. Otherwise it runs the
workload once, timing the region from the first call into the program
to the last checked result, and writes a JSON record to ``--out``.
Either way the record carries ``cal_s``, the calibration kernel's CPU
time in this process (see ``calib.py``), timed outside the region.
"""

import os
import time

_SPAWNED_AT = float(os.environ.get("PERFBENCH_SPAWNED_AT", time.monotonic()))
import repro  # noqa: E402  (the import being timed)

SETUP_S = time.monotonic() - _SPAWNED_AT

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import tempfile  # noqa: E402

import calib  # noqa: E402
import cases  # noqa: E402
import procmem  # noqa: E402
import spans  # noqa: E402


def _cpu_s() -> float:
    """CPU time of this process plus its reaped children (pool workers)."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _steal_s() -> float:
    """Hypervisor steal time accrued by all of this host's CPUs so far."""
    try:
        with open("/proc/stat", encoding="ascii") as f:
            fields = f.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return 0.0


def run(workload: str, seed: int, workdir: str, trace_path: str | None,
        traced: bool) -> dict:
    """Run one repetition and return its record."""
    tempfile.tempdir = os.path.join(workdir, "tmp")
    os.makedirs(tempfile.tempdir, exist_ok=True)
    cases.install_placement_check()
    tracer = None
    if traced:
        # Per repetition: workers of an earlier traced repetition in this
        # run must not be read again.
        tracer = spans.install(tempfile.mkdtemp(prefix="spans-", dir=workdir))
    case = cases.Case(workload=workload, seed=seed, workdir=workdir,
                      trace_path=trace_path)
    if tracer is not None:
        case.phase = tracer.set_phase
    cal_before = calib.kernel_cpu_s()
    gc.collect()
    with procmem.PeakMemory() as mem:
        cpu0, steal0 = _cpu_s(), _steal_s()
        t0 = time.perf_counter()
        outcome = cases.run(case)
        wall = time.perf_counter() - t0
        cpu, steal = _cpu_s() - cpu0, _steal_s() - steal0
    record = {
        "setup_s": SETUP_S,
        "cal_s": (cal_before + calib.kernel_cpu_s()) / 2,
        "wall_s": wall,
        "cpu_s": cpu,
        "steal_s": steal,
        "peak_rss_mib": mem.peak_mib,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "failures": outcome.failures,
        "computed": outcome.computed,
        "from_store": outcome.from_store,
        "sims": outcome.sims,
        "backend": outcome.backend,
        "repro_version": repro.__version__,
    }
    if tracer is not None:
        record["layers"] = spans.layer_metrics(tracer)
    return record


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--probe", action="store_true",
                    help="report set-up time only")
    ap.add_argument("--workload", choices=sorted(cases.RUNNERS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--workdir")
    ap.add_argument("--trace-file")
    ap.add_argument("--traced", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out")
    args = ap.parse_args(argv)
    if args.probe:
        record = {"setup_s": SETUP_S, "cal_s": calib.kernel_cpu_s()}
    else:
        record = run(args.workload, args.seed, args.workdir, args.trace_file,
                     bool(args.traced))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as f:
            json.dump(record, f)
    else:
        print(json.dumps(record))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
