"""Self-tests of the benchmark at toy size.

Run from the repository root::

    python3 perfbench/selftest.py

Each workload runs on a tiny input and must pass every check; then a
deliberately corrupted warm cell and an invalid placement must each be
caught and lower ``cells_ok_frac``; the trace twins must agree and a
tampered twin must be flagged; a traced toy run must collect spans from
pool workers; BENCHMARK.json must name the metrics the harness reports;
and the harness must fail without a result where the program is absent.
Exits 1 if any test fails.
"""

from __future__ import annotations

import json
import os
import shutil
import sqlite3
import subprocess
import sys
import tempfile

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(ROOT, "src"))

import cases  # noqa: E402
import inputs  # noqa: E402
import run as harness  # noqa: E402
import spans  # noqa: E402
from repro.core.placement import Placement  # noqa: E402
from repro.core.policies import Policy  # noqa: E402

SCRATCH = os.path.join(ROOT, ".bench_tmp", "selftest")
RESULTS: list[tuple[str, bool, str]] = []


def check(name: str, ok: bool, detail: str = "") -> None:
    RESULTS.append((name, ok, detail))
    print(f"{'ok  ' if ok else 'FAIL'} {name}" + (f": {detail}" if detail else ""),
          flush=True)


def toy(workload: str, seed: int = 3, **case_kwargs) -> cases.Outcome:
    workdir = tempfile.mkdtemp(prefix=f"{workload}-", dir=SCRATCH)
    trace = None
    if workload.startswith("trace-"):
        trace = os.path.join(workdir, "trace.txt")
        inputs.write_address_trace(trace, seed, lines=20_000, words=256)
    case = cases.Case(workload=workload, seed=seed, workdir=workdir,
                      trace_path=trace, toy=True, **case_kwargs)
    return cases.run(case)


def ok_frac(out: cases.Outcome) -> float:
    return (out.attempted - out.failed) / out.attempted


def test_clean_workloads() -> None:
    for workload in cases.RUNNERS:
        out = toy(workload)
        check(f"{workload} passes every check at toy size",
              out.attempted > 0 and out.failed == 0 and bool(out.sims),
              f"{out.attempted - out.failed}/{out.attempted} cells "
              f"{out.failures[:2]}")


def test_corrupted_warm_cell() -> None:
    def corrupt_one_cell(store: str) -> None:
        with sqlite3.connect(store) as conn:
            key, payload = conn.execute(
                "SELECT key, payload FROM cells ORDER BY key LIMIT 1"
            ).fetchone()
            data = json.loads(payload)
            data["shifts"] += 1
            conn.execute("UPDATE cells SET payload = ? WHERE key = ?",
                         (json.dumps(data), key))

    out = toy("suite-pool", between_passes=corrupt_one_cell)
    check("a corrupted warm cell is caught",
          out.failed == 1 and ok_frac(out) < 1.0,
          f"cells_ok_frac {ok_frac(out):.4f}, findings {out.failures[:1]}")


def test_invalid_placement() -> None:
    checked = Policy.place
    unchecked = checked.__wrapped__

    def drop_a_variable(self, sequence, num_dbcs, capacity, rng=None):
        placement = unchecked(self, sequence, num_dbcs, capacity, rng)
        if self.name != "DMA-SR":
            return placement
        dbcs = [list(d) for d in placement.dbc_lists()]
        next(d for d in dbcs if d).pop()
        return Placement(dbcs)

    Policy.place = drop_a_variable
    cases.install_placement_check()
    try:
        out = toy("fig4-search")
    finally:
        Policy.place = checked
    check("an invalid placement is caught",
          out.failed > 0 and ok_frac(out) < 1.0
          and any("PlacementCheckError" in f for f in out.failures),
          f"cells_ok_frac {ok_frac(out):.4f}, findings {out.failures[:1]}")


def test_trace_twins() -> None:
    ingest = toy("trace-ingest", seed=5)
    stream = toy("trace-stream", seed=5)
    root = tempfile.mkdtemp(prefix="twins-", dir=SCRATCH)
    first = harness._check_twin(root, "trace-ingest", 5, "code", ingest.sims)
    second = harness._check_twin(root, "trace-stream", 5, "code", stream.sims)
    check("trace-stream simulates the same totals as trace-ingest",
          first is None and second is None, second or "")
    tampered = dict(stream.sims, shifts=stream.sims["shifts"] + 1)
    check("a differing trace twin is flagged",
          harness._check_twin(root, "trace-stream", 5, "code", tampered) is not None)


def test_traced_pool_spans() -> None:
    span_dir = tempfile.mkdtemp(prefix="spans-", dir=SCRATCH)
    tracer = spans.install(span_dir)
    out = toy("suite-pool", phase=tracer.set_phase)
    layers = spans.layer_metrics(tracer)
    cells = out.attempted // 2
    check("a traced run collects pool workers' spans",
          layers["eval.cell_samples"] == cells and layers["core.place_calls"] > 0
          and layers["store.hit_frac"] == 1.0,
          f"{layers['eval.cell_samples']} cell spans for {cells} cells, "
          f"store.hit_frac {layers['store.hit_frac']}")


def test_benchmark_json() -> None:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        bench = json.load(f)
    check("BENCHMARK.json matches the harness and the workload table",
          [(m["name"], m["unit"]) for m in bench["end_to_end"]]
          == list(harness.END_TO_END)
          and [(m["name"], m["unit"]) for m in bench["per_layer"]]
          == list(spans.PER_LAYER)
          and [w["name"] for w in bench["workloads"]] == list(harness.WORKLOADS)
          and list(harness.WORKLOADS) == list(cases.RUNNERS))


def test_fails_without_program() -> None:
    bare = tempfile.mkdtemp(prefix="bare-", dir=SCRATCH)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fig4-search",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180,
    )
    check("run.py fails without a result where the program is absent",
          proc.returncode != 0 and '"correct"' not in proc.stdout,
          f"exit {proc.returncode}")


def main() -> int:
    shutil.rmtree(SCRATCH, ignore_errors=True)
    os.makedirs(SCRATCH)
    tempfile.tempdir = SCRATCH
    test_benchmark_json()
    test_fails_without_program()
    cases.install_placement_check()
    test_clean_workloads()
    test_corrupted_warm_cell()
    test_trace_twins()
    test_invalid_placement()
    test_traced_pool_spans()  # last: its wrappers stay installed
    shutil.rmtree(SCRATCH, ignore_errors=True)
    failed = [name for name, ok, _ in RESULTS if not ok]
    print(f"{len(RESULTS) - len(failed)}/{len(RESULTS)} self-tests passed")
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
