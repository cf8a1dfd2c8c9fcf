"""Layer tracing for the traced run.

Wrappers from this file replace each layer's public entry points where
the program looks them up (module attributes and class methods), so the
program itself carries no tracing code. Each call records a span
``[name, start, end, parent]`` in memory; pool workers forked during a
run write their spans to the run directory when they exit, and the
reduction below turns all spans into the per-layer metrics.

A span's self time is its duration minus the durations of its direct
child spans (children nest inside their parent within one process), and
a layer's self time is the sum over its spans: the time when the
innermost active span belonged to that layer.
"""

from __future__ import annotations

import functools
import glob
import json
import os
import statistics
from collections import Counter, defaultdict
from multiprocessing import util as mp_util
from time import perf_counter

PAPER_POLICIES = ("AFD-OFU", "DMA-OFU", "DMA-Chen", "DMA-SR", "GA", "RW")
LAYERS = ("workloads", "core", "engine", "rtm", "eval", "store")

#: Every per-layer metric, in report order: ``(name, unit)``.
PER_LAYER: tuple[tuple[str, str], ...] = (
    ("workloads.resolve_s", "s"),
    ("workloads.accesses", "count"),
    ("workloads.raw_accesses", "count"),
    ("workloads.raw_acc_per_s", "acc/s"),
    ("workloads.parse_s", "s"),
    ("workloads.map_s", "s"),
    ("workloads.stream_ingest_s", "s"),
    ("workloads.materialize_s", "s"),
    *((f"core.place_s.{p}", "s") for p in PAPER_POLICIES),
    ("core.place_calls", "count"),
    ("core.sample_s", "s"),
    ("core.sample_calls", "count"),
    ("core.encode_s", "s"),
    ("core.ga_seed_s", "s"),
    ("core.ga_self_s", "s"),
    ("core.ga_generations", "count"),
    ("core.candidates", "count"),
    ("engine.score_s", "s"),
    ("engine.score_calls", "count"),
    ("engine.score_cand_acc_per_s", "acc/s"),
    ("engine.chunks", "count"),
    ("engine.chunk_s", "s"),
    ("rtm.simulate_s", "s"),
    ("rtm.simulate_calls", "count"),
    ("rtm.replayed_accesses", "count"),
    ("rtm.stream_s", "s"),
    ("eval.matrix_s", "s"),
    ("eval.self_s", "s"),
    ("eval.cells_computed", "count"),
    ("eval.cells_from_store", "count"),
    ("eval.cells_failed", "count"),
    ("eval.cell_p50_ms", "ms"),
    ("eval.cell_p90_ms", "ms"),
    ("eval.cell_samples", "count"),
    ("eval.report_s", "s"),
    ("store.put_s", "s"),
    ("store.puts", "count"),
    ("store.get_s", "s"),
    ("store.gets", "count"),
    ("store.hit_frac", "fraction"),
    ("store.runs_s", "s"),
    *((f"self_s.{layer}", "s") for layer in LAYERS),
    ("sim.shifts", "count"),
    ("sim.runtime_ms", "ms"),
    ("sim.energy_uj", "uJ"),
    ("sim.misaligned_frac", "fraction"),
    ("trace.untraced_wall_s", "s"),
    ("trace.traced_wall_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.overhead_frac", "fraction"),
    ("trace.spans", "count"),
)


class Tracer:
    """In-memory span and counter store for one process."""

    def __init__(self, out_dir: str):
        self.out_dir = out_dir
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.phase = "main"

    def set_phase(self, phase: str) -> None:
        self.phase = phase

    def wrap(self, name, fn, on_result=None):
        """``fn`` recording one span per call.

        ``name`` is a string or a callable of the call's arguments;
        ``on_result(tracer, args, result)`` records counters.
        """
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            spans, stack = self.spans, self.stack
            i = len(spans)
            label = name if isinstance(name, str) else name(args)
            spans.append([label, perf_counter(), 0.0, stack[-1] if stack else -1])
            stack.append(i)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[i][2] = perf_counter()
            if on_result is not None:
                on_result(self, args, result)
            return result

        return traced

    def count_chunks(self, fn):
        """Wrap a ``(addresses, writes)`` chunk generator, counting raw accesses."""
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            for addrs, mask in fn(*args, **kwargs):
                self.counts["workloads.raw_accesses"] += int(addrs.size)
                yield addrs, mask

        return counted

    def _after_fork(self) -> None:
        # A forked pool worker starts with empty buffers and dumps them
        # when multiprocessing shuts it down.
        self.spans, self.stack, self.counts = [], [], Counter()
        mp_util.Finalize(None, self._dump, exitpriority=10)

    def _dump(self) -> None:
        path = os.path.join(self.out_dir, f"worker-spans-{os.getpid()}.json")
        with open(path, "w", encoding="utf-8") as f:
            json.dump({"spans": self.spans, "counts": self.counts}, f)

    def worker_records(self) -> list[dict]:
        """Spans and counters the exited pool workers wrote."""
        records = []
        for path in sorted(glob.glob(os.path.join(self.out_dir, "worker-spans-*.json"))):
            with open(path, encoding="utf-8") as f:
                records.append(json.load(f))
        return records


# -- installation ----------------------------------------------------------


def _count_accesses(tracer, _args, programs):
    tracer.counts["workloads.accesses"] += sum(
        len(t) for p in programs for t in p.traces
    )


def _count_generations(tracer, _args, result):
    tracer.counts["core.ga_generations"] += result.generations_run


def _count_candidates(tracer, args, _costs):
    codes, dbc_of = args[0], args[1]
    k = int(dbc_of.shape[0])
    tracer.counts["core.candidates"] += k
    tracer.counts["engine.cand_accesses"] += k * int(len(codes))


def _count_replayed(tracer, _args, report):
    tracer.counts["rtm.replayed_accesses"] += report.accesses


def _count_store_get(tracer, _args, cell):
    tracer.counts[f"store.gets.{tracer.phase}"] += 1
    if cell is not None:
        tracer.counts[f"store.hits.{tracer.phase}"] += 1


def install(out_dir: str) -> Tracer:
    """Install span wrappers on every traced entry point; returns the tracer."""
    import repro.core.ga as ga
    import repro.core.random_walk as random_walk
    import repro.eval.experiments as experiments
    import repro.eval.runner as runner
    import repro.trace.io as trace_io
    import repro.trace.streaming as streaming
    import repro.workloads as workloads
    from repro.core.policies import Policy
    from repro.engine.cursor import ShiftCursor
    from repro.rtm.controller import RTMController
    from repro.store.store import ExperimentStore

    tracer = Tracer(out_dir)
    points = (
        (workloads, "resolve_workloads", "workloads.resolve", _count_accesses),
        (trace_io, "read_address_trace", "workloads.read", None),
        (trace_io, "addresses_to_trace", "workloads.map", None),
        (streaming, "stream_address_trace", "workloads.stream_ingest", None),
        (streaming.StreamingTrace, "placement_sequence", "workloads.materialize", None),
        (Policy, "place", lambda args: f"core.place.{args[0].name}", None),
        (ga, "random_partition", "core.sample", None),
        (random_walk, "random_partition", "core.sample", None),
        (ga, "stack_candidate_arrays", "core.encode", None),
        (random_walk, "stack_placement_lists", "core.encode", None),
        (ga.GeneticPlacer, "seed_individuals", "core.ga_seed", None),
        (ga.GeneticPlacer, "run", "core.ga_run", _count_generations),
        (ga, "evaluate_batch", "engine.score", _count_candidates),
        (random_walk, "evaluate_batch", "engine.score", _count_candidates),
        (ShiftCursor, "replay_chunk", "engine.chunk", None),
        (runner, "simulate", "rtm.simulate", _count_replayed),
        (RTMController, "execute_stream", "rtm.stream", _count_replayed),
        (runner, "run_matrix", "eval.matrix", None),
        (experiments, "run_matrix", "eval.matrix", None),
        (runner, "run_policy_on_program", "eval.cell", None),
        (experiments, "experiment_fig4", "eval.report", None),
        (experiments, "experiment_sec4c", "eval.report", None),
        (ExperimentStore, "put_cell", "store.put", None),
        (ExperimentStore, "get_cell", "store.get", _count_store_get),
        (ExperimentStore, "begin_run", "store.run", None),
        (ExperimentStore, "finish_run", "store.run", None),
    )
    for owner, attr, name, on_result in points:
        setattr(owner, attr, tracer.wrap(name, getattr(owner, attr), on_result))
    for module in (trace_io, streaming):
        module.iter_address_chunks = tracer.count_chunks(module.iter_address_chunks)
    mp_util.register_after_fork(tracer, Tracer._after_fork)
    return tracer


# -- reduction -------------------------------------------------------------


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics from this process's spans plus the workers'."""
    records = [{"spans": tracer.spans, "counts": tracer.counts}]
    records += tracer.worker_records()
    dur: dict[str, float] = defaultdict(float)
    own: dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    counts: Counter = Counter()
    layer_self: dict[str, float] = defaultdict(float)
    cell_ms: list[float] = []
    for record in records:
        counts.update(record["counts"])
        spans = record["spans"]
        covered = [0.0] * len(spans)
        for _name, start, end, parent in spans:
            if parent >= 0:
                covered[parent] += end - start
        for (name, start, end, _parent), child in zip(spans, covered):
            d = end - start
            dur[name] += d
            own[name] += d - child
            calls[name] += 1
            layer_self[name.split(".", 1)[0]] += d - child
            if name == "eval.cell":
                cell_ms.append(1e3 * d)

    def per_s(amount: float, seconds: float) -> float:
        return amount / seconds if seconds > 0 else 0.0

    if len(cell_ms) >= 2:
        deciles = statistics.quantiles(cell_ms, n=10)
        p50, p90 = statistics.median(cell_ms), deciles[8]
    else:
        p50 = p90 = cell_ms[0] if cell_ms else 0.0
    warm_gets = counts["store.gets.warm"]
    out = {
        "workloads.resolve_s": dur["workloads.resolve"],
        "workloads.accesses": counts["workloads.accesses"],
        "workloads.raw_accesses": counts["workloads.raw_accesses"],
        "workloads.raw_acc_per_s": per_s(
            counts["workloads.raw_accesses"], dur["workloads.resolve"]
        ),
        "workloads.parse_s": own["workloads.read"],
        "workloads.map_s": dur["workloads.map"],
        "workloads.stream_ingest_s": dur["workloads.stream_ingest"],
        "workloads.materialize_s": dur["workloads.materialize"],
        **{f"core.place_s.{p}": dur[f"core.place.{p}"] for p in PAPER_POLICIES},
        "core.place_calls": sum(
            n for name, n in calls.items() if name.startswith("core.place.")
        ),
        "core.sample_s": dur["core.sample"],
        "core.sample_calls": calls["core.sample"],
        "core.encode_s": dur["core.encode"],
        "core.ga_seed_s": dur["core.ga_seed"],
        "core.ga_self_s": own["core.ga_run"],
        "core.ga_generations": counts["core.ga_generations"],
        "core.candidates": counts["core.candidates"],
        "engine.score_s": dur["engine.score"],
        "engine.score_calls": calls["engine.score"],
        "engine.score_cand_acc_per_s": per_s(
            counts["engine.cand_accesses"], dur["engine.score"]
        ),
        "engine.chunks": calls["engine.chunk"],
        "engine.chunk_s": dur["engine.chunk"],
        "rtm.simulate_s": dur["rtm.simulate"],
        "rtm.simulate_calls": calls["rtm.simulate"],
        "rtm.replayed_accesses": counts["rtm.replayed_accesses"],
        "rtm.stream_s": dur["rtm.stream"],
        "eval.matrix_s": dur["eval.matrix"],
        "eval.self_s": own["eval.matrix"],
        "eval.cell_p50_ms": p50,
        "eval.cell_p90_ms": p90,
        "eval.cell_samples": len(cell_ms),
        "eval.report_s": own["eval.report"],
        "store.put_s": dur["store.put"],
        "store.puts": calls["store.put"],
        "store.get_s": dur["store.get"],
        "store.gets": calls["store.get"],
        "store.hit_frac": per_s(counts["store.hits.warm"], warm_gets),
        "store.runs_s": dur["store.run"],
        **{f"self_s.{layer}": layer_self[layer] for layer in LAYERS},
        "trace.spans": sum(calls.values()),
    }
    return out
