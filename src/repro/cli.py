"""Command-line entry points.

* ``repro-place``      — place a trace file and print the placement + cost.
* ``repro-sim``        — place and simulate, printing the full report.
* ``repro-suite``      — inspect the generated OffsetStone-like suite.
* ``repro-experiment`` — regenerate a table/figure of the paper, over the
  default suite or any ``--workloads`` specs (see docs/workloads.md).
* ``repro-store``      — inspect/maintain persistent experiment stores
  (lives in :mod:`repro.store.cli`).
* ``repro-trace``      — inspect/ingest/convert trace files
  (lives in :mod:`repro.trace.cli`).
"""

from __future__ import annotations

import argparse
import sys
from collections.abc import Sequence
from dataclasses import replace
from operator import attrgetter

from repro.core.cost import per_dbc_shift_costs
from repro.core.policies import available_policies, get_policy
from repro.engine import available_backends, describe_backends
from repro.errors import ExperimentError, GeometryError, WorkloadError
from repro.eval import experiments as exp
from repro.eval.profiles import KNOBS, check_profile, profile_from_env
from repro.eval.reporting import render_experiment, save_experiment
from repro.rtm.geometry import RTMConfig
from repro.rtm.sim import simulate
from repro.trace.generators.offsetstone import (
    OFFSETSTONE_NAMES,
    load_benchmark,
)
from repro.trace.io import read_traces
from repro.util.tables import format_table


def _add_device_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--dbcs", type=int, default=4,
                        help="number of DBCs (default 4)")
    parser.add_argument("--domains", type=int, default=256,
                        help="domains per track = locations per DBC (default 256)")
    parser.add_argument("--ports", type=int, default=1,
                        help="access ports per track (default 1)")
    parser.add_argument("--policy", default="DMA-SR",
                        choices=sorted(available_policies()),
                        help="placement policy (default DMA-SR)")
    parser.add_argument("--seed", type=int, default=0, help="RNG seed")
    parser.add_argument("--backend", default=None,
                        choices=available_backends(),
                        help="shift-engine backend (default: numpy, or "
                             "REPRO_BACKEND)")


def _device_config(parser: argparse.ArgumentParser, args) -> RTMConfig:
    """The device the flags describe; a bad geometry is a usage error."""
    try:
        return RTMConfig(dbcs=args.dbcs, domains_per_track=args.domains,
                         ports_per_track=args.ports)
    except GeometryError as exc:
        parser.error(str(exc))


def main_place(argv: Sequence[str] | None = None) -> int:
    """Place the traces of a file and print per-DBC layouts and costs."""
    parser = argparse.ArgumentParser(
        prog="repro-place", description=main_place.__doc__
    )
    parser.add_argument("trace_file", help="trace file (see repro.trace.io)")
    _add_device_args(parser)
    parser.add_argument(
        "--program", action="store_true",
        help="fuse all traces into one program and emit a single layout",
    )
    args = parser.parse_args(argv)
    _device_config(parser, args)
    policy = get_policy(args.policy)
    traces = read_traces(args.trace_file)
    if args.program:
        from repro.core.program import place_program
        result = place_program(
            [t.sequence for t in traces], args.dbcs, args.domains,
            policy=policy, rng=args.seed,
        )
        print(f"program layout over {len(traces)} sequences "
              f"({len(result.placement.variables)} variables):")
        for i, dbc in enumerate(result.placement.dbc_lists()):
            names = [v for v in dbc if v is not None]
            if names:
                print(f"  DBC{i}: {' '.join(names)}")
        for name, cost in result.per_sequence_costs.items():
            print(f"  {name}: {cost} shifts")
        print(f"  total shifts: {result.total_cost}")
        return 0
    for trace in traces:
        seq = trace.sequence
        placement = policy.place(seq, args.dbcs, args.domains, rng=args.seed)
        costs = per_dbc_shift_costs(
            seq, placement, ports=args.ports, domains=args.domains,
            backend=args.backend,
        )
        print(f"trace {seq.name}: {len(seq)} accesses, "
              f"{seq.num_variables} variables")
        for i, dbc in enumerate(placement.dbc_lists()):
            names = [v for v in dbc if v is not None]
            if names:
                print(f"  DBC{i} ({costs[i]} shifts): {' '.join(names)}")
        print(f"  total shifts: {sum(costs)}")
    return 0


def main_sim(argv: Sequence[str] | None = None) -> int:
    """Place and simulate traces, printing latency and energy reports."""
    parser = argparse.ArgumentParser(prog="repro-sim", description=main_sim.__doc__)
    parser.add_argument("trace_file", help="trace file (see repro.trace.io)")
    _add_device_args(parser)
    parser.add_argument("--cold-start", action="store_true",
                        help="charge the initial alignment shifts")
    args = parser.parse_args(argv)
    config = _device_config(parser, args)
    policy = get_policy(args.policy)
    for trace in read_traces(args.trace_file):
        seq = trace.sequence
        placement = policy.place(seq, args.dbcs, args.domains, rng=args.seed)
        report = simulate(trace, placement, config,
                          warm_start=not args.cold_start,
                          backend=args.backend)
        print(f"trace {seq.name}: {report.summary()}")
    return 0


def main_suite(argv: Sequence[str] | None = None) -> int:
    """Show the generated OffsetStone-like benchmark suite."""
    parser = argparse.ArgumentParser(prog="repro-suite", description=main_suite.__doc__)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="suite scale in (0, 1] (default 1.0)")
    parser.add_argument("--seed", type=int, default=0, help="suite seed")
    parser.add_argument("names", nargs="*", default=list(OFFSETSTONE_NAMES),
                        help="benchmark names (default: all)")
    args = parser.parse_args(argv)
    rows = []
    for name in args.names:
        bench = load_benchmark(name, scale=args.scale, seed=args.seed)
        rows.append(
            [bench.name, bench.domain, bench.num_sequences,
             bench.max_variables, bench.max_length, bench.total_accesses]
        )
    print(format_table(
        ["Benchmark", "Domain", "Seqs", "MaxVars", "MaxLen", "Accesses"],
        rows, title=f"OffsetStone-like suite (scale={args.scale})",
    ))
    return 0


def _ablation(name):
    from repro.eval import ablations

    return getattr(ablations, name)


_EXPERIMENTS = {
    "table1": lambda profile: exp.experiment_table1(),
    "fig3": lambda profile: exp.experiment_fig3(),
    "fig4": exp.experiment_fig4,
    "fig5": exp.experiment_fig5,
    "fig6": exp.experiment_fig6,
    "sec4c": exp.experiment_sec4c,
    "sec4b": lambda profile: exp.experiment_sec4b_gap(profile),
    "ablation-ports": lambda profile: _ablation("ablation_ports")(profile),
    "ablation-multiset": lambda profile: _ablation("ablation_multiset")(profile),
    "ablation-swapping": lambda profile: _ablation("ablation_swapping")(profile),
    "ablation-dbc-sweep": lambda profile: _ablation("ablation_dbc_sweep")(profile),
    "ablation-faults": lambda profile: _ablation("ablation_faults")(profile),
}


def _print_matrix_stats() -> None:
    """Echo the last run's cache counters to stderr (never the report)."""
    from repro.eval.runner import last_matrix_stats

    stats = last_matrix_stats()
    if stats is not None:
        print(f"matrix cache: {stats.describe()}", file=sys.stderr)


def _list_workloads() -> int:
    """Print the workload registry and the built-in suite names."""
    from repro.workloads import describe_registry

    rows = [[kind, name, desc] for kind, name, desc in describe_registry()]
    print(format_table(
        ["Kind", "Name", "Description"], rows,
        title="workload registry (spec grammar: docs/workloads.md)",
    ))
    print("\noffsetstone benchmarks: " + " ".join(OFFSETSTONE_NAMES))
    return 0


def _list_backends() -> int:
    """Print the registered shift-engine backends."""
    rows = [[name, note] for name, note in describe_backends()]
    print(format_table(
        ["Backend", "Notes"], rows,
        title="shift-engine backends (docs/engine.md)",
    ))
    return 0


def main_experiment(argv: Sequence[str] | None = None) -> int:
    """Regenerate one of the paper's tables/figures."""
    parser = argparse.ArgumentParser(
        prog="repro-experiment", description=main_experiment.__doc__
    )
    parser.add_argument("experiment", nargs="?", choices=sorted(_EXPERIMENTS),
                        help="which artifact to regenerate")
    parser.add_argument("--list-workloads", action="store_true",
                        help="print the workload sources/transforms "
                             "registry and exit")
    parser.add_argument("--list-backends", action="store_true",
                        help="print the shift-engine backends and exit")
    parser.add_argument("--save", metavar="DIR", default=None,
                        help="also write the report (.txt + .json) under DIR")
    parser.add_argument("--max-rows", type=int, default=None,
                        help="truncate the table for display")
    for knob in KNOBS:
        extra = dict(knob.cli or {})
        if extra.get("action") != "store_true":
            extra["type"] = knob.parse
        if knob.sep is not None:
            extra["nargs"] = "+"
        parser.add_argument(knob.flag, dest=knob.field, default=None,
                            help=f"{knob.help} (default: profile / "
                                 f"{knob.env})", **extra)
    parser.add_argument("--shard", metavar="i/N", default=None,
                        help="compute only this deterministic slice of the "
                             "matrix into the store, skip the report "
                             "(requires --store/REPRO_STORE)")
    parser.add_argument("--from-store", action="store_true",
                        help="regenerate the report purely from stored "
                             "cells; fail instead of simulating")
    parser.add_argument("--enqueue", action="store_true",
                        help="submit the matrix's missing cells to the "
                             "store's work queue instead of computing; "
                             "repro-worker processes pulling from the "
                             "store do the math (requires --store/"
                             "REPRO_STORE)")
    args = parser.parse_args(argv)
    if args.list_workloads:
        return _list_workloads()
    if args.list_backends:
        return _list_backends()
    if (args.experiment is None and args.workloads
            and args.workloads[-1] in _EXPERIMENTS):
        # `--workloads spec... fig6`: the greedy nargs='+' swallowed the
        # trailing experiment name; no workload spec is ever named like
        # an experiment, so reclaim it.
        args.experiment = args.workloads.pop()
        if not args.workloads:
            parser.error("--workloads needs at least one spec")
    if args.experiment is None:
        parser.error("an experiment is required "
                     "(or --list-workloads / --list-backends)")
    try:
        profile = profile_from_env()
    except ExperimentError as exc:
        # Bad env configuration (REPRO_PROFILE/REPRO_WORKLOADS/...) ends
        # cleanly, matching the experiment-execution error path below.
        print(f"repro-experiment: {exc}", file=sys.stderr)
        return 2
    flags = {}
    for knob in KNOBS:
        value = getattr(args, knob.field)
        if value is not None:
            flags[knob.field] = tuple(value) if knob.sep else value
    try:
        # After every override: the scrub interval may come from the
        # environment and the fault rate from a flag, or vice versa.
        profile = check_profile(replace(profile, **flags),
                                name=attrgetter("flag"))
    except ExperimentError as exc:
        parser.error(str(exc))
    if args.from_store:
        if profile.store is None:
            parser.error("--from-store requires --store or REPRO_STORE")
        profile = replace(profile, offline=True)
    if args.enqueue:
        if profile.store is None:
            parser.error("--enqueue requires --store or REPRO_STORE "
                         "(the work queue lives in the store)")
        if args.shard is not None:
            parser.error("--enqueue and --shard conflict: the queue "
                         "load-balances dynamically, shards statically")
        if args.from_store:
            parser.error("--enqueue and --from-store conflict")
        if args.experiment not in exp.MATRIX_POLICIES:
            parser.error(
                f"--enqueue only applies to matrix experiments "
                f"({', '.join(sorted(exp.MATRIX_POLICIES))})"
            )
        try:
            stats = exp.enqueue_matrix(args.experiment, profile)
        except (ExperimentError, WorkloadError) as exc:
            print(f"repro-experiment: {exc}", file=sys.stderr)
            return 2
        print(f"{args.experiment!r} submitted to the queue: "
              f"{stats.describe()}")
        print("start repro-worker processes on this store to compute, "
              "then regenerate with --from-store")
        return 0
    if args.shard is not None:
        from repro.eval.runner import parse_shard

        try:
            shard = parse_shard(args.shard)
        except ValueError as exc:
            parser.error(str(exc))
        if profile.store is None:
            parser.error("--shard requires --store or REPRO_STORE "
                         "(a shard's only output is the store)")
        if args.experiment not in exp.MATRIX_POLICIES:
            parser.error(
                f"--shard only applies to matrix experiments "
                f"({', '.join(sorted(exp.MATRIX_POLICIES))})"
            )
        stats = exp.populate_matrix(args.experiment, profile, shard=shard)
        print(f"shard {args.shard} of {args.experiment!r} populated: "
              f"{stats.describe()}")
        print(f"({stats.sharded_out} cell(s) belong to other shards)")
        return 0
    try:
        result = _EXPERIMENTS[args.experiment](profile)
    except (ExperimentError, WorkloadError) as exc:
        # Expected operational failures (offline cache miss, bad profile
        # configuration, unresolvable workload specs) end cleanly, not
        # with a traceback.
        print(f"repro-experiment: {exc}", file=sys.stderr)
        return 2
    print(render_experiment(result, max_rows=args.max_rows))
    _print_matrix_stats()
    if args.save:
        path = save_experiment(result, results_dir=args.save)
        print(f"\nsaved to {path} (+ JSON twin)")
    return 0


if __name__ == "__main__":  # pragma: no cover - manual dispatch helper
    sys.exit(main_experiment())
