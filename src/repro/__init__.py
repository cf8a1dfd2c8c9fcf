"""repro — reproduction of *Generalized Data Placement Strategies for
Racetrack Memories* (Khan, Goens, Hameed, Castrillon — DATE 2020).

The package provides, from scratch:

* :mod:`repro.trace` — access sequences, access graphs, liveness analysis
  and the OffsetStone-like benchmark suite;
* :mod:`repro.engine` — the shift engine: one vectorizable kernel for
  shift semantics with interchangeable (reference / batched numpy)
  backends, shared by the simulator and the analytic cost model;
* :mod:`repro.rtm` — the RTM architecture model, Table-I-calibrated
  latency/energy/area parameters and a trace-driven simulator;
* :mod:`repro.core` — the placement algorithms: the DMA heuristic
  (Algorithm 1), the genetic algorithm, the AFD baseline and the
  intra-DBC heuristics (OFU, Chen, ShiftsReduce, TSP, exact DP);
* :mod:`repro.workloads` — the pluggable workload layer: declarative
  specs resolved through a source registry (synthetic generator
  families plus external trace ingestion) and composable scenario
  transforms;
* :mod:`repro.eval` — the experiment harness regenerating every table
  and figure of the paper's evaluation, over any registered workload.

Quickstart::

    from repro import AccessSequence, get_policy, shift_cost

    seq = AccessSequence(list("ababcacaddaiefefgeghgihi"),
                         variables=list("abcdefghi"))
    placement = get_policy("DMA-SR").place(seq, num_dbcs=2, capacity=512)
    print(shift_cost(seq, placement))
"""

from repro.engine import available_backends, get_backend
from repro.core import (
    GAConfig,
    GeneticPlacer,
    PAPER_POLICIES,
    Placement,
    available_policies,
    dma_placement,
    dma_split,
    exact_optimal_placement,
    get_policy,
    per_dbc_shift_costs,
    random_walk_search,
    shift_cost,
)
from repro.rtm import (
    MemoryParams,
    RTMConfig,
    SimReport,
    destiny_params,
    iso_capacity_sweep,
    simulate,
)
from repro.trace import (
    AccessGraph,
    AccessSequence,
    Liveness,
    MemoryTrace,
    read_traces,
    write_traces,
)
from repro.workloads import (
    WorkloadContext,
    WorkloadSpec,
    parse_workload_spec,
    resolve_workload,
    resolve_workloads,
)

__version__ = "1.24.0"

__all__ = [
    "__version__",
    # engine
    "available_backends",
    "get_backend",
    # core
    "Placement",
    "shift_cost",
    "per_dbc_shift_costs",
    "dma_split",
    "dma_placement",
    "GeneticPlacer",
    "GAConfig",
    "random_walk_search",
    "exact_optimal_placement",
    "get_policy",
    "available_policies",
    "PAPER_POLICIES",
    # rtm
    "RTMConfig",
    "MemoryParams",
    "SimReport",
    "destiny_params",
    "iso_capacity_sweep",
    "simulate",
    # trace
    "AccessSequence",
    "MemoryTrace",
    "AccessGraph",
    "Liveness",
    "read_traces",
    "write_traces",
    # workloads
    "WorkloadContext",
    "WorkloadSpec",
    "parse_workload_spec",
    "resolve_workload",
    "resolve_workloads",
]
