"""Whole-program placement: one memory layout for many access sequences.

The offset-assignment methodology (and the paper's evaluation) places
every access sequence independently — each procedure gets the whole
memory. A real compiler must commit to *one* layout: variables shared
between sequences (globals, communication buffers) live at one location,
and every sequence pays its shifts under that common placement.

This module provides that program-level flow: sequences are fused into a
single phase-ordered super-sequence (which is exactly the structure the
DMA heuristic exploits — per-sequence locals become disjoint chains),
any registered policy places the fused sequence, and the result is
scored per sequence under the paper's cost conventions (each sequence
starts warm, no shifts are charged between sequences).
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from repro.core.cost import shift_cost
from repro.core.placement import Placement, check_room
from repro.core.policies import Policy, get_policy
from repro.errors import PlacementError
from repro.trace.generators.synthetic import concat_sequences
from repro.trace.sequence import AccessSequence


@dataclass(frozen=True)
class ProgramPlacement:
    """A unified layout plus its per-sequence cost breakdown."""

    placement: Placement
    per_sequence_costs: dict[str, int] = field(default_factory=dict)

    @property
    def total_cost(self) -> int:
        return sum(self.per_sequence_costs.values())


def fuse_sequences(
    sequences: Sequence[AccessSequence], name: str = "program"
) -> AccessSequence:
    """Concatenate sequences into one phase-ordered super-sequence.

    Same-named variables are shared (they are the program's globals);
    distinct locals of different sequences appear in different phases of
    the fused sequence, so their lifespans are disjoint by construction
    and Algorithm 1 separates them automatically.
    """
    if not sequences:
        raise PlacementError("cannot fuse zero sequences")
    return concat_sequences(list(sequences), name=name)


def evaluate_program(
    placement: Placement,
    sequences: Sequence[AccessSequence],
) -> dict[str, int]:
    """Per-sequence shift cost of one common placement.

    Each sequence is charged independently (warm start per sequence,
    Fig. 3's convention); keys fall back to ``seq<i>`` for unnamed
    sequences.
    """
    costs: dict[str, int] = {}
    for i, seq in enumerate(sequences):
        key = seq.name or f"seq{i}"
        if key in costs:
            key = f"{key}#{i}"
        costs[key] = shift_cost(seq, placement)
    return costs


def place_program(
    sequences: Sequence[AccessSequence],
    num_dbcs: int,
    capacity: int,
    policy: Policy | str = "DMA-SR",
    rng: int | np.random.Generator | None = None,
) -> ProgramPlacement:
    """One layout for all sequences, scored per sequence.

    ``policy`` may be a registered policy name or a
    :class:`~repro.core.policies.Policy` instance.
    """
    if isinstance(policy, str):
        policy = get_policy(policy)
    fused = fuse_sequences(sequences)
    check_room(fused.num_variables, num_dbcs, capacity)
    placement = policy.place(fused, num_dbcs, capacity, rng=rng)
    return ProgramPlacement(
        placement=placement,
        per_sequence_costs=evaluate_program(placement, sequences),
    )


def best_program_placement(
    sequences: Sequence[AccessSequence],
    num_dbcs: int,
    capacity: int,
    policies: Sequence[str] = ("AFD-OFU", "DMA-OFU", "DMA-Chen", "DMA-SR"),
    rng: int | np.random.Generator | None = None,
) -> tuple[str, ProgramPlacement]:
    """Try several policies on the fused program and keep the cheapest."""
    if not policies:
        raise PlacementError("need at least one candidate policy")
    best_name: str | None = None
    best: ProgramPlacement | None = None
    for name in policies:
        candidate = place_program(
            sequences, num_dbcs, capacity, policy=name, rng=rng
        )
        if best is None or candidate.total_cost < best.total_cost:
            best_name, best = name, candidate
    assert best_name is not None and best is not None
    return best_name, best


def per_sequence_reference(
    sequences: Sequence[AccessSequence],
    num_dbcs: int,
    capacity: int,
    policy: Policy | str = "DMA-SR",
    rng: int | np.random.Generator | None = None,
) -> int:
    """The (unrealizable) per-sequence total: every sequence gets its own
    private layout of the whole device. A lower-is-better reference for
    how much the single-layout constraint costs."""
    if isinstance(policy, str):
        policy = get_policy(policy)
    total = 0
    for seq in sequences:
        placement = policy.place(seq, num_dbcs, capacity, rng=rng)
        total += shift_cost(seq, placement)
    return total
