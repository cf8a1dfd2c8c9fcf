"""Batched candidate evaluation: score whole placement populations at once.

Search-based placement (GA, random walk, 2-opt polishing, the exact
enumeration) evaluates thousands of candidate placements against *one*
trace. Scoring them one at a time through the scalar cost path leaves
most of the work in per-candidate Python overhead;
:func:`evaluate_batch` scores a ``(K, V)`` matrix of candidates in a
single vectorized pass instead. It prices the paper's objective: one
port per track, each DBC's first access free (warm start). Other port
counts are a replay geometry of the engine backends
(:func:`repro.core.cost.shift_cost` with ``ports``/``domains``), not a
search objective.

Candidates are given as stacked ``dbc_of``/``pos_of`` arrays indexed by
variable code (the same encoding :meth:`Placement.as_arrays` produces);
the trace is the shared ``codes`` array. One gather
(``dbc_of[:, codes]``) yields every candidate's per-access arrays, and
the per-DBC grouping is resolved with one row-wise stable argsort — no
per-candidate Python. Totals agree exactly — integer arithmetic
throughout — with scoring each candidate through the single-port
reference backend, which the equivalence tests enforce.
"""

from __future__ import annotations

from itertools import chain

import numpy as np

from repro.errors import SimulationError

__all__ = ["evaluate_batch", "stack_candidate_arrays"]


def stack_candidate_arrays(
    candidates, num_vars: int, code_of=None
) -> tuple[np.ndarray, np.ndarray]:
    """``(K, V)`` DBC/slot matrices from per-DBC lists of variable codes.

    Each candidate is a complete placement as nested lists —
    ``candidate[d]`` holds the variable codes of DBC ``d`` in slot
    order, every code in ``[0, num_vars)`` appearing exactly once.
    ``code_of`` optionally maps list entries to codes during the flatten
    (e.g. a sequence's ``index_of`` when candidates hold variable
    names), avoiding an intermediate converted copy.
    This encodes list-of-lists candidates, such as the heuristic
    placements seeding the GA, for :func:`evaluate_batch`. The whole
    population is flattened in one pass and scattered with a constant
    number of numpy calls — per-candidate calls would cost more than the
    interpreted fill they replace on realistic (tens of variables)
    instances. A malformed candidate (too few or too many entries, a
    code out of range, a code missing or duplicated) raises
    :class:`~repro.errors.SimulationError`.
    """
    k = len(candidates)
    dbc_of = np.empty((k, num_vars), dtype=np.int64)
    # Poison-filled so an incomplete candidate is caught below instead of
    # scoring leftover heap contents (the entry counts are checked first,
    # so a duplicate code necessarily leaves another cell unwritten).
    pos_of = np.full((k, num_vars), -1, dtype=np.int64)
    if k == 0:
        return dbc_of, pos_of
    # Per-list bookkeeping over the flattened population: which slot run
    # each element falls in, and that list's DBC index in its candidate.
    # chain/map keep the flattening inside the C iterator protocol, where
    # generator-expression overhead was most of the stacking cost.
    lists_per = np.fromiter(map(len, candidates), dtype=np.int64, count=k)
    num_lists = int(lists_per.sum())
    flat_lists = chain.from_iterable(candidates)
    sizes = np.fromiter(map(len, flat_lists), dtype=np.int64, count=num_lists)
    entries = np.bincount(
        np.repeat(np.arange(k), lists_per), weights=sizes, minlength=k
    )
    wrong = entries != num_vars
    if wrong.any():
        bad = int(np.argmax(wrong))
        raise SimulationError(
            f"candidate {bad} has {int(entries[bad])} entries for "
            f"{num_vars} variables"
        )
    flat = chain.from_iterable(chain.from_iterable(candidates))
    if code_of is not None:
        flat = map(code_of, flat)
    codes = np.fromiter(flat, dtype=np.int64, count=k * num_vars)
    outside = (codes < 0) | (codes >= num_vars)
    if outside.any():
        bad = int(np.argmax(outside))
        raise SimulationError(
            f"candidate {bad // num_vars} holds code {int(codes[bad])}, "
            f"outside [0, {num_vars})"
        )
    list_index = np.arange(num_lists, dtype=np.int64)
    candidate_start = np.repeat(np.cumsum(lists_per) - lists_per, lists_per)
    dbc_vals = np.repeat(list_index - candidate_start, sizes)
    element_index = np.arange(k * num_vars, dtype=np.int64)
    pos_vals = element_index - np.repeat(np.cumsum(sizes) - sizes, sizes)
    # Every candidate contributes exactly num_vars elements, so the flat
    # scatter target is row * num_vars + code.
    target = element_index // num_vars * num_vars + codes
    dbc_of.ravel()[target] = dbc_vals
    pos_of.ravel()[target] = pos_vals
    if int(pos_of.min()) < 0:
        bad = int(np.argmin(pos_of.min(axis=1)))
        raise SimulationError(
            f"candidate {bad} is not a complete placement of "
            f"{num_vars} variables (a code is missing or duplicated)"
        )
    return dbc_of, pos_of


def _as_candidate_matrix(arr, name: str) -> np.ndarray:
    out = np.ascontiguousarray(arr, dtype=np.int64)
    if out.ndim == 1:
        out = out[None, :]
    if out.ndim != 2:
        raise SimulationError(f"{name} must be a (K, V) matrix, got shape {out.shape}")
    return out


#: Row-chunk bound keeping the flattened ``row * num_dbcs + dbc`` sort key
#: within uint16, where numpy's stable sort is a radix sort — the same
#: narrow-key trick as the 1-D kernel, applied to the whole population.
_FLAT_KEY_LIMIT = 0xFFFF + 1

#: Element budget per flattened sort chunk (cache-resident working set).
_FLAT_CHUNK_ELEMENTS = 32768

#: Trace length above which the population is scored row by row instead
#: of through the flattened sort. Short traces are dominated by numpy's
#: per-call setup, which the flat pass pays once for the whole
#: population; long traces are dominated by the sort itself, where the
#: per-row radix sorts stay cache-resident and the flat sort does not.
_FLAT_MAX_ACCESSES = 512


def evaluate_batch(
    codes: np.ndarray,
    dbc_of: np.ndarray,
    pos_of: np.ndarray,
    *,
    num_dbcs: int,
) -> np.ndarray:
    """Warm-start single-port shift cost of ``K`` candidates on one trace.

    ``codes`` is the trace's per-access variable-code array (shape
    ``(N,)``); ``dbc_of``/``pos_of`` are ``(K, V)`` matrices giving each
    candidate's DBC index and intra-DBC slot per variable code (a single
    ``(V,)`` candidate is promoted to ``K=1``). Returns the ``(K,)``
    int64 per-candidate totals, identical to running each candidate
    through an engine backend at one port from the default (offset-0,
    unaligned) initial state with ``warm_start``: each DBC's first
    access is free, the paper's cost convention. Single-port costs are
    slot differences, so no track length is needed; slots only have to
    be non-negative.
    """
    codes = np.ascontiguousarray(codes, dtype=np.int64)
    if codes.ndim != 1:
        raise SimulationError(f"codes must be 1-D, got shape {codes.shape}")
    dbc_of = _as_candidate_matrix(dbc_of, "dbc_of")
    pos_of = _as_candidate_matrix(pos_of, "pos_of")
    if dbc_of.shape != pos_of.shape:
        raise SimulationError(
            f"dbc_of/pos_of shapes differ: {dbc_of.shape} vs {pos_of.shape}"
        )
    if num_dbcs < 1:
        raise SimulationError(f"num_dbcs must be >= 1, got {num_dbcs}")
    k = dbc_of.shape[0]
    if k == 0 or codes.size == 0:
        return np.zeros(k, dtype=np.int64)
    if codes.min() < 0 or codes.max() >= dbc_of.shape[1]:
        raise SimulationError(
            f"codes must lie in [0, {dbc_of.shape[1]}) to index the candidates"
        )
    dbc = dbc_of[:, codes]
    slot = pos_of[:, codes]
    # Range checks run against the small (K, V) matrices first — a
    # trace-length factor fewer passes than checking the gathered
    # arrays. The contract only constrains entries the trace actually
    # gathers (placeholder values on never-accessed variables are
    # legal), so a matrix-level violation falls back to the gathered
    # arrays before raising.
    if (int(dbc_of.min()) < 0 or int(dbc_of.max()) >= num_dbcs) and (
        int(dbc.min()) < 0 or int(dbc.max()) >= num_dbcs
    ):
        raise SimulationError(f"dbc indices must lie in [0, {num_dbcs})")
    if int(pos_of.min()) < 0 and int(slot.min()) < 0:
        raise SimulationError(f"location {int(slot.min())} outside the track")
    return _batch_single(dbc, slot, num_dbcs)


def _batch_single(
    dbc: np.ndarray, slot: np.ndarray, num_dbcs: int
) -> np.ndarray:
    """Single-port costs for all rows in one flattened pass.

    The whole population is sorted at once: flattening row-major and
    stable-sorting by ``row * num_dbcs + dbc`` groups every (candidate,
    DBC) subsequence contiguously while preserving trace order — row
    ``r`` of a chunk occupies the sorted range ``[r*n, (r+1)*n)`` — so
    the per-candidate costs are one masked ``diff`` plus a segmented
    sum: 1-D kernels throughout, which numpy executes far faster than
    their ``axis=1`` counterparts. Chunks bound both the key width
    (radix range) and the element count (the radix sort's bucket
    scatter degrades sharply once its working set falls out of cache).
    Run boundaries come from key counts, not from comparing gathered
    keys: runs start at the exclusive prefix sums of the key histogram.
    """
    k, n = dbc.shape
    if n <= 1:
        return np.zeros(k, dtype=np.int64)
    totals = np.empty(k, dtype=np.int64)
    if n > _FLAT_MAX_ACCESSES:
        key = dbc.astype(np.uint16) if num_dbcs <= 0xFFFF + 1 else dbc
        for i in range(k):
            order = np.argsort(key[i], kind="stable")
            ds = key[i][order]
            ss = slot[i][order]
            same = ds[1:] == ds[:-1]
            totals[i] = int(np.abs(np.diff(ss))[same].sum())
        return totals
    rows_per_chunk = max(
        1, min(_FLAT_KEY_LIMIT // num_dbcs, _FLAT_CHUNK_ELEMENTS // n)
    )
    for start in range(0, k, rows_per_chunk):
        cd = dbc[start : start + rows_per_chunk]
        cs = slot[start : start + rows_per_chunk]
        rows = cd.shape[0]
        key = (
            np.arange(rows, dtype=np.int64)[:, None] * num_dbcs + cd
        ).ravel()
        key = key.astype(np.uint16) if rows * num_dbcs <= 0xFFFF + 1 else key
        order = np.argsort(key, kind="stable")
        move = np.diff(cs.ravel()[order])
        np.abs(move, out=move)
        counts = np.bincount(key, minlength=rows * num_dbcs)
        first_idx = (np.cumsum(counts) - counts)[counts > 0]
        move[first_idx[1:] - 1] = 0  # run crossings
        # Row r's last pair slot is a masked-out row crossing, so plain
        # n-strided segments sum exactly the intra-row moves.
        totals[start : start + rows] = np.add.reduceat(
            move, np.arange(0, rows * n - 1, n)
        )
    return totals
