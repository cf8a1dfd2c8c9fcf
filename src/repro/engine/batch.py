"""Batched candidate evaluation: score whole placement populations at once.

Search-based placement (GA, random walk, annealing, 2-opt polishing)
evaluates thousands of candidate placements against *one* trace. Scoring
them one at a time through the scalar cost path leaves most of the work
in per-candidate Python overhead; this module scores a ``(K, V)`` matrix
of candidates in a single vectorized pass instead:

* :func:`evaluate_batch` — the population scorer. Candidates are given
  as stacked ``dbc_of``/``pos_of`` arrays indexed by variable code (the
  same encoding :meth:`Placement.as_arrays` produces); the trace is the
  shared ``codes`` array. One gather (``dbc_of[:, codes]``) yields every
  candidate's per-access arrays, and the per-DBC grouping is resolved
  with one row-wise stable argsort — no per-candidate Python.
* :class:`DeltaCost` — the incremental evaluator for neighbor moves.
  Local search mutates a candidate slightly (transpose two variables,
  reorder a segment); recomputing the full trace cost per move is
  O(trace), but under a *fixed partition* the warm-start single-port
  cost is a weighted sum over per-DBC adjacent access pairs, so a move
  only re-prices the pairs touching the moved variables: O(touched).

Both agree exactly — integer arithmetic throughout — with scoring each
candidate through the reference backend, which the equivalence tests
enforce.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import chain

import numpy as np

from repro.engine.numpy_backend import nearest_costs_flat
from repro.engine.semantics import port_boundaries, port_positions
from repro.errors import SimulationError

__all__ = ["DeltaCost", "evaluate_batch", "stack_candidate_arrays"]


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


def _sorted_chunks(dbc: np.ndarray, slot: np.ndarray, num_dbcs: int):
    """Yield ``(start, rows, sorted_slots, first_idx)`` per row chunk.

    The shared flattening step of both population kernels: stable-sort
    each chunk by ``row * num_dbcs + dbc`` so every (candidate, DBC)
    subsequence is one contiguous run in trace order — row ``r`` of a
    chunk occupies the sorted range ``[r*n, (r+1)*n)``. Chunks bound
    both the key width (radix range) and the element count (the radix
    sort's bucket scatter degrades sharply once its working set falls
    out of cache). Group boundaries come from key counts, not from
    comparing gathered keys: runs start at the exclusive prefix sums of
    the key histogram.
    """
    k, n = dbc.shape
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
        ss = cs.ravel()[order]
        counts = np.bincount(key, minlength=rows * num_dbcs)
        first_idx = (np.cumsum(counts) - counts)[counts > 0]
        yield start, rows, ss, first_idx


def evaluate_batch(
    codes: np.ndarray,
    dbc_of: np.ndarray,
    pos_of: np.ndarray,
    *,
    num_dbcs: int,
    domains: int | None = None,
    ports: int = 1,
) -> np.ndarray:
    """Warm-start shift cost of ``K`` candidates against one compiled trace.

    ``codes`` is the trace's per-access variable-code array (shape
    ``(N,)``); ``dbc_of``/``pos_of`` are ``(K, V)`` matrices giving each
    candidate's DBC index and intra-DBC slot per variable code (a single
    ``(V,)`` candidate is promoted to ``K=1``). Returns the ``(K,)``
    int64 per-candidate totals, identical to running each candidate
    through an engine backend from the default (offset-0, unaligned)
    initial state with ``warm_start``: each DBC's first access is free,
    the paper's cost convention.

    All paths are fully vectorized over the whole population. Single
    port flattens into one masked-``diff`` pass; nearest-port multi-port
    flattens the candidate matrix into one long run-sorted array and
    resolves every row's port-choice recurrences with a single 2-D
    monoid scan (see :func:`_batch_nearest`).
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
    lo, hi = int(pos_of.min()), int(pos_of.max())
    if domains is None:
        if ports > 1:
            raise SimulationError(
                "multi-port batch evaluation needs the track length (domains)"
            )
        domains = hi + 1
    if lo < 0 or hi >= domains:
        # Same fallback as the DBC check: only gathered slots must fit.
        lo, hi = int(slot.min()), int(slot.max())
        if lo < 0 or hi >= domains:
            bad = lo if lo < 0 else hi
            raise SimulationError(
                f"location {bad} outside track of {domains} domains"
            )
    if ports == 1:
        return _batch_single(dbc, slot, num_dbcs)
    return _batch_nearest(dbc, slot, num_dbcs, domains, ports)


def _batch_single(
    dbc: np.ndarray, slot: np.ndarray, num_dbcs: int
) -> np.ndarray:
    """Single-port costs for all rows in one flattened pass.

    The whole population is sorted at once: flattening row-major and
    stable-sorting by ``row * num_dbcs + dbc`` groups every (candidate,
    DBC) subsequence contiguously while preserving trace order, so the
    per-candidate costs are one masked ``diff`` plus a segmented sum —
    1-D kernels throughout, which numpy executes far faster than their
    ``axis=1`` counterparts. Rows are chunked to keep the combined key
    within radix-sort range.
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
    for start, rows, ss, first_idx in _sorted_chunks(dbc, slot, num_dbcs):
        move = np.diff(ss)
        np.abs(move, out=move)
        move[first_idx[1:] - 1] = 0  # run crossings
        # Row r occupies the sorted range [r*n, (r+1)*n); its last pair
        # slot is a masked-out row crossing, so plain n-strided segments
        # sum exactly the intra-row moves.
        totals[start : start + rows] = np.add.reduceat(
            move, np.arange(0, rows * n - 1, n)
        )
    return totals


def _batch_nearest(
    dbc: np.ndarray,
    slot: np.ndarray,
    num_dbcs: int,
    domains: int,
    ports: int,
) -> np.ndarray:
    """Nearest-port costs for all rows through one 2-D monoid scan.

    The same flattening trick as :func:`_batch_single`, applied to the
    sequential port-choice recurrence: stable-sorting the population by
    ``row * num_dbcs + dbc`` makes every (candidate, DBC) subsequence a
    contiguous run, and since each run's first access carries a
    *constant* port map, one monoid scan over the whole flattened
    population resolves every row's recurrence at once — candidates
    cannot leak port state into each other, exactly as DBC runs cannot
    in the 1-D kernel. Chunking keeps the sort key within radix range
    and the scan's intermediates (the per-access transition maps and
    in-block prefixes) cache-resident; past the chunk budget the loop
    degrades gracefully to a few rows — eventually one — per pass, which
    still beats per-row engine calls (no per-request validation, no
    per-row result objects). This retired the old ``_batch_per_row``
    fallback entirely. Port widths beyond the packed-table bound
    (``p**p > 256``) inherit the constant-collapse scan
    (:func:`~repro.engine.numpy_backend._scan_collapse`) through
    :func:`~repro.engine.numpy_backend.nearest_costs_flat`, so K=200
    population scoring at 8 ports runs the same collapsed state chase
    as replay.
    """
    k, n = dbc.shape
    totals = np.empty(k, dtype=np.int64)
    for start, rows, ss, first_idx in _sorted_chunks(dbc, slot, num_dbcs):
        # Default initial state (offset 0): the first target is the slot
        # itself, and warm start then zeroes the first charge.
        costs, _chosen = nearest_costs_flat(
            ss, first_idx, ss[first_idx], domains, ports
        )
        costs[first_idx] = 0
        totals[start : start + rows] = np.add.reduceat(
            costs, np.arange(0, rows * n, n)
        )
    return totals


class DeltaCost:
    """Incremental warm-start cost of neighbor moves under a fixed partition.

    *Single port*: compiles the trace once into the per-DBC adjacency
    structure — the warm cost of a placement is ``sum(w_ab * |pos[a] -
    pos[b]|)`` over the pairs ``(a, b)`` of variables adjacent in some
    DBC's access subsequence, with ``w_ab`` the number of times they are
    adjacent. Because the pair
    structure depends only on the *partition* (which DBC each variable
    lives in), any intra-DBC reordering can be re-priced by touching
    just the pairs incident to the moved variables — O(touched accesses)
    instead of O(trace) per move.

    *Multi-port nearest* (``ports > 1``, requires ``domains``): port
    choices carry sequential state, so the cost is not a pair sum — but
    DBCs are still independent. The trace is compiled once into per-DBC
    access subsequences, and a move re-replays exactly the touched DBCs
    (exact per-DBC recomposition): O(accesses of touched DBCs) per move,
    against O(trace) for a full rescore. The replay is the same
    boundary-bisect arithmetic as the vectorized kernel, in pure Python
    — touched subsequences are short and interpreter arithmetic beats
    numpy's per-call setup at that size.

    ``delta`` prices a move without committing it; ``apply`` commits.
    Moves keep every variable's DBC by construction (only slots are
    assigned). :meth:`resync` recomputes the total from scratch (the
    arithmetic is exact integers, so this is a verification hook, not a
    drift correction). Both modes agree exactly with the reference
    backend's warm-start totals.
    """

    def __init__(
        self,
        codes: np.ndarray,
        dbc_of: np.ndarray,
        pos_of: np.ndarray,
        *,
        domains: int | None = None,
        ports: int = 1,
    ) -> None:
        codes = np.ascontiguousarray(codes, dtype=np.int64)
        dbc_of = np.ascontiguousarray(dbc_of, dtype=np.int64)
        pos_of = np.ascontiguousarray(pos_of, dtype=np.int64)
        if codes.ndim != 1 or dbc_of.ndim != 1 or pos_of.ndim != 1:
            raise SimulationError("codes/dbc_of/pos_of must be 1-D arrays")
        if dbc_of.shape != pos_of.shape:
            raise SimulationError("dbc_of/pos_of must have equal length")
        self._num_vars = int(dbc_of.size)
        self._pos: list[int] = pos_of.tolist()
        self._replay = ports > 1
        if self._replay:
            if domains is None:
                raise SimulationError(
                    "multi-port delta pricing needs the track length (domains)"
                )
            self._positions = port_positions(domains, ports)
            self._bounds = port_boundaries(domains, ports)
            self._dbc: list[int] = dbc_of.tolist()
            #: DBC index -> its access subsequence (codes, trace order).
            self._dbc_codes: dict[int, list[int]] = {}
            for c in codes.tolist():
                self._dbc_codes.setdefault(self._dbc[c], []).append(c)
            self._dbc_cost: dict[int, int] = {}
            self._total = self.resync()
            return
        a, b, w = self._compile_pairs(codes, dbc_of)
        self._a, self._b, self._w = a, b, w
        #: code -> [(neighbour code, adjacency weight)]
        self._adj: list[list[tuple[int, int]]] = [
            [] for _ in range(self._num_vars)
        ]
        for pa, pb, pw in zip(a.tolist(), b.tolist(), w.tolist()):
            self._adj[pa].append((pb, pw))
            self._adj[pb].append((pa, pw))
        self._total = self.resync()

    @staticmethod
    def _compile_pairs(
        codes: np.ndarray, dbc_of: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Weighted per-DBC adjacency pairs of the compiled trace."""
        num_vars = dbc_of.size
        if codes.size <= 1:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty.copy(), empty.copy()
        dbc = dbc_of[codes]
        narrow = 0 <= int(dbc.min()) and int(dbc.max()) <= 0xFFFF
        key = dbc.astype(np.uint16) if narrow else dbc
        order = np.argsort(key, kind="stable")
        ds = dbc[order]
        cs = codes[order]
        same = ds[1:] == ds[:-1]
        pa, pb = cs[:-1][same], cs[1:][same]
        distinct = pa != pb  # same-variable pairs cost 0 under any order
        pa, pb = pa[distinct], pb[distinct]
        lo = np.minimum(pa, pb)
        hi = np.maximum(pa, pb)
        pair_key, w = np.unique(lo * num_vars + hi, return_counts=True)
        return pair_key // num_vars, pair_key % num_vars, w.astype(np.int64)

    # -- multi-port replay ---------------------------------------------------

    def _replay_dbc(self, dbc_index: int) -> int:
        """Warm-start nearest-port cost of one DBC at the current slots.

        The scalar twin of the vectorized kernel: track the offset, pick
        the nearest port by bisecting the decision boundaries, charge
        the remaining distance. The first access aligns for free.
        """
        codes_d = self._dbc_codes.get(dbc_index)
        if not codes_d:
            return 0
        pos = self._pos
        positions = self._positions
        bounds = self._bounds
        slot = pos[codes_d[0]]
        base = slot - positions[bisect_left(bounds, slot)]
        total = 0
        for c in codes_d[1:]:
            target = pos[c] - base
            j = bisect_left(bounds, target)
            total += abs(target - positions[j])
            base = pos[c] - positions[j]
        return total

    def _replay_delta(self, moves: dict[int, int]) -> int:
        """Price ``moves`` by re-replaying exactly the touched DBCs."""
        affected = {self._dbc[c] for c in moves}
        pos = self._pos
        saved = [(c, pos[c]) for c in moves]
        for c, new_slot in moves.items():
            pos[c] = new_slot
        try:
            priced = sum(
                self._replay_dbc(d) - self._dbc_cost.get(d, 0)
                for d in affected
            )
        finally:
            for c, old_slot in saved:
                pos[c] = old_slot
        return priced

    def _replay_commit(self, moves: dict[int, int]) -> int:
        for c, new_slot in moves.items():
            self._pos[c] = new_slot
        for d in {self._dbc[c] for c in moves}:
            fresh = self._replay_dbc(d)
            self._total += fresh - self._dbc_cost.get(d, 0)
            self._dbc_cost[d] = fresh
        return self._total

    # -- pricing ------------------------------------------------------------

    @property
    def cost(self) -> int:
        """The current candidate's total shift cost."""
        return self._total

    def position_of(self, code: int) -> int:
        return int(self._pos[code])

    def delta(self, moves: dict[int, int]) -> int:
        """Cost change of assigning ``{code: new_slot}`` without committing.

        All moved variables keep their DBC (the compiled structure is
        partition-specific); swapping or permuting slots within DBCs is
        exactly that.
        """
        if self._replay:
            return self._replay_delta(moves)
        pos = self._pos
        d = 0
        for c, new_c in moves.items():
            old_c = pos[c]
            for o, w in self._adj[c]:
                if o in moves:
                    if o < c:  # both moved: price the pair once
                        continue
                    d += w * (abs(new_c - moves[o]) - abs(old_c - pos[o]))
                else:
                    po = pos[o]
                    d += w * (abs(new_c - po) - abs(old_c - po))
        return d

    def apply(self, moves: dict[int, int], delta: int | None = None) -> int:
        """Commit ``{code: new_slot}`` and return the new total.

        Pass the ``delta`` already obtained from :meth:`delta` for the
        same moves to commit without re-pricing (accept loops price
        first, then commit). The multi-port mode re-replays the touched
        DBCs either way — its per-DBC totals must stay current — so the
        passed delta only skips work on the single-port path; results
        are identical.
        """
        if self._replay:
            return self._replay_commit(moves)
        self._total += self.delta(moves) if delta is None else delta
        for c, new_c in moves.items():
            self._pos[c] = new_c
        return self._total

    def swap_delta(self, code_a: int, code_b: int) -> int:
        """Price transposing two variables' slots (the annealing move)."""
        pos = self._pos
        if self._replay:
            return self._replay_delta(
                {code_a: pos[code_b], code_b: pos[code_a]}
            )
        pa, pb = pos[code_a], pos[code_b]
        d = 0
        for o, w in self._adj[code_a]:
            if o != code_b:  # the (a, b) pair's own distance is unchanged
                po = pos[o]
                d += w * (abs(pb - po) - abs(pa - po))
        for o, w in self._adj[code_b]:
            if o != code_a:
                po = pos[o]
                d += w * (abs(pa - po) - abs(pb - po))
        return d

    def swap(self, code_a: int, code_b: int, delta: int | None = None) -> int:
        """Commit the transposition and return the new total.

        ``delta`` takes a price already computed by :meth:`swap_delta`
        for the same pair, skipping the second pricing pass (single-port
        path only; see :meth:`apply`).
        """
        pos = self._pos
        if self._replay:
            return self._replay_commit(
                {code_a: pos[code_b], code_b: pos[code_a]}
            )
        self._total += self.swap_delta(code_a, code_b) if delta is None else delta
        pos[code_a], pos[code_b] = pos[code_b], pos[code_a]
        return self._total

    def resync(self) -> int:
        """Recompute the total from scratch (verification hook)."""
        if self._replay:
            self._dbc_cost = {
                d: self._replay_dbc(d) for d in self._dbc_codes
            }
            self._total = sum(self._dbc_cost.values())
            return self._total
        pos = np.asarray(self._pos, dtype=np.int64)
        self._total = int((self._w * np.abs(pos[self._a] - pos[self._b])).sum())
        return self._total
