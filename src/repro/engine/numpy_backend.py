"""Batched NumPy backend: whole-trace shift computation, no per-access loop.

Accesses are stably sorted by DBC so every DBC's subsequence is a
contiguous run that still preserves trace order (DBCs shift
independently, so reordering across DBCs cannot change any cost).

*One offset change per access*: after an access the track offset is
its slot minus the position of the port that served it, so the signed
offset change ``delta`` of :func:`repro.engine.semantics.step` is the
difference of consecutive offsets within a run — the slot gap minus the
change of serving port. A run's first access moves from the carried
offset, and under a warm start a DBC's first alignment is free and
issues no physical shift, so its ``delta`` is zeroed. Charged shifts are
``|delta|`` summed per run, the final offsets are the runs' last
offsets, and the fault post-pass reads the same ``delta`` and offsets.
The port count only decides which port serves an access: port 0 on a
single-port track, the nearest one otherwise (:func:`nearest_ports`).

*Multi-port nearest*: the only state the nearest-port controller carries
between accesses of a DBC is *which port served the previous access*
(the offset is then determined by the previous slot). Each access is
therefore a map ``prev_port -> chosen port`` over a tiny domain of
``p`` ports. We materialize those per-access port maps in bulk (one
gather from cached per-gap transition tables; a request shorter than a
long track's gap range maps its own gaps) and resolve the sequential
dependency with a *blocked* prefix scan over the maps, one scan per map
representation whatever the trace length: the in-block length grows
with the input as ``min(128, ceil(sqrt(n)))``. Narrow alphabets
(``p**p <= 256``) pack each map into one base-``p`` integer composed
through a cached monoid table (:func:`_scan_packed`; two ports reduce to
a forward fill); wider ports use the *constant-collapse* representation
— each map is ``(kind, value)``, constant or an explicit row —
exploiting that any composition ending in a constant *is* that
constant, so prefix states collapse to scalar values at the first
constant map and stay scalar (see :func:`_scan_collapse`). A run's
first access is a *constant* map (its choice is fixed by the known
starting offset), so composed prefixes spanning it are constant maps
too and runs cannot leak state into each other.

*Cold start* needs no simulation at all: warm and cold controllers make
identical port choices, so a cold start only keeps each DBC's first
alignment distance in its ``delta`` instead of zeroing it.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from repro.engine.faults import empty_observation, observe_faults_sorted
from repro.engine.semantics import port_boundaries, port_positions
from repro.engine.types import ShiftRequest, ShiftResult
from repro.errors import SimulationError


def _group_order(dbc: np.ndarray, num_dbcs: int) -> np.ndarray:
    """Stable argsort by DBC index.

    DBC counts are tiny, so sorting narrow keys lets numpy's radix sort
    touch far fewer bytes than a general int64 sort — worth ~3x on the
    single-port path, where the sort dominates.
    """
    key = dbc.astype(np.uint16) if num_dbcs <= 0xFFFF else dbc
    return np.argsort(key, kind="stable")


@lru_cache(maxsize=256)
def positions_array(domains: int, ports: int) -> np.ndarray:
    """Cached read-only port-position array for one track geometry.

    Matrix sweeps revisit the same few ``(domains, ports)`` cells
    thousands of times; caching the arrays (and the boundary tables
    below) keeps sharded/parallel runs from rebuilding them per cell.
    """
    out = np.asarray(port_positions(domains, ports), dtype=np.int64)
    out.setflags(write=False)
    return out


@lru_cache(maxsize=256)
def boundaries_array(domains: int, ports: int) -> np.ndarray:
    """Cached read-only nearest-port decision thresholds (see semantics)."""
    out = np.asarray(port_boundaries(domains, ports), dtype=np.int64)
    out.setflags(write=False)
    return out


class NumpyBackend:
    """Executes requests with vectorized segment operations."""

    name = "numpy"

    def run(self, request: ShiftRequest) -> ShiftResult:
        init_offsets, init_aligned = request.resolved_init()
        n = request.accesses
        if n == 0:
            return ShiftResult(
                accesses=0,
                shifts=0,
                per_dbc_shifts=(0,) * request.num_dbcs,
                final_offsets=init_offsets.copy(),
                final_aligned=init_aligned.copy(),
                faults=(
                    empty_observation(request.resolved_init_drifts())
                    if request.fault is not None else None
                ),
            )
        slot = request.slot
        lo, hi = int(slot.min()), int(slot.max())
        if lo < 0 or hi >= request.domains:
            bad = lo if lo < 0 else hi
            raise SimulationError(
                f"location {bad} outside track of {request.domains} domains"
            )
        order = _group_order(request.dbc, request.num_dbcs)
        ds = request.dbc[order]
        ss = slot[order]
        run_first = np.empty(n, dtype=bool)
        run_first[0] = True
        np.not_equal(ds[1:], ds[:-1], out=run_first[1:])
        first_idx = np.flatnonzero(run_first)       # one per accessed DBC
        first_dbc = ds[first_idx]                   # unique, ascending
        last_idx = np.append(first_idx[1:] - 1, n - 1)
        start = init_offsets[first_dbc]
        # The offset after an access puts its slot under the serving port.
        positions = positions_array(request.domains, request.ports)
        if request.ports == 1:
            offset_after = ss - positions[0]
        else:
            offset_after = ss - positions[nearest_ports(
                ss, first_idx, ss[first_idx] - start,
                request.domains, request.ports,
            )]
        # Signed offset change per access (semantics.step's delta): a
        # run's first access moves from the carried offset, and a warm
        # start's first alignment is free and issues no physical shift.
        delta = np.empty(n, dtype=np.int64)
        np.subtract(offset_after[1:], offset_after[:-1], out=delta[1:])
        delta[first_idx] = offset_after[first_idx] - start
        if request.warm_start:
            delta[first_idx[~init_aligned[first_dbc]]] = 0
        per_dbc = np.zeros(request.num_dbcs, dtype=np.int64)
        per_dbc[first_dbc] = np.add.reduceat(np.abs(delta), first_idx)
        final_offsets = init_offsets.copy()
        final_aligned = init_aligned.copy()
        final_offsets[first_dbc] = offset_after[last_idx]
        final_aligned[first_dbc] = True
        faults = None
        if request.fault is not None:
            # Faults never feed back into the believed dynamics, so the
            # fault pass reads the clean replay's deltas and offsets.
            faults = observe_faults_sorted(
                request.fault,
                dbc=request.dbc,
                order=order,
                delta=delta,
                offset_after=offset_after,
                run_first=run_first,
                first_idx=first_idx,
                first_dbc=first_dbc,
                last_idx=last_idx,
                domains=request.domains,
                access_base=request.access_base,
                init_drifts=request.resolved_init_drifts(),
            )
        return ShiftResult(
            accesses=n,
            shifts=int(per_dbc.sum()),
            per_dbc_shifts=tuple(int(c) for c in per_dbc),
            final_offsets=final_offsets,
            final_aligned=final_aligned,
            faults=faults,
        )


def _port_maps(
    gaps: np.ndarray, domains: int, ports: int
) -> tuple[np.ndarray, np.ndarray]:
    """``(rows, const)`` port-transition maps of the slot gaps ``gaps``.

    The map an access applies depends only on its slot gap ``g`` to the
    previous access: entering with port ``k``, the target is ``g +
    positions[k]`` and the chosen port is the nearest one. ``rows[i]``
    is the explicit ``prev -> next`` map of ``gaps[i]`` and
    ``const[i]`` its value when the map is *constant* (same chosen port
    whatever the previous one was), ``-1`` otherwise. Nearest-port maps
    are monotone (the targets ``g + positions[k]`` increase with
    ``k``), so a map is constant exactly when its first and last
    entries agree. Narrow dtypes keep the per-access gathers' memory
    traffic at one byte per entry.
    """
    positions = positions_array(domains, ports)
    boundaries = boundaries_array(domains, ports)
    # Narrowest signed dtype holding port indices plus the -1 sentinel.
    dtype = np.int8 if ports <= 127 else np.int16
    rows = np.searchsorted(
        boundaries, gaps[:, None] + positions[None, :], side="left"
    ).astype(dtype)
    const = np.where(rows[:, 0] == rows[:, -1], rows[:, 0], -1).astype(dtype)
    return rows, const


def _packed(rows: np.ndarray, ports: int) -> np.ndarray:
    """Map rows packed into one base-``p`` integer each (digit k = f(k))."""
    return rows.astype(np.int64) @ (ports ** np.arange(ports, dtype=np.int64))


@lru_cache(maxsize=256)
def _gap_maps(domains: int, ports: int) -> tuple[np.ndarray, np.ndarray]:
    """:func:`_port_maps` of all ``2K - 1`` gaps of one track geometry.

    Row ``g + (K - 1)`` holds gap ``g``'s map, so a request's per-access
    maps are one gather at ``gap + (K - 1)``.
    """
    gaps = np.arange(-(domains - 1), domains, dtype=np.int64)
    rows, const = _port_maps(gaps, domains, ports)
    rows.setflags(write=False)
    const.setflags(write=False)
    return rows, const


@lru_cache(maxsize=256)
def _transition_tables(domains: int, ports: int) -> np.ndarray:
    """The rows of :func:`_gap_maps` packed by :func:`_packed`.

    The packed representation of narrow ports (``p**p <= _TABLE_MAX``),
    composed through :func:`_composition_table`.
    """
    out = _packed(_gap_maps(domains, ports)[0], ports)
    out.setflags(write=False)
    return out


def nearest_ports(
    ss: np.ndarray,
    first_idx: np.ndarray,
    first_targets: np.ndarray,
    domains: int,
    ports: int,
) -> np.ndarray:
    """Port serving each access of run-sorted slots on a multi-port track.

    ``ss`` holds the slots with every run (one DBC's subsequence)
    contiguous and in trace order; ``first_idx`` marks each run's first
    access — index 0 must be one — and ``first_targets`` gives its
    port-selection target (``slot - starting offset``).

    The port chosen for an access depends only on the previous access's
    port, so each access is a ``prev -> next`` map over the ``p`` ports,
    gathered per access from the geometry's cached per-gap table — or,
    for a request shorter than a long track's ``2K - 1`` gaps, built
    for the request's own gaps. Run-first maps are overwritten with
    constant maps (their choice is fixed by the known starting offset)
    and the scan composes the maps into per-access choices.
    """
    n = ss.size
    gap = np.empty(n, dtype=np.int64)
    gap[0] = 0
    np.subtract(ss[1:], ss[:-1], out=gap[1:])
    first_port = np.searchsorted(
        boundaries_array(domains, ports), first_targets, side="left"
    )
    # Short tracks and requests at least as long as the track's gap
    # range gather from the geometry's cached table; a shorter request on
    # a longer track maps its own gaps instead of building and pinning it.
    tabled = 2 * domains - 1 <= max(n, _GAP_TABLE_MIN)
    at = gap + (domains - 1)
    if ports ** ports <= _TABLE_MAX:
        if tabled:
            enc = _transition_tables(domains, ports)[at]
        else:
            enc = _packed(_port_maps(gap, domains, ports)[0], ports)
        # A constant map to port j has every base-p digit equal to j.
        enc[first_idx] = first_port * ((ports ** ports - 1) // (ports - 1))
        return _scan_packed(enc, ports)
    if tabled:
        rows, const = _gap_maps(domains, ports)
        const = const[at]
    else:
        rows, const = _port_maps(gap, domains, ports)
    const[first_idx] = first_port.astype(const.dtype)
    # The gathered rows stay a temporary the scan can free once it has
    # padded them: holding them here slowed long replays ~5%.
    return _scan_collapse(const, rows[at] if tabled else rows, ports)


@lru_cache(maxsize=8)
def _composition_table(p: int) -> np.ndarray:
    """Composition table of the monoid of maps ``{0..p-1} -> {0..p-1}``.

    A map ``f`` is encoded as the base-``p`` integer with digits
    ``f(0), f(1), ...``; ``table.ravel()[g * p**p + f]`` encodes ``g∘f``.
    """
    total = p ** p
    # Built in uint8 (every code is below p**p <= _TABLE_MAX = 256): a
    # quarter of the int32 temporaries' page faults on a first replay.
    digits = ((np.arange(total)[:, None] // p ** np.arange(p)) % p).astype(np.uint8)
    table = np.zeros((total, total), dtype=np.uint8)
    for k in range(p):  # digit k of g∘f is digits[g, digits[f, k]]
        table += digits[:, digits[:, k]] * np.uint8(p ** k)
    return table.astype(np.int32).ravel()


#: Gap tables of up to this many entries (tracks of up to 2,048 domains,
#: every geometry the experiments use) are built whatever the request's
#: length: each holds ``(ports + 1)`` bytes per gap (plus 8 packed), and
#: short replays gather from them 1.05-1.6x faster than they map their
#: own gaps on 64-512 domains.
_GAP_TABLE_MIN = 4096

#: Largest packed-map universe (p**p) the composition table covers:
#: ports <= 4 keep the table at 256x256 int32.
_TABLE_MAX = 256

#: Longest in-block run of the blocked scans: the Python loop runs at
#: most this many vectorized steps, each over all blocks at once.
_SCAN_BLOCK = 128


def _block_length(n: int) -> int:
    """In-block length of the blocked scans over ``n >= 1`` maps.

    ``ceil(sqrt(n))`` balances the in-block loop (one numpy call per
    position) against the lanes each call covers (one per block), so a
    short trace runs a few dozen small steps instead of ``_SCAN_BLOCK``
    steps over padding; from ``127**2 + 1`` maps on it is
    ``_SCAN_BLOCK``.
    """
    return min(_SCAN_BLOCK, math.isqrt(n - 1) + 1)


@lru_cache(maxsize=8)
def _evaluation_table(p: int) -> np.ndarray:
    """Digit-extraction table: ``eval[f * p + s]`` is map ``f`` at state ``s``.

    Evaluating packed maps through one gather sidesteps the integer
    divisions of ``(f // p**s) % p``, which dominate the blocked scan's
    final stage otherwise.
    """
    total = p ** p
    powers = p ** np.arange(p, dtype=np.int64)
    digits = (np.arange(total)[:, None] // powers[None, :]) % p
    return np.ascontiguousarray(digits.ravel().astype(np.intp))


def _scan_packed(enc: np.ndarray, p: int) -> np.ndarray:
    """Port chosen at each access, from per-access table-packed maps.

    Prefix-composes the maps; element 0 must be a constant (reset) map,
    so every full prefix is constant and evaluating it at state 0 yields
    the chosen port. A blocked scan does linear work in three stages:
    (1) an in-block inclusive prefix — one vectorized table gather per
    in-block position, composing that position of *every* block at
    once; (2) a doubling scan over the per-block totals; (3) one
    evaluation-table gather resolving each in-block prefix at its
    block's entry state. Padding with the identity map keeps the last
    partial block exact.

    Two ports degenerate: nearest-port maps are monotone in the previous
    port (the targets ``gap + positions[k]`` increase with ``k``), so
    the crossing map ``{0 -> 1, 1 -> 0}`` cannot occur and every map is
    a constant or the identity. Composition then reduces to "the most
    recent constant", one ``maximum.accumulate`` forward fill.
    """
    n = enc.size
    if p == 2:
        # Packed values: 0 = const-0, 3 = const-1, 2 = identity.
        last_reset = np.maximum.accumulate(
            np.where(enc != 2, np.arange(n, dtype=np.intp), 0)
        )
        return enc[last_reset] & 1
    total = p ** p
    table = _composition_table(p)
    evaluate = _evaluation_table(p)
    powers = p ** np.arange(p, dtype=np.int64)
    identity = int((np.arange(p, dtype=np.int64) * powers).sum())
    block = _block_length(n)
    blocks = -(-n // block)
    padded = np.full(blocks * block, identity, dtype=np.int64)
    padded[:n] = enc
    cols = padded.reshape(blocks, block).T
    scaled = cols * total  # composition indices, one pass for all rounds
    prefix = np.empty((block, blocks), dtype=np.int64)
    prefix[0] = cols[0]
    for i in range(1, block):
        prefix[i] = table[scaled[i] + prefix[i - 1]]
    carry = prefix[-1].copy()  # inclusive per-block totals
    span = 1
    while span < blocks:
        carry[span:] = table[carry[span:] * total + carry[:-span]]
        span *= 2
    entry = np.empty(blocks, dtype=np.int64)
    # Block 0 starts at the global first access — a constant map, so its
    # entry state is arbitrary; later entries are the composed prefix of
    # all earlier blocks (constant for the same reason) evaluated at 0.
    entry[0] = 0
    entry[1:] = evaluate[carry[:-1] * p]
    chosen = evaluate[prefix * p + entry[None, :]]
    return np.ascontiguousarray(chosen.T).ravel()[:n]


#: Deepest run of consecutive constant-free blocks the collapse scan
#: repairs with cheap serial passes before switching to the doubling
#: fallback over explicit block summaries.
_COLLAPSE_DEPTH_MAX = 64


def _scan_collapse(
    const_val: np.ndarray, rows: np.ndarray, p: int
) -> np.ndarray:
    """Constant-collapse scan over wide-port ``(const, rows)`` map streams.

    Any composition ending in a constant map *is* that constant, so the
    prefix state at access ``i`` collapses to a scalar at the most
    recent constant map and stays scalar through the explicit rows that
    follow. The scan therefore never composes maps at all — it *chases
    states*: split the stream into :func:`_block_length` blocks and run
    one vectorized chase step per in-block position over every block at
    once (a constant overwrites the state, an explicit row gathers it),
    tracking O(blocks) scalars instead of O(blocks * p) map rows.

    A provisional chase from entry state 0 is exact from each block's
    last constant onward, so its block-end states are exact wherever a
    block contains a constant. The rare constant-free blocks get their
    explicit ``p``-row summary composed directly, then a
    ``maximum.accumulate`` forward fill of the exact states (the any-p
    generalization of the packed path's p=2 degenerate case) repairs
    them in ``depth`` passes — bounded by the longest constant-free run,
    with a doubling scan over summary rows as the adversarial-input
    fallback. A final chase with true entry states is needed only when
    some entry is nonzero. Element 0 must be a constant (reset) map.
    """
    n = const_val.size
    block = _block_length(n)
    blocks = -(-n // block)
    pad = blocks * block - n
    if pad:
        const_val = np.concatenate(
            [const_val, np.full(pad, -1, const_val.dtype)]
        )
        rows = np.concatenate(
            [rows, np.tile(np.arange(p, dtype=rows.dtype), (pad, 1))]
        )
    # Transpose so chase step i touches contiguous per-block lanes.
    cvT = np.ascontiguousarray(const_val.reshape(blocks, block).T)
    rT = np.ascontiguousarray(
        rows.reshape(blocks, block, p).transpose(1, 0, 2)
    )
    base = np.arange(blocks, dtype=np.intp) * p

    def chase(entry: np.ndarray) -> np.ndarray:
        out = np.empty((block, blocks), dtype=cvT.dtype)
        cur = entry
        for i in range(block):
            c = cvT[i]
            nxt = rT[i].ravel()[base + cur]
            cur = np.where(c >= 0, c, nxt)
            out[i] = cur
        return out

    provisional = chase(np.zeros(blocks, dtype=np.intp))
    state_after = provisional[-1].astype(np.intp)
    has_const = cvT.max(axis=0) >= 0
    no_const = np.flatnonzero(~has_const)
    if no_const.size:
        # Constant-free blocks need their full map: compose their rows.
        sub = rows.reshape(blocks, block, p)[no_const]
        summary = sub[:, 0, :].astype(np.intp)
        for i in range(1, block):
            summary = np.take_along_axis(
                sub[:, i, :].astype(np.intp), summary, axis=1
            )
        idx = np.arange(blocks)
        last_exact = np.maximum.accumulate(np.where(has_const, idx, -1))
        depth = idx - last_exact  # >= 1 exactly on constant-free blocks
        max_depth = int(depth[no_const].max())
        if max_depth <= _COLLAPSE_DEPTH_MAX:
            compact = np.full(blocks, -1, dtype=np.intp)
            compact[no_const] = np.arange(no_const.size)
            for d in range(1, max_depth + 1):
                sel = no_const[depth[no_const] == d]
                if not sel.size:
                    break
                prev = np.where(
                    sel > 0, state_after[np.maximum(sel - 1, 0)], 0
                )
                state_after[sel] = summary[compact[sel], prev]
        else:
            # Adversarial streams (long constant-free runs): doubling
            # over explicit block summaries, exact blocks as constants.
            S = np.empty((blocks, p), dtype=np.intp)
            S[has_const] = state_after[has_const][:, None]
            S[no_const] = summary
            span = 1
            while span < blocks:
                S[span:] = np.take_along_axis(S[span:], S[:-span], axis=1)
                span *= 2
            state_after = S[:, 0]
    entry = np.empty(blocks, dtype=np.intp)
    entry[0] = 0
    entry[1:] = state_after[:-1]
    # The provisional chase already assumed entry 0 everywhere; redo the
    # in-block resolution only if some true entry state differs.
    chosen = provisional if not entry.any() else chase(entry)
    return np.ascontiguousarray(chosen.T).ravel()[:n].astype(np.intp)
