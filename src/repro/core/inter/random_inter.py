"""Uniformly random inter-DBC partitioning (RW building block)."""

from __future__ import annotations

import numpy as np

from repro.core.placement import check_room
from repro.trace.sequence import AccessSequence
from repro.util.rng import ensure_rng


def random_partition(
    sequence: AccessSequence,
    num_dbcs: int,
    capacity: int,
    rng: int | np.random.Generator | None = None,
) -> list[list[str]]:
    """Assign each variable to a uniformly random non-full DBC.

    Variables are processed in a random order and each picks uniformly
    among DBCs with free locations, so both the partition and the
    resulting intra-DBC insertion orders are random.
    """
    check_room(sequence.num_variables, num_dbcs, capacity)
    gen = ensure_rng(rng)
    variables = list(sequence.variables)
    gen.shuffle(variables)
    dbcs: list[list[str]] = [[] for _ in range(num_dbcs)]
    open_dbcs = list(range(num_dbcs))
    for v in variables:
        pick = int(gen.integers(0, len(open_dbcs)))
        dbc_index = open_dbcs[pick]
        dbcs[dbc_index].append(v)
        if len(dbcs[dbc_index]) >= capacity:
            open_dbcs.pop(pick)
    return dbcs


def random_partition_arrays(
    num_variables: int,
    num_dbcs: int,
    capacity: int,
    count: int,
    rng: int | np.random.Generator | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """``count`` placements drawn as :func:`random_partition` draws one.

    Returns ``(dbc_of, pos_of)``: ``(count, num_variables)`` int64
    matrices giving each row's DBC and slot per variable code, the
    candidate shape :func:`repro.engine.evaluate_batch` scores.

    Picking a uniform *open* DBC is the same as drawing uniform DBC
    labels and skipping the labels of full DBCs. So each row is a stream
    of uniform labels, of which a label is kept while fewer than
    ``capacity`` earlier labels name its DBC; the t-th kept label goes
    to the t-th variable of a uniform random order, at a slot equal to
    the number of earlier labels naming its DBC. A row with too few kept
    labels gets more labels appended to its stream, never a new stream:
    redrawing would favour rows that filled fast and bias the DBC sizes.
    While ``num_variables <= capacity`` no label is ever skipped.
    """
    check_room(num_variables, num_dbcs, capacity)
    gen = ensure_rng(rng)
    n = num_variables
    # Per row, the DBC and slot of each placement step, in step order.
    step_dbc = np.empty((count, n), dtype=np.int64)
    step_slot = np.empty((count, n), dtype=np.int64)
    rows = np.arange(count)
    labels = gen.integers(0, num_dbcs, size=(count, n))
    while rows.size:
        ranks = group_ranks(labels, np.arange(labels.shape[1]))
        kept = ranks < capacity
        kept_per_row = kept.sum(axis=1)
        done = kept_per_row >= n
        finished = rows[done]
        first = kept[done] & (np.cumsum(kept[done], axis=1) <= n)
        step_dbc[finished] = labels[done][first].reshape(finished.size, n)
        step_slot[finished] = ranks[done][first].reshape(finished.size, n)
        rows, labels = rows[~done], labels[~done]
        if rows.size:
            more = n - int(kept_per_row[~done].min())
            labels = np.concatenate(
                [labels, gen.integers(0, num_dbcs, size=(rows.size, more))],
                axis=1,
            )
    # Variable v takes step order[v]: a uniform order of the variables.
    order = gen.permuted(np.broadcast_to(np.arange(n), (count, n)), axis=1)
    return (np.take_along_axis(step_dbc, order, axis=1),
            np.take_along_axis(step_slot, order, axis=1))


def group_ranks(labels: np.ndarray, key: np.ndarray) -> np.ndarray:
    """Per row, each entry's rank by ``key`` among the row's entries
    holding the same label.

    ``key`` broadcasts against the ``(K, W)`` ``labels``; its values are
    non-negative and distinct among the entries of one label in a row.
    With the column index as key, an entry's rank counts the earlier
    entries holding its label; with labels the DBCs of a population, it
    is each variable's dense slot in key order.
    """
    rows = np.arange(labels.shape[0])[:, None]
    order = np.argsort(labels * (int(np.max(key, initial=0)) + 1) + key, axis=1)
    grouped = labels[rows, order]
    cols = np.arange(labels.shape[1])
    starts = np.zeros_like(grouped)
    np.copyto(starts[:, 1:], cols[1:], where=grouped[:, 1:] != grouped[:, :-1])
    ranks = np.empty_like(labels)
    ranks[rows, order] = cols - np.maximum.accumulate(starts, axis=1)
    return ranks
