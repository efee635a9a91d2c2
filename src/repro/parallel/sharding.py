"""Deterministic contiguous sharding used by every parallel entry point.

A batch of ``n`` items split across ``k`` ranks yields ``k`` contiguous
shards whose sizes differ by at most one (the first ``n % k`` ranks get the
extra item).  Contiguity matters twice: merged results are a plain
concatenation (input order preserved with no index bookkeeping), and the
serial reference path processes items in exactly this order, which is what
makes shard-by-shard outputs directly comparable in the parity suite.

The module also owns the slim triple transport used by every op payload:
triples cross the queue as one ``(n, 3)`` int64 array (and query lists as
one flat array plus a length vector) instead of pickled tuple lists —
pickling a contiguous array is one buffer copy, not ``n`` tuple records.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple, TypeVar

import numpy as np

T = TypeVar("T")

IntTriple = Tuple[int, int, int]


def pack_triples(triples: Sequence[IntTriple]) -> np.ndarray:
    """Payload-slimmed triple transport: one ``(n, 3)`` int64 array
    instead of a pickled list of tuples."""
    if not len(triples):
        return np.empty((0, 3), dtype=np.int64)
    return np.asarray(list(triples), dtype=np.int64).reshape(-1, 3)


def unpack_triples(rows: np.ndarray) -> List[IntTriple]:
    """Inverse of :func:`pack_triples`."""
    return [(int(h), int(r), int(t)) for h, r, t in rows.tolist()]


def pack_query_lists(
    query_lists: Sequence[Sequence[IntTriple]],
) -> Tuple[np.ndarray, np.ndarray]:
    """Flatten candidate lists into ``(flat_triples, lengths)`` arrays."""
    lengths = np.asarray([len(queries) for queries in query_lists], dtype=np.int64)
    flat: List[IntTriple] = []
    for queries in query_lists:
        flat.extend(queries)
    return pack_triples(flat), lengths


def unpack_query_lists(
    flat: np.ndarray, lengths: np.ndarray
) -> List[List[IntTriple]]:
    """Inverse of :func:`pack_query_lists` (order and grouping preserved)."""
    triples = unpack_triples(flat)
    query_lists: List[List[IntTriple]] = []
    start = 0
    for length in np.asarray(lengths, dtype=np.int64).tolist():
        query_lists.append(triples[start : start + length])
        start += length
    return query_lists


def shard_sizes(num_items: int, num_shards: int) -> List[int]:
    """Balanced contiguous shard sizes (may include zeros when
    ``num_items < num_shards``)."""
    if num_shards < 1:
        raise ValueError(f"num_shards must be >= 1, got {num_shards}")
    if num_items < 0:
        raise ValueError(f"num_items must be >= 0, got {num_items}")
    base, extra = divmod(num_items, num_shards)
    return [base + (1 if rank < extra else 0) for rank in range(num_shards)]


def shard_list(items: Sequence[T], num_shards: int) -> List[List[T]]:
    """Split ``items`` into ``num_shards`` contiguous balanced shards."""
    items = list(items)
    shards: List[List[T]] = []
    start = 0
    for size in shard_sizes(len(items), num_shards):
        shards.append(items[start : start + size])
        start += size
    return shards


def merge_shards(shards: Sequence[Sequence[T]]) -> List[T]:
    """Concatenate shard outputs back into input order (inverse of
    :func:`shard_list` for order-preserving per-shard maps)."""
    merged: List[T] = []
    for shard in shards:
        merged.extend(shard)
    return merged
