"""Indexed multi-relational graph.

:class:`KnowledgeGraph` wraps a :class:`~repro.kg.triples.TripleSet` with the
adjacency indices that subgraph extraction needs: a lazily-built CSR
adjacency over the *undirected* skeleton (the paper collects both incoming
and outgoing neighbors, §III-B), vectorized K-hop breadth-first search, and
vectorized induced-edge lookup.

The CSR index is three numpy arrays:

* ``indptr``   — ``(num_entities + 1,)`` slice boundaries per entity;
* ``indices``  — neighbor entity id per adjacency entry;
* ``edge_ids`` — index into ``triples.array`` per adjacency entry.

Every edge ``(h, r, t)`` contributes the entries ``h -> t`` and (when
``h != t``) ``t -> h``; per entity, entries are sorted by edge id, which
matches the order the old pure-Python incident lists were built in.  The
same pass flags the entities that carry a self-loop
(:meth:`KnowledgeGraph.self_loop_mask`), which enclosing extraction needs
to decide empty subgraphs early.

K-hop frontiers are additionally memoised in a bounded
:class:`NeighborhoodCache` (LRU, keyed on ``(entity, num_hops)``): the
evaluation protocol scores ~50 candidate triples per ranking query that all
share the uncorrupted head or tail, so consecutive extractions hit the same
per-entity neighborhoods over and over.  The cache size knob is the
``neighborhood_cache_size`` constructor argument
(default :data:`DEFAULT_NEIGHBORHOOD_CACHE_SIZE`); size 0 disables caching.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.kg.triples import Triple, TripleSet
from repro.kg.vocab import Vocabulary

#: Default bound on the per-graph ``(entity, num_hops) -> frontier`` cache.
#: Each entry is one sorted int64 array of K-hop neighbor ids.
DEFAULT_NEIGHBORHOOD_CACHE_SIZE = 4096

#: Default bound on the total int64 elements held across all cached
#: frontiers (4M elements = 32 MB per graph).  On large graphs a single
#: frontier can cover most of the entity set, so an entry-count bound alone
#: would not bound memory.
DEFAULT_NEIGHBORHOOD_CACHE_ELEMENTS = 4_194_304

_EMPTY_IDS = np.empty(0, dtype=np.int64)
_EMPTY_IDS.setflags(write=False)


class NeighborhoodCache:
    """A bounded LRU cache of K-hop neighborhood frontiers.

    Maps ``(entity, num_hops)`` to the sorted int64 array of entities within
    ``num_hops`` undirected hops (source included).  Bounded both by entry
    count (``maxsize``) and by total cached elements (``max_elements``), so
    memory stays predictable on graphs whose frontiers cover most of the
    entity set.  Cached arrays are marked read-only; callers must not mutate
    them.  ``hits`` / ``misses`` counters make cache effectiveness
    observable in benchmarks.
    """

    def __init__(
        self,
        maxsize: int = DEFAULT_NEIGHBORHOOD_CACHE_SIZE,
        max_elements: int = DEFAULT_NEIGHBORHOOD_CACHE_ELEMENTS,
    ) -> None:
        self.maxsize = int(maxsize)
        self.max_elements = int(max_elements)
        self.hits = 0
        self.misses = 0
        self._elements = 0
        self._store: "OrderedDict[Tuple[int, int], np.ndarray]" = OrderedDict()

    def get(self, key: Tuple[int, int]) -> Optional[np.ndarray]:
        value = self._store.get(key)
        if value is None:
            self.misses += 1
            return None
        self._store.move_to_end(key)
        self.hits += 1
        return value

    def put(self, key: Tuple[int, int], value: np.ndarray) -> None:
        if self.maxsize <= 0:
            return
        previous = self._store.pop(key, None)
        if previous is not None:
            self._elements -= previous.size
        self._store[key] = value
        self._elements += value.size
        while self._store and (
            len(self._store) > self.maxsize or self._elements > self.max_elements
        ):
            _, evicted = self._store.popitem(last=False)
            self._elements -= evicted.size

    def clear(self) -> None:
        self._store.clear()
        self._elements = 0
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._store)


class KnowledgeGraph:
    """A KG ``G = (E, R, T)`` with integer ids and adjacency indices.

    Parameters
    ----------
    triples:
        The fact set.
    num_entities / num_relations:
        Sizes of the id spaces.  They may exceed the ids present in
        ``triples`` (e.g. a testing graph that shares the training relation
        vocabulary).
    entity_vocab / relation_vocab:
        Optional string vocabularies for reporting.
    neighborhood_cache_size:
        Bound on the per-graph K-hop frontier LRU cache (0 disables it).
    """

    def __init__(
        self,
        triples: TripleSet,
        num_entities: int,
        num_relations: int,
        entity_vocab: Optional[Vocabulary] = None,
        relation_vocab: Optional[Vocabulary] = None,
        neighborhood_cache_size: int = DEFAULT_NEIGHBORHOOD_CACHE_SIZE,
    ) -> None:
        if len(triples) > 0:
            if int(triples.heads.min()) < 0 or int(triples.tails.min()) < 0:
                raise ValueError("entity id out of range")
            if int(triples.heads.max()) >= num_entities or int(triples.tails.max()) >= num_entities:
                raise ValueError("entity id out of range")
            if int(triples.relations.min()) < 0:
                raise ValueError("relation id out of range")
            if int(triples.relations.max()) >= num_relations:
                raise ValueError("relation id out of range")
        self.triples = triples
        self.num_entities = int(num_entities)
        self.num_relations = int(num_relations)
        self.entity_vocab = entity_vocab
        self.relation_vocab = relation_vocab
        self.neighborhood_cache = NeighborhoodCache(neighborhood_cache_size)
        # CSR adjacency over the undirected skeleton, built on first use.
        self._csr_indptr: Optional[np.ndarray] = None
        self._csr_indices: Optional[np.ndarray] = None
        self._csr_edge_ids: Optional[np.ndarray] = None
        # Per-entity "has a self-loop" flags, built alongside the CSR.
        self._self_loops: Optional[np.ndarray] = None
        # Reusable all-False scratch mask for induced-edge lookup (callers
        # reset the entries they set, keeping allocation out of the hot path).
        self._entity_scratch: Optional[np.ndarray] = None
        # Per-entity incident edge-id lists, materialized from the CSR on
        # first incident_edges() call so repeated lookups stay O(1).
        self._incident_lists: Optional[List[List[int]]] = None
        # Content hash, computed on first fingerprint() call.  TripleSet is
        # immutable, so the digest never goes stale for a given instance.
        self._fingerprint: Optional[str] = None

    # ------------------------------------------------------------------
    @classmethod
    def from_triples(
        cls,
        triples: Iterable[Triple],
        num_entities: Optional[int] = None,
        num_relations: Optional[int] = None,
    ) -> "KnowledgeGraph":
        """Build a graph, inferring id-space sizes from the data if omitted."""
        tset = triples if isinstance(triples, TripleSet) else TripleSet(triples)
        if num_entities is None:
            num_entities = (max(tset.entities()) + 1) if len(tset) else 0
        if num_relations is None:
            num_relations = (max(tset.relation_ids()) + 1) if len(tset) else 0
        return cls(tset, num_entities, num_relations)

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.triples)

    def __repr__(self) -> str:
        return (
            f"KnowledgeGraph(entities={self.num_entities}, "
            f"relations={self.num_relations}, triples={len(self.triples)})"
        )

    # ------------------------------------------------------------------
    def fingerprint(self) -> str:
        """Stable hash of the graph (id-space sizes + triple rows, in row
        order).

        Two graphs built from identical triple arrays share a fingerprint
        across processes; any content change — and also a mere reordering
        of the same rows — changes it.  The serving layer keys its score
        caches on this, so swapping the served graph invalidates every
        cached score automatically (row-order sensitivity only ever causes
        a spurious invalidation, never a stale hit).
        """
        if self._fingerprint is None:
            digest = hashlib.sha1()
            digest.update(f"{self.num_entities}:{self.num_relations}:".encode())
            array = np.ascontiguousarray(self.triples.array, dtype=np.int64)
            digest.update(array.tobytes())
            self._fingerprint = digest.hexdigest()
        return self._fingerprint

    def warm(self) -> "KnowledgeGraph":
        """Eagerly build the lazy indices (CSR adjacency, fingerprint).

        Serving sessions call this once at startup so the first query does
        not pay the index-construction cost.
        """
        self._ensure_csr()
        self.fingerprint()
        return self

    # ------------------------------------------------------------------
    def _check_entity(self, entity: int) -> int:
        entity = int(entity)
        if entity < 0 or entity >= self.num_entities:
            raise ValueError(
                f"entity id {entity} out of range [0, {self.num_entities})"
            )
        return entity

    def _ensure_csr(self) -> None:
        if self._csr_indptr is not None:
            return
        array = self.triples.array
        num_edges = len(array)
        heads = array[:, 0]
        tails = array[:, 2]
        edge_range = np.arange(num_edges, dtype=np.int64)
        non_self = heads != tails
        src = np.concatenate([heads, tails[non_self]])
        eid = np.concatenate([edge_range, edge_range[non_self]])
        dst = np.concatenate([tails, heads[non_self]])
        order = np.lexsort((eid, src))
        src = src[order]
        self._csr_indices = dst[order]
        self._csr_edge_ids = eid[order]
        indptr = np.zeros(self.num_entities + 1, dtype=np.int64)
        if len(src):
            np.cumsum(np.bincount(src, minlength=self.num_entities), out=indptr[1:])
        self_loops = np.zeros(self.num_entities, dtype=bool)
        self_loops[heads[~non_self]] = True
        self_loops.setflags(write=False)
        self._self_loops = self_loops
        self._csr_indptr = indptr

    def _gather_csr(self, entities: np.ndarray, values: np.ndarray) -> np.ndarray:
        """Concatenate ``values[indptr[e]:indptr[e+1]]`` over ``entities``."""
        indptr = self._csr_indptr
        starts = indptr[entities]
        counts = indptr[entities + 1] - starts
        total = int(counts.sum())
        if total == 0:
            return _EMPTY_IDS
        ends = np.cumsum(counts)
        flat = np.arange(total, dtype=np.int64) + np.repeat(starts - (ends - counts), counts)
        return values[flat]

    # ------------------------------------------------------------------
    def incident_edges(self, entity: int) -> List[int]:
        """Indices into ``triples.array`` of edges touching ``entity``.

        Raises ``ValueError`` for ids outside ``[0, num_entities)``.
        """
        entity = self._check_entity(entity)
        if self._incident_lists is None:
            self._ensure_csr()
            indptr = self._csr_indptr
            edge_ids = self._csr_edge_ids
            self._incident_lists = [
                edge_ids[indptr[i] : indptr[i + 1]].tolist()
                for i in range(self.num_entities)
            ]
        return self._incident_lists[entity]

    def incident_edge_id_arrays(
        self, entities: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Batched :meth:`incident_edges`: ``(edge_ids, counts)``.

        ``edge_ids`` concatenates the CSR rows of ``entities`` in input
        order; the ``counts[i]`` entries for ``entities[i]`` are sorted by
        edge id, and a self-loop appears once in its entity's row.  Ids
        outside ``[0, num_entities)`` raise the same ``ValueError`` as
        :meth:`incident_edges`, naming the first offender.
        """
        entities = np.asarray(entities, dtype=np.int64).reshape(-1)
        bad = (entities < 0) | (entities >= self.num_entities)
        if bad.any():
            self._check_entity(int(entities[int(np.argmax(bad))]))
        self._ensure_csr()
        indptr = self._csr_indptr
        counts = indptr[entities + 1] - indptr[entities]
        return self._gather_csr(entities, self._csr_edge_ids), counts

    def degree(self, entity: int) -> int:
        entity = self._check_entity(entity)
        self._ensure_csr()
        return int(self._csr_indptr[entity + 1] - self._csr_indptr[entity])

    def self_loop_mask(self) -> np.ndarray:
        """Read-only bool array: ``mask[e]`` is True when some edge
        ``(e, r, e)`` exists."""
        self._ensure_csr()
        return self._self_loops

    def edge(self, edge_index: int) -> Triple:
        return self.triples[edge_index]

    # ------------------------------------------------------------------
    def khop_distance_arrays(
        self,
        source: int,
        max_hops: int,
        forbidden: Optional[Set[int]] = None,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Vectorized BFS: ``(nodes, dists)`` sorted by entity id.

        Boolean-mask frontier expansion over the CSR arrays; semantics match
        :meth:`khop_distances` (``forbidden`` entities are recorded when
        reached but never expanded through; the source always expands).
        """
        source = self._check_entity(source)
        self._ensure_csr()
        dist = np.full(self.num_entities, -1, dtype=np.int64)
        dist[source] = 0
        frontier = np.asarray([source], dtype=np.int64)
        forbidden_mask: Optional[np.ndarray] = None
        if forbidden:
            forbidden_mask = np.zeros(self.num_entities, dtype=bool)
            # Ids outside the entity range can never be reached by the BFS;
            # drop them so they stay the no-op they always were (negative
            # ids must not wrap around under numpy indexing).
            ids = np.fromiter(forbidden, dtype=np.int64)
            forbidden_mask[ids[(ids >= 0) & (ids < self.num_entities)]] = True
        for depth in range(1, max_hops + 1):
            if frontier.size == 0:
                break
            neighbors = self._gather_csr(frontier, self._csr_indices)
            neighbors = neighbors[dist[neighbors] < 0]
            if neighbors.size == 0:
                break
            neighbors = np.unique(neighbors)
            dist[neighbors] = depth
            if forbidden_mask is not None:
                neighbors = neighbors[~forbidden_mask[neighbors]]
            frontier = neighbors
        nodes = np.flatnonzero(dist >= 0)
        return nodes, dist[nodes]

    def khop_distances(
        self,
        source: int,
        max_hops: int,
        forbidden: Optional[Set[int]] = None,
    ) -> Dict[int, int]:
        """Shortest undirected distances from ``source`` up to ``max_hops``.

        ``forbidden`` entities are never expanded *through* (they are not
        enqueued), implementing the paper's "without counting any path
        through v" rule used by GraIL's double-radius labeling.
        The source itself is always reported at distance 0.
        """
        nodes, dists = self.khop_distance_arrays(source, max_hops, forbidden)
        return dict(zip(nodes.tolist(), dists.tolist()))

    def khop_neighbors(self, source: int, max_hops: int) -> Set[int]:
        """Entities within ``max_hops`` undirected hops of ``source``
        (paper's N^K, source included)."""
        return set(self.khop_nodes(source, max_hops).tolist())

    def khop_nodes(self, source: int, max_hops: int) -> np.ndarray:
        """Sorted int64 array of entities within ``max_hops`` of ``source``.

        Memoised in :attr:`neighborhood_cache`; the returned array is
        read-only and shared — do not mutate it.
        """
        key = (int(source), int(max_hops))
        cached = self.neighborhood_cache.get(key)
        if cached is None:
            cached, _ = self.khop_distance_arrays(source, max_hops)
            cached.setflags(write=False)
            self.neighborhood_cache.put(key, cached)
        return cached

    # ------------------------------------------------------------------
    def induced_edge_id_array(self, nodes: np.ndarray) -> np.ndarray:
        """Sorted edge ids with head AND tail in ``nodes`` (sorted, valid)."""
        self._ensure_csr()
        nodes = np.asarray(nodes, dtype=np.int64)
        if nodes.size == 0:
            return _EMPTY_IDS
        if self._entity_scratch is None:
            self._entity_scratch = np.zeros(self.num_entities, dtype=bool)
        mask = self._entity_scratch
        mask[nodes] = True
        candidates = self._gather_csr(nodes, self._csr_edge_ids)
        if candidates.size == 0:
            mask[nodes] = False
            return _EMPTY_IDS
        candidates.sort()
        if candidates.size > 1:
            # Drop the duplicate entry each non-self-loop edge contributes.
            candidates = candidates[
                np.concatenate(([True], candidates[1:] != candidates[:-1]))
            ]
        array = self.triples.array
        keep = mask[array[candidates, 0]] & mask[array[candidates, 2]]
        mask[nodes] = False
        return candidates[keep]

    def induced_edge_indices(self, entities: Set[int]) -> List[int]:
        """Indices of edges whose head AND tail are both in ``entities``.

        Every id must lie in ``[0, num_entities)``; out-of-range ids raise
        ``ValueError`` (consistently with :meth:`incident_edges`).
        """
        if not entities:
            return []
        ids = np.fromiter((int(e) for e in entities), dtype=np.int64)
        if ids.size and (int(ids.min()) < 0 or int(ids.max()) >= self.num_entities):
            bad = int(ids.min()) if int(ids.min()) < 0 else int(ids.max())
            raise ValueError(
                f"entity id {bad} out of range [0, {self.num_entities})"
            )
        return self.induced_edge_id_array(np.unique(ids)).tolist()

    def induced_subgraph_triples(self, entities: Set[int]) -> TripleSet:
        return TripleSet.from_trusted_array(
            self.triples.array[self.induced_edge_indices(entities)]
        )

    # ------------------------------------------------------------------
    def relations_of(self, entity: int) -> Set[int]:
        """Relations on edges incident to ``entity``."""
        return {self.triples[i][1] for i in self.incident_edges(entity)}

    def entity_pair_relations(self, head: int, tail: int) -> Set[int]:
        """Relations r such that (head, r, tail) is a fact."""
        found: Set[int] = set()
        for edge_index in self.incident_edges(head):
            h, r, t = self.triples[edge_index]
            if h == head and t == tail:
                found.add(r)
        return found

    def statistics(self) -> Dict[str, int]:
        """Counts in the style of the paper's Table I rows."""
        return {
            "relations": len(self.triples.relation_ids()),
            "entities": len(self.triples.entities()),
            "triples": len(self.triples),
        }
