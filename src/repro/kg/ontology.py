"""Ontology specification for synthetic knowledge graphs.

The original paper evaluates on WN18RR / FB15k-237 / NELL-995 derived
benchmarks plus a NELL schema graph.  Those files cannot be downloaded in
this offline environment, so we generate KGs from an explicit ontology:

* a concept (entity-type) hierarchy with ``rdfs:subClassOf`` links,
* typed relation signatures (``rdfs:domain`` / ``rdfs:range``),
* a relation hierarchy (``rdfs:subPropertyOf``),
* planted logical rules — compositions ``r3(x,z) <- r1(x,y) & r2(y,z)``,
  inverses and symmetric relations.

The rules are what make *inductive* completion possible: they are
entity-independent regularities a subgraph-reasoning model can pick up on a
training graph and re-apply on a testing graph over disjoint entities —
exactly the signal RMPI/GraIL-style models exploit.  Relations designated as
"extension" relations only ever appear in testing graphs, giving the
fully-inductive unseen-relation setting; their rule bodies use core
relations, mirroring the paper's ``spouse_of <- husband_of`` example.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.utils.seeding import seeded_rng


@dataclass(frozen=True)
class RelationSignature:
    """Typing of a relation: its domain and range concept ids."""

    relation: int
    domain: int
    range: int


@dataclass(frozen=True)
class CompositionRule:
    """``head(x, z) <- body1(x, y) & body2(y, z)``."""

    head: int
    body1: int
    body2: int


@dataclass(frozen=True)
class InverseRule:
    """``inverse(y, x) <- relation(x, y)``."""

    relation: int
    inverse: int


@dataclass
class Ontology:
    """A self-contained generative ontology.

    Attributes
    ----------
    num_concepts:
        Concept ids are ``0..num_concepts-1``; concept 0 is the root.
    concept_parent:
        ``concept_parent[c]`` is the ``rdfs:subClassOf`` parent (root maps to
        itself).
    num_relations:
        Relation ids are ``0..num_relations-1``.
    signatures:
        Per-relation domain/range typing.
    subproperty:
        ``child -> parent`` relation pairs (``rdfs:subPropertyOf``).
    compositions / inverses / symmetric:
        The planted rule set.
    """

    num_concepts: int
    concept_parent: List[int]
    num_relations: int
    signatures: List[RelationSignature]
    subproperty: Dict[int, int] = field(default_factory=dict)
    compositions: List[CompositionRule] = field(default_factory=list)
    inverses: List[InverseRule] = field(default_factory=list)
    symmetric: Set[int] = field(default_factory=set)

    def __post_init__(self) -> None:
        if len(self.concept_parent) != self.num_concepts:
            raise ValueError("concept_parent length mismatch")
        if len(self.signatures) != self.num_relations:
            raise ValueError("signatures length mismatch")
        for sig in self.signatures:
            if not (0 <= sig.domain < self.num_concepts and 0 <= sig.range < self.num_concepts):
                raise ValueError(f"signature {sig} references unknown concept")

    # ------------------------------------------------------------------
    def leaf_concepts(self) -> List[int]:
        """Concepts that are nobody's parent (entities are typed by these)."""
        parents = set(self.concept_parent)
        return [c for c in range(self.num_concepts) if c not in parents or c == 0 and self.num_concepts == 1]

    def restricted_rules(self, relations: Set[int]) -> "Ontology":
        """A view keeping only rules fully contained in ``relations``."""
        return Ontology(
            num_concepts=self.num_concepts,
            concept_parent=list(self.concept_parent),
            num_relations=self.num_relations,
            signatures=list(self.signatures),
            subproperty={
                child: parent
                for child, parent in self.subproperty.items()
                if child in relations and parent in relations
            },
            compositions=[
                rule
                for rule in self.compositions
                if {rule.head, rule.body1, rule.body2} <= relations
            ],
            inverses=[
                rule
                for rule in self.inverses
                if {rule.relation, rule.inverse} <= relations
            ],
            symmetric={r for r in self.symmetric if r in relations},
        )


def build_ontology(
    num_relations: int,
    num_concepts: int = 12,
    num_extension_relations: int = 0,
    seed: int = 0,
    composition_fraction: float = 0.45,
    inverse_fraction: float = 0.15,
    symmetric_fraction: float = 0.1,
    subproperty_fraction: float = 0.2,
) -> Ontology:
    """Sample a random-but-reproducible ontology.

    ``num_extension_relations`` of the total are "extension" relations —
    the tail of the id space, reserved for testing graphs (unseen
    relations).  Every extension relation is given at least one rule whose
    body uses core relations, so its meaning is recoverable from structure.
    """
    if num_extension_relations >= num_relations:
        raise ValueError("extension relations must be a strict subset")
    rng = seeded_rng(seed)

    # Concept hierarchy: a root, a layer of branches, a layer of leaves.
    num_branches = max(2, num_concepts // 4)
    concept_parent = [0]  # root points at itself
    for _ in range(num_branches):
        concept_parent.append(0)
    while len(concept_parent) < num_concepts:
        concept_parent.append(int(rng.integers(1, num_branches + 1)))
    leaves = [c for c in range(num_concepts) if c not in set(concept_parent[1:]) and c != 0]
    if not leaves:
        leaves = list(range(1, num_concepts))

    num_core = num_relations - num_extension_relations
    signatures: List[RelationSignature] = []
    for rel in range(num_relations):
        domain = int(leaves[rng.integers(len(leaves))])
        range_ = int(leaves[rng.integers(len(leaves))])
        signatures.append(RelationSignature(rel, domain, range_))

    compositions: List[CompositionRule] = []
    inverses: List[InverseRule] = []
    symmetric: Set[int] = set()
    subproperty: Dict[int, int] = {}

    def make_composition(head: int, pool: Sequence[int]) -> Optional[CompositionRule]:
        """Pick a type-consistent body for ``head`` by adjusting signatures."""
        if len(pool) < 2:
            return None
        body1 = int(pool[rng.integers(len(pool))])
        body2 = int(pool[rng.integers(len(pool))])
        if body1 == head or body2 == head:
            return None
        # Force type consistency: range(body1) == domain(body2);
        # head spans domain(body1) -> range(body2).
        sig1, sig2 = signatures[body1], signatures[body2]
        bridged = RelationSignature(body2, sig1.range, sig2.range)
        signatures[body2] = bridged
        signatures[head] = RelationSignature(head, sig1.domain, bridged.range)
        return CompositionRule(head, body1, body2)

    core_pool = list(range(num_core))

    # Rules among core relations.
    num_core_compositions = max(1, int(composition_fraction * num_core))
    for _ in range(num_core_compositions):
        head = int(core_pool[rng.integers(len(core_pool))])
        rule = make_composition(head, core_pool)
        if rule is not None:
            compositions.append(rule)

    num_inverse = int(inverse_fraction * num_core / 2)
    for _ in range(num_inverse):
        a = int(rng.integers(num_core))
        b = int(rng.integers(num_core))
        if a == b:
            continue
        sig_a = signatures[a]
        signatures[b] = RelationSignature(b, sig_a.range, sig_a.domain)
        inverses.append(InverseRule(a, b))

    for rel in range(num_core):
        if rng.random() < symmetric_fraction:
            sig = signatures[rel]
            signatures[rel] = RelationSignature(rel, sig.domain, sig.domain)
            symmetric.add(rel)

    num_subprop = int(subproperty_fraction * num_core)
    for _ in range(num_subprop):
        child = int(rng.integers(num_core))
        parent = int(rng.integers(num_core))
        if child == parent or child in subproperty:
            continue
        signatures[parent] = RelationSignature(
            parent, signatures[child].domain, signatures[child].range
        )
        subproperty[child] = parent

    # Every extension relation gets a defining rule over core relations so
    # that its role is inferable from seen structure.
    for rel in range(num_core, num_relations):
        choice = rng.random()
        if choice < 0.6:
            rule = make_composition(rel, core_pool)
            if rule is not None:
                compositions.append(rule)
                continue
        if choice < 0.8 and num_core >= 1:
            base = int(rng.integers(num_core))
            sig = signatures[base]
            signatures[rel] = RelationSignature(rel, sig.range, sig.domain)
            inverses.append(InverseRule(base, rel))
            continue
        # Fallback: make it a subproperty parent of a core relation.
        child = int(rng.integers(num_core))
        if child not in subproperty:
            signatures[rel] = RelationSignature(rel, signatures[child].domain, signatures[child].range)
            subproperty[child] = rel
        else:
            rule = make_composition(rel, core_pool)
            if rule is not None:
                compositions.append(rule)

    return Ontology(
        num_concepts=num_concepts,
        concept_parent=concept_parent,
        num_relations=num_relations,
        signatures=signatures,
        subproperty=subproperty,
        compositions=compositions,
        inverses=inverses,
        symmetric=symmetric,
    )
