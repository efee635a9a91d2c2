"""Relational message passing layers (paper §III-C, eqs. 6–9).

One layer aggregates, for every destination relation-node, the transformed
features of its incoming neighbors, per connection-pattern edge type
(R-GCN style, eq. 6), optionally weighted by target-relation-aware attention
(eq. 7), and combines via a residual sum (eq. 8).  The final layer uses
*equal* (unattended) aggregation for the target node (eq. 9).

The implementation is vectorised: the whole node-feature matrix ``H`` is
updated at once.  Destinations outside the layer's update set simply have
no incoming edge rows (the :class:`~repro.subgraph.pruning.MessagePlan`
filtered them), so their aggregate is zero and the residual leaves them
unchanged — realising Algorithm 1's shrinking frontier without indexing
gymnastics.

The per-edge-type transforms ``W_e`` (eq. 6) live in ONE stacked
``(NUM_EDGE_TYPES, dim, dim)`` parameter and are applied by
:func:`repro.autograd.ops.typed_matmul` — a single sort-by-type batched
matmul with a fused backward, replacing the original mask/matmul/concat/
reorder loop (kept as the ``legacy_typed_matmul`` oracle in
``tests/oracles/kernels.py``).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.autograd import Module, Parameter, Tensor
from repro.autograd import ops
from repro.autograd.init import xavier_uniform
from repro.autograd.segment import gather, segment_count, segment_softmax, segment_sum
from repro.subgraph.linegraph import NUM_EDGE_TYPES


class RelationalMessagePassingLayer(Module):
    """One layer of edge-type-aware relational message passing."""

    def __init__(self, dim: int, rng: np.random.Generator) -> None:
        super().__init__()
        self.dim = dim
        # One transform W_e per connection-pattern type (eq. 6), stacked
        # into a single (T, dim, dim) parameter for the fused typed matmul.
        # Per-slice Xavier draws keep the rng stream (and init statistics)
        # identical to the historical per-type parameters.
        self.weight = Parameter(
            np.stack(
                [xavier_uniform((dim, dim), rng) for _ in range(NUM_EDGE_TYPES)]
            ),
            name="W_types",
        )

    def forward(
        self,
        features: Tensor,
        edges: np.ndarray,
        target_index: int,
        use_attention: bool,
        is_last: bool,
        edge_keep: Optional[np.ndarray] = None,
        attention_kind: str = "dot",
        edge_targets: Optional[np.ndarray] = None,
    ) -> Tensor:
        """Run one message passing step.

        Parameters
        ----------
        features:
            ``(num_nodes, dim)`` node feature matrix ``h^{k-1}``.
        edges:
            ``(m, 3)`` rows of ``(src, edge_type, dst)`` — already filtered
            to this layer's update frontier by the message plan.
        target_index:
            Row of the target relation node (attention query).
        use_attention:
            Apply eq. 7 attention; otherwise use mean aggregation.
        is_last:
            Final layer: equal (sum) aggregation per eq. 9.
        edge_keep:
            Optional boolean mask implementing edge dropout (precomputed by
            the model so train/eval behaviour is explicit).
        attention_kind:
            'dot' (paper eq. 7) or 'scaled_dot' (1/sqrt(dim)-scaled logits).
        edge_targets:
            Optional per-edge target-node indices (disjoint-union batched
            scoring): each edge's attention query is its own sample's
            target instead of the single ``target_index``.

        Returns the updated feature matrix ``h^k`` (residual included).
        """
        if len(edges) == 0:
            return features
        if edge_keep is not None:
            edges = edges[edge_keep]
            if edge_targets is not None:
                edge_targets = edge_targets[edge_keep]
            if len(edges) == 0:
                return features

        num_nodes = features.shape[0]
        src, etype, dst = edges[:, 0], edges[:, 1], edges[:, 2]

        # One gather + one typed matmul over type-grouped edges.
        # Adopting the sorted order up front (a no-op for batched plans,
        # which arrive pre-sorted from merge_plans) lets typed_matmul skip
        # its scatter-back permutation entirely.
        if len(etype) > 1 and np.any(etype[1:] < etype[:-1]):
            order = np.argsort(etype, kind="stable")
            src, etype, dst = src[order], etype[order], dst[order]
            if edge_targets is not None:
                edge_targets = edge_targets[order]
        h_src = gather(features, src)
        messages = ops.typed_matmul(h_src, self.weight, etype)

        if is_last:
            # Eq. 9: equal aggregation — plain sum of transformed neighbors.
            aggregated = segment_sum(messages, dst, num_nodes)
        else:
            # Attention groups: neighbors of the same destination under the
            # same edge type (the N^e_ri of eq. 7).
            groups = dst * NUM_EDGE_TYPES + etype
            num_groups = num_nodes * NUM_EDGE_TYPES
            if use_attention:
                if edge_targets is not None:
                    target_row = gather(features, edge_targets)
                else:
                    target_row = gather(features, np.asarray([target_index]))
                # Dot-product similarity with the target's previous-layer
                # representation, passed through LeakyReLU (eq. 7).
                logits = ops.sum(ops.mul(h_src, target_row), axis=1)
                if attention_kind == "scaled_dot":
                    logits = ops.mul(logits, 1.0 / np.sqrt(self.dim))
                logits = ops.leaky_relu(logits, negative_slope=0.2)
                alpha = segment_softmax(logits, groups, num_groups)
                weights = ops.reshape(alpha, (len(dst), 1))
            else:
                counts = segment_count(groups, num_groups).astype(
                    features.data.dtype
                )
                inv = 1.0 / np.maximum(counts[groups], 1.0)
                weights = Tensor(inv.reshape(-1, 1))
            aggregated = segment_sum(ops.mul(messages, weights), dst, num_nodes)

        # σ1 = ReLU on the aggregate (eq. 6), residual combine (eqs. 8/9).
        return ops.add(ops.relu(aggregated), features)
