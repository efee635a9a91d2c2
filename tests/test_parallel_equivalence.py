"""Serial/parallel equivalence suite for :mod:`repro.parallel`.

Every parallel entry point must reproduce its serial counterpart across
worker counts {1, 2, 4}, including odd batch sizes and shards that come
out empty (fewer items than ranks):

* sharded prepare     — identical samples, field by field;
* data-parallel step  — equivalent gradients/parameters (float-summation
  order differs across shards, so tolerance-based; workers=1 is bitwise);
* parallel evaluation — **bitwise** identical metrics (candidate drawing
  stays in the parent; per-query scoring is batch-composition-independent);
* serving pool        — fused-path scores within engine round-off, with
  the registry-snapshot guard for late registrations.

Quick deterministic cases run in tier-1 (marked ``parallel``); the
hypothesis-randomized sweeps are additionally marked ``slow`` and run in
the CI parallel-and-slow job.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from engine_tolerances import score_tolerance
from repro.core import RMPI, RMPIConfig
from repro.eval.protocol import (
    evaluate_entity_prediction,
    evaluate_triple_classification,
)
from repro.kg import KnowledgeGraph, TripleSet
from repro.parallel import (
    ParallelEvaluator,
    ShardedPreparer,
    WorkerError,
    WorkerPool,
    merge_shards,
    pack_triples,
    reduce_gradients,
    shard_list,
    shard_sizes,
)
from repro.parallel.pool import register_op
from repro.parallel.trainer import DataParallelTrainer
from repro.serve import ModelRegistry, ServingApp, ServingConfig
from repro.train import ParallelConfig, TrainingConfig
from repro.train.trainer import Trainer

pytestmark = pytest.mark.parallel


@register_op("parity.tag")
def _tag_op(state, payload):
    """Echo (context tag, payload) — exercises fork-time context capture."""
    return (state["context"]["tag"], payload)

WORKER_COUNTS = (1, 2, 4)

TRIPLES = [
    (0, 0, 1), (2, 1, 0), (1, 2, 2), (3, 4, 1), (0, 3, 3),
    (0, 3, 4), (1, 5, 5), (5, 6, 1), (2, 2, 3), (4, 1, 5),
    (3, 0, 5), (4, 5, 2),
]


def small_graph() -> KnowledgeGraph:
    return KnowledgeGraph(TripleSet(TRIPLES), num_entities=6, num_relations=7)


def make_model(dropout: float = 0.0, variant_seed: int = 0) -> RMPI:
    # dropout=0 so the only difference between serial and sharded training
    # is float summation order (dropout masks draw from per-rank streams).
    return RMPI(
        7,
        np.random.default_rng(variant_seed),
        RMPIConfig(embed_dim=8, dropout=dropout, use_disclosing=True),
    )


def capped(workers: int, max_workers: int) -> int:
    if workers > max_workers:
        pytest.skip(f"--workers caps the sweep at {max_workers}")
    return workers


def assert_samples_equal(reference, produced):
    assert len(reference) == len(produced)
    for ref, got in zip(reference, produced):
        assert ref.triple == got.triple
        assert ref.enclosing_empty == got.enclosing_empty
        assert np.array_equal(ref.plan.node_ids, got.plan.node_ids)
        assert np.array_equal(ref.plan.node_relations, got.plan.node_relations)
        assert np.array_equal(ref.plan.hops, got.plan.hops)
        assert ref.plan.target_index == got.plan.target_index
        assert len(ref.plan.layers) == len(got.plan.layers)
        for ref_layer, got_layer in zip(ref.plan.layers, got.plan.layers):
            assert np.array_equal(ref_layer.edges, got_layer.edges)
            assert np.array_equal(ref_layer.update_nodes, got_layer.update_nodes)
        if ref.disclosing_relations is None:
            assert got.disclosing_relations is None
        else:
            assert np.array_equal(ref.disclosing_relations, got.disclosing_relations)


# ----------------------------------------------------------------------
class TestSharding:
    def test_balanced_contiguous(self):
        assert shard_sizes(10, 4) == [3, 3, 2, 2]
        assert shard_sizes(3, 4) == [1, 1, 1, 0]
        assert shard_sizes(0, 2) == [0, 0]

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            shard_sizes(5, 0)
        with pytest.raises(ValueError):
            shard_sizes(-1, 2)

    @given(
        num_items=st.integers(min_value=0, max_value=64),
        num_shards=st.integers(min_value=1, max_value=9),
    )
    @settings(max_examples=50, deadline=None)
    def test_merge_inverts_shard(self, num_items, num_shards):
        items = list(range(num_items))
        shards = shard_list(items, num_shards)
        assert len(shards) == num_shards
        assert max(map(len, shards)) - min(map(len, shards)) <= 1
        assert merge_shards(shards) == items


# ----------------------------------------------------------------------
class TestWorkerPool:
    def test_rejects_zero_workers(self):
        with pytest.raises(ValueError):
            WorkerPool(0)

    def test_unknown_op(self):
        with WorkerPool(1) as pool:
            with pytest.raises(KeyError):
                pool.run("no-such-op", [None])

    def test_too_many_payloads(self):
        with WorkerPool(1) as pool:
            with pytest.raises(ValueError):
                pool.run("prepare", [pack_triples([]), pack_triples([])])

    @pytest.mark.parametrize("workers", (1, 2))
    def test_op_errors_propagate(self, workers, max_workers):
        workers = capped(workers, max_workers)
        with WorkerPool(workers, context={"model": None, "graph": None}) as pool:
            # A None model makes the prepare op raise inside the worker.
            with pytest.raises((WorkerError, AttributeError)):
                pool.run("prepare", [pack_triples([(0, 0, 1)])] * workers)

    def test_close_is_idempotent(self):
        pool = WorkerPool(2, context={})
        pool.close()
        pool.close()
        with pytest.raises(RuntimeError):
            pool.run("prepare", [pack_triples([])])

    def test_concurrent_spawns_keep_contexts_distinct(self, max_workers):
        """Regression: ``_spawn`` used to publish the module-global
        ``_FORK_CONTEXT`` without a lock, so two pools forking at the same
        time could capture each other's context (or ``None``)."""
        workers = capped(2, max_workers)
        results = {}
        errors = []
        barrier = threading.Barrier(2)

        def launch(tag):
            try:
                barrier.wait(timeout=30)
                with WorkerPool(workers, context={"tag": tag}) as pool:
                    results[tag] = pool.run("parity.tag", [tag] * workers)
            except Exception as exc:  # noqa: BLE001 - surfaced via `errors`
                errors.append(exc)

        threads = [
            threading.Thread(target=launch, args=(f"pool-{i}",)) for i in range(2)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert errors == []
        assert set(results) == {"pool-0", "pool-1"}
        for tag, produced in results.items():
            assert produced == [(tag, tag)] * workers


# ----------------------------------------------------------------------
class TestShardedPrepare:
    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    @pytest.mark.parametrize("batch", (0, 1, 3, 7))  # odd + fewer-than-ranks
    def test_matches_serial_prepare(self, workers, batch, max_workers):
        workers = capped(workers, max_workers)
        graph = small_graph()
        targets = [TRIPLES[i % len(TRIPLES)] for i in range(batch)]
        reference = make_model().prepare_many(graph, targets)
        model = make_model()
        with ShardedPreparer(model, graph, workers=workers) as preparer:
            produced = preparer.prepare_many(graph, targets)
        assert_samples_equal(reference, produced)

    def test_populates_parent_cache(self):
        graph = small_graph()
        model = make_model()
        with ShardedPreparer(model, graph, workers=2) as preparer:
            preparer.prepare_many(graph, TRIPLES[:5])
        assert model.cache_size() == 5
        # Scoring after a parallel prepare must not re-prepare anything.
        before = model.cache_size()
        model.score_triples(graph, TRIPLES[:5])
        assert model.cache_size() == before

    def test_rejects_foreign_graph(self):
        graph = small_graph()
        model = make_model()
        with ShardedPreparer(model, graph, workers=2) as preparer:
            with pytest.raises(ValueError):
                preparer.prepare_many(small_graph(), TRIPLES[:2])

    @pytest.mark.slow
    @given(
        seed=st.integers(min_value=0, max_value=2**16),
        workers=st.sampled_from(WORKER_COUNTS),
        batch=st.integers(min_value=0, max_value=10),
    )
    @settings(max_examples=10, deadline=None)
    def test_randomized_graphs(self, seed, workers, batch):
        rng = np.random.default_rng(seed)
        num_entities, num_relations = 8, 5
        rows = rng.integers(0, [num_entities, num_relations, num_entities], (20, 3))
        graph = KnowledgeGraph(
            TripleSet([tuple(map(int, row)) for row in rows]),
            num_entities=num_entities,
            num_relations=num_relations,
        )
        targets = [
            tuple(map(int, rows[i % len(rows)])) for i in range(batch)
        ]
        reference = RMPI(
            num_relations, np.random.default_rng(0), RMPIConfig(embed_dim=8)
        ).prepare_many(graph, targets)
        model = RMPI(
            num_relations, np.random.default_rng(0), RMPIConfig(embed_dim=8)
        )
        with ShardedPreparer(model, graph, workers=workers) as preparer:
            assert_samples_equal(reference, preparer.prepare_many(graph, targets))


# ----------------------------------------------------------------------
class TestDataParallelGradients:
    def _configs(self, workers):
        serial = TrainingConfig(epochs=2, batch_size=5, seed=3)  # odd batch
        parallel = TrainingConfig(
            epochs=2, batch_size=5, seed=3, parallel=ParallelConfig(workers=workers)
        )
        return serial, parallel

    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_parameters_match_serial_trainer(self, workers, max_workers):
        workers = capped(workers, max_workers)
        graph = small_graph()
        train = TripleSet(TRIPLES[:9])
        serial_cfg, parallel_cfg = self._configs(workers)

        serial_model = make_model()
        serial_history = Trainer(serial_model, graph, train, config=serial_cfg).fit()
        parallel_model = make_model()
        parallel_history = DataParallelTrainer(
            parallel_model, graph, train, config=parallel_cfg
        ).fit()

        assert serial_history.losses == pytest.approx(
            parallel_history.losses, rel=1e-5, abs=1e-6
        )
        reference = serial_model.state_dict()
        produced = parallel_model.state_dict()
        for name in reference:
            np.testing.assert_allclose(
                produced[name], reference[name], **score_tolerance(),
                err_msg=f"parameter {name} diverged at workers={workers}",
            )

    def test_workers_1_is_bitwise_serial(self):
        graph = small_graph()
        train = TripleSet(TRIPLES[:9])
        serial_cfg, parallel_cfg = self._configs(1)
        serial_model = make_model()
        Trainer(serial_model, graph, train, config=serial_cfg).fit()
        parallel_model = make_model()
        DataParallelTrainer(parallel_model, graph, train, config=parallel_cfg).fit()
        reference = serial_model.state_dict()
        produced = parallel_model.state_dict()
        for name in reference:
            assert np.array_equal(produced[name], reference[name]), name

    def test_batch_smaller_than_ranks(self, max_workers):
        workers = capped(4, max_workers)
        graph = small_graph()
        train = TripleSet(TRIPLES[:2])  # 2 pairs over 4 ranks: 2 empty shards
        config = TrainingConfig(
            epochs=1, batch_size=16, seed=0, parallel=ParallelConfig(workers=workers)
        )
        model = make_model()
        history = DataParallelTrainer(model, graph, train, config=config).fit()
        assert len(history.losses) == 1
        serial_model = make_model()
        Trainer(
            serial_model, graph, train, config=TrainingConfig(epochs=1, batch_size=16, seed=0)
        ).fit()
        for name, value in serial_model.state_dict().items():
            np.testing.assert_allclose(
                model.state_dict()[name], value, **score_tolerance()
            )

    def test_reduce_gradients_weighting(self):
        shard_a = {"loss": 2.0, "pairs": 3, "grads": {"w": np.ones(2), "b": None}}
        shard_b = {"loss": 4.0, "pairs": 1, "grads": {"w": np.full(2, 5.0), "b": None}}
        empty = {"loss": 0.0, "pairs": 0, "grads": {}}
        grads, loss, pairs = reduce_gradients([shard_a, shard_b, empty])
        assert pairs == 4
        assert loss == pytest.approx(2.5)
        np.testing.assert_allclose(grads["w"], np.full(2, 2.0))
        assert grads["b"] is None

    def test_reduce_gradients_all_empty(self):
        grads, loss, pairs = reduce_gradients([{"loss": 0.0, "pairs": 0, "grads": {}}])
        assert (grads, loss, pairs) == ({}, 0.0, 0)

    def test_reduce_gradients_mixed_none_and_array_any_order(self):
        """A parameter one shard never touched must reduce the same no
        matter which shard reports first (None ≡ implicit zero)."""
        with_grad = {"loss": 1.0, "pairs": 1, "grads": {"w": np.ones(2)}}
        without = {"loss": 3.0, "pairs": 1, "grads": {"w": None}}
        first, loss_a, _ = reduce_gradients([without, with_grad])
        second, loss_b, _ = reduce_gradients([with_grad, without])
        np.testing.assert_allclose(first["w"], np.full(2, 0.5))
        np.testing.assert_allclose(second["w"], first["w"])
        assert loss_a == pytest.approx(loss_b) == pytest.approx(2.0)

    def test_reduce_gradients_never_mutates_shard_arrays(self):
        """Aliasing guard: the in-place accumulation must only ever touch
        parent-owned arrays, never a gradient a shard handed in."""
        grad_a = np.ones(3)
        grad_b = np.full(3, 5.0)
        grad_a.setflags(write=False)  # any write to a shard array raises
        grad_b.setflags(write=False)
        shards = [
            {"loss": 1.0, "pairs": 1, "grads": {"w": grad_a}},
            {"loss": 2.0, "pairs": 3, "grads": {"w": grad_b}},
        ]
        grads, _, _ = reduce_gradients(shards)
        np.testing.assert_allclose(grads["w"], np.full(3, 4.0))
        np.testing.assert_array_equal(grad_a, np.ones(3))
        np.testing.assert_array_equal(grad_b, np.full(3, 5.0))
        assert grads["w"] is not grad_a and grads["w"] is not grad_b

    def test_dropout_rerun_is_bitwise_deterministic(self, max_workers):
        """Per-rank dropout streams are pinned from ``(seed, rank)``, so two
        identical data-parallel runs produce bitwise-identical checkpoints."""
        workers = capped(2, max_workers)
        graph = small_graph()
        train = TripleSet(TRIPLES[:9])
        config = TrainingConfig(
            epochs=2, batch_size=5, seed=3, parallel=ParallelConfig(workers=workers)
        )

        def fit():
            model = make_model(dropout=0.3)
            history = DataParallelTrainer(model, graph, train, config=config).fit()
            return model.state_dict(), history

        first_state, first_history = fit()
        second_state, second_history = fit()
        assert first_history.losses == second_history.losses
        assert set(first_state) == set(second_state)
        for name, value in first_state.items():
            assert np.array_equal(second_state[name], value), name


# ----------------------------------------------------------------------
class TestParallelConfig:
    @pytest.mark.parametrize(
        "kwargs",
        ({"workers": 0}, {"workers": -3}, {"workers": 2, "eval_workers": 0}),
    )
    def test_rejects_non_positive_counts(self, kwargs):
        with pytest.raises(ValueError, match="workers must be >= 1"):
            ParallelConfig(**kwargs)


# ----------------------------------------------------------------------
class TestParallelEvaluation:
    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    @pytest.mark.parametrize("num_queries", (1, 2, 3, 5))  # incl. < ranks
    def test_ranking_bitwise(self, workers, num_queries, max_workers):
        workers = capped(workers, max_workers)
        graph = small_graph()
        targets = TripleSet(TRIPLES[:num_queries])
        reference = evaluate_entity_prediction(
            make_model(), graph, targets, np.random.default_rng(5), num_negatives=7
        )
        model = make_model()
        with ParallelEvaluator(model, graph, workers=workers) as evaluator:
            produced = evaluator.entity_prediction(
                targets, np.random.default_rng(5), num_negatives=7
            )
        assert produced == reference  # bitwise: dataclass equality on floats

    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_classification_bitwise(self, workers, max_workers):
        workers = capped(workers, max_workers)
        graph = small_graph()
        targets = TripleSet(TRIPLES[:6])
        reference = evaluate_triple_classification(
            make_model(), graph, targets, np.random.default_rng(9)
        )
        model = make_model()
        with ParallelEvaluator(model, graph, workers=workers) as evaluator:
            produced = evaluator.triple_classification(
                targets, np.random.default_rng(9)
            )
        assert produced == reference

    @pytest.mark.slow
    @given(
        seed=st.integers(min_value=0, max_value=2**16),
        workers=st.sampled_from(WORKER_COUNTS),
    )
    @settings(max_examples=8, deadline=None)
    def test_ranking_bitwise_randomized(self, seed, workers):
        rng = np.random.default_rng(seed)
        rows = rng.integers(0, [6, 7, 6], (14, 3))
        graph = KnowledgeGraph(
            TripleSet([tuple(map(int, row)) for row in rows]),
            num_entities=6,
            num_relations=7,
        )
        targets = TripleSet([tuple(map(int, row)) for row in rows[:4]])
        reference = evaluate_entity_prediction(
            make_model(), graph, targets, np.random.default_rng(seed), num_negatives=5
        )
        model = make_model()
        with ParallelEvaluator(model, graph, workers=workers) as evaluator:
            produced = evaluator.entity_prediction(
                targets, np.random.default_rng(seed), num_negatives=5
            )
        assert produced == reference


# ----------------------------------------------------------------------
class TestServingPool:
    def _registry_and_graph(self):
        graph = small_graph()
        registry = ModelRegistry()
        registry.register("rmpi", make_model())
        return registry, graph

    @pytest.mark.parametrize("workers", (2, 4))
    def test_scores_match_serial_session(self, workers, max_workers):
        workers = capped(workers, max_workers)
        queries = [(0, 0, 2), (1, 2, 3), (3, 4, 0), (2, 1, 5), (4, 3, 1), (5, 6, 0)]
        registry, graph = self._registry_and_graph()
        serial_app = ServingApp(
            registry, graph, ServingConfig(default_model="rmpi", workers=1)
        )
        reference = serial_app.session.score(queries)
        serial_app.close()

        registry2, graph2 = self._registry_and_graph()
        app = ServingApp(
            registry2, graph2, ServingConfig(default_model="rmpi", workers=workers)
        )
        assert app.session.scoring_pool is not None
        produced = app.session.score(queries)
        app.close()
        np.testing.assert_allclose(produced, reference, **score_tolerance())

    def test_late_registration_falls_back_to_serial(self):
        registry, graph = self._registry_and_graph()
        app = ServingApp(
            registry, graph, ServingConfig(default_model="rmpi", workers=2)
        )
        # Registered AFTER the pool forked: invisible to workers, must be
        # scored serially in the parent instead of erroring.
        registry.register("late", make_model(variant_seed=1))
        queries = [(0, 0, 2), (1, 2, 3), (3, 4, 0)]
        produced = app.session.score(queries, model="late")
        app.close()
        reference = make_model(variant_seed=1).score_triples_fused(graph, queries)
        np.testing.assert_allclose(produced, reference, **score_tolerance())

    def test_set_graph_detaches_and_closes_pool(self):
        registry, graph = self._registry_and_graph()
        app = ServingApp(
            registry, graph, ServingConfig(default_model="rmpi", workers=2)
        )
        pool = app.session.scoring_pool
        assert pool is not None
        app.session.set_graph(small_graph())
        # The workers were pinned to the OLD graph: detached AND closed.
        assert app.session.scoring_pool is None
        with pytest.raises(RuntimeError):
            pool.run(
                "serve_score", [{"model": "rmpi", "triples": pack_triples([])}]
            )
        # Scoring still works (serially) against the new graph.
        assert app.session.score([(0, 0, 2)]).shape == (1,)
        app.close()
