"""Tests for the online inference serving subsystem (`repro.serve`).

Covers the score cache, model registry, inference session, micro-batching
scheduler (including the coalescing guarantee: N concurrent requests reach
the model as ONE batched scoring call), and an end-to-end HTTP run against
a trained-from-scratch RMPI checkpoint whose top-k ranking must match the
offline evaluation protocol's scoring path.
"""

from __future__ import annotations

import http.client
import io
import json
import threading
import urllib.request

import numpy as np
import pytest

from engine_tolerances import score_tolerance

from repro.core import RMPI, RMPIConfig
from repro.eval.protocol import candidate_entity_pool, known_fact_set
from repro.eval.metrics import rank_of_first
from repro.kg import KnowledgeGraph, TripleSet, ranking_candidates
from repro.baselines import GraIL
from repro.obs import MetricsRegistry, get_registry
from repro.obs import set_registry as set_obs_registry
from repro.serve import (
    InferenceSession,
    MicroBatchScheduler,
    ModelRegistry,
    ScoreCache,
    ServingApp,
    ServingClient,
    ServingConfig,
    ServingServer,
)
from repro.serve.server import _Handler
from repro.train import (
    CheckpointMismatchError,
    TrainingConfig,
    save_checkpoint,
    train_model,
)


def _rmpi(graph, seed=0, **config):
    return RMPI(
        graph.num_relations,
        np.random.default_rng(seed),
        RMPIConfig(embed_dim=16, dropout=0.0, **config),
    )


def _registry(graph, **kwargs):
    registry = ModelRegistry()
    registry.register("rmpi", _rmpi(graph), **kwargs)
    return registry


def model_count(model, name):
    """One of a model's scoring counters (``batch_calls``,
    ``triples_scored``) in the process metrics registry."""
    return int(get_registry().counter_value(f"{model.metrics_namespace}.{name}"))


class TestScoreCache:
    def test_put_get_and_counters(self):
        cache = ScoreCache(maxsize=4)
        key = ("m@1", "fp", (0, 1, 2))
        assert cache.get(key) is None
        cache.put(key, 0.5)
        assert cache.get(key) == 0.5
        assert cache.hits == 1 and cache.misses == 1

    def test_lru_eviction(self):
        cache = ScoreCache(maxsize=2)
        keys = [("m", "fp", (i, 0, 0)) for i in range(3)]
        for i, key in enumerate(keys):
            cache.put(key, float(i))
        assert cache.get(keys[0]) is None  # evicted
        assert cache.get(keys[2]) == 2.0
        assert len(cache) == 2

    def test_get_refreshes_recency(self):
        cache = ScoreCache(maxsize=2)
        a, b, c = [("m", "fp", (i, 0, 0)) for i in range(3)]
        cache.put(a, 1.0)
        cache.put(b, 2.0)
        cache.get(a)  # a is now most recent
        cache.put(c, 3.0)  # evicts b
        assert cache.get(a) == 1.0 and cache.get(b) is None

    def test_invalidate_graph(self):
        cache = ScoreCache(maxsize=8)
        cache.put(("m", "old", (0, 0, 0)), 1.0)
        cache.put(("m", "new", (0, 0, 0)), 2.0)
        assert cache.invalidate_graph("old") == 1
        assert cache.get(("m", "new", (0, 0, 0))) == 2.0
        assert len(cache) == 1

    def test_size_zero_disables(self):
        cache = ScoreCache(maxsize=0)
        cache.put(("m", "fp", (0, 0, 0)), 1.0)
        assert cache.get(("m", "fp", (0, 0, 0))) is None


class TestScoreCacheEdgeCases:
    def test_capacity_zero_never_stores_but_still_counts_misses(self):
        cache = ScoreCache(maxsize=0)
        keys = [("m", "fp", (i, 0, 0)) for i in range(3)]
        for i, key in enumerate(keys):
            cache.put(key, float(i))
            assert cache.get(key) is None
        assert len(cache) == 0
        assert cache.hits == 0 and cache.misses == 3
        # Invalidation and clear on a disabled cache are harmless no-ops.
        assert cache.invalidate_graph("fp") == 0
        cache.clear()
        assert cache.stats()["entries"] == 0

    def test_capacity_one_keeps_exactly_the_latest_entry(self):
        cache = ScoreCache(maxsize=1)
        a, b = ("m", "fp", (0, 0, 0)), ("m", "fp", (1, 0, 0))
        cache.put(a, 1.0)
        assert cache.get(a) == 1.0
        cache.put(b, 2.0)  # displaces a: capacity one holds one entry
        assert len(cache) == 1
        assert cache.get(a) is None
        assert cache.get(b) == 2.0
        # Re-putting the resident key must not evict it (no self-eviction).
        cache.put(b, 3.0)
        assert cache.get(b) == 3.0 and len(cache) == 1

    def test_eviction_order_under_repeated_hits(self):
        cache = ScoreCache(maxsize=3)
        a, b, c, d = [("m", "fp", (i, 0, 0)) for i in range(4)]
        cache.put(a, 1.0)
        cache.put(b, 2.0)
        cache.put(c, 3.0)
        # Hit a twice and c once: recency order (oldest first) is b, c, a.
        cache.get(a)
        cache.get(a)
        cache.get(c)
        cache.put(d, 4.0)  # evicts b, the least recently used
        assert cache.get(b) is None
        assert cache.get(a) == 1.0
        assert cache.get(c) == 3.0
        assert cache.get(d) == 4.0
        # A put to an existing key also refreshes recency: a is oldest now
        # unless re-put; re-put c, then overflow must evict a.
        cache.get(a)  # order: c, d, a
        cache.put(c, 5.0)  # order: d, a, c
        cache.put(("m", "fp", (9, 0, 0)), 9.0)  # evicts d
        assert cache.get(d) is None
        assert cache.get(c) == 5.0

    def test_fingerprint_change_mid_session_invalidates(self, family_graph):
        """Scores cached against one graph must never be served for
        another: the fingerprint in the key plus ``set_graph``'s eager
        invalidation together guarantee it mid-session."""
        registry = _registry(family_graph)
        session = InferenceSession(registry, family_graph)
        triples = [(0, 0, 1), (2, 1, 0)]
        before = session.score(triples)
        assert len(session.cache) == len(triples)
        old_fingerprint = family_graph.fingerprint()

        # Mid-session graph swap: same triples, different graph content.
        mutated = KnowledgeGraph(
            TripleSet(list(family_graph.triples) + [(1, 2, 3)]),
            num_entities=family_graph.num_entities,
            num_relations=family_graph.num_relations,
        )
        assert mutated.fingerprint() != old_fingerprint
        session.set_graph(mutated)
        assert len(session.cache) == 0  # eager flush

        model = registry.get("rmpi").model
        calls = model_count(model, "batch_calls")
        after = session.score(triples)
        assert model_count(model, "batch_calls") == calls + 1  # recomputed
        # New entries are keyed by the new fingerprint only; the old
        # graph's keys cannot be hit even if probed directly.
        entry = registry.get("rmpi")
        for triple in triples:
            assert session.cache.get(
                (entry.key, old_fingerprint, triple)
            ) is None
        # Swapping back restores neither scores nor cache entries silently:
        # the session re-scores against the restored graph from scratch.
        session.set_graph(family_graph)
        calls = model_count(model, "batch_calls")
        restored = session.score(triples)
        assert model_count(model, "batch_calls") == calls + 1
        assert restored == pytest.approx(before)
        assert after is not None  # both graphs produced full score lists


class TestModelRegistry:
    def test_versions_auto_increment(self, family_graph):
        registry = ModelRegistry()
        first = registry.register("rmpi", _rmpi(family_graph))
        second = registry.register("rmpi", _rmpi(family_graph, seed=1))
        assert (first.version, second.version) == (1, 2)
        assert registry.get("rmpi").version == 2  # latest by default
        assert registry.get("rmpi", 1) is first

    def test_resolve_specs(self, family_graph):
        registry = _registry(family_graph)
        registry.register("rmpi", _rmpi(family_graph, seed=1))
        assert registry.resolve("rmpi@1").version == 1
        assert registry.resolve("rmpi").version == 2
        with pytest.raises(KeyError):
            registry.resolve("rmpi@9")
        with pytest.raises(KeyError):
            registry.resolve("nope")

    def test_resolve_default_requires_single_model(self, family_graph):
        registry = _registry(family_graph)
        assert registry.resolve(None).name == "rmpi"
        registry.register("other", _rmpi(family_graph, seed=2))
        with pytest.raises(KeyError):
            registry.resolve(None)

    def test_duplicate_version_rejected(self, family_graph):
        registry = _registry(family_graph)
        with pytest.raises(ValueError):
            registry.register("rmpi", _rmpi(family_graph), version=1)

    def test_register_checkpoint_roundtrip(self, tmp_path, family_graph):
        model = _rmpi(family_graph)
        path = save_checkpoint(model, str(tmp_path / "ck"), extra_meta={"note": "x"})
        registry = ModelRegistry()
        entry = registry.register_checkpoint(
            "served", _rmpi(family_graph, seed=9), path
        )
        assert entry.meta["model_class"] == "RMPI"
        assert entry.meta["note"] == "x"
        assert entry.meta["checkpoint"] == path
        a = model.score_triples(family_graph, [(0, 0, 1)])
        b = entry.model.score_triples(family_graph, [(0, 0, 1)])
        assert a == pytest.approx(b)

    def test_register_checkpoint_validates_architecture(self, tmp_path, family_graph):
        path = save_checkpoint(_rmpi(family_graph), str(tmp_path / "ck"))
        registry = ModelRegistry()
        with pytest.raises(CheckpointMismatchError):
            registry.register_checkpoint(
                "served", _rmpi(family_graph, use_disclosing=True), path
            )
        assert len(registry) == 0  # failed load never registers

    def test_describe_is_json_ready(self, family_graph):
        import json

        registry = _registry(family_graph, meta={"benchmark": "family"})
        (summary,) = registry.describe()
        assert summary["key"] == "rmpi@1"
        assert summary["benchmark"] == "family"
        json.dumps(summary)  # must not raise


class TestInferenceSession:
    def test_score_matches_model_path(self, family_graph):
        # RMPI has a disjoint-union forward: the session scores through it.
        registry = _registry(family_graph)
        session = InferenceSession(registry, family_graph)
        triples = [(0, 0, 1), (2, 1, 0), (3, 4, 1)]
        expected = registry.get("rmpi").model.score_triples_fused(family_graph, triples)
        np.testing.assert_array_equal(session.score(triples), expected)

    def test_fused_matches_per_sample(self, family_graph):
        registry = _registry(family_graph)
        session = InferenceSession(registry, family_graph, cache_size=0)
        triples = [(0, 0, 1), (2, 1, 0), (3, 4, 1), (0, 3, 4)]
        per_sample = registry.get("rmpi").model.score_triples(family_graph, triples)
        np.testing.assert_allclose(
            session.score(triples), per_sample, **score_tolerance()
        )

    def test_model_without_fused_forward_serves_score_triples(self, family_graph):
        registry = ModelRegistry()
        registry.register(
            "grail", GraIL(family_graph.num_relations, np.random.default_rng(0))
        )
        session = InferenceSession(registry, family_graph)
        triples = [(0, 0, 1), (2, 1, 0), (3, 4, 1), (0, 3, 4)]
        expected = registry.get("grail").model.score_triples(family_graph, triples)
        np.testing.assert_array_equal(session.score(triples), expected)

    def test_cache_short_circuits_model(self, family_graph):
        registry = _registry(family_graph)
        session = InferenceSession(registry, family_graph)
        model = registry.get("rmpi").model
        triples = [(0, 0, 1), (2, 1, 0)]
        first = session.score(triples)
        calls = model_count(model, "batch_calls")
        second = session.score(triples)
        assert model_count(model, "batch_calls") == calls  # pure cache hits
        assert second == pytest.approx(first)
        assert session.cache.hits >= 2

    def test_duplicate_triples_scored_once(self, family_graph):
        registry = _registry(family_graph)
        session = InferenceSession(registry, family_graph)
        scores = session.score([(0, 0, 1), (0, 0, 1)])
        assert scores[0] == scores[1]
        model = registry.get("rmpi").model
        assert model_count(model, "triples_scored") == 1

    def test_set_graph_invalidates_cache(self, family_graph):
        registry = _registry(family_graph)
        session = InferenceSession(registry, family_graph)
        session.score([(0, 0, 1)])
        assert len(session.cache) == 1
        other = KnowledgeGraph(
            TripleSet([(0, 0, 1), (1, 1, 2)]),
            num_entities=family_graph.num_entities,
            num_relations=family_graph.num_relations,
        )
        session.set_graph(other)
        assert len(session.cache) == 0
        assert other.fingerprint() != family_graph.fingerprint()
        model = registry.get("rmpi").model
        calls = model_count(model, "batch_calls")
        session.score([(0, 0, 1)])
        assert model_count(model, "batch_calls") == calls + 1  # re-scored

    def test_top_k_tails_excludes_known_facts(self, family_graph):
        registry = _registry(family_graph)
        session = InferenceSession(registry, family_graph)
        # (0, 3, ?): 3 and 4 are known father_of tails and must not appear.
        predictions = session.top_k_tails(0, 3, k=family_graph.num_entities)
        predicted = {entity for entity, _ in predictions}
        assert predicted.isdisjoint({3, 4})
        scores = [score for _, score in predictions]
        assert scores == sorted(scores, reverse=True)

    def test_top_k_heads_candidate_override(self, family_graph):
        registry = _registry(family_graph)
        session = InferenceSession(registry, family_graph)
        predictions = session.top_k_heads(
            1, 0, k=2, candidates=[2, 3], exclude_known=False
        )
        assert {entity for entity, _ in predictions} <= {2, 3}


class TestMicroBatchScheduler:
    def test_coalesces_concurrent_requests_into_one_model_call(self, family_graph):
        registry = _registry(family_graph)
        session = InferenceSession(registry, family_graph)
        scheduler = MicroBatchScheduler(session, max_batch_size=64, max_wait_ms=50)
        triples = [(0, 0, 1), (2, 1, 0), (1, 2, 2), (3, 4, 1), (0, 3, 3), (1, 5, 5)]
        model = registry.get("rmpi").model
        calls = model_count(model, "batch_calls")
        scored = model_count(model, "triples_scored")
        # Queue 6 requests before the worker runs: deterministic coalescing.
        futures = [scheduler.submit([triple]) for triple in triples]
        with scheduler:
            scores = [future.result(timeout=30) for future in futures]
        # ≥ 4 concurrent requests reached the model as ONE batched call.
        assert model_count(model, "batch_calls") - calls == 1
        assert model_count(model, "triples_scored") - scored == len(triples)
        assert scheduler.stats.batches == 1
        assert scheduler.stats.largest_batch_requests == len(triples)
        expected = model.score_triples(family_graph, triples)
        flat = np.concatenate(scores)
        assert flat == pytest.approx(expected, abs=score_tolerance()["atol"])

    def test_mixed_model_batch_dispatches_per_model(self, family_graph):
        registry = _registry(family_graph)
        registry.register("other", _rmpi(family_graph, seed=3))
        session = InferenceSession(registry, family_graph)
        scheduler = MicroBatchScheduler(session, max_batch_size=64, max_wait_ms=50)
        futures = [
            scheduler.submit([(0, 0, 1)], "rmpi"),
            scheduler.submit([(2, 1, 0)], "rmpi"),
            scheduler.submit([(0, 0, 1)], "other"),
        ]
        with scheduler:
            for future in futures:
                future.result(timeout=30)
        assert scheduler.stats.batches == 1
        assert scheduler.stats.dispatches == 2  # one call per distinct model

    def test_equivalent_model_specs_coalesce_into_one_dispatch(self, family_graph):
        """'rmpi', 'rmpi@1' and the default (None) all resolve to the same
        registry entry and must share one batched model call."""
        registry = _registry(family_graph)
        session = InferenceSession(registry, family_graph)
        scheduler = MicroBatchScheduler(session, max_batch_size=64, max_wait_ms=50)
        model = registry.get("rmpi").model
        calls = model_count(model, "batch_calls")
        futures = [
            scheduler.submit([(0, 0, 1)], "rmpi"),
            scheduler.submit([(2, 1, 0)], None),
            scheduler.submit([(1, 2, 2)], "rmpi@1"),
        ]
        with scheduler:
            for future in futures:
                future.result(timeout=30)
        assert scheduler.stats.batches == 1
        assert scheduler.stats.dispatches == 1
        assert model_count(model, "batch_calls") - calls == 1

    def test_unknown_model_spec_fails_only_that_request(self, family_graph):
        registry = _registry(family_graph)
        session = InferenceSession(registry, family_graph)
        scheduler = MicroBatchScheduler(session, max_batch_size=64, max_wait_ms=50)
        good = scheduler.submit([(0, 0, 1)], "rmpi")
        bad = scheduler.submit([(2, 1, 0)], "nope")
        with scheduler:
            assert np.isfinite(good.result(timeout=30)).all()
            with pytest.raises(KeyError):
                bad.result(timeout=30)
        # Stats only count what a model was actually asked to score.
        assert scheduler.stats.requests == 2
        assert scheduler.stats.triples == 1
        assert scheduler.stats.largest_batch_triples == 1

    def test_close_rejects_new_submissions_until_restarted(self, family_graph):
        registry = _registry(family_graph)
        session = InferenceSession(registry, family_graph)
        scheduler = MicroBatchScheduler(session, max_wait_ms=0)
        scheduler.start()
        scheduler.close()
        with pytest.raises(RuntimeError, match="stopped"):
            scheduler.submit([(0, 0, 1)])
        scheduler.start()  # re-opens
        try:
            assert np.isfinite(scheduler.submit([(0, 0, 1)]).result(timeout=30)).all()
        finally:
            scheduler.close()

    def test_errors_propagate_through_future(self, family_graph):
        registry = _registry(family_graph)
        session = InferenceSession(registry, family_graph)
        with MicroBatchScheduler(session, max_wait_ms=0) as scheduler:
            bad = scheduler.submit([(999, 0, 1)])  # entity out of range
            with pytest.raises(ValueError):
                bad.result(timeout=30)
            good = scheduler.submit([(0, 0, 1)])
            assert np.isfinite(good.result(timeout=30)).all()

    def test_empty_request_resolves_immediately(self, family_graph):
        registry = _registry(family_graph)
        session = InferenceSession(registry, family_graph)
        scheduler = MicroBatchScheduler(session)
        assert scheduler.submit([]).result(timeout=1).size == 0

    def test_stop_drains_pending_requests(self, family_graph):
        registry = _registry(family_graph)
        session = InferenceSession(registry, family_graph)
        scheduler = MicroBatchScheduler(session, max_wait_ms=0)
        future = scheduler.submit([(0, 0, 1)])
        scheduler.start()
        scheduler.stop()
        assert np.isfinite(future.result(timeout=30)).all()
        assert not scheduler.is_running

    def test_restart_waits_for_slow_draining_worker(self):
        """A timed-out stop() must not let start() spawn a second worker
        while the old one is still dispatching (single-worker invariant)."""
        import time

        class SlowSession:
            def __init__(self):
                self.release = threading.Event()
                self.active = 0
                self.max_active = 0
                self.graph = None

            def resolve_model(self, spec=None):
                class Entry:
                    key = "slow@1"

                return Entry()

            def score(self, triples, model=None):
                self.active += 1
                self.max_active = max(self.max_active, self.active)
                try:
                    assert self.release.wait(timeout=30)
                    return np.zeros(len(triples))
                finally:
                    self.active -= 1

        session = SlowSession()
        scheduler = MicroBatchScheduler(session, max_wait_ms=0)
        first = scheduler.submit([(0, 0, 1)])
        scheduler.start()
        while session.max_active == 0:  # worker is now inside score()
            time.sleep(0.005)
        scheduler.stop(timeout=0.05)  # times out: worker still draining
        second = scheduler.submit([(0, 0, 2)])
        restarted = threading.Thread(target=scheduler.start)
        restarted.start()
        time.sleep(0.1)
        assert restarted.is_alive()  # start() is waiting, not double-running
        session.release.set()
        restarted.join(timeout=30)
        assert not restarted.is_alive()
        first.result(timeout=30)
        second.result(timeout=30)
        assert session.max_active == 1  # never two workers in score() at once
        scheduler.stop()

    def test_start_during_stop_join_window_spawns_no_second_worker(self):
        """start() issued while stop() is still blocked in its join must
        wait for the retiring worker instead of double-running."""
        import time

        class SlowSession:
            def __init__(self):
                self.release = threading.Event()
                self.active = 0
                self.max_active = 0
                self.graph = None

            def resolve_model(self, spec=None):
                class Entry:
                    key = "slow@1"

                return Entry()

            def score(self, triples, model=None):
                self.active += 1
                self.max_active = max(self.max_active, self.active)
                try:
                    assert self.release.wait(timeout=30)
                    return np.zeros(len(triples))
                finally:
                    self.active -= 1

        session = SlowSession()
        scheduler = MicroBatchScheduler(session, max_wait_ms=0)
        first = scheduler.submit([(0, 0, 1)])
        scheduler.start()
        while session.max_active == 0:
            time.sleep(0.005)
        stopper = threading.Thread(target=scheduler.stop, kwargs={"timeout": 30})
        stopper.start()
        time.sleep(0.05)  # stop() is now blocked inside worker.join()
        second = scheduler.submit([(0, 0, 2)])
        restarted = threading.Thread(target=scheduler.start)
        restarted.start()
        time.sleep(0.1)
        assert restarted.is_alive()  # waiting on the retiring worker
        session.release.set()
        stopper.join(timeout=30)
        restarted.join(timeout=30)
        first.result(timeout=30)
        second.result(timeout=30)
        assert session.max_active == 1
        scheduler.stop()


class TestMetricsEndpoint:
    """GET /metrics: the registry snapshot must agree with the triples a
    model was asked to score and with the score-cache counters."""

    @pytest.fixture
    def obs_registry(self):
        fresh = MetricsRegistry()
        previous = set_obs_registry(fresh)
        try:
            yield fresh
        finally:
            set_obs_registry(previous)

    def _score_and_scrape(self, app, triples):
        status, _ = app.handle("POST", "/score", {"triples": triples})
        assert status == 200
        status, snap = app.handle("GET", "/metrics")
        assert status == 200
        return snap

    def test_metrics_match_shim_and_cache_counters(self, family_graph, obs_registry):
        registry = _registry(family_graph)
        app = ServingApp(
            registry,
            family_graph,
            ServingConfig(default_model="rmpi", max_wait_ms=1.0),
        ).start()
        try:
            triples = [[0, 0, 1], [2, 1, 0], [1, 2, 2]]
            snap = self._score_and_scrape(app, triples)
            ns = registry.get("rmpi").model.metrics_namespace
            assert snap["counters"][f"{ns}.batch_calls"] == 1
            assert snap["counters"][f"{ns}.triples_scored"] == len(triples)
            cache = app.session.cache
            assert snap["counters"]["serve.cache.misses"] == cache.misses == 3
            assert snap["counters"].get("serve.cache.hits", 0) == cache.hits == 0
        finally:
            app.close()

    def test_scrape_reports_every_request_except_itself(
        self, family_graph, obs_registry
    ):
        registry = _registry(family_graph)
        app = ServingApp(
            registry,
            family_graph,
            ServingConfig(default_model="rmpi", max_wait_ms=1.0),
        ).start()
        try:
            app.handle("GET", "/health")
            app.handle("POST", "/score", {"triples": [[0, 0, 1]]})
            _, snap = app.handle("GET", "/metrics")
            assert snap["counters"]["serve.http.requests"] == 2
            assert snap["counters"]["serve.http.responses.2xx"] == 2
            assert snap["histograms"]["span.serve.http.request.ms"]["count"] == 2
            # The scrape itself lands in the registry after its body is built.
            _, again = app.handle("GET", "/metrics")
            assert again["counters"]["serve.http.requests"] == 3
        finally:
            app.close()

    def test_cache_hits_surface_on_repeat_scoring(self, family_graph, obs_registry):
        registry = _registry(family_graph)
        app = ServingApp(
            registry,
            family_graph,
            ServingConfig(default_model="rmpi", max_wait_ms=1.0),
        ).start()
        try:
            triples = [[0, 0, 1], [2, 1, 0]]
            self._score_and_scrape(app, triples)
            snap = self._score_and_scrape(app, triples)
            cache = app.session.cache
            assert snap["counters"]["serve.cache.hits"] == cache.hits == 2
            assert snap["counters"]["serve.cache.misses"] == cache.misses == 2
        finally:
            app.close()

    def test_topk_reports_empty_subgraph_share(self, family_graph, obs_registry):
        # Entities 6-8 form a component of their own, so their candidates'
        # K-hop frontiers never meet the anchor's.
        triples = list(family_graph.triples) + [(6, 0, 7), (7, 1, 8)]
        graph = KnowledgeGraph(TripleSet(triples), num_entities=9, num_relations=7)
        app = ServingApp(
            _registry(graph), graph, ServingConfig(default_model="rmpi", max_wait_ms=1.0)
        ).start()
        try:
            payload = {
                "relation": 0,
                "head": 0,
                "candidates": [1, 2, 6, 7, 8],
                "exclude_known": False,
            }
            status, _ = app.handle("POST", "/topk", payload)
            assert status == 200
            _, snap = app.handle("GET", "/metrics")
            assert snap["counters"]["prepare.subgraphs"] == 5
            assert snap["counters"]["prepare.empty_subgraphs"] == 3
        finally:
            app.close()


class _RecordingSocket:
    """Socket stand-in: serves canned request bytes, records each send."""

    def __init__(self, requests: bytes) -> None:
        self._requests = requests
        self.sends = []

    def makefile(self, mode, buffering=None):
        return io.BytesIO(self._requests)

    def sendall(self, data):
        self.sends.append(bytes(data))


class TestHTTPResponseWrites:
    """Each response leaves in one socket write: headers and body sent
    apart make a keep-alive client wait ~40 ms for the delayed ACK."""

    RESPONSES = {
        "/ok": (200, {"scores": [0.25]}),
        "/missing": (404, {"error": "no route for GET /missing"}),
        "/busy": (503, {"error": "queue full", "retry_after": 0.2}),
    }

    def _serve(self, raw: bytes):
        responses = self.RESPONSES

        class StubApp:
            def handle(self, method, path, payload):
                return responses[path]

        handler = type("_StubHandler", (_Handler,), {"app": StubApp()})
        sock = _RecordingSocket(raw)
        handler(sock, ("127.0.0.1", 0), None)
        return sock.sends

    @pytest.mark.parametrize(
        "method,path", [("POST", "/ok"), ("GET", "/missing"), ("GET", "/busy")]
    )
    def test_one_write_per_response(self, method, path):
        body = b'{"triples": [[0, 0, 1]]}' if method == "POST" else b""
        request = (
            f"{method} {path} HTTP/1.1\r\nHost: test\r\n"
            f"Content-Length: {len(body)}\r\n\r\n"
        ).encode() + body
        sends = self._serve(request * 2)  # two requests on one connection
        assert len(sends) == 2
        status, expected = self.RESPONSES[path]
        for sent in sends:
            head, payload = sent.split(b"\r\n\r\n", 1)
            lines = head.decode().split("\r\n")
            assert lines[0].startswith(f"HTTP/1.1 {status} ")
            headers = dict(line.split(": ", 1) for line in lines[1:])
            assert int(headers["Content-Length"]) == len(payload)
            assert json.loads(payload) == expected
            if status == 503:
                assert headers["Retry-After"] == "1"

    def test_keep_alive_connection_serves_two_requests(self, family_graph):
        app = ServingApp(
            _registry(family_graph), family_graph, ServingConfig(default_model="rmpi")
        )
        with ServingServer(app) as server:
            conn = http.client.HTTPConnection(server.host, server.port, timeout=10)
            try:
                conn.request("GET", "/health")
                first = conn.getresponse()
                health = json.loads(first.read())
                sock = conn.sock
                conn.request(
                    "POST",
                    "/score",
                    body=json.dumps({"triples": [[0, 0, 1], [2, 1, 0]]}),
                    headers={"Content-Type": "application/json"},
                )
                second = conn.getresponse()
                scores = json.loads(second.read())
                assert conn.sock is sock  # no reconnect in between
            finally:
                conn.close()
        assert first.status == 200 and health["status"] == "ok"
        assert second.status == 200 and len(scores["scores"]) == 2


# ----------------------------------------------------------------------
# End-to-end: HTTP server over a trained-from-scratch RMPI checkpoint.
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def trained_checkpoint(tmp_path_factory, tiny_partial_benchmark):
    """Train a small RMPI from scratch and persist it as a checkpoint."""
    bench = tiny_partial_benchmark
    model = RMPI(
        bench.num_relations, np.random.default_rng(0), RMPIConfig(embed_dim=16)
    )
    train_model(
        model,
        bench.train_graph,
        bench.train_triples,
        config=TrainingConfig(epochs=2, seed=0, max_triples_per_epoch=30),
    )
    path = save_checkpoint(
        model,
        str(tmp_path_factory.mktemp("serve") / "rmpi-base"),
        extra_meta={"benchmark": bench.name},
    )
    return path, bench


@pytest.fixture(scope="module")
def served(trained_checkpoint):
    """A live HTTP server hosting the trained checkpoint on the test graph."""
    path, bench = trained_checkpoint
    registry = ModelRegistry()
    registry.register_checkpoint(
        "rmpi-base",
        RMPI(bench.num_relations, np.random.default_rng(7), RMPIConfig(embed_dim=16)),
        path,
    )
    app = ServingApp(
        registry,
        bench.test_graph,
        ServingConfig(default_model="rmpi-base", max_batch_size=8, max_wait_ms=300.0),
    )
    with ServingServer(app) as server:
        yield server, ServingClient(server.url), registry, bench


@pytest.mark.slow
class TestHTTPServing:
    """Trained-from-scratch serving e2e: tier-2 (``-m slow``), run by the
    CI parallel-and-slow job; tier-1 covers the same components through the
    unit/integration classes above."""

    def test_health_and_models(self, served):
        _, client, _, bench = served
        health = client.health()
        assert health["status"] == "ok"
        assert health["graph"]["triples"] == len(bench.test_graph)
        (summary,) = client.models()
        assert summary["key"] == "rmpi-base@1"
        assert summary["model_class"] == "RMPI"
        assert summary["benchmark"] == bench.name

    def test_score_endpoint(self, served):
        _, client, registry, bench = served
        triples = list(bench.test_triples)[:3]
        scores = client.score(triples)
        expected = registry.get("rmpi-base").model.score_triples(
            bench.test_graph, triples
        )
        np.testing.assert_allclose(scores, expected, **score_tolerance())

    def test_topk_matches_offline_eval_ranking(self, served):
        """The acceptance check: a served top-k tail query ranks candidates
        exactly as the served model's fused forward does, with scores equal
        to ``evaluate_entity_prediction``'s scoring path within float
        round-off."""
        server, client, registry, bench = served
        graph, targets = bench.test_graph, bench.test_triples
        truth = next(iter(targets))
        pool = candidate_entity_pool(graph, targets)
        known = known_fact_set(graph, targets)
        candidates = ranking_candidates(
            truth,
            num_entities=graph.num_entities,
            rng=np.random.default_rng(42),
            num_negatives=20,
            known=known,
            candidate_entities=pool,
            corrupt_head=False,
        )
        model = registry.get("rmpi-base").model
        fused_scores = model.score_triples_fused(graph, candidates)
        fused_order = [
            candidates[i][2] for i in np.argsort(-fused_scores, kind="stable")
        ]
        # The offline protocol's scoring path, verbatim.
        eval_scores = model.score_triples(graph, candidates)
        # Score the whole candidate list as one batch, as the replica above.
        server.app.session.cache.clear()
        status, body = client.request(
            "POST",
            "/topk",
            {
                "head": int(truth[0]),
                "relation": int(truth[1]),
                "k": len(candidates),
                "candidates": [int(t[2]) for t in candidates],
                "exclude_known": False,
            },
        )
        assert status == 200
        served_order = [row["entity"] for row in body["predictions"]]
        assert served_order == fused_order
        by_entity = {row["entity"]: row["score"] for row in body["predictions"]}
        np.testing.assert_allclose(
            [by_entity[t[2]] for t in candidates], eval_scores, **score_tolerance()
        )
        # The truth's served position agrees with the protocol's rank metric
        # (exact when scores are untied, which a trained model gives us).
        if len(set(fused_scores.tolist())) == len(candidates):
            assert served_order.index(truth[2]) + 1 == rank_of_first(fused_scores)

    def test_topk_heads_endpoint(self, served):
        _, client, _, bench = served
        truth = next(iter(bench.test_triples))
        predictions = client.top_k_heads(int(truth[2]), int(truth[1]), k=5)
        assert len(predictions) <= 5
        scores = [row["score"] for row in predictions]
        assert scores == sorted(scores, reverse=True)

    def test_concurrent_http_requests_coalesce(self, served):
        """8 concurrent HTTP requests reach the model as ONE batched call."""
        import time

        server, client, registry, bench = served
        scheduler = server.app.scheduler
        model = registry.get("rmpi-base").model
        requests = [(int(h), int(r), int(t)) for h, r, t in list(bench.test_triples)[:8]]
        server.app.session.cache.clear()
        # Hold the worker so all 8 in-flight HTTP requests pile up in the
        # queue (deterministic coalescing regardless of thread scheduling).
        scheduler.stop()
        try:
            threads = [
                threading.Thread(target=client.score, args=([triple],))
                for triple in requests
            ]
            for thread in threads:
                thread.start()
            deadline = time.monotonic() + 30
            while scheduler.queue_depth() < len(requests):
                assert time.monotonic() < deadline, "HTTP requests never enqueued"
                time.sleep(0.01)
            before = model_count(model, "batch_calls")
            scheduler.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            scheduler.start()  # leave the served fixture live for later tests
        stats = client.stats()["scheduler"]
        assert model_count(model, "batch_calls") - before == 1
        assert stats["largest_batch_requests"] >= len(requests)

    def test_bad_payload_is_400(self, served):
        _, client, _, _ = served
        status, body = client.request("POST", "/score", {"triples": []})
        assert status == 400 and "error" in body
        status, body = client.request(
            "POST", "/topk", {"relation": 0, "head": 1, "tail": 2}
        )
        assert status == 400 and "error" in body

    def test_out_of_range_ids_are_400_not_scored(self, served):
        """Negative relation ids must not wrap around into the embedding
        table and serve a confident score for a nonexistent relation."""
        _, client, _, bench = served
        num_relations = bench.test_graph.num_relations
        for relation in (-5, num_relations):
            status, body = client.request(
                "POST", "/score", {"triples": [[0, relation, 1]]}
            )
            assert status == 400 and "relation id" in body["error"]
            status, body = client.request(
                "POST", "/topk", {"head": 0, "relation": relation}
            )
            assert status == 400 and "relation id" in body["error"]
        status, body = client.request(
            "POST", "/score", {"triples": [[-1, 0, 1]]}
        )
        assert status == 400 and "entity id" in body["error"]
        status, body = client.request(
            "POST", "/topk", {"head": -1, "relation": 0}
        )
        assert status == 400 and "entity id" in body["error"]
        status, body = client.request(
            "POST", "/topk", {"head": 0, "relation": 0, "candidates": [0, -7]}
        )
        assert status == 400 and "entity id -7" in body["error"]
        status, body = client.request(
            "POST", "/topk", {"head": 0, "relation": 0, "k": "lots"}
        )
        assert status == 400 and "'k'" in body["error"]

    @pytest.mark.parametrize(
        "error", [RuntimeError("model exploded"), ValueError("bad shape (7,)")]
    )
    def test_unexpected_error_is_500_not_dropped_connection(self, served, error):
        """Post-validation faults are server errors (500), never silently
        dropped connections — and never misreported as client 400s, even
        for ValueError, since client input is fully validated up front."""
        server, client, _, bench = served
        original = server.app.scheduler.score_sync

        def boom(*args, **kwargs):
            raise error

        server.app.scheduler.score_sync = boom
        try:
            triple = next(iter(bench.test_triples))
            status, body = client.request(
                "POST", "/score", {"triples": [list(triple)]}
            )
        finally:
            server.app.scheduler.score_sync = original
        assert status == 500
        assert str(error) in body["error"]

    def test_unknown_model_is_404(self, served):
        _, client, _, bench = served
        triple = next(iter(bench.test_triples))
        status, body = client.request(
            "POST", "/score", {"triples": [list(triple)], "model": "nope"}
        )
        assert status == 404 and "nope" in body["error"]

    def test_unknown_route_is_404(self, served):
        _, client, _, _ = served
        status, body = client.request("GET", "/bogus")
        assert status == 404 and "error" in body

    def test_query_string_is_ignored_for_routing(self, served):
        _, client, _, _ = served
        status, body = client.request("GET", "/health?verbose=1")
        assert status == 200 and body["status"] == "ok"

    def test_metrics_endpoint_round_trip(self, served):
        server, client, _, bench = served
        triples = [list(t) for t in list(bench.test_triples)[:2]]
        assert client.request("POST", "/score", {"triples": triples})[0] == 200
        status, snap = client.request("GET", "/metrics")
        assert status == 200
        # The scrape excludes itself, so only the POST is guaranteed.
        assert snap["counters"]["serve.http.requests"] >= 1
        assert "span.serve.http.request.ms" in snap["histograms"]
        assert snap["counters"]["serve.scheduler.requests"] >= 1
        # Same data as flat text exposition for curl/grep consumers.
        with urllib.request.urlopen(server.url + "/metrics?format=text") as resp:
            assert resp.headers["Content-Type"].startswith("text/plain")
            text = resp.read().decode("utf-8")
        assert "serve_http_requests_total" in text
        assert 'span_serve_http_request_ms_bucket{le="+Inf"}' in text
