"""Chaos suite for :mod:`repro.faults` and the self-healing worker pool.

The plan layer itself (spec matching, firing budgets, JSON round-trips,
activation precedence) runs everywhere; the pool scenarios fork real
workers and ``kill -9`` them mid-run, asserting the supervision story:
respawn at the same rank and seed, requeue the lost shard, and produce
results **bitwise identical** to a serial run — faults change latency,
never answers.  Everything here is marked ``chaos``; the pool cases are
additionally ``parallel`` (CI runs them in both the chaos step and the
parallel-and-slow job).
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.eval.protocol import evaluate_entity_prediction
from repro.faults import (
    ENV_PLAN_VAR,
    NO_FAULTS,
    FaultInjected,
    FaultPlan,
    FaultSpec,
    activate,
    active_plan,
    deactivate,
    inject,
    plan_from_env,
)
from repro.kg import TripleSet
from repro.obs import MetricsRegistry, set_registry
from repro.parallel import (
    ParallelEvaluator,
    ShardedPreparer,
    WorkerError,
    WorkerPool,
)
from repro.parallel.pool import fork_available, register_op
from repro.parallel.trainer import DataParallelTrainer
from repro.train import ParallelConfig, TrainingConfig

from test_parallel_equivalence import (
    TRIPLES,
    assert_samples_equal,
    capped,
    make_model,
    small_graph,
)

pytestmark = pytest.mark.chaos

needs_fork = pytest.mark.skipif(
    not fork_available(), reason="fork start method unavailable"
)


@register_op("chaos.scale")
def _chaos_scale(state, payload):
    factor = state["context"].get("factor", 2)
    return [value * factor for value in payload]


@pytest.fixture(autouse=True)
def _pristine_faults(monkeypatch):
    """No plan active and no env plan cached, before and after every test."""
    monkeypatch.delenv(ENV_PLAN_VAR, raising=False)
    deactivate()
    yield
    deactivate()


@pytest.fixture
def obs_registry():
    fresh = MetricsRegistry()
    previous = set_registry(fresh)
    try:
        yield fresh
    finally:
        set_registry(previous)


def kill_once(op, rank):
    return FaultPlan([FaultSpec(op=op, kind="kill", rank=rank)])


# ----------------------------------------------------------------------
class TestFaultSpec:
    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="kind"):
            FaultSpec(op="prepare", kind="explode")

    def test_rejects_zero_times(self):
        with pytest.raises(ValueError, match="times"):
            FaultSpec(op="prepare", kind="kill", times=0)

    def test_rejects_negative_latency(self):
        with pytest.raises(ValueError, match="latency"):
            FaultSpec(op="prepare", kind="latency", latency_s=-1.0)

    def test_none_fields_are_wildcards(self):
        spec = FaultSpec(op="prepare", kind="kill")
        assert spec.matches("prepare", 0, 0)
        assert spec.matches("prepare", 3, 17)
        assert not spec.matches("score_queries", 0, 0)

    def test_star_op_matches_everything(self):
        spec = FaultSpec(op="*", kind="error")
        assert spec.matches("prepare", 1, 2)
        assert spec.matches("serve.dispatch", 0, 0)

    def test_exact_key_is_exact(self):
        spec = FaultSpec(op="prepare", kind="kill", rank=1, task_index=2)
        assert spec.matches("prepare", 1, 2)
        assert not spec.matches("prepare", 1, 3)
        assert not spec.matches("prepare", 0, 2)


class TestFaultPlan:
    def test_take_respects_times_budget(self):
        plan = FaultPlan([FaultSpec(op="prepare", kind="error", times=2)])
        assert plan.take("prepare", 0, 0) is not None
        assert plan.take("prepare", 0, 1) is not None
        assert plan.take("prepare", 0, 2) is None
        assert plan.fired() == 2
        plan.reset()
        assert plan.take("prepare", 0, 0) is not None

    def test_first_matching_spec_wins(self):
        first = FaultSpec(op="prepare", kind="latency", latency_s=0.1)
        second = FaultSpec(op="prepare", kind="error")
        plan = FaultPlan([first, second])
        assert plan.take("prepare", 0, 0) is first
        assert plan.take("prepare", 0, 1) is second

    def test_kinds_filter_leaves_spec_unclaimed(self):
        plan = FaultPlan([FaultSpec(op="prepare", kind="kill")])
        # An inline consultation point cannot execute a kill: the spec
        # must survive for a consultation point that can.
        assert plan.take("prepare", 0, 0, kinds=("error", "latency")) is None
        assert plan.fired() == 0
        assert plan.take("prepare", 0, 0) is not None

    def test_json_round_trip(self):
        plan = FaultPlan(
            [
                FaultSpec(op="prepare", kind="kill", rank=1, times=3),
                FaultSpec(op="*", kind="latency", latency_s=0.5, message="slow"),
            ]
        )
        assert FaultPlan.from_json(plan.to_json()).as_dict() == plan.as_dict()

    def test_from_dict_accepts_faults_alias(self):
        plan = FaultPlan.from_dict(
            {"faults": [{"op": "prepare", "kind": "error"}]}
        )
        assert len(plan) == 1 and plan.specs[0].kind == "error"

    def test_from_dict_rejects_non_list(self):
        with pytest.raises(ValueError, match="specs"):
            FaultPlan.from_dict({"specs": {"op": "prepare"}})

    def test_from_cli_inline_and_file(self, tmp_path):
        text = FaultPlan([FaultSpec(op="prepare", kind="drop")]).to_json()
        assert FaultPlan.from_cli(text).specs[0].kind == "drop"
        path = tmp_path / "plan.json"
        path.write_text(text, encoding="utf-8")
        assert FaultPlan.from_cli(f"@{path}").specs[0].kind == "drop"

    def test_take_counts_injections(self, obs_registry):
        plan = FaultPlan([FaultSpec(op="prepare", kind="error")])
        plan.take("prepare", 0, 0)
        assert obs_registry.counter_value("faults.injected") == 1
        assert obs_registry.counter_value("faults.injected.error") == 1

    def test_empty_plan_is_falsy_noop(self):
        assert not NO_FAULTS
        assert NO_FAULTS.take("anything", 0, 0) is None


class TestActivation:
    def test_default_is_the_noop_plan(self):
        assert active_plan() is NO_FAULTS

    def test_env_plan_is_parsed_lazily(self, monkeypatch):
        text = FaultPlan([FaultSpec(op="prepare", kind="error")]).to_json()
        monkeypatch.setenv(ENV_PLAN_VAR, text)
        deactivate()  # drop the cached env plan so the new value is read
        plan = active_plan()
        assert len(plan) == 1 and plan.specs[0].op == "prepare"
        assert active_plan() is plan  # cached, not re-parsed

    def test_plan_from_env_explicit_environ(self):
        text = FaultPlan([FaultSpec(op="x", kind="drop")]).to_json()
        assert plan_from_env({ENV_PLAN_VAR: text}).specs[0].kind == "drop"
        assert plan_from_env({}) is NO_FAULTS

    def test_activate_beats_env_and_deactivate_restores(self, monkeypatch):
        monkeypatch.setenv(
            ENV_PLAN_VAR,
            FaultPlan([FaultSpec(op="env", kind="error")]).to_json(),
        )
        deactivate()
        explicit = FaultPlan([FaultSpec(op="explicit", kind="error")])
        activate(explicit)
        assert active_plan() is explicit
        deactivate()
        monkeypatch.delenv(ENV_PLAN_VAR)
        assert active_plan() is NO_FAULTS

    def test_inject_restores_previous_plan(self):
        outer = FaultPlan([FaultSpec(op="outer", kind="error")])
        inner = FaultPlan([FaultSpec(op="inner", kind="error")])
        activate(outer)
        with inject(inner):
            assert active_plan() is inner
        assert active_plan() is outer


# ----------------------------------------------------------------------
@needs_fork
@pytest.mark.parallel
class TestPoolChaos:
    def test_kill_respawns_requeues_and_matches(self, obs_registry):
        with WorkerPool(2, context={"factor": 3}) as pool:
            plan = kill_once("chaos.scale", 1)
            with inject(plan):
                assert pool.run("chaos.scale", [[1, 2], [3, 4]]) == [
                    [3, 6],
                    [9, 12],
                ]
            assert plan.fired() == 1
            # The pool healed: same call again, no faults left.
            assert pool.run("chaos.scale", [[5], [6]]) == [[15], [18]]
        assert obs_registry.counter_value("parallel.pool.restarts") == 1
        assert obs_registry.counter_value("parallel.pool.retries") == 1
        assert obs_registry.counter_value("faults.injected.kill") == 1

    @pytest.mark.parametrize("workers", (2, 4))
    def test_kill_at_every_rank_prepare_parity(
        self, workers, max_workers, obs_registry
    ):
        """The acceptance bar: kill -9 at each rank in turn; the sharded
        prepare must still be bitwise identical to the serial run."""
        workers = capped(workers, max_workers)
        graph = small_graph()
        targets = TRIPLES[:7]
        reference = make_model().prepare_many(graph, targets)
        model = make_model()
        with ShardedPreparer(model, graph, workers=workers) as preparer:
            for rank in range(workers):
                model.clear_cache()
                with inject(kill_once("prepare", rank)) as plan:
                    produced = preparer.prepare_many(graph, targets)
                assert plan.fired() == 1, f"kill at rank {rank} never fired"
                assert_samples_equal(reference, produced)
        assert obs_registry.counter_value("parallel.pool.restarts") == workers

    def test_kill_during_parallel_eval_is_bitwise(self, max_workers, obs_registry):
        workers = capped(2, max_workers)
        graph = small_graph()
        targets = TripleSet(TRIPLES[:5])
        reference = evaluate_entity_prediction(
            make_model(), graph, targets, np.random.default_rng(5), num_negatives=7
        )
        model = make_model()
        with ParallelEvaluator(model, graph, workers=workers) as evaluator:
            with inject(kill_once("score_queries", 1)) as plan:
                produced = evaluator.entity_prediction(
                    targets, np.random.default_rng(5), num_negatives=7
                )
        assert plan.fired() == 1
        assert produced == reference
        assert obs_registry.counter_value("parallel.pool.restarts") == 1

    def test_kill_during_train_step_is_bitwise(self, max_workers, obs_registry):
        """Kill a rank mid-``train_step``: the respawned worker must reload
        the broadcast params and re-run the lost shard to a **bitwise
        identical** checkpoint."""
        workers = capped(2, max_workers)
        graph = small_graph()
        train = TripleSet(TRIPLES[:9])

        def fit(plan=None):
            model = make_model()
            config = TrainingConfig(
                epochs=2,
                batch_size=5,
                seed=3,
                parallel=ParallelConfig(workers=workers),
            )
            trainer = DataParallelTrainer(model, graph, train, config=config)
            if plan is None:
                history = trainer.fit()
            else:
                with inject(plan):
                    history = trainer.fit()
            return model.state_dict(), history

        reference, reference_history = fit()
        plan = kill_once("train_step", 1)
        produced, history = fit(plan)
        assert plan.fired() == 1, "the mid-step kill never fired"
        assert history.losses == reference_history.losses
        for name, value in reference.items():
            assert np.array_equal(produced[name], value), name
        assert obs_registry.counter_value("parallel.pool.restarts") == 1

    def test_injected_op_error_fails_fast_with_provenance(self, obs_registry):
        with WorkerPool(2) as pool:
            plan = FaultPlan(
                [FaultSpec(op="chaos.scale", kind="error", rank=0, message="boom")]
            )
            with inject(plan):
                with pytest.raises(WorkerError) as excinfo:
                    pool.run("chaos.scale", [[1], [2]])
            message = str(excinfo.value)
            # Application errors are not infrastructure failures: no retry,
            # one attempt, full provenance.
            assert "1 attempt(s)" in message
            assert "FaultInjected: boom" in message
            # The failed run must not poison the pool.
            assert pool.run("chaos.scale", [[1], [2]]) == [[2], [4]]
        assert obs_registry.counter_value("parallel.pool.retries") == 0

    def test_dropped_result_is_rescued_by_deadline(self, obs_registry):
        with WorkerPool(2, task_deadline_s=0.4) as pool:
            plan = FaultPlan([FaultSpec(op="chaos.scale", kind="drop", rank=0)])
            with inject(plan):
                assert pool.run("chaos.scale", [[1], [2]]) == [[2], [4]]
            assert plan.fired() == 1
        assert obs_registry.counter_value("parallel.pool.deadline_expired") >= 1
        assert obs_registry.counter_value("parallel.pool.restarts") >= 1

    def test_wedged_worker_is_rescued_by_deadline(self, obs_registry):
        with WorkerPool(2, task_deadline_s=0.4) as pool:
            plan = FaultPlan(
                [FaultSpec(op="chaos.scale", kind="latency", rank=1, latency_s=60.0)]
            )
            started = time.monotonic()
            with inject(plan):
                assert pool.run("chaos.scale", [[1], [2]]) == [[2], [4]]
            # Rescued by the deadline, not by waiting the latency out.
            assert time.monotonic() - started < 10.0
        assert obs_registry.counter_value("parallel.pool.deadline_expired") >= 1

    def test_retry_budget_exhaustion_reports_history(self, obs_registry):
        with WorkerPool(2, max_task_retries=1) as pool:
            plan = FaultPlan(
                [FaultSpec(op="chaos.scale", kind="kill", rank=0, times=10)]
            )
            with inject(plan):
                with pytest.raises(WorkerError) as excinfo:
                    pool.run("chaos.scale", [[1], [2]])
            message = str(excinfo.value)
            assert "retry budget exhausted (1 retries)" in message
            assert "2 attempt(s)" in message  # initial dispatch + 1 retry
            assert "attempt history" in message and "died" in message
            assert plan.fired() == 2
            # Supervision respawned the killer rank before giving up.
            assert pool.run("chaos.scale", [[1], [2]]) == [[2], [4]]
        assert obs_registry.counter_value("parallel.pool.restarts") == 2

    def test_close_escalates_past_a_wedged_worker(self):
        pool = WorkerPool(2, close_timeout_s=0.3)
        assert pool.run("chaos.scale", [[1], [2]]) == [[2], [4]]
        # Wedge rank 1 outside run() so close() owns the whole cleanup:
        # a worker stuck mid-op cannot make close() hang.
        pool._task_queues[1].put(
            (0, 10**9, "chaos.scale", [1], {"kind": "latency", "latency_s": 60.0})
        )
        time.sleep(0.3)  # let the worker pick the task up and wedge
        started = time.monotonic()
        pool.close()
        assert time.monotonic() - started < 5.0
        with pytest.raises(RuntimeError, match="closed"):
            pool.run("chaos.scale", [[1]])


# ----------------------------------------------------------------------
class TestInlinePool:
    """workers=1 runs ops in the parent: kills/drops are inexecutable and
    must be left for a consultation point that can honour them."""

    def test_kill_and_drop_are_skipped(self):
        plan = FaultPlan(
            [
                FaultSpec(op="chaos.scale", kind="kill"),
                FaultSpec(op="chaos.scale", kind="drop"),
            ]
        )
        with WorkerPool(1) as pool:
            assert pool.is_inline
            with inject(plan):
                assert pool.run("chaos.scale", [[1, 2]]) == [[2, 4]]
        assert plan.fired() == 0

    def test_error_raises_fault_injected(self):
        plan = FaultPlan([FaultSpec(op="chaos.scale", kind="error", message="inl")])
        with WorkerPool(1) as pool:
            with inject(plan):
                with pytest.raises(FaultInjected, match="inl"):
                    pool.run("chaos.scale", [[1]])
            # The plan is spent; the pool keeps working.
            assert pool.run("chaos.scale", [[1]]) == [[2]]

    def test_latency_applies(self):
        plan = FaultPlan(
            [FaultSpec(op="chaos.scale", kind="latency", latency_s=0.05)]
        )
        with WorkerPool(1) as pool:
            started = time.monotonic()
            with inject(plan):
                assert pool.run("chaos.scale", [[1]]) == [[2]]
            assert time.monotonic() - started >= 0.05
