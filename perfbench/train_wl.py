"""Workloads ``train`` and ``train_dp2``: RMPI-TA on FB15k-237.v1.v4.

One *repeat* is: set up (build the benchmark, the model and the trainer),
``Trainer.fit`` for ``spec.TRAIN_EPOCHS`` epochs, then the ranking
protocol (truth + 49 negatives) and the classification protocol on the
fully-unseen test graph.  Every repeat of a run uses the run's seed, so
the loss curves, final weights and quality metrics of all repeats must be
bitwise equal; that is the output check.

Untraced runs time each repeat's set-up, fit, training steps (negative
sampling to the Adam step) and ranking queries with two call-site timers.
A traced run makes two untraced repeats and one traced repeat; the traced
one attributes the fit's wall time to stages.
"""

from __future__ import annotations

import math
import os
import pickle
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

import common
import spec
from tracer import (
    Patcher,
    Tracer,
    install_model_spans,
    worker_counts,
    worker_self_s,
    worker_top_s,
)

common.use_repo_sources()

from repro import autograd  # noqa: E402
from repro.autograd import module as autograd_module  # noqa: E402
from repro.autograd import tensor as autograd_tensor  # noqa: E402
from repro.eval.protocol import (  # noqa: E402
    evaluate_entity_prediction,
    evaluate_triple_classification,
)
from repro.obs import get_registry  # noqa: E402
from repro.parallel import pool as parallel_pool  # noqa: E402
from repro.parallel import trainer as parallel_trainer  # noqa: E402
from repro.train import trainer as serial_trainer  # noqa: E402
from repro.train.trainer import ParallelConfig, TrainingConfig  # noqa: E402
from repro.utils.seeding import seeded_rng  # noqa: E402

#: Stages whose self time is reported per training step.
STEP_STAGES = {
    "kg.negatives_ms": ("kg.negatives",),
    "subgraph.extract_ms": ("subgraph.extract",),
    "subgraph.linegraph_ms": ("subgraph.linegraph",),
    "subgraph.plan_ms": ("subgraph.plan",),
    "core.prepare_ms": ("core.memo", "core.prepare"),
    "core.forward_ms": ("core.forward",),
    "core.merge_ms": ("core.merge",),
    "core.mp_layers_ms": ("core.mp_layers",),
    "core.head_ms": ("core.head",),
    "core.ne_ms": ("core.ne",),
    "autograd.backward_ms": ("autograd.backward",),
    "autograd.optim_ms": ("autograd.optim",),
    "parallel.pool_run_ms": ("parallel.pool_run",),
    "parallel.reduce_ms": ("parallel.reduce",),
}


class StepClock(Patcher):
    """Call-site timers for untraced repeats: per-step latency runs from
    the step's negative sampling to the end of its Adam step."""

    def __init__(self) -> None:
        super().__init__()
        self.step_ms: List[float] = []
        self._started = 0.0

    def install(self, worker_rss: List[float]) -> None:
        clock = self

        def timed_negatives(*args, **kwargs):
            clock._started = common.now()
            return negatives(*args, **kwargs)

        def timed_adam(optimizer):
            adam_step(optimizer)
            clock.step_ms.append((common.now() - clock._started) * 1e3)

        def close(pool):
            # Sample the workers' peak RSS while they are still alive.
            worker_rss.extend(common.peak_rss_mb(pid) for pid in common.child_pids())
            pool_close(pool)

        negatives = self.patch(serial_trainer, "negative_triples", timed_negatives)
        adam_step = self.patch(autograd.Adam, "step", timed_adam)
        pool_close = self.patch(parallel_pool.WorkerPool, "close", close)


def install_train_spans(tracer: Tracer, broadcast_bytes: List[int]) -> None:
    install_model_spans(tracer)
    tracer.wrap(serial_trainer, "negative_triples", "kg.negatives")
    for module in (serial_trainer, parallel_trainer):
        tracer.wrap(module, "margin_ranking_loss", "train.loss")
        tracer.wrap(module, "clip_grad_norm", "autograd.optim")
    tracer.wrap(autograd.Adam, "step", "autograd.optim")
    tracer.wrap(autograd.optim.Optimizer, "zero_grad", "autograd.optim")
    # The step walks the module tree for the parameter list it clips.
    tracer.wrap(autograd_module.Module, "parameters", "autograd.optim")
    tracer.wrap(autograd_tensor.Tensor, "backward", "autograd.backward")
    tracer.wrap(autograd_module.Module, "state_dict", "parallel.broadcast")
    tracer.wrap(autograd_module.Module, "load_state_dict", "parallel.load_params")
    tracer.wrap(parallel_trainer, "reduce_gradients", "parallel.reduce")
    run = parallel_pool.WorkerPool.run

    def pool_run(pool, op, payloads, *args, **kwargs):
        if len(broadcast_bytes) < 3:
            # Payload bytes are computed from the pickled payloads, the
            # same serialisation the pool's queues apply.
            broadcast_bytes.append(
                sum(len(pickle.dumps(p, pickle.HIGHEST_PROTOCOL)) for p in payloads)
            )
        return run(pool, op, payloads, *args, **kwargs)

    tracer.patch(parallel_pool.WorkerPool, "run", pool_run)
    tracer.wrap(parallel_pool.WorkerPool, "run", "parallel.pool_run")


def _setup(seed: int, workers: int):
    started = common.now()
    bench = spec.build_train_benchmark()
    bench.train_graph.warm()
    bench.fully_test_graph.warm()
    model = spec.build_train_model(bench.num_relations, seed)
    config = TrainingConfig(
        epochs=spec.TRAIN_EPOCHS,
        batch_size=spec.BATCH_SIZE,
        learning_rate=spec.LEARNING_RATE,
        margin=spec.MARGIN,
        seed=seed,
        parallel=ParallelConfig(workers=workers),
    )
    cls = parallel_trainer.DataParallelTrainer if workers > 1 else serial_trainer.Trainer
    trainer = cls(model, bench.train_graph, bench.train_triples, config=config)
    return common.now() - started, bench, model, trainer


def _evaluate(bench, model, seed: int) -> Tuple[Dict[str, float], List[float], float]:
    """Both protocols; returns ``(quality, per-query ranking ms, ranking s)``."""
    graph, targets = bench.fully_test_graph, bench.fully_test_triples
    query_ms: List[float] = []
    score = model.score_triples

    def timed_score(*args, **kwargs):
        started = common.now()
        result = score(*args, **kwargs)
        query_ms.append((common.now() - started) * 1e3)
        return result

    model.score_triples = timed_score
    started = common.now()
    try:
        ranking = evaluate_entity_prediction(
            model, graph, targets, seeded_rng((seed, 2)), num_negatives=spec.NUM_NEGATIVES
        )
    finally:
        del model.score_triples
    rank_s = common.now() - started
    classification = evaluate_triple_classification(
        model, graph, targets, seeded_rng((seed, 3))
    )
    quality = {
        "mrr": ranking.mrr,
        "hits_at_10": ranking.hits_at_10,
        "auc_pr": classification.auc_pr,
    }
    return quality, query_ms, rank_s


def _repeat(seed: int, workers: int, tracer: Optional[Tracer] = None) -> Dict[str, Any]:
    worker_rss: List[float] = []
    clock = StepClock()
    setup_s, bench, model, trainer = _setup(seed, workers)
    registry = get_registry()
    before = registry.snapshot()
    clock.install(worker_rss)
    try:
        started = common.now()
        if tracer is None:
            history = trainer.fit()
        else:
            with tracer.span("train.fit"):
                history = trainer.fit()
        fit_s = common.now() - started
    finally:
        clock.restore()
    after = registry.snapshot()
    cache_entries = model.cache_size()
    if tracer is None:
        quality, query_ms, rank_s = _evaluate(bench, model, seed)
    else:
        with tracer.span("eval.rank"):
            quality, query_ms, rank_s = _evaluate(bench, model, seed)
    return {
        "setup_s": setup_s,
        "fit_s": fit_s,
        "positives": len(bench.train_triples) * spec.TRAIN_EPOCHS,
        "losses": list(history.losses),
        "state": model.state_dict(),
        "quality": quality,
        "step_ms": clock.step_ms,
        "query_ms": query_ms,
        "rank_s": rank_s,
        "worker_rss_mb": sum(worker_rss),
        "registry_before": before,
        "registry_after": after,
        "cache_entries": cache_entries,
    }


def _same(a: Dict[str, Any], b: Dict[str, Any]) -> bool:
    """Bitwise agreement of two repeats at one seed."""
    if a["losses"] != b["losses"] or a["quality"] != b["quality"]:
        return False
    return all(np.array_equal(a["state"][k], b["state"][k]) for k in a["state"])


def _check(repeats: List[Dict[str, Any]]) -> Tuple[int, int]:
    """``(attempted, failed)`` operations: training steps and ranking
    queries.  A repeat that disagrees with the first, or has a non-finite
    loss, fails all of its operations."""
    attempted = failed = 0
    for repeat in repeats:
        ops = len(repeat["step_ms"]) + len(repeat["query_ms"])
        attempted += ops
        finite = all(math.isfinite(loss) for loss in repeat["losses"])
        if not finite or not _same(repeats[0], repeat):
            failed += ops
    return attempted, failed


def run(workload: str, seed: int, seconds: float, trace: bool) -> Dict[str, Any]:
    workers = spec.DP_WORKERS if workload == "train_dp2" else 1
    if trace:
        return _run_traced(seed, workers)
    count = max(spec.MIN_REPEATS, round(seconds / spec.REPEAT_SECONDS[workload]))
    repeats = [_repeat(seed, workers) for _ in range(count)]
    attempted, failed = _check(repeats)
    step_ms = [ms for r in repeats for ms in r["step_ms"]]
    query_ms = [ms for r in repeats for ms in r["query_ms"]]
    quality = repeats[0]["quality"]
    rss = common.peak_rss_mb(os.getpid()) + max(
        r["worker_rss_mb"] for r in repeats
    )
    setups = [r["setup_s"] for r in repeats]
    while len(setups) < spec.SETUP_REPEATS:
        setups.append(_setup(seed, workers)[0])
    values = {
        "setup_s": common.median(setups),
        "peak_rss_mb": rss,
        "ok_share": (attempted - failed) / attempted,
        "throughput_per_s": common.median(r["positives"] / r["fit_s"] for r in repeats),
        "latency_p50_ms.light": common.percentile(query_ms, 50),
        "latency_p50_ms.heavy": common.percentile(step_ms, 50),
        "mrr": quality["mrr"],
        "hits_at_10": quality["hits_at_10"],
        "auc_pr": quality["auc_pr"],
    }
    return {"attempted": attempted, "failed": failed, "values": values}


def _run_traced(seed: int, workers: int) -> Dict[str, Any]:
    # The first repeat in a process also pays one-time costs; the
    # untraced baseline for the overhead is the second.
    warmup = _repeat(seed, workers)
    baseline = _repeat(seed, workers)
    tracer = Tracer()
    broadcast_bytes: List[int] = []
    install_train_spans(tracer, broadcast_bytes)
    try:
        traced = _repeat(seed, workers, tracer)
    finally:
        tracer.restore()
    common.write_spans(f"train_w{workers}", tracer.records())
    attempted, failed = _check([warmup, baseline, traced])

    delta = _registry_delta(traced["registry_before"], traced["registry_after"])
    workers_self = worker_self_s(delta)
    counts = dict(tracer.counts)
    for name, value in worker_counts(delta).items():
        counts[name] = counts.get(name, 0.0) + value
    steps = len(traced["step_ms"])

    def stage_ms(names) -> float:
        total = sum(
            tracer.self_s(n, "train.fit") + workers_self.get(n, 0.0) for n in names
        )
        return total * 1e3 / steps

    values = {metric: stage_ms(names) for metric, names in STEP_STAGES.items()}
    fit_total = tracer.total_s("train.fit")
    lookups = counts.get("core.lookups", 0.0)
    enclosing = counts.get("subgraph.enclosing", 0.0)
    step_hist = delta["histograms"].get("span.train.step.ms", {})
    pool_run_ms = values["parallel.pool_run_ms"]
    compute_ms = (
        worker_top_s(delta) * 1e3 / (steps * workers) if workers > 1 else 0.0
    )
    query_count = len(traced["query_ms"])
    values.update(
        {
            "subgraph.empty_share": counts.get("subgraph.empty", 0.0) / enclosing
            if enclosing
            else 0.0,
            "subgraph.nodes_per_sample": counts.get("subgraph.nodes", 0.0) / enclosing
            if enclosing
            else 0.0,
            "core.prepare_hit_share": 1.0 - counts.get("core.misses", 0.0) / lookups
            if lookups
            else 0.0,
            "core.sample_cache_entries": float(traced["cache_entries"]),
            "train.step_ms": step_hist.get("sum", 0.0) / max(1, step_hist.get("count", 0)),
            "train.unattributed_share": tracer.self_s("train.fit", "train.fit")
            / fit_total,
            "eval.rank_ms_per_query": traced["rank_s"] * 1e3 / query_count,
            "parallel.worker_compute_ms": compute_ms,
            "parallel.dispatch_overhead_ms": pool_run_ms - compute_ms
            if workers > 1
            else 0.0,
            "parallel.broadcast_bytes": float(common.median(broadcast_bytes))
            if broadcast_bytes
            else 0.0,
            "parallel.restarts": delta["counters"].get("parallel.pool.restarts", 0.0),
            "parallel.retries": delta["counters"].get("parallel.pool.retries", 0.0),
            "latency_p95_ms.light": common.percentile(baseline["query_ms"], 95),
            "latency_p95_ms.heavy": common.percentile(baseline["step_ms"], 95),
            "obs.tracing_overhead_share": traced["fit_s"] / baseline["fit_s"] - 1.0,
        }
    )
    return {"attempted": attempted, "failed": failed, "values": values}


def _registry_delta(before: Dict[str, Any], after: Dict[str, Any]) -> Dict[str, Any]:
    """Counter and histogram-sum differences between two snapshots."""
    counters = {
        name: value - before["counters"].get(name, 0.0)
        for name, value in after["counters"].items()
    }
    histograms = {}
    for name, data in after["histograms"].items():
        old = before["histograms"].get(name, {"sum": 0.0, "count": 0})
        histograms[name] = {
            "sum": data["sum"] - old["sum"],
            "count": data["count"] - old["count"],
        }
    return {"counters": counters, "histograms": histograms}
