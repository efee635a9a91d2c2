"""Workloads ``query_cold`` and ``query_hot``: open-loop HTTP traffic
against a :class:`repro.serve.ServingServer` serving RMPI-NE on the
semi-unseen test graph of NELL-995.v1.v3, in its own process
(``perfbench/server.py``), so the generator never competes with it for the
interpreter lock.

``query_cold`` sends ``POST /topk`` with a fresh ``(head, relation)``
anchor and 50 explicit candidates per request: the score cache and the
sample memo always miss, and the memo is never cleared, so its growth
shows in ``peak_rss_mb``.  ``query_hot`` pre-warms a hot set of
``spec.HOT_SET`` triples and then sends single-triple ``POST /score``
requests drawn uniformly from it: almost every request is a score-cache
hit.

Each workload runs two fixed rates (``light``, ``heavy``, from
``spec.SERVING``) and a closed-loop ``capacity`` phase in alternating
rounds.  Goodput is the rate of requests that succeed within the
workload's latency limit in the capacity phase, where clients send back
to back, so a faster server reads higher.  Output
checks: sampled ``query_cold`` responses must match an in-process
replica's ``score_triples_fused`` within tolerance and rank the same top
k; every ``query_hot`` score must equal the triple's cold score from the
pre-warm.  The quality probe runs the paper's ranking and classification
protocols (``repro.eval.protocol.evaluate_both``) with the server as the
scorer.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from typing import Any, Dict, List, Tuple

import numpy as np

import common
import loadgen
import spec

common.use_repo_sources()

from repro.eval.protocol import candidate_entity_pool, evaluate_both  # noqa: E402
from repro.kg.triples import TripleSet  # noqa: E402
from repro.utils.seeding import seeded_rng  # noqa: E402

PHASES = ("light", "heavy", "capacity")
SCORE_CHUNK = 50


class ServerProcess:
    """``perfbench/server.py`` as a child process, driven over its stdin."""

    def __init__(self) -> None:
        started = common.now()
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(common.ROOT, "perfbench", "server.py")],
            cwd=common.ROOT,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        line = self.proc.stdout.readline()
        if not line:
            self.stop()
            raise RuntimeError("serving process exited before it was ready")
        self.setup_s = common.now() - started
        self.port = int(json.loads(line)["port"])

    def command(self, name: str) -> Dict[str, Any]:
        self.proc.stdin.write(name + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"serving process exited on {name!r}")
        return json.loads(line)

    def stop(self) -> None:
        try:
            self.proc.stdin.write("stop\n")
            self.proc.stdin.close()
            self.proc.wait(timeout=30)
        except (OSError, subprocess.TimeoutExpired):
            self.proc.kill()
            self.proc.wait()

    def __enter__(self) -> "ServerProcess":
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()


# -- traffic ---------------------------------------------------------------
class Traffic:
    """Seeded request payloads for one run."""

    def __init__(self, workload: str, seed: int, graph) -> None:
        self.workload = workload
        self.rng = seeded_rng((seed, 17))
        self.entities = np.asarray(candidate_entity_pool(graph), dtype=np.int64)
        self.relations = np.asarray(sorted(graph.triples.relation_ids()), dtype=np.int64)
        self._used: set = set()
        if workload == "query_hot":
            triples = list(graph.triples)
            picks = self.rng.choice(len(triples), spec.HOT_SET, replace=False)
            self.hot = [tuple(int(x) for x in triples[i]) for i in picks]

    def payloads(self, count: int) -> List[Dict[str, Any]]:
        if self.workload == "query_hot":
            picks = self.rng.integers(spec.HOT_SET, size=count)
            return [{"triples": [list(self.hot[i])]} for i in picks]
        out = []
        while len(out) < count:
            head = int(self.rng.choice(self.entities))
            relation = int(self.rng.choice(self.relations))
            if (head, relation) in self._used:
                continue  # every anchor is fresh: the memo must miss
            self._used.add((head, relation))
            candidates = self.rng.choice(self.entities, spec.CANDIDATES, replace=False)
            out.append(
                {
                    "head": head,
                    "relation": relation,
                    "candidates": [int(c) for c in candidates],
                    "k": spec.TOPK,
                    "exclude_known": False,
                }
            )
        return out


def round_size(config: Dict[str, Any], phase: str, seconds: float) -> int:
    """Requests of one phase in one round: ``capacity_requests`` for the
    closed-loop phase; for a rate at least ``round_requests``, more when
    ``--seconds`` leaves room."""
    if phase == "capacity":
        return config["capacity_requests"]
    share = seconds / (len(PHASES) * config["rounds"])
    return max(config["round_requests"], int(config["rates"][phase] * share))


# -- output checks -----------------------------------------------------------
def _close(served: float, expected: float) -> bool:
    return abs(served - expected) <= spec.SCORE_ATOL + spec.SCORE_RTOL * abs(expected)


def check_topk(replica, graph, payload: Dict[str, Any], body: Dict[str, Any]) -> bool:
    """Served top-k against the replica's fused scores of all candidates."""
    triples = [(payload["head"], payload["relation"], c) for c in payload["candidates"]]
    scores = replica.score_triples_fused(graph, triples)
    expected = {c: float(s) for c, s in zip(payload["candidates"], scores)}
    served = [(int(p["entity"]), float(p["score"])) for p in body["predictions"]]
    if len(served) != min(spec.TOPK, len(expected)):
        return False
    if not all(_close(score, expected[entity]) for entity, score in served):
        return False
    tol = spec.SCORE_ATOL + spec.SCORE_RTOL * max(abs(v) for v in expected.values())
    ranked = [expected[entity] for entity, _ in served]
    if any(later > earlier + tol for earlier, later in zip(ranked, ranked[1:])):
        return False  # order differs beyond round-off
    chosen = {entity for entity, _ in served}
    rest = [v for c, v in expected.items() if c not in chosen]
    return not rest or max(rest) <= min(ranked) + tol


def prewarm(port: int, replica, graph, hot: List[Tuple[int, int, int]]) -> Tuple[Dict, int, int]:
    """Score the hot set once (cache misses); returns the cold scores and
    ``(attempted, failed)`` -- each chunk must match the replica."""
    cold: Dict[Tuple[int, int, int], float] = {}
    attempted = failed = 0
    for start in range(0, len(hot), SCORE_CHUNK):
        chunk = hot[start : start + SCORE_CHUNK]
        attempted += 1
        body = loadgen.call(port, "POST", "/score", {"triples": [list(t) for t in chunk]})
        expected = replica.score_triples_fused(graph, chunk)
        if not all(_close(s, float(e)) for s, e in zip(body["scores"], expected)):
            failed += 1
        cold.update(zip(chunk, (float(s) for s in body["scores"])))
    return cold, attempted, failed


def check_phase(workload, phase, payloads, replica, graph, cold, offset) -> int:
    """Failed output checks among a phase's successful responses."""
    failed = 0
    for index, (payload, record) in enumerate(zip(payloads, phase.requests)):
        if record.status != 200:
            continue
        if workload == "query_hot":
            triple = tuple(payload["triples"][0])
            if record.body["scores"] != [cold[triple]]:
                failed += 1
        elif (index + offset) % spec.CHECK_EVERY == 0:
            if not check_topk(replica, graph, payload, record.body):
                failed += 1
    return failed


class RemoteScorer:
    """A :class:`repro.eval.protocol.TripleScorer` that scores through the
    server's ``POST /score``, in chunks of ``SCORE_CHUNK`` triples."""

    def __init__(self, port: int) -> None:
        self.port = port
        self.requests = 0

    def score_triples(self, graph, triples) -> np.ndarray:
        scores: List[float] = []
        for start in range(0, len(triples), SCORE_CHUNK):
            chunk = [list(map(int, t)) for t in triples[start : start + SCORE_CHUNK]]
            body = loadgen.call(self.port, "POST", "/score", {"triples": chunk})
            scores.extend(body["scores"])
            self.requests += 1
        return np.asarray(scores, dtype=np.float64)


def quality_probe(port: int, graph, bench) -> Tuple[Dict[str, float], int]:
    """MRR / Hits@10 / AUC-PR of the served model on held-out triples, by
    the paper's protocols with the server as the scorer.  Fixed inputs:
    the same on every seed."""
    scorer = RemoteScorer(port)
    targets = TripleSet(list(bench.semi_test_triples)[: spec.PROBE_QUERIES])
    report = evaluate_both(
        scorer, graph, targets, seed=spec.DATA_SEED, num_negatives=spec.NUM_NEGATIVES
    )
    quality = {
        "mrr": report.ranking.mrr,
        "hits_at_10": report.ranking.hits_at_10,
        "auc_pr": report.classification.auc_pr,
    }
    return quality, scorer.requests


# -- runs --------------------------------------------------------------------
def run(workload: str, seed: int, seconds: float, trace: bool) -> Dict[str, Any]:
    config = spec.SERVING[workload]
    graph, bench = spec.build_serving_data()
    replica = spec.build_served_model(bench.num_relations)
    traffic = Traffic(workload, seed, graph)
    if trace:
        return _run_traced(workload, config, traffic, replica, graph, seconds)

    setups = []
    for _ in range(spec.SETUP_REPEATS - 1):
        with ServerProcess() as server:
            setups.append(server.setup_s)
    with ServerProcess() as server:
        setups.append(server.setup_s)
        attempted = failed = 0
        cold: Dict = {}
        if workload == "query_hot":
            cold, attempted, failed = prewarm(server.port, replica, graph, traffic.hot)
        # Rates alternate in short rounds, and each statistic is the median
        # over rounds, so a burst of machine noise moves one round of one
        # rate instead of a whole rate.
        rounds: Dict[str, List[loadgen.Phase]] = {name: [] for name in PHASES}
        for _ in range(config["rounds"]):
            for name in PHASES:
                rate = config["rates"].get(name)  # None: closed loop
                senders = config["capacity_senders"] if rate is None else spec.SENDERS
                payloads = traffic.payloads(round_size(config, name, seconds))
                phase = loadgen.run_phase(
                    server.port, config["route"], payloads, rate, senders
                )
                rounds[name].append(phase)
                attempted += len(phase.requests)
                failed += phase.failed
                failed += check_phase(workload, phase, payloads, replica, graph, cold, seed)
        stats = server.command("stats")
        quality, probe_requests = quality_probe(server.port, graph, bench)
        attempted += probe_requests

    def over_rounds(name: str, statistic) -> float:
        return common.median(statistic(phase) for phase in rounds[name])

    lags = [r.lag * 1e3 for phases in rounds.values() for p in phases for r in p.requests]
    lag_ok = common.percentile(lags, 95) <= spec.MAX_LAG_P95_MS
    values = {
        "setup_s": common.median(setups),
        "peak_rss_mb": stats["rss_mb"],
        "ok_share": (attempted - failed) / attempted,
        "throughput_per_s": over_rounds(
            "capacity", lambda p: p.goodput_per_s(config["limit_ms"])
        ),
        "latency_p50_ms.light": over_rounds("light", lambda p: p.latency_ms(50)),
        "latency_p50_ms.heavy": over_rounds("heavy", lambda p: p.latency_ms(50)),
        **quality,
    }
    return {"attempted": attempted, "failed": failed, "valid": lag_ok, "values": values}


def _run_traced(workload, config, traffic, replica, graph, seconds) -> Dict[str, Any]:
    with ServerProcess() as server:
        attempted = failed = 0
        cold: Dict = {}
        if workload == "query_hot":
            cold, attempted, failed = prewarm(server.port, replica, graph, traffic.hot)
        def phase(name: str):
            rate = config["rates"][name]
            count = config["rounds"] * round_size(config, name, seconds)
            payloads = traffic.payloads(count)
            return payloads, loadgen.run_phase(
                server.port, config["route"], payloads, rate, spec.SENDERS
            )

        # The same two rates untraced, then traced: tail latency and the
        # tracing overhead come from the pair.
        untraced = {name: phase(name) for name in ("light", "heavy")}
        before = server.command("trace_on")
        traced = {name: phase(name) for name in ("light", "heavy")}
        report = server.command("trace_off")
    for payloads, result in list(untraced.values()) + list(traced.values()):
        attempted += len(result.requests)
        failed += result.failed
        failed += check_phase(workload, result, payloads, replica, graph, cold, 0)

    requests = report["requests"]
    count = len(requests)
    counters = {
        name: value - before["counters"].get(name, 0.0)
        for name, value in report["counters"].items()
    }
    sched = {k: report["scheduler"][k] - before["scheduler"][k] for k in ("requests", "batches", "triples")}
    hits = counters.get("serve.cache.hits", 0.0)
    lookups = hits + counters.get("serve.cache.misses", 0.0)
    stage = report["stage_self_s"]
    counts = report["counts"]
    enclosing = counts.get("subgraph.enclosing", 0.0)
    memo_lookups = counts.get("core.lookups", 0.0)
    total_s = sum(r["total_s"] for r in requests)
    all_requests = [r for _, result in traced.values() for r in result.requests]

    def per_request_ms(*names: str) -> float:
        return sum(stage.get(n, 0.0) for n in names) * 1e3 / count

    values = {
        "subgraph.extract_ms": per_request_ms("subgraph.extract"),
        "subgraph.linegraph_ms": per_request_ms("subgraph.linegraph"),
        "subgraph.plan_ms": per_request_ms("subgraph.plan"),
        "subgraph.empty_share": counts.get("subgraph.empty", 0.0) / enclosing
        if enclosing
        else 0.0,
        "subgraph.nodes_per_sample": counts.get("subgraph.nodes", 0.0) / enclosing
        if enclosing
        else 0.0,
        "core.prepare_hit_share": 1.0 - counts.get("core.misses", 0.0) / memo_lookups
        if memo_lookups
        else 0.0,
        "core.sample_cache_entries": float(report["cache_entries"]),
        "core.prepare_ms": per_request_ms("core.memo", "core.prepare"),
        "core.forward_ms": per_request_ms("core.forward"),
        "core.merge_ms": per_request_ms("core.merge"),
        "core.mp_layers_ms": per_request_ms("core.mp_layers"),
        "core.head_ms": per_request_ms("core.head"),
        "core.ne_ms": per_request_ms("core.ne"),
        "serve.http_ms": sum(r["http_s"] for r in requests) * 1e3 / count,
        "serve.queue_wait_ms": sum(r["queue_wait_s"] for r in requests) * 1e3 / count,
        "serve.cache_hit_share": hits / lookups if lookups else 0.0,
        "serve.session_score_ms": report["session_score_s"]
        * 1e3
        / max(1, report["session_score_calls"]),
        "serve.batch_requests": sched["requests"] / max(1, sched["batches"]),
        "serve.batch_triples": sched["triples"] / max(1, sched["batches"]),
        "serve.shed_share": counters.get("serve.http.requests_shed", 0.0)
        / max(1.0, counters.get("serve.http.requests", 0.0)),
        "serve.handoff_ms": sum(r["handoff_s"] for r in requests) * 1e3 / count,
        "serve.unattributed_share": sum(
            r["sync_s"] - r["queue_wait_s"] - r["batch_s"] - r["handoff_s"]
            for r in requests
        )
        / total_s,
        "loadgen.lag_p95_ms": common.percentile([r.lag * 1e3 for r in all_requests], 95),
        "loadgen.sent": float(len(all_requests)),
        "latency_p95_ms.light": untraced["light"][1].latency_ms(95),
        "latency_p95_ms.heavy": untraced["heavy"][1].latency_ms(95),
        "obs.tracing_overhead_share": traced["light"][1].latency_ms(50)
        / untraced["light"][1].latency_ms(50)
        - 1.0,
    }
    return {"attempted": attempted, "failed": failed, "values": values}
