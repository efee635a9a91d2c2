"""Serving smoke check: boot a real server, query it, assert sanity.

Run as ``PYTHONPATH=src python -m repro.serve.smoke`` (the CI serving job
step).  Builds a small synthetic benchmark, registers an untrained
RMPI-base scorer, boots the HTTP server on an ephemeral port, then issues
a scored query, a top-k query, and a ``/metrics`` scrape through the thin
client — asserting HTTP 200, well-formed JSON, and that the request
histogram and cache counters made it into the registry.  Exit code 0 on
success.

``--chaos`` instead boots a server with a tiny admission watermark and an
injected dispatch-latency fault plan, drives it with closed-loop client
threads, and asserts the overload story end to end: nonzero
``serve.scheduler.requests_shed`` in ``/metrics``, 503s observed by the
clients, and a clean 200 once the chaos plan is exhausted (the CI chaos
step).
"""

from __future__ import annotations

import sys
import threading
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core import RMPI, RMPIConfig
from repro.kg import build_partial_benchmark
from repro.kg.triples import Triple
from repro.serve.client import ServingClient, ServingUnavailable
from repro.serve.registry import ModelRegistry
from repro.serve.server import ServingApp, ServingConfig, ServingServer
from repro.utils.seeding import seeded_rng


def _drive_load(url: str, triples: Sequence[Triple]) -> Tuple[int, int]:
    """Closed-loop ``POST /score`` load: each of 8 threads sends 25
    single-triple requests, the next as soon as the previous returns.
    Returns ``(served, errors)``; a non-200 response and a connection
    failure (:class:`ServingUnavailable`) both count as an error, so no
    thread dies under overload."""
    clients, requests_per_client = 8, 25
    errors = [0] * clients

    def worker(idx: int) -> None:
        client = ServingClient(url, timeout=10.0)
        for i in range(requests_per_client):
            triple = triples[(idx * requests_per_client + i) % len(triples)]
            try:
                status, _ = client.request(
                    "POST", "/score", {"triples": [list(triple)]}
                )
            except ServingUnavailable:
                status = 503
            if status != 200:
                errors[idx] += 1

    threads = [
        threading.Thread(target=worker, args=(idx,), daemon=True)
        for idx in range(clients)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    failed = sum(errors)
    return clients * requests_per_client - failed, failed


def chaos_main() -> int:
    """The ``--chaos`` mode: saturate a tiny-watermark server and assert it
    sheds (503 + ``Retry-After``) and recovers instead of queueing forever."""
    from repro.faults import FaultPlan, FaultSpec, inject

    benchmark = build_partial_benchmark("NELL-995", 1, scale=0.05, seed=0)
    registry = ModelRegistry()
    registry.register(
        "RMPI-base",
        RMPI(benchmark.num_relations, seeded_rng(0), RMPIConfig(embed_dim=16)),
        meta={"benchmark": benchmark.name},
    )
    app = ServingApp(
        registry,
        benchmark.test_graph,
        ServingConfig(
            port=0,
            default_model="RMPI-base",
            max_wait_ms=1.0,
            max_queue_depth=2,  # tiny watermark: overload must shed, not queue
            retry_after_s=0.2,
            request_deadline_s=10.0,
        ),
    )
    test_triples = list(benchmark.test_triples)[:8]
    # Every dispatch sleeps a little, so closed-loop clients outrun the
    # scheduler and pile onto the 2-deep queue — deterministic saturation.
    plan = FaultPlan(
        [
            FaultSpec(
                op="serve.dispatch", kind="latency", latency_s=0.05, times=10_000
            )
        ]
    )
    with ServingServer(app) as server, inject(plan):
        served, errors = _drive_load(server.url, test_triples)
        assert errors > 0, (
            f"expected shed requests under saturation, got {served} served "
            f"and no errors"
        )
        client = ServingClient(server.url, retries=0)
        status, snap = client.request("GET", "/metrics")
        assert status == 200, f"/metrics returned {status}: {snap}"
        counters = snap.get("counters", {})
        shed = counters.get("serve.scheduler.requests_shed", 0)
        assert shed > 0, f"no serve.scheduler.requests_shed in {counters}"
        assert counters.get("faults.injected.latency", 0) > 0, counters
    # Past the chaos scope: the next request must succeed — shedding is
    # backpressure, not an outage.
    with ServingServer(app) as server:
        client = ServingClient(server.url)
        status, body = client.request(
            "POST", "/score", {"triples": [list(test_triples[0])]}
        )
        assert status == 200, f"post-chaos /score returned {status}: {body}"
        print(
            f"chaos smoke OK at {server.url}: {int(shed)} shed "
            f"({errors} client-observed errors, {served} served) and recovered"
        )
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = list(sys.argv[1:] if argv is None else argv)
    if "--chaos" in args:
        return chaos_main()
    benchmark = build_partial_benchmark("NELL-995", 1, scale=0.05, seed=0)
    registry = ModelRegistry()
    registry.register(
        "RMPI-base",
        RMPI(benchmark.num_relations, seeded_rng(0), RMPIConfig(embed_dim=16)),
        meta={"benchmark": benchmark.name},
    )
    app = ServingApp(
        registry,
        benchmark.test_graph,
        ServingConfig(port=0, default_model="RMPI-base", max_wait_ms=1.0),
    )
    test_triple = next(iter(benchmark.test_triples))
    with ServingServer(app) as server:
        client = ServingClient(server.url)

        status, body = client.request("GET", "/health")
        assert status == 200, f"/health returned {status}: {body}"
        assert body.get("status") == "ok" and body.get("models"), body

        status, body = client.request(
            "POST", "/score", {"triples": [list(test_triple)]}
        )
        assert status == 200, f"/score returned {status}: {body}"
        scores = body.get("scores")
        assert (
            isinstance(scores, list)
            and len(scores) == 1
            and isinstance(scores[0], float)
            and np.isfinite(scores[0])
        ), body

        status, body = client.request(
            "POST",
            "/topk",
            {"head": int(test_triple[0]), "relation": int(test_triple[1]), "k": 5},
        )
        assert status == 200, f"/topk returned {status}: {body}"
        predictions = body.get("predictions")
        assert isinstance(predictions, list) and len(predictions) <= 5, body
        for row in predictions:
            assert isinstance(row.get("entity"), int), body
            assert isinstance(row.get("score"), float), body

        status, snap = client.request("GET", "/metrics")
        assert status == 200, f"/metrics returned {status}: {snap}"
        counters = snap.get("counters", {})
        # The scrape excludes itself, so /health + /score + /topk = 3.
        assert counters.get("serve.http.requests") == 3, counters
        assert counters.get("serve.http.responses.2xx") == 3, counters
        assert "serve.cache.misses" in counters, counters
        histograms = snap.get("histograms", {})
        assert histograms.get("span.serve.http.request.ms", {}).get("count") == 3, (
            histograms
        )

        print(
            f"serving smoke OK at {server.url}: score={scores[0]:+.4f}, "
            f"top-{len(predictions)} of {body.get('num_candidates', 0)} candidates, "
            f"{int(counters['serve.http.requests'])} requests on /metrics"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
