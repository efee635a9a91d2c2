"""Chaos suite for the serving layer: shedding, deadlines, client retries.

Drives :mod:`repro.serve` through injected dispatch faults and asserts the
overload/failure contract end to end: a saturated admission queue sheds
with 503 + ``Retry-After`` (and recovers — shedding is backpressure, not
an outage), an expired deadline surfaces as 504 without the request
outliving its budget by more than one batch window of grace, an injected
scoring fault is a 500 that leaves the scheduler serving, and the thin
client retries idempotent requests with capped jittered backoff before
giving up with :class:`ServingUnavailable`.  Saturation is made
deterministic by wedging the single dispatch thread with an injected
latency fault and watching ``plan.fired()`` — no sleep-and-hope races.
"""

from __future__ import annotations

import json
import re
import socket
import threading
import time
import urllib.error
import urllib.request
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import numpy as np
import pytest

from repro.core import RMPI, RMPIConfig
from repro.faults import FaultPlan, FaultSpec, deactivate, inject
from repro.obs import MetricsRegistry, set_registry
from repro.serve import (
    InferenceSession,
    MicroBatchScheduler,
    ModelRegistry,
    QueueSaturated,
    SchedulerStopped,
    ServingApp,
    ServingClient,
    ServingConfig,
    ServingServer,
    ServingUnavailable,
)

pytestmark = pytest.mark.chaos

TRIPLE = [0, 0, 1]


@pytest.fixture(autouse=True)
def _pristine_faults():
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


def make_app(graph, **overrides):
    registry = ModelRegistry()
    registry.register(
        "rmpi",
        RMPI(
            graph.num_relations,
            np.random.default_rng(0),
            RMPIConfig(embed_dim=16, dropout=0.0),
        ),
    )
    overrides.setdefault("max_wait_ms", 1.0)
    app = ServingApp(
        registry, graph, ServingConfig(port=0, default_model="rmpi", **overrides)
    )
    return app.start()


def wait_until(predicate, timeout=5.0, message="condition"):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(0.01)
    raise AssertionError(f"timed out waiting for {message}")


def wedge_dispatch(latency_s):
    """A plan whose first dispatch sleeps: with one scheduler thread, the
    queue behind it backs up deterministically."""
    return FaultPlan(
        [FaultSpec(op="serve.dispatch", kind="latency", latency_s=latency_s)]
    )


# ----------------------------------------------------------------------
class TestDispatchFaults:
    def test_injected_error_is_500_and_scheduler_survives(
        self, family_graph, obs_registry
    ):
        app = make_app(family_graph)
        try:
            plan = FaultPlan(
                [FaultSpec(op="serve.dispatch", kind="error", message="chaos")]
            )
            with inject(plan):
                status, body = app.handle("POST", "/score", {"triples": [TRIPLE]})
                assert status == 500
                assert "FaultInjected" in body["error"]
                assert "chaos" in body["error"]
                # The spec is spent; the same scheduler keeps serving.
                status, body = app.handle("POST", "/score", {"triples": [TRIPLE]})
                assert status == 200 and len(body["scores"]) == 1
            assert obs_registry.counter_value("faults.injected.error") == 1
        finally:
            app.close()


# ----------------------------------------------------------------------
class TestAdmissionControl:
    def test_saturated_queue_sheds_503_and_recovers(self, family_graph, obs_registry):
        app = make_app(
            family_graph, max_queue_depth=1, retry_after_s=0.5, request_deadline_s=10.0
        )
        try:
            plan = wedge_dispatch(2.0)
            background = []

            def score_in_thread():
                thread = threading.Thread(
                    target=lambda: background.append(
                        app.handle("POST", "/score", {"triples": [TRIPLE]})
                    )
                )
                thread.start()
                return thread

            with inject(plan):
                first = score_in_thread()  # occupies the dispatch thread
                wait_until(lambda: plan.fired() == 1, message="dispatch wedged")
                second = score_in_thread()  # fills the depth-1 queue
                wait_until(
                    lambda: app.scheduler._queue.qsize() >= 1,
                    message="queue to fill",
                )
                # Watermark reached: the third request must be shed NOW,
                # not queued behind two seconds of backlog.
                started = time.monotonic()
                status, body = app.handle("POST", "/score", {"triples": [TRIPLE]})
                assert time.monotonic() - started < 1.0
                assert status == 503
                assert body["retry_after"] == 0.5
                assert "saturated" in body["error"] or "queue" in body["error"]
                first.join(timeout=10)
                second.join(timeout=10)
            assert [status for status, _ in background] == [200, 200]
            # Shedding is backpressure, not an outage: next request is a 200.
            status, _ = app.handle("POST", "/score", {"triples": [TRIPLE]})
            assert status == 200
            assert obs_registry.counter_value("serve.scheduler.requests_shed") == 1
            assert obs_registry.counter_value("serve.http.requests_shed") == 1
        finally:
            app.close()

    def test_retry_after_header_over_http(self, family_graph, obs_registry):
        app = make_app(
            family_graph, max_queue_depth=1, retry_after_s=0.5, request_deadline_s=10.0
        )
        plan = wedge_dispatch(2.0)
        with ServingServer(app) as server, inject(plan):
            client = ServingClient(server.url, retries=0)
            background = []

            def score_in_thread():
                thread = threading.Thread(
                    target=lambda: background.append(
                        client.request("POST", "/score", {"triples": [TRIPLE]})
                    )
                )
                thread.start()
                return thread

            first = score_in_thread()
            wait_until(lambda: plan.fired() == 1, message="dispatch wedged")
            second = score_in_thread()
            wait_until(
                lambda: app.scheduler._queue.qsize() >= 1, message="queue to fill"
            )
            request = urllib.request.Request(
                f"{server.url}/score",
                data=json.dumps({"triples": [TRIPLE]}).encode("utf-8"),
                headers={"Content-Type": "application/json"},
                method="POST",
            )
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(request, timeout=5)
            assert excinfo.value.code == 503
            # retry_after_s=0.5 rounds UP: an integral Retry-After header
            # (RFC 9110) that never tells the client to retry too early.
            assert excinfo.value.headers["Retry-After"] == "1"
            first.join(timeout=10)
            second.join(timeout=10)
        assert [status for status, _ in background] == [200, 200]

    def test_unbounded_queue_never_sheds(self, family_graph):
        scheduler_error = None
        app = make_app(family_graph, max_queue_depth=None)
        try:
            for _ in range(4):
                status, _ = app.handle("POST", "/score", {"triples": [TRIPLE]})
                assert status == 200
        except (QueueSaturated,) as error:  # pragma: no cover - regression
            scheduler_error = error
        finally:
            app.close()
        assert scheduler_error is None


# ----------------------------------------------------------------------
class TestDeadlines:
    def test_expired_request_is_504_within_one_batch_window(
        self, family_graph, obs_registry
    ):
        app = make_app(family_graph, request_deadline_s=10.0)
        try:
            plan = wedge_dispatch(1.0)
            background = []
            with inject(plan):
                thread = threading.Thread(
                    target=lambda: background.append(
                        app.handle("POST", "/score", {"triples": [TRIPLE]})
                    )
                )
                thread.start()
                wait_until(lambda: plan.fired() == 1, message="dispatch wedged")
                # Queued behind one second of wedge with a 200ms budget:
                # must come back 504 after deadline + one batch window of
                # grace, NOT after the wedge clears.
                started = time.monotonic()
                status, body = app.handle(
                    "POST", "/score", {"triples": [TRIPLE], "deadline_ms": 200}
                )
                elapsed = time.monotonic() - started
                thread.join(timeout=10)
            assert status == 504
            assert "deadline" in body["error"]
            grace = app.config.max_wait_ms / 1000.0 + 0.25
            assert elapsed < 0.2 + grace + 0.4, (
                f"504 took {elapsed:.3f}s — outlived its deadline past the "
                "one-batch-window grace"
            )
            assert background and background[0][0] == 200
            assert (
                obs_registry.counter_value("serve.scheduler.deadline_expired") >= 1
            )
        finally:
            app.close()

    def test_client_deadline_can_only_tighten_server_cap(self, family_graph):
        # request_deadline_s=0.2 is the ceiling; a huge deadline_ms does
        # not extend it past the wedge.
        app = make_app(family_graph, request_deadline_s=0.2)
        try:
            plan = wedge_dispatch(1.0)
            background = []
            with inject(plan):
                thread = threading.Thread(
                    target=lambda: background.append(
                        app.handle("POST", "/score", {"triples": [TRIPLE]})
                    )
                )
                thread.start()
                wait_until(lambda: plan.fired() == 1, message="dispatch wedged")
                status, _ = app.handle(
                    "POST",
                    "/score",
                    {"triples": [TRIPLE], "deadline_ms": 60_000},
                )
                thread.join(timeout=10)
            assert status == 504
        finally:
            app.close()

    def test_non_positive_deadline_ms_is_400(self, family_graph):
        app = make_app(family_graph)
        try:
            status, body = app.handle(
                "POST", "/score", {"triples": [TRIPLE], "deadline_ms": 0}
            )
            assert status == 400 and "deadline_ms" in body["error"]
        finally:
            app.close()


# ----------------------------------------------------------------------
class _Always503(BaseHTTPRequestHandler):
    """A server that is permanently shedding: every POST is a 503 with a
    Retry-After hint, so a retrying client must eventually give up."""

    def do_POST(self):  # noqa: N802 - BaseHTTPRequestHandler API
        self.rfile.read(int(self.headers.get("Content-Length", 0)))
        body = json.dumps({"error": "queue saturated", "retry_after": 0.01}).encode(
            "utf-8"
        )
        self.send_response(503)
        self.send_header("Retry-After", "1")
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):  # quiet test output
        return


def _read_request(conn):
    """Consume one HTTP request (headers plus Content-Length body)."""
    data = b""
    while b"\r\n\r\n" not in data:
        chunk = conn.recv(4096)
        if not chunk:
            return
        data += chunk
    head, _, body = data.partition(b"\r\n\r\n")
    match = re.search(rb"(?im)^content-length:\s*(\d+)", head)
    length = int(match.group(1)) if match else 0
    while len(body) < length:
        chunk = conn.recv(4096)
        if not chunk:
            return
        body += chunk


class TestClientResilience:
    @pytest.fixture
    def dead_url(self):
        # Bind-then-close: connecting to this port is refused immediately.
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
        return f"http://127.0.0.1:{port}"

    def test_connection_refused_exhausts_backoff(self, dead_url, obs_registry):
        client = ServingClient(
            dead_url,
            timeout=0.5,
            retries=2,
            backoff_base_s=0.01,
            backoff_cap_s=0.02,
        )
        with pytest.raises(ServingUnavailable) as excinfo:
            client.score([tuple(TRIPLE)])
        assert excinfo.value.status == 503
        assert "2 retry(ies)" in str(excinfo.value)
        assert obs_registry.counter_value("serve.client.retries") == 2
        assert obs_registry.counter_value("serve.client.backoff_sleeps") == 2

    def test_persistent_503_exhausts_retries(self, obs_registry):
        server = ThreadingHTTPServer(("127.0.0.1", 0), _Always503)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            url = f"http://127.0.0.1:{server.server_address[1]}"
            client = ServingClient(
                url, timeout=2.0, retries=1, backoff_base_s=0.01, backoff_cap_s=0.02
            )
            with pytest.raises(ServingUnavailable, match="shedding"):
                client.score([tuple(TRIPLE)])
            assert obs_registry.counter_value("serve.client.retries") == 1
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=5)

    def test_response_timeout_is_typed(self, obs_registry):
        # A listener that never answers: the handshake completes in the
        # kernel backlog, then reading the response times out.
        with socket.socket() as listener:
            listener.bind(("127.0.0.1", 0))
            listener.listen(1)
            url = f"http://127.0.0.1:{listener.getsockname()[1]}"
            client = ServingClient(url, timeout=0.2, retries=0)
            with pytest.raises(ServingUnavailable) as excinfo:
                client.request("GET", "/health")
        assert isinstance(excinfo.value.__cause__, TimeoutError)

    def test_dropped_connection_is_retried_then_typed(self, obs_registry):
        # A server that reads each request and hangs up without a response:
        # the idempotent /score must be retried, then fail typed.
        retries = 2
        with socket.socket() as listener:
            listener.bind(("127.0.0.1", 0))
            listener.listen(retries + 1)
            listener.settimeout(10.0)

            def drop_each_request():
                for _ in range(retries + 1):
                    conn, _ = listener.accept()
                    with conn:
                        _read_request(conn)

            thread = threading.Thread(target=drop_each_request, daemon=True)
            thread.start()
            url = f"http://127.0.0.1:{listener.getsockname()[1]}"
            client = ServingClient(
                url,
                timeout=5.0,
                retries=retries,
                backoff_base_s=0.01,
                backoff_cap_s=0.02,
            )
            with pytest.raises(ServingUnavailable, match="still unavailable") as excinfo:
                client.score([tuple(TRIPLE)])
            thread.join(timeout=10)
        assert isinstance(excinfo.value.__cause__, ConnectionResetError)
        assert obs_registry.counter_value("serve.client.retries") == retries

    def test_raw_request_is_single_attempt(self, dead_url, obs_registry):
        client = ServingClient(dead_url, timeout=0.5, retries=5)
        with pytest.raises(ServingUnavailable):
            client.request("GET", "/health")
        assert obs_registry.counter_value("serve.client.retries") == 0

    def test_backoff_is_capped_and_seeded(self, dead_url):
        # Same seed → same jittered delays → reproducible chaos runs.
        first = ServingClient(dead_url, timeout=0.2, retries=2, backoff_seed=7)
        second = ServingClient(dead_url, timeout=0.2, retries=2, backoff_seed=7)
        draws = lambda c: [c._jitter.uniform(0, 1) for _ in range(4)]  # noqa: E731
        assert draws(first) == draws(second)


# ----------------------------------------------------------------------
class TestSchedulerStop:
    def _scheduler(self, graph, **kwargs):
        registry = ModelRegistry()
        registry.register(
            "rmpi",
            RMPI(
                graph.num_relations,
                np.random.default_rng(0),
                RMPIConfig(embed_dim=16, dropout=0.0),
            ),
        )
        session = InferenceSession(registry, graph)
        return MicroBatchScheduler(session, **kwargs)

    def test_submit_after_close_is_typed(self, family_graph):
        scheduler = self._scheduler(family_graph, max_wait_ms=0)
        scheduler.start()
        scheduler.close()
        with pytest.raises(SchedulerStopped, match="stopped"):
            scheduler.submit([tuple(TRIPLE)])

    def test_requests_racing_stop_never_hang(self, family_graph):
        """Regression: a submit that loses the race against close() must
        fail fast (SchedulerStopped) — never a future nobody resolves."""
        scheduler = self._scheduler(family_graph, max_wait_ms=1.0)
        scheduler.start()
        futures = []
        rejected = []
        barrier = threading.Barrier(5)

        def submitter():
            barrier.wait()
            for _ in range(20):
                try:
                    futures.append(scheduler.submit([tuple(TRIPLE)]))
                except SchedulerStopped:
                    rejected.append(1)

        threads = [threading.Thread(target=submitter) for _ in range(4)]
        for thread in threads:
            thread.start()
        barrier.wait()  # all submitters racing before the close lands
        scheduler.close()
        for thread in threads:
            thread.join(timeout=10)
            assert not thread.is_alive()
        # Every accepted future resolves one way or the other, promptly.
        outcomes = {"scored": 0, "stopped": 0}
        for future in futures:
            try:
                scores = future.result(timeout=5)
                assert np.isfinite(scores).all()
                outcomes["scored"] += 1
            except SchedulerStopped:
                outcomes["stopped"] += 1
        assert outcomes["scored"] + outcomes["stopped"] == len(futures)
        assert len(futures) + len(rejected) == 80
