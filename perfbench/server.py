"""The serving process of the ``query_*`` workloads.

Run as ``python3 perfbench/server.py`` from the checkout root.  It builds
the served graph and model, starts a :class:`repro.serve.ServingServer`
on an ephemeral port and prints ``{"ready": true, "port": N}``.  It then
reads one command per line on standard input and answers each with one
JSON line:

``stats``      counters, scheduler stats, sample-memo size and peak RSS;
``trace_on``   install the span wrappers (answers like ``stats``);
``trace_off``  remove them and answer with the span summary and the
               per-request attribution (raw spans go to ``.bench_build``);
``stop``       shut the server down and exit.

End of input also stops it, so the process never outlives its client.
"""

from __future__ import annotations

import json
import os
import sys
import threading
import time
from typing import Any, Dict, List

import common
import spec
from tracer import Tracer, install_model_spans

common.use_repo_sources()

from repro.obs import get_registry  # noqa: E402
from repro.serve import (  # noqa: E402
    InferenceSession,
    MicroBatchScheduler,
    ModelRegistry,
    ServingApp,
    ServingConfig,
    ServingServer,
)

MODEL_NAME = "rmpi-ne"
#: Stages whose self time the traced server reports.
SERVER_STAGES = (
    "subgraph.extract",
    "subgraph.linegraph",
    "subgraph.plan",
    "core.memo",
    "core.prepare",
    "core.merge",
    "core.forward",
    "core.mp_layers",
    "core.ne",
    "core.head",
    "serve.session_score",
)


class ServeTracing:
    """Span wrappers on the serving path plus per-request attribution.

    A request's wall time inside :meth:`ServingApp.handle` splits into the
    handler's own work (``serve.http``), the wait from submit until its
    micro-batch starts scoring (``serve.queue_wait``), that batch's
    :meth:`InferenceSession.score` (``serve.session_score``), and the
    hand-off from the end of scoring until the handler runs again
    (``serve.handoff``).  What remains is unattributed.
    """

    def __init__(self) -> None:
        self.tracer = Tracer()
        self._local = threading.local()
        self._lock = threading.Lock()
        self.requests: List[Dict[str, float]] = []

    def install(self) -> None:
        tracer = self.tracer
        install_model_spans(tracer)
        tracer.exit_hooks["serve.session_score"] = self._on_score
        tracer.exit_hooks["serve.score_sync"] = self._on_sync
        tracer.wrap(InferenceSession, "score", "serve.session_score")
        tracer.wrap(MicroBatchScheduler, "score_sync", "serve.score_sync")
        self._wrap_submit()
        self._wrap_handle()

    def _on_score(self, name: str, start: float, end: float) -> None:
        self._local.last_score = (start, end)

    def _on_sync(self, name: str, start: float, end: float) -> None:
        record = getattr(self._local, "record", None)
        if record is not None and "score_end" in record:
            # Result hand-off: from the end of the batch's scoring until
            # the waiting handler thread is running again.
            record["handoff_s"] += end - record["score_end"]

    def _wrap_submit(self) -> None:
        owner = self

        def submit(scheduler, *args, **kwargs):
            submitted = time.perf_counter()
            future = original(scheduler, *args, **kwargs)
            record = getattr(owner._local, "record", None)
            if record is not None:

                def done(_future) -> None:
                    # Runs on the scheduler thread right after the batch's
                    # session.score returned: that span is its batch.
                    start, end = getattr(owner._local, "last_score", (submitted, submitted))
                    record["queue_wait_s"] += max(0.0, start - submitted)
                    record["batch_s"] += end - start
                    record["score_end"] = end

                future.add_done_callback(done)
            return future

        original = self.tracer.patch(MicroBatchScheduler, "submit", submit)

    def _wrap_handle(self) -> None:
        owner = self
        tracer = self.tracer

        def handle(app, method, path, payload=None):
            record = {"queue_wait_s": 0.0, "batch_s": 0.0, "handoff_s": 0.0}
            owner._local.record = record
            frame = tracer.enter("serve.http")
            try:
                return original(app, method, path, payload)
            finally:
                elapsed, self_s = tracer.exit(frame)
                owner._local.record = None
                if method.upper() == "POST":
                    record["total_s"] = elapsed
                    record["http_s"] = self_s
                    record["sync_s"] = frame.child_s
                    with owner._lock:
                        owner.requests.append(record)

        original = self.tracer.patch(ServingApp, "handle", handle)

    def report(self) -> Dict[str, Any]:
        return {
            "session_score_s": self.tracer.total_s("serve.session_score"),
            "session_score_calls": self.tracer.calls("serve.session_score"),
            "stage_self_s": {
                name: self.tracer.self_s(name) for name in SERVER_STAGES
            },
            "counts": dict(self.tracer.counts),
            "requests": list(self.requests),
        }


def snapshot(app: ServingApp, model) -> Dict[str, Any]:
    registry = get_registry().snapshot()
    return {
        "counters": registry["counters"],
        "scheduler": app.scheduler.stats.as_dict(),
        "cache_entries": model.cache_size(),
        "rss_mb": common.peak_rss_mb(os.getpid()),
    }


def main() -> int:
    graph, bench = spec.build_serving_data()
    model = spec.build_served_model(bench.num_relations)
    registry = ModelRegistry()
    registry.register(MODEL_NAME, model)
    app = ServingApp(registry, graph, ServingConfig(default_model=MODEL_NAME))
    server = ServingServer(app).start_background()
    tracing = None
    print(json.dumps({"ready": True, "port": server.port}), flush=True)
    try:
        for line in sys.stdin:
            command = line.strip()
            if command == "stop":
                break
            reply = snapshot(app, model)
            if command == "trace_on" and tracing is None:
                tracing = ServeTracing()
                tracing.install()
            elif command == "trace_off" and tracing is not None:
                tracing.tracer.restore()
                reply.update(tracing.report())
                reply["spans_path"] = common.write_spans(
                    "server", tracing.tracer.records()
                )
                tracing = None
            print(json.dumps(reply), flush=True)
    finally:
        server.shutdown()
    return 0


if __name__ == "__main__":
    sys.exit(main())
