"""Stdlib-only JSON-over-HTTP serving frontend.

:class:`ServingApp` is the transport-agnostic core — registry + session +
micro-batching scheduler behind a ``handle(method, path, payload)`` method
returning ``(status, json_dict)``.  :class:`ServingServer` exposes it over
``http.server.ThreadingHTTPServer``: handler threads only parse JSON and
enqueue scheduler requests, so concurrent HTTP queries coalesce into
batched model calls while model access stays single-threaded.

Endpoints
---------
``GET  /health``  — liveness + graph/model/cache summary.
``GET  /models``  — registry listing.
``GET  /stats``   — scheduler + cache counters.
``GET  /metrics`` — process metrics registry snapshot (``repro.obs``);
                    ``?format=text`` for the flat-text exposition.
``POST /score``   — ``{"triples": [[h, r, t], ...], "model": "name@v"?}``
                    → ``{"scores": [...], "model": "name@v"}``.
``POST /topk``    — ``{"relation": r, "head": h | "tail": t, "k": 10?,
                    "model"?: ..., "exclude_known"?: true}`` →
                    ranked ``{"predictions": [{"entity", "score"}, ...]}``.
"""

from __future__ import annotations

import io
import json
import math
import threading
import time
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, Optional, Tuple
from urllib.parse import parse_qs, urlsplit

from repro.kg.graph import KnowledgeGraph
from repro.obs import get_registry, render_text, span
from repro.serve.cache import DEFAULT_SCORE_CACHE_SIZE
from repro.serve.registry import ModelRegistry
from repro.serve.scheduler import (
    DeadlineExceeded,
    MicroBatchScheduler,
    QueueSaturated,
)
from repro.serve.session import InferenceSession, rank_predictions


@dataclass(frozen=True)
class ServingConfig:
    """Knobs of one serving process (see README's Serving section)."""

    host: str = "127.0.0.1"
    port: int = 0  # 0 = ephemeral, read the bound port back from the server
    default_model: Optional[str] = None
    max_batch_size: int = 64
    max_wait_ms: float = 2.0
    cache_size: int = DEFAULT_SCORE_CACHE_SIZE
    request_timeout_s: float = 60.0
    # Admission control: more than this many requests waiting → 503 with a
    # Retry-After of ``retry_after_s``.  None accepts unboundedly.
    max_queue_depth: Optional[int] = 256
    retry_after_s: float = 1.0
    # Server-side cap on how long a scoring request may live, queue time
    # included; expired requests are dropped before scoring (HTTP 504).
    # Clients can only tighten it per request (``deadline_ms``), never
    # extend it.  None disables deadlines.
    request_deadline_s: Optional[float] = 30.0


class BadRequest(ValueError):
    """Client-side error; rendered as HTTP 400 with the message."""


class NotFound(LookupError):
    """Unknown model/route; rendered as HTTP 404 with the message."""


def _require(payload: Dict[str, Any], key: str) -> Any:
    if key not in payload:
        raise BadRequest(f"missing required field {key!r}")
    return payload[key]


def _as_int(value: Any, field: str) -> int:
    try:
        return int(value)
    except (TypeError, ValueError) as error:
        raise BadRequest(f"field {field!r} must be an integer, got {value!r}") from error


def _parse_triples(raw: Any) -> list:
    if not isinstance(raw, list) or not raw:
        raise BadRequest("'triples' must be a non-empty list of [h, r, t]")
    triples = []
    for item in raw:
        if not isinstance(item, (list, tuple)) or len(item) != 3:
            raise BadRequest(f"bad triple {item!r}: expected [head, relation, tail]")
        try:
            triples.append(tuple(int(x) for x in item))
        except (TypeError, ValueError) as error:
            raise BadRequest(f"bad triple {item!r}: {error}") from error
    return triples


class ServingApp:
    """Registry + pinned session + scheduler behind a JSON request surface."""

    def __init__(
        self,
        registry: ModelRegistry,
        graph: KnowledgeGraph,
        config: Optional[ServingConfig] = None,
    ) -> None:
        self.config = config or ServingConfig()
        self.registry = registry
        self.session = InferenceSession(
            registry,
            graph,
            default_model=self.config.default_model,
            cache_size=self.config.cache_size,
        )
        self.scheduler = MicroBatchScheduler(
            self.session,
            max_batch_size=self.config.max_batch_size,
            max_wait_ms=self.config.max_wait_ms,
            max_queue_depth=self.config.max_queue_depth,
            retry_after_s=self.config.retry_after_s,
        )

    # ------------------------------------------------------------------
    def start(self) -> "ServingApp":
        self.scheduler.start()
        return self

    def close(self) -> None:
        self.scheduler.close()

    def describe(self) -> Dict[str, Any]:
        """Startup/dry-run summary (also the CLI's ``serve --dry-run``)."""
        summary = self.session.describe()
        summary["scheduler"] = {
            "max_batch_size": self.config.max_batch_size,
            "max_wait_ms": self.config.max_wait_ms,
            "max_queue_depth": self.config.max_queue_depth,
            "retry_after_s": self.config.retry_after_s,
            "request_deadline_s": self.config.request_deadline_s,
            "running": self.scheduler.is_running,
        }
        summary["default_model"] = self.config.default_model
        return summary

    # ------------------------------------------------------------------
    def handle(
        self, method: str, path: str, payload: Optional[Dict[str, Any]] = None
    ) -> Tuple[int, Dict[str, Any]]:
        """Dispatch one request; returns ``(http_status, json_body)``.

        Every request lands in the ``span.serve.http.request.ms`` latency
        histogram plus per-status-class counters.  The span closes *after*
        a ``/metrics`` body is built, so a metrics scrape reports every
        request except itself — scrape traffic never pads its own tail.
        """
        with span("serve.http.request"):
            status, body = self._route(method, path, payload or {})
        registry = get_registry()
        registry.counter("serve.http.requests").inc()
        registry.counter(f"serve.http.responses.{status // 100}xx").inc()
        return status, body

    def _route(
        self, method: str, path: str, payload: Dict[str, Any]
    ) -> Tuple[int, Dict[str, Any]]:
        try:
            route = (method.upper(), path.rstrip("/") or "/")
            if route == ("GET", "/health"):
                body = self.describe()
                body["status"] = "ok"
                return 200, body
            if route == ("GET", "/models"):
                return 200, {"models": self.registry.describe()}
            if route == ("GET", "/stats"):
                return 200, {
                    "scheduler": self.scheduler.stats.as_dict(),
                    "cache": self.session.cache.stats(),
                }
            if route == ("GET", "/metrics"):
                return 200, get_registry().snapshot()
            if route == ("POST", "/score"):
                return 200, self._score(payload)
            if route == ("POST", "/topk"):
                return 200, self._topk(payload)
            return 404, {"error": f"no route for {method} {path}"}
        except BadRequest as error:
            return 400, {"error": str(error)}
        except NotFound as error:
            return 404, {"error": str(error)}
        except QueueSaturated as error:
            # Load shedding: tell the client to back off instead of letting
            # the backlog (and every in-flight latency) grow without bound.
            get_registry().counter("serve.http.requests_shed").inc()
            return 503, {"error": str(error), "retry_after": error.retry_after_s}
        except DeadlineExceeded as error:
            return 504, {"error": str(error)}
        except Exception as error:  # noqa: BLE001 — a request must never
            # drop the connection without a response.  Client input is fully
            # validated (BadRequest/NotFound) before dispatch, so anything
            # escaping the scoring stack is a server fault: surface a 500.
            return 500, {"error": f"internal error: {type(error).__name__}: {error}"}

    # ------------------------------------------------------------------
    def _validate_triples(self, triples: list) -> list:
        """Range-check ids against the served graph: negative ids would
        otherwise index embedding tables with python wraparound and serve a
        confident score for a nonexistent relation/entity."""
        graph = self.session.graph
        for head, relation, tail in triples:
            if not (0 <= head < graph.num_entities) or not (
                0 <= tail < graph.num_entities
            ):
                raise BadRequest(
                    f"entity id out of range [0, {graph.num_entities}) in "
                    f"triple {[head, relation, tail]}"
                )
            if not (0 <= relation < graph.num_relations):
                raise BadRequest(
                    f"relation id {relation} out of range [0, {graph.num_relations})"
                )
        return triples

    def _resolve_model(self, spec: Optional[str]):
        try:
            return self.session.resolve_model(spec)
        except KeyError as error:
            raise NotFound(
                str(error.args[0]) if error.args else str(error)
            ) from error

    def _deadline(self, payload: Dict[str, Any]) -> Optional[float]:
        """Absolute monotonic deadline for one scoring request.

        The server's ``request_deadline_s`` is the ceiling; a client
        ``deadline_ms`` can only tighten it.  The deadline covers the whole
        scheduler round trip — queue wait included — so a request that
        expires while queued is dropped before any model time is spent.
        """
        budget = self.config.request_deadline_s
        raw = payload.get("deadline_ms")
        if raw is not None:
            requested = _as_int(raw, "deadline_ms") / 1000.0
            if requested <= 0:
                raise BadRequest("'deadline_ms' must be > 0")
            budget = requested if budget is None else min(requested, budget)
        if budget is None:
            return None
        return time.monotonic() + budget

    def _score(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        triples = self._validate_triples(_parse_triples(_require(payload, "triples")))
        model = payload.get("model")
        deadline = self._deadline(payload)
        entry = self._resolve_model(model)  # fail fast on bad specs
        scores = self.scheduler.score_sync(
            triples,
            model,
            timeout=self.config.request_timeout_s,
            deadline=deadline,
        )
        return {"model": entry.key, "scores": [float(s) for s in scores]}

    def _topk(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        relation = _as_int(_require(payload, "relation"), "relation")
        head = payload.get("head")
        tail = payload.get("tail")
        if (head is None) == (tail is None):
            raise BadRequest("provide exactly one of 'head' (rank tails) or 'tail' (rank heads)")
        k = _as_int(payload.get("k", 10), "k")
        model = payload.get("model")
        deadline = self._deadline(payload)
        exclude_known = bool(payload.get("exclude_known", True))
        candidates = payload.get("candidates")
        graph = self.session.graph
        if not (0 <= relation < graph.num_relations):
            raise BadRequest(
                f"relation id {relation} out of range [0, {graph.num_relations})"
            )
        anchor = _as_int(head if head is not None else tail, "head/tail")
        if not (0 <= anchor < graph.num_entities):
            raise BadRequest(
                f"entity id {anchor} out of range [0, {graph.num_entities})"
            )
        if candidates is not None:
            # The default pool is in-range by construction; only explicit
            # candidate lists can smuggle out-of-range ids.
            if not isinstance(candidates, list):
                raise BadRequest("'candidates' must be a list of entity ids")
            candidates = [_as_int(c, "candidates") for c in candidates]
            for entity in candidates:
                if not (0 <= entity < graph.num_entities):
                    raise BadRequest(
                        f"entity id {entity} out of range [0, {graph.num_entities})"
                    )
        entry = self._resolve_model(model)
        if head is not None:
            triples = self.session.tail_candidates(
                anchor, relation, candidates, exclude_known
            )
            side = "tail"
        else:
            triples = self.session.head_candidates(
                anchor, relation, candidates, exclude_known
            )
            side = "head"
        if not triples:
            return {
                "model": entry.key,
                "direction": side,
                "num_candidates": 0,
                "predictions": [],
            }
        scores = self.scheduler.score_sync(
            triples,
            model,
            timeout=self.config.request_timeout_s,
            deadline=deadline,
        )
        predictions = rank_predictions(triples, scores, k, side=side)
        return {
            "model": entry.key,
            "direction": side,
            "num_candidates": len(triples),
            "predictions": [
                {"entity": entity, "score": score} for entity, score in predictions
            ],
        }


class _ResponseBuffer(io.BytesIO):
    """Collects a response and sends it in one socket write on ``flush()``.

    ``BaseHTTPRequestHandler`` sends the headers (``end_headers``) and the
    body in separate writes.  On a keep-alive connection the second small
    segment then waits, under Nagle's algorithm, for the ACK of the first,
    which the client delays by about 40 ms.  The handler flushes
    ``wfile`` after every request, so buffering here makes each response,
    error pages included, one send.
    """

    def __init__(self, raw: Any) -> None:
        super().__init__()
        self._raw = raw

    def flush(self) -> None:
        data = self.getvalue()
        if data:
            self.seek(0)
            self.truncate()
            self._raw.write(data)


class _Handler(BaseHTTPRequestHandler):
    """Thin JSON adapter over :meth:`ServingApp.handle`."""

    app: ServingApp  # set by ServingServer on the handler class

    protocol_version = "HTTP/1.1"

    def setup(self) -> None:
        super().setup()
        self.wfile = _ResponseBuffer(self.wfile)

    def _respond(
        self,
        status: int,
        body: Dict[str, Any],
        text: Optional[str] = None,
    ) -> None:
        if text is not None:
            encoded = text.encode("utf-8")
            content_type = "text/plain; charset=utf-8"
        else:
            encoded = json.dumps(body).encode("utf-8")
            content_type = "application/json"
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(encoded)))
        if status == 503 and isinstance(body.get("retry_after"), (int, float)):
            # RFC 9110 Retry-After is integral seconds; round up so a
            # compliant client never comes back before the hint.
            self.send_header("Retry-After", str(math.ceil(body["retry_after"])))
        self.end_headers()
        self.wfile.write(encoded)

    def _route_path(self) -> str:
        return urlsplit(self.path).path

    def _query(self) -> Dict[str, str]:
        return {
            key: values[-1]
            for key, values in parse_qs(urlsplit(self.path).query).items()
        }

    def do_GET(self) -> None:  # noqa: N802 — BaseHTTPRequestHandler API
        path = self._route_path()
        query = self._query()
        status, body = self.app.handle("GET", path, query)
        if (
            status == 200
            and path.rstrip("/") == "/metrics"
            and query.get("format") == "text"
        ):
            self._respond(status, body, text=render_text(body))
            return
        self._respond(status, body)

    def do_POST(self) -> None:  # noqa: N802
        length = int(self.headers.get("Content-Length") or 0)
        raw = self.rfile.read(length) if length else b""
        try:
            payload = json.loads(raw.decode("utf-8")) if raw else {}
            if not isinstance(payload, dict):
                raise ValueError("request body must be a JSON object")
        except (UnicodeDecodeError, ValueError) as error:
            self._respond(400, {"error": f"bad JSON body: {error}"})
            return
        status, body = self.app.handle("POST", self._route_path(), payload)
        self._respond(status, body)

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        pass  # keep the serving process quiet; /stats carries the counters


class ServingServer:
    """A :class:`ServingApp` bound to a ``ThreadingHTTPServer``."""

    def __init__(self, app: ServingApp, host: str = None, port: int = None) -> None:
        self.app = app
        host = app.config.host if host is None else host
        port = app.config.port if port is None else port
        handler = type("_BoundHandler", (_Handler,), {"app": app})
        self._httpd = ThreadingHTTPServer((host, port), handler)
        self._httpd.daemon_threads = True
        self._thread: Optional[threading.Thread] = None

    @property
    def host(self) -> str:
        return self._httpd.server_address[0]

    @property
    def port(self) -> int:
        return int(self._httpd.server_address[1])

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    # ------------------------------------------------------------------
    def serve_forever(self) -> None:
        """Blocking serve loop (the CLI's foreground mode)."""
        self.app.start()
        try:
            self._httpd.serve_forever()
        finally:
            self.shutdown()

    def start_background(self) -> "ServingServer":
        """Serve from a daemon thread (tests, smoke checks, notebooks)."""
        self.app.start()
        self._thread = threading.Thread(
            target=self._httpd.serve_forever, name="repro-serve-http", daemon=True
        )
        self._thread.start()
        return self

    def shutdown(self) -> None:
        self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None
        self.app.close()

    def __enter__(self) -> "ServingServer":
        return self.start_background()

    def __exit__(self, *exc_info) -> None:
        self.shutdown()
