"""Thin stdlib client for the serving HTTP API.

``urllib.request`` only — usable from any Python without installing
anything.  Typed helpers mirror the server's endpoints; :meth:`request`
exposes the raw ``(status, body)`` pair for smoke checks.

Fault tolerance: connection-level failures — refused, timed out, or
dropped before the response was read — surface as the typed
:class:`ServingUnavailable` (never a raw ``URLError``, ``TimeoutError``
or ``http.client.RemoteDisconnected``), and the typed
helpers retry **idempotent** calls — health/models/stats/score/topk, all
safe to repeat because scoring is a pure read — on 503s and connection
failures with capped, jittered exponential backoff.  A 503 carrying the
server's ``retry_after`` hint bounds the sleep from below at the server's
request.  The jitter source is a dedicated seeded ``random.Random``, so
retry schedules are reproducible in tests without touching global RNG
state.
"""

from __future__ import annotations

import http.client
import json
import random
import time
import urllib.error
import urllib.request
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.kg.triples import Triple
from repro.obs import get_registry


class ServingError(RuntimeError):
    """A non-2xx response from the serving API."""

    def __init__(self, status: int, body: Dict[str, Any]) -> None:
        super().__init__(f"HTTP {status}: {body.get('error', body)}")
        self.status = status
        self.body = body


class ServingUnavailable(ServingError):
    """The server is unreachable or shedding load (connection failure or a
    503 that outlived the retry budget).  Wraps the underlying
    ``OSError`` / ``http.client.HTTPException`` when one exists
    (``__cause__``)."""

    def __init__(
        self, reason: str, cause: Optional[BaseException] = None
    ) -> None:
        super().__init__(503, {"error": reason})
        self.__cause__ = cause


class ServingClient:
    """Client for one serving endpoint, e.g. ``ServingClient("http://127.0.0.1:8080")``.

    Parameters
    ----------
    base_url / timeout:
        Where to connect and the per-request socket timeout.
    retries:
        How many times an idempotent call is retried after a connection
        failure or 503 before giving up with :class:`ServingUnavailable`
        (``0`` disables retries).  Non-idempotent raw :meth:`request`
        calls are never retried.
    backoff_base_s / backoff_cap_s:
        Full-jitter exponential backoff: attempt ``n`` sleeps
        ``uniform(0, min(cap, base * 2**n))``, raised to the server's
        ``Retry-After`` hint when a 503 carries one.
    backoff_seed:
        Seed for the jitter RNG (reproducible retry schedules).
    """

    #: Routes safe to replay: pure reads (scoring mutates nothing but a
    #: memoised cache).  POSTs not listed here are never auto-retried.
    IDEMPOTENT_ROUTES = frozenset(
        {"/health", "/models", "/stats", "/metrics", "/score", "/topk"}
    )

    def __init__(
        self,
        base_url: str,
        timeout: float = 30.0,
        retries: int = 2,
        backoff_base_s: float = 0.05,
        backoff_cap_s: float = 2.0,
        backoff_seed: int = 0,
    ) -> None:
        if retries < 0:
            raise ValueError(f"retries must be >= 0, got {retries}")
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout
        self.retries = int(retries)
        self.backoff_base_s = float(backoff_base_s)
        self.backoff_cap_s = float(backoff_cap_s)
        self._jitter = random.Random(backoff_seed)

    # ------------------------------------------------------------------
    def request(
        self,
        method: str,
        path: str,
        payload: Optional[Dict[str, Any]] = None,
    ) -> Tuple[int, Dict[str, Any]]:
        """One round-trip; returns ``(status, parsed_json)`` without raising
        on HTTP errors (smoke checks assert on the raw status).  Connection
        failures raise :class:`ServingUnavailable`; no retries here — this
        is the single-attempt primitive the retrying helpers build on."""
        data = None
        headers = {"Accept": "application/json"}
        if payload is not None:
            data = json.dumps(payload).encode("utf-8")
            headers["Content-Type"] = "application/json"
        req = urllib.request.Request(
            self.base_url + path, data=data, headers=headers, method=method.upper()
        )
        try:
            with urllib.request.urlopen(req, timeout=self.timeout) as response:
                return response.status, json.loads(response.read().decode("utf-8"))
        except urllib.error.HTTPError as error:
            raw = error.read().decode("utf-8", errors="replace")
            try:
                body = json.loads(raw)
            except ValueError:
                body = {"error": raw}
            return error.code, body
        except (OSError, http.client.HTTPException) as error:
            # urlopen wraps connect failures in URLError, but a timeout or a
            # dropped connection while the response is read comes out bare
            # (TimeoutError, RemoteDisconnected, ConnectionResetError).
            reason = (
                error.reason if isinstance(error, urllib.error.URLError) else error
            )
            raise ServingUnavailable(
                f"{method.upper()} {self.base_url + path} failed: {reason}",
                cause=error,
            ) from error

    def _backoff_sleep(self, attempt: int, floor_s: float = 0.0) -> None:
        ceiling = min(self.backoff_cap_s, self.backoff_base_s * (2**attempt))
        delay = max(floor_s, self._jitter.uniform(0.0, ceiling))
        delay = min(delay, self.backoff_cap_s)
        get_registry().counter("serve.client.backoff_sleeps").inc()
        time.sleep(delay)

    def _call(self, method: str, path: str, payload: Optional[Dict[str, Any]] = None):
        """Typed-helper core: raise :class:`ServingError` on non-200, with
        bounded retry + backoff on 503/unreachable for idempotent routes."""
        retryable = path in self.IDEMPOTENT_ROUTES
        attempts = self.retries + 1 if retryable else 1
        last_error: Optional[ServingError] = None
        for attempt in range(attempts):
            if attempt > 0:
                get_registry().counter("serve.client.retries").inc()
            try:
                status, body = self.request(method, path, payload)
            except ServingUnavailable as error:
                last_error = error
                if attempt + 1 < attempts:
                    self._backoff_sleep(attempt)
                continue
            if status == 200:
                return body
            if status == 503 and retryable:
                if attempt + 1 < attempts:
                    hint = body.get("retry_after")
                    floor = float(hint) if isinstance(hint, (int, float)) else 0.0
                    self._backoff_sleep(
                        attempt, floor_s=min(floor, self.backoff_cap_s)
                    )
                    continue
                raise ServingUnavailable(
                    f"{method.upper()} {path} still shedding load after "
                    f"{self.retries} retry(ies): {body.get('error')}"
                )
            raise ServingError(status, body)
        assert last_error is not None  # every exhausted attempt recorded one
        raise ServingUnavailable(
            f"{method.upper()} {path} still unavailable after "
            f"{self.retries} retry(ies): {last_error.body.get('error')}",
            cause=last_error.__cause__,
        )

    # ------------------------------------------------------------------
    def health(self) -> Dict[str, Any]:
        return self._call("GET", "/health")

    def models(self) -> List[Dict[str, Any]]:
        return self._call("GET", "/models")["models"]

    def stats(self) -> Dict[str, Any]:
        return self._call("GET", "/stats")

    def score(
        self,
        triples: Sequence[Triple],
        model: Optional[str] = None,
        deadline_ms: Optional[int] = None,
    ) -> List[float]:
        payload: Dict[str, Any] = {"triples": [list(t) for t in triples]}
        if model:
            payload["model"] = model
        if deadline_ms is not None:
            payload["deadline_ms"] = int(deadline_ms)
        return self._call("POST", "/score", payload)["scores"]

    def top_k_tails(
        self,
        head: int,
        relation: int,
        k: int = 10,
        model: Optional[str] = None,
        exclude_known: bool = True,
    ) -> List[Dict[str, Any]]:
        payload: Dict[str, Any] = {
            "head": int(head),
            "relation": int(relation),
            "k": int(k),
            "exclude_known": exclude_known,
        }
        if model:
            payload["model"] = model
        return self._call("POST", "/topk", payload)["predictions"]

    def top_k_heads(
        self,
        tail: int,
        relation: int,
        k: int = 10,
        model: Optional[str] = None,
        exclude_known: bool = True,
    ) -> List[Dict[str, Any]]:
        payload: Dict[str, Any] = {
            "tail": int(tail),
            "relation": int(relation),
            "k": int(k),
            "exclude_known": exclude_known,
        }
        if model:
            payload["model"] = model
        return self._call("POST", "/topk", payload)["predictions"]
