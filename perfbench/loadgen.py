"""HTTP load generator (one process, at most ``spec.SENDERS`` threads).

In an open-loop phase requests are due on a fixed schedule, ``i / rate``
seconds after the phase starts, whether or not earlier ones have
returned.  Each sender thread takes the next due request and sends it on
a fresh connection, as :class:`repro.serve.ServingClient` does (a
keep-alive client would also time the server's separate header and body
writes meeting delayed ACKs, about 40 ms a response on Linux).  A request whose due time passes while
every sender is still waiting on the server queues on the client, and its
latency counts from when it was due, so a server stall shows in every
request behind it.

The generator's own lateness (``lag``) is how long after a sender was free
*and* the request was due it actually went out: scheduler wake-up and
lock waits, not server time.  A run whose lag p95 exceeds
``spec.MAX_LAG_P95_MS`` measured the generator, not the server, and is
marked invalid.

A closed-loop phase (``rate=None``) measures capacity instead: each sender
sends its next request as soon as the previous one has returned, so every
request is due when it is sent and the phase's request rate is what the
server can complete for ``senders`` back-to-back clients.
"""

from __future__ import annotations

import gc
import http.client
import json
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

import common


@dataclass
class Sent:
    """One request's timeline (perf_counter seconds) and outcome."""

    due: float
    sent: float = 0.0
    done: float = 0.0
    lag: float = 0.0
    status: int = 0
    body: Optional[Dict[str, Any]] = None

    @property
    def latency_ms(self) -> float:
        return (self.done - self.due) * 1e3


@dataclass
class Phase:
    """The outcome of one fixed-rate phase."""

    rate: Optional[float]
    requests: List[Sent] = field(default_factory=list)
    elapsed_s: float = 0.0

    @property
    def ok(self) -> List[Sent]:
        return [r for r in self.requests if r.status == 200]

    @property
    def failed(self) -> int:
        return len(self.requests) - len(self.ok)

    def latency_ms(self, q: float) -> float:
        """Latency percentile; a failed request counts as infinitely late."""
        values = [
            r.latency_ms if r.status == 200 else float("inf") for r in self.requests
        ]
        return common.percentile(values, q)

    def goodput_per_s(self, limit_ms: float) -> float:
        """Requests per second that succeeded within ``limit_ms``."""
        good = sum(1 for r in self.ok if r.latency_ms <= limit_ms)
        return good / self.elapsed_s if self.elapsed_s > 0 else 0.0


def _connect(port: int) -> http.client.HTTPConnection:
    return http.client.HTTPConnection("127.0.0.1", port, timeout=60)


def run_phase(
    port: int,
    route: str,
    payloads: Sequence[Dict[str, Any]],
    rate: Optional[float],
    senders: int,
) -> Phase:
    """Send ``payloads`` to ``POST route`` at ``rate`` requests/s, or
    back to back (closed loop) when ``rate`` is ``None``."""
    bodies = [json.dumps(p).encode("utf-8") for p in payloads]
    start = time.perf_counter() + 0.05
    records = [
        Sent(due=start + i / rate if rate else start) for i in range(len(bodies))
    ]
    lock = threading.Lock()
    cursor = [0]
    headers = {"Content-Type": "application/json", "Connection": "close"}

    def sender() -> None:
        while True:
            with lock:
                index = cursor[0]
                cursor[0] += 1
            if index >= len(records):
                return
            record = records[index]
            free_at = time.perf_counter()
            if rate is None:
                record.due = max(start, free_at)
            if record.due > free_at:
                time.sleep(record.due - free_at)
            record.sent = time.perf_counter()
            record.lag = record.sent - max(record.due, free_at)
            conn = _connect(port)
            try:
                conn.request("POST", route, body=bodies[index], headers=headers)
                response = conn.getresponse()
                raw = response.read()
                record.done = time.perf_counter()
                record.status = response.status
                if response.status == 200:
                    record.body = json.loads(raw)
            except (OSError, http.client.HTTPException, ValueError):
                record.done = time.perf_counter()
                record.status = -1
            finally:
                conn.close()

    threads = [threading.Thread(target=sender, daemon=True) for _ in range(senders)]
    # The generator's own collector pauses would read as server latency.
    gc.disable()
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    finally:
        gc.enable()
    phase = Phase(rate=rate, requests=records)
    phase.elapsed_s = max(r.done for r in records) - start
    return phase


def call(port: int, method: str, path: str, payload: Optional[dict] = None) -> Dict[str, Any]:
    """One synchronous request outside any measured phase."""
    conn = _connect(port)
    try:
        body = json.dumps(payload).encode("utf-8") if payload is not None else None
        conn.request(
            method,
            path,
            body=body,
            headers={"Content-Type": "application/json", "Connection": "close"},
        )
        response = conn.getresponse()
        data = json.loads(response.read())
        if response.status != 200:
            raise RuntimeError(f"{method} {path} -> {response.status}: {data}")
        return data
    finally:
        conn.close()
