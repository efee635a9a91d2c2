"""Micro-batching request scheduler for the serving layer.

Concurrent callers submit scoring requests (any number of triples each) to
a queue and receive ``concurrent.futures.Future`` handles.  A single
worker thread drains the queue, coalescing requests into batches of at
most ``max_batch_size`` triples: after the first request of a batch it
keeps accepting more for up to ``max_wait_ms`` (classic size-or-deadline
micro-batching), then dispatches ONE
:meth:`~repro.serve.session.InferenceSession.score` call per distinct
model in the batch.  N coalesced same-model requests therefore reach the
model as a single batched scoring call — asserted in the tests via the
model's ``<metrics_namespace>.batch_calls`` counter in the
:mod:`repro.obs` registry (see :mod:`repro.core.base`).

The single worker also serialises all model access, which is what makes
the numpy models (train/eval toggling) safe to drive from the threaded
HTTP frontend.
"""

from __future__ import annotations

import queue
import threading
import time
from concurrent.futures import Future
from concurrent.futures import TimeoutError as FutureTimeout
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.autograd.engine import SCORE_DTYPE
from repro.faults.plan import FaultInjected, active_plan
from repro.kg.triples import Triple
from repro.obs import get_registry, span
from repro.serve.session import InferenceSession


class SchedulerStopped(RuntimeError):
    """Raised by :meth:`MicroBatchScheduler.submit` once the scheduler is
    stopped for good — late requests fail fast instead of hanging against a
    queue nobody drains."""

    def __init__(self, message: str = "scheduler is stopped") -> None:
        super().__init__(message)


class QueueSaturated(RuntimeError):
    """Admission control rejection: the request queue is at its watermark.

    Carries ``retry_after_s``, the server's backoff hint, which the HTTP
    layer turns into a 503 with a ``Retry-After`` header."""

    def __init__(self, depth: int, watermark: int, retry_after_s: float) -> None:
        super().__init__(
            f"scheduler queue saturated ({depth} waiting >= watermark "
            f"{watermark}); retry in {retry_after_s:g}s"
        )
        self.depth = depth
        self.watermark = watermark
        self.retry_after_s = retry_after_s


class DeadlineExceeded(RuntimeError):
    """The request's deadline passed before its batch was scored; the
    scheduler drops such requests *before* spending model time on them."""


#: Fault kinds the scheduler's dispatch hook can execute (it runs in the
#: parent process, so crash/drop faults do not apply here).
_DISPATCH_KINDS = ("error", "latency")


@dataclass
class SchedulerStats:
    """Coalescing observability: how requests became batches.

    The same numbers are mirrored into the process metrics registry under
    ``serve.scheduler.*`` so ``GET /metrics`` reports them; this dataclass
    remains the scheduler-local view behind ``GET /stats``.
    """

    requests: int = 0
    batches: int = 0
    dispatches: int = 0  # model calls (≥ batches under mixed-model traffic)
    triples: int = 0
    largest_batch_requests: int = 0
    largest_batch_triples: int = 0

    def as_dict(self) -> dict:
        return dict(vars(self))

    def snapshot(self) -> dict:
        """Point-in-time copy — subtract two snapshots instead of resetting
        a scheduler that other tests share."""
        return self.as_dict()


@dataclass
class _Request:
    triples: List[Triple]
    model: Optional[str]
    #: Absolute ``time.monotonic()`` deadline, or None for no deadline.
    deadline: Optional[float] = None
    future: "Future[np.ndarray]" = field(default_factory=Future)


_STOP = object()


class MicroBatchScheduler:
    """Coalesces concurrent scoring requests into batched model calls.

    Parameters
    ----------
    session:
        The :class:`InferenceSession` all batches are scored through.
    max_batch_size:
        Dispatch as soon as a batch holds this many triples.  A single
        oversized request is never split — it dispatches alone.
    max_wait_ms:
        After a batch's first request, how long to keep the batch open for
        more arrivals before dispatching a partial batch.
    max_queue_depth:
        Admission watermark: a submit that would leave more than this many
        requests waiting is rejected with :class:`QueueSaturated` (the HTTP
        layer's 503).  ``None`` disables load shedding.
    retry_after_s:
        Backoff hint carried by :class:`QueueSaturated` rejections.
    """

    def __init__(
        self,
        session: InferenceSession,
        max_batch_size: int = 64,
        max_wait_ms: float = 2.0,
        max_queue_depth: Optional[int] = None,
        retry_after_s: float = 1.0,
    ) -> None:
        if max_batch_size < 1:
            raise ValueError("max_batch_size must be >= 1")
        if max_wait_ms < 0:
            raise ValueError("max_wait_ms must be >= 0")
        if max_queue_depth is not None and max_queue_depth < 1:
            raise ValueError("max_queue_depth must be >= 1 (or None)")
        if retry_after_s <= 0:
            raise ValueError("retry_after_s must be > 0")
        self.session = session
        self.max_batch_size = int(max_batch_size)
        self.max_wait_ms = float(max_wait_ms)
        self.max_queue_depth = max_queue_depth
        self.retry_after_s = float(retry_after_s)
        self.stats = SchedulerStats()
        # Batch-dispatch counter: the task_index axis of the fault-plan key
        # for the "serve.dispatch" consultation point.
        self._dispatch_index = 0
        self._queue: "queue.Queue" = queue.Queue()
        self._worker: Optional[threading.Thread] = None
        self._retiring: Optional[threading.Thread] = None
        self._lock = threading.Lock()
        # Accepts submissions from construction (pre-start submits coalesce
        # once the worker runs); a *completed* stop() flips this off so late
        # submissions fail fast instead of hanging in a dead queue.
        self._accepting = True

    # ------------------------------------------------------------------
    def start(self) -> "MicroBatchScheduler":
        with self._lock:
            if self._worker is not None and self._worker.is_alive():
                return self
            if self._retiring is not None:
                # A stopped worker may still be draining its backlog; wait
                # it out so two workers never pull from the queue (and call
                # the thread-unsafe models) concurrently.
                self._retiring.join()
                self._retiring = None
            self._worker = threading.Thread(
                target=self._run, name="repro-serve-scheduler", daemon=True
            )
            self._accepting = True
            self._worker.start()
        return self

    def stop(self, timeout: Optional[float] = 5.0) -> None:
        """Stop the worker after it drains everything already queued.

        If the drain outlives ``timeout`` the worker keeps running in the
        background; a later :meth:`start` waits for it before spawning a
        replacement, preserving single-worker model access.
        """
        with self._lock:
            worker = self._worker
            if worker is None:
                return
            self._worker = None
            # Hand the worker over to _retiring BEFORE releasing the lock:
            # a concurrent start() during the join window below must see it
            # and wait, or two workers would drain the queue at once.
            self._retiring = worker
        self._queue.put(_STOP)
        worker.join(timeout=timeout)
        if not worker.is_alive():
            with self._lock:
                if self._retiring is worker:
                    self._retiring = None

    def close(self, timeout: Optional[float] = 5.0) -> None:
        """Terminal stop: refuse new submissions, drain the queue, and fail
        any request that raced past the final drain — nothing is left
        hanging against a dead queue.  :meth:`start` re-opens the scheduler."""
        self._accepting = False
        self.stop(timeout=timeout)
        with self._lock:
            draining = self._retiring is not None and self._retiring.is_alive()
        if not draining:
            # No worker left to serve stragglers; fail their futures fast.
            self._flush_queue()

    def _flush_queue(self) -> None:
        while True:
            try:
                item = self._queue.get_nowait()
            except queue.Empty:
                return
            if item is _STOP:
                continue
            if not item.future.cancelled():
                item.future.set_exception(SchedulerStopped())

    @property
    def is_running(self) -> bool:
        worker = self._worker
        return worker is not None and worker.is_alive()

    def queue_depth(self) -> int:
        """Requests currently waiting (approximate, for observability)."""
        return self._queue.qsize()

    def __enter__(self) -> "MicroBatchScheduler":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # ------------------------------------------------------------------
    def submit(
        self,
        triples: Sequence[Triple],
        model: Optional[str] = None,
        deadline: Optional[float] = None,
    ) -> "Future[np.ndarray]":
        """Enqueue a scoring request; the future resolves to the score
        array (order-aligned with ``triples``).  Requests may be submitted
        before :meth:`start` — they coalesce once the worker runs.  After
        :meth:`close`, submissions raise :class:`SchedulerStopped` until
        the scheduler is started again (:meth:`stop` alone is a restartable
        pause and keeps accepting).  With ``max_queue_depth`` set, a submit
        against a saturated queue is rejected with :class:`QueueSaturated`
        instead of growing the backlog unboundedly.  ``deadline`` is an
        absolute ``time.monotonic()`` instant past which the request is
        dropped (:class:`DeadlineExceeded`) rather than scored."""
        if not self._accepting:
            raise SchedulerStopped()
        registry = get_registry()
        depth = self._queue.qsize()
        if self.max_queue_depth is not None and depth >= self.max_queue_depth:
            registry.counter("serve.scheduler.requests_shed").inc()
            raise QueueSaturated(depth, self.max_queue_depth, self.retry_after_s)
        request = _Request(
            triples=[tuple(int(x) for x in triple) for triple in triples],
            model=model,
            deadline=deadline,
        )
        if not request.triples:
            request.future.set_result(np.empty(0, dtype=SCORE_DTYPE))
            return request.future
        self._queue.put(request)
        registry.gauge("serve.scheduler.queue_depth").set(self._queue.qsize())
        if not self._accepting and not self.is_running:
            # The request raced a concurrent close() past its final drain;
            # nobody will ever serve it, so fail it (and any fellow
            # stragglers) fast instead of leaving the future hanging.
            with self._lock:
                draining = self._retiring is not None and self._retiring.is_alive()
            if not draining:
                self._flush_queue()
        return request.future

    def score_sync(
        self,
        triples: Sequence[Triple],
        model: Optional[str] = None,
        timeout: Optional[float] = 30.0,
        deadline: Optional[float] = None,
    ) -> np.ndarray:
        """Submit and wait — the one-call convenience the HTTP handlers use.

        With a ``deadline`` the wait is capped at the deadline plus one
        batch window of grace (the scheduler needs to *pick up* the request
        to notice it expired); a wait that still times out is surfaced as
        :class:`DeadlineExceeded` so callers see one deadline error type.
        """
        future = self.submit(triples, model, deadline=deadline)
        wait = timeout
        if deadline is not None:
            grace = self.max_wait_ms / 1000.0 + 0.25
            remaining = max(0.0, deadline - time.monotonic()) + grace
            wait = remaining if timeout is None else min(timeout, remaining)
        try:
            return future.result(timeout=wait)
        except FutureTimeout:
            future.cancel()
            if deadline is not None:
                get_registry().counter("serve.scheduler.deadline_expired").inc()
                raise DeadlineExceeded(
                    "request deadline exceeded while waiting for dispatch"
                ) from None
            raise

    # ------------------------------------------------------------------
    def _collect_batch(self, first: "_Request") -> List[_Request]:
        """Gather requests for one batch: up to ``max_batch_size`` triples
        or until ``max_wait_ms`` elapses after the first arrival."""
        batch = [first]
        total = len(first.triples)
        deadline = time.monotonic() + self.max_wait_ms / 1000.0
        while total < self.max_batch_size:
            try:
                item = self._queue.get_nowait()
            except queue.Empty:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    break
                try:
                    item = self._queue.get(timeout=remaining)
                except queue.Empty:
                    break
            if item is _STOP:
                # Keep the sentinel effective for the outer loop.
                self._queue.put(_STOP)
                break
            batch.append(item)
            total += len(item.triples)
        return batch

    def _dispatch(self, batch: List[_Request]) -> None:
        registry = get_registry()
        registry.gauge("serve.scheduler.queue_depth").set(self._queue.qsize())
        self.stats.requests += len(batch)
        registry.counter("serve.scheduler.requests").inc(len(batch))
        # Deadline check BEFORE any model time is spent: a request whose
        # deadline passed while it sat in the queue is already a lost cause
        # for its caller — scoring it would only delay everyone behind it.
        now = time.monotonic()
        alive: List[_Request] = []
        for request in batch:
            if request.deadline is not None and now >= request.deadline:
                registry.counter("serve.scheduler.deadline_expired").inc()
                if not request.future.cancelled():
                    request.future.set_exception(
                        DeadlineExceeded(
                            "request deadline expired before dispatch"
                        )
                    )
                continue
            alive.append(request)
        batch = alive
        if not batch:
            return
        # Chaos hook: the "serve.dispatch" consultation point, keyed by the
        # batch-dispatch index.  Runs in the parent process, so only
        # error/latency kinds apply.
        spec = active_plan().take(
            "serve.dispatch", 0, self._dispatch_index, kinds=_DISPATCH_KINDS
        )
        self._dispatch_index += 1
        if spec is not None:
            if spec.kind == "latency":
                time.sleep(spec.latency_s)
            else:
                error = FaultInjected(spec.message)
                for request in batch:
                    if not request.future.cancelled():
                        request.future.set_exception(error)
                return
        # One model call per distinct model in the batch, preserving request
        # order within each group.  Grouping is by the RESOLVED registry key,
        # so equivalent specs ("name", "name@latest-version", default None)
        # coalesce into one dispatch instead of defeating micro-batching.
        groups: Dict[str, List[_Request]] = {}
        for request in batch:
            try:
                key = self.session.resolve_model(request.model).key
            except Exception as error:  # noqa: BLE001 — unknown model specs
                if not request.future.cancelled():
                    request.future.set_exception(error)
                continue
            groups.setdefault(key, []).append(request)
        if not groups:
            return
        # Batch accounting covers only resolvable requests, so /stats never
        # reports triples the models were never asked to score.
        scorable = [request for requests in groups.values() for request in requests]
        self.stats.batches += 1
        total = sum(len(request.triples) for request in scorable)
        self.stats.triples += total
        self.stats.largest_batch_requests = max(
            self.stats.largest_batch_requests, len(scorable)
        )
        self.stats.largest_batch_triples = max(
            self.stats.largest_batch_triples, total
        )
        registry.counter("serve.scheduler.batches").inc()
        registry.counter("serve.scheduler.triples").inc(total)
        registry.gauge("serve.scheduler.largest_batch_requests").set_max(
            len(scorable)
        )
        registry.gauge("serve.scheduler.largest_batch_triples").set_max(total)
        for key, requests in groups.items():
            flat: List[Triple] = []
            for request in requests:
                flat.extend(request.triples)
            try:
                with span("serve.dispatch"):
                    scores = self.session.score(flat, key)
                self.stats.dispatches += 1
                registry.counter("serve.scheduler.dispatches").inc()
            except Exception as error:  # noqa: BLE001 — delivered via futures
                for request in requests:
                    if not request.future.cancelled():
                        request.future.set_exception(error)
                continue
            offset = 0
            for request in requests:
                chunk = scores[offset : offset + len(request.triples)]
                offset += len(request.triples)
                if not request.future.cancelled():
                    request.future.set_result(chunk)

    def _run(self) -> None:
        while True:
            item = self._queue.get()
            if item is _STOP:
                # Drain whatever was queued before the stop request.
                pending: List[_Request] = []
                while True:
                    try:
                        tail = self._queue.get_nowait()
                    except queue.Empty:
                        break
                    if tail is not _STOP:
                        pending.append(tail)
                for request in pending:
                    self._dispatch([request])
                return
            self._dispatch(self._collect_batch(item))
