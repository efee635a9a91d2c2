"""Rank-addressed multiprocessing worker pool (the parallel substrate).

Design
------
``WorkerPool`` starts ``workers`` persistent processes with the ``fork``
start method.  Heavy read-only state (the :class:`KnowledgeGraph`, the
model) is handed to the children *by inheritance*: it is stashed in a
module global immediately before forking, so children see it copy-on-write
without ever pickling a graph or a model.  Only task
payloads (triples, parameter arrays) and results (samples, scores,
gradients) cross the process boundary.

Unlike ``multiprocessing.Pool``, tasks are addressed **by rank**: shard
``k`` always runs on worker ``k``.  That buys three properties the parity
and determinism suites rely on:

* deterministic shard → process placement (no scheduler races);
* per-rank RNG streams pinned at startup from ``(seed, rank)`` via
  :mod:`repro.utils.seeding`, so dropout draws are reproducible run to run;
* per-rank sample memos stay coherent: the same rank re-prepares the same
  shard across training epochs.

Operations are plain functions registered with :func:`register_op`; they
receive a per-worker ``state`` dict (``context`` + ``rank`` + ``rng``) and
the payload.  Consumer modules (:mod:`repro.parallel.trainer`,
:mod:`repro.parallel.evaluation`) register theirs at import time, which
the forked children inherit.

``workers=1`` (the default everywhere) never forks: ops run inline in the
parent through the very same dispatch path, so the serial configuration is
untouched by this subsystem while still exercising one code path in tests.
On platforms without ``fork`` the pool degrades to inline execution
rather than failing (gated, not assumed — see :func:`fork_available`).

Fault tolerance
---------------
The pool is a **supervisor**, not just a dispatcher.  Dispatch stamps every
task with a pool-global sequence number and an optional absolute deadline;
collection is event-driven (``multiprocessing.connection.wait`` over the
result pipe and every worker's liveness sentinel), so a crashed worker
wakes the supervisor immediately instead of after a poll interval.  On a
worker death the supervisor **respawns the rank with the same (seed, rank)
RNG derivation** — so a re-run of a lost task produces bitwise-identical
results for RNG-free and freshly-re-seeded ops — and requeues that rank's
in-flight task, up to ``max_task_retries`` times, after which it raises
:class:`WorkerError` carrying the task's full attempt provenance.  A task
that exceeds its deadline gets its (presumed wedged) worker escalated
terminate → kill, a respawn, and a requeue through the same path.  The
pool stays usable after a :class:`WorkerError`: stale results from
superseded dispatches are recognised by sequence number and discarded
(their metric deltas are still merged — observability never loses work
that happened).

Operation errors are **not** retried: an op raising is deterministic
application behaviour, and retrying it would just fail again (and would
mask real bugs).  Only infrastructure failures — dead workers, expired
deadlines — trigger the respawn/requeue path.

Chaos runs inject failures through :mod:`repro.faults`: the supervisor
consults the active :class:`~repro.faults.FaultPlan` at dispatch time,
keyed by ``(op, rank, per-rank dispatch index)``, and ships the matched
directive with the task so the worker kills itself / raises / sleeps /
drops its result at a deterministic, replayable point.

CPU budget
----------
While any forked pool is open, the parent runs BLAS single-threaded, and
so does every rank, because ranks (respawns included) fork from that
state.  OpenBLAS otherwise starts one thread per CPU in every process, and
its idle threads busy-wait on the cores the ranks need: two ranks with two
BLAS threads each ran data-parallel training at about half the serial rate
on 2 CPUs.  One thread is enough because the matrices are
``embed_dim``-sized; serial training ran equally fast with 1 and 2.  Open
forked pools are reference-counted (several may be open at once), and the
last :meth:`WorkerPool.close` restores the parent's previous count.
Inline pools never touch it.  Without a mapped OpenBLAS the pin is a
no-op (see :mod:`repro.parallel.blas`).
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import threading
import time
import traceback
from multiprocessing import connection
from queue import Empty
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.faults.plan import FaultInjected, FaultPlan, active_plan
from repro.obs import get_registry
from repro.parallel import blas
from repro.utils.seeding import worker_rng

#: Handed to forked children by COW inheritance; set only inside
#: :meth:`WorkerPool._spawn` for the duration of the fork.
_FORK_CONTEXT: Optional[Dict[str, Any]] = None

#: Serialises every write/fork cycle on :data:`_FORK_CONTEXT`.  Two pools
#: in one process — two pools starting together, or a supervisor respawn
#: racing another pool's start — would otherwise race on the module
#: global and could fork a child with the *wrong* context.
_FORK_LOCK = threading.Lock()

#: Forked pools currently open, and the parent's BLAS thread count from
#: before the first of them pinned it to one; both guarded by _FORK_LOCK.
_OPEN_FORKED_POOLS = 0
_SAVED_BLAS_THREADS: Optional[int] = None

#: Registered operations: name -> fn(state, payload).
_OPS: Dict[str, Callable[[Dict[str, Any], Any], Any]] = {}

_STOP = None  # queue sentinel

#: Fault kinds an inline (single-process) pool can execute: it cannot
#: crash the parent or lose a message that never crosses a process.
_INLINE_KINDS = ("error", "latency")


class WorkerError(RuntimeError):
    """An operation raised (or a worker died past its retry budget) inside
    the pool; carries the rank, the remote traceback or failure reason, and
    the task's full attempt provenance."""


def register_op(name: str) -> Callable:
    """Decorator registering a worker operation under ``name``."""

    def decorate(fn: Callable[[Dict[str, Any], Any], Any]) -> Callable:
        if name in _OPS and _OPS[name] is not fn:  # pragma: no cover - guard
            raise ValueError(f"operation {name!r} already registered")
        _OPS[name] = fn
        return fn

    return decorate


def fork_available() -> bool:
    """Whether real process parallelism is available on this platform."""
    return "fork" in multiprocessing.get_all_start_methods()


def usable_cpus() -> int:
    """CPUs this process may actually run on (cgroup/affinity aware)."""
    try:
        return len(os.sched_getaffinity(0))
    except (AttributeError, OSError):  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def _budget_cpus(opening: bool) -> None:
    """Count a forked pool in or out; the first in pins the parent's BLAS
    to one thread, the last out restores the count it found."""
    global _OPEN_FORKED_POOLS, _SAVED_BLAS_THREADS
    with _FORK_LOCK:
        if opening:
            if _OPEN_FORKED_POOLS == 0:
                _SAVED_BLAS_THREADS = blas.get_threads()
                blas.set_threads(1)
            _OPEN_FORKED_POOLS += 1
        else:
            _OPEN_FORKED_POOLS -= 1
            if _OPEN_FORKED_POOLS == 0 and _SAVED_BLAS_THREADS is not None:
                blas.set_threads(_SAVED_BLAS_THREADS)
                _SAVED_BLAS_THREADS = None


def _pin_rngs(value: Any, seed: int, rank: int, counter: List[int]) -> None:
    """Recursively repoint every ``_rng`` attribute under ``value`` to a
    fresh per-rank stream.

    Models may hold RNGs at any depth (e.g. a dropout submodule with its
    own generator), and a fork-inherited generator would advance in
    lockstep across all ranks — correlated draws.  Each pinned object gets
    a distinct stream derived from ``(seed, rank, discovery index)``;
    discovery order is the module tree's attribute insertion order, which
    is construction-deterministic, so runs remain reproducible.  A
    respawned rank repeats the identical derivation, which is what makes
    post-crash re-runs bitwise-reproducible.
    """
    if hasattr(value, "_rng"):
        value._rng = worker_rng(seed, rank, counter[0])
        counter[0] += 1
    # Walk Module trees (duck-typed on named_parameters to avoid importing
    # the autograd package here) through their instance attributes.
    if hasattr(value, "named_parameters"):
        for child in vars(value).values():
            if hasattr(child, "named_parameters") or hasattr(child, "_rng"):
                _pin_rngs(child, seed, rank, counter)
            elif isinstance(child, (list, tuple)):
                for item in child:
                    if hasattr(item, "named_parameters") or hasattr(item, "_rng"):
                        _pin_rngs(item, seed, rank, counter)


def _apply_directive(directive: Dict[str, Any]) -> None:
    """Execute a fault directive's pre-op effect inside the worker."""
    kind = directive.get("kind")
    if kind == "kill":
        # The honest crash: no atexit, no queue flush, no goodbye.
        os.kill(os.getpid(), signal.SIGKILL)
    elif kind == "latency":
        time.sleep(float(directive.get("latency_s", 0.0)))
    elif kind == "error":
        raise FaultInjected(str(directive.get("message", "injected fault")))


def _worker_main(rank: int, seed: int, tasks, results) -> None:
    """Child process loop: seeded at startup, then task → dispatch → result."""
    context = _FORK_CONTEXT or {}
    state = {"context": context, "rank": rank, "rng": worker_rng(seed, rank)}
    # Pin every RNG reachable from the context to this rank's streams;
    # without this all forked children would continue the parent's stream
    # in lockstep.
    counter = [0]
    for value in context.values():
        _pin_rngs(value, seed, rank, counter)
    # The fork inherited a COW copy of the parent's metrics registry; zero
    # it so the per-task deltas shipped below don't double-count whatever
    # the parent had accumulated before the pool started.
    registry = get_registry()
    registry.reset()
    while True:
        task = tasks.get()
        if task is _STOP:
            return
        task_id, seq, op, payload, directive = task
        try:
            if directive is not None:
                _apply_directive(directive)
            value = _OPS[op](state, payload)
            delta = registry.collect(reset=True)
            if directive is not None and directive.get("kind") == "drop":
                # Simulate a lost message: the work happened, the result
                # (and its metrics delta) never reaches the parent.  Only
                # a task deadline can rescue the caller.
                continue
            results.put((task_id, seq, rank, "ok", value, delta))
        except BaseException as error:  # noqa: BLE001 — shipped to parent
            # Reset anyway: a later successful task must not resurrect the
            # failed task's partial counts in its delta.
            registry.reset()
            results.put(
                (
                    task_id,
                    seq,
                    rank,
                    "error",
                    f"{type(error).__name__}: {error}\n{traceback.format_exc()}",
                    None,
                )
            )


class WorkerPool:
    """``workers`` rank-addressed processes over a shared read-only context.

    Parameters
    ----------
    workers:
        Number of ranks.  ``1`` runs every op inline (no processes).
    context:
        Read-only objects the ops need (graph, model ...).
        Inherited by fork — mutations after construction are NOT visible
        to the workers; ship mutable state (e.g. parameters) in payloads.
    seed:
        Base seed for the per-rank RNG streams.
    task_deadline_s:
        Default per-task deadline.  A task that has not produced a result
        within this budget has its worker killed, respawned, and the task
        requeued (counted against the retry budget).  ``None`` (default)
        disables deadlines; ``run()`` can override per call.
    max_task_retries:
        How many times a task lost to a dead worker or an expired deadline
        is re-dispatched before the pool gives up with :class:`WorkerError`.
    close_timeout_s:
        Grace period :meth:`close` gives each worker to exit on its own
        before escalating terminate → kill.
    """

    def __init__(
        self,
        workers: int,
        context: Optional[Dict[str, Any]] = None,
        seed: int = 0,
        task_deadline_s: Optional[float] = None,
        max_task_retries: int = 2,
        close_timeout_s: float = 5.0,
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if max_task_retries < 0:
            raise ValueError(f"max_task_retries must be >= 0, got {max_task_retries}")
        self.workers = int(workers)
        self.seed = int(seed)
        self.context: Dict[str, Any] = dict(context or {})
        self.task_deadline_s = task_deadline_s
        self.max_task_retries = int(max_task_retries)
        self.close_timeout_s = float(close_timeout_s)
        self._inline = self.workers == 1 or not fork_available()
        self._processes: List[multiprocessing.Process] = []
        self._task_queues: List[Any] = []
        self._results: Optional[Any] = None
        self._closed = False
        # Pool-global dispatch sequence: every (re-)dispatch gets a fresh
        # number, and only the result matching the *current* dispatch of a
        # task is accepted.  This is what keeps the pool usable after a
        # WorkerError — stragglers from superseded dispatches or aborted
        # runs are recognised and discarded.
        self._seq = 0
        # Per-(op, rank) dispatch counters: the task_index axis of the
        # fault-plan key, so chaos specs address "the Nth score_queries
        # dispatched to rank 2" deterministically.
        self._dispatch_counts: Dict[Tuple[str, int], int] = {}
        # One dispatch at a time: task ids are per-call and the results
        # queue is shared, so overlapping run() calls (e.g. from two
        # threads sharing one pool) must serialise here.
        self._run_lock = threading.Lock()
        if not self._inline:
            _budget_cpus(opening=True)
            try:
                self._start_processes()
            except BaseException:
                self.close()
                raise

    # ------------------------------------------------------------------
    def _start_processes(self) -> None:
        ctx = multiprocessing.get_context("fork")
        self._results = ctx.Queue()
        self._task_queues = [None] * self.workers
        self._processes = [None] * self.workers
        for rank in range(self.workers):
            self._spawn(rank)

    def _spawn(self, rank: int) -> None:
        """(Re)start the worker for ``rank`` with the same (seed, rank) RNG
        derivation a fresh pool would use — respawns are bitwise-faithful.

        A respawn gets a fresh task queue: the old one may still hold a
        task dispatched before the death was noticed, and re-delivering it
        would double-execute (the supervisor requeues lost tasks itself).
        """
        global _FORK_CONTEXT
        ctx = multiprocessing.get_context("fork")
        old = self._processes[rank]
        if old is not None:
            old.join(timeout=0.2)  # reap the zombie; it is already dead
        tasks = ctx.SimpleQueue()
        # The whole write → fork → clear cycle holds the module lock: a
        # concurrent _spawn from another pool (or a supervisor respawn)
        # must not overwrite the context between our write and our fork.
        with _FORK_LOCK:
            _FORK_CONTEXT = self.context
            try:
                process = ctx.Process(
                    target=_worker_main,
                    args=(rank, self.seed, tasks, self._results),
                    name=f"repro-parallel-{rank}",
                    daemon=True,
                )
                process.start()
            finally:
                _FORK_CONTEXT = None
        self._task_queues[rank] = tasks
        self._processes[rank] = process

    # ------------------------------------------------------------------
    @property
    def is_inline(self) -> bool:
        """True when ops run in the parent process (workers=1 or no fork)."""
        return self._inline

    def run(
        self,
        op: str,
        payloads: Sequence[Any],
        deadline_s: Optional[float] = None,
    ) -> List[Any]:
        """Run ``op`` with ``payloads[k]`` on rank ``k``; results aligned
        with ``payloads``.  At most ``workers`` payloads per call.

        ``deadline_s`` overrides the pool's default per-task deadline for
        this call only.
        """
        if self._closed:
            raise RuntimeError("pool is closed")
        payloads = list(payloads)
        if len(payloads) > self.workers:
            raise ValueError(
                f"{len(payloads)} payloads for {self.workers} workers; "
                "shard the work first (repro.parallel.sharding)"
            )
        if op not in _OPS:
            raise KeyError(f"unknown operation {op!r}")
        if self._inline:
            return self._run_inline(op, payloads)
        with self._run_lock:
            return self._run_supervised(op, payloads, deadline_s)

    def _run_inline(self, op: str, payloads: List[Any]) -> List[Any]:
        plan = active_plan()
        state = {"context": self.context, "rank": 0, "rng": None}
        results: List[Any] = []
        for payload in payloads:
            spec = plan.take(op, 0, self._next_index(op, 0), kinds=_INLINE_KINDS)
            if spec is not None:
                if spec.kind == "latency":
                    time.sleep(spec.latency_s)
                else:
                    raise FaultInjected(spec.message)
            results.append(_OPS[op](state, payload))
        return results

    # ------------------------------------------------------------------
    def _next_index(self, op: str, rank: int) -> int:
        key = (op, rank)
        index = self._dispatch_counts.get(key, 0)
        self._dispatch_counts[key] = index + 1
        return index

    def _dispatch(
        self,
        op: str,
        task_id: int,
        record: Dict[str, Any],
        plan: FaultPlan,
        deadline_budget: Optional[float],
    ) -> None:
        rank = record["rank"]
        spec = plan.take(op, rank, self._next_index(op, rank))
        directive = spec.directive() if spec is not None else None
        self._seq += 1
        record["seq"] = self._seq
        record["attempts"] += 1
        record["deadline"] = (
            time.monotonic() + deadline_budget if deadline_budget else None
        )
        self._task_queues[rank].put(
            (task_id, record["seq"], op, record["payload"], directive)
        )

    def _run_supervised(
        self, op: str, payloads: List[Any], deadline_s: Optional[float]
    ) -> List[Any]:
        registry = get_registry()
        plan = active_plan()
        budget = deadline_s if deadline_s is not None else self.task_deadline_s
        results: List[Any] = [None] * len(payloads)
        pending: Dict[int, Dict[str, Any]] = {
            task_id: {
                "payload": payload,
                "rank": task_id,  # rank-addressed: shard k on worker k
                "seq": None,
                "attempts": 0,
                "deadline": None,
                "history": [],
            }
            for task_id, payload in enumerate(payloads)
        }
        for task_id in range(len(payloads)):
            self._dispatch(op, task_id, pending[task_id], plan, budget)
        while pending:
            event, data = self._next_event(self._poll_timeout(pending))
            if event == "result":
                task_id, seq, rank, status, value, delta = data
                # Merge the rank's metrics delta before anything else:
                # observability must not lose the work that *did* happen,
                # even for stale or failed dispatches.
                if delta:
                    registry.merge(delta)
                record = pending.get(task_id)
                if record is None or record["seq"] != seq:
                    continue  # straggler from a superseded dispatch
                if status != "ok":
                    record["history"].append(f"rank {rank}: operation raised")
                    raise WorkerError(
                        self._provenance(
                            op,
                            task_id,
                            record,
                            f"operation raised on rank {rank}:\n{value}",
                        )
                    )
                results[task_id] = value
                del pending[task_id]
            elif event == "dead":
                rank = data
                lost = [t for t, r in pending.items() if r["rank"] == rank]
                self._spawn(rank)
                registry.counter("parallel.pool.restarts").inc()
                for task_id in lost:
                    record = pending[task_id]
                    record["history"].append(
                        f"rank {rank} died (attempt {record['attempts']})"
                    )
                    self._retry_or_fail(op, task_id, record, plan, budget)
            else:  # timeout — sweep for expired task deadlines
                now = time.monotonic()
                expired = [
                    t
                    for t, r in pending.items()
                    if r["deadline"] is not None and now >= r["deadline"]
                ]
                for task_id in expired:
                    record = pending[task_id]
                    rank = record["rank"]
                    registry.counter("parallel.pool.deadline_expired").inc()
                    record["history"].append(
                        f"rank {rank} exceeded the {budget:.3f}s deadline "
                        f"(attempt {record['attempts']})"
                    )
                    self._kill_rank(rank)
                    self._spawn(rank)
                    registry.counter("parallel.pool.restarts").inc()
                    self._retry_or_fail(op, task_id, record, plan, budget)
        return results

    def _retry_or_fail(
        self,
        op: str,
        task_id: int,
        record: Dict[str, Any],
        plan: FaultPlan,
        budget: Optional[float],
    ) -> None:
        if record["attempts"] > self.max_task_retries:
            raise WorkerError(
                self._provenance(
                    op,
                    task_id,
                    record,
                    f"retry budget exhausted ({self.max_task_retries} retries)",
                )
            )
        get_registry().counter("parallel.pool.retries").inc()
        self._dispatch(op, task_id, record, plan, budget)

    def _provenance(
        self, op: str, task_id: int, record: Dict[str, Any], reason: str
    ) -> str:
        history = "; ".join(record["history"]) or "first attempt"
        return (
            f"worker {record['rank']} failed running {op!r} "
            f"(task {task_id}, {record['attempts']} attempt(s)): {reason}\n"
            f"attempt history: {history}"
        )

    @staticmethod
    def _poll_timeout(pending: Dict[int, Dict[str, Any]]) -> Optional[float]:
        deadlines = [
            record["deadline"]
            for record in pending.values()
            if record["deadline"] is not None
        ]
        if not deadlines:
            return None  # results and deaths both wake the event wait
        return max(0.0, min(deadlines) - time.monotonic()) + 0.005

    def _next_event(self, timeout: Optional[float]):
        """Block until a result arrives, a worker dies, or the deadline
        horizon passes.  Event-driven: a SIGKILLed worker closes its
        liveness sentinel and wakes this immediately — no busy-poll."""
        reader = getattr(self._results, "_reader", None)
        if reader is not None:
            # Queued results first: a worker that answered and *then* died
            # must deliver its answer before its death is handled, or the
            # supervisor would requeue work that already completed.
            if reader.poll(0):
                try:
                    return ("result", self._results.get(timeout=0.25))
                except Empty:  # repro-lint: disable=RL009 not a swallow: a feeder thread signalled the pipe before its message completed; fall through to the death sweep and event wait below
                    pass
            # Then anyone already dead — a worker that died before this
            # call has no future sentinel event to wake the wait below.
            for rank, process in enumerate(self._processes):
                if process is not None and not process.is_alive():
                    return ("dead", rank)
            live = [
                (process.sentinel, rank)
                for rank, process in enumerate(self._processes)
                if process is not None
            ]
            ready = connection.wait(
                [reader] + [sentinel for sentinel, _ in live], timeout=timeout
            )
            if reader in ready:
                try:
                    # The feeder thread of a killed worker can signal the
                    # pipe without a complete message; bounded get() falls
                    # through to the liveness sweep instead of hanging.
                    return ("result", self._results.get(timeout=0.25))
                except Empty:
                    ready = [entry for entry in ready if entry is not reader]
            for sentinel, rank in live:
                if sentinel in ready and not self._processes[rank].is_alive():
                    return ("dead", rank)
            return ("timeout", None)
        # Platforms whose Queue hides the reader connection: degrade to a
        # short-timeout poll so death detection still happens sub-second.
        try:
            bounded = 0.1 if timeout is None else min(timeout, 0.1)
            return ("result", self._results.get(timeout=bounded))
        except Empty:
            for rank, process in enumerate(self._processes):
                if process is not None and not process.is_alive():
                    return ("dead", rank)
            return ("timeout", None)

    def _kill_rank(self, rank: int) -> None:
        """Escalating stop for a wedged worker: terminate, then SIGKILL."""
        process = self._processes[rank]
        if process is None or not process.is_alive():
            return
        process.terminate()
        process.join(timeout=0.5)
        if process.is_alive():  # pragma: no cover - SIGTERM ignored
            process.kill()
            process.join(timeout=0.5)

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Stop the workers (idempotent).  Escalates join → terminate →
        kill so a wedged or fault-injected worker cannot hang teardown."""
        if self._closed:
            return
        self._closed = True
        for tasks in self._task_queues:
            if tasks is None:
                continue
            try:
                tasks.put(_STOP)
            except (OSError, ValueError):  # repro-lint: disable=RL009 teardown race: the queue pipe may already be torn down by a dead worker or interpreter shutdown, and there is nobody left to notify
                pass
        for process in self._processes:
            if process is None:
                continue
            process.join(timeout=self.close_timeout_s)
            if process.is_alive():
                process.terminate()
                process.join(timeout=1.0)
            if process.is_alive():  # pragma: no cover - SIGTERM ignored
                process.kill()
                process.join(timeout=1.0)
        if self._results is not None:
            self._results.close()
        self._processes = []
        self._task_queues = []
        if not self._inline:
            _budget_cpus(opening=False)

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - GC safety net
        try:
            self.close()
        except Exception:  # repro-lint: disable=RL009 __del__ runs during interpreter teardown where queue/process state is arbitrary; raising here would mask the original error
            pass
