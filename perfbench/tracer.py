"""In-memory span tracer wrapped around the program's public entry points.

The traced run installs wrappers on the names the program's callers bind
(module attributes and class methods) and restores them afterwards; no
program source is touched.  Each wrapper opens a span: name, start, end and
the name of the enclosing span on the same thread.  A span's *self time*
is its duration minus the time its child spans cover; self times of all
stages plus the root's own self time add up to the root's wall time, and
the root's self time is what no stage explains (the "unattributed" share).

Spans stay in memory and are written out when the run ends.  In a worker
process forked by :class:`repro.parallel.pool.WorkerPool` the wrappers are
inherited; there the tracer folds each span's self time into the process
metrics registry (``perfbench.w.<stage>.self_ms``), which the pool already
ships back to the parent after every task.
"""

from __future__ import annotations

import os
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

WORKER_PREFIX = "perfbench.w."


class _Frame:
    __slots__ = ("name", "start", "child_s", "parent", "root")

    def __init__(self, name: str, start: float, parent: Optional["_Frame"]) -> None:
        self.name = name
        self.start = start
        self.child_s = 0.0
        self.parent = parent
        self.root = parent.root if parent is not None else name


class Patcher:
    """Replaces attributes of modules and classes until :meth:`restore`."""

    def __init__(self) -> None:
        self._patches: List[Tuple[Any, str, Any]] = []

    def patch(self, owner: Any, attr: str, replacement: Any) -> Any:
        """Set ``owner.attr`` to ``replacement``; returns the original."""
        original = vars(owner)[attr] if attr in vars(owner) else getattr(owner, attr)
        setattr(owner, attr, replacement)
        self._patches.append((owner, attr, original))
        return original

    def restore(self) -> None:
        """Undo every patch, last first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


class Tracer(Patcher):
    """Records spans from patched call sites; see the module docstring."""

    def __init__(self) -> None:
        super().__init__()
        self._pid = os.getpid()
        self._local = threading.local()
        self._lock = threading.Lock()
        #: (root span name, name) -> [calls, total seconds, self seconds]
        self.totals: Dict[Tuple[str, str], List[float]] = defaultdict(
            lambda: [0, 0.0, 0.0]
        )
        #: Raw spans: (name, parent name, thread id, start s, end s).
        self.spans: List[Tuple[str, Optional[str], int, float, float]] = []
        #: Free-form counts recorded by wrappers (lookups, empty subgraphs ...).
        self.counts: Dict[str, float] = defaultdict(float)
        self.exit_hooks: Dict[str, Callable[[str, float, float], None]] = {}

    # -- spans ----------------------------------------------------------
    def _stack(self) -> List[_Frame]:
        local = self._local
        if getattr(local, "pid", None) != os.getpid():
            # First span on this thread, or the first in a forked worker:
            # frames copied from the parent at fork time are not ours.
            local.pid = os.getpid()
            local.stack = []
        return local.stack

    def enter(self, name: str) -> _Frame:
        stack = self._stack()
        frame = _Frame(name, time.perf_counter(), stack[-1] if stack else None)
        stack.append(frame)
        return frame

    def exit(self, frame: _Frame) -> Tuple[float, float]:
        """Close ``frame``; returns its ``(duration, self time)`` in seconds."""
        end = time.perf_counter()
        stack = self._stack()
        if stack and stack[-1] is frame:
            stack.pop()
        elapsed = end - frame.start
        self_s = max(0.0, elapsed - frame.child_s)
        if frame.parent is not None:
            frame.parent.child_s += elapsed
        if os.getpid() != self._pid:
            from repro.obs import get_registry

            registry = get_registry()
            registry.histogram(f"{WORKER_PREFIX}{frame.name}.self_ms").observe(
                self_s * 1e3
            )
            if frame.parent is None:
                registry.histogram(f"{WORKER_PREFIX}top.ms").observe(elapsed * 1e3)
            return elapsed, self_s
        parent = frame.parent.name if frame.parent is not None else None
        with self._lock:
            entry = self.totals[(frame.root, frame.name)]
            entry[0] += 1
            entry[1] += elapsed
            entry[2] += self_s
            self.spans.append(
                (frame.name, parent, threading.get_ident(), frame.start, end)
            )
        hook = self.exit_hooks.get(frame.name)
        if hook is not None:
            hook(frame.name, frame.start, end)
        return elapsed, self_s

    @contextmanager
    def span(self, name: str) -> Iterator[_Frame]:
        frame = self.enter(name)
        try:
            yield frame
        finally:
            self.exit(frame)

    def count(self, name: str, amount: float = 1.0) -> None:
        if os.getpid() != self._pid:
            from repro.obs import get_registry

            get_registry().counter(f"{WORKER_PREFIX}count.{name}").inc(amount)
            return
        with self._lock:
            self.counts[name] += amount

    # -- patching -------------------------------------------------------
    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str,
        observe: Optional[Callable[[tuple, dict, Any], None]] = None,
    ) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``observe(args, kwargs, result)`` runs after the call, outside the
        span, for wrappers that also count properties of the inputs.
        """
        tracer = self

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            frame = tracer.enter(name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.exit(frame)
            if observe is not None:
                observe(args, kwargs, result)
            return result

        original = self.patch(owner, attr, wrapper)
        wrapper.__name__ = getattr(original, "__name__", attr)
        wrapper.__wrapped__ = original  # type: ignore[attr-defined]


    # -- summaries ------------------------------------------------------
    def _sum(self, index: int, name: str, root: Optional[str]) -> float:
        with self._lock:
            return sum(
                entry[index]
                for (entry_root, entry_name), entry in self.totals.items()
                if entry_name == name and root in (None, entry_root)
            )

    def calls(self, name: str, root: Optional[str] = None) -> int:
        """Completed spans named ``name`` (under root span ``root``)."""
        return int(self._sum(0, name, root))

    def total_s(self, name: str, root: Optional[str] = None) -> float:
        return self._sum(1, name, root)

    def self_s(self, name: str, root: Optional[str] = None) -> float:
        return self._sum(2, name, root)

    def records(self) -> List[tuple]:
        return list(self.spans)


def worker_self_s(snapshot: Dict[str, Any]) -> Dict[str, float]:
    """Per-stage self seconds folded back from worker processes, read from
    a metrics-registry snapshot (``perfbench.w.<stage>.self_ms``)."""
    out: Dict[str, float] = {}
    for name, data in snapshot.get("histograms", {}).items():
        if name.startswith(WORKER_PREFIX) and name.endswith(".self_ms"):
            stage = name[len(WORKER_PREFIX) : -len(".self_ms")]
            out[stage] = float(data["sum"]) / 1e3
    return out


def worker_counts(snapshot: Dict[str, Any]) -> Dict[str, float]:
    """Counts recorded by wrappers inside worker processes."""
    prefix = f"{WORKER_PREFIX}count."
    return {
        name[len(prefix) :]: float(value)
        for name, value in snapshot.get("counters", {}).items()
        if name.startswith(prefix)
    }


def worker_top_s(snapshot: Dict[str, Any]) -> float:
    data = snapshot.get("histograms", {}).get(f"{WORKER_PREFIX}top.ms")
    return float(data["sum"]) / 1e3 if data else 0.0


def install_model_spans(tracer: Tracer) -> None:
    """Stage spans shared by training and serving: prepare (extract → line
    graph → Algorithm-1 plan), the sample memo, plan merging, and the
    message-passing layers, NE aggregator and scoring head forwards."""
    from repro.core import base, batching, disclosing, layers, model, scoring

    def on_extract(args: tuple, kwargs: dict, result: Any) -> None:
        kind = kwargs.get("kind", args[3] if len(args) > 3 else "enclosing")
        if kind != "enclosing":
            return
        tracer.count("subgraph.enclosing", len(result))
        tracer.count("subgraph.empty", sum(1 for s in result if s.is_empty))
        tracer.count("subgraph.nodes", sum(len(s.entities) for s in result))

    def on_lookup(args: tuple, kwargs: dict, result: Any) -> None:
        tracer.count("core.lookups", len(result))

    def on_prepare(args: tuple, kwargs: dict, result: Any) -> None:
        tracer.count("core.misses", len(result))

    tracer.wrap(model, "extract_subgraphs_many", "subgraph.extract", on_extract)
    tracer.wrap(model, "build_relational_graphs_many", "subgraph.linegraph")
    tracer.wrap(model, "build_message_plans_many", "subgraph.plan")
    tracer.wrap(batching, "merge_plans", "core.merge")
    tracer.wrap(base.SubgraphScoringModel, "prepared_many", "core.memo", on_lookup)
    tracer.wrap(model.RMPI, "prepare_many", "core.prepare", on_prepare)
    tracer.wrap(model.RMPI, "score_samples_batched", "core.forward")
    tracer.wrap(model.RMPI, "score_sample", "core.forward")
    tracer.wrap(layers.RelationalMessagePassingLayer, "forward", "core.mp_layers")
    tracer.wrap(disclosing.DisclosingAggregator, "forward", "core.ne")
    tracer.wrap(disclosing.DisclosingAggregator, "forward_batched", "core.ne")
    tracer.wrap(scoring.ScoringHead, "forward", "core.head")
