"""Deterministic fault-injection plans (the chaos substrate).

A :class:`FaultPlan` is a list of :class:`FaultSpec` entries, each naming
an operation plus optional rank / task-index filters and a bounded fire
budget (``times``).  Execution layers *consult* the plan at well-defined
decision points — the worker pool before dispatching a task, the serving
scheduler before dispatching a batch — via :meth:`FaultPlan.take`, which
atomically claims one firing of the first matching spec.  Because the
consultation points are deterministic for a given workload (rank-addressed
dispatch, sequential batch dispatch), a chaos run with a given plan is
**replayable**: the same faults fire at the same places every run.

Four fault kinds:

* ``kill``    — the worker process SIGKILLs itself before running the op
                (the honest ``kill -9`` crash; skipped on inline pools,
                which cannot crash the parent);
* ``error``   — the op raises :class:`FaultInjected` instead of running;
* ``latency`` — ``latency_s`` of artificial sleep before the op runs;
* ``drop``    — the op runs but its result is discarded (a lost message;
                only a task deadline can rescue it — skipped inline).

The **active plan** is a module global consulted through
:func:`active_plan`.  By default it is the empty no-op plan; activate one
explicitly (:func:`activate` / the :func:`inject` context manager), from
the CLI (``repro serve --fault-plan``), or via the ``REPRO_FAULT_PLAN``
environment variable (a JSON literal, or ``@path`` to a JSON file) — the
env plan is loaded lazily on first consultation so forked workers and
subprocess smoke checks see it without extra wiring.
"""

from __future__ import annotations

import json
import os
import threading
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence

from repro.obs import get_registry

__all__ = [
    "ENV_PLAN_VAR",
    "FAULT_KINDS",
    "FaultInjected",
    "FaultPlan",
    "FaultSpec",
    "NO_FAULTS",
    "activate",
    "active_plan",
    "deactivate",
    "inject",
    "plan_from_env",
]

#: Environment variable holding a plan as JSON (or ``@path`` to a file).
ENV_PLAN_VAR = "REPRO_FAULT_PLAN"

FAULT_KINDS = ("kill", "error", "latency", "drop")


class FaultInjected(RuntimeError):
    """An exception raised *on purpose* by an ``error``-kind fault."""


@dataclass(frozen=True)
class FaultSpec:
    """One injectable fault, addressed by ``(op, rank, task_index)``.

    ``rank`` / ``task_index`` of ``None`` match any value; ``task_index``
    counts dispatches of ``op`` on that rank (pool) or batch dispatches
    (scheduler), so ``task_index=2`` targets the third dispatch.  A spec
    fires at most ``times`` total — bounded chaos that lets a retried task
    succeed instead of dying forever.
    """

    op: str
    kind: str
    rank: Optional[int] = None
    task_index: Optional[int] = None
    times: int = 1
    latency_s: float = 0.0
    message: str = "injected fault"

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; expected one of {FAULT_KINDS}"
            )
        if self.times < 1:
            raise ValueError(f"times must be >= 1, got {self.times}")
        if self.latency_s < 0:
            raise ValueError(f"latency_s must be >= 0, got {self.latency_s}")

    def matches(self, op: str, rank: int, task_index: int) -> bool:
        return (
            self.op in (op, "*")
            and (self.rank is None or self.rank == rank)
            and (self.task_index is None or self.task_index == task_index)
        )

    def as_dict(self) -> Dict[str, Any]:
        return dict(vars(self))

    #: Wire form handed to worker processes with the task (plain dict so
    #: the task payload does not pickle this module's types).
    def directive(self) -> Dict[str, Any]:
        return {
            "kind": self.kind,
            "latency_s": self.latency_s,
            "message": self.message,
        }


class FaultPlan:
    """An ordered set of :class:`FaultSpec` with per-spec firing budgets.

    Thread-safe: the serving scheduler consults the plan from its worker
    thread while the HTTP layer or a trainer consults it from others.
    """

    def __init__(self, specs: Sequence[FaultSpec] = ()) -> None:
        self.specs: List[FaultSpec] = list(specs)
        self._fired: List[int] = [0] * len(self.specs)
        self._lock = threading.Lock()

    def __bool__(self) -> bool:
        return bool(self.specs)

    def __len__(self) -> int:
        return len(self.specs)

    # ------------------------------------------------------------------
    def take(
        self,
        op: str,
        rank: int,
        task_index: int,
        kinds: Optional[Sequence[str]] = None,
    ) -> Optional[FaultSpec]:
        """Claim one firing of the first live spec matching the key.

        Returns the spec (and counts the injection into the metrics
        registry) or ``None``.  Claiming is atomic, so concurrent
        consultation points never over-fire a budget.  ``kinds`` restricts
        which fault kinds this consultation point can execute (an inline
        pool cannot crash the parent, so it only takes error/latency);
        non-executable specs are left unclaimed.
        """
        if not self.specs:
            return None
        with self._lock:
            for index, spec in enumerate(self.specs):
                if self._fired[index] >= spec.times:
                    continue
                if kinds is not None and spec.kind not in kinds:
                    continue
                if not spec.matches(op, rank, task_index):
                    continue
                self._fired[index] += 1
                registry = get_registry()
                registry.counter("faults.injected").inc()
                registry.counter(f"faults.injected.{spec.kind}").inc()
                return spec
        return None

    def fired(self) -> int:
        """Total firings so far (observability / test assertions)."""
        with self._lock:
            return sum(self._fired)

    def reset(self) -> None:
        """Restore every spec's full budget (replay the same plan)."""
        with self._lock:
            self._fired = [0] * len(self.specs)

    # ------------------------------------------------------------------
    def as_dict(self) -> Dict[str, Any]:
        return {"specs": [spec.as_dict() for spec in self.specs]}

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), sort_keys=True)

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "FaultPlan":
        raw = data.get("specs", data.get("faults", []))
        if not isinstance(raw, list):
            raise ValueError("fault plan must hold a 'specs' list")
        return cls([FaultSpec(**entry) for entry in raw])

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        return cls.from_dict(json.loads(text))

    @classmethod
    def from_cli(cls, value: str) -> "FaultPlan":
        """Parse a CLI/env plan value: ``@path`` reads a JSON file,
        anything else is an inline JSON literal."""
        if value.startswith("@"):
            with open(value[1:], "r", encoding="utf-8") as handle:
                return cls.from_json(handle.read())
        return cls.from_json(value)


#: The shared no-op plan: consulting it is a cheap None.
NO_FAULTS = FaultPlan()

#: Explicitly activated plan, or None → fall back to the (cached) env plan.
_ACTIVE: Optional[FaultPlan] = None
_ENV_PLAN: Optional[FaultPlan] = None


def plan_from_env(environ: Optional[Dict[str, str]] = None) -> FaultPlan:
    """The plan named by ``REPRO_FAULT_PLAN``, or :data:`NO_FAULTS`."""
    value = (environ if environ is not None else os.environ).get(ENV_PLAN_VAR)
    if not value:
        return NO_FAULTS
    return FaultPlan.from_cli(value)


def active_plan() -> FaultPlan:
    """The plan every consultation point reads (never ``None``).

    Resolution order: an explicitly :func:`activate`-d plan, else the
    ``REPRO_FAULT_PLAN`` environment plan (parsed once and cached), else
    the no-op plan.
    """
    global _ENV_PLAN
    if _ACTIVE is not None:
        return _ACTIVE
    if _ENV_PLAN is None:
        _ENV_PLAN = plan_from_env()
    return _ENV_PLAN


def activate(plan: FaultPlan) -> FaultPlan:
    """Install ``plan`` as the active plan; returns the previous one."""
    global _ACTIVE
    previous = active_plan()
    _ACTIVE = plan
    return previous


def deactivate() -> None:
    """Back to the no-op plan (also drops the cached env plan, so tests
    that mutate the environment re-read it)."""
    global _ACTIVE, _ENV_PLAN
    _ACTIVE = None
    _ENV_PLAN = None


class inject:
    """``with inject(plan): ...`` — activate for a scope, then restore."""

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self._previous: Optional[FaultPlan] = None

    def __enter__(self) -> FaultPlan:
        global _ACTIVE
        self._previous = _ACTIVE
        _ACTIVE = self.plan
        return self.plan

    def __exit__(self, *exc_info: object) -> None:
        global _ACTIVE
        _ACTIVE = self._previous
