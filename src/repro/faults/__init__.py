"""Deterministic fault injection for chaos testing (see ``plan.py``).

Public surface::

    from repro.faults import FaultPlan, FaultSpec, inject

    plan = FaultPlan([FaultSpec(op="score_queries", kind="kill", rank=1)])
    with inject(plan):
        evaluator.entity_prediction(triples, rng)   # rank 1 dies, pool heals

The default active plan is a no-op; production code paths consult
:func:`active_plan` and proceed untouched unless a plan was activated via
code, CLI (``repro serve --fault-plan``), or ``REPRO_FAULT_PLAN``.
"""

from repro.faults.plan import (
    ENV_PLAN_VAR,
    FAULT_KINDS,
    NO_FAULTS,
    FaultInjected,
    FaultPlan,
    FaultSpec,
    activate,
    active_plan,
    deactivate,
    inject,
    plan_from_env,
)

__all__ = [
    "ENV_PLAN_VAR",
    "FAULT_KINDS",
    "NO_FAULTS",
    "FaultInjected",
    "FaultPlan",
    "FaultSpec",
    "activate",
    "active_plan",
    "deactivate",
    "inject",
    "plan_from_env",
]
