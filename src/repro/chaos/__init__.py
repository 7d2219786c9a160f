"""repro.chaos: deterministic fault injection for the Athena stack.

A :class:`FaultPlan` declares *what* fails and *when* on the simulated
clock; a :class:`ChaosController` arms the plan against a running
deployment; :class:`RetryPolicy`/:class:`RetryQueue` are the sim-clock
retry-with-backoff primitives the hardened consumers
(:class:`~repro.core.feature_manager.FeatureManager`, southbound polling)
build on.  Same plan + seed ⇒ byte-identical deterministic telemetry
snapshot — see ``docs/CHAOS.md``.

The scenario runner lives in :mod:`repro.scenarios` (outside this
package — it depends on :mod:`repro.core`, which itself uses this
package's retry primitives).
"""

from repro.chaos.controller import ChaosController
from repro.chaos.plan import (
    FAULT_KINDS,
    FaultEvent,
    FaultPlan,
    canned_plan,
    canned_plan_names,
)
from repro.chaos.retry import RetryPolicy, RetryQueue

__all__ = [
    "FAULT_KINDS",
    "ChaosController",
    "FaultEvent",
    "FaultPlan",
    "RetryPolicy",
    "RetryQueue",
    "canned_plan",
    "canned_plan_names",
]
