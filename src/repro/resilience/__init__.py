"""Fault containment for sweep execution.

Three pieces: :mod:`~repro.resilience.supervisor` (retries, timeouts,
pool respawns around matrix tasks), :mod:`~repro.resilience.manifest`
(the completed-pair journal that lets an interrupted sweep resume), and
:mod:`~repro.resilience.faults` (deterministic fault injection so every
recovery path is testable without real nondeterminism).  See
``docs/resilience.md``.
"""

from .faults import (FaultEntry, FaultPlan, SITES, active, armed, fire,
                     install, reset)
from .manifest import SweepManifest
from .supervisor import (SupervisedTask, Supervisor, SupervisorTelemetry,
                         TaskFailedError, TaskTimeoutError, default_retries,
                         default_task_timeout, run_supervised)

__all__ = [
    "FaultEntry",
    "FaultPlan",
    "SITES",
    "SupervisedTask",
    "Supervisor",
    "SupervisorTelemetry",
    "SweepManifest",
    "TaskFailedError",
    "TaskTimeoutError",
    "active",
    "armed",
    "default_retries",
    "default_task_timeout",
    "fire",
    "install",
    "reset",
    "run_supervised",
]
