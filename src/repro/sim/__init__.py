"""Simulation engine: trace-driven, epoch-based multi-chip GPU model."""

from .cta import DistributedCTAScheduler, RoundRobinCTAScheduler
from .engine import EngineContext, EngineParams, SimulationEngine
from .eventsim import EventDrivenEngine, validate_against_epoch_model
from .run import (
    DEFAULT_ACCESSES_PER_EPOCH,
    DEFAULT_SCALE,
    ORGANIZATIONS,
    make_organization,
    scaled_config,
    simulate,
    simulate_stacked,
)
from .stats import (
    ORIGIN_LOCAL_LLC,
    ORIGIN_LOCAL_MEM,
    ORIGIN_REMOTE_LLC,
    ORIGIN_REMOTE_MEM,
    ORIGINS,
    KernelStats,
    RunStats,
    harmonic_mean,
    speedup,
)

__all__ = [
    "DistributedCTAScheduler",
    "RoundRobinCTAScheduler",
    "EngineContext",
    "EngineParams",
    "SimulationEngine",
    "EventDrivenEngine",
    "validate_against_epoch_model",
    "DEFAULT_ACCESSES_PER_EPOCH",
    "DEFAULT_SCALE",
    "ORGANIZATIONS",
    "make_organization",
    "scaled_config",
    "simulate",
    "simulate_stacked",
    "ORIGIN_LOCAL_LLC",
    "ORIGIN_LOCAL_MEM",
    "ORIGIN_REMOTE_LLC",
    "ORIGIN_REMOTE_MEM",
    "ORIGINS",
    "KernelStats",
    "RunStats",
    "harmonic_mean",
    "speedup",
]
