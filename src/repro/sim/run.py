"""High-level run orchestration.

``simulate`` is the main entry point of the library: it builds the trace
generator, the LLC organization and the engine for one benchmark and
returns :class:`~repro.sim.stats.RunStats`.

Because the paper's full-size system (16 MB of LLC, hundred-MB
footprints) would need tens of millions of trace accesses for caches to
warm, experiments run at a *reduced scale*: workload region sizes and
cache capacities shrink by the same factor (default 1/16), preserving
the capacity ratios that determine every decision boundary in the
paper.  Bandwidths are left untouched, so all bandwidth bottlenecks are
unchanged.  ``scale=1.0`` runs the full-size system.
"""

from __future__ import annotations

import dataclasses
import time
from typing import List, Optional, Sequence, Union

from ..arch.config import SystemConfig
from ..arch.presets import baseline, with_llc_capacity_scale
from ..core.sac import SharingAwareCaching
from ..llc.base import LLCOrganization
from ..llc.ladm import LADMLLC
from ..llc.organizations import DynamicLLC, MemorySideLLC, SMSideLLC, StaticLLC
from ..workloads.generator import TraceGenerator
from ..workloads.spec import BenchmarkSpec
from .engine import EngineParams, SimulationEngine
from .stats import RunStats

#: Default system/workload shrink factor for experiments.
DEFAULT_SCALE = 1.0 / 16.0

#: Default trace density (per chip, per epoch).
DEFAULT_ACCESSES_PER_EPOCH = 8192

ORGANIZATIONS = ("memory-side", "sm-side", "static", "dynamic", "sac")

#: Additional related-work organizations accepted by make_organization.
EXTRA_ORGANIZATIONS = ("ladm",)

#: Count of :func:`simulate` invocations in this process.  Tests and the
#: runner's cache-effectiveness assertions hook this to prove that warm
#: caches do not re-simulate (the count is per-process: workers in a
#: parallel ``run_matrix`` pool increment their own copies).
_SIMULATE_CALLS = 0


def simulate_calls() -> int:
    """Number of times ``simulate`` ran in this process."""
    return _SIMULATE_CALLS


def reset_simulate_calls() -> None:
    """Reset the ``simulate`` call counter (for tests)."""
    global _SIMULATE_CALLS
    _SIMULATE_CALLS = 0


def make_organization(name: str, config: SystemConfig,
                      **kwargs: object) -> LLCOrganization:
    """Build one of the five evaluated LLC organizations by name."""
    if name == "memory-side":
        return MemorySideLLC(config.num_chips, **kwargs)
    if name == "sm-side":
        return SMSideLLC(config.num_chips, **kwargs)
    if name == "static":
        return StaticLLC(config.num_chips, **kwargs)
    if name == "dynamic":
        return DynamicLLC(config.num_chips, **kwargs)
    if name == "ladm":
        return LADMLLC(config.num_chips, **kwargs)
    if name == "sac":
        return SharingAwareCaching(config, **kwargs)
    raise ValueError(
        f"unknown organization {name!r}; choose from "
        f"{ORGANIZATIONS + EXTRA_ORGANIZATIONS}")


def scaled_config(config: SystemConfig, scale: float) -> SystemConfig:
    """Shrink cache capacities by ``scale`` (leaves bandwidths alone).

    The SAC profiling window shrinks with the same factor: the paper's
    2K-cycle window is a sub-percent fraction of its (multi-million
    cycle) kernels, and keeping the window fixed while kernels shrink
    would inflate the relative profiling overhead by orders of
    magnitude.  Scaling it keeps the window-to-kernel ratio faithful.
    """
    # A scale of exactly 1.0 is the "unscaled" sentinel: callers pass the
    # literal, no arithmetic produces it, so exact equality is intended.
    if scale == 1.0:  # repro: noqa(float-eq)
        return config
    scaled = with_llc_capacity_scale(config, scale)
    # Note: the page size deliberately does NOT scale.  Scaling it keeps
    # the page count per MB constant (smoothing first-touch placement at
    # tiny inputs) but changes the false-sharing granularity and the
    # per-page reuse the sharing profiles were calibrated against; the
    # 4 KB granularity is part of the workload definition (Table 3).
    # Floor at 500 cycles: below that the sampled CRD sees too few
    # requests to estimate the SM-side hit rate reliably.  The decision
    # threshold theta widens a little for the same reason — the shorter
    # window makes the counter estimates noisier, so the guard band the
    # paper uses against borderline flips must grow with that noise.
    sac = dataclasses.replace(
        config.sac,
        profile_window_cycles=max(
            500, round(config.sac.profile_window_cycles * scale)),
        theta=max(config.sac.theta, 0.08),
        drain_cycles=max(50, round(config.sac.drain_cycles * scale)))
    return scaled.with_updates(sac=sac)


def simulate(spec: BenchmarkSpec,
             organization: Union[str, LLCOrganization],
             config: Optional[SystemConfig] = None,
             scale: float = DEFAULT_SCALE,
             accesses_per_epoch: int = DEFAULT_ACCESSES_PER_EPOCH,
             params: Optional[EngineParams] = None) -> RunStats:
    """Simulate ``spec`` under ``organization`` and return the run stats.

    ``organization`` is an organization name (see ``ORGANIZATIONS``) or a
    pre-built :class:`LLCOrganization`, which the caller builds for the
    scaled config (``make_organization(name, scaled_config(config,
    scale), **kwargs)``).
    """
    global _SIMULATE_CALLS
    _SIMULATE_CALLS += 1
    base = config or baseline()
    run_config = scaled_config(base, scale)
    if isinstance(organization, str):
        org = make_organization(organization, run_config)
    else:
        org = organization
    generator = TraceGenerator(
        spec,
        num_chips=run_config.num_chips,
        clusters_per_chip=run_config.chip.num_clusters,
        line_size=run_config.line_size,
        page_size=run_config.page_size,
        accesses_per_epoch_per_chip=accesses_per_epoch,
        scale=scale)
    engine = SimulationEngine(run_config, org, params=params)
    started = time.perf_counter()
    stats = engine.run(generator.kernels(), benchmark=spec.name)
    stats.wall_seconds = time.perf_counter() - started
    return stats


def simulate_stacked(spec: BenchmarkSpec,
                     organizations: Sequence[Union[str, LLCOrganization]],
                     config: Optional[SystemConfig] = None,
                     scale: float = DEFAULT_SCALE,
                     accesses_per_epoch: int = DEFAULT_ACCESSES_PER_EPOCH,
                     params: Optional[EngineParams] = None
                     ) -> List[RunStats]:
    """Simulate ``spec`` under each organization in turn.

    One :func:`simulate` per organization, back to back over the one
    memoized trace, so each run's engine and tag store are freed before
    the next run builds its own.  The trace stays in the generator's
    cache; a ``run_matrix`` over more benchmarks than that cache has
    slots drops it once this returns.  ``stats[i]`` is the run of
    ``organizations[i]``.  The name is kept while the benchmark's
    tracer patches it (ROADMAP, item 1); after that it can be renamed.
    """
    if not organizations:
        raise ValueError("simulate_stacked needs at least one organization")
    # ``simulate`` is looked up as this module's global on every call,
    # so a patched ``repro.sim.run.simulate`` sees each run.
    return [simulate(spec, organization, config=config, scale=scale,
                     accesses_per_epoch=accesses_per_epoch, params=params)
            for organization in organizations]


__all__ = [
    "DEFAULT_ACCESSES_PER_EPOCH",
    "DEFAULT_SCALE",
    "EXTRA_ORGANIZATIONS",
    "ORGANIZATIONS",
    "make_organization",
    "reset_simulate_calls",
    "scaled_config",
    "simulate",
    "simulate_calls",
    "simulate_stacked",
]
