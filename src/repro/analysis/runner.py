"""Experiment runner: memoized, disk-cached, optionally parallel.

Several paper figures share the same underlying runs (e.g. Figures 1, 8,
9 and 10 all need the 16 benchmarks under the five organizations), so
the runner memoizes :func:`repro.sim.run.simulate` results by a
structural key (benchmark spec, organization, *resolved* config, scale,
density, engine params).  Config resolution happens before the key is
built, so ``config=None`` and an explicit ``baseline()`` share cache
entries.

Three layers, checked in order:

1. the in-process memo (``_CACHE``), free within one process;
2. the optional on-disk :class:`~repro.analysis.diskcache.ResultCache`,
   which survives process boundaries (``set_default_cache_dir``, or a
   matrix's ``cache_dir``);
3. :func:`~repro.sim.run.simulate`, optionally fanned out across a
   supervised process pool (``n_jobs``) for matrix runs.

A matrix dispatches one task per benchmark: the task runs that
benchmark's pending organizations back to back on its one cached
trace, and drops that trace as it ends when the matrix has more
benchmarks than the trace cache has slots.  Matrix results are keyed
and ordered deterministically by (benchmark, organization) submission
order regardless of worker completion order.

Execution is fault-tolerant (see ``docs/resilience.md``): pool tasks run
under a :class:`~repro.resilience.supervisor.Supervisor` (per-task
timeouts via ``REPRO_TASK_TIMEOUT``, retries via ``REPRO_RETRIES``, pool
respawn on worker death), and — when the disk cache is on — every
completed pair is journaled to a :class:`~repro.resilience.manifest.
SweepManifest` under the cache root, so an interrupted matrix resumes
from what it already finished instead of restarting.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Set, Tuple, Union

from ..arch.config import SystemConfig
from ..arch.presets import baseline
from ..core import flags
from ..resilience.manifest import SweepManifest
from ..resilience.supervisor import SupervisedTask, Supervisor
from ..sim.engine import EngineParams
from ..sim.run import (
    DEFAULT_ACCESSES_PER_EPOCH,
    DEFAULT_SCALE,
    simulate,
    simulate_stacked,
)
from ..sim.stats import RunStats, harmonic_mean
from ..workloads.generator import _TRACE_CACHE_MAX, release_trace
from ..workloads.spec import BenchmarkSpec
from .diskcache import ResultCache, content_key

_CACHE: Dict[object, RunStats] = {}


@dataclass
class RunnerTelemetry:
    """Where matrix runs came from (fresh simulation vs cache layers)."""

    simulated: int = 0
    memo_hits: int = 0
    disk_hits: int = 0
    disk_stores: int = 0
    #: Batched epochs (summed over fresh simulations) that the vector
    #: bank declined and the serial engine resolved instead (see
    #: ``RunStats.scalar_epochs``).
    scalar_epochs: int = 0
    #: Wall seconds spent *inside* ``simulate`` (summed over fresh
    #: results).
    sim_seconds: float = 0.0
    #: Whole-matrix wall clock of every ``run_matrix`` call, including
    #: cache-hit resolution and dispatch overhead.  Kept separate from
    #: ``sim_seconds`` because the two measure different things (the
    #: old ``wall_seconds`` field mixed them).
    matrix_seconds: float = 0.0
    #: Supervised execution: task re-dispatches after a failed attempt,
    #: tasks that overran ``REPRO_TASK_TIMEOUT``, and process pools
    #: replaced after a worker death or hang.
    retries: int = 0
    timeouts: int = 0
    respawns: int = 0
    #: Unreadable disk-cache payloads moved to ``quarantine/``.
    cache_quarantined: int = 0
    #: Disk hits whose key the sweep manifest had journaled — work a
    #: previous (interrupted or completed) run of this matrix already
    #: finished.
    resumed_pairs: int = 0

    def summary(self) -> str:
        line = (f"{self.simulated} simulated, {self.memo_hits} memo hits, "
                f"{self.disk_hits} disk hits, {self.disk_stores} disk "
                f"stores in {self.sim_seconds:.1f}s sim "
                f"({self.matrix_seconds:.1f}s matrix)")
        if self.scalar_epochs:
            line += f", {self.scalar_epochs} scalar epochs"
        if self.retries or self.timeouts or self.respawns:
            line += (f", {self.retries} retries / {self.timeouts} timeouts"
                     f" / {self.respawns} pool respawns")
        if self.cache_quarantined:
            line += f", {self.cache_quarantined} payloads quarantined"
        if self.resumed_pairs:
            line += f", {self.resumed_pairs} pairs resumed"
        return line


_TELEMETRY = RunnerTelemetry()


def telemetry() -> RunnerTelemetry:
    """Cumulative counters for this process's runner activity."""
    return _TELEMETRY


def reset_telemetry() -> None:
    global _TELEMETRY
    _TELEMETRY = RunnerTelemetry()


def clear_cache() -> None:
    """Drop every memoized run (for tests).  Leaves the disk cache alone."""
    _CACHE.clear()


def cache_size() -> int:
    return len(_CACHE)


def default_jobs() -> int:
    """Worker count used when ``n_jobs`` is not given (env ``REPRO_JOBS``)."""
    try:
        return max(1, int(flags.read("REPRO_JOBS")))
    except ValueError:
        return 1


_DEFAULT_CACHE_DIR: Optional[Path] = None


def set_default_cache_dir(path: Optional[Union[str, Path]]) -> None:
    """Disk-cache root used by :func:`run` and by ``run_matrix`` calls
    that do not pass ``cache_dir`` themselves (``None`` disables it
    again).  Lets the CLI turn on persistence without threading a
    parameter through every experiment module."""
    global _DEFAULT_CACHE_DIR
    _DEFAULT_CACHE_DIR = Path(path) if path is not None else None


def _resolve_config(config: Optional[SystemConfig]) -> SystemConfig:
    """Resolve ``None`` to the paper baseline *before* any key is built.

    This is what makes ``run(spec, org)`` and
    ``run(spec, org, config=baseline())`` share one cache entry.
    """
    return config if config is not None else baseline()


def _resolve_params(params: Optional[EngineParams]) -> EngineParams:
    return params if params is not None else EngineParams()


def _memo_key(spec: BenchmarkSpec, organization: str, config: SystemConfig,
              scale: float, accesses_per_epoch: int,
              params: EngineParams) -> Tuple[object, ...]:
    return (spec, organization, config, scale, accesses_per_epoch, params)


def _disk_key(spec: BenchmarkSpec, organization: str, config: SystemConfig,
              scale: float, accesses_per_epoch: int,
              params: EngineParams) -> str:
    return content_key(spec=spec, organization=organization, config=config,
                       scale=scale, accesses_per_epoch=accesses_per_epoch,
                       params=params)


def _simulate_task(spec: BenchmarkSpec, organizations: List[str],
                   config: SystemConfig, scale: float,
                   accesses_per_epoch: int, params: EngineParams,
                   release: bool) -> List[RunStats]:
    """Worker-side entry point (module-level so the pool can pickle it):
    one benchmark's organizations, one run after another.  With
    ``release``, the benchmark's trace leaves the generator's cache when
    the task ends."""
    try:
        return simulate_stacked(spec, organizations, config=config,
                                scale=scale,
                                accesses_per_epoch=accesses_per_epoch,
                                params=params)
    finally:
        if release:
            release_trace(spec)


def run(spec: BenchmarkSpec, organization: str,
        config: Optional[SystemConfig] = None,
        scale: float = DEFAULT_SCALE,
        accesses_per_epoch: int = DEFAULT_ACCESSES_PER_EPOCH,
        params: Optional[EngineParams] = None) -> RunStats:
    """Simulate (or recall) one benchmark under one organization.

    Checks the memo, then the disk cache of ``set_default_cache_dir``
    when one is set; a fresh result is installed in both.
    """
    resolved = _resolve_config(config)
    resolved_params = _resolve_params(params)
    key = _memo_key(spec, organization, resolved, scale, accesses_per_epoch,
                    resolved_params)
    if key in _CACHE:
        _TELEMETRY.memo_hits += 1
        return _CACHE[key]
    disk_cache = ResultCache(_DEFAULT_CACHE_DIR) \
        if _DEFAULT_CACHE_DIR is not None else None
    if disk_cache is not None:
        stats = disk_cache.load(_disk_key(spec, organization, resolved,
                                          scale, accesses_per_epoch,
                                          resolved_params))
        _TELEMETRY.cache_quarantined += disk_cache.quarantined
        if stats is not None:
            _TELEMETRY.disk_hits += 1
            _CACHE[key] = stats
            return stats
    stats = simulate(spec, organization, config=resolved, scale=scale,
                     accesses_per_epoch=accesses_per_epoch,
                     params=resolved_params)
    _install_pair(spec, organization, stats, resolved, scale,
                  accesses_per_epoch, resolved_params, disk_cache)
    return stats


def run_matrix(specs: Iterable[BenchmarkSpec], organizations: Iterable[str],
               config: Optional[SystemConfig] = None,
               scale: float = DEFAULT_SCALE,
               accesses_per_epoch: int = DEFAULT_ACCESSES_PER_EPOCH,
               params: Optional[EngineParams] = None,
               n_jobs: Optional[int] = None,
               cache_dir: Optional[Union[str, Path]] = None
               ) -> Dict[Tuple[str, str], RunStats]:
    """Run every (benchmark, organization) pair; returns a keyed dict.

    ``n_jobs`` > 1 fans pending simulations out over a supervised
    process pool (default from the ``REPRO_JOBS`` environment variable,
    else serial) with per-task timeouts, retries and pool respawns (env
    ``REPRO_TASK_TIMEOUT``/``REPRO_RETRIES``).  ``cache_dir`` enables
    the persistent on-disk result cache; warm entries are recalled
    without re-simulating, and completed pairs are journaled to a sweep
    manifest so an interrupted matrix resumes instead of restarting.
    The returned dict is keyed and iterates in (benchmark, organization)
    submission order no matter which worker finishes first.
    """
    resolved = _resolve_config(config)
    resolved_params = _resolve_params(params)
    jobs = n_jobs if n_jobs is not None else default_jobs()
    root = cache_dir if cache_dir is not None else _DEFAULT_CACHE_DIR
    disk_cache = ResultCache(root) if root is not None else None
    cache_q_before = disk_cache.quarantined if disk_cache is not None else 0
    started = time.perf_counter()

    pairs: List[Tuple[BenchmarkSpec, str]] = [
        (spec, organization)
        for spec in specs for organization in organizations]
    # Results are keyed by spec *name*: two distinct specs sharing a
    # name would silently collapse into one key (the second spec getting
    # the first's stats), so fail loudly instead.
    spec_by_name: Dict[str, BenchmarkSpec] = {}
    for spec, _organization in pairs:
        seen = spec_by_name.setdefault(spec.name, spec)
        if seen != spec:
            raise ValueError(
                f"two distinct BenchmarkSpecs share the name "
                f"{spec.name!r}; run_matrix keys results by name, so "
                "their results would collide — rename one of them")
    results: Dict[Tuple[str, str], Optional[RunStats]] = {
        (spec.name, organization): None for spec, organization in pairs}

    # With the disk cache on, every unique pair's disk key is computed
    # up front: the sorted key set *is* the sweep identity, so the same
    # matrix always resumes the same manifest journal.
    dkey_of: Dict[Tuple[str, str], str] = {}
    manifest: Optional[SweepManifest] = None
    journaled: Set[str] = set()
    if disk_cache is not None:
        for spec, organization in pairs:
            name_key = (spec.name, organization)
            if name_key not in dkey_of:
                dkey_of[name_key] = _disk_key(
                    spec, organization, resolved, scale,
                    accesses_per_epoch, resolved_params)
        manifest = SweepManifest(
            disk_cache.root,
            content_key(pairs=sorted(dkey_of.values())))
        journaled = manifest.load()

    # Resolve the cheap layers (memo, then disk) in-process first; only
    # genuinely new work is worth a worker.  ``queued`` also dedupes
    # pairs that miss every cache layer (``results`` only catches
    # duplicates that were resolved by the time the copy is seen).  A
    # journaled pair whose payload is gone (evicted, or quarantined as
    # torn) misses the disk layer, so it is pending like any other.
    pending: List[Tuple[BenchmarkSpec, str]] = []
    queued: Set[Tuple[str, str]] = set()
    for spec, organization in pairs:
        name_key = (spec.name, organization)
        if results[name_key] is not None or name_key in queued:
            continue  # duplicate pair in the request
        key = _memo_key(spec, organization, resolved, scale,
                        accesses_per_epoch, resolved_params)
        if key in _CACHE:
            _TELEMETRY.memo_hits += 1
            results[name_key] = _CACHE[key]
            continue
        if disk_cache is not None:
            dkey = dkey_of[name_key]
            stats = disk_cache.load(dkey)
            if stats is not None:
                _TELEMETRY.disk_hits += 1
                if dkey in journaled:
                    _TELEMETRY.resumed_pairs += 1
                _CACHE[key] = stats
                results[name_key] = stats
                continue
        pending.append((spec, organization))
        queued.add(name_key)

    # One task per benchmark.  Its organizations share one cached
    # trace and run back to back, so the task holds one engine and one
    # tag store at a time.  No later task replays that trace, so when
    # the tasks outnumber the trace cache's slots (the cache could not
    # keep them all for a later call anyway) each task drops its trace
    # as it ends, and the matrix holds one trace at a time.
    orgs_by_spec: Dict[str, List[str]] = {}
    for spec, organization in pending:
        orgs_by_spec.setdefault(spec.name, []).append(organization)
    release = len(orgs_by_spec) > _TRACE_CACHE_MAX

    # Task keys are the pairs' disk keys when available (content
    # identity), else the name pairs; the supervisor treats them as the
    # dedupe/bookkeeping identity.
    task_meta: Dict[str, Tuple[BenchmarkSpec, List[str]]] = {}
    tasks: List[SupervisedTask] = []
    for name, orgs in orgs_by_spec.items():
        spec = spec_by_name[name]
        tkey = "benchmark:" + "+".join(
            str(dkey_of.get((name, o), f"{name}:{o}")) for o in orgs)
        task_meta[tkey] = (spec, orgs)
        tasks.append(SupervisedTask(
            key=tkey, label=f"{name}:{'+'.join(orgs)}", fn=_simulate_task,
            args=(spec, orgs, resolved, scale, accesses_per_epoch,
                  resolved_params, release)))

    def _install(task: SupervisedTask, result: List[RunStats]) -> None:
        """Install one completed task's runs in the parent, the moment
        it lands — partial progress stays durable even if the sweep
        dies later — journaling each pair as complete."""
        spec, orgs = task_meta[task.key]
        for organization, stats in zip(orgs, result):
            _install_pair(spec, organization, stats, resolved, scale,
                          accesses_per_epoch, resolved_params, disk_cache)
            results[(spec.name, organization)] = stats
            if manifest is not None:
                # Journal *after* the disk store above: a journaled key
                # implies its payload was written.
                manifest.mark_done(dkey_of[(spec.name, organization)],
                                   f"{spec.name}:{organization}")

    supervisor = Supervisor(max_workers=jobs, on_result=_install)
    try:
        supervisor.run(tasks)
    finally:
        _TELEMETRY.retries += supervisor.telemetry.retries
        _TELEMETRY.timeouts += supervisor.telemetry.timeouts
        _TELEMETRY.respawns += supervisor.telemetry.respawns
        if disk_cache is not None:
            _TELEMETRY.cache_quarantined += (disk_cache.quarantined
                                             - cache_q_before)
        _TELEMETRY.matrix_seconds += time.perf_counter() - started

    # None placeholders are all filled by now; rebuild to narrow the type
    # and guarantee deterministic (submission-order) iteration.
    return {name_key: stats for name_key, stats in results.items()
            if stats is not None}


def _install_pair(spec: BenchmarkSpec, organization: str, stats: RunStats,
                  config: SystemConfig, scale: float, accesses_per_epoch: int,
                  params: EngineParams,
                  disk_cache: Optional[ResultCache]) -> None:
    """Count one fresh result and install it into the memo and disk
    layers."""
    _TELEMETRY.simulated += 1
    _TELEMETRY.scalar_epochs += stats.scalar_epochs
    _TELEMETRY.sim_seconds += stats.wall_seconds
    key = _memo_key(spec, organization, config, scale, accesses_per_epoch,
                    params)
    _CACHE[key] = stats
    if disk_cache is not None:
        disk_cache.store(
            _disk_key(spec, organization, config, scale, accesses_per_epoch,
                      params),
            stats)
        _TELEMETRY.disk_stores += 1


def speedups_vs_baseline(results: Dict[Tuple[str, str], RunStats],
                         benchmarks: Iterable[str],
                         organizations: Iterable[str],
                         baseline: str = "memory-side"
                         ) -> Dict[Tuple[str, str], float]:
    """Per-benchmark speedup of each organization over ``baseline``."""
    speedups: Dict[Tuple[str, str], float] = {}
    for bench in benchmarks:
        base_stats = results[(bench, baseline)]
        for org in organizations:
            candidate = results[(bench, org)]
            if candidate.cycles <= 0:
                raise ValueError(
                    f"benchmark {bench!r} under {org!r} recorded "
                    f"{candidate.cycles} cycles; cannot compute its "
                    f"speedup over {baseline!r}")
            if base_stats.cycles <= 0:
                raise ValueError(
                    f"baseline run {bench!r} under {baseline!r} recorded "
                    f"{base_stats.cycles} cycles; cannot normalize "
                    "speedups against it")
            speedups[(bench, org)] = base_stats.cycles / candidate.cycles
    return speedups


def hmean_speedup(speedups: Dict[Tuple[str, str], float],
                  benchmarks: Iterable[str], organization: str) -> float:
    """Harmonic-mean speedup of one organization over a benchmark group."""
    values = [speedups[(bench, organization)] for bench in benchmarks]
    return harmonic_mean(values)
