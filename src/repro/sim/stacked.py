"""Stacked multi-configuration sweeps over one shared trace.

``simulate_stacked`` runs one benchmark under many LLC organizations
(or config variants) as *lanes* of a single cooperative drive:

* every lane gets its own :class:`~repro.sim.engine.SimulationEngine` —
  its own crossbars, ring, DRAM, page table and per-lane ``RunStats``
  charge accumulators — so the timing model never mixes lanes;
* lanes whose scaled LLC slice geometry matches share one stacked
  :class:`~repro.cache.vector.VectorBank`: their tag rows sit side by
  side on the ``caches`` axis of the SoA slot store, and one grouped
  (or staged) bank call per round resolves every lane's epoch probes,
  each lane with its own kernel call;
* the trace is generated (and memoized) once and replayed by every
  lane, so trace generation is also O(1) in the number of lanes.

The engines expose their epochs through the
:meth:`~repro.sim.engine.SimulationEngine.run_steps` generator — the
exact control flow a standalone ``run()`` drives — so each lane's
``RunStats`` physics fields are bit-identical to its standalone
``simulate()`` run; only host telemetry (wall clock, stacked counters)
differs.  Lanes the stacked path cannot host in a shared bank still run
in the same cooperative drive and are counted as ``solo_lanes``: a
vector-path lane with no geometry match gets its own bank, and a lane
that does not take the vector path at all (see
:func:`~repro.sim.engine.takes_vector_path`) runs the serial engine on
its own caches.

Fault containment: an exception raised by one lane mid-drive (or an
armed ``lane.raise``/``kernel.solve_error`` fault site, see
:mod:`repro.resilience.faults`) *quarantines* that lane instead of
killing the co-run — the surviving lanes finish the shared drive with
their physics untouched, and each quarantined lane is then re-run solo
through the ordinary ``simulate()`` path (demoted to the serial engine
when the vector kernel itself faulted), so one bad config degrades a
group instead of aborting it.
"""

from __future__ import annotations

import contextlib
import dataclasses
from copy import deepcopy
from dataclasses import dataclass, field
from time import perf_counter
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..arch.config import SystemConfig
from ..arch.presets import baseline
from ..cache.vector import GroupedLaneCall, StagedLaneCall, VectorBank
from ..llc.base import LLCOrganization
from ..resilience.faults import InjectedLaneFault, KernelSolveError
from ..resilience.faults import fire as fault_fire
from ..workloads.generator import KernelTrace, TraceGenerator
from ..workloads.spec import BenchmarkSpec
from .engine import (
    BankProbe,
    EngineParams,
    ProbeGen,
    ProbeOutcome,
    SimulationEngine,
    takes_vector_path,
)
from .stats import RunStats


@dataclass(slots=True)
class StackedTelemetry:
    """How one stacked run dispatched its lanes (host telemetry)."""

    #: Total lanes simulated.
    lanes: int = 0
    #: Lanes co-resident in a shared tag store (groups of >= 2).
    stacked_lanes: int = 0
    #: Lanes that could not share a bank (no vector path, or a
    #: singleton geometry group) and ran on their own caches.
    solo_lanes: int = 0
    #: Lanes that duplicated an earlier (organization, config) lane and
    #: copied its stats instead of simulating (no engine, no probes).
    duplicate_lanes: int = 0
    #: Shared banks built (one per matching-geometry group).
    banks: int = 0
    #: Successful vector-kernel calls issued by the driver.
    bank_invocations: int = 0
    #: Whole co-run wall clock.
    wall_seconds: float = 0.0
    #: Lane indices that faulted mid-drive and were re-run solo, and the
    #: subset whose re-run was demoted to the serial engine because the
    #: vector kernel itself faulted.
    quarantined_lanes: List[int] = field(default_factory=list)
    demoted_lanes: List[int] = field(default_factory=list)


@dataclass
class StackedResult:
    """Per-lane stats plus the dispatch telemetry of one stacked run."""

    stats: List[RunStats] = field(default_factory=list)
    telemetry: StackedTelemetry = field(default_factory=StackedTelemetry)


def simulate_stacked(spec: BenchmarkSpec,
                     organizations: Sequence[Union[str, LLCOrganization]],
                     config: Optional[SystemConfig] = None,
                     configs: Optional[Sequence[Optional[SystemConfig]]]
                     = None,
                     scale: Optional[float] = None,
                     accesses_per_epoch: Optional[int] = None,
                     params: Optional[EngineParams] = None,
                     org_kwargs: Optional[Dict[str, object]] = None
                     ) -> StackedResult:
    """Simulate ``spec`` under every organization as stacked lanes.

    ``organizations[i]`` pairs with ``configs[i]`` when ``configs`` is
    given (a fig14-style sensitivity sweep: same organization list,
    varying configs); otherwise every lane shares ``config``.  All lane
    configs must agree on the trace shape (chip count, clusters, line
    and page size) — lanes replay one shared trace by construction.

    Returns a :class:`StackedResult` whose ``stats[i]`` is bit-identical
    (per ``RunStats.comparable_dict``) to
    ``simulate(spec, organizations[i], config=..., ...)``.
    """
    # Imported here: ``run`` re-exports this module's names at its tail,
    # so a module-level import would be circular.
    from .run import (
        DEFAULT_ACCESSES_PER_EPOCH,
        DEFAULT_SCALE,
        _note_simulate_calls,
        make_organization,
        scaled_config,
        simulate,
    )

    if not organizations:
        raise ValueError("simulate_stacked needs at least one lane")
    resolved_scale = scale if scale is not None else DEFAULT_SCALE
    density = accesses_per_epoch if accesses_per_epoch is not None \
        else DEFAULT_ACCESSES_PER_EPOCH
    if configs is not None:
        if len(configs) != len(organizations):
            raise ValueError(
                f"configs has {len(configs)} entries for "
                f"{len(organizations)} organizations")
        lane_bases = [c if c is not None else baseline() for c in configs]
    else:
        base = config if config is not None else baseline()
        lane_bases = [base] * len(organizations)
    run_cfgs = [scaled_config(c, resolved_scale) for c in lane_bases]

    shape = _trace_shape(run_cfgs[0])
    for i, rc in enumerate(run_cfgs[1:], start=1):
        if _trace_shape(rc) != shape:
            raise ValueError(
                f"lane {i} has trace shape {_trace_shape(rc)} but lane 0 "
                f"has {shape}; stacked lanes must share one trace "
                "(chip count, clusters per chip, line size, page size)")
    resolved_params = params if params is not None else EngineParams()

    telemetry = StackedTelemetry(lanes=len(organizations))

    # Duplicate-lane fast path: lanes naming the same organization under
    # an equal config replay identical physics over the one shared
    # trace, so a single engine serves all of them — the duplicates
    # copy its stats after the drive (no engine, no probes, no kernel
    # call).  Organization *instances* may carry state and
    # are never deduplicated.
    primaries: List[int] = []
    primary_of: List[int] = []
    for i, org_i in enumerate(organizations):
        match = -1
        if isinstance(org_i, str):
            for j in primaries:
                if (isinstance(organizations[j], str)
                        and organizations[j] == org_i
                        and run_cfgs[j] == run_cfgs[i]):
                    match = j
                    break
        if match < 0:
            primaries.append(i)
            primary_of.append(i)
        else:
            primary_of.append(match)
            telemetry.duplicate_lanes += 1

    # What a quarantined lane's solo re-run simulates: the original name
    # for string lanes, a pristine pre-drive snapshot for organization
    # instances (the attached instance accumulates drive state).
    rerun_org: Dict[int, Union[str, LLCOrganization]] = {}
    org_of: Dict[int, LLCOrganization] = {}
    for i in primaries:
        organization = organizations[i]
        if isinstance(organization, str):
            org_of[i] = make_organization(organization, run_cfgs[i],
                                          **(org_kwargs or {}))
            rerun_org[i] = organization
        else:
            org_of[i] = organization
            rerun_org[i] = deepcopy(organization)

    # Group vector-path lanes by scaled tag-store geometry.  Groups of
    # one run with their own bank; lanes that do not take the vector
    # path run the serial engine on their own caches.
    groups: Dict[object, List[int]] = {}
    for i in primaries:
        rc = run_cfgs[i]
        if takes_vector_path(rc, resolved_params, type(org_of[i])):
            key: object = (rc.chip.llc_slice, rc.num_chips,
                           rc.chip.llc_slices)
        else:
            key = ("solo", i)
        groups.setdefault(key, []).append(i)
    lane_bank: Dict[int, Tuple[VectorBank, int]] = {}
    group_size: Dict[int, int] = {}
    for members in groups.values():
        if len(members) < 2:
            continue
        rc = run_cfgs[members[0]]
        total = rc.total_llc_slices
        names = [f"lane{i}.llc{c}.{s}"
                 for i in members
                 for c in range(rc.num_chips)
                 for s in range(rc.chip.llc_slices)]
        bank = VectorBank(rc.chip.llc_slice, names)
        for pos, i in enumerate(members):
            lane_bank[i] = (bank, pos * total)
            group_size[i] = len(members)
        telemetry.banks += 1
        telemetry.stacked_lanes += len(members)
    telemetry.solo_lanes = (telemetry.lanes - telemetry.stacked_lanes
                            - telemetry.duplicate_lanes)

    engine_of: Dict[int, SimulationEngine] = {}
    for i in primaries:
        bank, bank_base = lane_bank.get(i, (None, 0))
        engine_of[i] = SimulationEngine(
            run_cfgs[i], org_of[i], params=resolved_params,
            llc_bank=bank, llc_bank_base=bank_base)
    engines = [engine_of[i] for i in primaries]

    # Every lane replays the memoized trace (one generation, N replays).
    generator = TraceGenerator(
        spec,
        num_chips=run_cfgs[0].num_chips,
        clusters_per_chip=run_cfgs[0].chip.num_clusters,
        line_size=run_cfgs[0].line_size,
        page_size=run_cfgs[0].page_size,
        accesses_per_epoch_per_chip=density,
        scale=resolved_scale)
    kernels = generator.generate()

    _note_simulate_calls(len(engines))
    started = perf_counter()
    faulted = _drive(engines, kernels, spec.name, telemetry)

    # Quarantined lanes re-run solo through the ordinary simulate()
    # path — same spec, config, scale and density — so their stats are
    # bit-identical to a standalone run by construction.  A lane whose
    # fault came from the vector kernel is demoted to the serial engine
    # (vectorized=False leaves it no bank, so every epoch runs serially),
    # since its vector path is the thing that faulted.
    rerun_stats: Dict[int, RunStats] = {}
    for pos in sorted(faulted):
        p = primaries[pos]
        kernel_fault = isinstance(faulted[pos], KernelSolveError)
        rerun_params = resolved_params
        if kernel_fault:
            rerun_params = dataclasses.replace(
                resolved_params, vectorized=False)
        stats = simulate(spec, rerun_org[p], config=lane_bases[p],
                         scale=resolved_scale, accesses_per_epoch=density,
                         params=rerun_params, org_kwargs=org_kwargs)
        stats.lane_quarantined = 1
        telemetry.quarantined_lanes.append(p)
        if kernel_fault:
            stats.lane_demoted = 1
            telemetry.demoted_lanes.append(p)
        rerun_stats[p] = stats
    telemetry.wall_seconds = perf_counter() - started

    # Host wall clock is a co-run quantity; attribute it evenly across
    # all lanes (duplicates included — they ride the same wall) so the
    # per-lane throughput numbers stay meaningful.
    share = telemetry.wall_seconds / len(organizations)
    stats_list: List[RunStats] = []
    for i in range(len(organizations)):
        p = primary_of[i]
        stats = rerun_stats.get(p, engine_of[p].stats)
        if p != i:
            # A fresh copy per duplicate: callers may mutate lanes
            # independently, and the physics fields are bit-identical
            # to a standalone run of the duplicated pair by
            # construction.
            stats = deepcopy(stats)
        stats.wall_seconds = share
        if p not in rerun_stats:
            # A quarantined lane's stats come from its standalone
            # re-run; it was not co-resident in any shared store.
            stats.stacked_lanes = group_size.get(p, 0)
        stats_list.append(stats)
    return StackedResult(stats=stats_list, telemetry=telemetry)


def _trace_shape(config: SystemConfig) -> Tuple[int, int, int, int]:
    return (config.num_chips, config.chip.num_clusters,
            config.line_size, config.page_size)


def _pump(step: ProbeGen, outcome: ProbeOutcome, org_name: str
          ) -> Tuple[Optional[BankProbe], Optional[BaseException]]:
    """Resume one lane; ``(None, None)`` means it finished its trace.

    A lane that raises mid-resume (or whose armed ``lane.raise`` site
    fires) comes back as ``(None, error)`` — the quarantine verdict —
    instead of unwinding the whole co-run.
    """
    try:
        if fault_fire("lane.raise", key=org_name) is not None:
            raise InjectedLaneFault("lane.raise", key=org_name)
        return step.send(outcome), None
    except StopIteration:
        return None, None
    except Exception as error:
        return None, error


def _retire(step: ProbeGen) -> None:
    """Close a quarantined lane's generator, absorbing cleanup faults.

    The generator already failed (or is being abandoned mid-epoch); an
    exception out of its unwind must not take the surviving lanes down
    with it, so suppression here is deliberate.
    """
    with contextlib.suppress(Exception):
        step.close()


def _drive(engines: Sequence[SimulationEngine],
           kernels: Iterable[KernelTrace], benchmark: str,
           telemetry: StackedTelemetry) -> Dict[int, BaseException]:
    """Cooperatively drive every lane's generator to completion.

    Each round groups the pending probes by (bank, kind) and issues one
    bank call per group; lanes that yielded nothing this round (serial
    epochs, finished traces) simply aren't in any group.  Lanes may sit
    at different epochs (SAC splits profiling windows): probes are
    row-disjoint across lanes, so a combined call is exact regardless.

    Returns the quarantine verdicts: ``{engine position: error}`` for
    every lane that faulted mid-drive.  Surviving lanes are unaffected —
    each lane's probes stay row-disjoint and its generator is pumped
    with exactly the outcomes a standalone run would compute, so losing
    a sibling changes nothing the survivors observe.
    """
    quarantined: Dict[int, BaseException] = {}
    steps: List[ProbeGen] = [
        engine.run_steps(kernels, benchmark) for engine in engines]
    probes: List[Optional[BankProbe]] = []
    for i, step in enumerate(steps):
        probe, error = _pump(step, None, engines[i].organization.name)
        if error is not None:
            quarantined[i] = error
            _retire(step)
        probes.append(probe)
    # The per-lane loops below are deliberate round bookkeeping —
    # regrouping probe handles, counting stats, pumping generators —
    # a few dict/attr operations per lane per round.  The per-access
    # work all happens inside _invoke_group's one shared bank call.
    while True:
        groups: Dict[Tuple[int, str], List[int]] = {}
        for i, probe in enumerate(probes):  # repro: noqa(hot-loop)
            if probe is not None:
                groups.setdefault((id(probe.bank), probe.kind),
                                  []).append(i)
        if not groups:
            break
        for members in list(groups.values()):
            member_probes: List[BankProbe] = []
            for i in members:  # repro: noqa(hot-loop)
                probe = probes[i]
                assert probe is not None
                member_probes.append(probe)
            failed: Dict[int, BaseException] = {}
            try:
                outcomes, sids = _invoke_group(member_probes)
            except KernelSolveError as group_error:
                # The solve fault fires before the group's bank call
                # touches any state, so re-resolving each member alone
                # pins it on specific lanes; the rest keep their round.
                # Any other error escapes: the bank commits one lane at
                # a time, so a member resolved before a mid-solve
                # failure would apply its epoch twice.
                outcomes, failed = _solo_fallback(
                    member_probes, group_error)
                sids = None
            # Lane-major round accounting: the shared-stream verdicts
            # are computed as vector gathers over the member axis, so
            # the pump loop below only scatters them into each lane's
            # RunStats.
            resolved = np.array([o is not None  # repro: noqa(hot-loop)
                                 for o in outcomes], dtype=bool)
            if resolved.any():
                telemetry.bank_invocations += 1
            shared = np.zeros(len(members), dtype=bool)
            if sids is not None:
                sid_np = np.array(sids, dtype=np.int64)
                per_sid = np.bincount(sid_np[resolved],
                                      minlength=int(sid_np.max()) + 1)
                shared = resolved & (per_sid[sid_np] >= 2)
            for pos, (i, outcome) in enumerate(  # repro: noqa(hot-loop)
                    zip(members, outcomes)):
                if pos in failed:
                    quarantined[i] = failed[pos]
                    _retire(steps[i])
                    probes[i] = None
                    continue
                stats = engines[i].stats
                stats.stacked_probe_calls += 1
                if shared[pos]:
                    stats.stacked_shared_streams += 1
                next_probe, error = _pump(
                    steps[i], outcome, engines[i].organization.name)
                if error is not None:
                    quarantined[i] = error
                    _retire(steps[i])
                probes[i] = next_probe
    return quarantined


def _solo_fallback(probes: List[BankProbe], group_error: BaseException
                   ) -> Tuple[List[ProbeOutcome], Dict[int, BaseException]]:
    """Re-resolve each probe of a failed group call individually.

    Probes that still fail are reported (position -> error, with the
    original shared-path ``group_error`` attached as context) so the
    driver can quarantine exactly the faulting lanes; the others get
    their ordinary outcomes and the round proceeds.
    """
    outcomes: List[ProbeOutcome] = []
    failed: Dict[int, BaseException] = {}
    for pos, probe in enumerate(probes):
        try:
            outcomes.append(probe.invoke())
        except Exception as error:
            error.__context__ = group_error
            outcomes.append(None)
            failed[pos] = error
    return outcomes, failed


def _arrays_equal(a: Optional[np.ndarray], b: Optional[np.ndarray]) -> bool:
    if a is None or b is None:
        return a is b
    return a is b or bool(np.array_equal(a, b))


def _same_stream(a: BankProbe, b: BankProbe) -> bool:
    """True when two probes carry element-identical lane-local streams.

    Lanes replaying the memoized trace at the same epoch usually share
    the very array objects, so the identity fast path makes this cheap;
    lanes sitting at different epochs (SAC profiling splits) fail on
    shape before any element compare.
    """
    if not (_arrays_equal(a.addrs, b.addrs)
            and _arrays_equal(a.writes, b.writes)
            and _arrays_equal(a.idx0, b.idx0)):
        return False
    if a.kind == "grouped":
        return True
    return (_arrays_equal(a.part0, b.part0)
            and _arrays_equal(a.two_stage, b.two_stage)
            and _arrays_equal(a.idx1, b.idx1)
            and _arrays_equal(a.part1, b.part1))


def _invoke_group(probes: List[BankProbe]
                  ) -> Tuple[List[ProbeOutcome], Optional[List[int]]]:
    """Resolve one (bank, kind) group with one shared bank call.

    Member probes are handed to the bank's shared entry point, which
    resolves each lane with its own kernel call.  Per-lane ``None``
    outcomes send just those lanes' epochs to the serial engine.  The
    probes are also labelled with stream ids (equal ids <=>
    element-identical lane-local streams), returned alongside the
    outcomes (``None`` for single-probe rounds) for the lanes'
    ``stacked_shared_streams`` counters.
    """
    if len(probes) == 1:
        return [probes[0].invoke()], None
    # Armed kernel.solve_error sites fire here, *before* any bank call
    # touches shared state, so the driver's solo fallback can replay the
    # round from scratch.  (Single-probe rounds hit the same site inside
    # ``BankProbe.invoke``.)
    for p in probes:
        if fault_fire("kernel.solve_error", key=p.fault_key) is not None:
            raise KernelSolveError("kernel.solve_error", key=p.fault_key)
    first = probes[0]
    bank = first.bank
    sids: List[int] = []
    reps: List[BankProbe] = []
    for p in probes:
        for s, rep in enumerate(reps):
            if _same_stream(p, rep):
                sids.append(s)
                break
        else:
            sids.append(len(reps))
            reps.append(p)
    outcomes: List[ProbeOutcome]
    if first.kind == "grouped":
        gcalls = [GroupedLaneCall(p.lane, p.idx0, p.addrs, p.writes, sid)
                  for p, sid in zip(probes, sids)]
        outcomes = list(bank.access_many_grouped_shared(gcalls))
        return outcomes, sids
    scalls: List[StagedLaneCall] = []
    for p, sid in zip(probes, sids):
        assert p.part0 is not None and p.two_stage is not None \
            and p.idx1 is not None and p.part1 is not None
        scalls.append(StagedLaneCall(p.lane, p.addrs, p.writes, p.idx0,
                                     p.part0, p.two_stage, p.idx1,
                                     p.part1, sid))
    staged_list = bank.access_many_staged_shared(scalls)
    outcomes = [p.localize(res)
                for p, res in zip(probes, staged_list)]
    return outcomes, sids
