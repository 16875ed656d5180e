"""Event-driven validation engine.

The primary engine (:mod:`repro.sim.engine`) settles time per *epoch*:
it charges bytes to resources and takes the bottleneck's service time.
This module provides an independent, finer-grained timing model to
validate that choice: an open-loop FCFS **queueing-network replay**.

Every access becomes a request injected at its issue time (spread by the
workload's compute rate) and then traverses its resource path — the
requesting chip's crossbar port, ring segments, the serving LLC slice,
and on a miss the home DRAM channel — where each resource is a
single-server FCFS queue with service time ``bytes / bandwidth``::

    depart(r) = max(arrive, free_until[r]) + service
    free_until[r] = depart(r)

The run's cycle count is the last departure.  Caches are the same
functional models as the primary engine, so hit/miss behaviour is
identical; only the *timing* model differs.  Agreement between the two
models on which LLC organization wins (and roughly by how much) is the
validation criterion — see ``benchmarks/test_validation.py``.

Scope: fixed organizations (memory-side / SM-side / static / dynamic);
SAC's reconfiguration and coherence flush costs are epoch-level policies
and are validated separately.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Dict,
    Iterable,
    NoReturn,
    Optional,
    Sequence,
    Tuple,
)

from ..arch.config import SystemConfig
from ..cache.cache import PartitionFullError, SetAssociativeCache
from ..llc.base import LLCOrganization
from ..memory.mapping import AddressMapping
from ..memory.pages import PageTable
from ..noc.ring import InterChipRing
from ..workloads.generator import KernelTrace, TraceGenerator
from .engine import EngineParams

if TYPE_CHECKING:  # pragma: no cover
    from ..workloads.spec import BenchmarkSpec


@dataclass
class EventStats:
    """Outcome of one event-driven replay."""

    cycles: float = 0.0
    accesses: int = 0
    llc_hits: int = 0
    total_latency: float = 0.0
    # Busy time per resource class (diagnostics).
    busy: Dict[str, float] = None

    @property
    def llc_hit_rate(self) -> float:
        return self.llc_hits / self.accesses if self.accesses else 0.0

    @property
    def mean_latency(self) -> float:
        return self.total_latency / self.accesses if self.accesses else 0.0


class _Server:
    """A single-server FCFS queue."""

    __slots__ = ("bandwidth", "free_until", "busy")

    def __init__(self, bandwidth: float) -> None:
        self.bandwidth = bandwidth
        self.free_until = 0.0
        self.busy = 0.0

    def serve(self, arrive: float, num_bytes: float) -> float:
        service = num_bytes / self.bandwidth
        start = arrive if arrive > self.free_until else self.free_until
        depart = start + service
        self.free_until = depart
        self.busy += service
        return depart


class EventDrivenEngine:
    """Queueing-network replay of a trace under one LLC organization.

    Messages have the epoch engine's default sizes
    (:class:`~repro.sim.engine.EngineParams`): a request, plus the write
    data on a write, and a response of one line plus its header.
    """

    def __init__(self, config: SystemConfig,
                 organization: LLCOrganization) -> None:
        self.config = config
        self.organization = organization
        chip = config.chip
        self.line_size = chip.llc_slice.line_size
        params = EngineParams()
        self._request_bytes = float(params.request_bytes)
        self._write_bytes = float(params.write_data_bytes)
        self._response_bytes = float(
            self.line_size + params.response_header_bytes)
        self.page_table = PageTable(chip.memory.page_size, config.num_chips)
        self.mapping = AddressMapping(
            line_size=self.line_size, slices_per_chip=chip.llc_slices,
            channels_per_chip=chip.memory.channels_per_chip)
        self.llc = [[SetAssociativeCache(chip.llc_slice, name=f"ev{c}.{s}")
                     for s in range(chip.llc_slices)]
                    for c in range(config.num_chips)]
        # Resource servers.
        port_bw = chip.noc.port_bw_bytes_per_cycle
        self._noc_ports = [
            [_Server(port_bw) for _ in range(chip.noc.output_ports)]
            for _ in range(config.num_chips)]
        self._ring = InterChipRing(config.inter_chip, config.num_chips)
        self._segments: Dict[Tuple[int, int], _Server] = {}
        self._pair_bw = config.inter_chip.pair_bw(config.num_chips)
        slice_bw = chip.llc_slice_bw_bytes_per_cycle
        self._slices = [
            [_Server(slice_bw) for _ in range(chip.llc_slices)]
            for _ in range(config.num_chips)]
        channel_bw = chip.memory.channel_bw_bytes_per_cycle
        self._channels = [
            [_Server(channel_bw) for _ in range(chip.memory.channels_per_chip)]
            for _ in range(config.num_chips)]
        organization.attach(self)

    # Minimal EngineContext surface for organizations that need it.
    def slice_of(self, addr: int) -> int:
        return self.mapping.llc_slice_of(addr)

    def set_llc_partitioning(self, ways: Optional[Dict[int, int]]) -> None:
        for chip_slices in self.llc:
            for cache in chip_slices:
                cache.set_partition(ways)

    @property
    def stats(self) -> NoReturn:
        # Dynamic LLC reads traffic counters; not tracked here.
        raise AttributeError("event engine does not expose RunStats")

    def _segment(self, src: int, dst: int) -> _Server:
        server = self._segments.get((src, dst))
        if server is None:
            server = _Server(self._pair_bw)
            self._segments[(src, dst)] = server
        return server

    # -- Replay ------------------------------------------------------------

    def run(self, kernels: Iterable[KernelTrace]) -> EventStats:
        stats = EventStats(busy={})
        now = 0.0
        finish = 0.0
        software = self.config.coherence.protocol == "software"
        for kernel in kernels:
            for epoch in kernel.epochs:
                n = len(epoch)
                rate = n / epoch.compute_cycles  # injections per cycle
                chips = epoch.chips.tolist()
                addrs = epoch.addrs.tolist()
                writes = epoch.writes.tolist()
                for i in range(n):
                    issue = now + i / rate
                    depart = self._request(issue, chips[i], addrs[i],
                                           writes[i], stats)
                    if depart > finish:
                        finish = depart
                    stats.total_latency += depart - issue
                    stats.accesses += 1
                # The next epoch injects after this one's compute time
                # and after the system drained (closed kernel boundary).
                now = max(now + epoch.compute_cycles, finish)
            if software and self.organization.remote_scope is not None:
                # Software coherence: write back + invalidate the LLC at
                # the kernel boundary (whole-cache flush; the per-
                # partition distinction does not change the event model's
                # cold-restart effect materially).
                finish = max(finish, self._flush(now))
                now = max(now, finish)
        stats.cycles = max(now, finish)
        stats.busy = self._collect_busy()
        return stats

    def _flush(self, now: float) -> float:
        """Flush every LLC slice, serializing dirty write-backs at DRAM."""
        done = now
        for chip in range(self.config.num_chips):
            for slice_index, cache in enumerate(self.llc[chip]):
                dirty_lines = [addr for addr, line in cache.resident_lines()
                               if line.dirty]
                cache.flush()
                for addr in dirty_lines:
                    home = self.page_table.lookup(addr)
                    if home is None:
                        home = chip
                    channel = self.mapping.channel_of(addr)
                    t = self._channels[home][channel].serve(
                        now, self.line_size)
                    if t > done:
                        done = t
        return done

    def _request(self, issue: float, chip: int, addr: int, is_write: bool,
                 stats: EventStats) -> float:
        home = self.page_table.home_chip(addr, chip)
        plan = self.organization.plan(chip, home)
        slice_index = self.mapping.llc_slice_of(addr)
        req = self._request_bytes + (self._write_bytes if is_write else 0.0)
        rsp = self._response_bytes
        t = issue
        hit = False
        last = chip
        for stage in plan.stages:
            serve = stage.chip
            # Request leg: ring segments when crossing chips, then the
            # serving chip's NoC port into the LLC slice.
            for src, dst in self._ring.path(last, serve):
                t = self._segment(src, dst).serve(t, req)
            t = self._noc_ports[serve][slice_index].serve(t, req)
            t = self._slices[serve][slice_index].serve(t, self.line_size)
            cache = self.llc[serve][slice_index]
            try:
                result = cache.access(addr, is_write,
                                      partition=stage.partition)
            except PartitionFullError:
                result = None
            if result is not None and result.hit:
                hit = True
                last = serve
                break
            last = serve
        if hit:
            stats.llc_hits += 1
        else:
            # Miss: traverse to the home chip's DRAM channel.
            for src, dst in self._ring.path(last, home):
                t = self._segment(src, dst).serve(t, req)
            channel = self.mapping.channel_of(addr)
            t = self._channels[home][channel].serve(t, req + rsp)
            last = home
        # Response leg back to the requester.
        for src, dst in self._ring.path(last, chip):
            t = self._segment(src, dst).serve(t, rsp)
        t = self._noc_ports[chip][slice_index % len(self._noc_ports[chip])] \
            .serve(t, rsp)
        return t

    def _collect_busy(self) -> Dict[str, float]:
        busy = {"noc": 0.0, "ring": 0.0, "llc": 0.0, "dram": 0.0}
        for ports in self._noc_ports:
            busy["noc"] += sum(s.busy for s in ports)
        busy["ring"] += sum(s.busy for s in self._segments.values())
        for slices in self._slices:
            busy["llc"] += sum(s.busy for s in slices)
        for channels in self._channels:
            busy["dram"] += sum(s.busy for s in channels)
        return busy


def validate_against_epoch_model(
        spec: "BenchmarkSpec",
        organizations: Sequence[str] = ("memory-side", "sm-side"),
        config: Optional[SystemConfig] = None,
        scale: float = 1.0 / 16,
        accesses_per_epoch: int = 2048) -> Dict[str, Tuple[float, float]]:
    """Run both timing models on the same trace; return their cycles.

    Returns ``{org: (epoch_cycles, event_cycles)}``.  The validation
    criterion is *ordering agreement*: both models should prefer the
    same organization.
    """
    from ..arch.presets import baseline
    from .run import make_organization, scaled_config, simulate

    base = config or baseline()
    run_config = scaled_config(base, scale)
    generator = TraceGenerator(
        spec, num_chips=run_config.num_chips,
        clusters_per_chip=run_config.chip.num_clusters,
        line_size=run_config.line_size,
        page_size=run_config.page_size,
        accesses_per_epoch_per_chip=accesses_per_epoch, scale=scale)
    results = {}
    for name in organizations:
        epoch_stats = simulate(spec, name, config=base, scale=scale,
                               accesses_per_epoch=accesses_per_epoch)
        event_engine = EventDrivenEngine(
            run_config, make_organization(name, run_config))
        event_stats = event_engine.run(generator.kernels())
        results[name] = (epoch_stats.cycles, event_stats.cycles)
    return results
