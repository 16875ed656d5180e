"""CTA-level kernel programs.

The statistical generator (:mod:`repro.workloads.generator`) samples
region mixtures; this module offers the complementary, *structural* way
to build workloads: name your arrays, describe how each CTA accesses
them, pick a CTA scheduler, and compile the result into the same
:class:`~repro.workloads.generator.KernelTrace` epochs the engine
consumes.

Example — a GEMM-like kernel::

    a = Array("A", 64 * MB)
    b = Array("B", 16 * MB)
    c = Array("C", 64 * MB)
    kernel = KernelProgram(
        name="gemm",
        accesses=[
            ArrayAccess(a, Partitioned(), weight=0.4),   # row panels
            ArrayAccess(b, Broadcast(hot_fraction=0.5), weight=0.4),
            ArrayAccess(c, Partitioned(), weight=0.2, write_fraction=0.5),
        ],
        ctas=4096, accesses_per_cta=256, intensity=5000.0)
    workload = ProgramWorkload("gemm-app", [kernel], num_chips=4)
    stats = simulate_program(workload, "sac")

Patterns map CTA ids to addresses inside an array:

* :class:`Partitioned` — each CTA owns a contiguous slice (no sharing
  across CTAs; with a distributed scheduler, no sharing across chips);
* :class:`Broadcast` — every CTA reads the same (optionally hot-biased)
  data: true sharing across chips;
* :class:`Strided` — CTA ``i`` touches lines ``i mod C`` of each page
  group: false sharing at page granularity;
* :class:`Halo` — a partitioned pattern whose edges bleed into the
  neighbouring CTA's slice: true sharing concentrated at the borders.
"""

from __future__ import annotations

import abc
import dataclasses
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from .generator import EpochTrace, KernelTrace

if TYPE_CHECKING:  # pragma: no cover
    from ..arch.config import SystemConfig
    from ..llc.base import LLCOrganization
    from ..sim.cta import DistributedCTAScheduler, RoundRobinCTAScheduler
    from ..sim.engine import EngineParams
    from ..sim.stats import RunStats

MB = 1024 * 1024


@dataclass(frozen=True)
class Array:
    """A named allocation in the workload's address space."""

    name: str
    size_bytes: int

    def __post_init__(self) -> None:
        if self.size_bytes <= 0:
            raise ValueError(f"array {self.name!r} must have positive size")


class AccessPattern(abc.ABC):
    """Maps (cta, num_ctas) to line offsets within one array."""

    @abc.abstractmethod
    def sample(self, cta: int, num_ctas: int, num_lines: int, count: int,
               rng: np.random.Generator) -> np.ndarray:
        """Return ``count`` line indices in ``[0, num_lines)``."""


@dataclass(frozen=True)
class Partitioned(AccessPattern):
    """Each CTA owns a contiguous slice; reuse within it is hot-biased."""

    hot_fraction: float = 1.0
    hot_weight: float = 0.9

    def sample(self, cta: int, num_ctas: int, num_lines: int, count: int,
               rng: np.random.Generator) -> np.ndarray:
        slice_lines = max(1, num_lines // num_ctas)
        base = min(cta * slice_lines, max(0, num_lines - slice_lines))
        offsets = _hot_cold(count, slice_lines, self.hot_fraction,
                            self.hot_weight, rng)
        return base + offsets


@dataclass(frozen=True)
class Broadcast(AccessPattern):
    """Every CTA reads the same data (true sharing)."""

    hot_fraction: float = 0.5
    hot_weight: float = 0.9

    def sample(self, cta: int, num_ctas: int, num_lines: int, count: int,
               rng: np.random.Generator) -> np.ndarray:
        return _hot_cold(count, num_lines, self.hot_fraction,
                         self.hot_weight, rng)


@dataclass(frozen=True)
class Strided(AccessPattern):
    """CTA i touches line slots congruent to i (false sharing).

    With ``lines_per_page`` lines to a page and C concurrent chips, the
    lines a CTA touches interleave at page granularity, so chips share
    pages but not lines — the paper's false-sharing pattern.
    """

    interleave: int = 32  # lines between a CTA's consecutive touches
    hot_fraction: float = 1.0
    hot_weight: float = 0.9

    def sample(self, cta: int, num_ctas: int, num_lines: int, count: int,
               rng: np.random.Generator) -> np.ndarray:
        lane = cta % self.interleave
        slots = max(1, num_lines // self.interleave)
        slot = _hot_cold(count, slots, self.hot_fraction, self.hot_weight,
                         rng)
        return (slot * self.interleave + lane) % num_lines


@dataclass(frozen=True)
class Halo(AccessPattern):
    """Partitioned with a shared border (stencil halo exchange)."""

    halo_fraction: float = 0.1  # probability of touching a border line
    hot_fraction: float = 1.0
    hot_weight: float = 0.9

    def sample(self, cta: int, num_ctas: int, num_lines: int, count: int,
               rng: np.random.Generator) -> np.ndarray:
        slice_lines = max(1, num_lines // num_ctas)
        base = min(cta * slice_lines, max(0, num_lines - slice_lines))
        offsets = _hot_cold(count, slice_lines, self.hot_fraction,
                            self.hot_weight, rng)
        lines = base + offsets
        in_halo = rng.random(count) < self.halo_fraction
        # Halo touches land on the neighbour's first lines.
        neighbour = (cta + 1) % num_ctas
        nbase = min(neighbour * slice_lines, max(0, num_lines - slice_lines))
        halo_width = max(1, slice_lines // 8)
        lines[in_halo] = nbase + rng.integers(
            0, halo_width, size=int(in_halo.sum()), dtype=np.int64)
        return lines


def _hot_cold(count: int, num_items: int, hot_fraction: float,
              hot_weight: float, rng: np.random.Generator) -> np.ndarray:
    hot_items = max(1, int(num_items * hot_fraction))
    if hot_items >= num_items:
        return rng.integers(0, num_items, size=count, dtype=np.int64)
    is_hot = rng.random(count) < hot_weight
    out = np.empty(count, dtype=np.int64)
    n_hot = int(is_hot.sum())
    if n_hot:
        out[is_hot] = rng.integers(0, hot_items, size=n_hot, dtype=np.int64)
    if count - n_hot:
        out[~is_hot] = rng.integers(hot_items, num_items,
                                    size=count - n_hot, dtype=np.int64)
    return out


@dataclass(frozen=True)
class ArrayAccess:
    """One kernel operand: an array, its pattern and its traffic share."""

    array: Array
    pattern: AccessPattern
    weight: float
    write_fraction: float = 0.0

    def __post_init__(self) -> None:
        if self.weight <= 0:
            raise ValueError("access weight must be positive")
        if not 0.0 <= self.write_fraction <= 1.0:
            raise ValueError("write fraction must be in [0, 1]")


@dataclass(frozen=True)
class KernelProgram:
    """A kernel: operands, grid size and memory intensity."""

    name: str
    accesses: Tuple[ArrayAccess, ...]
    ctas: int
    accesses_per_cta: int
    intensity: float = 5000.0

    def __init__(self, name: str, accesses: Sequence[ArrayAccess],
                 ctas: int, accesses_per_cta: int,
                 intensity: float = 5000.0) -> None:
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "accesses", tuple(accesses))
        object.__setattr__(self, "ctas", ctas)
        object.__setattr__(self, "accesses_per_cta", accesses_per_cta)
        object.__setattr__(self, "intensity", intensity)
        if not self.accesses:
            raise ValueError("a kernel needs at least one operand")
        if ctas < 1 or accesses_per_cta < 1:
            raise ValueError("grid and per-CTA access count must be positive")
        if intensity <= 0:
            raise ValueError("intensity must be positive")

    @property
    def arrays(self) -> List[Array]:
        return [access.array for access in self.accesses]


@dataclass
class ProgramWorkload:
    """A sequence of kernel programs over one shared address space."""

    name: str
    kernels: List[KernelProgram]
    num_chips: int = 4
    clusters_per_chip: int = 32
    line_size: int = 128
    cta_scheduling: str = "distributed"
    accesses_per_epoch_per_chip: int = 8192
    iterations: int = 1
    seed: int = 0xC7A5

    _bases: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self) -> None:
        if not self.kernels:
            raise ValueError("a workload needs at least one kernel")
        if self.num_chips < 1:
            raise ValueError("need at least one chip")
        if self.cta_scheduling not in ("distributed", "round-robin"):
            raise ValueError(
                f"unknown CTA scheduling: {self.cta_scheduling!r}")
        # Lay out every distinct array once, page-aligned (4 KB floor).
        base = 0
        for kernel in self.kernels:
            for array in kernel.arrays:
                if array.name in self._bases:
                    continue
                self._bases[array.name] = base
                pages = -(-array.size_bytes // 4096)
                base += pages * 4096

    def array_base(self, array: Array) -> int:
        return self._bases[array.name]

    @property
    def footprint_bytes(self) -> int:
        seen = {}
        for kernel in self.kernels:
            for array in kernel.arrays:
                seen[array.name] = array.size_bytes
        return sum(seen.values())

    # -- Compilation -------------------------------------------------------

    def _scheduler(self, ctas: int) -> Union[
            "DistributedCTAScheduler", "RoundRobinCTAScheduler"]:
        # Imported lazily: repro.sim imports repro.workloads.generator,
        # so a module-level import here would be circular.
        from ..sim.cta import DistributedCTAScheduler, RoundRobinCTAScheduler
        if self.cta_scheduling == "distributed":
            return DistributedCTAScheduler(ctas, self.num_chips)
        return RoundRobinCTAScheduler(ctas, self.num_chips)

    def kernel_traces(self) -> Iterator[KernelTrace]:
        """Compile the workload into engine-consumable kernel traces."""
        launch = 0
        for _ in range(self.iterations):
            for kernel in self.kernels:
                rng = np.random.default_rng((self.seed, launch))
                yield self._compile_kernel(kernel, rng, launch)
                launch += 1

    def _compile_kernel(self, kernel: KernelProgram,
                        rng: np.random.Generator,
                        launch: int) -> KernelTrace:
        scheduler = self._scheduler(kernel.ctas)
        per_chip = self.accesses_per_epoch_per_chip
        total_accesses = kernel.ctas * kernel.accesses_per_cta
        per_epoch = per_chip * self.num_chips
        num_epochs = max(1, -(-total_accesses // per_epoch))
        weights = np.array([a.weight for a in kernel.accesses],
                           dtype=np.float64)
        weights = weights / weights.sum()
        epochs = []
        for _epoch in range(num_epochs):
            epochs.append(self._compile_epoch(kernel, scheduler, weights,
                                              per_chip, rng))
        return KernelTrace(name=f"{kernel.name}#{launch}",
                           epochs=tuple(epochs))

    def _compile_epoch(self, kernel: KernelProgram,
                       scheduler: Union["DistributedCTAScheduler",
                                        "RoundRobinCTAScheduler"],
                       weights: np.ndarray,
                       per_chip: int, rng: np.random.Generator) -> EpochTrace:
        chips_list = []
        addrs_list = []
        writes_list = []
        for chip in range(self.num_chips):
            ctas = scheduler.ctas_of(chip)
            if len(ctas) == 0:
                continue
            # Sample which CTA issues each access, then which operand.
            cta_choice = rng.integers(0, len(ctas), size=per_chip)
            operand_choice = rng.choice(len(kernel.accesses), size=per_chip,
                                        p=weights)
            addrs = np.empty(per_chip, dtype=np.int64)
            writes = np.zeros(per_chip, dtype=bool)
            for op_index, access in enumerate(kernel.accesses):
                mask = operand_choice == op_index
                count = int(mask.sum())
                if count == 0:
                    continue
                num_lines = max(1, access.array.size_bytes // self.line_size)
                base = self._bases[access.array.name]
                # Batch the pattern sampling by CTA.
                ctas_drawn = np.asarray(ctas, dtype=np.int64)[
                    cta_choice[mask]]
                lines = np.empty(count, dtype=np.int64)
                unique_ctas, inverse = np.unique(ctas_drawn,
                                                 return_inverse=True)
                for j, cta in enumerate(unique_ctas.tolist()):
                    group = inverse == j
                    lines[group] = access.pattern.sample(
                        cta, kernel.ctas, num_lines, int(group.sum()), rng)
                addrs[mask] = base + lines * self.line_size
                if access.write_fraction:
                    writes[mask] = rng.random(count) < access.write_fraction
            chips_list.append(np.full(per_chip, chip, dtype=np.int64))
            addrs_list.append(addrs)
            writes_list.append(writes)
        chips = np.concatenate(chips_list)
        addrs = np.concatenate(addrs_list)
        writes = np.concatenate(writes_list)
        order = rng.permutation(len(addrs))
        # Each access's SM cluster is drawn and discarded, as in
        # TraceGenerator: no simulator reads it, and dropping the draw
        # would shift the RNG stream.
        rng.integers(0, self.clusters_per_chip, size=len(addrs),
                     dtype=np.int64)
        compute = per_chip / kernel.intensity * 1000.0
        return EpochTrace(chips=chips[order], addrs=addrs[order],
                          writes=writes[order], compute_cycles=compute)


def simulate_program(workload: ProgramWorkload,
                     organization: Union[str, "LLCOrganization"],
                     config: Optional["SystemConfig"] = None,
                     scale: float = 1.0,
                     params: Optional["EngineParams"] = None) -> "RunStats":
    """Run a :class:`ProgramWorkload` under an LLC organization.

    Unlike :func:`repro.sim.run.simulate`, programs carry explicit array
    sizes, so ``scale`` here only shrinks the *caches* (pass arrays
    already sized for the system you model).
    """
    from ..arch.presets import baseline
    from ..sim.engine import SimulationEngine
    from ..sim.run import make_organization, scaled_config

    base = config or baseline()
    run_config = scaled_config(base, scale)
    if isinstance(organization, str):
        organization = make_organization(organization, run_config)
    engine = SimulationEngine(run_config, organization, params=params)
    return engine.run(workload.kernel_traces(), benchmark=workload.name)
