"""LLC organization interface.

An :class:`LLCOrganization` decides, per request, which chip's LLC slices
are probed and in what order, which way-partition fills go to, and where
misses are serviced — i.e. it encodes the routing policies of Figure 6.
The engine walks the returned :class:`RoutePlan` stages and charges the
traversed NoC/ring/DRAM resources.

Organizations also expose lifecycle hooks so adaptive schemes (Dynamic
LLC, SAC) can observe epochs and kernels and reconfigure themselves.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..sim.engine import EngineContext

#: Way-partition ids used by the Static and Dynamic organizations.
PARTITION_LOCAL = 0
PARTITION_REMOTE = 1

MEMORY_SIDE_MODE = "memory-side"
SM_SIDE_MODE = "sm-side"


@dataclass(frozen=True)
class LookupStage:
    """One LLC probe: which chip's slice array, under which partition."""

    chip: int
    partition: int = PARTITION_LOCAL
    allocate: bool = True


@dataclass(frozen=True)
class RoutePlan:
    """Ordered LLC probes for one request.

    ``stages`` holds one probe (memory-side, SM-side) or two (Static and
    Dynamic remote requests probe the requester's remote partition before
    the home chip's local partition).  A miss in every stage is serviced
    by the home chip's memory partition.
    """

    stages: Tuple[LookupStage, ...]

    def __post_init__(self) -> None:
        if not 1 <= len(self.stages) <= 2:
            raise ValueError("a route plan needs one or two stages")


class LLCOrganization(abc.ABC):
    """Base class for the five evaluated LLC organizations."""

    #: Display name used in reports (overridden per subclass).
    name: str = "llc"

    @property
    @abc.abstractmethod
    def mode(self) -> str:
        """Current behaviour: ``"memory-side"`` or ``"sm-side"``.

        Used by coherence (SM-side data needs LLC flushes / directory
        tracking) and by the Figure 9 local/remote classification.
        """

    @property
    def caches_remote_data(self) -> bool:
        """Whether any LLC slice may hold data homed on another chip."""
        return self.mode == SM_SIDE_MODE

    @abc.abstractmethod
    def plan(self, chip: int, home: int) -> RoutePlan:
        """Route a request from ``chip`` to a line homed on ``home``."""

    # -- Lifecycle hooks (default: no-ops) --------------------------------

    def attach(self, ctx: "EngineContext") -> None:
        """Called once when the engine is built."""

    def begin_kernel(self, ctx: "EngineContext", kernel_name: str) -> None:
        """Called at each kernel launch."""

    def end_kernel(self, ctx: "EngineContext") -> None:
        """Called when a kernel retires (before the coherence flush)."""

    def begin_epoch(self, ctx: "EngineContext", epoch_index: int) -> None:
        """Called before each epoch of the current kernel."""

    @property
    def profiling(self) -> bool:
        """Whether a profiling window is active (SAC only).

        When True, the engine runs only the profiling slice of the next
        epoch before calling :meth:`profile_boundary`.
        """
        return False

    def profile_boundary(self, ctx: "EngineContext") -> None:
        """Called when the profiling window ends (SAC decides here)."""

    def end_epoch(self, ctx: "EngineContext", epoch_index: int) -> None:
        """Called after each epoch's resources are settled."""

    def observe_access(self, ctx: "EngineContext", chip: int, addr: int,
                       home: int, hit_stage: Optional[int]) -> None:
        """Called per access (profiling hooks; default no-op)."""

    @property
    def observe_is_passive(self) -> bool:
        """True when :meth:`observe_access` is currently a no-op.

        The engine's vector path skips the per-access ``observe_access``
        callback entirely, so a run takes it only when the class keeps
        the base no-op or provides an ``observe_batch`` that reproduces
        it (see :func:`repro.sim.engine.takes_vector_path`); the engine
        calls ``observe_batch`` on the epochs where this is False.
        Organizations that override ``observe_access`` but only act
        during certain windows (e.g. SAC while profiling) should
        override this to reflect the current state.
        """
        return type(self).observe_access is LLCOrganization.observe_access

    def flush_partitions(self) -> List[Tuple[Optional[int], int]]:
        """Partitions that software coherence must flush at kernel end.

        Returns ``(chip, partition)`` pairs; ``chip=None`` means every
        chip.  Memory-side organizations return nothing; SM-side returns
        every chip's whole cache (partition ``PARTITION_LOCAL`` — they do
        not partition); Static/Dynamic return the remote partitions.
        """
        return []

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(name={self.name!r})"
