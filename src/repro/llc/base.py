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
from typing import TYPE_CHECKING, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    import numpy as np

    from ..sim.engine import EngineContext

#: Way-partition ids used by the Static and Dynamic organizations.
PARTITION_LOCAL = 0
PARTITION_REMOTE = 1

#: :attr:`LLCOrganization.remote_scope` of an organization whose remote
#: data may sit in any way of any slice.
WHOLE_LLC = -1

MEMORY_SIDE_MODE = "memory-side"
SM_SIDE_MODE = "sm-side"


@dataclass(frozen=True)
class LookupStage:
    """One LLC probe: which chip's slice array, under which partition."""

    chip: int
    partition: int = PARTITION_LOCAL


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

    #: Whether inter-chip traffic past the LLC rides a secondary network
    #: of its own, exempt from the primary crossbar (two-NoC SM-side).
    dedicated_memory_network: bool = False

    @property
    @abc.abstractmethod
    def mode(self) -> str:
        """Current behaviour: ``"memory-side"`` or ``"sm-side"``.

        Recorded per kernel launch; the default :attr:`remote_scope`
        follows it.
        """

    @property
    def remote_scope(self) -> Optional[int]:
        """Where LLC lines homed on another chip may live.

        ``None`` when no line can hold such data, :data:`WHOLE_LLC` when
        it may sit in any way of any slice, else the one partition that
        holds it.  Software coherence flushes exactly this scope at each
        kernel boundary, and hardware coherence tracks sharers while it
        is not ``None``.  By default SM-side caches remote data anywhere
        and memory-side caches none.
        """
        return WHOLE_LLC if self.mode == SM_SIDE_MODE else None

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
        """Called per access on the serial engine (default no-op)."""

    def observe_batch(self, ctx: "EngineContext", chips: "np.ndarray",
                      addrs: "np.ndarray", homes: "np.ndarray",
                      slices: "np.ndarray", hit_stages: "np.ndarray") -> None:
        """One vector epoch's :meth:`observe_access` stream in one call.

        The vector path calls it in place of the per-access hook, only
        while :attr:`profiling` is set, with ``-1`` in ``hit_stages`` for
        a full miss.  ``slices`` is the epoch's read-only slice-hash
        memo at its narrow width (uint8 for every shipped config), so a
        product with a Python int must widen it first.  A class that
        overrides :meth:`observe_access` must override this too to run
        there.
        """

    def remote_allocate(self, chip: int, addr: int) -> bool:
        """Whether a remote-partition probe by ``chip`` may install
        ``addr`` on a miss (default: always, as the plan says).

        Overriding it is a per-access insertion filter (LADM), which
        keeps a run on the serial engine.
        """
        return True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(name={self.name!r})"
