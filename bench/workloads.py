"""The benchmark's three workloads: their sizes and pass counts.

Every workload is a closed loop: one client makes serial calls, each
after the previous one returns.  Why each exists is recorded in
``BENCHMARK.json`` and ``bench/README.md``.  This module holds only the
table; what a pass executes lives in :mod:`bench.passes`, which imports
``repro``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Union

#: ``"paper"`` runs the suite as committed; an integer re-seeds every spec.
Seed = Union[str, int]
PAPER_SEED = "paper"


@dataclass(frozen=True)
class Workload:
    name: str
    #: System/workload shrink factor and trace density (accesses per
    #: chip per epoch), as ``repro.sim.run.simulate`` takes them.  Every
    #: workload runs at the experiments' ``--fast`` sizes.
    scale: float
    density: int
    #: Untraced passes of ``python -m bench run`` when neither
    #: ``--passes`` nor ``--seconds`` is given.
    passes: int
    #: Whether the vector tag-store kernel must run: a traced pass with
    #: no kernel call means the tracer broke the engine's fast path.
    uses_kernel: bool


#: ``BENCHMARK.json`` lists ``solo`` and ``fig8-cold`` only.
#: ``serial-paths`` runs almost entirely in interpreted Python, whose speed
#: on a shared host drifts the most: ten-run spreads of its wall reached
#: 20-27%, past the 25% bound a listed workload must hold.  It stays
#: available for judging changes to the serial engine by hand.
WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload("solo", 1 / 16, 2048, 7, True),
    Workload("serial-paths", 1 / 16, 2048, 5, False),
    Workload("fig8-cold", 1 / 16, 2048, 3, True),
)}
