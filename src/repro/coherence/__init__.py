"""Hardware directory coherence.

Software coherence is the engine's kernel-boundary flush of each
organization's declared ``remote_scope``
(:meth:`repro.sim.engine.SimulationEngine.flush_llc`).
"""

from .hardware import DirectoryEntry, HardwareCoherence

__all__ = [
    "DirectoryEntry",
    "HardwareCoherence",
]
