"""Hardware directory coherence.

Software coherence is the engine's kernel-boundary flush of each
organization's declared ``remote_scope``
(:meth:`repro.sim.engine.SimulationEngine.flush_llc`).
"""

from .hardware import DirectoryEntry, DirectoryStats, HardwareCoherence

__all__ = [
    "DirectoryEntry",
    "DirectoryStats",
    "HardwareCoherence",
]
