"""Coherence substrate: software flush-based and hardware directory protocols."""

from .hardware import DirectoryEntry, DirectoryStats, HardwareCoherence
from .software import FlushCost, SoftwareCoherence

__all__ = [
    "DirectoryEntry",
    "DirectoryStats",
    "FlushCost",
    "HardwareCoherence",
    "SoftwareCoherence",
]
