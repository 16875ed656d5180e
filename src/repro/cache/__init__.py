"""Cache substrate: functional set-associative, sectored and partitioned caches."""

from .cache import (
    UNPARTITIONED,
    AccessResult,
    CacheLine,
    PartitionFullError,
    SetAssociativeCache,
)
from .vector import BatchResult, VectorBank, VectorCache

__all__ = [
    "BatchResult",
    "VectorBank",
    "VectorCache",
    "UNPARTITIONED",
    "AccessResult",
    "CacheLine",
    "PartitionFullError",
    "SetAssociativeCache",
]
