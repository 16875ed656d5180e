"""Memory substrate: page table, PAE address mapping and DRAM partitions."""

from .dram import DramPartition, DramSystem
from .mapping import AddressMapping
from .migration import DominantAccessorMigration
from .pages import PageTable

__all__ = [
    "AddressMapping",
    "DominantAccessorMigration",
    "DramPartition",
    "DramSystem",
    "PageTable",
]
