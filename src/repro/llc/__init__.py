"""LLC organizations: memory-side, SM-side, Static (L1.5), Dynamic, SAC."""

from .base import (
    MEMORY_SIDE_MODE,
    PARTITION_LOCAL,
    PARTITION_REMOTE,
    SM_SIDE_MODE,
    WHOLE_LLC,
    LLCOrganization,
    LookupStage,
    RoutePlan,
)
from .ladm import LADMLLC, TouchFilter
from .organizations import DynamicLLC, MemorySideLLC, SMSideLLC, StaticLLC

__all__ = [
    "MEMORY_SIDE_MODE",
    "PARTITION_LOCAL",
    "PARTITION_REMOTE",
    "SM_SIDE_MODE",
    "WHOLE_LLC",
    "LLCOrganization",
    "LookupStage",
    "RoutePlan",
    "DynamicLLC",
    "LADMLLC",
    "MemorySideLLC",
    "SMSideLLC",
    "StaticLLC",
    "TouchFilter",
]
