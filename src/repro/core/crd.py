"""The Chip Request Directory (CRD).

The CRD (paper Section 3.4, Figure 7) predicts the LLC hit rate of the
SM-side configuration while the system runs memory-side.  It samples a
few of the chip's LLC sets; for each tracked line it records, per chip,
whether that chip has accessed the line before.  A repeat access by chip
*i* (bit *i* already set) would hit chip *i*'s SM-side LLC, so it counts
as a CRD hit.  ``crd_hits / crd_requests`` estimates the SM-side hit
rate.

Capacity fidelity matters: each CRD set must see the traffic of exactly
one LLC set (same ways, same insertion pressure), so the CRD indexes
lines with the *same* (slice-hash, set-index) function as the LLC and
samples every ``global_sets / crd_sets``-th global set.  Replicated
lines occupy one CRD entry whose per-chip bits approximate the per-chip
copies (the paper's RDD-inspired simplification).

Because profiling runs memory-side, each chip's CRD observes every
request homed at its memory partition, so no request escapes sampling.

Sectored caches widen the per-chip field to one bit per sector.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, List, Optional

import numpy as np

from ..arch.config import SACConfig


@dataclass
class CRDBlock:
    """One CRD entry: a tag plus per-chip (per-sector) access bits."""

    tag: int
    chip_bits: int = 0  # bit (chip * sectors + sector)


def modular_set_index(num_sets: int, line_size: int) -> Callable[[int], int]:
    """Default set-index function: ``(addr / line_size) mod num_sets``.

    Real deployments pass the composed (slice-hash, set) function via
    ``set_index_fn`` so the CRD's sampling matches the LLC exactly.
    """
    shift = line_size.bit_length() - 1

    def index(addr: int) -> int:
        return (addr >> shift) % num_sets

    return index


class ChipRequestDirectory:
    """Sampled directory predicting the SM-side LLC hit rate."""

    def __init__(self, sac: SACConfig, num_chips: int, llc_num_sets: int,
                 line_size: int, sectored: bool = False,
                 sectors_per_line: int = 4,
                 set_index_fn: Optional[Callable[[int], int]] = None) -> None:
        if llc_num_sets < 1:
            raise ValueError("the sampled LLC needs at least one set")
        if num_chips < 1:
            raise ValueError("need at least one chip")
        self.config = sac
        self.num_chips = num_chips
        self.llc_num_sets = llc_num_sets
        self.line_size = line_size
        self.sectored = sectored
        self.sectors_per_line = sectors_per_line if sectored else 1
        self.requests = 0
        self.hits = 0
        self._line_shift = line_size.bit_length() - 1
        self._set_index_fn = set_index_fn or modular_set_index(
            llc_num_sets, line_size)
        # Sample every (llc_num_sets / crd_sets)-th global LLC set.
        self._stride = max(1, llc_num_sets // sac.crd_sets)
        self._sets: List["OrderedDict[int, CRDBlock]"] = [
            OrderedDict() for _ in range(sac.crd_sets)]
        if sectored:
            self._sector_shift = (line_size // sectors_per_line).bit_length() - 1

    # -- Geometry -----------------------------------------------------------

    @property
    def num_sets(self) -> int:
        return self.config.crd_sets

    @property
    def num_ways(self) -> int:
        return self.config.crd_ways

    @property
    def sample_stride(self) -> int:
        return self._stride

    # -- Profiling ----------------------------------------------------------

    def _sampled_set(self, addr: int) -> Optional[int]:
        llc_set = self._set_index_fn(addr)
        if llc_set % self._stride:
            return None
        crd_set = llc_set // self._stride
        if crd_set >= self.config.crd_sets:
            return None
        return crd_set

    def sampled_mask(self, llc_sets: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`_sampled_set` predicate.

        ``llc_sets`` holds precomputed global set indices (the same
        values ``set_index_fn`` yields per address); the result marks
        the accesses that fall inside the sampled sets.  Used by the
        batched profiling path to pre-filter the (order-dependent)
        per-access :meth:`observe` stream — the two must stay in sync.
        """
        return ((llc_sets % self._stride == 0)
                & (llc_sets // self._stride < self.config.crd_sets))

    def _bit(self, chip: int, addr: int) -> int:
        if not self.sectored:
            return 1 << chip
        offset = addr & (self.line_size - 1)
        sector = offset >> self._sector_shift
        return 1 << (chip * self.sectors_per_line + sector)

    def observe(self, chip: int, addr: int) -> Optional[bool]:
        """Feed one request; returns the predicted SM-side hit, or None
        if the address falls outside the sampled sets."""
        crd_set = self._sampled_set(addr)
        if crd_set is None:
            return None
        tag = addr >> self._line_shift
        blocks = self._sets[crd_set]
        bit = self._bit(chip, addr)
        block = blocks.get(tag)
        self.requests += 1
        if block is not None:
            blocks.move_to_end(tag)
            if block.chip_bits & bit:
                self.hits += 1
                return True
            block.chip_bits |= bit
            return False
        if len(blocks) >= self.config.crd_ways:
            blocks.popitem(last=False)
        blocks[tag] = CRDBlock(tag=tag, chip_bits=bit)
        return False

    @property
    def predicted_hit_rate(self) -> float:
        """Estimated SM-side LLC hit rate (CRD hits / CRD requests)."""
        if self.requests == 0:
            return 0.0
        return self.hits / self.requests

    def reset(self) -> None:
        for blocks in self._sets:
            blocks.clear()
        self.requests = 0
        self.hits = 0
