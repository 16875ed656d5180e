"""Randomized address mapping (PAE-style).

The paper uses the PAE address-mapping scheme (Liu et al., ISCA 2018) to
spread memory accesses uniformly across LLC slices, memory channels and
banks.  We reproduce the property that matters — uniform, deterministic
pseudo-random distribution — with a xor-fold hash of the line address.
The mapping is pure (no state), deterministic across runs and cheap.
Each hash has a scalar form and an array form over int64 addresses, and
the two agree bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_MASK64 = 0xFFFFFFFFFFFFFFFF


def _mix(value: int) -> int:
    """A 64-bit finalizer (splitmix64-style) used as the PAE hash."""
    value &= _MASK64
    value = (value ^ (value >> 30)) * 0xBF58476D1CE4E5B9 & _MASK64
    value = (value ^ (value >> 27)) * 0x94D049BB133111EB & _MASK64
    return value ^ (value >> 31)


def _mix_mod(lines: np.ndarray, seed: int, modulus: int) -> np.ndarray:
    """:func:`_mix` of ``lines ^ seed`` mod ``modulus``, elementwise over
    non-negative int64 ``lines``, as int64."""
    v = lines.astype(np.uint64) ^ np.uint64(seed & _MASK64)
    with np.errstate(over="ignore"):
        v = (v ^ (v >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        v = (v ^ (v >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        v = v ^ (v >> np.uint64(31))
    return (v % np.uint64(modulus)).astype(np.int64)


@dataclass(frozen=True)
class AddressMapping:
    """Deterministic pseudo-random mapping of line addresses to resources.

    ``llc_slice_of`` picks the LLC slice (within the home chip) serving a
    line, and ``channel_of`` the DRAM channel within the home partition;
    ``llc_slices_of`` and ``channels_of`` are their array forms.  Both
    hash the line address so that consecutive lines spread across
    slices/channels, as PAE guarantees.  The slice hash is seeded with
    ``seed``, the channel hash with its complement.
    """

    line_size: int
    slices_per_chip: int
    channels_per_chip: int
    seed: int = 0x5AC0_5AC0

    def __post_init__(self) -> None:
        if self.line_size <= 0 or self.line_size & (self.line_size - 1):
            raise ValueError("line size must be a positive power of two")
        if self.slices_per_chip < 1:
            raise ValueError("need at least one LLC slice per chip")
        if self.channels_per_chip < 1:
            raise ValueError("need at least one memory channel per chip")

    def _line(self, addr: int) -> int:
        return addr // self.line_size

    @property
    def _channel_seed(self) -> int:
        return ~self.seed & _MASK64

    def llc_slice_of(self, addr: int) -> int:
        """LLC slice index (0..slices_per_chip-1) within the home chip."""
        return _mix(self._line(addr) ^ self.seed) % self.slices_per_chip

    def channel_of(self, addr: int) -> int:
        """DRAM channel index (0..channels_per_chip-1) within the home chip."""
        return _mix(self._line(addr) ^ self._channel_seed) \
            % self.channels_per_chip

    def llc_slices_of(self, addrs: np.ndarray) -> np.ndarray:
        """:meth:`llc_slice_of` of every non-negative int64 address."""
        return _mix_mod(addrs // self.line_size, self.seed,
                        self.slices_per_chip)

    def channels_of(self, addrs: np.ndarray) -> np.ndarray:
        """:meth:`channel_of` of every non-negative int64 address."""
        return _mix_mod(addrs // self.line_size, self._channel_seed,
                        self.channels_per_chip)

    def global_slice_of(self, addr: int, home_chip: int) -> int:
        """Globally unique slice id ``home_chip * slices_per_chip + slice``."""
        return home_chip * self.slices_per_chip + self.llc_slice_of(addr)
