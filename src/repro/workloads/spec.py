"""Workload specifications.

A :class:`BenchmarkSpec` captures what Table 4 of the paper reports for
each benchmark — footprint, truly-shared and falsely-shared megabytes,
CTA count — plus the access-pattern knobs our synthetic generator needs:
how concentrated the hot set is, how intense the memory traffic is, and
the kernel/phase structure.

The three sharing classes follow the paper's Section 2.2 definitions:

* **true sharing** — the same cache line is accessed by multiple chips;
* **false sharing** — a line is accessed by one chip only, but another
  line of the same page is accessed by a different chip;
* **no sharing** — neither the line nor its page is touched by another
  chip.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, replace
from typing import Dict, Optional, Tuple

MB = 1024 * 1024

#: Benchmark preference labels used to group figures (paper Figure 1/8).
SM_SIDE_PREFERRED = "sm-side"
MEMORY_SIDE_PREFERRED = "memory-side"


@dataclass(frozen=True)
class PhaseSpec:
    """One behaviourally stable phase of a kernel.

    ``weight_true``, ``weight_false`` and ``weight_private`` give the
    probability that an access falls into the truly shared, falsely
    shared or unshared region; they must sum to 1.  ``hot_fraction`` and
    ``hot_weight`` shape reuse: ``hot_weight`` of the accesses go to a hot
    subset covering ``hot_fraction`` of the region, which directly sets
    the windowed working-set size (paper Figure 11).
    """

    weight_true: float
    weight_false: float
    weight_private: float
    hot_fraction: float = 0.25
    hot_weight: float = 0.8
    write_fraction: float = 0.25
    # Memory accesses issued per chip per 1000 compute cycles; larger means
    # more memory-bound.  Sets the epoch compute floor.
    intensity: float = 400.0
    # Optional per-region hot-set overrides; None falls back to hot_fraction.
    hot_fraction_true: Optional[float] = None
    hot_fraction_false: Optional[float] = None
    hot_fraction_private: Optional[float] = None
    # Temporal home-affinity of true sharing: with this probability, a
    # truly-shared access goes to the chip's *own* segment of the region
    # (the part it first touched and that is therefore homed locally
    # under first-touch allocation); otherwise any segment is accessed.
    # 0 models fully symmetric sharing, higher values model the phased
    # sharing of iterative workloads (tiles, panels, halos).
    true_affinity: float = 0.0

    def __post_init__(self) -> None:
        total = self.weight_true + self.weight_false + self.weight_private
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"phase weights must sum to 1, got {total}")
        for name in ("weight_true", "weight_false", "weight_private",
                     "hot_fraction", "hot_weight", "write_fraction",
                     "true_affinity"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value}")
        for name in ("hot_fraction_true", "hot_fraction_false",
                     "hot_fraction_private"):
            value = getattr(self, name)
            if value is not None and not 0.0 < value <= 1.0:
                raise ValueError(f"{name} must be in (0, 1], got {value}")
        if self.hot_fraction == 0.0 and self.hot_weight > 0.0:
            raise ValueError("hot_weight > 0 requires a non-empty hot set")
        if self.intensity <= 0:
            raise ValueError("intensity must be positive")

    def region_hot_fraction(self, region: str) -> float:
        """Hot fraction for ``region`` ('true' | 'false' | 'private')."""
        override = getattr(self, f"hot_fraction_{region}")
        if override is not None:
            return override
        return self.hot_fraction


@dataclass(frozen=True)
class KernelSpec:
    """One kernel launch: a phase plus its length in epochs."""

    name: str
    phase: PhaseSpec
    epochs: int = 8

    def __post_init__(self) -> None:
        if self.epochs < 1:
            raise ValueError("a kernel needs at least one epoch")


@dataclass(frozen=True)
class BenchmarkSpec:
    """A full benchmark: Table 4 characteristics + generator knobs."""

    name: str
    suite: str
    num_ctas: int
    footprint_mb: float
    true_shared_mb: float
    false_shared_mb: float
    preference: str
    kernels: Tuple[KernelSpec, ...]
    # How many times the kernel sequence repeats (multi-launch apps).
    iterations: int = 1
    seed: Optional[int] = None

    def __post_init__(self) -> None:
        if self.preference not in (SM_SIDE_PREFERRED, MEMORY_SIDE_PREFERRED):
            raise ValueError(f"unknown preference {self.preference!r}")
        if self.footprint_mb <= 0:
            raise ValueError("footprint must be positive")
        shared = self.true_shared_mb + self.false_shared_mb
        if shared > self.footprint_mb + 1e-9:
            raise ValueError("shared data cannot exceed the footprint")
        if self.num_ctas < 1:
            raise ValueError("need at least one CTA")
        if self.iterations < 1:
            raise ValueError("need at least one iteration")
        if not self.kernels:
            raise ValueError("a benchmark needs at least one kernel")

    @property
    def private_mb(self) -> float:
        return self.footprint_mb - self.true_shared_mb - self.false_shared_mb

    @property
    def effective_seed(self) -> int:
        if self.seed is not None:
            return self.seed
        # Stable across processes (unlike hash(), which is salted).
        digest = hashlib.md5(self.name.encode("utf-8")).hexdigest()
        return int(digest[:8], 16)

    def region_bytes(self, scale: float = 1.0) -> Dict[str, int]:
        """Byte sizes of the three regions, scaled by ``scale``.

        ``scale`` < 1 shrinks the workload (used together with LLC scaling
        to keep experiments fast; see ``repro.analysis.runner``).
        """
        if scale <= 0:
            raise ValueError("scale must be positive")
        return {
            "true": max(0, int(self.true_shared_mb * MB * scale)),
            "false": max(0, int(self.false_shared_mb * MB * scale)),
            "private": max(0, int(self.private_mb * MB * scale)),
        }

    def scaled_input(self, factor: float) -> "BenchmarkSpec":
        """Scale the input set by ``factor`` (paper Figure 13).

        Input scaling multiplies all three regions; CTA count scales with
        the footprint.  The name is annotated with the factor.
        """
        if factor <= 0:
            raise ValueError("input scale factor must be positive")
        suffix = f" x{factor:g}" if factor >= 1 else f" /{1 / factor:g}"
        return replace(
            self,
            name=self.name + suffix,
            footprint_mb=self.footprint_mb * factor,
            true_shared_mb=self.true_shared_mb * factor,
            false_shared_mb=self.false_shared_mb * factor,
            num_ctas=max(1, int(self.num_ctas * factor)),
            seed=self.effective_seed,
        )

    def table4_row(self) -> Dict[str, object]:
        """The row this benchmark contributes to Table 4."""
        return {
            "benchmark": self.name,
            "suite": self.suite,
            "ctas": self.num_ctas,
            "footprint_mb": round(self.footprint_mb),
            "true_shared_mb": round(self.true_shared_mb),
            "false_shared_mb": round(self.false_shared_mb),
            "preference": self.preference,
        }
