"""Synthetic trace generation.

The generator turns a :class:`~repro.workloads.spec.BenchmarkSpec` into a
deterministic stream of post-L1 memory accesses (the paper's performance
counters also operate on L1 misses).  The virtual address space is laid
out in three page-aligned regions:

* **true region** — every chip draws line addresses from the same pool,
  so the same lines are accessed by multiple chips (true sharing);
* **false region** — lines within each page are statically partitioned
  across chips (line ``i`` of a page belongs to chip ``i mod num_chips``),
  so chips share pages but never lines (false sharing);
* **private region** — split into per-chip contiguous blocks that only
  the owning chip touches (no sharing).

Reuse is shaped by a hot set: ``hot_weight`` of the accesses fall into the
first ``hot_fraction`` of the region.  The hot-set size is what determines
whether replicating shared data under an SM-side LLC fits in the cache —
the decision boundary at the core of the paper.

Epoch records are numpy arrays for fast generation; the engine consumes
them row-wise.  Within an epoch the per-chip streams are shuffled together
so that first-touch page allocation spreads shared pages across chips.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, Iterator, List, Sequence, Tuple

import numpy as np

from .spec import BenchmarkSpec, KernelSpec, PhaseSpec

REGION_TRUE = 0
REGION_FALSE = 1
REGION_PRIVATE = 2

#: Generated traces keyed by (spec, system shape), least recently used
#: first.  Generation is deterministic and the epoch arrays are frozen
#: read-only, so replaying the same benchmark (a run matrix sweeping
#: organizations, a sweep over configs, best-of-N benchmarking) reuses
#: the trace instead of regenerating it.  A cached trace keeps its
#: engine memos alive too, so ``run_matrix`` drops each benchmark's
#: trace (:func:`release_trace`) as soon as its runs end when the matrix
#: has more benchmarks than the cache has slots: no later run replays
#: it.  A smaller matrix, such as a Figure 14 sweep point, keeps its
#: traces for the next call.
_TRACE_CACHE: "OrderedDict[tuple, Tuple[KernelTrace, ...]]" = OrderedDict()
_TRACE_CACHE_MAX = 4


def release_trace(spec: BenchmarkSpec) -> None:
    """Drop every cached trace of ``spec``, whatever its system shape."""
    for key in [key for key in _TRACE_CACHE if key[0] == spec]:
        del _TRACE_CACHE[key]


class EpochTrace:
    """One epoch of accesses plus its compute floor.

    ``chips``, ``addrs`` and ``writes`` are parallel arrays of one length;
    ``compute_cycles`` is the time the epoch would take with an infinitely
    fast memory system (sets the lower bound on epoch latency).  No
    simulator reads which SM cluster issued an access, so an epoch does
    not store it.

    Every run of a trace replays the same cached epochs, so an epoch keeps
    its own copy of the accesses, frozen read-only when it is built: a
    caller that later writes into the arrays it passed in, or a consumer
    that writes into one it reads, cannot change a replay.  The copy is
    stored compactly (:attr:`stored`, :attr:`nbytes`):

    * chips as uint8 (construction raises ``ValueError`` unless every
      value is an integer in 0..255);
    * addresses as offsets from the epoch's smallest address, in units of
      their largest common power-of-two stride (the line size, for a
      generated trace), at the narrowest unsigned width that holds them
      (``np.min_scalar_type``).  Construction raises ``ValueError``
      unless every address is an integer in 0..2**63-1;
    * writes bit-packed (``np.packbits``).

    An epoch that spans fewer than 65,536 strides therefore holds about
    3.1 bytes per access, and about 5.1 with 32-bit offsets.  ``chips``
    reads the stored array; ``addrs`` decodes a fresh int64 array and
    ``writes`` a fresh bool array, so a consumer decodes once per use and
    keeps the result.  The rule for every per-access array of a trace,
    memos included, is *narrow at rest, int64 at use*, and for the
    epoch's own arrays it holds by construction.  A consumer that
    computes with a narrow array widens it first: under NumPy 2 a uint16
    array shifted or multiplied by a Python int stays uint16 and wraps,
    which is why decoding widens the offsets before it shifts them
    (``np.bincount``, indexing, ``.tolist()`` and a floor division need
    no widening; a sum or product with an int64 array or a numpy int64
    scalar promotes on its own, so the engine reads its narrow memos as
    they are).
    """

    __slots__ = ("compute_cycles", "derived", "_chips", "_offsets", "_base",
                 "_shift", "_writes", "_len")

    def __init__(self, chips: np.ndarray, addrs: np.ndarray,
                 writes: np.ndarray, compute_cycles: float) -> None:
        chips = _as_uint8("chips", chips)
        base, shift, offsets = _encode_addrs(addrs)
        if not len(chips) == len(offsets) == len(writes):
            raise ValueError("EpochTrace.chips, addrs and writes must have "
                             "one length")
        self._init(chips, offsets, base, shift, np.packbits(writes),
                   len(writes), compute_cycles)

    def _init(self, chips: np.ndarray, offsets: np.ndarray, base: int,
              shift: int, packed: np.ndarray, length: int,
              compute_cycles: float) -> None:
        for array in (chips, offsets, packed):
            array.setflags(write=False)
        self._chips = chips
        self._offsets = offsets
        self._base = base
        self._shift = shift
        self._writes = packed
        self._len = length
        self.compute_cycles = compute_cycles
        #: Memo table for pure derivations of the (immutable) accesses —
        #: the slice/channel route hashes, the epoch's distinct pages in
        #: first-touch order, the profiling window's head/tail split.
        #: Epochs are shared across runs and cached across calls, so
        #: consumers key entries by every parameter the derivation
        #: depends on and store only read-only values, per-access ones at
        #: their narrowest width (the engine keeps no per-access page
        #: index, since the page table homes every access with one
        #: gather).
        self.derived: Dict[tuple, object] = {}

    def __len__(self) -> int:
        return self._len

    def __repr__(self) -> str:
        return (f"EpochTrace({self._len} accesses, "
                f"compute_cycles={self.compute_cycles})")

    @property
    def chips(self) -> np.ndarray:
        """The requesting chip of each access (the stored uint8 array)."""
        return self._chips

    @property
    def addrs(self) -> np.ndarray:
        """The addresses, decoded into a fresh int64 array."""
        out = self._offsets.astype(np.int64)  # widened before the shift
        out <<= self._shift
        out += self._base
        return out

    @property
    def writes(self) -> np.ndarray:
        """Whether each access writes, decoded into a fresh bool array."""
        return np.unpackbits(self._writes, count=self._len).view(bool)

    @property
    def stored(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The read-only arrays the epoch holds at rest: uint8 chips,
        address offsets and packed writes."""
        return self._chips, self._offsets, self._writes

    @property
    def nbytes(self) -> int:
        """Bytes of :attr:`stored` (memos not included)."""
        return sum(array.nbytes for array in self.stored)

    def split(self, cut: int) -> Tuple["EpochTrace", "EpochTrace"]:
        """The first ``cut`` accesses and the rest, each with its share
        of the compute floor.

        Both parts keep this epoch's encoding: their chips and offsets
        are views of its arrays, and only the writes are packed again, so
        a part adds its own memos and an eighth of a byte per access.
        """
        n = self._len
        writes = self.writes
        return (self._part(0, cut, writes, self.compute_cycles * cut / n),
                self._part(cut, n, writes,
                           self.compute_cycles * (n - cut) / n))

    def _part(self, lo: int, hi: int, writes: np.ndarray,
              compute_cycles: float) -> "EpochTrace":
        part = EpochTrace.__new__(EpochTrace)
        part._init(self._chips[lo:hi], self._offsets[lo:hi], self._base,
                   self._shift, np.packbits(writes[lo:hi]), hi - lo,
                   compute_cycles)
        return part


def _as_uint8(name: str, values: np.ndarray) -> np.ndarray:
    """A uint8 copy of ``values``."""
    narrow = values.astype(np.uint8)
    if values.dtype != np.uint8 and not np.array_equal(narrow, values):
        raise ValueError(f"EpochTrace.{name} must hold integers in 0..255")
    return narrow


def _encode_addrs(values: np.ndarray) -> Tuple[int, int, np.ndarray]:
    """``(base, shift, offsets)`` with ``values == base + (offsets <<
    shift)``: ``base`` is the smallest address, ``1 << shift`` the
    largest power of two dividing every difference from it, and
    ``offsets`` a new array at the narrowest unsigned width."""
    if values.dtype.kind not in "iu":
        raise ValueError("EpochTrace.addrs must hold integers")
    if not values.size:
        return 0, 0, np.zeros(0, dtype=np.uint8)
    base, top = int(values.min()), int(values.max())
    if base < 0:
        raise ValueError("EpochTrace.addrs must be non-negative")
    if top >= 2**63:
        raise ValueError("EpochTrace.addrs must be below 2**63")
    rel = values.astype(np.int64)
    rel -= base
    common = int(np.bitwise_or.reduce(rel))
    shift = (common & -common).bit_length() - 1 if common else 0
    rel >>= shift
    return base, shift, rel.astype(np.min_scalar_type((top - base) >> shift))


@dataclass(frozen=True)
class KernelTrace:
    """A kernel launch: name plus its epoch sequence."""

    name: str
    epochs: Tuple[EpochTrace, ...]

    @property
    def num_accesses(self) -> int:
        return sum(len(e) for e in self.epochs)


class TraceGenerator:
    """Generates the access trace for one benchmark on one system shape."""

    def __init__(self, spec: BenchmarkSpec, num_chips: int,
                 clusters_per_chip: int, line_size: int = 128,
                 page_size: int = 4096,
                 accesses_per_epoch_per_chip: int = 8192,
                 scale: float = 1.0) -> None:
        if num_chips < 1:
            raise ValueError("need at least one chip")
        if clusters_per_chip < 1:
            raise ValueError("need at least one cluster per chip")
        if accesses_per_epoch_per_chip < 1:
            raise ValueError("need at least one access per epoch")
        self.spec = spec
        self.num_chips = num_chips
        self.clusters_per_chip = clusters_per_chip
        self.line_size = line_size
        self.page_size = page_size
        self.accesses_per_epoch = accesses_per_epoch_per_chip
        self.scale = scale
        self._lines_per_page = max(1, page_size // line_size)

        regions = spec.region_bytes(scale)
        self._true_lines = self._to_lines(regions["true"])
        self._false_lines = self._to_lines(regions["false"])
        self._private_lines_per_chip = (
            self._to_lines(regions["private"]) // max(1, num_chips))

        # Page-aligned region base addresses.
        self._true_base = 0
        self._false_base = self._align_pages(self._true_lines * line_size)
        private_base = self._false_base + self._align_pages(
            self._false_lines * line_size)
        self._private_bases = [
            private_base + chip * self._align_pages(
                self._private_lines_per_chip * line_size)
            for chip in range(num_chips)]

    def _to_lines(self, num_bytes: int) -> int:
        return max(0, num_bytes // self.line_size)

    def _align_pages(self, num_bytes: int) -> int:
        pages = -(-num_bytes // self.page_size)
        return pages * self.page_size

    # -- Public API -------------------------------------------------------

    @property
    def total_lines(self) -> int:
        return (self._true_lines + self._false_lines
                + self.num_chips * self._private_lines_per_chip)

    def region_of(self, addr: int) -> int:
        """Classify an address into its region (for analysis/tests)."""
        if addr < self._false_base:
            return REGION_TRUE
        if addr < self._private_bases[0]:
            return REGION_FALSE
        return REGION_PRIVATE

    def kernels(self) -> Iterator[KernelTrace]:
        """Yield every kernel launch of the benchmark, in order."""
        key = (self.spec, self.num_chips, self.clusters_per_chip,
               self.line_size, self.page_size, self.accesses_per_epoch,
               self.scale)
        traces = _TRACE_CACHE.get(key)
        if traces is None:
            # Evict first, so the new trace is never built alongside a
            # full cache.
            while len(_TRACE_CACHE) >= _TRACE_CACHE_MAX:
                _TRACE_CACHE.popitem(last=False)
            traces = tuple(self._generate_all())
            _TRACE_CACHE[key] = traces
        else:
            _TRACE_CACHE.move_to_end(key)
        yield from traces

    def _generate_all(self) -> Iterator[KernelTrace]:
        seed = self.spec.effective_seed
        launch = 0
        for _ in range(self.spec.iterations):
            for kernel in self.spec.kernels:
                rng = np.random.default_rng((seed, launch))
                yield self._generate_kernel(kernel, rng, launch)
                launch += 1

    def generate(self) -> List[KernelTrace]:
        """Materialize the full trace (convenience for tests)."""
        return list(self.kernels())

    # -- Generation internals ----------------------------------------------

    def _generate_kernel(self, kernel: KernelSpec, rng: np.random.Generator,
                         launch: int) -> KernelTrace:
        epochs = tuple(self._generate_epoch(kernel.phase, rng)
                       for _ in range(kernel.epochs))
        name = f"{kernel.name}#{launch}"
        return KernelTrace(name=name, epochs=epochs)

    def _generate_epoch(self, phase: PhaseSpec,
                        rng: np.random.Generator) -> EpochTrace:
        n = self.accesses_per_epoch
        per_chip = []
        for chip in range(self.num_chips):
            per_chip.append(self._chip_accesses(chip, n, phase, rng))
        chips = np.concatenate([np.full(n, chip, dtype=np.int64)
                                for chip in range(self.num_chips)])
        addrs = np.concatenate([a for a, _ in per_chip])
        writes = np.concatenate([w for _, w in per_chip])
        # Each access's SM cluster is drawn and discarded: no simulator
        # reads it, but the draw (int64, whose dtype shapes the stream)
        # advances the RNG that every later draw depends on.  ROADMAP
        # item 1 removes it together with the next golden digests.
        rng.integers(0, self.clusters_per_chip, size=len(addrs),
                     dtype=np.int64)
        order = rng.permutation(len(addrs))
        compute = n / phase.intensity * 1000.0
        return EpochTrace(chips=chips[order], addrs=addrs[order],
                          writes=writes[order], compute_cycles=compute)

    def _chip_accesses(self, chip: int, n: int, phase: PhaseSpec,
                       rng: np.random.Generator
                       ) -> Tuple[np.ndarray, np.ndarray]:
        weights = self._effective_weights(phase)
        regions = rng.choice(3, size=n, p=weights)
        addrs = np.empty(n, dtype=np.int64)
        for region in (REGION_TRUE, REGION_FALSE, REGION_PRIVATE):
            mask = regions == region
            count = int(mask.sum())
            if count == 0:
                continue
            addrs[mask] = self._sample_region(region, chip, count, phase, rng)
        writes = rng.random(n) < phase.write_fraction
        return addrs, writes

    def _effective_weights(self, phase: PhaseSpec) -> Sequence[float]:
        """Zero out weights of empty regions and renormalize."""
        raw = [phase.weight_true if self._true_lines else 0.0,
               phase.weight_false if self._false_lines else 0.0,
               phase.weight_private if self._private_lines_per_chip else 0.0]
        total = sum(raw)
        if total <= 0:
            raise ValueError(
                f"benchmark {self.spec.name!r}: every weighted region is empty")
        return [w / total for w in raw]

    def _hot_cold_indices(self, count: int, num_items: int, phase: PhaseSpec,
                          rng: np.random.Generator,
                          region: str) -> np.ndarray:
        """Draw ``count`` item indices from a hot/cold split of ``num_items``."""
        if num_items <= 0:
            raise ValueError("cannot sample from an empty region")
        hot_items = max(1, int(num_items * phase.region_hot_fraction(region)))
        if hot_items >= num_items:
            return rng.integers(0, num_items, size=count, dtype=np.int64)
        is_hot = rng.random(count) < phase.hot_weight
        indices = np.empty(count, dtype=np.int64)
        num_hot = int(is_hot.sum())
        if num_hot:
            indices[is_hot] = rng.integers(0, hot_items, size=num_hot,
                                           dtype=np.int64)
        num_cold = count - num_hot
        if num_cold:
            indices[~is_hot] = rng.integers(hot_items, num_items,
                                            size=num_cold, dtype=np.int64)
        return indices

    def _sample_region(self, region: int, chip: int, count: int,
                       phase: PhaseSpec,
                       rng: np.random.Generator) -> np.ndarray:
        if region == REGION_TRUE:
            return self._sample_true(chip, count, phase, rng)
        if region == REGION_FALSE:
            return self._sample_false(chip, count, phase, rng)
        lines = self._hot_cold_indices(count, self._private_lines_per_chip,
                                       phase, rng, "private")
        return self._private_bases[chip] + lines * self.line_size

    def _sample_true(self, chip: int, count: int, phase: PhaseSpec,
                     rng: np.random.Generator) -> np.ndarray:
        """Sample truly shared lines, honouring the phase's home affinity.

        The region is split into ``num_chips`` equal segments, each with
        its own hot prefix.  With probability ``true_affinity`` a chip
        accesses its own segment (the part it first touches and that is
        therefore homed locally); otherwise it accesses a uniformly random
        segment.  Every segment can be accessed by every chip, so all the
        lines remain truly shared.
        """
        seg_lines = self._true_lines // self.num_chips
        if phase.true_affinity <= 0.0 or seg_lines == 0:
            lines = self._hot_cold_indices(count, self._true_lines, phase,
                                           rng, "true")
            return self._true_base + lines * self.line_size
        segments = rng.integers(0, self.num_chips, size=count, dtype=np.int64)
        own = rng.random(count) < phase.true_affinity
        segments[own] = chip
        within = self._hot_cold_indices(count, seg_lines, phase, rng, "true")
        lines = segments * seg_lines + within
        return self._true_base + lines * self.line_size

    def _sample_false(self, chip: int, count: int, phase: PhaseSpec,
                      rng: np.random.Generator) -> np.ndarray:
        """Sample falsely shared lines: per-page line slots owned by ``chip``.

        Each page of the false region has ``lines_per_page`` lines; chip
        ``c`` only ever touches lines whose within-page index is congruent
        to ``c`` modulo the chip count, so no line is accessed by two
        chips while every page is shared.
        """
        lpp = self._lines_per_page
        slots_per_page = max(1, lpp // self.num_chips)
        num_pages = max(1, self._false_lines // lpp)
        num_slots = num_pages * slots_per_page
        slot = self._hot_cold_indices(count, num_slots, phase, rng, "false")
        page = slot // slots_per_page
        within = slot % slots_per_page
        line_in_page = (within * self.num_chips + chip) % lpp
        return (self._false_base + page * self.page_size
                + line_in_page * self.line_size)
