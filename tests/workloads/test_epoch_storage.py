"""How an epoch stores its accesses: the offset encoding of addresses,
bit-packed writes, read-only storage and the profile split.

Every producer of epochs (the generator, ``ProgramWorkload`` and
``load_trace``) goes through the ``EpochTrace`` constructor, which
copies, encodes and freezes what it is given, so a cached trace cannot
be changed by the caller that built it or by a consumer that reads it.
"""

import collections
import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.sim import EngineParams, SimulationEngine, simulate
from repro.workloads import (
    Array,
    ArrayAccess,
    BenchmarkSpec,
    Broadcast,
    KernelProgram,
    KernelSpec,
    Partitioned,
    PhaseSpec,
    ProgramWorkload,
    TraceGenerator,
    get,
)
from repro.workloads.generator import EpochTrace, release_trace
from repro.workloads.traceio import load_trace, save_trace

MB = 1024 * 1024


def narrowest(value):
    """Bytes of the narrowest unsigned integer that holds ``value``."""
    for size in (1, 2, 4):
        if value < 1 << (8 * size):
            return size
    return 8


def epoch_of(addrs, dtype=np.int64, writes=None):
    n = len(addrs)
    return EpochTrace(chips=np.arange(n, dtype=np.int64) % 4,
                      addrs=np.array(addrs, dtype),
                      writes=np.zeros(n, bool) if writes is None
                      else np.array(writes, bool),
                      compute_cycles=float(n))


@st.composite
def address_lists(draw):
    """``(addrs, writes, top)``: addresses ``base + (offset << shift)``
    and a write flag for each.

    The offsets hold 0, 1 (when ``top`` > 0) and their maximum ``top``,
    so ``1 << shift`` is the largest power of two dividing every
    difference from the smallest address, and ``top`` the largest offset
    the epoch stores.  ``top`` is drawn next to each width's bounds, the
    base anywhere that keeps the addresses below 2**63.
    """
    shift = draw(st.integers(0, 12))
    top = draw(st.one_of(
        st.sampled_from([0, 1, 2**8 - 1, 2**8, 2**16 - 1, 2**16,
                         2**32 - 1, 2**32]),
        st.integers(0, 2**40)))
    base = draw(st.integers(0, 2**63 - 1 - (top << shift)))
    offsets = [0] if top == 0 else [0, 1, top]
    offsets += draw(st.lists(st.integers(0, top), max_size=20))
    offsets = draw(st.permutations(offsets))
    writes = draw(st.lists(st.booleans(), min_size=len(offsets),
                           max_size=len(offsets)))
    return [base + (o << shift) for o in offsets], writes, top


class TestEncoding:
    @given(address_lists(), st.sampled_from([np.int64, np.uint64]))
    @example(([5], [True], 0), np.int64)
    @example(([3, 4, 2**16 + 2], [True, False, True], 2**16 - 1),
             np.int64)
    @example(([3, 4, 2**16 + 3], [True, False, True], 2**16), np.int64)
    @example(([2**32, 2**32 + 128, 2**32 + (2**16 - 1) * 128],
              [False, True, False], 2**16 - 1), np.int64)
    @example(([7, 8, 2**32 + 6], [True, True, False], 2**32 - 1),
             np.int64)
    @example(([7, 8, 2**32 + 7], [False, False, True], 2**32), np.uint64)
    @settings(max_examples=150, deadline=None)
    def test_round_trip_at_the_narrowest_width(self, drawn, dtype):
        addrs, writes, top = drawn
        epoch = epoch_of(addrs, dtype, writes)
        assert epoch.addrs.dtype == np.int64
        assert epoch.addrs.tolist() == addrs
        assert epoch.writes.dtype == bool
        assert epoch.writes.tolist() == writes
        assert epoch.chips.tolist() == [i % 4 for i in range(len(addrs))]
        chips, offsets, packed = epoch.stored
        assert offsets.dtype.kind == "u"
        assert offsets.itemsize == narrowest(top)
        assert packed.size == -(-len(addrs) // 8)
        assert epoch.nbytes == chips.nbytes + offsets.nbytes + packed.nbytes

    def test_empty_epoch(self):
        epoch = epoch_of([])
        assert len(epoch) == 0
        assert epoch.addrs.dtype == np.int64 and epoch.addrs.size == 0
        assert epoch.writes.dtype == bool and epoch.writes.size == 0
        assert epoch.nbytes == 0

    def test_offsets_widen_before_the_shift(self):
        # A uint16 offset shifted as uint16 would wrap to 65535 << 7
        # mod 2**16.
        epoch = epoch_of([0, 1 << 7, 65535 << 7])
        assert epoch.stored[1].dtype == np.uint16
        assert epoch.stored[1].tolist() == [0, 1, 65535]
        assert epoch.addrs.tolist() == [0, 1 << 7, 65535 << 7]

    def test_generated_addresses_are_stored_in_lines(self):
        epoch = make_trace()[0].epochs[0]
        addrs = epoch.addrs
        offsets = epoch.stored[1]
        assert (addrs.min() + offsets.astype(np.int64) * 128 == addrs).all()

    def test_lengths_must_agree(self):
        with pytest.raises(ValueError, match="one length"):
            EpochTrace(chips=np.zeros(2, np.int64),
                       addrs=np.zeros(3, np.int64),
                       writes=np.zeros(3, bool), compute_cycles=1.0)


class TestSplit:
    @pytest.mark.parametrize("cut", [1, 7, 8, 9, 1000, 2047])
    def test_head_and_tail_decode_to_the_parents_slices(self, cut):
        epoch = make_trace()[0].epochs[0]
        head, tail = epoch.split(cut)
        for part, span in ((head, slice(0, cut)),
                           (tail, slice(cut, len(epoch)))):
            assert len(part) == len(epoch.addrs[span])
            assert part.addrs.tolist() == epoch.addrs[span].tolist()
            assert part.chips.tolist() == epoch.chips[span].tolist()
            assert part.writes.tolist() == epoch.writes[span].tolist()
            # Chips and offsets are views of the parent's arrays; only
            # the writes are packed again.
            for mine, parents in zip(part.stored[:2], epoch.stored[:2]):
                assert np.shares_memory(mine, parents)
                assert not mine.flags.writeable
            assert not part.stored[2].flags.writeable
        assert head.compute_cycles == epoch.compute_cycles * cut / len(epoch)
        assert tail.compute_cycles == \
            epoch.compute_cycles * (len(epoch) - cut) / len(epoch)


def make_trace():
    spec = dataclasses.replace(get("RN"), name="RN-storage")
    kernels = TraceGenerator(
        spec, num_chips=4, clusters_per_chip=8, line_size=128,
        page_size=4096, accesses_per_epoch_per_chip=512,
        scale=1.0 / 64).generate()
    release_trace(spec)
    return kernels


def from_generator(_tmp_path):
    return make_trace()


def from_program(_tmp_path):
    a = Array("A", MB)
    b = Array("B", MB)
    kernel = KernelProgram("k", [
        ArrayAccess(a, Partitioned(), weight=0.5, write_fraction=0.5),
        ArrayAccess(b, Broadcast(), weight=0.5)],
        ctas=16, accesses_per_cta=64)
    workload = ProgramWorkload("storage", [kernel], num_chips=4,
                               accesses_per_epoch_per_chip=128)
    return list(workload.kernel_traces())


def from_file(tmp_path):
    path = str(tmp_path / "trace.npz")
    save_trace(path, make_trace())
    return load_trace(path)


PRODUCERS = {"generator": from_generator, "program": from_program,
             "load_trace": from_file}


@pytest.mark.parametrize("producer", sorted(PRODUCERS))
def test_every_producer_stores_a_read_only_copy(producer, tmp_path,
                                                monkeypatch):
    """An epoch's stored arrays refuse in-place writes, and writing into
    the arrays its producer passed in leaves the epoch unchanged."""
    inputs = []
    init = EpochTrace.__init__

    def spy(self, chips, addrs, writes, compute_cycles):
        init(self, chips=chips, addrs=addrs, writes=writes,
             compute_cycles=compute_cycles)
        inputs.append((self, chips, addrs, writes))

    monkeypatch.setattr(EpochTrace, "__init__", spy)
    kernels = PRODUCERS[producer](tmp_path)
    monkeypatch.undo()
    epochs = {id(e): e for k in kernels for e in k.epochs}
    spied = [item for item in inputs if id(item[0]) in epochs]
    assert len(spied) == len(epochs) > 0
    for epoch, chips, addrs, writes in spied:
        with pytest.raises(ValueError, match="read-only"):
            epoch.chips[:1] = 1
        before = [epoch.chips.tolist(), epoch.addrs.tolist(),
                  epoch.writes.tolist()]
        for array, flipped in ((chips, chips ^ 1), (addrs, addrs + 1),
                               (writes, ~writes)):
            if array.flags.writeable:
                array[:] = flipped
        # Writing into a decoded read changes nothing either.
        epoch.addrs[:] = 0
        epoch.writes[:] = True
        assert [epoch.chips.tolist(), epoch.addrs.tolist(),
                epoch.writes.tolist()] == before
        for array in epoch.stored:
            with pytest.raises(ValueError, match="read-only"):
                array[:1] = 1


def test_one_run_decodes_each_epoch_once(monkeypatch):
    """A run decodes an epoch's addresses and writes once per epoch it
    runs; a profiling split decodes its parent's writes once more to
    pack its parts, and its parts then run in the parent's place."""
    counts = collections.Counter()
    for name in ("addrs", "writes"):
        decode = getattr(EpochTrace, name).fget

        def counted(epoch, decode=decode, name=name):
            counts[name] += 1
            return decode(epoch)
        monkeypatch.setattr(EpochTrace, name, property(counted))
    run_epoch = SimulationEngine._run_epoch

    def counted_run(engine, epoch, kstats):
        counts["runs"] += 1
        return run_epoch(engine, epoch, kstats)
    monkeypatch.setattr(SimulationEngine, "_run_epoch", counted_run)
    split = EpochTrace.split

    def counted_split(epoch, cut):
        counts["split"] += 1
        return split(epoch, cut)
    monkeypatch.setattr(EpochTrace, "split", counted_split)

    # Epochs of 640 compute cycles, which SAC's 500-cycle window cuts:
    # the first SAC run splits them, the second replays the memoized
    # parts.
    phase = PhaseSpec(weight_true=0.4, weight_false=0.3,
                      weight_private=0.3, write_fraction=0.3,
                      intensity=400.0)
    spec = BenchmarkSpec(
        name="decodes", suite="test", num_ctas=16, footprint_mb=8,
        true_shared_mb=2, false_shared_mb=2, preference="sm-side",
        kernels=(KernelSpec(name="k", phase=phase, epochs=3),),
        iterations=2, seed=5)
    runs = [("memory-side", True), ("static", True), ("sac", True),
            ("sac", True), ("memory-side", False)]
    try:
        for index, (organization, vectorized) in enumerate(runs):
            counts.clear()
            stats = simulate(spec, organization, scale=1.0 / 64,
                             accesses_per_epoch=256,
                             params=EngineParams(vectorized=vectorized))
            assert (stats.vector_epochs > 0) == vectorized
            assert counts["runs"] > 0
            assert counts["addrs"] == counts["runs"]
            assert counts["writes"] == counts["runs"] + counts["split"]
            assert (counts["split"] > 0) == (index == 2)
    finally:
        release_trace(spec)
