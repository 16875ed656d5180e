"""Differential tests: the vectorized backend vs the OrderedDict model.

Random address streams over a matrix of geometries (pow2 and non-pow2
set counts, associativities, write mixes)
run through both :class:`SetAssociativeCache` and the vectorized
backend; every per-access outcome (hit/miss, eviction address, eviction
dirty bit) and the final resident state (including LRU order) must be
identical.  Unpartitioned batches run on
a one-cache :class:`VectorBank`'s grouped kernel.  Partitioned streams
take the shape of the L1.5 plan table, the only one the engine sends
the staged solver: over several caches, each line's home cache follows
its tag bits and its requester is drawn at random; a local access
probes LOCAL on its home, a remote one the remote partition on the
requester and then LOCAL on the home (see :func:`l15_stream`).  Calls
the bank declines (foreign-partition residents, a zero-way over slot)
run through the caches' scalar probe loop, which is what the serial
engine executes for them.
"""

import numpy as np
import pytest

from repro.arch.config import CacheConfig
from repro.cache.cache import (
    UNPARTITIONED,
    PartitionFullError,
    SetAssociativeCache,
)
from repro.cache.vector import (
    BatchResult,
    GroupedLaneCall,
    StagedLaneCall,
    StagedResult,
    VectorBank,
    VectorCache,
)

LINE = 128

#: (num_sets, associativity) geometry matrix; 48 and 12 are non-pow2.
GEOMETRIES = [(64, 4), (64, 16), (48, 8), (12, 3), (16, 2), (1, 8)]

WRITE_FRACS = [0.0, 0.3, 1.0]


def make_config(num_sets, assoc, **kwargs):
    return CacheConfig(size_bytes=num_sets * assoc * LINE,
                       associativity=assoc, line_size=LINE, **kwargs)


def random_stream(rng, num_sets, assoc, n, write_frac, base=0):
    """A stream hot enough to hit and crowded enough to evict."""
    footprint = max(2, int(num_sets * assoc * 2.5))
    lines = rng.integers(0, footprint, size=n)
    offsets = rng.integers(0, LINE, size=n)
    addrs = base + lines * LINE + offsets
    writes = rng.random(n) < write_frac
    return addrs.astype(np.int64), writes


def reference_outcomes(cache, addrs, writes, partition=UNPARTITIONED,
                       allocate_on_miss=True):
    """Per-access outcomes from the scalar model, as BatchResult arrays.

    ``partition`` is one partition id or a per-access array of them.
    """
    n = len(addrs)
    parts = np.broadcast_to(np.asarray(partition, dtype=np.int64), (n,))
    hits = np.zeros(n, dtype=bool)
    ev_addr = np.full(n, -1, dtype=np.int64)
    ev_dirty = np.zeros(n, dtype=bool)
    sector_miss = np.zeros(n, dtype=bool)
    for i in range(n):
        try:
            result = cache.access(int(addrs[i]), bool(writes[i]),
                                  partition=int(parts[i]),
                                  allocate_on_miss=allocate_on_miss)
        except PartitionFullError:
            continue
        hits[i] = result.hit
        sector_miss[i] = result.sector_miss
        if result.evicted_addr is not None:
            ev_addr[i] = result.evicted_addr
            ev_dirty[i] = result.evicted_dirty
    return BatchResult(hits, ev_addr, ev_dirty, sector_miss)


def final_state(cache):
    """Resident lines in set-order, LRU -> MRU, with every line field."""
    return [(addr, line.tag, line.dirty, line.partition, line.sector_valid)
            for addr, line in cache.resident_lines()]


def one_cache_bank(config):
    """A one-cache bank and its cache (the unit under test)."""
    bank = VectorBank(config, ["vec"])
    return bank, bank.caches[0]


def bank_batch(bank, addrs, writes):
    """Resolve one unpartitioned batch on a one-cache bank's grouped
    kernel, as the engine does; ``None`` means the bank declined."""
    idx = np.zeros(len(addrs), dtype=np.int64)
    return bank.access_many_grouped(idx, addrs, writes)


def _probe_outcome(result):
    """One scalar probe's full outcome; ``None`` for a PFE-miss."""
    if result is None:
        return None
    return (result.hit, result.sector_miss, result.evicted_addr,
            result.evicted_dirty)


def _staged_reference(refs, addrs, writes, idx0, part0, two_stage, idx1,
                      part1, probes=None):
    """Emulate the engine's two-stage probe loop on scalar caches.

    ``probes``, if given, is a list that receives every probe as
    ``(access, stage, outcome)``, clean evictions and sector misses
    included (see :func:`_probe_outcome`).
    """
    n = len(addrs)
    hs = np.full(n, -1, dtype=np.int64)
    ev_cache0, ev_addr0, ev_cache1, ev_addr1 = [], [], [], []
    for i in range(n):
        addr, write = int(addrs[i]), bool(writes[i])
        try:
            r0 = refs[idx0[i]].access(addr, write, partition=int(part0[i]))
        except PartitionFullError:
            r0 = None
        if probes is not None:
            probes.append((i, 0, _probe_outcome(r0)))
        if r0 is not None:
            if r0.hit:
                hs[i] = 0
            if r0.evicted_addr is not None and r0.evicted_dirty:
                ev_cache0.append(int(idx0[i]))
                ev_addr0.append(r0.evicted_addr)
        if two_stage[i] and (r0 is None or not r0.hit):
            try:
                r1 = refs[idx1[i]].access(addr, write,
                                          partition=int(part1[i]))
            except PartitionFullError:
                r1 = None
            if probes is not None:
                probes.append((i, 1, _probe_outcome(r1)))
            if r1 is None:
                continue
            if r1.hit:
                hs[i] = 1
            if r1.evicted_addr is not None and r1.evicted_dirty:
                ev_cache1.append(int(idx1[i]))
                ev_addr1.append(r1.evicted_addr)
    return (hs, np.array(ev_cache0 + ev_cache1, dtype=np.int64),
            np.array(ev_addr0 + ev_addr1, dtype=np.int64))


def l15_stream(rng, num_sets, assoc, n, write_frac, num_caches=3,
               remote=1):
    """A random epoch in the L1.5 table's shape, as the engine sends it.

    Drawn as ``test_staged_properties._stream`` draws it: the home
    cache comes from the tag bits, so every set holds local and remote
    lines, and the requester is drawn at random.  A local access probes
    LOCAL (partition 0) on its home; a remote one probes ``remote`` on
    the requester, then LOCAL on the home.  Returns the
    ``access_many_staged`` arrays.
    """
    addrs, writes = random_stream(rng, num_sets, assoc, n, write_frac)
    home = ((addrs // LINE // num_sets) % num_caches).astype(np.int64)
    req = rng.integers(0, num_caches, size=n).astype(np.int64)
    two_stage = req != home
    part0 = np.where(two_stage, remote, 0).astype(np.int64)
    return (addrs, writes, req, part0, two_stage, home,
            np.zeros(n, dtype=np.int64))


def assert_staged_identical(bank, refs, stream):
    """One L1.5 epoch on the bank and on the scalar caches ``refs``:
    the same hit stages, dirty evictions and final states.

    A call the bank declines runs through the bank caches' scalar
    probe loop, as the engine reruns a declined epoch.  Returns whether
    the bank declined.
    """
    out = bank.access_many_staged(*stream)
    declined = out is None
    if declined:
        out = StagedResult(*_staged_reference(bank.caches, *stream))
    hs, ev_cache, ev_addr = _staged_reference(refs, *stream)
    np.testing.assert_array_equal(out.hit_stage, hs)
    np.testing.assert_array_equal(out.evicted_cache, ev_cache)
    np.testing.assert_array_equal(out.evicted_addr, ev_addr)
    for ref, cache in zip(refs, bank.caches):
        assert final_state(ref) == final_state(cache)
    return declined


def assert_scalar_interlude(bank, refs, stream):
    """The scalar two-stage probe loop on the bank caches and on
    ``refs`` agree probe for probe: hit, sector miss, eviction address
    and dirty bit, clean evictions included.  Final states must match
    after the interlude.  Returns the reference probe log."""
    got, want = [], []
    _staged_reference(bank.caches, *stream, probes=got)
    _staged_reference(refs, *stream, probes=want)
    assert got == want
    for ref, cache in zip(refs, bank.caches):
        assert final_state(ref) == final_state(cache)
    return want


def staged_pair(config, num_caches, ways):
    """A bank of ``num_caches`` caches and its scalar reference caches,
    all partitioned ``ways``."""
    bank = VectorBank(config, [f"s{i}" for i in range(num_caches)])
    refs = [SetAssociativeCache(config, f"r{i}")
            for i in range(num_caches)]
    for cache in (*bank.caches, *refs):
        cache.set_partition(dict(ways))
    return bank, refs


def assert_identical(ref_out, vec_out, ref_cache, vec_cache):
    assert vec_out is not None
    if isinstance(vec_out, StagedResult):
        # Staged results carry hit stages plus the dirty evictions in
        # stream order; clean evictions show in the final state.
        np.testing.assert_array_equal(ref_out.hits, vec_out.hit_stage == 0)
        dirty = ref_out.evicted_dirty
        np.testing.assert_array_equal(ref_out.evicted_addr[dirty],
                                      vec_out.evicted_addr)
        assert (vec_out.evicted_cache == 0).all()
    else:
        np.testing.assert_array_equal(ref_out.hits, vec_out.hits)
        np.testing.assert_array_equal(ref_out.evicted_addr,
                                      vec_out.evicted_addr)
        np.testing.assert_array_equal(ref_out.evicted_dirty,
                                      vec_out.evicted_dirty)
        if vec_out.sector_miss is not None:
            np.testing.assert_array_equal(ref_out.sector_miss,
                                          vec_out.sector_miss)
    assert final_state(ref_cache) == final_state(vec_cache)


@pytest.mark.parametrize("num_sets,assoc", GEOMETRIES)
@pytest.mark.parametrize("write_frac", WRITE_FRACS)
def test_vector_matches_reference(num_sets, assoc, write_frac):
    rng = np.random.default_rng(num_sets * 1000 + assoc * 10
                                + int(write_frac * 10))
    config = make_config(num_sets, assoc)
    ref = SetAssociativeCache(config, "ref")
    bank, vec = one_cache_bank(config)
    # Several batches so later ones start from warm pre-batch state.
    for n in (257, 64, 1, 503, 1024):
        addrs, writes = random_stream(rng, num_sets, assoc, n, write_frac)
        ref_out = reference_outcomes(ref, addrs, writes)
        vec_out = bank_batch(bank, addrs, writes)
        assert_identical(ref_out, vec_out, ref, vec)


def test_one_set_stream_matches_reference():
    """One set puts every access of a long stream into one row."""
    rng = np.random.default_rng(11)
    config = make_config(1, 8)
    ref = SetAssociativeCache(config, "ref")
    bank, vec = one_cache_bank(config)
    addrs, writes = random_stream(rng, 1, 8, 700, 0.4)
    assert_identical(reference_outcomes(ref, addrs, writes),
                     bank_batch(bank, addrs, writes), ref, vec)


def test_huge_tags_match_reference():
    """Tags above 2**44 resolve identically."""
    rng = np.random.default_rng(13)
    config = make_config(64, 4)
    ref = SetAssociativeCache(config, "ref")
    bank, vec = one_cache_bank(config)
    addrs, writes = random_stream(rng, 64, 4, 400, 0.3, base=1 << 58)
    assert_identical(reference_outcomes(ref, addrs, writes),
                     bank_batch(bank, addrs, writes), ref, vec)


def test_scalar_interludes_stay_bit_identical():
    """Interleaved scalar accesses and batches share the same SoA state."""
    rng = np.random.default_rng(17)
    config = make_config(16, 4)
    ref = SetAssociativeCache(config, "ref")
    bank, vec = one_cache_bank(config)
    for round_ in range(4):
        addrs, writes = random_stream(rng, 16, 4, 200, 0.3)
        assert_identical(reference_outcomes(ref, addrs, writes),
                         bank_batch(bank, addrs, writes), ref, vec)
        # Scalar interlude mid-stream.
        addrs, writes = random_stream(rng, 16, 4, 50, 0.3)
        for i in range(len(addrs)):
            ref_r = ref.access(int(addrs[i]), bool(writes[i]))
            vec_r = vec.access(int(addrs[i]), bool(writes[i]))
            assert ref_r.hit == vec_r.hit
            assert ref_r.evicted_addr == vec_r.evicted_addr
            assert ref_r.evicted_dirty == vec_r.evicted_dirty
    assert final_state(ref) == final_state(vec)


def test_partitioned_batches_match_reference():
    """Way-partitioned epochs resolve natively, including repartitions
    mid-stream in both directions and a final ``set_partition(None)``
    round.  After ``{0: 2, 1: 2} -> {0: 1, 1: 3}`` LOCAL is over-full
    and remote growth fills drain it; after ``-> {0: 3, 1: 1}`` the
    remote partition is over-full and local growth fills drain it.
    Both stay on the kernel."""
    rng = np.random.default_rng(19)
    config = make_config(16, 4)
    bank, refs = staged_pair(config, 3, {0: 2, 1: 2})
    on_kernel = 0
    for ways in ({0: 2, 1: 2}, {0: 1, 1: 3}, {0: 3, 1: 1}):
        for cache in (*bank.caches, *refs):
            cache.set_partition(ways)
        assert bank.caches[0].partition_ways == refs[0].partition_ways \
            == ways
        for _ in range(3):
            stream = l15_stream(rng, 16, 4, 300, 0.4)
            on_kernel += not assert_staged_identical(bank, refs, stream)
    assert on_kernel == 9
    # Unpartitioning: resident lines keep their partition ids.  The
    # bank declines batches over those foreign-partition residents, so
    # the serial engine's scalar loop must honour them until they drain.
    for cache in (*bank.caches, *refs):
        cache.set_partition(None)
    declined = 0
    for _ in range(3):
        addrs, writes, _, _, _, home, _ = l15_stream(rng, 16, 4, 300, 0.4)
        out = bank.access_many_grouped(home, addrs, writes)
        declined += out is None
        for i, (ref, cache) in enumerate(zip(refs, bank.caches)):
            sel = home == i
            ref_out = reference_outcomes(ref, addrs[sel], writes[sel])
            if out is None:
                vec_out = reference_outcomes(cache, addrs[sel],
                                             writes[sel])
            else:
                vec_out = BatchResult(out.hits[sel], out.evicted_addr[sel],
                                      out.evicted_dirty[sel])
            assert_identical(ref_out, vec_out, ref, cache)
    assert declined >= 1


def test_partitioned_batch_scalar_interleaved():
    """Kernel epochs and scalar two-stage probe loops agree under
    partitioning, on one shared state."""
    rng = np.random.default_rng(37)
    config = make_config(12, 3)
    bank, refs = staged_pair(config, 3, {0: 2, 1: 1})
    probes = []
    for round_ in range(3):
        for _ in range(2):
            assert not assert_staged_identical(
                bank, refs, l15_stream(rng, 12, 3, 240, 0.4))
        probes += assert_scalar_interlude(bank, refs,
                                          l15_stream(rng, 12, 3, 80, 0.4))
    # The interludes evict clean and dirty lines, and two-stage
    # accesses reach their second probe.
    outcomes = [out for _, _, out in probes if out is not None]
    assert any(out[2] is not None and not out[3] for out in outcomes)
    assert any(out[2] is not None and out[3] for out in outcomes)
    assert any(stage == 1 for _, stage, _ in probes)


def test_partition_full_batches_match_reference():
    """A zero-way remote partition: every remote access's first probe
    is a PFE-miss in both models, and its second probe fills LOCAL."""
    rng = np.random.default_rng(41)
    config = make_config(16, 4)
    bank, refs = staged_pair(config, 3, {0: 3, 1: 1, 2: 0})
    zero_way = 0
    for _ in range(4):
        stream = l15_stream(rng, 16, 4, 200, 0.4, remote=2)
        zero_way += int(stream[4].sum())
        assert not assert_staged_identical(bank, refs, stream)
    assert zero_way > 0
    assert all(2 not in c.occupancy_by_partition() for c in bank.caches)
    # A partition id absent from the map also raises in both models.
    with pytest.raises(PartitionFullError):
        refs[0].access(9_999 * LINE, False, partition=5)
    with pytest.raises(PartitionFullError):
        bank.caches[0].access(9_999 * LINE, False, partition=5)
    assert final_state(refs[0]) == final_state(bank.caches[0])


def test_zero_way_partition_records_miss_without_eviction():
    config = make_config(8, 2)
    bank, _ = staged_pair(config, 2, {0: 2, 7: 0})
    n = 4
    out = bank.access_many_staged(
        np.arange(n, dtype=np.int64) * LINE, np.zeros(n, dtype=bool),
        np.zeros(n, dtype=np.int64), np.full(n, 7, dtype=np.int64),
        np.ones(n, dtype=bool), np.ones(n, dtype=np.int64),
        np.zeros(n, dtype=np.int64))
    assert out is not None
    assert (out.hit_stage == -1).all()
    assert out.evicted_addr.size == 0
    # The zero-way probes neither fill nor evict; the LOCAL ones fill.
    requester, home = bank.caches
    assert requester.occupancy() == 0
    assert home.occupancy() == n


@pytest.mark.parametrize("sectored", [False, True])
def test_bank_grouped_matches_per_cache_reference(sectored):
    """One grouped kernel call over many slices == per-slice serial runs."""
    rng = np.random.default_rng(23)
    num_caches = 6
    config = make_config(48, 8, sectored=sectored)
    bank = VectorBank(config, [f"slice{i}" for i in range(num_caches)])
    refs = [SetAssociativeCache(config, f"ref{i}")
            for i in range(num_caches)]
    for _ in range(3):
        n = 1500
        addrs, writes = random_stream(rng, 48, 8, n, 0.3)
        cache_idx = rng.integers(0, num_caches, size=n).astype(np.int64)
        out = bank.access_many_grouped(cache_idx, addrs, writes)
        assert out is not None
        for i in range(num_caches):
            sel = cache_idx == i
            ref_out = reference_outcomes(refs[i], addrs[sel], writes[sel])
            np.testing.assert_array_equal(ref_out.hits, out.hits[sel])
            np.testing.assert_array_equal(ref_out.evicted_addr,
                                          out.evicted_addr[sel])
            np.testing.assert_array_equal(ref_out.evicted_dirty,
                                          out.evicted_dirty[sel])
            assert final_state(refs[i]) == final_state(bank.caches[i])


def test_bank_grouped_declines_when_partitioned():
    config = make_config(16, 4)
    bank = VectorBank(config, ["a", "b"])
    bank.caches[1].set_partition({0: 2, 1: 2})
    cache_idx = np.zeros(4, dtype=np.int64)
    addrs = np.arange(4, dtype=np.int64) * LINE
    assert bank.access_many_grouped(cache_idx, addrs,
                                    np.zeros(4, dtype=bool)) is None


def test_bank_grouped_lane_gate_covers_only_its_lanes():
    """A lane's grouped call on a stacked bank gates and touches only
    its own lane: a partitioned lane elsewhere in the bank neither
    declines it nor changes."""
    rng = np.random.default_rng(53)
    spl = 2
    config = make_config(16, 4)
    bank = VectorBank(config, [f"l{i}.s{s}" for i in range(2)
                               for s in range(spl)])
    solo = VectorBank(config, [f"r.s{s}" for s in range(spl)])
    for cache in bank.caches[:spl]:
        cache.set_partition({0: 2, 1: 2})
    addrs, writes = random_stream(rng, 16, 4, 300, 0.4)
    idx = rng.integers(0, spl, size=300).astype(np.int64)
    assert bank.access_many_grouped(idx + spl, addrs, writes) is None
    [out] = bank.access_many_grouped_shared(
        [GroupedLaneCall((spl, 2 * spl), idx, addrs, writes)])
    ref_out = solo.access_many_grouped(idx, addrs, writes)
    assert out is not None and ref_out is not None
    np.testing.assert_array_equal(ref_out.hits, out.hits)
    np.testing.assert_array_equal(ref_out.evicted_addr, out.evicted_addr)
    for s in range(spl):
        assert bank.caches[s].occupancy() == 0
        assert final_state(solo.caches[s]) == \
            final_state(bank.caches[spl + s])


def test_drain_and_residency_native_paths():
    rng = np.random.default_rng(29)
    config = make_config(12, 3)
    ref = SetAssociativeCache(config, "ref")
    bank, vec = one_cache_bank(config)
    addrs, writes = random_stream(rng, 12, 3, 200, 0.5)
    reference_outcomes(ref, addrs, writes)
    bank_batch(bank, addrs, writes)
    assert ref.occupancy() == vec.occupancy()
    assert final_state(ref) == final_state(vec)
    ref_addrs = sorted(entry[0] for entry in final_state(ref))
    cache_idx, resident = bank.resident_addrs(0, 1)
    assert (cache_idx == 0).all()
    assert sorted(resident.tolist()) == ref_addrs
    ref_dirty = sorted(addr for addr, line in ref.resident_lines()
                       if line.dirty)
    dirty_addrs, lines, dirty = vec.drain()
    assert sorted(dirty_addrs.tolist()) == ref_dirty
    assert ref.flush() == (lines, dirty)
    assert ref.occupancy() == vec.occupancy() == 0


@pytest.mark.parametrize("sectored", [False, True])
@pytest.mark.parametrize("partition", [None, 0, 1])
@pytest.mark.parametrize("dirty_only", [False, True])
def test_bank_drain_matches_per_cache_drains(sectored, partition,
                                             dirty_only):
    """``VectorBank.drain`` over a cache range == ``VectorCache.drain``
    on each cache of it: same dirty lines and counts, same state left."""
    config = make_config(16, 4, sectored=sectored)
    banks = [VectorBank(config, [f"s{i}" for i in range(5)])
             for _ in range(2)]
    rng = np.random.default_rng(31)
    for bank in banks:
        for cache in bank.caches:
            cache.set_partition({0: 2, 1: 2})
    for _ in range(3):
        stream = l15_stream(rng, 16, 4, 600, 0.5, num_caches=5)
        for bank in banks:
            assert bank.access_many_staged(*stream) is not None
    bulk, ref = banks
    dirty_addrs, lines, dirty = bulk.drain(1, 4, partition=partition,
                                           dirty_only=dirty_only)
    per_cache = [ref.caches[i].drain(partition=partition,
                                     dirty_only=dirty_only)
                 for i in range(1, 4)]
    assert sorted(dirty_addrs.tolist()) == sorted(
        a for addrs_i, _, _ in per_cache for a in addrs_i.tolist())
    assert lines == sum(n for _, n, _ in per_cache) > 0
    assert dirty == sum(d for _, _, d in per_cache) == dirty_addrs.size > 0
    for a, b in zip(bulk.caches, ref.caches):
        assert final_state(a) == final_state(b)


@pytest.mark.parametrize("num_sets,assoc", [(64, 4), (48, 8), (12, 3)])
@pytest.mark.parametrize("write_frac", [0.0, 0.4])
def test_sectored_batches_match_reference(num_sets, assoc, write_frac):
    """Sector caches: tag-hit/sector-miss verdicts must be bit-identical,
    and so must the final sector bitmasks."""
    rng = np.random.default_rng(num_sets * 100 + assoc + int(write_frac * 10))
    config = make_config(num_sets, assoc, sectored=True, sectors_per_line=4)
    ref = SetAssociativeCache(config, "ref")
    bank, vec = one_cache_bank(config)
    sector_misses = 0
    for n in (257, 64, 503):
        addrs, writes = random_stream(rng, num_sets, assoc, n, write_frac)
        ref_out = reference_outcomes(ref, addrs, writes)
        vec_out = bank_batch(bank, addrs, writes)
        assert vec_out.sector_miss is not None
        assert_identical(ref_out, vec_out, ref, vec)
        sector_misses += int(ref_out.sector_miss.sum())
    assert sector_misses > 0  # the stream must exercise them


def test_sector_miss_on_tag_hit():
    """Touching a new sector of a resident line: tag hit, sector miss."""
    config = make_config(4, 2, sectored=True, sectors_per_line=4)
    sector = config.sector_size
    for cache in (SetAssociativeCache(config, "ref"),
                  VectorCache(config, "vec")):
        first = cache.access(0, False)
        assert not first.hit and not first.sector_miss
        again = cache.access(0, True)
        assert again.hit and not again.sector_miss
        other = cache.access(2 * sector, False)
        assert not other.hit and other.sector_miss
        # A sector miss does not refill: nothing evicted, one line.
        assert other.evicted_addr is None
        assert cache.occupancy() == 1
    # And the same sequence through the batch path.
    bank, vec = one_cache_bank(config)
    out = bank_batch(bank, np.array([0, 0, 2 * sector], dtype=np.int64),
                     np.array([False, True, False]))
    assert out is not None and out.sector_miss is not None
    np.testing.assert_array_equal(out.hits, [False, True, False])
    np.testing.assert_array_equal(out.sector_miss, [False, False, True])
    assert (out.evicted_addr == -1).all() and vec.occupancy() == 1


def test_sectored_partitioned_with_scalar_interludes():
    """The full matrix point: sectored + partitioned + interleaving."""
    rng = np.random.default_rng(43)
    config = make_config(16, 4, sectored=True, sectors_per_line=2)
    bank, refs = staged_pair(config, 3, {0: 3, 1: 1})
    probes = []
    for round_ in range(3):
        for _ in range(2):
            assert not assert_staged_identical(
                bank, refs, l15_stream(rng, 16, 4, 300, 0.3))
        probes += assert_scalar_interlude(bank, refs,
                                          l15_stream(rng, 16, 4, 60, 0.3))
    # The interludes take sector misses and clean evictions.
    outcomes = [out for _, _, out in probes if out is not None]
    assert any(out[1] for out in outcomes)
    assert any(out[2] is not None and not out[3] for out in outcomes)


def test_scalar_fallback_counts_partition_full_misses():
    """Regression: the scalar loop the serial engine runs for a stream
    the bank declines must treat PartitionFullError accesses as misses
    without fills, exactly like the scalar model."""
    config = make_config(8, 2)
    ref = SetAssociativeCache(config, "ref")
    _bank, vec = one_cache_bank(config)
    ref.set_partition({0: 2, 1: 0})
    vec.set_partition({0: 2, 1: 0})
    addrs = np.arange(6, dtype=np.int64) * LINE
    writes = np.zeros(6, dtype=bool)
    # Reads to the zero-way partition raise PartitionFullError inside
    # the scalar loop.
    ref_out = reference_outcomes(ref, addrs, writes, partition=1)
    vec_out = reference_outcomes(vec, addrs, writes, partition=1)
    np.testing.assert_array_equal(ref_out.hits, vec_out.hits)
    np.testing.assert_array_equal(ref_out.evicted_addr, vec_out.evicted_addr)
    assert not vec_out.hits.any()
    assert ref.occupancy() == vec.occupancy() == 0


@pytest.mark.parametrize("sectored", [False, True])
def test_bank_staged_matches_probe_loop(sectored):
    """The two-phase staged solver == the scalar two-stage probe loop,
    across repartitions in both directions and a zero-way epoch.

    Growing the stage-1 (local) partition shrinks the stage-0 (remote)
    one: full rows then carry a remote surplus ``e`` (2 after the
    ``{0: 1, 1: 3} -> {0: 3, 1: 1}`` step, 1 after the one-way step)
    that local growth fills drain.  Both shrink directions must stay on
    the kernel; only the zero-way over slot of ``{0: 4, 1: 0}`` is
    beyond the drain model, so a call probing it is declined and
    resolved by the caches' scalar ``access``, as the engine does.
    """
    rng = np.random.default_rng(47)
    num_sets = 16
    config = make_config(num_sets, 4, sectored=sectored)
    steps = ({0: 3, 1: 1}, {0: 1, 1: 3}, {0: 3, 1: 1}, {0: 2, 1: 2},
             {0: 3, 1: 1}, {0: 4, 1: 0})
    bank, refs = staged_pair(config, 4, steps[0])
    prev_remote = 0
    declined_steps = []
    for ways in steps:
        for cache in (*bank.caches, *refs):
            cache.set_partition(dict(ways))
        remote_before = sum(c.occupancy_by_partition().get(1, 0)
                            for c in bank.caches)
        for _ in range(2):
            # The home comes from the tag bits, so every set holds both
            # local and remote lines and a shrunk remote partition
            # really drains.
            stream = l15_stream(rng, num_sets, 4, 600, 0.4, num_caches=4)
            if assert_staged_identical(bank, refs, stream):
                declined_steps.append(ways)
        remote_after = sum(c.occupancy_by_partition().get(1, 0)
                           for c in bank.caches)
        if ways[1] and ways[1] < prev_remote:
            # A shrink: the remote surplus drained (remote lines only
            # ever leave through a drain), all on the kernel.
            assert remote_after < remote_before
        prev_remote = ways[1]
    # Calls decline only where a partition has zero ways, and the
    # zero-way over slot does decline.
    assert declined_steps
    assert all(0 in ways.values() for ways in declined_steps)


# -- Shared bank calls (stacked lanes over one stream) ------------------------


def _stacked_bank(config, num_lanes, slices_per_lane):
    names = [f"l{i}.s{s}" for i in range(num_lanes)
             for s in range(slices_per_lane)]
    return VectorBank(config, names)


@pytest.mark.parametrize("sectored", [False, True])
def test_grouped_shared_lanes_match_their_own_calls(sectored):
    """Lanes carrying one stream in a shared call each get the verdicts
    and state of their own per-lane grouped call."""
    rng = np.random.default_rng(61)
    num_lanes, spl = 3, 4
    config = make_config(48, 8, sectored=sectored)
    bank = _stacked_bank(config, num_lanes, spl)
    solo = [VectorBank(config, [f"r{i}.s{s}" for s in range(spl)])
            for i in range(num_lanes)]
    for _ in range(3):
        n = 1200
        addrs, writes = random_stream(rng, 48, 8, n, 0.3)
        cache_idx = rng.integers(0, spl, size=n).astype(np.int64)
        calls = [GroupedLaneCall((i * spl, (i + 1) * spl), cache_idx,
                                 addrs, writes)
                 for i in range(num_lanes)]
        outs = bank.access_many_grouped_shared(calls)
        for i, out in enumerate(outs):
            assert out is not None
            ref_out = solo[i].access_many_grouped(cache_idx, addrs, writes)
            np.testing.assert_array_equal(ref_out.hits, out.hits)
            np.testing.assert_array_equal(ref_out.evicted_addr,
                                          out.evicted_addr)
            np.testing.assert_array_equal(ref_out.evicted_dirty,
                                          out.evicted_dirty)
    for i in range(num_lanes):
        for s in range(spl):
            assert final_state(solo[i].caches[s]) == \
                final_state(bank.caches[i * spl + s])


def test_grouped_shared_distinct_streams_stay_isolated():
    """A lane fed a different trace must not inherit another lane's
    verdicts."""
    rng = np.random.default_rng(67)
    spl = 2
    config = make_config(16, 4)
    bank = _stacked_bank(config, 2, spl)
    solo = [VectorBank(config, [f"r{i}.s{s}" for s in range(spl)])
            for i in range(2)]
    a0, w0 = random_stream(rng, 16, 4, 400, 0.4)
    a1, w1 = random_stream(rng, 16, 4, 400, 0.4, base=1 << 20)
    ci = rng.integers(0, spl, size=400).astype(np.int64)
    calls = [GroupedLaneCall((0, spl), ci, a0, w0),
             GroupedLaneCall((spl, 2 * spl), ci, a1, w1)]
    outs = bank.access_many_grouped_shared(calls)
    for i, (addrs, writes) in enumerate(((a0, w0), (a1, w1))):
        ref_out = solo[i].access_many_grouped(ci, addrs, writes)
        out = outs[i]
        assert out is not None
        np.testing.assert_array_equal(ref_out.hits, out.hits)
        for s in range(spl):
            assert final_state(solo[i].caches[s]) == \
                final_state(bank.caches[i * spl + s])


def test_staged_shared_mixed_partition_caps_over_one_stream():
    """One stream, per-lane way splits: each lane resolves against its
    own capacity vector and stays bit-identical to the per-lane staged
    path (which is itself pinned to the probe loop)."""
    rng = np.random.default_rng(71)
    num_lanes, spl, num_sets = 3, 4, 16
    config = make_config(num_sets, 4)
    bank = _stacked_bank(config, num_lanes, spl)
    solo = [VectorBank(config, [f"r{i}.s{s}" for s in range(spl)])
            for i in range(num_lanes)]
    splits = ({0: 3, 1: 1}, {0: 1, 1: 3}, {0: 2, 1: 2})
    for i, ways in enumerate(splits):
        for s in range(spl):
            bank.caches[i * spl + s].set_partition(dict(ways))
            solo[i].caches[s].set_partition(dict(ways))
    for _ in range(3):
        n = 600
        addrs, writes = random_stream(rng, num_sets, 4, n, 0.4)
        home = ((addrs // LINE) % spl).astype(np.int64)
        req = rng.integers(0, spl, size=n).astype(np.int64)
        two_stage = req != home
        idx0 = np.where(two_stage, req, home)
        part0 = np.where(two_stage, 1, 0).astype(np.int64)
        idx1 = home
        part1 = np.zeros(n, dtype=np.int64)
        calls = [StagedLaneCall((i * spl, (i + 1) * spl), addrs, writes,
                                idx0, part0, two_stage, idx1, part1)
                 for i in range(num_lanes)]
        outs = bank.access_many_staged_shared(calls)
        for i, out in enumerate(outs):
            assert out is not None
            ref = solo[i].access_many_staged(addrs, writes, idx0, part0,
                                             two_stage, idx1, part1)
            assert ref is not None
            np.testing.assert_array_equal(ref.hit_stage, out.hit_stage)
            # Shared staged results carry bank-absolute cache indices.
            np.testing.assert_array_equal(ref.evicted_cache,
                                          out.evicted_cache - i * spl)
            np.testing.assert_array_equal(ref.evicted_addr, out.evicted_addr)
    for i in range(num_lanes):
        for s in range(spl):
            assert final_state(solo[i].caches[s]) == \
                final_state(bank.caches[i * spl + s])


def test_staged_shared_unpartitioned_lane_falls_back_alone():
    """A lane failing the all-partitioned gate comes back None while the
    remaining lanes still resolve."""
    rng = np.random.default_rng(73)
    spl, num_sets = 2, 16
    config = make_config(num_sets, 4)
    bank = _stacked_bank(config, 3, spl)
    for i in (0, 1):
        for s in range(spl):
            bank.caches[i * spl + s].set_partition({0: 2, 1: 2})
    # Lane 2 left unpartitioned: its staged call cannot be hosted.
    n = 300
    addrs, writes = random_stream(rng, num_sets, 4, n, 0.4)
    home = ((addrs // LINE) % spl).astype(np.int64)
    req = rng.integers(0, spl, size=n).astype(np.int64)
    two_stage = req != home
    idx0 = np.where(two_stage, req, home)
    part0 = np.where(two_stage, 1, 0).astype(np.int64)
    part1 = np.zeros(n, dtype=np.int64)
    calls = [StagedLaneCall((i * spl, (i + 1) * spl), addrs, writes,
                            idx0, part0, two_stage, home, part1)
             for i in range(3)]
    outs = bank.access_many_staged_shared(calls)
    assert outs[0] is not None and outs[1] is not None
    assert outs[2] is None
