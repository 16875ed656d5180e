"""Randomized differential for the staged two-stage solver (hypothesis).

Draws static-LLC-shaped streams (home cache from the address, requester
at random) over random allotment sequences — remote-partition growth,
one-way and multi-way shrinks, sectored caches on and off — and checks
``VectorBank.access_many_staged`` and a two-lane
``access_many_staged_shared`` (one stream, different allotments per
lane) against the ``SetAssociativeCache`` two-stage probe loop: every
hit stage, dirty eviction, ``CacheStats`` field and final LRU state.
A call the bank declines is resolved by the bank caches' scalar
``access`` loop, as the engine resolves a declined epoch; calls may
decline only at steps where a partition has zero ways.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.arch.config import CacheConfig
from repro.cache.cache import PartitionFullError, SetAssociativeCache
from repro.cache.vector import StagedLaneCall, VectorBank

LINE = 128
CACHES = 3

#: Remote-way allotments per step; the local partition gets the rest.
remote_steps = st.lists(st.integers(min_value=0, max_value=4),
                        min_size=1, max_size=4)


def _config(num_sets, assoc, sectored):
    return CacheConfig(size_bytes=num_sets * assoc * LINE,
                       associativity=assoc, line_size=LINE,
                       sectored=sectored)


def _stream(rng, num_sets, assoc, n):
    """Two-stage route plan over a crowded footprint."""
    lines = rng.integers(0, num_sets * assoc * CACHES, size=n)
    addrs = (lines * LINE + rng.integers(0, LINE, size=n)).astype(np.int64)
    writes = rng.random(n) < 0.4
    # Home from the tag bits: every set holds local and remote lines.
    home = ((lines // num_sets) % CACHES).astype(np.int64)
    req = rng.integers(0, CACHES, size=n).astype(np.int64)
    two_stage = req != home
    idx0 = np.where(two_stage, req, home)
    part0 = two_stage.astype(np.int64)
    return addrs, writes, idx0, part0, two_stage, home


def _probe_loop(refs, addrs, writes, idx0, part0, two_stage, idx1):
    """The engine's scalar two-stage probe loop; (hit stage, dirty
    eviction (cache, addr) pairs in stage order)."""
    hs = np.full(len(addrs), -1, dtype=np.int64)
    ev = ([], [])
    for i in range(len(addrs)):
        addr, write = int(addrs[i]), bool(writes[i])
        probes = [(0, int(idx0[i]), int(part0[i]))]
        if two_stage[i]:
            probes.append((1, int(idx1[i]), 0))
        for stage, cache, part in probes:
            try:
                r = refs[cache].access(addr, write, partition=part)
            except PartitionFullError:
                continue
            if r.evicted_addr is not None and r.evicted_dirty:
                ev[stage].append((cache, r.evicted_addr))
            if r.hit:
                hs[i] = stage
                break
    return hs, ev[0] + ev[1]


def _state(cache):
    return [(addr, line.tag, line.dirty, line.partition, line.sector_valid)
            for addr, line in cache.resident_lines()]


def _check(out, refs, caches, hs, ev, ways, probe, base=0):
    """Compare one call with the reference; a declined call (``None``)
    is first resolved by ``probe`` over the bank caches."""
    if out is None:
        assert 0 in ways.values(), f"declined at {ways}"
        got_hs, got = probe(caches)
    else:
        got_hs = out.hit_stage
        got = list(zip((out.evicted_cache - base).tolist(),
                       out.evicted_addr.tolist()))
    np.testing.assert_array_equal(got_hs, hs)
    assert got == ev
    for ref, cache in zip(refs, caches):
        assert ref.stats == cache.stats
        assert _state(ref) == _state(cache)


@given(seed=st.integers(0, 2**32 - 1), steps=remote_steps,
       sectored=st.booleans(), num_sets=st.sampled_from([2, 4, 8]),
       n=st.integers(min_value=1, max_value=240))
@settings(max_examples=60, deadline=None)
# Pinned calls that drain.  Growth only: remote 1 -> 3 leaves LOCAL
# over-full, and the last call's drain steps all run in phase 2.
# Mirrored only: remote 3 -> 1, every drain step in phase 1.  Mixed:
# remote 1 -> 3 -> 2 meets rows the second call left LOCAL-over with
# rows it filled REMOTE-over, so the last call drains both ways.
@example(seed=1, steps=[1, 3], sectored=False, num_sets=4, n=240)
@example(seed=1, steps=[1, 3], sectored=True, num_sets=4, n=240)
@example(seed=1, steps=[3, 1], sectored=False, num_sets=4, n=240)
@example(seed=1, steps=[3, 1], sectored=True, num_sets=4, n=240)
@example(seed=3, steps=[1, 3, 2], sectored=False, num_sets=8, n=240)
@example(seed=3, steps=[1, 3, 2], sectored=True, num_sets=8, n=240)
def test_staged_matches_probe_loop(seed, steps, sectored, num_sets, n):
    rng = np.random.default_rng(seed)
    assoc = 4
    config = _config(num_sets, assoc, sectored)
    bank = VectorBank(config, [f"s{i}" for i in range(CACHES)])
    refs = [SetAssociativeCache(config, f"r{i}") for i in range(CACHES)]
    for remote in steps:
        ways = {0: assoc - remote, 1: remote}
        for cache in bank.caches:
            cache.set_partition(dict(ways))
        for ref in refs:
            ref.set_partition(dict(ways))
        addrs, writes, idx0, part0, two_stage, home = _stream(
            rng, num_sets, assoc, n)
        out = bank.access_many_staged(addrs, writes, idx0, part0,
                                      two_stage, home,
                                      np.zeros(n, dtype=np.int64))
        def probe(caches):
            return _probe_loop(caches, addrs, writes, idx0, part0,
                               two_stage, home)
        hs, ev = probe(refs)
        _check(out, refs, bank.caches, hs, ev, ways, probe)


@given(seed=st.integers(0, 2**32 - 1), steps=remote_steps,
       other=remote_steps, sectored=st.booleans(),
       n=st.integers(min_value=1, max_value=240))
@settings(max_examples=30, deadline=None)
def test_two_lane_shared_matches_probe_loop(seed, steps, other, sectored,
                                            n):
    rng = np.random.default_rng(seed)
    num_sets, assoc = 4, 4
    config = _config(num_sets, assoc, sectored)
    bank = VectorBank(config, [f"l{k}.s{i}" for k in range(2)
                               for i in range(CACHES)])
    refs = [[SetAssociativeCache(config, f"r{k}.{i}")
             for i in range(CACHES)] for k in range(2)]
    # Lane 1 walks its own allotment sequence over the same stream.
    other = (other * len(steps))[:len(steps)]
    for remotes in zip(steps, other):
        lane_ways = [{0: assoc - remote, 1: remote} for remote in remotes]
        for k, ways in enumerate(lane_ways):
            for i in range(CACHES):
                bank.caches[k * CACHES + i].set_partition(dict(ways))
                refs[k][i].set_partition(dict(ways))
        addrs, writes, idx0, part0, two_stage, home = _stream(
            rng, num_sets, assoc, n)
        calls = [StagedLaneCall((k * CACHES, (k + 1) * CACHES), addrs,
                                writes, idx0, part0, two_stage, home,
                                np.zeros(n, dtype=np.int64))
                 for k in range(2)]
        outs = bank.access_many_staged_shared(calls)

        def probe(caches):
            return _probe_loop(caches, addrs, writes, idx0, part0,
                               two_stage, home)
        for k in range(2):
            hs, ev = probe(refs[k])
            _check(outs[k], refs[k],
                   bank.caches[k * CACHES:(k + 1) * CACHES], hs, ev,
                   lane_ways[k], probe, base=k * CACHES)
