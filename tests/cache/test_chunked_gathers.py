"""Chunked row gathers against the one-block expressions they replace.

``_stack_depths`` and ``_mirror_drains``' residency test look up tags
in a ``(probes, ways)`` gather of kernel rows.  They build that gather
``_GATHER_ROWS`` probes at a time (:func:`_resident_way`), and
``_stack_depths`` counts dominance ``_DOMINANCE_ELEMS`` elements at a
time.  Each is checked, at chunk sizes 1, 7 and the default, against
the one-block expression kept here as the reference, on random rows,
tags and bank states; the pinned examples cross the default chunks.
"""

import contextlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.cache import vector

#: (gather rows, dominance elements); None keeps the module default.
CHUNKS = [(1, 1), (7, 7), (None, None)]


def reference_stack_depths(rows, tg, tags, count):
    """``_stack_depths`` with one unchunked first-touch gather."""
    m = rows.size
    A = tags.shape[1]
    if not m:
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
    order = np.argsort(rows, kind="stable")
    ro = rows[order]
    new = np.r_[True, ro[1:] != ro[:-1]]
    pos = np.arange(m, dtype=np.int64)
    rank = np.empty(m, dtype=np.int64)
    rank[order] = pos - np.maximum.accumulate(np.where(new, pos, 0))
    gid = np.empty(m, dtype=np.int64)
    gid[order] = np.cumsum(new) - 1
    o2 = np.lexsort((tg, rows))
    same = (rows[o2][1:] == rows[o2][:-1]) & (tg[o2][1:] == tg[o2][:-1])
    pi = np.empty(m, dtype=np.int64)
    first = np.ones(m, dtype=bool)
    first[o2[1:][same]] = False
    pi[o2[1:][same]] = rank[o2[:-1][same]]
    fi = np.flatnonzero(first)
    fr = rows[fi]
    eq = (tags[fr] == tg[fi][:, None]) & \
        (np.arange(A, dtype=np.int64)[None, :] < count[fr][:, None])
    way = np.argmax(eq, axis=1)
    found = eq[np.arange(fi.size, dtype=np.int64), way]
    pi[fi] = np.where(found, way - count[fr], -(A + 1))
    fway = np.full(m, -1, dtype=np.int64)
    fway[fi[found]] = way[found]
    W = int(rank.max()) + 1
    tab = np.full((int(gid.max()) + 1, W), W, dtype=np.int64)
    tab[gid, rank] = pi
    cols = np.arange(W, dtype=np.int64)[None, :]
    dom = ((cols > pi[:, None]) & (cols < rank[:, None])
           & (tab[gid] <= pi[:, None])).sum(axis=1)
    return np.maximum(-pi - 1, 0) + dom, fway


def reference_resident(tags, count, krow, tag):
    """``_mirror_drains``' residency test as one gather."""
    A = tags.shape[1]
    return ((tags[krow] == tag[:, None])
            & (np.arange(A, dtype=np.int64)[None, :]
               < count[krow][:, None])).any(axis=1)


def bank_state(seed, num_rows, ways, probes, spread):
    """Rows of distinct resident tags, and a probe stream over them."""
    rng = np.random.default_rng(seed)
    tag_range = ways * spread
    tags = np.argsort(rng.random((num_rows, tag_range)), axis=1)[:, :ways]
    count = rng.integers(0, ways + 1, size=num_rows).astype(np.int64)
    rows = rng.integers(0, num_rows, size=probes).astype(np.int64)
    tg = rng.integers(0, tag_range, size=probes).astype(np.int64)
    return tags.astype(np.int64), count, rows, tg


@contextlib.contextmanager
def chunked(gather, dominance):
    with contextlib.ExitStack() as stack:
        if gather is not None:
            stack.enter_context(
                mock.patch.object(vector, "_GATHER_ROWS", gather))
        if dominance is not None:
            stack.enter_context(
                mock.patch.object(vector, "_DOMINANCE_ELEMS", dominance))
        yield


state = dict(seed=st.integers(0, 2**32 - 1),
             num_rows=st.integers(1, 64), ways=st.integers(1, 16),
             probes=st.integers(0, 3000), spread=st.integers(1, 4))


@pytest.mark.parametrize("gather,dominance", CHUNKS)
@settings(max_examples=60, deadline=None)
@given(**state)
# More first touches than one default gather chunk, and dominance rows
# past one default chunk.
@example(seed=0, num_rows=64, ways=16, probes=5000, spread=3)
@example(seed=1, num_rows=2, ways=4, probes=3000, spread=4)
def test_stack_depths_match_the_unchunked_reference(
        gather, dominance, seed, num_rows, ways, probes, spread):
    tags, count, rows, tg = bank_state(seed, num_rows, ways, probes,
                                       spread)
    want = reference_stack_depths(rows, tg, tags, count)
    with chunked(gather, dominance):
        got = vector._stack_depths(rows, tg, tags, count)
    assert np.array_equal(got[0], want[0])
    assert np.array_equal(got[1], want[1])


@pytest.mark.parametrize("gather", [1, 7, None])
@settings(max_examples=60, deadline=None)
@given(**state)
@example(seed=2, num_rows=16, ways=16, probes=4100, spread=1)
def test_residency_matches_the_unchunked_reference(
        gather, seed, num_rows, ways, probes, spread):
    tags, count, rows, tg = bank_state(seed, num_rows, ways, probes,
                                       spread)
    want = reference_resident(tags, count, rows, tg)
    with chunked(gather, None):
        way, found = vector._resident_way(tags, count, rows, tg)
    assert np.array_equal(found, want)
    # A resident tag's way holds it, under the row's count.
    hit = np.flatnonzero(found)
    assert np.array_equal(tags[rows[hit], way[hit]], tg[hit])
    assert (way[hit] < count[rows[hit]]).all()
