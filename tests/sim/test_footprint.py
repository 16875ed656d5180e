"""What a run keeps in memory: trace and memo widths, and freeing.

A cached trace keeps its per-access arrays, and the memos the engine
derives from them, at the width their values need.  A finished run's
engine is freed as soon as its last reference drops, without waiting for
the cyclic collector, so a sweep never holds more than the runs it is
still using.
"""

import dataclasses
import gc
import weakref

import numpy as np
import pytest

from repro.arch import baseline
from repro.sim import EngineParams
from repro.sim.engine import SimulationEngine, takes_vector_path
from repro.sim.run import (
    EXTRA_ORGANIZATIONS,
    ORGANIZATIONS,
    make_organization,
    scaled_config,
)
from repro.workloads.generator import TraceGenerator
from repro.workloads.suite import get

SCALE = 1.0 / 64
DENSITY = 512
CONFIG = scaled_config(baseline(), SCALE)


def generate(spec):
    return list(TraceGenerator(
        spec, num_chips=CONFIG.num_chips,
        clusters_per_chip=CONFIG.chip.num_clusters,
        line_size=CONFIG.line_size, page_size=CONFIG.page_size,
        accesses_per_epoch_per_chip=DENSITY, scale=SCALE).kernels())


def memo_arrays(value):
    """Every array a ``derived`` entry holds."""
    if isinstance(value, np.ndarray):
        yield value
    elif isinstance(value, tuple):
        for item in value:
            yield from memo_arrays(item)


def test_epoch_arrays_and_memos_keep_narrow_widths():
    # A name no other test uses, so the trace and its memos are fresh.
    kernels = generate(dataclasses.replace(get("RN"), name="RN-footprint"))
    epochs = [epoch for kernel in kernels for epoch in kernel.epochs]
    accesses = sum(len(epoch) for epoch in epochs)
    arrays = sum(array_bytes(epoch) for epoch in epochs)
    # uint8 chips and clusters, uint32 addresses, bool writes.
    assert arrays <= 7 * accesses

    stats = SimulationEngine(
        CONFIG, make_organization("memory-side", CONFIG)).run(kernels)
    assert stats.vector_epochs == len(epochs)
    memos = sum(memo_bytes(epoch) for epoch in epochs)
    # Per access: the uint8 slice and channel hashes.  Per distinct page
    # of an epoch: its int64 page number and the uint8 chip that touched
    # it first.
    pages = sum(distinct_pages(epoch) for epoch in epochs)
    assert 0 < memos <= 2 * accesses + 9 * pages


def test_cached_epoch_holds_9_bytes_per_access_and_9_per_page():
    """What a cached epoch holds after a vector-path run, to the byte:
    7 bytes of arrays and 2 of memoized hashes per access, and 9 bytes
    per distinct page; no per-access page index."""
    kernels = generate(dataclasses.replace(get("SRAD"), name="SRAD-bytes"))
    epochs = [epoch for kernel in kernels for epoch in kernel.epochs]
    stats = SimulationEngine(
        CONFIG, make_organization("sac", CONFIG)).run(kernels)
    assert stats.vector_epochs == len(epochs)
    for epoch in epochs:
        assert array_bytes(epoch) + memo_bytes(epoch) == \
            9 * len(epoch) + 9 * distinct_pages(epoch)


def array_bytes(epoch):
    return (epoch.chips.nbytes + epoch.clusters.nbytes
            + epoch.addrs.nbytes + epoch.writes.nbytes)


def memo_bytes(epoch):
    return sum(array.nbytes for value in epoch.derived.values()
               for array in memo_arrays(value))


def distinct_pages(epoch):
    shift = CONFIG.page_size.bit_length() - 1
    return np.unique(epoch.addrs >> shift).size


#: Every organization on each path it can take: the vector path where
#: ``takes_vector_path`` allows it, and the serial engine.
PATHS = [(name, vectorized)
         for name in ORGANIZATIONS + EXTRA_ORGANIZATIONS
         for vectorized in (True, False)
         if not vectorized or takes_vector_path(
             CONFIG, EngineParams(), make_organization(name, CONFIG))]


@pytest.mark.parametrize("organization,vectorized", PATHS)
def test_finished_engine_is_freed_without_the_cyclic_collector(
        organization, vectorized):
    kernels = generate(get("RN"))

    def run():
        engine = SimulationEngine(
            CONFIG, make_organization(organization, CONFIG),
            params=EngineParams(vectorized=vectorized))
        stats = engine.run(kernels, benchmark="RN")
        assert (stats.vector_epochs > 0) == vectorized
        return weakref.ref(engine)

    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        engine = run()
        assert engine() is None
    finally:
        if enabled:
            gc.enable()
