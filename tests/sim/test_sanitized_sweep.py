"""Sanitized sweeps: clean, bit-identical, violation-free.

The sanitizer is always on and its contract is that it only *observes*:
the five-organization matrix must produce the exact bits of the
standalone runs, with zero violations in the process-wide report.  (The
detection half — that a seeded encoding write IS caught — lives in
``tests/core/test_sanitize.py``.)
"""

import pytest

from repro.analysis import clear_cache, run_matrix
from repro.core import sanitize
from repro.sim import ORGANIZATIONS, simulate
from repro.workloads import BenchmarkSpec, KernelSpec, PhaseSpec

SCALE = 1.0 / 64
DENSITY = 512


@pytest.fixture(autouse=True)
def clean_report():
    sanitize.report().clear()
    clear_cache()
    yield
    sanitize.report().clear()
    clear_cache()


def tiny_spec(name="sanitized-tiny", epochs=4):
    phase = PhaseSpec(weight_true=0.4, weight_false=0.3, weight_private=0.3,
                      write_fraction=0.25)
    return BenchmarkSpec(
        name=name, suite="test", num_ctas=16, footprint_mb=8,
        true_shared_mb=2, false_shared_mb=2, preference="sm-side",
        kernels=(KernelSpec(name="k", phase=phase, epochs=epochs),),
        iterations=1, seed=11)


def test_sanitized_five_org_sweep_is_bit_identical():
    spec = tiny_spec()
    solo = {org: simulate(spec, org, scale=SCALE,
                          accesses_per_epoch=DENSITY)
            for org in ORGANIZATIONS}
    results = run_matrix([spec], ORGANIZATIONS, scale=SCALE,
                         accesses_per_epoch=DENSITY, n_jobs=1)
    # The shared encodings were frozen and nothing wrote to them.
    assert sanitize.report().count == 0
    assert list(results) == [(spec.name, org) for org in ORGANIZATIONS]
    for org in ORGANIZATIONS:
        assert results[(spec.name, org)].comparable_dict() == \
            solo[org].comparable_dict(), org


def test_sanitized_standalone_runs_are_clean():
    spec = tiny_spec(name="sanitized-solo")
    simulate(spec, "sac", scale=SCALE, accesses_per_epoch=DENSITY)
    assert sanitize.report().count == 0
