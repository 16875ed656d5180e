"""Chaos smoke: a supervised matrix survives a worker crash and a torn
cache payload with zero lost results.

This is the CI resilience gate — one small sweep with both fault
families armed at once, asserting the recovery telemetry is visible and
that every recovered result is bit-identical to a clean serial run.
"""

import json

import pytest

from repro.analysis import clear_cache, reset_telemetry, run_matrix, telemetry
from repro.resilience import faults
from repro.workloads import BenchmarkSpec, KernelSpec, PhaseSpec

ORGS = ["memory-side", "sm-side"]


def tiny_spec(name):
    phase = PhaseSpec(weight_true=0.4, weight_false=0.3, weight_private=0.3)
    return BenchmarkSpec(
        name=name, suite="chaos", num_ctas=8, footprint_mb=4,
        true_shared_mb=1, false_shared_mb=1, preference="sm-side",
        kernels=(KernelSpec(name="k", phase=phase, epochs=1),), seed=13)


@pytest.fixture(autouse=True)
def clean_slate(monkeypatch):
    monkeypatch.delenv("REPRO_FAULTS", raising=False)
    monkeypatch.delenv("REPRO_FAULT_STATE", raising=False)
    faults.reset()
    clear_cache()
    reset_telemetry()
    yield
    faults.reset()
    clear_cache()


def test_matrix_survives_crash_and_torn_payload(tmp_path, monkeypatch):
    specs = [tiny_spec("chaos-a"), tiny_spec("chaos-b")]
    # Two fault families at once:
    #  * the chaos-a task's first worker dies before any work,
    #  * the first payload written to the disk cache is torn mid-write.
    monkeypatch.setenv(
        "REPRO_FAULTS",
        "worker.crash:chaos-a:memory-side+sm-side,"
        "cache.torn_payload@1")
    monkeypatch.setenv("REPRO_FAULT_STATE", str(tmp_path / "state"))
    faults.reset()

    chaos = run_matrix(specs, ORGS, accesses_per_epoch=256,
                       cache_dir=tmp_path / "cache", n_jobs=2)
    chaos_telemetry = telemetry()

    # Zero lost results despite the crash.
    assert set(chaos) == {(s.name, o) for s in specs for o in ORGS}
    # The dead worker cost one pool respawn; no task failed an attempt
    # of its own, so no retry budget was spent.
    assert chaos_telemetry.respawns == 1
    assert chaos_telemetry.retries == 0
    assert chaos_telemetry.simulated == 4
    # The re-dispatched task ran both of chaos-a's organizations, and
    # every pair was journaled exactly once.
    (journal,) = (tmp_path / "cache" / "manifests").glob("*.jsonl")
    labels = [json.loads(line)["label"]
              for line in journal.read_text().splitlines()]
    assert sorted(labels) == sorted(f"{s.name}:{o}"
                                    for s in specs for o in ORGS)

    # Reload pass: the torn payload is quarantined on read, only that
    # pair re-simulates, the other three resume from the journal.
    monkeypatch.delenv("REPRO_FAULTS")
    faults.reset()
    clear_cache()
    reset_telemetry()
    reloaded = run_matrix(specs, ORGS, accesses_per_epoch=256,
                          cache_dir=tmp_path / "cache", n_jobs=1)
    reload_telemetry = telemetry()
    assert reload_telemetry.cache_quarantined == 1
    assert reload_telemetry.disk_hits == 3
    assert reload_telemetry.resumed_pairs == 3
    assert reload_telemetry.simulated == 1

    # Bit-identity: both recovered matrices match a clean serial run.
    clear_cache()
    reference = run_matrix(specs, ORGS, accesses_per_epoch=256, n_jobs=1)
    for pair, stats in reference.items():
        assert chaos[pair].comparable_dict() == stats.comparable_dict(), pair
        assert reloaded[pair].comparable_dict() == \
            stats.comparable_dict(), pair
