"""Bench: simulator throughput of the serial and vectorized engine paths.

Times the per-access (serial) engine and the batched path on the
vectorized tag-store kernel on the paper's first benchmark under all
five LLC organizations at the default experiment scale, then records
the accesses/sec figures and the probe-phase share of epoch wall time
into ``BENCH_throughput.json``.  Every organization must resolve every
batched epoch on the kernel (zero ``scalar_epochs``); the
way-partitioned ones (static, dynamic, SAC) do so through the staged
kernel.  A second test records the stacked five-organization
sweep (``stacked_sweep`` row): kernel-invocation counts, wall and
probe seconds vs the per-pair path, and the fallback count (zero means
every lane shared one tag store).  A third records the shared
reuse-encoding sweep (``stacked_shared`` row): sweep accesses/sec,
encoding-vs-replay telemetry, and the speedup over the recorded PR 5
stacked rate.  A fourth records the lane-batched replay kernel
(``stacked_lane_batched`` row): sweep accesses/sec with the fused
per-lane replay axis, the lane-batching telemetry (rounds, replay
seconds, residual ``_SetReplay`` batches), and the speedup over the
recorded PR 6 shared-encoding rate.

The rate floors — the >= 3x of the vectorized kernel over the
batched-path rates recorded before it landed (``PR1_BATCHED_RATES``),
and the >= 3x of the partitioned organizations' vectorized rate over
their per-access serial rate — are tied to the reference machine and
skipped when
``REPRO_BENCH_SMOKE=1`` (the CI smoke job sets it); the bit-identity
and zero-``scalar_epochs`` checks always run.
"""

import json
import os
from pathlib import Path

from repro.sim import ORGANIZATIONS, EngineParams
from repro.sim.run import simulate, simulate_stacked
from repro.workloads.suite import SUITE

REPORT_PATH = Path(__file__).resolve().parent.parent / \
    "BENCH_throughput.json"

#: Best-of-N repetitions; simulation is single-threaded and allocation-
#: bound, so max accesses/sec is the noise-robust statistic.  The slow
#: serial baseline gets fewer reps: at ~3 s per run its relative noise
#: is tiny, and the extra wall time only heats the machine under the
#: fast paths' measurements.
REPS = 5
SERIAL_REPS = 2

#: Vectorized kernel vs the recorded PR 1 batched-path rates below.
VECTOR_OVER_PR1_FLOOR = 3.0

#: Staged vectorized kernel vs the per-access scalar engine on the
#: way-partitioned organizations (static/dynamic/sac).
VECTOR_OVER_SCALAR_FLOOR = 3.0

#: Batched-path accesses/sec recorded by PR 1's run of this bench on the
#: reference machine (BENCH_throughput.json before the vectorized
#: kernel landed).  The vectorized kernel is measured against these.
PR1_BATCHED_RATES = {"memory-side": 524459, "sm-side": 463770}

#: Stacked five-organization sweep vs per-pair: minimum ratio of bank
#: (kernel) invocations.  This is deterministic — the stacked driver
#: issues at most one grouped and one staged call per round regardless
#: of lane count — so it is asserted even under REPRO_BENCH_SMOKE.
STACKED_INVOCATION_FLOOR = 2.0

#: Stacked-sweep accesses/sec recorded by PR 5's run of this bench on
#: the reference machine (BENCH_throughput.json before the shared
#: reuse encodings landed).  The shared-encoding sweep is measured
#: against this.
PR5_STACKED_RATE = 869163

#: Shared-encoding stacked sweep vs the recorded PR 5 rate above.
#: Reference-machine floor: skipped under REPRO_BENCH_SMOKE.
SHARED_OVER_PR5_FLOOR = 1.5

#: Stacked-sweep accesses/sec recorded by PR 6's run of this bench on
#: the reference machine (BENCH_throughput.json before the lane-batched
#: replay kernel landed).  The lane-batched sweep is measured against
#: this.
PR6_SHARED_RATE = 918895

#: Lane-batched stacked sweep vs the recorded PR 6 rate above.  The
#: recorded full-bench run measured 1.49x (fused replay axis, the
#: vectorized repartition drain, shared per-epoch derivations and the
#: shaved non-probe accounting, measured warm like the PR 6 recording
#: was); the floor sits at the 1.3x design target to leave headroom
#: for the reference machine's run-to-run wall noise.
#: Reference-machine floor: skipped under REPRO_BENCH_SMOKE.
LANE_BATCHED_OVER_PR6_FLOOR = 1.3

SMOKE = os.environ.get("REPRO_BENCH_SMOKE") == "1"


def best_run(organization, reps=REPS, **params_kwargs):
    """Best accesses/sec (and its stats) over ``reps`` runs."""
    rate = 0.0
    best_stats = None
    for _ in range(reps):
        stats = simulate(SUITE[0], organization,
                         params=EngineParams(**params_kwargs))
        if stats.accesses_per_second >= rate:
            rate = stats.accesses_per_second
            best_stats = stats
    return rate, best_stats


def probe_share(stats):
    """Fraction of the run's wall clock spent in the cache-probe phase."""
    if stats.wall_seconds <= 0.0:
        return 0.0
    return stats.probe_seconds / stats.wall_seconds


def test_batched_throughput(benchmark, capsys):
    def measure():
        orgs = ("memory-side", "sm-side")
        # Vectorized legs first (for every organization): they are the
        # most timing-sensitive and the baselines' long runs heat the
        # machine.
        vector = {org: best_run(org, batched=True, vectorized=True)
                  for org in orgs}
        # Serial legs run with vectorized=False: the per-access engine
        # over plain scalar caches is the oracle and the honest "scalar
        # path" baseline (it does not pay the array store's
        # scalar-access interpreter).
        serial = {org: best_run(org, reps=SERIAL_REPS, batched=False,
                                vectorized=False)
                  for org in orgs}
        report = {}
        for organization in orgs:
            vector_rate, vector_stats = vector[organization]
            serial_rate, serial_stats = serial[organization]
            assert vector_stats.comparable_dict() == \
                serial_stats.comparable_dict()
            assert vector_stats.vector_epochs > 0
            assert vector_stats.scalar_epochs == 0
            report[organization] = {
                "serial_accesses_per_second": round(serial_rate),
                "vectorized_accesses_per_second": round(vector_rate),
                "pr1_batched_accesses_per_second":
                    PR1_BATCHED_RATES[organization],
                "vectorized_speedup_over_pr1_batched":
                    round(vector_rate / PR1_BATCHED_RATES[organization],
                          2),
                "vectorized_probe_share":
                    round(probe_share(vector_stats), 3),
                "accesses": serial_stats.accesses,
                "vector_epochs": vector_stats.vector_epochs,
                "bottleneck": vector_stats.bottleneck_summary(),
            }
        # Way-partitioned organizations: the staged kernel vs the
        # per-access scalar engine.
        for organization in ("static", "dynamic", "sac"):
            vector_rate, vector_stats = best_run(
                organization, batched=True, vectorized=True)
            serial_rate, serial_stats = best_run(
                organization, reps=SERIAL_REPS, batched=False,
                vectorized=False)
            assert vector_stats.comparable_dict() == \
                serial_stats.comparable_dict()
            assert vector_stats.vector_epochs > 0
            assert vector_stats.scalar_epochs == 0
            report[organization] = {
                "serial_accesses_per_second": round(serial_rate),
                "vectorized_accesses_per_second": round(vector_rate),
                "vectorized_speedup_over_scalar":
                    round(vector_rate / serial_rate, 2),
                "vectorized_probe_share":
                    round(probe_share(vector_stats), 3),
                "accesses": serial_stats.accesses,
                "vector_epochs": vector_stats.vector_epochs,
                "demotions": vector_stats.demotions,
                "bottleneck": vector_stats.bottleneck_summary(),
            }
        return report

    report = benchmark.pedantic(measure, rounds=1, iterations=1,
                                warmup_rounds=0)
    REPORT_PATH.write_text(json.dumps(report, indent=2, sort_keys=True)
                           + "\n")
    with capsys.disabled():
        print()
        print(f"Engine throughput (accesses/sec, best of {REPS}):")
        for organization, row in report.items():
            if "pr1_batched_accesses_per_second" in row:
                print(f"  {organization:12} serial "
                      f"{row['serial_accesses_per_second']:>9,} -> "
                      f"vectorized "
                      f"{row['vectorized_accesses_per_second']:>9,} "
                      f"({row['vectorized_speedup_over_pr1_batched']:.2f}x "
                      f"vs PR1; probe share "
                      f"{row['vectorized_probe_share']:.0%})")
            else:
                print(f"  {organization:12} serial "
                      f"{row['serial_accesses_per_second']:>9,} -> "
                      f"vectorized "
                      f"{row['vectorized_accesses_per_second']:>9,} "
                      f"({row['vectorized_speedup_over_scalar']:.2f}x vs "
                      f"scalar; demotions {row['demotions']})")
    if SMOKE:
        return
    for organization, row in report.items():
        if "vectorized_speedup_over_scalar" in row:
            assert row["vectorized_speedup_over_scalar"] >= \
                VECTOR_OVER_SCALAR_FLOOR, (
                    f"staged kernel only "
                    f"{row['vectorized_speedup_over_scalar']}x over "
                    f"the scalar engine on {organization}; expected "
                    f">= {VECTOR_OVER_SCALAR_FLOOR}x (set "
                    f"REPRO_BENCH_SMOKE=1 off the reference machine)")
        else:
            assert row["vectorized_speedup_over_pr1_batched"] >= \
                VECTOR_OVER_PR1_FLOOR, (
                    f"vectorized kernel only "
                    f"{row['vectorized_speedup_over_pr1_batched']}x over "
                    f"the recorded PR 1 batched rate on {organization}; "
                    f"expected >= {VECTOR_OVER_PR1_FLOOR}x (set "
                    f"REPRO_BENCH_SMOKE=1 off the reference machine)")


def test_stacked_sweep_throughput(benchmark, capsys):
    """Stacked five-organization sweep vs per-pair simulation.

    The stacked path's win is kernel *invocations*: one grouped plus at
    most one staged bank call per round resolves every lane, so the
    five-organization sweep issues ~2.4x fewer calls than five per-pair
    runs (O(configs) -> ~O(1) per epoch).  Wall clock is recorded too
    (``stacked_speedup_over_matrix``) but is row-work bound at the
    default trace density, so only the deterministic invocation ratio
    carries an always-on floor.
    """
    spec = SUITE[0]
    orgs = list(ORGANIZATIONS)

    def measure():
        # Stacked legs first (same heat-ordering rationale as above).
        stacked = None
        for _ in range(REPS):
            result = simulate_stacked(spec, orgs)
            if stacked is None or result.telemetry.wall_seconds < \
                    stacked.telemetry.wall_seconds:
                stacked = result
        solo = {}
        for _ in range(SERIAL_REPS):
            for org in orgs:
                stats = simulate(spec, org)
                if org not in solo or \
                        stats.wall_seconds < solo[org].wall_seconds:
                    solo[org] = stats
        for org, lane in zip(orgs, stacked.stats):
            assert lane.comparable_dict() == solo[org].comparable_dict()
        tele = stacked.telemetry
        matrix_wall = sum(s.wall_seconds for s in solo.values())
        matrix_probe = sum(s.probe_seconds for s in solo.values())
        matrix_invocations = sum(s.vector_epochs for s in solo.values())
        return {
            "organizations": orgs,
            "kernel_invocations_matrix": matrix_invocations,
            "kernel_invocations_stacked": tele.bank_invocations,
            "kernel_invocation_ratio":
                round(matrix_invocations / tele.bank_invocations, 2),
            "matrix_wall_seconds": round(matrix_wall, 3),
            "stacked_wall_seconds": round(tele.wall_seconds, 3),
            "stacked_speedup_over_matrix":
                round(matrix_wall / tele.wall_seconds, 2),
            "matrix_probe_seconds": round(matrix_probe, 3),
            "stacked_probe_seconds": round(tele.probe_seconds, 3),
            "stacked_lanes": tele.stacked_lanes,
            "stacked_fallbacks": tele.solo_lanes,
            "shared_banks": tele.banks,
            "comment": (
                f"invocation ratio "
                f"{round(matrix_invocations / tele.bank_invocations, 2)}x "
                f"is the structural win; wall speedup "
                f"{round(matrix_wall / tele.wall_seconds, 2)}x is "
                f"row-work bound at the default trace density (the "
                f"stacked path saves dispatch, not tag-store row work)"),
        }

    row = benchmark.pedantic(measure, rounds=1, iterations=1,
                             warmup_rounds=0)
    report = {}
    if REPORT_PATH.exists():
        report = json.loads(REPORT_PATH.read_text())
    report["stacked_sweep"] = row
    REPORT_PATH.write_text(json.dumps(report, indent=2, sort_keys=True)
                           + "\n")
    with capsys.disabled():
        print()
        print(f"Stacked five-organization sweep (best of {REPS}):")
        print(f"  kernel invocations "
              f"{row['kernel_invocations_matrix']} -> "
              f"{row['kernel_invocations_stacked']} "
              f"({row['kernel_invocation_ratio']:.2f}x fewer); wall "
              f"{row['matrix_wall_seconds']}s -> "
              f"{row['stacked_wall_seconds']}s "
              f"({row['stacked_speedup_over_matrix']:.2f}x); "
              f"fallbacks {row['stacked_fallbacks']}")
    # The five-organization sweep must be fully hosted in one shared
    # bank: any fallback lane means the stacked path silently
    # disengaged (this is the CI smoke gate).
    assert row["stacked_fallbacks"] == 0
    assert row["stacked_lanes"] == len(orgs)
    assert row["shared_banks"] == 1
    assert row["kernel_invocation_ratio"] >= STACKED_INVOCATION_FLOOR, (
        f"stacked sweep only cut kernel invocations by "
        f"{row['kernel_invocation_ratio']}x; expected >= "
        f"{STACKED_INVOCATION_FLOOR}x")


def test_stacked_shared_throughput(benchmark, capsys):
    """Shared reuse encodings on the stacked five-organization sweep.

    Records the ``stacked_shared`` row: sweep accesses/sec with the
    encode-once/replay-per-lane kernel, the sharing telemetry
    (encodings vs replays), and the speedup over the PR 5 recorded
    stacked rate.  The always-on asserts are machine-independent facts
    about the sharing path itself: every lane rides the shared bank
    (zero fallbacks), at least one encoding is reused (strictly more
    replays than encodings — the round solved L lanes off fewer than L
    stream solves), and encodings never exceed replays (per round the
    encoding pass runs at most once per unique (set, tag) stream).
    The >= 1.5x floor over the recorded PR 5 rate is tied to the
    reference machine and skipped under ``REPRO_BENCH_SMOKE=1``.
    """
    spec = SUITE[0]
    orgs = list(ORGANIZATIONS)

    def measure():
        best = None
        for _ in range(REPS):
            result = simulate_stacked(spec, orgs)
            if best is None or result.telemetry.wall_seconds < \
                    best.telemetry.wall_seconds:
                best = result
        tele = best.telemetry
        accesses = sum(s.accesses for s in best.stats)
        rate = accesses / tele.wall_seconds
        shared_lanes = sum(1 for s in best.stats
                           if s.stacked_shared_streams > 0)
        return {
            "organizations": orgs,
            "accesses": accesses,
            "accesses_per_second": round(rate),
            "shared_encodings": tele.shared_encodings,
            "shared_replays": tele.shared_replays,
            "encoding_reuse_ratio":
                round(tele.shared_replays / tele.shared_encodings, 2),
            "lanes_with_shared_streams": shared_lanes,
            "stacked_fallbacks": tele.solo_lanes,
            "duplicate_lanes": tele.duplicate_lanes,
            "shared_speedup_over_pr5":
                round(rate / PR5_STACKED_RATE, 2),
        }

    row = benchmark.pedantic(measure, rounds=1, iterations=1,
                             warmup_rounds=0)
    report = {}
    if REPORT_PATH.exists():
        report = json.loads(REPORT_PATH.read_text())
    report["stacked_shared"] = row
    REPORT_PATH.write_text(json.dumps(report, indent=2, sort_keys=True)
                           + "\n")
    with capsys.disabled():
        print()
        print(f"Shared-encoding stacked sweep (best of {REPS}):")
        print(f"  {row['accesses_per_second']} accesses/sec over "
              f"{row['accesses']} accesses; "
              f"{row['shared_encodings']} encodings -> "
              f"{row['shared_replays']} replays "
              f"({row['encoding_reuse_ratio']:.2f}x reuse); "
              f"{row['shared_speedup_over_pr5']:.2f}x over PR 5 "
              f"recorded rate")
    # Sharing path engaged: every lane in the shared bank, encodings
    # strictly reused, and never more encodings than replays (this is
    # the CI smoke gate for the shared-encoding path).
    assert row["stacked_fallbacks"] == 0
    assert row["shared_encodings"] > 0
    assert row["shared_replays"] > row["shared_encodings"]
    assert row["lanes_with_shared_streams"] >= 2
    if not SMOKE:
        assert row["shared_speedup_over_pr5"] >= SHARED_OVER_PR5_FLOOR, (
            f"shared-encoding sweep ran at only "
            f"{row['shared_speedup_over_pr5']}x the recorded PR 5 "
            f"stacked rate; expected >= {SHARED_OVER_PR5_FLOOR}x "
            f"(set REPRO_BENCH_SMOKE=1 off the reference machine)")


def test_stacked_lane_batched_throughput(benchmark, capsys):
    """Lane-batched replay on the stacked five-organization sweep.

    Records the ``stacked_lane_batched`` row: sweep accesses/sec with
    the fused per-lane replay axis, the lane-batching telemetry
    (lane-batched rounds, replay seconds, residual per-lane
    ``_SetReplay`` batches), and the speedup over the PR 6 recorded
    shared-encoding rate.  The always-on asserts are
    machine-independent facts about the lane-batched path: the sweep
    takes the lane-major replay at least once per kernel, mid-stream
    repartitions drain through the vectorized over-allotment path
    (zero ``_SetReplay`` demotions), and every lane stays in the
    shared bank.  The wall-rate floor over the recorded PR 6 rate is
    tied to the reference machine and skipped under
    ``REPRO_BENCH_SMOKE=1``.
    """
    spec = SUITE[0]
    orgs = list(ORGANIZATIONS)

    def measure():
        best = None
        for _ in range(REPS):
            result = simulate_stacked(spec, orgs)
            if best is None or result.telemetry.wall_seconds < \
                    best.telemetry.wall_seconds:
                best = result
        tele = best.telemetry
        accesses = sum(s.accesses for s in best.stats)
        rate = accesses / tele.wall_seconds
        return {
            "organizations": orgs,
            "accesses": accesses,
            "accesses_per_second": round(rate),
            "lane_batched_rounds": tele.lane_batched_rounds,
            "replay_seconds": round(tele.replay_seconds, 3),
            "set_replay_batches": tele.set_replay_batches,
            "stacked_fallbacks": tele.solo_lanes,
            "lane_batched_speedup_over_pr6":
                round(rate / PR6_SHARED_RATE, 2),
        }

    row = benchmark.pedantic(measure, rounds=1, iterations=1,
                             warmup_rounds=0)
    report = {}
    if REPORT_PATH.exists():
        report = json.loads(REPORT_PATH.read_text())
    report["stacked_lane_batched"] = row
    REPORT_PATH.write_text(json.dumps(report, indent=2, sort_keys=True)
                           + "\n")
    with capsys.disabled():
        print()
        print(f"Lane-batched stacked sweep (best of {REPS}):")
        print(f"  {row['accesses_per_second']} accesses/sec over "
              f"{row['accesses']} accesses; "
              f"{row['lane_batched_rounds']} lane-batched rounds, "
              f"{row['replay_seconds']}s replay, "
              f"{row['set_replay_batches']} _SetReplay batches; "
              f"{row['lane_batched_speedup_over_pr6']:.2f}x over PR 6 "
              f"recorded rate")
    # Lane-batched path engaged: the lane-major replay ran, mid-stream
    # repartitions drained vectorized (no per-lane _SetReplay
    # demotions), and no lane fell out of the shared bank (this is the
    # CI smoke gate for the lane-batched path).
    assert row["stacked_fallbacks"] == 0
    assert row["lane_batched_rounds"] > 0
    assert row["set_replay_batches"] == 0
    if not SMOKE:
        assert row["lane_batched_speedup_over_pr6"] >= \
            LANE_BATCHED_OVER_PR6_FLOOR, (
                f"lane-batched sweep ran at only "
                f"{row['lane_batched_speedup_over_pr6']}x the recorded "
                f"PR 6 stacked rate; expected >= "
                f"{LANE_BATCHED_OVER_PR6_FLOOR}x (set REPRO_BENCH_SMOKE=1 "
                f"off the reference machine)")
