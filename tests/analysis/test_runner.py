"""Unit tests for the cached experiment runner and aggregation helpers."""

import pytest

from repro.analysis import (
    cache_size,
    clear_cache,
    hmean_speedup,
    run,
    run_matrix,
    speedups_vs_baseline,
)
from repro.arch import baseline, with_inter_chip_bandwidth
from repro.workloads import BenchmarkSpec, KernelSpec, PhaseSpec, generator


def tiny_spec(name="runner-tiny"):
    phase = PhaseSpec(weight_true=0.4, weight_false=0.3, weight_private=0.3)
    return BenchmarkSpec(
        name=name, suite="test", num_ctas=8, footprint_mb=4,
        true_shared_mb=1, false_shared_mb=1, preference="sm-side",
        kernels=(KernelSpec(name="k", phase=phase, epochs=1),), seed=13)


@pytest.fixture(autouse=True)
def fresh_cache():
    clear_cache()
    yield
    clear_cache()


class TestCaching:
    def test_repeat_run_is_memoized(self):
        spec = tiny_spec()
        first = run(spec, "memory-side", accesses_per_epoch=256)
        assert cache_size() == 1
        second = run(spec, "memory-side", accesses_per_epoch=256)
        assert second is first

    def test_different_organizations_are_distinct_entries(self):
        spec = tiny_spec()
        run(spec, "memory-side", accesses_per_epoch=256)
        run(spec, "sm-side", accesses_per_epoch=256)
        assert cache_size() == 2

    def test_use_cache_false_bypasses(self):
        spec = tiny_spec()
        first = run(spec, "memory-side", accesses_per_epoch=256,
                    use_cache=False)
        assert cache_size() == 0
        second = run(spec, "memory-side", accesses_per_epoch=256,
                     use_cache=False)
        assert second is not first
        assert second.cycles == first.cycles


class TestMatrix:
    def test_matrix_covers_all_pairs(self):
        specs = [tiny_spec("a"), tiny_spec("b")]
        results = run_matrix(specs, ["memory-side", "sm-side"],
                             accesses_per_epoch=256)
        assert set(results) == {("a", "memory-side"), ("a", "sm-side"),
                                ("b", "memory-side"), ("b", "sm-side")}

    def test_speedups_normalize_to_baseline(self):
        specs = [tiny_spec("a")]
        results = run_matrix(specs, ["memory-side", "sm-side"],
                             accesses_per_epoch=256)
        speedups = speedups_vs_baseline(results, ["a"],
                                        ["memory-side", "sm-side"])
        assert speedups[("a", "memory-side")] == pytest.approx(1.0)

    def test_hmean_speedup(self):
        speedups = {("a", "x"): 2.0, ("b", "x"): 2.0}
        assert hmean_speedup(speedups, ["a", "b"], "x") == pytest.approx(2.0)


class TestConfigKeyAliasing:
    def test_none_and_explicit_baseline_share_one_entry(self):
        # Regression: the cache key must be built from the *resolved*
        # config, so config=None and an equal explicit baseline() hit
        # the same entry instead of simulating twice.
        from repro.arch import baseline
        spec = tiny_spec()
        first = run(spec, "memory-side", accesses_per_epoch=256)
        assert cache_size() == 1
        second = run(spec, "memory-side", config=baseline(),
                     accesses_per_epoch=256)
        assert cache_size() == 1
        assert second is first


class TestZeroCycleErrors:
    def _results_with_zero_cycles(self, zero_org):
        from repro.sim.stats import RunStats
        results = {}
        for org in ("memory-side", "sm-side"):
            cycles = 0.0 if org == zero_org else 100.0
            results[("a", org)] = RunStats(benchmark="a", organization=org,
                                           cycles=cycles)
        return results

    def test_zero_cycle_candidate_names_the_run(self):
        results = self._results_with_zero_cycles("sm-side")
        with pytest.raises(ValueError, match="'a' under 'sm-side'"):
            speedups_vs_baseline(results, ["a"], ["memory-side", "sm-side"])

    def test_zero_cycle_baseline_names_the_run(self):
        results = self._results_with_zero_cycles("memory-side")
        with pytest.raises(ValueError,
                           match="baseline run 'a' under 'memory-side'"):
            speedups_vs_baseline(results, ["a"], ["sm-side"])

    def test_stats_speedup_names_both_sides(self):
        from repro.sim.stats import RunStats, speedup
        good = RunStats(benchmark="b", organization="sac", cycles=10.0)
        bad = RunStats(benchmark="b", organization="static", cycles=0.0)
        with pytest.raises(ValueError, match="candidate run 'b'"):
            speedup(good, bad)
        with pytest.raises(ValueError, match="baseline run 'b'"):
            speedup(bad, good)


class TestDiskCacheIntegration:
    def test_warm_disk_cache_skips_simulation(self, tmp_path):
        from repro.sim.run import reset_simulate_calls, simulate_calls
        specs = [tiny_spec("warm-a"), tiny_spec("warm-b")]
        orgs = ["memory-side", "sm-side"]
        cold = run_matrix(specs, orgs, accesses_per_epoch=256,
                          cache_dir=tmp_path)
        clear_cache()  # drop the in-process memo; only the disk remains
        reset_simulate_calls()
        warm = run_matrix(specs, orgs, accesses_per_epoch=256,
                          cache_dir=tmp_path)
        assert simulate_calls() == 0
        assert set(warm) == set(cold)
        for key in cold:
            assert warm[key].comparable_dict() == cold[key].comparable_dict()

    def test_telemetry_counts_layers(self, tmp_path):
        from repro.analysis import reset_telemetry, telemetry
        reset_telemetry()
        specs = [tiny_spec("tele")]
        run_matrix(specs, ["memory-side"], accesses_per_epoch=256,
                   cache_dir=tmp_path)
        assert telemetry().simulated == 1
        assert telemetry().disk_stores == 1
        run_matrix(specs, ["memory-side"], accesses_per_epoch=256,
                   cache_dir=tmp_path)
        assert telemetry().memo_hits == 1
        clear_cache()
        run_matrix(specs, ["memory-side"], accesses_per_epoch=256,
                   cache_dir=tmp_path)
        assert telemetry().disk_hits == 1
        assert telemetry().simulated == 1


class TestPendingDedup:
    def test_duplicate_specs_simulate_once(self):
        # Regression: duplicate (spec, organization) pairs that missed
        # every cache layer used to be queued — and simulated — twice.
        from repro.sim.run import reset_simulate_calls, simulate_calls
        reset_simulate_calls()
        spec = tiny_spec("dup")
        results = run_matrix([spec, spec], ["memory-side"],
                             accesses_per_epoch=256)
        assert simulate_calls() == 1
        assert set(results) == {("dup", "memory-side")}

    def test_duplicate_organizations_simulate_once(self):
        from repro.sim.run import reset_simulate_calls, simulate_calls
        reset_simulate_calls()
        results = run_matrix([tiny_spec("dup-org")],
                             ["memory-side", "memory-side"],
                             accesses_per_epoch=256)
        assert simulate_calls() == 1
        assert set(results) == {("dup-org", "memory-side")}


class TestSpecNameCollision:
    def test_distinct_specs_sharing_a_name_raise(self):
        # Regression: results are keyed by spec *name*, so two distinct
        # specs with the same name used to silently collapse into one
        # entry (the second spec inheriting the first's stats).
        import dataclasses
        spec_a = tiny_spec("clash")
        spec_b = dataclasses.replace(tiny_spec("clash"), seed=99)
        with pytest.raises(ValueError, match="share the name 'clash'"):
            run_matrix([spec_a, spec_b], ["memory-side"],
                       accesses_per_epoch=256)

    def test_equal_duplicate_specs_are_fine(self):
        results = run_matrix([tiny_spec("same"), tiny_spec("same")],
                             ["memory-side"], accesses_per_epoch=256)
        assert set(results) == {("same", "memory-side")}


class TestStackedDispatch:
    """``run_matrix`` sends one supervised task per benchmark through
    ``simulate_stacked``, which runs that benchmark's pending
    organizations one after another; nothing shares an engine."""

    ORGS = ["memory-side", "sm-side", "static", "dynamic", "sac"]

    @pytest.fixture
    def task_lists(self, monkeypatch):
        """The task list of every ``Supervisor.run`` the runner makes."""
        from repro.analysis import runner
        seen = []

        class Recording(runner.Supervisor):
            def run(self, tasks):
                seen.append(list(tasks))
                return super().run(tasks)

        monkeypatch.setattr(runner, "Supervisor", Recording)
        return seen

    def test_one_task_per_benchmark(self, task_lists):
        from repro.analysis import reset_telemetry, telemetry
        reset_telemetry()
        specs = [tiny_spec(f"bench-{i}") for i in range(3)]
        run_matrix(specs, self.ORGS, accesses_per_epoch=256)
        assert telemetry().simulated == 15
        (tasks,) = task_lists
        assert [t.label for t in tasks] == [
            f"bench-{i}:{'+'.join(self.ORGS)}" for i in range(3)]

    def test_matrix_matches_per_pair_dispatch(self):
        # Per-pair dispatch is one simulate() per pair; the matrix must
        # give its results, in submission order, in-process and in a
        # two-worker pool alike.
        from repro.sim import simulate
        specs = [tiny_spec(f"pairs-{i}") for i in range(3)]
        solo = {(spec.name, org): simulate(
                    spec, org, accesses_per_epoch=256).comparable_dict()
                for spec in specs for org in self.ORGS}
        for n_jobs in (1, 2):
            clear_cache()
            results = run_matrix(specs, self.ORGS, accesses_per_epoch=256,
                                 n_jobs=n_jobs)
            assert list(results) == list(solo), n_jobs
            for key, expected in solo.items():
                assert results[key].comparable_dict() == expected, \
                    (n_jobs, key)

    def test_lone_pending_pair_stays_unstacked(self, task_lists):
        from repro.analysis import reset_telemetry, telemetry
        spec = tiny_spec("lone")
        run_matrix([spec], self.ORGS[:-1], accesses_per_epoch=256)
        reset_telemetry()
        results = run_matrix([spec], self.ORGS, accesses_per_epoch=256)
        assert len(results) == 5
        assert telemetry().memo_hits == 4
        assert telemetry().simulated == 1
        assert [t.label for t in task_lists[-1]] == ["lone:sac"]


class TestTraceRelease:
    """A matrix over more benchmarks than the trace cache has slots
    drops each benchmark's trace as its task ends; a smaller one keeps
    its traces for the next call."""

    ORGS = ["memory-side", "sm-side"]

    @pytest.fixture(autouse=True)
    def empty_trace_cache(self):
        generator._TRACE_CACHE.clear()
        yield
        generator._TRACE_CACHE.clear()

    @pytest.fixture
    def generated(self, monkeypatch):
        """The benchmark name of every trace the generator builds."""
        names = []
        real = generator.TraceGenerator._generate_all

        def recording(self):
            names.append(self.spec.name)
            return real(self)

        monkeypatch.setattr(generator.TraceGenerator, "_generate_all",
                            recording)
        return names

    def test_a_large_matrix_holds_one_trace_at_a_time(
            self, generated, monkeypatch):
        from repro.sim import run as sim_run
        cached = []
        real = sim_run.simulate

        def recording(*args, **kwargs):
            cached.append(len(generator._TRACE_CACHE))
            stats = real(*args, **kwargs)
            cached.append(len(generator._TRACE_CACHE))
            return stats

        monkeypatch.setattr(sim_run, "simulate", recording)
        specs = [tiny_spec(f"release-{i}")
                 for i in range(generator._TRACE_CACHE_MAX + 1)]
        run_matrix(specs, self.ORGS, accesses_per_epoch=256)
        assert len(cached) == 2 * len(self.ORGS) * len(specs)
        assert max(cached) == 1
        assert not generator._TRACE_CACHE
        assert generated == [spec.name for spec in specs]

    def test_a_small_matrix_keeps_its_traces_across_calls(self, generated):
        # Figure 14's pattern: the same benchmarks under configs that
        # differ only in a bandwidth, which the trace does not depend on.
        specs = [tiny_spec(f"keep-{i}") for i in range(3)]
        for gbps in (48, 96):
            run_matrix(specs, self.ORGS, accesses_per_epoch=256,
                       config=with_inter_chip_bandwidth(baseline(), gbps))
        assert generated == [spec.name for spec in specs]
        assert len(generator._TRACE_CACHE) == len(specs)


class TestTelemetrySeconds:
    def test_sim_and_matrix_seconds_are_split(self):
        # Regression: the old wall_seconds field mixed simulator time
        # with whole-matrix dispatch time.  A warm (all-memo) matrix
        # accrues matrix_seconds but no sim_seconds.
        from repro.analysis import reset_telemetry, telemetry
        specs = [tiny_spec("secs")]
        run_matrix(specs, ["memory-side", "sm-side"],
                   accesses_per_epoch=256)
        assert telemetry().sim_seconds > 0.0
        assert telemetry().matrix_seconds > 0.0
        assert not hasattr(telemetry(), "wall_seconds")
        reset_telemetry()
        run_matrix(specs, ["memory-side", "sm-side"],
                   accesses_per_epoch=256)
        assert telemetry().simulated == 0
        assert telemetry().sim_seconds == 0.0
        assert telemetry().matrix_seconds > 0.0


class TestParallelMatrix:
    def test_two_workers_match_serial_and_order(self, tmp_path):
        specs = [tiny_spec("par-a"), tiny_spec("par-b")]
        orgs = ["memory-side", "sm-side"]
        serial = run_matrix(specs, orgs, accesses_per_epoch=256)
        clear_cache()
        parallel = run_matrix(specs, orgs, accesses_per_epoch=256,
                              n_jobs=2, cache_dir=tmp_path)
        # Deterministic (submission-order) iteration, identical physics.
        assert list(parallel) == list(serial)
        for key in serial:
            assert parallel[key].comparable_dict() == \
                serial[key].comparable_dict()
        # The pool populated both cache layers: a repeat is all memo hits.
        from repro.analysis import reset_telemetry, telemetry
        reset_telemetry()
        run_matrix(specs, orgs, accesses_per_epoch=256, n_jobs=2,
                   cache_dir=tmp_path)
        assert telemetry().simulated == 0
        assert telemetry().memo_hits == len(serial)


class TestSupervisedMatrix:
    """Fault-tolerant dispatch: resume journals, dedupe guard, respawn."""

    @pytest.fixture(autouse=True)
    def disarm(self, monkeypatch):
        from repro.resilience import faults
        monkeypatch.delenv("REPRO_FAULTS", raising=False)
        monkeypatch.delenv("REPRO_FAULT_STATE", raising=False)
        faults.reset()
        yield
        faults.reset()

    def test_interrupted_sweep_resumes_incomplete_pairs_only(
            self, tmp_path, monkeypatch):
        # First pass: res-b's sm-side run fails (zero retries), which
        # fails res-b's whole task, memory-side included.  The
        # supervisor still completes and journals res-a's pairs before
        # raising.
        from repro.analysis import reset_telemetry, telemetry
        from repro.resilience.supervisor import TaskFailedError
        from repro.sim import run as sim_run
        from repro.sim.run import reset_simulate_calls, simulate_calls
        monkeypatch.setenv("REPRO_RETRIES", "0")
        specs = [tiny_spec("res-a"), tiny_spec("res-b")]
        orgs = ["memory-side", "sm-side"]
        real = sim_run.simulate

        def failing(spec, organization, **kwargs):
            if (spec.name, organization) == ("res-b", "sm-side"):
                raise RuntimeError("res-b/sm-side fails")
            return real(spec, organization, **kwargs)

        monkeypatch.setattr(sim_run, "simulate", failing)
        with pytest.raises(TaskFailedError) as excinfo:
            run_matrix(specs, orgs, accesses_per_epoch=256,
                       cache_dir=tmp_path)
        assert set(excinfo.value.failures) == {"res-b:memory-side+sm-side"}
        # Second pass, failure gone, memo dropped: the journaled pairs
        # come back from disk as resumed, only the two incomplete pairs
        # re-simulate.
        monkeypatch.setattr(sim_run, "simulate", real)
        clear_cache()
        reset_telemetry()
        reset_simulate_calls()
        results = run_matrix(specs, orgs, accesses_per_epoch=256,
                             cache_dir=tmp_path)
        assert len(results) == 4
        assert simulate_calls() == 2
        assert telemetry().disk_hits == 2
        assert telemetry().resumed_pairs == 2
        assert telemetry().simulated == 2

    def test_journaled_pair_with_lost_payload_simulates_once(
            self, tmp_path, monkeypatch):
        # A pair the manifest journaled as done but whose payload went
        # missing misses the disk cache, so the pending scan re-runs it,
        # once.
        from repro.analysis import reset_telemetry, runner, telemetry
        from repro.analysis.diskcache import ResultCache
        from repro.sim.run import reset_simulate_calls, simulate_calls
        specs = [tiny_spec("res-c")]
        orgs = ["memory-side", "sm-side"]
        run_matrix(specs, orgs, accesses_per_epoch=256, cache_dir=tmp_path)
        dkey = runner._disk_key(
            specs[0], "sm-side", runner._resolve_config(None),
            runner.DEFAULT_SCALE, 256, runner._resolve_params(None))
        payload = ResultCache(tmp_path)._path(dkey)
        assert payload.is_file()
        payload.unlink()
        clear_cache()
        reset_telemetry()
        reset_simulate_calls()
        results = run_matrix(specs, orgs, accesses_per_epoch=256,
                             cache_dir=tmp_path)
        assert len(results) == 2
        assert telemetry().simulated == 1
        assert simulate_calls() == 1

    def test_worker_crash_respawns_and_loses_nothing(
            self, tmp_path, monkeypatch):
        from repro.analysis import reset_telemetry, telemetry
        from repro.resilience import faults
        monkeypatch.setenv(
            "REPRO_FAULTS", "worker.crash:crash-a:memory-side+sm-side")
        monkeypatch.setenv("REPRO_FAULT_STATE", str(tmp_path / "state"))
        faults.reset()
        reset_telemetry()
        specs = [tiny_spec("crash-a"), tiny_spec("crash-b")]
        orgs = ["memory-side", "sm-side"]
        results = run_matrix(specs, orgs, accesses_per_epoch=256, n_jobs=2)
        assert len(results) == 4
        # The crash is a respawn; no task failed an attempt of its own.
        assert telemetry().respawns == 1
        assert telemetry().retries == 0
        # Survivor-equivalence: the crashed-and-retried matrix matches a
        # clean serial run bit for bit.
        monkeypatch.delenv("REPRO_FAULTS")
        faults.reset()
        clear_cache()
        reference = run_matrix(specs, orgs, accesses_per_epoch=256,
                               n_jobs=1)
        for pair, stats in results.items():
            assert stats.comparable_dict() == \
                reference[pair].comparable_dict(), pair
