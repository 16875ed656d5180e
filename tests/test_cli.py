"""Tests for the `python -m repro` command-line entry point."""

import re

import pytest

from repro.__main__ import main
from repro.analysis import runner
from repro.experiments import REGISTRY


class TestCLI:
    def test_list_enumerates_experiments(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in REGISTRY:
            assert name in out

    def test_unknown_experiment_errors(self, capsys):
        assert main(["nope"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_runs_an_experiment_fast(self, capsys):
        assert main(["fig12", "--fast"]) == 0
        out = capsys.readouterr().out
        assert "Figure 12" in out
        assert "completed in" in out

    def test_cache_dir_serves_single_runs(self, tmp_path, capsys):
        # Figure 12 calls ``runner.run`` (not ``run_matrix``): a warm
        # ``--cache-dir`` rerun with a cold memo simulates nothing.
        counts = []
        try:
            for _ in range(2):
                runner.clear_cache()
                runner.reset_telemetry()
                assert main(["fig12", "--fast", "--cache-dir",
                             str(tmp_path)]) == 0
                out = capsys.readouterr().out
                counts.append(tuple(int(n) for n in re.search(
                    r"runs: (\d+) simulated, \d+ memo hits, (\d+) disk "
                    r"hits, (\d+) disk stores", out).groups()))
        finally:
            runner.set_default_cache_dir(None)
            runner.clear_cache()
        assert counts == [(3, 0, 3), (0, 3, 0)]


class TestRegistry:
    def test_registry_covers_every_experiment_module(self):
        import repro.experiments as experiments
        registered = {module.__name__ for module in REGISTRY.values()}
        exported = {getattr(experiments, name).__name__
                    for name in experiments.__all__
                    if name != "REGISTRY"}
        assert registered == exported

    def test_registry_modules_expose_the_experiment_api(self):
        for module in REGISTRY.values():
            assert callable(module.run_experiment)
            assert callable(module.format_report)


class TestCSVExport:
    def test_csv_flag_writes_file(self, tmp_path, capsys):
        out = tmp_path / "fig12.csv"
        # Figure 12's result has no exportable shape; use table4 instead.
        assert main(["table4", "--fast", "--csv", str(out)]) == 0
        assert out.exists()
        assert "wrote" in capsys.readouterr().out
