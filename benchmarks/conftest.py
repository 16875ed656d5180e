"""Benchmark harness configuration.

Each bench regenerates one paper table/figure through
``repro.experiments`` and prints the rows/series.  The underlying
simulation runs are memoized per process (``repro.analysis.runner``), so
figures that share runs (1, 8, 9, 10) only simulate once per session.

Benches run with a single benchmark round: the timed quantity is the
experiment itself, and the printed report is the artifact of record.
"""

import pytest


@pytest.fixture
def experiment_bencher(benchmark, capsys):
    """Run an experiment once under pytest-benchmark and print its report."""

    def bench(experiment_module, **kwargs):
        result = benchmark.pedantic(
            lambda: experiment_module.run_experiment(**kwargs),
            rounds=1, iterations=1, warmup_rounds=0)
        report = experiment_module.format_report(result)
        with capsys.disabled():
            print()
            print(report)
        return result

    return bench
