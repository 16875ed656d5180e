"""Self-test of the benchmark at a tiny size (one pass per workload).

Run with ``PYTHONPATH=src python -m pytest bench -q``; the repository's
own test run does not collect it.
"""

from __future__ import annotations

import json
import subprocess
import sys
from typing import Any, Dict, Iterator, List, Optional

import pytest

from bench import harness, passes
from bench.check import digest
from bench.compare import verdict
from bench.tracer import ROOTS, Tracer
from bench.workloads import PAPER_SEED, WORKLOADS
from repro.sim.engine import SimulationEngine
from repro.sim.run import simulate
from repro.workloads.suite import get

SCALE = 1 / 64
DENSITY = 512
TINY = ["--scale", "1/64", "--density", str(DENSITY)]


@pytest.fixture(scope="module")
def full_run() -> Dict[str, Any]:
    """One traced pass of every workload, as ``python -m bench run``."""
    proc = subprocess.run(
        [sys.executable, "-m", "bench", "run", "--passes", "1", "--trace",
         *TINY], cwd=harness.ROOT, capture_output=True, text=True,
        timeout=300, check=True)
    lines = proc.stdout.splitlines()
    path = next(line.split(": ", 1)[1] for line in lines
                if line.startswith("results: "))
    with open(path) as handle:
        results = json.load(handle)
    return {"line": json.loads(lines[-1]), "results": results}


def test_results_carry_every_benchmark_metric(full_run: Dict[str, Any]
                                              ) -> None:
    benchmark = harness.load_benchmark()
    line, results = full_run["line"], full_run["results"]
    assert line["correct"] and line["failed"] == 0, \
        [w["problems"] for w in results["workloads"].values()]
    for workload in WORKLOADS:
        summary = results["workloads"][workload]["summary"]
        for metric in benchmark["end_to_end"]:
            assert summary[metric["name"]]["n"] == 1
            assert results["units"][metric["name"]] == metric["unit"]
        for metric in benchmark["per_layer"]:
            reported = line["metrics"][f"{workload}.{metric['name']}"]
            assert reported["unit"] == metric["unit"]
        assert line["metrics"][f"{workload}.trace.unattributed_share"][
            "value"] <= harness.UNATTRIBUTED_LIMIT
        _check_chrome_trace(results["workloads"][workload]["trace_files"][0])
    # Every pass starts from an empty disk cache: 80 lookups miss, and
    # 80 results are stored.
    fig8 = results["workloads"]["fig8-cold"]["layers"]
    assert fig8["analysis.disk_loads"] == 80
    assert fig8["analysis.disk_stores"] == 80
    assert results["workloads"]["solo"]["layers"]["cache.calls"] > 0


def _check_chrome_trace(path: str) -> None:
    """Complete ("X") events, each inside the span its ``parent`` names."""
    with open(path) as handle:
        events = json.load(handle)["traceEvents"]
    assert events
    spans = {e["args"]["id"]: e for e in events}
    for event in events:
        assert event["ph"] == "X" and event["dur"] >= 0
        parent = spans.get(event["args"]["parent"])
        if parent is not None:
            assert parent["ts"] <= event["ts"]
            assert event["ts"] + event["dur"] <= \
                parent["ts"] + parent["dur"] + 1e-3


def test_flipped_golden_digest_is_an_error(full_run: Dict[str, Any]) -> None:
    golden = dict(full_run["results"]["workloads"]["solo"]["digests"])
    label = next(iter(golden))
    golden[label] = "0" * 64
    result = harness.measure(WORKLOADS["solo"], seed=PAPER_SEED, passes=1,
                             scale=SCALE, density=DENSITY, golden=golden)
    assert result["failed"] == 1 and not result["correct"]
    assert result["summary"]["error_rate"]["median"] > 0


def test_integer_seed_changes_inputs_and_paper_seed_does_not(
        full_run: Dict[str, Any]) -> None:
    paper = full_run["results"]["workloads"]["solo"]["digests"]
    reseeded = harness.measure(WORKLOADS["solo"], seed=7, passes=1,
                               scale=SCALE, density=DENSITY)["digests"]
    assert reseeded.keys() == paper.keys()
    assert all(reseeded[label] != paper[label] for label in paper)
    # The paper seed runs the suite exactly as committed.
    for label in paper:
        name, organization = label.split("/")
        stats = simulate(get(name), organization, scale=SCALE,
                         accesses_per_epoch=DENSITY)
        assert digest(stats) == paper[label]


def test_pass_schedule() -> None:
    """Untraced and traced passes alternate; a pass count and a time
    budget are both honoured."""
    def schedule(passes: int, trace: bool, seconds: Optional[float],
                 pass_s: float = 1.0) -> str:
        kinds = ""
        while True:
            traced = harness.next_pass(
                kinds.count("U"), kinds.count("T"), passes, trace, seconds,
                pass_s * len(kinds))
            if traced is None:
                return kinds
            kinds += "T" if traced else "U"

    assert schedule(3, False, None) == "UUU"
    assert schedule(1, True, None) == "UT"
    assert schedule(3, True, None) == "UTUTU"
    # A budget adds passes beyond the count, and never removes any.
    assert schedule(3, False, 6.0) == "UUUUUU"
    assert schedule(3, True, 6.0) == "UTUTUT"
    assert schedule(3, True, 2.0, pass_s=5.0) == "UTUTU"

    result = harness.measure(WORKLOADS["serial-paths"], seed=PAPER_SEED,
                             seconds=2.0, trace=True, scale=SCALE,
                             density=DENSITY)
    assert result["correct"], result["problems"]
    untraced, traced = len(result["passes"]), len(result["traced"])
    assert untraced >= harness.MIN_PASSES
    assert traced in (untraced - 1, untraced)
    assert result["layers"]["sim.runs"] == 3


@pytest.fixture
def tracer() -> Iterator[Tracer]:
    tracer = Tracer()
    tracer.install()
    try:
        yield tracer
    finally:
        tracer.uninstall()


def test_traced_self_times_sum_to_the_wall(tracer: Tracer) -> None:
    workload = WORKLOADS["solo"]
    pts = passes.points(workload, PAPER_SEED)[:5]
    timed = tracer.call("bench.setup", lambda: passes.prepare(
        workload, pts, SCALE, DENSITY, None))
    results: passes.Results = []
    tracer.call("bench.run", lambda: timed(results))
    self_times = tracer.self_times()
    layers = sum(t for name, t in self_times.items() if name not in ROOTS)
    assert 0.95 * tracer.wall() <= layers <= tracer.wall()
    assert sum(self_times.values()) == pytest.approx(tracer.wall())
    assert tracer.layer_metrics()["cache.calls"] > 0


def test_traced_generators_keep_the_protocol() -> None:
    """A wrapped generator function still receives what callers send, so
    a traced engine keeps its vector path and its physics."""
    point = passes.points(WORKLOADS["solo"], PAPER_SEED)[4]  # RN under SAC
    untraced = passes.oracle(point, SCALE, DENSITY)
    tracer = Tracer()
    original = SimulationEngine.__dict__["run_steps"]
    SimulationEngine.run_steps = tracer.wrap(original, "sim.steps")
    try:
        stats = simulate(point.spec, point.organization, scale=SCALE,
                         accesses_per_epoch=DENSITY)
    finally:
        SimulationEngine.run_steps = original
    assert digest(stats) == digest(untraced)
    assert stats.vector_epochs > 0 and stats.scalar_epochs == 0

    def echo() -> Iterator[Any]:
        received: List[Any] = []
        try:
            while True:
                received.append((yield len(received)))
        except KeyError as error:
            yield ("thrown", error.args, received)

    gen = tracer.wrap(echo, "toy")()
    assert next(gen) == 0
    assert gen.send("a") == 1
    assert gen.throw(KeyError("k")) == ("thrown", ("k",), ["a"])


def test_verdicts() -> None:
    steady = [1.0, 1.01, 0.99, 1.0, 1.02, 0.98, 1.0, 1.01, 0.99, 1.0]
    assert verdict(steady, steady, "lower", 0.1) == "ok"
    assert verdict(steady, [v * 1.2 for v in steady], "lower", 0.1) == "worse"
    assert verdict(steady, [v * 0.8 for v in steady], "lower", 0.1) == "better"
    assert verdict(steady, [v * 0.8 for v in steady], "higher", 0.1) == \
        "worse"
    # Nine wins of ten pairs still claim a gain; eight do not.
    nine = [v * 0.8 for v in steady[:9]] + [2.0]
    assert verdict(steady, nine, "lower", 0.3) == "better"
    eight = [v * 0.8 for v in steady[:8]] + [2.0, 2.0]
    assert verdict(steady, eight, "lower", 0.3) == "unresolved"
    # Five pairs are too few to claim a gain, however clear.
    five = steady[:5]
    assert verdict(five, [v * 0.5 for v in five], "lower", 0.1) == "ok"
    wide = [0.5, 1.5, 0.6, 1.4, 1.0]
    assert verdict(wide, wide, "lower", 0.1) == "unresolved"
    assert verdict([0.0], [0.01], "lower", 0.0) == "worse"
