"""Supervisor semantics: retries, timeouts, respawns, failure policy.

Pool tests keep payloads tiny (arithmetic, a marker file) so the suite
stays fast; deterministic crashes/hangs come from the fault sites in
``run_supervised`` armed through ``REPRO_FAULTS``.
"""

import os
import time
from pathlib import Path

import pytest

from repro.resilience import faults
from repro.resilience.supervisor import (
    SupervisedTask,
    Supervisor,
    TaskFailedError,
    TaskTimeoutError,
    default_retries,
    default_task_timeout,
)


@pytest.fixture(autouse=True)
def disarm(monkeypatch):
    monkeypatch.delenv("REPRO_FAULTS", raising=False)
    monkeypatch.delenv("REPRO_FAULT_STATE", raising=False)
    faults.reset()
    yield
    faults.reset()


def _double(x):
    return x * 2


def _fail_once_then_succeed(marker):
    """Fails on the first call (any process), succeeds afterwards."""
    path = Path(marker)
    try:
        with open(path, "x"):
            pass
    except FileExistsError:
        return "recovered"
    raise RuntimeError("first attempt fails")


def _sleep_then_fail_once(marker):
    """Sleeps half a second, then fails on its first completed call."""
    time.sleep(0.5)
    return _fail_once_then_succeed(marker)


def _always_fail(label):
    raise RuntimeError(f"{label} is broken")


def _quick(tag):
    return tag


class TestEnvKnobs:
    def test_default_retries(self, monkeypatch):
        monkeypatch.delenv("REPRO_RETRIES", raising=False)
        assert default_retries() == 2
        monkeypatch.setenv("REPRO_RETRIES", "5")
        assert default_retries() == 5
        monkeypatch.setenv("REPRO_RETRIES", "nope")
        assert default_retries() == 2

    def test_default_task_timeout(self, monkeypatch):
        monkeypatch.delenv("REPRO_TASK_TIMEOUT", raising=False)
        assert default_task_timeout() is None
        monkeypatch.setenv("REPRO_TASK_TIMEOUT", "2.5")
        assert default_task_timeout() == 2.5
        monkeypatch.setenv("REPRO_TASK_TIMEOUT", "0")
        assert default_task_timeout() is None


class TestSerial:
    def test_runs_and_keys_results(self):
        sup = Supervisor(max_workers=1)
        results = sup.run([
            SupervisedTask("a", "a", _double, (2,)),
            SupervisedTask("b", "b", _double, (5,)),
        ])
        assert results == {"a": 4, "b": 10}

    def test_retry_then_success(self, tmp_path):
        sup = Supervisor(max_workers=1, backoff_base=0.001)
        results = sup.run([SupervisedTask(
            "t", "t", _fail_once_then_succeed, (str(tmp_path / "m"),))])
        assert results == {"t": "recovered"}
        assert sup.telemetry.retries == 1

    def test_terminal_failure_completes_siblings_first(self):
        delivered = []
        sup = Supervisor(max_workers=1, retries=0,
                         on_result=lambda t, r: delivered.append(t.key))
        with pytest.raises(TaskFailedError) as excinfo:
            sup.run([
                SupervisedTask("bad", "bad", _always_fail, ("bad",)),
                SupervisedTask("ok", "ok", _double, (3,)),
            ])
        # The good task still ran and was delivered before the raise.
        assert delivered == ["ok"]
        assert set(excinfo.value.failures) == {"bad"}

    def test_duplicate_keys_run_once(self):
        calls = []
        sup = Supervisor(max_workers=1,
                         on_result=lambda t, r: calls.append(t.key))
        results = sup.run([
            SupervisedTask("same", "first", _double, (1,)),
            SupervisedTask("same", "second", _double, (1,)),
        ])
        assert results == {"same": 2}
        assert calls == ["same"]

    def test_on_result_fires_incrementally(self):
        seen = []
        sup = Supervisor(max_workers=1,
                         on_result=lambda t, r: seen.append((t.key, r)))
        sup.run([SupervisedTask("a", "a", _double, (4,))])
        assert seen == [("a", 8)]


class TestPool:
    def test_pool_matches_serial(self):
        sup = Supervisor(max_workers=2)
        results = sup.run([
            SupervisedTask("a", "a", _double, (1,)),
            SupervisedTask("b", "b", _double, (2,)),
            SupervisedTask("c", "c", _double, (3,)),
        ])
        assert results == {"a": 2, "b": 4, "c": 6}
        assert sup.telemetry.respawns == 0

    def test_worker_crash_respawns_and_completes(self, tmp_path,
                                                 monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "worker.crash:a")
        monkeypatch.setenv("REPRO_FAULT_STATE", str(tmp_path / "state"))
        faults.reset()
        sup = Supervisor(max_workers=2, backoff_base=0.001)
        results = sup.run([
            SupervisedTask("a", "a", _quick, ("a",)),
            SupervisedTask("b", "b", _quick, ("b",)),
        ])
        assert results == {"a": "a", "b": "b"}
        assert sup.telemetry.respawns == 1

    def test_crash_elsewhere_spends_no_retry_budget(self, tmp_path,
                                                    monkeypatch):
        # Task a's worker dies while b sleeps, and the broken pool takes
        # b down with it.  That is a respawn, not an attempt of b's:
        # b keeps its one retry for the failure of its own that follows.
        monkeypatch.setenv("REPRO_FAULTS", "worker.crash:a")
        monkeypatch.setenv("REPRO_FAULT_STATE", str(tmp_path / "state"))
        faults.reset()
        sup = Supervisor(max_workers=2, retries=1, backoff_base=0.001)
        results = sup.run([
            SupervisedTask("a", "a", _quick, ("a",)),
            SupervisedTask("b", "b", _sleep_then_fail_once,
                           (str(tmp_path / "m"),)),
        ])
        assert results == {"a": "a", "b": "recovered"}
        assert sup.telemetry.retries == 1
        assert sup.telemetry.respawns == 1

    def test_worker_hang_times_out_and_recovers(self, tmp_path,
                                                monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "worker.hang:a=2.0")
        monkeypatch.setenv("REPRO_FAULT_STATE", str(tmp_path / "state"))
        faults.reset()
        sup = Supervisor(max_workers=2, timeout=0.4, backoff_base=0.001)
        results = sup.run([
            SupervisedTask("a", "a", _quick, ("a",)),
            SupervisedTask("b", "b", _quick, ("b",)),
        ])
        assert results == {"a": "a", "b": "b"}
        assert sup.telemetry.timeouts >= 1
        assert sup.telemetry.respawns >= 1
        assert sup.telemetry.retries >= 1

    def test_pool_terminal_failure_raises_with_label(self):
        sup = Supervisor(max_workers=2, retries=0, backoff_base=0.001)
        with pytest.raises(TaskFailedError) as excinfo:
            sup.run([
                SupervisedTask("bad", "bad", _always_fail, ("bad",)),
                SupervisedTask("ok", "ok", _double, (7,)),
            ])
        assert set(excinfo.value.failures) == {"bad"}

    def test_timeout_error_type_reaches_failures(self, tmp_path,
                                                 monkeypatch):
        # Unbounded hang arming (no marker claim consumed by a success
        # path) with zero retries: the task must fail as a timeout.
        monkeypatch.setenv("REPRO_FAULTS", "worker.hang:a*=1.0")
        monkeypatch.setenv("REPRO_FAULT_STATE", str(tmp_path / "state"))
        faults.reset()
        sup = Supervisor(max_workers=2, timeout=0.3, retries=0,
                         backoff_base=0.001)
        with pytest.raises(TaskFailedError) as excinfo:
            sup.run([
                SupervisedTask("a", "a", _quick, ("a",)),
                SupervisedTask("b", "b", _quick, ("b",)),
            ])
        assert isinstance(excinfo.value.failures["a"], TaskTimeoutError)
