"""The runtime kernel-contract sanitizer (always on)."""

import ast
from pathlib import Path

import numpy as np
import pytest

from repro.arch.config import CacheConfig
from repro.cache.vector import StagedLaneCall, VectorBank
from repro.core import sanitize

LINE = 128
PACKAGE = Path(sanitize.__file__).resolve().parents[1]


@pytest.fixture(autouse=True)
def clean_report():
    sanitize.report().clear()
    yield
    sanitize.report().clear()


def small_bank():
    config = CacheConfig(size_bytes=16 * 4 * LINE, associativity=4,
                         line_size=LINE)
    return VectorBank(config, ["s0", "s1"])


def batch(n=32, seed=5):
    rng = np.random.default_rng(seed)
    addrs = (rng.integers(0, 64, size=n) * LINE).astype(np.int64)
    writes = rng.random(n) < 0.3
    cache_idx = rng.integers(0, 2, size=n).astype(np.int64)
    return cache_idx, addrs, writes


class TestExpect:
    def test_valid_array_passes(self):
        sanitize.expect("site", "x", np.zeros(4, dtype=np.int64),
                        "int64", 4)
        assert sanitize.report().count == 0

    @pytest.mark.parametrize("value, detail", [
        ([1, 2], "is list"),
        (np.zeros(4, dtype=np.float64), "dtype float64"),
        (np.zeros((2, 2), dtype=np.int64), "ndim 2"),
        (np.zeros(3, dtype=np.int64), "length 3"),
    ])
    def test_contract_breaches_raise_and_record(self, value, detail):
        with pytest.raises(sanitize.SanitizerError):
            sanitize.expect("site", "x", value, "int64", 4)
        [violation] = sanitize.report().violations
        assert violation.kind == "contract"
        assert violation.site == "site"


class TestGuarded:
    def test_read_only_write_becomes_encoding_write(self):
        frozen = np.arange(4)
        frozen.setflags(write=False)
        with pytest.raises(sanitize.SanitizerError):
            with sanitize.guarded("kernel"):
                frozen[0] = 9
        [violation] = sanitize.report().violations
        assert violation.kind == "encoding-write"
        assert violation.site == "kernel"

    def test_fp_anomalies_raise(self):
        with pytest.raises(sanitize.SanitizerError):
            with sanitize.guarded("kernel"):
                np.float64(1.0) / np.float64(0.0)
        [violation] = sanitize.report().violations
        assert violation.kind == "fp-error"

    def test_unrelated_value_errors_propagate(self):
        with pytest.raises(ValueError, match="unrelated"):
            with sanitize.guarded("kernel"):
                raise ValueError("unrelated")
        assert sanitize.report().count == 0


class TestReport:
    def test_summary_lists_violations(self):
        report = sanitize.report()
        assert report.summary() == "sanitizer: clean"
        report.record("contract", "site", "boom")
        assert "1 violation(s)" in report.summary()
        assert "[contract] site: boom" in report.summary()


class TestEntryPointContracts:
    def test_float_addresses_fail_the_contract(self):
        cache_idx, addrs, writes = batch()
        with pytest.raises(sanitize.SanitizerError):
            small_bank().access_many_grouped(
                cache_idx, addrs.astype(np.float64), writes)
        [violation] = sanitize.report().violations
        assert violation.kind == "contract"
        assert violation.site == "VectorBank.access_many_grouped"

    def test_mismatched_lengths_fail_the_contract(self):
        cache_idx, addrs, writes = batch()
        with pytest.raises(sanitize.SanitizerError):
            small_bank().access_many_grouped(cache_idx, addrs, writes[:-1])
        [violation] = sanitize.report().violations
        assert violation.kind == "contract"


def l15_call(n=48, seed=7):
    """A valid L1.5-shaped staged call over ``small_bank``'s two caches:
    local accesses probe LOCAL on their home, remote ones partition 1 on
    the requester and then LOCAL on the home."""
    rng = np.random.default_rng(seed)
    addrs = (rng.integers(0, 64, size=n) * LINE).astype(np.int64)
    writes = rng.random(n) < 0.3
    home = (addrs // LINE // 16 % 2).astype(np.int64)
    req = rng.integers(0, 2, size=n).astype(np.int64)
    two_stage = req != home
    return [addrs, writes, req, two_stage.astype(np.int64), two_stage,
            home, np.zeros(n, dtype=np.int64)]


def _off_shape(args, case):
    """``args`` with one probe moved off the L1.5 shape."""
    addrs, writes, idx0, part0, two_stage, idx1, part1 = (
        a.copy() for a in args)
    local = int(np.flatnonzero(~two_stage)[0])
    remote = np.flatnonzero(two_stage)
    if case == "single-stage-remote":
        part0[local] = 1
    elif case == "stage1-remote":
        part1[remote[0]] = 1
    elif case == "stage0-local":
        part0[remote[0]] = 0
    else:  # two remote partitions
        part0[remote[0]] = 2
    return [addrs, writes, idx0, part0, two_stage, idx1, part1]


class TestStagedShape:
    CASES = ["single-stage-remote", "stage1-remote", "stage0-local",
             "two-remotes"]

    def partitioned_bank(self):
        bank = small_bank()
        for cache in bank.caches:
            cache.set_partition({0: 2, 1: 1, 2: 1})
        assert bank.access_many_staged(*l15_call()) is not None
        return bank

    @staticmethod
    def snapshot(bank):
        store = bank._store
        arrays = (store.tags, store.dirty, store.count, store.stamp)
        return ([a.tolist() for a in arrays if a is not None], store.clock,
                [list(cache.resident_lines()) for cache in bank.caches])

    @pytest.mark.parametrize("case", CASES)
    def test_call_outside_the_shape_is_a_contract_violation(self, case):
        bank = self.partitioned_bank()
        before = self.snapshot(bank)
        with pytest.raises(sanitize.SanitizerError):
            bank.access_many_staged(*_off_shape(l15_call(seed=9), case))
        [violation] = sanitize.report().violations
        assert violation.kind == "contract"
        assert violation.site == "VectorBank.access_many_staged"
        assert self.snapshot(bank) == before

    def test_shared_call_outside_the_shape_runs_no_lane(self):
        bank = self.partitioned_bank()
        before = self.snapshot(bank)
        good = StagedLaneCall((0, 2), *l15_call(seed=9))
        bad = StagedLaneCall((0, 2), *_off_shape(l15_call(seed=9),
                                                 "stage1-remote"))
        with pytest.raises(sanitize.SanitizerError):
            bank.access_many_staged_shared([good, bad])
        [violation] = sanitize.report().violations
        assert violation.kind == "contract"
        assert violation.site == "VectorBank.access_many_staged_shared"
        assert self.snapshot(bank) == before


def _unfreezes(tree):
    """Lines of ``tree`` that may make an array writeable again.

    A read-only array refuses every in-place write except this one, so
    the scan allows ``arr.flags.writeable = False``,
    ``arr.flags["WRITEABLE"] = False`` and ``arr.setflags(write=False)``
    and flags any other value, including a computed one.
    """
    def is_false(node):
        return isinstance(node, ast.Constant) and node.value is False

    for node in ast.walk(tree):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                flag = isinstance(target, ast.Attribute) and \
                    target.attr == "writeable"
                flag |= isinstance(target, ast.Subscript) and \
                    isinstance(target.value, ast.Attribute) and \
                    target.value.attr == "flags" and \
                    isinstance(target.slice, ast.Constant) and \
                    str(target.slice.value).upper() in ("W", "WRITEABLE")
                if flag and not is_false(node.value):
                    yield node.lineno
        elif isinstance(node, ast.Call) and \
                isinstance(node.func, ast.Attribute) and \
                node.func.attr == "setflags":
            write = [kw.value for kw in node.keywords if kw.arg == "write"]
            write += node.args[:1]
            if any(not is_false(value) for value in write):
                yield node.lineno


def test_nothing_makes_an_array_writeable_again():
    offenders = [
        f"{path.relative_to(PACKAGE)}:{line}"
        for path in sorted(PACKAGE.rglob("*.py"))
        for line in _unfreezes(ast.parse(path.read_text(encoding="utf-8")))]
    assert offenders == [], (
        f"these lines may re-enable writes to a frozen array: "
        f"{offenders}")


@pytest.mark.parametrize("code, flagged", [
    ("bk.idx.flags.writeable = True", True),
    ("bk.idx.flags.writeable = flag", True),
    ("bk.idx.flags['WRITEABLE'] = 1", True),
    ("bk.idx.setflags(write=True)", True),
    ("bk.idx.setflags(True)", True),
    ("arr.flags.writeable = False", False),
    ("arr.setflags(write=False)", False),
    ("arr.setflags(align=True)", False),
])
def test_the_unfreeze_scan(code, flagged):
    assert list(_unfreezes(ast.parse(code))) == ([1] if flagged else [])
