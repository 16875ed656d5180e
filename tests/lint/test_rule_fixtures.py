"""Per-rule fixture pairs: each rule fires on its bad snippet and stays
silent on the corresponding good one."""

import pytest

from .conftest import lint_text

ENGINE = "repro/sim/engine.py"
VECTOR = "repro/cache/vector.py"
CONFIG = "repro/arch/config.py"
EVENTSIM = "repro/sim/eventsim.py"
DISKCACHE = "repro/analysis/diskcache.py"
ELSEWHERE = "repro/workloads/programs.py"
#: A module outside the dtype-discipline scope (``ELSEWHERE`` is inside).
UNTYPED = "repro/analysis/working_set.py"


# -- hot-loop ---------------------------------------------------------------

def test_hot_loop_fires_on_per_access_index_loop():
    findings = lint_text("""\
        def serve(addrs):
            total = 0
            for i in range(len(addrs)):
                total += addrs[i]
            return total
        """, ENGINE, rule="hot-loop")
    assert len(findings) == 1
    assert findings[0].line == 3


def test_hot_loop_fires_on_direct_iteration_and_comprehension():
    findings = lint_text("""\
        def serve(epoch):
            for addr in epoch.addrs:
                touch(addr)
            return [touch(a) for a in epoch.addrs]
        """, ENGINE, rule="hot-loop")
    assert len(findings) == 2


def test_hot_loop_silent_on_geometry_bounded_loops():
    findings = lint_text("""\
        def settle(self, num_chips, last_r, homes_r):
            for chip in range(num_chips):
                self.charge(chip)
            for side_r in (last_r, homes_r):
                self.account(side_r)
        """, ENGINE, rule="hot-loop")
    assert findings == []


def test_hot_loop_silent_on_rank_loops():
    # One iteration per within-set rank, each vectorized over the live
    # sets: bounded by the busiest set's access count, not the batch's.
    findings = lint_text("""\
        def resolve(live, t_s):
            steps = live.size
            widths = live.tolist()
            lo = 0
            for r in range(steps):
                hi = lo + widths[r]
                step(t_s[lo:hi])
                lo = hi
        """, VECTOR, rule="hot-loop")
    assert findings == []


def test_hot_loop_fires_on_batch_length_loop_in_the_kernel():
    findings = lint_text("""\
        def resolve(rows):
            n = rows.shape[0]
            for i in range(n):
                step(rows[i])
        """, VECTOR, rule="hot-loop")
    assert len(findings) == 1
    assert findings[0].line == 3


def test_hot_loop_silent_outside_hot_modules():
    findings = lint_text("""\
        def build(addrs):
            for i in range(len(addrs)):
                yield addrs[i]
        """, ELSEWHERE, rule="hot-loop")
    assert findings == []


# -- dtype-discipline -------------------------------------------------------

def test_dtype_fires_on_defaulted_constructor():
    findings = lint_text("""\
        import numpy as np
        rows = np.arange(8)
        """, VECTOR, rule="dtype-discipline")
    assert len(findings) == 1
    assert "dtype" in findings[0].message


@pytest.mark.parametrize("module", [
    "repro/workloads/generator.py", ELSEWHERE, "repro/workloads/traceio.py",
    "repro/core/counters.py", "repro/core/sac.py"])
def test_dtype_covers_the_trace_and_sac_modules(module):
    findings = lint_text("""\
        import numpy as np
        chips = np.asarray([0, 1])
        """, module, rule="dtype-discipline")
    assert len(findings) == 1


def test_dtype_fires_on_float_tag_arithmetic():
    findings = lint_text("""\
        def probe(tags):
            return tags * 2.0
        """, VECTOR, rule="dtype-discipline")
    assert len(findings) == 1


def test_dtype_silent_on_explicit_dtype_and_integer_math():
    findings = lint_text("""\
        import numpy as np
        rows = np.arange(8, dtype=np.int64)
        def probe(tags):
            return tags * 2
        """, VECTOR, rule="dtype-discipline")
    assert findings == []


def test_dtype_silent_outside_designated_modules():
    findings = lint_text("""\
        import numpy as np
        rows = np.arange(8)
        """, UNTYPED, rule="dtype-discipline")
    assert findings == []


# -- config-validation ------------------------------------------------------

def test_config_validation_fires_on_untouched_field():
    findings = lint_text("""\
        from dataclasses import dataclass

        @dataclass(frozen=True)
        class MemoryConfig:
            latency: float = 100.0
            channels: int = 2

            def __post_init__(self):
                if self.channels <= 0:
                    raise ValueError("need channels")
        """, CONFIG, rule="config-validation")
    assert len(findings) == 1
    assert "latency" in findings[0].message


def test_config_validation_fires_on_missing_post_init():
    findings = lint_text("""\
        from dataclasses import dataclass

        @dataclass(frozen=True)
        class MemoryConfig:
            latency: float = 100.0
        """, CONFIG, rule="config-validation")
    assert len(findings) == 1
    assert "__post_init__" in findings[0].message


def test_config_validation_exempts_bools_and_nested_configs():
    findings = lint_text("""\
        from dataclasses import dataclass

        @dataclass(frozen=True)
        class CacheConfig:
            size: int = 64

            def __post_init__(self):
                if self.size <= 0:
                    raise ValueError("bad size")

        @dataclass(frozen=True)
        class ChipConfig:
            llc: CacheConfig = CacheConfig()
            sectored: bool = False
            slices: int = 8

            def __post_init__(self):
                if self.slices <= 0:
                    raise ValueError("bad slices")
        """, CONFIG, rule="config-validation")
    assert findings == []


# -- float-eq ---------------------------------------------------------------

def test_float_eq_fires_on_float_literal_comparison():
    findings = lint_text("""\
        def delay(rho):
            if rho == 0.0:
                return 0.0
            return 1.0 / rho
        """, EVENTSIM, rule="float-eq")
    assert len(findings) == 1
    assert findings[0].line == 2


def test_float_eq_silent_on_thresholds_and_int_equality():
    findings = lint_text("""\
        def delay(rho, n):
            if rho <= 0.0:
                return 0.0
            if n == 0:
                return 0.0
            return 1.0 / rho
        """, EVENTSIM, rule="float-eq")
    assert findings == []


def test_float_eq_silent_outside_timing_modules():
    findings = lint_text("""\
        def check(x):
            return x == 1.5
        """, ELSEWHERE, rule="float-eq")
    assert findings == []


# -- nondeterminism ---------------------------------------------------------

def test_nondeterminism_fires_on_global_rng():
    findings = lint_text("""\
        import random
        import numpy as np

        def shuffle(x):
            np.random.shuffle(x)
            return random.random()
        """, ELSEWHERE, rule="nondeterminism")
    assert len(findings) == 2


def test_nondeterminism_fires_on_unseeded_default_rng():
    findings = lint_text("""\
        import numpy as np
        rng = np.random.default_rng()
        """, ELSEWHERE, rule="nondeterminism")
    assert len(findings) == 1
    assert "seed" in findings[0].message


def test_nondeterminism_silent_on_seeded_rng():
    findings = lint_text("""\
        import numpy as np
        import random
        rng = np.random.default_rng(42)
        local = random.Random(7)
        """, ELSEWHERE, rule="nondeterminism")
    assert findings == []


def test_nondeterminism_fires_on_unsorted_items_in_key_module():
    findings = lint_text("""\
        def encode(parts):
            return [v for _, v in parts.items()]
        """, DISKCACHE, rule="nondeterminism")
    assert len(findings) == 1


def test_nondeterminism_silent_on_sorted_items_in_key_module():
    findings = lint_text("""\
        import json

        def encode(parts):
            first = [v for _, v in sorted(parts.items())]
            return first, json.dumps(dict(parts.items()), sort_keys=True)
        """, DISKCACHE, rule="nondeterminism")
    assert findings == []


def test_nondeterminism_ignores_dict_order_outside_key_module():
    findings = lint_text("""\
        def tally(counts):
            return [v for _, v in counts.items()]
        """, ELSEWHERE, rule="nondeterminism")
    assert findings == []


# -- mutable-default --------------------------------------------------------

def test_mutable_default_fires_on_literal_and_call_defaults():
    findings = lint_text("""\
        def f(x=[]):
            return x

        def g(y=dict()):
            return y
        """, ELSEWHERE, rule="mutable-default")
    assert len(findings) == 2


def test_mutable_default_silent_on_none_sentinel():
    findings = lint_text("""\
        def f(x=None, y=(), z="name"):
            return x, y, z
        """, ELSEWHERE, rule="mutable-default")
    assert findings == []


# -- broad-except -----------------------------------------------------------

def test_bare_except_fires_on_bare_handler():
    findings = lint_text("""\
        def load(path):
            try:
                return open(path)
            except:
                return None
        """, ELSEWHERE, rule="broad-except")
    assert len(findings) == 1


def test_bare_except_fires_on_silent_broad_handler():
    findings = lint_text("""\
        def load(path):
            try:
                return open(path)
            except Exception:
                pass
        """, ELSEWHERE, rule="broad-except")
    assert len(findings) == 1


def test_bare_except_silent_on_narrow_or_handled():
    findings = lint_text("""\
        def load(path):
            try:
                return open(path)
            except FileNotFoundError:
                pass
            except Exception as exc:
                raise RuntimeError(path) from exc
        """, ELSEWHERE, rule="broad-except")
    assert findings == []


def test_broad_except_fires_on_swallow_and_substitute():
    findings = lint_text("""\
        def load(path):
            try:
                return parse(path)
            except Exception:
                return None
        """, ELSEWHERE, rule="broad-except")
    assert len(findings) == 1
    assert findings[0].line == 4


def test_broad_except_fires_on_base_exception():
    findings = lint_text("""\
        def load(path):
            try:
                return parse(path)
            except BaseException:
                return default()
        """, ELSEWHERE, rule="broad-except")
    assert len(findings) == 1


def test_broad_except_silent_when_exception_is_used():
    findings = lint_text("""\
        def load(path, errors):
            try:
                return parse(path)
            except Exception as error:
                errors.append(error)
                return None
        """, ELSEWHERE, rule="broad-except")
    assert findings == []


def test_broad_except_silent_on_reraise_or_log():
    findings = lint_text("""\
        def load(path):
            try:
                return parse(path)
            except Exception:
                log.warning("unreadable payload at %s", path)
                return None

        def must(path):
            try:
                return parse(path)
            except Exception:
                raise RuntimeError(path)
        """, ELSEWHERE, rule="broad-except")
    assert findings == []


def test_broad_except_silent_on_narrow_handlers():
    findings = lint_text("""\
        def load(path):
            try:
                return parse(path)
            except (OSError, ValueError):
                return None
        """, ELSEWHERE, rule="broad-except")
    assert findings == []
