"""Good/bad fixture pairs for the two cross-module project rules."""

import textwrap

from repro.lint.rules.reachable_hot_loop import ReachableHotLoopRule
from repro.lint.rules.shared_encoding_alias import SharedEncodingAliasRule

from .conftest import project_graph


def findings_of(rule, files):
    return list(rule.check_project(project_graph(files)))


ENCODING_MODULE = textwrap.dedent("""\
    import numpy as np
    from typing import NamedTuple, Tuple
    class _BucketEncoding(NamedTuple):
        idx: np.ndarray
        pi_chain: np.ndarray
        mwidth: int
    class _StreamEncoding(NamedTuple):
        n: int
        buckets: Tuple[_BucketEncoding, ...]
    """)


BAD_REPLAY = textwrap.dedent("""\
    def _replay(enc: _StreamEncoding) -> None:
        bk = enc.buckets[0]
        bk.idx[0] = 7
        bk.idx.sort()
        np.put(bk.pi_chain, 0, 1)
        bk.idx.flags.writeable = True
        np.add(bk.idx, 1, out=bk.idx)
    """)

GOOD_REPLAY = textwrap.dedent("""\
    def _replay(enc: _StreamEncoding) -> None:
        bk = enc.buckets[0]
        pi = bk.pi_chain.copy()
        pi[0] = 3
        pi.sort()
        local = np.array(bk.idx)
        local += 1
        total = bk.idx.sum()
    """)

AUG_REPLAY = textwrap.dedent("""\
    def _replay(bk: _BucketEncoding) -> None:
        bk.idx[0] += 1
    """)

LANE_MODULE = textwrap.dedent("""\
    class _LaneEncoding(NamedTuple):
        lanes: int
        n: int
        buckets: Tuple[_BucketEncoding, ...]
    """)

BAD_LANE_REPLAY = textwrap.dedent("""\
    def _replay_lanes(lenc: _LaneEncoding, k: int) -> None:
        bk = lenc.buckets[0]
        bk.idx[k] = 7
    """)

GOOD_LANE_REPLAY = textwrap.dedent("""\
    def _replay_lanes(lenc: _LaneEncoding, k: int) -> None:
        bk = lenc.buckets[0]
        rows = bk.idx.copy()
        rows[k] = 7
    """)


class TestSharedEncodingAlias:
    def test_bad_mutations_are_flagged(self):
        findings = findings_of(SharedEncodingAliasRule(), {
            "src/repro/cache/vector.py": ENCODING_MODULE + BAD_REPLAY,
        })
        assert len(findings) == 5
        assert {f.rule for f in findings} == {"shared-encoding-alias"}

    def test_good_copy_idiom_passes(self):
        findings = findings_of(SharedEncodingAliasRule(), {
            "src/repro/cache/vector.py": ENCODING_MODULE + GOOD_REPLAY,
        })
        assert findings == []

    def test_mutation_in_another_module_is_flagged(self):
        findings = findings_of(SharedEncodingAliasRule(), {
            "src/repro/cache/vector.py": ENCODING_MODULE,
            "src/repro/sim/stacked.py": """\
                from ..cache.vector import _StreamEncoding
                def poke(enc: _StreamEncoding):
                    enc.buckets[0].idx[3] = 9
                """,
        })
        assert len(findings) == 1
        assert findings[0].path == "src/repro/sim/stacked.py"

    def test_augmented_assign_is_flagged(self):
        findings = findings_of(SharedEncodingAliasRule(), {
            "src/repro/cache/vector.py": ENCODING_MODULE + AUG_REPLAY,
        })
        assert len(findings) == 1

    def test_bad_cross_lane_write_is_flagged(self):
        # The lane-stacked tiling (_LaneEncoding) is shared exactly like
        # the stream encoding it derives from: an in-place write through
        # one lane's view corrupts every sibling lane of the batched
        # replay.
        findings = findings_of(SharedEncodingAliasRule(), {
            "src/repro/cache/vector.py":
                ENCODING_MODULE + LANE_MODULE + BAD_LANE_REPLAY,
        })
        assert len(findings) == 1
        assert findings[0].rule == "shared-encoding-alias"
        assert "subscript store" in findings[0].message

    def test_good_lane_copy_idiom_passes(self):
        findings = findings_of(SharedEncodingAliasRule(), {
            "src/repro/cache/vector.py":
                ENCODING_MODULE + LANE_MODULE + GOOD_LANE_REPLAY,
        })
        assert findings == []

    def test_silent_without_encoding_classes(self):
        findings = findings_of(SharedEncodingAliasRule(), {
            "src/repro/sim/other.py": """\
                def f(arr):
                    arr[0] = 1
                """,
        })
        assert findings == []


class TestReachableHotLoop:
    ENGINE = """\
        from ..util import crunch
        class SimulationEngine:
            def _run_epoch_batched(self):
                crunch([1, 2])
        """

    def test_bad_reachable_helper_loop_is_flagged(self):
        findings = findings_of(ReachableHotLoopRule(), {
            "src/repro/sim/engine.py": self.ENGINE,
            "src/repro/util.py": """\
                def crunch(addrs):
                    for a in addrs:
                        touch(a)
                """,
        })
        assert len(findings) == 1
        assert findings[0].rule == "reachable-hot-loop"
        assert findings[0].path == "src/repro/util.py"

    def test_good_unreachable_loop_passes(self):
        findings = findings_of(ReachableHotLoopRule(), {
            "src/repro/sim/engine.py": self.ENGINE,
            "src/repro/util.py": """\
                def crunch(addrs):
                    return len(addrs)
                def offline_report(addrs):
                    for a in addrs:
                        print(a)
                """,
        })
        assert findings == []

    def test_hot_modules_are_left_to_the_per_file_rule(self):
        # engine.py is HOT_MODULES turf; no double reporting.
        findings = findings_of(ReachableHotLoopRule(), {
            "src/repro/sim/engine.py": """\
                class SimulationEngine:
                    def _run_epoch_batched(self):
                        for a in self.addrs:
                            pass
                """,
        })
        assert findings == []

    def test_silent_without_roots(self):
        findings = findings_of(ReachableHotLoopRule(), {
            "src/repro/util.py": """\
                def crunch(addrs):
                    for a in addrs:
                        pass
                """,
        })
        assert findings == []
