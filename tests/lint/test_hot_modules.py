"""``hot-loop`` covers every module the vector path executes.

The rule is scoped by a fixed module list, so a per-access loop moved
into a helper module would escape it.  This test records which
``repro`` modules actually run while a vector-path epoch is live and
fails if ``HOT_MODULES`` misses any.

A module counts as executed when a ``call`` event for one of its code
objects fires while the root frame — the engine's per-kernel body,
which makes every epoch's bank call itself — is live.
"""

import sys
from pathlib import Path

import repro
from repro.arch import baseline, presets
from repro.lint.rules.hot_loop import HOT_MODULES
from repro.llc import DynamicLLC
from repro.sim import ORGANIZATIONS, simulate
from repro.workloads import BenchmarkSpec, KernelSpec, PhaseSpec
from repro.workloads.suite import get

SCALE = 1.0 / 64
DENSITY = 512

#: ``(module suffix, function name)`` of each root frame.
ROOTS = frozenset({("repro/sim/engine.py", "_run_kernel")})

PACKAGE = Path(repro.__file__).resolve().parent


def tiny_spec():
    phase = PhaseSpec(weight_true=0.4, weight_false=0.3, weight_private=0.3,
                      write_fraction=0.25)
    return BenchmarkSpec(
        name="hot-modules", suite="test", num_ctas=16, footprint_mb=8,
        true_shared_mb=2, false_shared_mb=2, preference="sm-side",
        kernels=(KernelSpec(name="k", phase=phase, epochs=3),), seed=11)


def module_of(filename):
    """``repro/<pkg>/<mod>.py`` for a file of the package, else None."""
    try:
        rel = Path(filename).resolve().relative_to(PACKAGE)
    except ValueError:
        return None
    return "repro/" + rel.as_posix()


def executed_modules(run):
    """``repro`` modules that ran under a live root frame during ``run``."""
    seen = set()
    depth = 0
    modules = {}

    def profile(frame, event, arg):
        nonlocal depth
        if event not in ("call", "return"):
            return
        code = frame.f_code
        filename = code.co_filename
        if filename not in modules:
            modules[filename] = module_of(filename)
        module = modules[filename]
        root = (module, code.co_name) in ROOTS
        if event == "call":
            depth += root
            if depth and module is not None:
                seen.add(module)
        elif root:
            depth -= 1

    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(None)
    assert depth == 0
    return seen


def vector_path_runs():
    spec = tiny_spec()
    for org in ORGANIZATIONS:
        stats = simulate(spec, org, scale=SCALE, accesses_per_epoch=DENSITY)
        assert stats.vector_epochs > 0, org
    # No floor on the remote allotment: staged epochs decline and rerun
    # on the serial engine from inside the batched kernel.
    num_chips = baseline().num_chips
    declined = simulate(get("BFS"), DynamicLLC(num_chips, min_remote_ways=0),
                        scale=SCALE, accesses_per_epoch=DENSITY)
    assert declined.scalar_epochs > 0
    simulate(spec, "sac", config=presets.with_sectored_llc(baseline()),
             scale=SCALE, accesses_per_epoch=DENSITY)


def test_hot_modules_cover_the_vector_path():
    seen = executed_modules(vector_path_runs)
    assert "repro/cache/vector.py" in seen
    missing = sorted(seen - set(HOT_MODULES))
    assert missing == [], (
        f"modules the vector path executes but hot-loop does not check: "
        f"{missing}; add them to HOT_MODULES in "
        f"repro/lint/rules/hot_loop.py")
