"""The committed tree itself satisfies the analyzer (acceptance gate)."""

from repro.lint import REGISTRY, run
from repro.lint.rules.config_validation import CONFIG_MODULES
from repro.lint.rules.dtype_discipline import DTYPE_MODULES
from repro.lint.rules.float_eq import TIMING_MODULES
from repro.lint.rules.hot_loop import HOT_MODULES
from repro.lint.rules.nondeterminism import KEY_MODULES

#: The module list of every path-scoped rule.
SCOPES = {
    "CONFIG_MODULES": CONFIG_MODULES,
    "DTYPE_MODULES": DTYPE_MODULES,
    "TIMING_MODULES": TIMING_MODULES,
    "HOT_MODULES": HOT_MODULES,
    "KEY_MODULES": KEY_MODULES,
}


def test_registry_has_all_project_rules():
    assert set(REGISTRY.names()) == {
        "broad-except", "config-validation", "dtype-discipline",
        "float-eq", "hot-loop", "mutable-default", "nondeterminism"}


def test_src_repro_is_clean(repo_root):
    report = run([repo_root / "src" / "repro"], root=repo_root)
    assert report.parse_errors == []
    rendered = "\n".join(f.render() for f in report.new)
    assert report.new == [], f"new lint findings:\n{rendered}"


def test_every_lint_scope_names_a_real_file(repo_root):
    # A scoped rule matches by path suffix, so an entry naming a
    # deleted or moved module silently checks nothing.
    stale = [(scope, module) for scope, modules in SCOPES.items()
             for module in modules
             if not (repo_root / "src" / module).is_file()]
    assert stale == []
