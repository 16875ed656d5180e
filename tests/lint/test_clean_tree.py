"""The committed tree itself satisfies the analyzer (acceptance gate)."""

from repro.lint import REGISTRY, run


def test_registry_has_all_project_rules():
    assert set(REGISTRY.names()) == {
        "bare-except", "broad-except", "config-validation",
        "dtype-discipline", "float-eq", "hot-loop", "mutable-default",
        "nondeterminism"}


def test_src_repro_is_clean(repo_root):
    report = run([repo_root / "src" / "repro"], root=repo_root)
    assert report.parse_errors == []
    rendered = "\n".join(f.render() for f in report.new)
    assert report.new == [], f"new lint findings:\n{rendered}"
