"""The environment-flag registry and its generated README table."""

import ast
import re
from pathlib import Path

import pytest

from repro.core import flags
from repro.resilience import supervisor

README = Path(__file__).resolve().parents[2] / "README.md"
PACKAGE = Path(flags.__file__).resolve().parents[1]

#: ``os`` attributes that read the process environment.
_ENV_READERS = frozenset({"environ", "environb", "getenv", "getenvb"})

_TABLE_RE = re.compile(
    r"<!-- env-flags:begin[^>]*-->\n(.*?)\n<!-- env-flags:end -->",
    re.DOTALL)


class TestRegistry:
    def test_names_are_prefixed_sorted_and_unique(self):
        names = flags.declared_names()
        assert len(set(names)) == len(names)
        assert list(names) == sorted(names)
        assert all(name.startswith("REPRO_") for name in names)

    def test_every_flag_has_a_description(self):
        assert all(flag.description.strip() for flag in flags.FLAGS)

    def test_bad_declarations_are_rejected(self):
        with pytest.raises(ValueError):
            flags.EnvFlag("NOT_PREFIXED", "", "whatever")
        with pytest.raises(ValueError):
            flags.EnvFlag("REPRO_NO_DESC", "", "   ")

    def test_read_applies_the_declared_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_RETRIES", raising=False)
        assert flags.read("REPRO_RETRIES") == \
            flags.declared("REPRO_RETRIES").default
        monkeypatch.setenv("REPRO_RETRIES", "7")
        assert flags.read("REPRO_RETRIES") == "7"

    def test_retries_default_matches_the_supervisor(self, monkeypatch):
        monkeypatch.delenv("REPRO_RETRIES", raising=False)
        assert flags.declared("REPRO_RETRIES").default == \
            str(supervisor.default_retries())

    def test_read_rejects_undeclared_names(self):
        with pytest.raises(KeyError):
            flags.read("REPRO_TYPO")

    def test_declared_lookup(self):
        assert flags.declared("REPRO_JOBS").name == "REPRO_JOBS"
        with pytest.raises(KeyError):
            flags.declared("REPRO_TYPO")


class TestReadmeTable:
    def test_readme_table_matches_the_registry(self):
        match = _TABLE_RE.search(README.read_text(encoding="utf-8"))
        assert match, "README.md lost its env-flags markers"
        assert match.group(1) == flags.markdown_table(), (
            "README env-flag table is stale — regenerate it with "
            "`python -m repro.core.flags` and paste between the "
            "env-flags markers")

    def test_table_lists_every_flag_once(self):
        table = flags.markdown_table()
        for name in flags.declared_names():
            assert table.count(f"| `{name}` |") == 1


def _environment_reads(tree):
    """Lines of ``tree`` that read the process environment directly.

    Any use of ``os.environ``/``os.getenv`` (under any alias of ``os``)
    counts, except as the target of an item store
    (``os.environ[name] = value``); so does any ``from os import
    environ``/``getenv``, whatever it is bound to.
    """
    os_names = {"os"} | {
        alias.asname for node in ast.walk(tree)
        if isinstance(node, ast.Import)
        for alias in node.names if alias.name == "os" and alias.asname}
    stores = {id(node.value) for node in ast.walk(tree)
              if isinstance(node, ast.Subscript)
              and isinstance(node.ctx, ast.Store)}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "os" and \
                any(alias.name in _ENV_READERS for alias in node.names):
            yield node.lineno
        elif isinstance(node, ast.Attribute) and \
                node.attr in _ENV_READERS and \
                isinstance(node.value, ast.Name) and \
                node.value.id in os_names and id(node) not in stores:
            yield node.lineno


def test_only_the_registry_reads_the_environment():
    offenders = [
        f"{path.relative_to(PACKAGE)}:{line}"
        for path in sorted(PACKAGE.rglob("*.py"))
        if path != PACKAGE / "core" / "flags.py"
        for line in _environment_reads(
            ast.parse(path.read_text(encoding="utf-8")))]
    assert offenders == [], (
        "read REPRO_* flags with repro.core.flags.read(), which applies "
        "the declared default: " + ", ".join(offenders))
