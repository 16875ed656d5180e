"""Output formats (--format text/github)."""

import textwrap

import pytest

from repro.lint.cli import main
from repro.lint.formats import render

_BAD = textwrap.dedent("""\
    def serve(addrs):
        for i in range(len(addrs)):
            touch(addrs[i])
    """)


@pytest.fixture
def tree(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    target = tmp_path / "repro" / "sim" / "engine.py"
    target.parent.mkdir(parents=True)
    return target


class TestGithubFormat:
    def test_error_annotation_lines(self, tree, capsys):
        tree.write_text(_BAD)
        assert main([str(tree.parents[1]), "--format", "github"]) == 1
        out = capsys.readouterr().out
        [annotation] = [l for l in out.splitlines()
                        if l.startswith("::error ")]
        assert "file=" in annotation and ",line=2,col=" in annotation
        assert "title=repro.lint hot-loop::" in annotation
        # The raw-log summary still prints after the annotations.
        assert "1 new finding(s)" in out

    def test_property_escaping(self, tree):
        # Messages with newlines/commas must stay one annotation line.
        from repro.lint.core import Finding, Severity
        from repro.lint.runner import Report

        report = Report()
        report.files_checked = 1
        report.new = [Finding(
            rule="hot-loop", severity=Severity.ERROR,
            path="a,b.py", line=1, column=0,
            message="bad: 50%\nreally")]
        out = render(report, "github")
        [annotation] = [l for l in out.splitlines()
                        if l.startswith("::error ")]
        assert "file=a%2Cb.py" in annotation
        # Data escaping covers %, CR and LF (colons are legal there).
        assert annotation.endswith("::bad: 50%25%0Areally")

    def test_unknown_format_raises(self):
        from repro.lint.runner import Report
        with pytest.raises(ValueError):
            render(Report(), "yaml")
