"""Report renderers — ``text`` (human) and ``github`` (CI).

``text`` is the default terminal output.  ``github`` emits `workflow
command`_ annotations (``::error``/``::warning``) so CI findings surface
inline on the pull-request diff, followed by the human summary for the
raw log.

.. _workflow command: https://docs.github.com/en/actions/reference
   /workflow-commands-for-github-actions
"""

from __future__ import annotations

from typing import List

from .core import Severity
from .runner import Report

#: Recognized ``--format`` values.
FORMATS = ("text", "github")


def summary_line(report: Report) -> str:
    return (
        f"repro.lint: {report.files_checked} files, "
        f"{len(report.new)} new finding(s), "
        f"{len(report.suppressed)} suppressed")


def render_text(report: Report, show_suppressed: bool = False,
                quiet: bool = False) -> str:
    lines: List[str] = []
    if not quiet:
        for finding in report.new:
            lines.append(finding.render())
        if show_suppressed:
            for finding in report.suppressed:
                lines.append(f"{finding.render()} (noqa)")
        for error in report.parse_errors:
            lines.append(f"parse error: {error}")
    lines.append(summary_line(report))
    return "\n".join(lines)


def _escape_property(value: str) -> str:
    """Escape a workflow-command property value (GitHub's own rules)."""
    return (value.replace("%", "%25").replace("\r", "%0D")
            .replace("\n", "%0A").replace(":", "%3A").replace(",", "%2C"))


def _escape_data(value: str) -> str:
    return (value.replace("%", "%25").replace("\r", "%0D")
            .replace("\n", "%0A"))


def render_github(report: Report) -> str:
    lines: List[str] = []
    for finding in report.new:
        level = "error" if finding.severity is Severity.ERROR \
            else "warning"
        lines.append(
            f"::{level} file={_escape_property(finding.path)},"
            f"line={finding.line},col={finding.column + 1},"
            f"title={_escape_property('repro.lint ' + finding.rule)}::"
            f"{_escape_data(finding.message)}")
    for error in report.parse_errors:
        lines.append(f"::error title=repro.lint parse error::"
                     f"{_escape_data(error)}")
    lines.append(summary_line(report))
    return "\n".join(lines)


def render(report: Report, fmt: str, show_suppressed: bool = False,
           quiet: bool = False) -> str:
    if fmt == "github":
        return render_github(report)
    if fmt == "text":
        return render_text(report, show_suppressed=show_suppressed,
                           quiet=quiet)
    raise ValueError(f"unknown format {fmt!r} (choose from "
                     f"{', '.join(FORMATS)})")
