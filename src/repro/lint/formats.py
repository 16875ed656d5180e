"""Report renderers — ``text`` (human), ``json`` (tooling), ``github``.

``text`` is the default terminal output.  ``json`` emits one stable
document (format tag ``repro.lint-report/1``) with every bucket fully
serialized, fingerprints included, for scripting against.  ``github``
emits `workflow command`_ annotations (``::error``/``::warning``) so CI
findings surface inline on the pull-request diff, followed by the
human summary for the raw log.

.. _workflow command: https://docs.github.com/en/actions/reference
   /workflow-commands-for-github-actions
"""

from __future__ import annotations

import json
from typing import Dict, List

from .core import Finding, Severity
from .runner import Report

#: Recognized ``--format`` values.
FORMATS = ("text", "json", "github")


def summary_line(report: Report) -> str:
    return (
        f"repro.lint: {report.files_checked} files, "
        f"{len(report.new)} new finding(s), "
        f"{len(report.baselined)} baselined, "
        f"{len(report.suppressed)} suppressed, "
        f"{len(report.stale_baseline)} stale baseline entr"
        f"{'y' if len(report.stale_baseline) == 1 else 'ies'}")


def render_text(report: Report, show_suppressed: bool = False,
                quiet: bool = False) -> str:
    lines: List[str] = []
    if not quiet:
        for finding in report.new:
            lines.append(finding.render())
        for finding in report.baselined:
            lines.append(f"{finding.render()} (baselined)")
        if show_suppressed:
            for finding in report.suppressed:
                lines.append(f"{finding.render()} (noqa)")
        for fp in report.stale_baseline:
            lines.append(f"stale baseline entry {fp}: no longer matches "
                         f"anything (remove it, or run --prune-baseline)")
        for error in report.parse_errors:
            lines.append(f"parse error: {error}")
    lines.append(summary_line(report))
    return "\n".join(lines)


def _finding_payload(finding: Finding) -> Dict[str, object]:
    return {
        "rule": finding.rule,
        "severity": finding.severity.value,
        "path": finding.path,
        "line": finding.line,
        "column": finding.column,
        "message": finding.message,
        "fingerprint": finding.fingerprint(),
    }


def render_json(report: Report) -> str:
    payload: Dict[str, object] = {
        "format": "repro.lint-report/1",
        "failed": report.failed,
        "files_checked": report.files_checked,
        "files_analyzed": report.files_analyzed,
        "new": [_finding_payload(f) for f in report.new],
        "baselined": [_finding_payload(f) for f in report.baselined],
        "suppressed": [_finding_payload(f) for f in report.suppressed],
        "stale_baseline": list(report.stale_baseline),
        "parse_errors": list(report.parse_errors),
    }
    return json.dumps(payload, indent=2)


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
    if fmt == "json":
        return render_json(report)
    if fmt == "github":
        return render_github(report)
    if fmt == "text":
        return render_text(report, show_suppressed=show_suppressed,
                           quiet=quiet)
    raise ValueError(f"unknown format {fmt!r} (choose from "
                     f"{', '.join(FORMATS)})")
