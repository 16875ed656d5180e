"""Registry of every ``REPRO_*`` environment flag the package reads.

Every flag the package consumes is declared here once, as an
:class:`EnvFlag` with its default and a one-line contract, and every
read goes through :func:`read`, which applies that default.  No other
module under ``src/repro`` touches ``os.environ`` except to store a
CLI option for worker processes (``tests/core/test_flags.py`` checks
this), so a flag's name and default live in exactly one place.  The
README's flag table is generated from :func:`markdown_table`
(``python -m repro.core.flags``) and kept in sync by a test.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Dict, Tuple

__all__ = [
    "EnvFlag",
    "FLAGS",
    "declared",
    "declared_names",
    "markdown_table",
    "read",
]


@dataclass(frozen=True)
class EnvFlag:
    """One declared environment flag.

    ``name`` must start with ``REPRO_``; ``default`` is the value
    :func:`read` returns when the variable is unset (empty string means
    "feature off" for boolean-style flags); ``description`` is the
    one-line contract shown in the README table.
    """

    name: str
    default: str
    description: str

    def __post_init__(self) -> None:
        if not self.name.startswith("REPRO_"):
            raise ValueError(
                f"environment flag {self.name!r} must start with REPRO_")
        if not self.description.strip():
            raise ValueError(f"flag {self.name} needs a description")


#: Every environment flag the package reads, alphabetical by name.
FLAGS: Tuple[EnvFlag, ...] = (
    EnvFlag(
        "REPRO_FAULTS", "",
        "Comma-separated fault-injection entries "
        "(`site[:key][@nth][*count][=value]`) arming deterministic "
        "failures in the execution layer; see `docs/resilience.md`."),
    EnvFlag(
        "REPRO_FAULT_STATE", "",
        "Shared marker directory coordinating process-fatal fault sites "
        "(`worker.crash`/`worker.hang`) across respawned workers."),
    EnvFlag(
        "REPRO_JOBS", "",
        "Worker-process count for parallel matrices (`run_matrix`); the "
        "CLI's `--jobs` overrides it. Unset or empty runs serial."),
    EnvFlag(
        "REPRO_RETRIES", "2",
        "How many times the supervised runner re-queues a task whose "
        "worker crashed or timed out before quarantining it."),
    EnvFlag(
        "REPRO_STACKED", "1",
        "Set to `0` to disable stacked multi-config dispatch in "
        "`run_matrix` (every pending pair then simulates standalone)."),
    EnvFlag(
        "REPRO_TASK_TIMEOUT", "",
        "Per-task wall-clock budget (seconds, float) for supervised "
        "pool tasks; a worker exceeding it is treated as hung and its "
        "task retried. Unset disables the timeout."),
)

_BY_NAME: Dict[str, EnvFlag] = {flag.name: flag for flag in FLAGS}
if len(_BY_NAME) != len(FLAGS):
    raise RuntimeError("duplicate EnvFlag declarations in FLAGS")


def declared(name: str) -> EnvFlag:
    """The declaration of ``name``; raises ``KeyError`` when undeclared."""
    return _BY_NAME[name]


def declared_names() -> Tuple[str, ...]:
    """Every declared flag name, in table order."""
    return tuple(flag.name for flag in FLAGS)


def read(name: str) -> str:
    """Read ``name`` from the environment, applying the declared default.

    Only declared flags may be read through the registry — an
    undeclared name raises ``KeyError`` so a typo cannot silently
    return the default.
    """
    flag = _BY_NAME[name]
    value = os.environ.get(flag.name)
    return flag.default if value is None else value


def markdown_table() -> str:
    """The README's environment-flag table, generated from ``FLAGS``."""
    lines = ["| Flag | Default | Meaning |", "|---|---|---|"]
    for flag in FLAGS:
        default = f"`{flag.default}`" if flag.default else "*(unset)*"
        lines.append(f"| `{flag.name}` | {default} | {flag.description} |")
    return "\n".join(lines)


if __name__ == "__main__":  # pragma: no cover - convenience printer
    print(markdown_table())
