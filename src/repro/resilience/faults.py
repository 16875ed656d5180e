"""Deterministic fault injection for the execution layer.

Every recovery path in the supervised runner — worker respawns, task
retries, torn-payload quarantine — must be exercised by ordinary
tier-1 tests, and real nondeterminism (killing processes at random,
corrupting files with real races) would make those tests flaky by
construction.  A :class:`FaultPlan` instead *arms* named sites in the
production code to fire on the Nth hit of that site, so each failure is
injected at a precise, reproducible point of an otherwise ordinary run.

Site catalog (see ``docs/resilience.md``):

``worker.crash``
    Checked at the start of every supervised pool task (worker side).
    Firing hard-kills the worker process (``os._exit``), which the
    parent observes as a broken pool.
``worker.hang``
    Checked at the start of every supervised pool task.  Firing sleeps
    for the entry's value (default ``30.0`` seconds), long enough to
    trip any reasonable ``REPRO_TASK_TIMEOUT``, but finite so tests
    never leak a truly stuck process.
``cache.torn_payload``
    Checked after every successful :meth:`ResultCache.store`, keyed by
    the cache key.  Firing truncates the just-written payload,
    simulating a torn write that the next load must quarantine.

Arming.  ``REPRO_FAULTS`` holds a comma-separated list of entries::

    site[:key][@nth][*count][=value]

``site`` must be in :data:`SITES`.  ``key`` restricts the entry to
hits carrying that exact key (no key matches every hit).  ``nth``
(default 1) is the 1-based hit on which the entry starts firing;
``count`` (default 1) is how many consecutive hits fire (a bare ``*``
means every hit from ``nth`` on); ``value`` is a site-specific float
(e.g. the hang duration).  Programmatic arming uses
:func:`install`/:func:`armed` with a :class:`FaultPlan`, which takes
precedence over the environment.

Hit counters are per-process.  The process-fatal worker sites
(``worker.crash``/``worker.hang``) additionally honour a shared marker
directory (``REPRO_FAULT_STATE``): the first process to fire a given
entry claims it with an atomically created marker file, so a respawned
worker re-running the same task does not crash again forever.
"""

from __future__ import annotations

import hashlib
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, List, Optional, Tuple, Union

from ..core import flags

#: Every site a :class:`FaultPlan` may arm.
SITES = frozenset({
    "worker.crash",
    "worker.hang",
    "cache.torn_payload",
})

#: Sites whose firings are coordinated across processes through the
#: marker directory (they kill or stall the process that fires them, so
#: a per-process counter alone would re-fire in every respawned worker).
_MARKED_SITES = frozenset({"worker.crash", "worker.hang"})

#: Site-specific default values returned by :meth:`FaultPlan.fire` when
#: the armed entry carries no explicit ``=value``.
_DEFAULT_VALUES = {"worker.hang": 30.0}


@dataclass
class FaultEntry:
    """One armed site of a :class:`FaultPlan`."""

    site: str
    key: Optional[str] = None
    #: 1-based hit on which the entry starts firing.
    nth: int = 1
    #: Consecutive firing hits; ``None`` means unbounded.
    count: Optional[int] = 1
    #: Site-specific payload handed back by :meth:`FaultPlan.fire`.
    value: Optional[float] = None
    #: Process-local hit counter (not part of the armed identity).
    hits: int = field(default=0, compare=False)

    def __post_init__(self) -> None:
        if self.site not in SITES:
            raise ValueError(
                f"unknown fault site {self.site!r}; choose from "
                f"{sorted(SITES)}")
        if self.nth < 1:
            raise ValueError(f"nth must be >= 1, got {self.nth}")
        if self.count is not None and self.count < 1:
            raise ValueError(f"count must be >= 1, got {self.count}")

    @classmethod
    def parse(cls, text: str) -> "FaultEntry":
        """Parse one ``site[:key][@nth][*count][=value]`` entry."""
        spec = text.strip()
        value: Optional[float] = None
        count: Optional[int] = 1
        nth = 1
        try:
            if "=" in spec:
                spec, raw = spec.rsplit("=", 1)
                value = float(raw)
            if "*" in spec:
                spec, raw = spec.rsplit("*", 1)
                count = None if raw == "" else int(raw)
            if "@" in spec:
                spec, raw = spec.rsplit("@", 1)
                nth = int(raw)
        except ValueError as error:
            raise ValueError(
                f"malformed fault entry {text!r}: {error}") from None
        key: Optional[str] = None
        if ":" in spec:
            spec, key = spec.split(":", 1)
        return cls(site=spec, key=key, nth=nth, count=count, value=value)

    def matches(self, site: str, key: Optional[str]) -> bool:
        return self.site == site and (self.key is None or self.key == key)


class FaultPlan:
    """A set of armed fault entries with deterministic firing."""

    def __init__(self, entries: List[FaultEntry],
                 state_dir: Optional[Union[str, Path]] = None) -> None:
        self.entries = entries
        self.state_dir = Path(state_dir) if state_dir else None
        #: Fired events (site, key, firing index) for observability.
        self.fired: List[Tuple[str, Optional[str], int]] = []

    @classmethod
    def parse(cls, text: str,
              state_dir: Optional[Union[str, Path]] = None) -> "FaultPlan":
        """Build a plan from a ``REPRO_FAULTS``-style spec string."""
        entries = [FaultEntry.parse(part)
                   for part in text.split(",") if part.strip()]
        return cls(entries, state_dir=state_dir)

    def fire(self, site: str, key: Optional[str] = None) -> Optional[float]:
        """Record one hit of ``site``; return the entry value if it fires.

        Entries are consulted in arming order; the first entry whose
        firing window covers this hit wins (later matching entries are
        not charged a hit for this call).  Returns ``None`` when no
        entry fires.
        """
        for entry in self.entries:
            if not entry.matches(site, key):
                continue
            entry.hits += 1
            index = entry.hits - entry.nth
            if index < 0:
                continue
            if entry.count is not None and index >= entry.count:
                continue
            if site in _MARKED_SITES and self.state_dir is not None \
                    and not self._claim(self.state_dir, site, key, index):
                continue
            self.fired.append((site, key, index))
            if entry.value is not None:
                return entry.value
            return _DEFAULT_VALUES.get(site, 1.0)
        return None

    @staticmethod
    def _claim(state_dir: Path, site: str, key: Optional[str],
               index: int) -> bool:
        """Atomically claim one cross-process firing via a marker file."""
        state_dir.mkdir(parents=True, exist_ok=True)
        token = hashlib.sha256(
            f"{site}|{key}|{index}".encode("utf-8")).hexdigest()[:24]
        marker = state_dir / f"{token}.fired"
        try:
            with open(marker, "x", encoding="utf-8") as handle:
                handle.write(f"{site}:{key}:{index}\n")
        except FileExistsError:
            return False
        return True


_ACTIVE: Optional[FaultPlan] = None
_ENV_CACHE: Tuple[Tuple[str, str], Optional[FaultPlan]] = (("", ""), None)


def install(plan: Optional[FaultPlan]) -> None:
    """Arm ``plan`` process-wide (``None`` disarms programmatic plans)."""
    global _ACTIVE
    _ACTIVE = plan


def reset() -> None:
    """Disarm everything and drop the parsed-environment cache."""
    global _ACTIVE, _ENV_CACHE
    _ACTIVE = None
    _ENV_CACHE = (("", ""), None)


def active() -> Optional[FaultPlan]:
    """The armed plan: installed programmatically, else ``REPRO_FAULTS``."""
    if _ACTIVE is not None:
        return _ACTIVE
    spec = flags.read("REPRO_FAULTS")
    if not spec:
        return None
    state = flags.read("REPRO_FAULT_STATE")
    global _ENV_CACHE
    if _ENV_CACHE[0] != (spec, state):
        _ENV_CACHE = ((spec, state),
                      FaultPlan.parse(spec, state_dir=state or None))
    return _ENV_CACHE[1]


def fire(site: str, key: Optional[str] = None) -> Optional[float]:
    """Hit ``site`` on the active plan; ``None`` when nothing is armed.

    This is the single call production code embeds at each site; with
    no plan armed it is one dict lookup.
    """
    plan = active()
    if plan is None:
        return None
    return plan.fire(site, key)


@contextmanager
def armed(plan: Union[str, FaultPlan]) -> Iterator[FaultPlan]:
    """Context manager arming ``plan`` (spec string or plan) for a test."""
    resolved = FaultPlan.parse(plan) if isinstance(plan, str) else plan
    install(resolved)
    try:
        yield resolved
    finally:
        install(None)
