"""Persistent on-disk cache for simulation results.

Experiment matrices re-run the same (benchmark, organization, config)
pairs across pytest sessions, figure scripts and the CLI.  The in-process
memo in :mod:`repro.analysis.runner` only helps within one process; this
module adds a content-addressed store under ``.repro_cache/`` so a warm
cache survives process boundaries.

Keys are sha256 hashes of a *structural* encoding of every input that
can change the simulation outcome (spec, organization, config, scale,
density, engine params).  Dataclasses are encoded field by field, so two
structurally equal configs produce the same key regardless of object
identity.

The store is versioned: payloads live under ``<root>/v<SCHEMA_VERSION>/``
and bumping ``SCHEMA_VERSION`` (whenever ``RunStats`` or the timing
model changes shape) makes every old entry invisible; stale version
directories are deleted lazily the first time the new version opens the
root.  Writes are atomic (temp file + ``os.replace``) so a crashed or
parallel writer can never leave a torn payload.  Unreadable payloads
are treated as misses, but instead of being deleted they are moved to
``<root>/quarantine/`` — a torn or incompatible payload is evidence of
a writer bug or a schema drift, and the bytes are the forensics.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import pickle
import shutil
import tempfile
from pathlib import Path
from typing import Optional, Union

from ..resilience.faults import fire
from ..sim.engine import EngineParams
from ..sim.stats import KernelStats, RunStats

#: Bump whenever the timing model or the RunStats schema changes in a way
#: that makes previously stored results wrong or unreadable.
SCHEMA_VERSION = 1


def schema_token() -> str:
    """Fingerprint of the result/parameter schema, folded into every key.

    Derived from ``SCHEMA_VERSION`` plus the *field lists* of the
    dataclasses whose shape determines what a stored payload means:
    :class:`RunStats`, :class:`KernelStats` and :class:`EngineParams`.
    Adding, removing or renaming a field changes the token, so stored
    results from a different code shape miss automatically even when
    nobody remembered to bump ``SCHEMA_VERSION``.  Field lists are taken
    in declaration order (a reordering is deliberately *not* a schema
    change for pickled payloads, but declaration order is deterministic,
    so the token is stable across processes either way).
    """
    parts = [f"schema_version={SCHEMA_VERSION}"]
    for cls in (RunStats, KernelStats, EngineParams):
        names = ",".join(f.name for f in dataclasses.fields(cls))
        parts.append(f"{cls.__qualname__}({names})")
    return hashlib.sha256(
        ";".join(parts).encode("utf-8")).hexdigest()[:16]

#: Cache root (relative to the working directory) of the CLI's bare
#: ``--cache-dir``.
DEFAULT_CACHE_DIR = ".repro_cache"


def _encode(value: object) -> object:
    """Stable, JSON-serializable structural encoding of ``value``."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            "__dataclass__": type(value).__qualname__,
            "fields": {
                f.name: _encode(getattr(value, f.name))
                for f in dataclasses.fields(value)
            },
        }
    if isinstance(value, dict):
        return {"__dict__": sorted(
            (str(k), _encode(v)) for k, v in value.items())}
    if isinstance(value, (list, tuple)):
        return [_encode(item) for item in value]
    if isinstance(value, float):
        # repr round-trips floats exactly; avoids json float formatting
        # drift across python versions.
        return {"__float__": repr(value)}
    if value is None or isinstance(value, (bool, int, str)):
        return value
    # Last resort: objects with a stable repr (enums, paths).  Callables
    # and open-ended objects are rejected so keys stay deterministic.
    if callable(value):
        raise TypeError(
            f"cannot build a cache key from callable {value!r}")
    return {"__repr__": f"{type(value).__qualname__}:{value!r}"}


def content_key(**parts: object) -> str:
    """sha256 hex digest of the structural encoding of ``parts``.

    The current :func:`schema_token` is folded into every key, so a
    change to the ``RunStats``/``KernelStats``/``EngineParams`` field
    lists invalidates old entries even without a ``SCHEMA_VERSION`` bump.
    """
    encoded = {name: _encode(value) for name, value in sorted(parts.items())}
    encoded["__schema__"] = schema_token()
    payload = json.dumps(
        encoded, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


class ResultCache:
    """Content-addressed on-disk store for :class:`RunStats` payloads."""

    def __init__(self, root: Union[str, Path]) -> None:
        self.root = Path(root)
        self.version_dir = self.root / f"v{SCHEMA_VERSION}"
        # Quarantine lives beside (not under) the version dir so stale
        # schema eviction and ``clear()`` leave the forensics alone.
        self.quarantine_dir = self.root / "quarantine"
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.quarantined = 0
        self._opened = False

    # -- Layout -------------------------------------------------------------

    def _open(self) -> None:
        """Create the version directory and evict stale schema versions."""
        if self._opened:
            return
        self.version_dir.mkdir(parents=True, exist_ok=True)
        for entry in self.root.iterdir():
            if (entry.is_dir() and entry.name.startswith("v")
                    and entry != self.version_dir):
                shutil.rmtree(entry, ignore_errors=True)
        self._opened = True

    def _path(self, key: str) -> Path:
        # Two-level fan-out keeps directory listings short at scale.
        return self.version_dir / key[:2] / f"{key}.pkl"

    # -- Access -------------------------------------------------------------

    def load(self, key: str) -> Optional[RunStats]:
        """Return the stored result for ``key``, or None on a miss.

        Corrupt or unreadable payloads count as misses and are moved to
        the quarantine directory for later inspection.
        """
        self._open()
        path = self._path(key)
        try:
            with path.open("rb") as handle:
                stats = pickle.load(handle)
        except FileNotFoundError:
            self.misses += 1
            return None
        except (OSError, pickle.UnpicklingError, EOFError, AttributeError,
                ImportError, IndexError):
            # Torn write or a payload from an incompatible code state.
            self._quarantine(path)
            self.misses += 1
            return None
        if not isinstance(stats, RunStats):
            self._quarantine(path)
            self.misses += 1
            return None
        self.hits += 1
        return stats

    def _quarantine(self, path: Path) -> None:
        """Move an unreadable payload aside instead of deleting it."""
        self.quarantine_dir.mkdir(parents=True, exist_ok=True)
        try:
            os.replace(path, self.quarantine_dir / path.name)
        except OSError:
            # A concurrent reader already moved (or removed) it; either
            # way the payload is out of the hot path.
            path.unlink(missing_ok=True)
        self.quarantined += 1

    def store(self, key: str, stats: RunStats) -> None:
        """Persist ``stats`` under ``key`` atomically."""
        self._open()
        path = self._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp_name = tempfile.mkstemp(
            prefix=f".{key[:8]}-", suffix=".tmp", dir=path.parent)
        # try/finally instead of a broad except: nothing is swallowed
        # (KeyboardInterrupt/SystemExit propagate untouched) and the
        # temp file is reaped on every exit path — after a successful
        # ``os.replace`` the unlink is a no-op ENOENT.
        try:
            with os.fdopen(fd, "wb") as handle:
                pickle.dump(stats, handle, protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(tmp_name, path)
        finally:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
        self.stores += 1
        if fire("cache.torn_payload", key=key) is not None:
            # Injected fault: truncate the payload we just committed,
            # simulating a torn write for the next reader to quarantine.
            path.write_bytes(path.read_bytes()[:16])

    def clear(self) -> None:
        """Delete every entry of the current schema version."""
        shutil.rmtree(self.version_dir, ignore_errors=True)
        self._opened = False

    def __len__(self) -> int:
        if not self.version_dir.is_dir():
            return 0
        return sum(1 for _ in self.version_dir.glob("*/*.pkl"))
