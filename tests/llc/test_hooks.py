"""Every organization hook has an override under ``src/repro``.

A method or property of :class:`LLCOrganization` that no organization
overrides is a hook that nothing uses: the engine calls it on every run
and it does nothing.  The abstract ``mode`` and ``plan`` and the dunders
are exempt.
"""

import importlib
import pkgutil

import repro
from repro.llc.base import LLCOrganization


def _organizations():
    """Every ``LLCOrganization`` subclass that ``repro`` defines (test
    subclasses do not count)."""
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if not info.name.endswith(".__main__"):
            importlib.import_module(info.name)
    pending = [LLCOrganization]
    while pending:
        for cls in pending.pop().__subclasses__():
            pending.append(cls)
            if cls.__module__.split(".")[0] == "repro":
                yield cls


def _hooks():
    """The base's methods and properties that a subclass may override."""
    for name, value in vars(LLCOrganization).items():
        if name.startswith("__") or \
                name in LLCOrganization.__abstractmethods__:
            continue
        if callable(value) or isinstance(value, property):
            yield name


def test_every_hook_has_an_override():
    organizations = list(_organizations())
    unused = [name for name in _hooks()
              if not any(name in vars(cls) for cls in organizations)]
    assert unused == [], (
        "no organization under src/repro overrides "
        + ", ".join(unused) + "; delete the hook and the engine's call")
