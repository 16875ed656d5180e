"""Outside-in layer tracer for the benchmark's traced passes.

The tracer times the public entry points of each ``repro`` layer by
patching them from here, where their callers look them up, so the
program itself carries no tracing code and untraced passes pay nothing.

Three kinds of wrapper:

* ``SPAN``: calls made once per run, kernel or epoch.  Each is recorded
  as a span (id, parent, name, start, end) and pushes a frame.
* ``CALL``: calls that can happen per cache slice or per result.  They
  push no frame; their count and time are aggregated on the enclosing
  span.
* ``ACCESS``: calls made once per simulated access.  Like ``CALL``, but
  only every :data:`SAMPLE_EVERY`-th call is timed and charged that many
  times over: the count is exact, the time an estimate, and the wrapper
  costs a fraction of a timed one.  These functions call no other
  wrapped function.

A layer's *self time* is its time minus that of wrapped calls made
inside it, so the self times of all layers, the benchmark's own root
frames included, add up to the traced wall.  Spans stay in memory;
:meth:`Tracer.write_chrome` exports them as Chrome trace-event JSON,
which Perfetto opens.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import time
from pathlib import Path
from typing import Any, Callable, Dict, Generator, List, Optional, Tuple

SPAN, CALL, ACCESS = "span", "call", "access"

#: ``ACCESS`` wrappers time one call in this many.
SAMPLE_EVERY = 8

#: Extracts the rows (accesses) a bank call resolves from its arguments.
RowCount = Callable[[Tuple[Any, ...], Dict[str, Any]], int]


def _rows_grouped(args: Tuple[Any, ...], kwargs: Dict[str, Any]) -> int:
    return len(kwargs["addrs"] if "addrs" in kwargs else args[2])


def _rows_staged(args: Tuple[Any, ...], kwargs: Dict[str, Any]) -> int:
    return len(kwargs["addrs"] if "addrs" in kwargs else args[1])


def _rows_shared(args: Tuple[Any, ...], kwargs: Dict[str, Any]) -> int:
    calls = kwargs["calls"] if "calls" in kwargs else args[1]
    return sum(len(call.addrs) for call in calls)


#: (module, attribute, layer, kind, row counter).  The module is where
#: the *caller* looks the name up: the runner imports ``content_key``,
#: ``simulate`` and ``simulate_stacked`` into its own namespace, and the
#: benchmark calls ``repro.sim.run.simulate`` and
#: ``repro.analysis.runner.run_matrix`` through their modules.
TARGETS: Tuple[Tuple[str, str, str, str, Optional[RowCount]], ...] = (
    ("repro.sim.run", "simulate", "sim.simulate", SPAN, None),
    ("repro.analysis.runner", "simulate", "sim.simulate", SPAN, None),
    ("repro.analysis.runner", "simulate_stacked", "sim.stacked", SPAN, None),
    ("repro.analysis.runner", "run_matrix", "analysis.runner", SPAN, None),
    ("repro.analysis.runner", "content_key", "analysis.key", CALL, None),
    ("repro.analysis.diskcache", "ResultCache.load", "analysis.disk_load",
     CALL, None),
    ("repro.analysis.diskcache", "ResultCache.store", "analysis.disk_store",
     CALL, None),
    ("repro.resilience.manifest", "SweepManifest.load",
     "resilience.manifest", CALL, None),
    ("repro.resilience.manifest", "SweepManifest.mark_done",
     "resilience.manifest", CALL, None),
    ("repro.resilience.supervisor", "Supervisor.run",
     "resilience.supervisor", SPAN, None),
    ("repro.workloads.generator", "TraceGenerator.kernels",
     "workloads.trace", SPAN, None),
    ("repro.sim.engine", "SimulationEngine.__init__", "sim.build", SPAN, None),
    ("repro.sim.engine", "SimulationEngine.run", "sim.engine", SPAN, None),
    ("repro.sim.engine", "SimulationEngine.flush_llc", "sim.flush", SPAN,
     None),
    ("repro.cache.vector", "VectorBank.access_many_grouped", "cache.solve",
     SPAN, _rows_grouped),
    ("repro.cache.vector", "VectorBank.access_many_staged", "cache.solve",
     SPAN, _rows_staged),
    ("repro.cache.vector", "VectorBank.access_many_grouped_shared",
     "cache.shared_solve", SPAN, _rows_shared),
    ("repro.cache.vector", "VectorBank.access_many_staged_shared",
     "cache.shared_solve", SPAN, _rows_shared),
    ("repro.cache.vector", "VectorCache.access", "cache.scalar", ACCESS,
     None),
    ("repro.cache.vector", "VectorCache.fill", "cache.scalar", ACCESS, None),
    ("repro.cache.cache", "SetAssociativeCache.access", "cache.scalar",
     ACCESS, None),
    ("repro.cache.cache", "SetAssociativeCache.fill", "cache.scalar", ACCESS,
     None),
    # ``VectorCache.flush`` and ``invalidate_partition`` both delegate
    # to ``drain``, so wrapping it alone counts each drain once.
    ("repro.cache.vector", "VectorCache.drain", "cache.drain", CALL, None),
    ("repro.core.sac", "SharingAwareCaching.observe_batch", "core.sac",
     CALL, None),
    ("repro.core.sac", "SharingAwareCaching.profile_boundary", "core.sac",
     CALL, None),
    ("repro.memory.pages", "PageTable.bulk_home", "memory.home", CALL, None),
    ("repro.memory.pages", "PageTable.lookup", "memory.home", ACCESS, None),
    ("repro.memory.pages", "PageTable.home_chip", "memory.home", ACCESS,
     None),
)

#: Organization hooks, wrapped on every ``LLCOrganization`` class that
#: defines them (DynamicLLC's repartitions run inside ``end_epoch``).
HOOKS = ("begin_kernel", "end_kernel", "begin_epoch", "end_epoch")
HOOK_MODULES = ("repro.llc.organizations", "repro.llc.ladm", "repro.core.sac")

#: The benchmark's own root frames; their self time is the part of the
#: traced wall that no layer accounts for.
ROOTS = ("bench.setup", "bench.run")

#: Layer -> (self-time metric, count metric).
LAYER_METRICS: Dict[str, Tuple[str, Optional[str]]] = {
    "workloads.trace": ("workloads.trace_s", "workloads.pulls"),
    "cache.solve": ("cache.solve_s", "cache.calls"),
    "cache.shared_solve": ("cache.shared_solve_s", "cache.shared_calls"),
    "cache.scalar": ("cache.scalar_s", "cache.scalar_calls"),
    "cache.drain": ("cache.drain_s", "cache.drains"),
    "sim.simulate": ("sim.simulate_self_s", None),
    "sim.engine": ("sim.engine_self_s", None),
    "sim.stacked": ("sim.stacked_self_s", None),
    "sim.build": ("sim.build_s", "sim.runs"),
    "sim.flush": ("sim.flush_s", None),
    "llc.hooks": ("llc.hooks_s", None),
    "core.sac": ("core.sac_s", None),
    "memory.home": ("memory.home_s", None),
    "analysis.runner": ("analysis.runner_self_s", None),
    "analysis.key": ("analysis.key_s", "analysis.keys"),
    "analysis.disk_load": ("analysis.disk_load_s", "analysis.disk_loads"),
    "analysis.disk_store": ("analysis.disk_store_s", "analysis.disk_stores"),
    "resilience.manifest": ("resilience.manifest_s", None),
    "resilience.supervisor": ("resilience.supervisor_self_s", None),
}

# Frame slots: [seconds of wrapped calls inside, aggregated calls
# {layer: [count, seconds]}, span id].
_CHILD, _COUNTS, _SPAN = range(3)

Span = Tuple[int, Optional[int], str, float, float, Dict[str, List[float]]]


class Tracer:
    """Records layer frames while :meth:`install` has the targets patched."""

    def __init__(self) -> None:
        #: (id, parent id, layer, start, end, {aggregated layer: [n, s]}).
        self.spans: List[Span] = []
        #: layer -> [self seconds, calls, rows].
        self.totals: Dict[str, List[float]] = {}
        # The bottom frame catches calls made outside every root.
        self._stack: List[List[Any]] = [[0.0, {}, None]]
        self._ids = itertools.count(1)
        self._patched: List[Tuple[Any, str, Any]] = []

    def call(self, layer: str, fn: Callable[[], Any]) -> Any:
        """Run ``fn`` inside a root span named ``layer``."""
        return self.wrap(fn, layer, SPAN)()

    # -- Wrappers -----------------------------------------------------------

    def wrap(self, fn: Callable[..., Any], layer: str, kind: str = SPAN,
             rows: Optional[RowCount] = None) -> Callable[..., Any]:
        """``fn`` timed as a call of ``layer``; generator functions get
        each resume timed."""
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(fn, layer)
        stack = self._stack
        totals = self.totals.setdefault(layer, [0.0, 0, 0])
        clock = time.perf_counter
        if kind == ACCESS:
            return _access_wrapper(fn, layer, stack, totals, clock)
        if kind == CALL:
            return _call_wrapper(fn, layer, stack, totals, clock)
        spans = self.spans
        ids = self._ids

        @functools.wraps(fn)
        def span(*args: Any, **kwargs: Any) -> Any:
            parent = stack[-1]
            frame = [0.0, {}, next(ids)]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                parent[_CHILD] += duration
                totals[0] += duration - frame[_CHILD]
                totals[1] += 1
                if rows is not None:
                    totals[2] += rows(args, kwargs)
                spans.append((frame[_SPAN], parent[_SPAN], layer, start, end,
                              frame[_COUNTS]))
        return span

    def _wrap_generator(self, fn: Callable[..., Any],
                        layer: str) -> Callable[..., Any]:
        """Time each resume of the generators ``fn`` returns as a span.

        ``send`` values, ``throw``-n exceptions and ``close`` reach the
        wrapped generator unchanged: a caller that drives the generator
        protocol must observe exactly what it would without the tracer.
        """
        resume = self.wrap(_resume, layer)

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            return _forward(fn(*args, **kwargs), resume)
        return wrapper

    # -- Patching -----------------------------------------------------------

    def install(self) -> None:
        """Patch every target; :meth:`uninstall` restores the originals."""
        for module_name, attr_path, layer, kind, rows in TARGETS:
            owner: Any = importlib.import_module(module_name)
            owner_path, _, attr = attr_path.rpartition(".")
            if owner_path:
                owner = getattr(owner, owner_path)
            self._patch(owner, attr, layer, kind, rows)
        for module_name in HOOK_MODULES:
            importlib.import_module(module_name)
        from repro.llc.base import LLCOrganization
        for cls in _subclasses(LLCOrganization):
            for hook in HOOKS:
                if hook in cls.__dict__:
                    self._patch(cls, hook, "llc.hooks", CALL, None)

    def _patch(self, owner: Any, attr: str, layer: str, kind: str,
               rows: Optional[RowCount]) -> None:
        original = (owner.__dict__[attr] if isinstance(owner, type)
                    else getattr(owner, attr))
        self._patched.append((owner, attr, original))
        setattr(owner, attr, self.wrap(original, layer, kind, rows))

    def uninstall(self) -> None:
        """Restore every patched attribute."""
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- Results ------------------------------------------------------------

    def wall(self) -> float:
        """Traced wall: the summed durations of the root spans."""
        return sum(end - start for _i, _p, layer, start, end, _c
                   in self.spans if layer in ROOTS)

    def self_times(self) -> Dict[str, float]:
        """Self seconds per layer, roots included; they sum to the wall."""
        return {layer: t[0] for layer, t in self.totals.items() if t[1]}

    def layer_metrics(self) -> Dict[str, float]:
        """Every per-layer metric a trace yields, zero where the layer
        did no work."""
        metrics: Dict[str, float] = {}
        zero = [0.0, 0, 0]
        for layer, (time_name, count_name) in LAYER_METRICS.items():
            t = self.totals.get(layer, zero)
            metrics[time_name] = t[0]
            if count_name is not None:
                metrics[count_name] = t[1]
        solve = self.totals.get("cache.solve", zero)
        metrics["cache.rows"] = solve[2]
        metrics["cache.shared_rows"] = self.totals.get(
            "cache.shared_solve", zero)[2]
        metrics["cache.rows_per_s"] = solve[2] / solve[0] if solve[0] else 0.0
        wall = self.wall()
        unattributed = sum(self.totals.get(r, zero)[0] for r in ROOTS)
        metrics["trace.unattributed_share"] = \
            unattributed / wall if wall else 0.0
        return metrics

    def write_chrome(self, path: Path) -> None:
        """Write the spans as Chrome trace-event JSON (Perfetto opens it)."""
        origin = min((s[3] for s in self.spans), default=0.0)
        events = [{
            "name": layer, "cat": layer.split(".")[0], "ph": "X",
            "ts": (start - origin) * 1e6, "dur": (end - start) * 1e6,
            "pid": 1, "tid": 1,
            "args": {"id": span_id, "parent": parent,
                     **{name: {"calls": n, "seconds": s}
                        for name, (n, s) in counts.items()}},
        } for span_id, parent, layer, start, end, counts in self.spans]
        events.sort(key=lambda e: (e["ts"], -e["dur"]))
        path.write_text(json.dumps(
            {"traceEvents": events, "displayTimeUnit": "ms"}))


def _call_wrapper(fn: Callable[..., Any], layer: str,
                  stack: List[List[Any]], totals: List[float],
                  clock: Callable[[], float]) -> Callable[..., Any]:
    """Time every call without pushing a frame.

    Wrapped calls made inside this one charge the enclosing frame; the
    wrapper takes that time back out of its own.
    """
    @functools.wraps(fn)
    def call(*args: Any, **kwargs: Any) -> Any:
        parent = stack[-1]
        before = parent[_CHILD]
        start = clock()
        try:
            return fn(*args, **kwargs)
        finally:
            duration = clock() - start
            nested = parent[_CHILD] - before
            parent[_CHILD] = before + duration
            totals[0] += duration - nested
            totals[1] += 1
            _aggregate(parent[_COUNTS], layer, 1, duration)
    return call


def _access_wrapper(fn: Callable[..., Any], layer: str,
                    stack: List[List[Any]], totals: List[float],
                    clock: Callable[[], float]) -> Callable[..., Any]:
    """Count every call; time one in :data:`SAMPLE_EVERY`, charged that
    many times over.

    The wrapper is generated with ``fn``'s own parameter list: forwarding
    ``*args, **kwargs`` costs about three times as much per call, which
    on the serial per-access engine is most of the tracing overhead.
    """
    def timed(*args: Any) -> Any:
        start = clock()
        try:
            return fn(*args)
        finally:
            estimate = (clock() - start) * SAMPLE_EVERY
            parent = stack[-1]
            parent[_CHILD] += estimate
            totals[0] += estimate
            _aggregate(parent[_COUNTS], layer, SAMPLE_EVERY, estimate)

    params = list(inspect.signature(fn).parameters.values())
    if any(p.kind is not p.POSITIONAL_OR_KEYWORD for p in params):
        raise TypeError(f"{fn.__qualname__}: per-access wrappers forward "
                        "plain positional-or-keyword parameters only")
    namespace: Dict[str, Any] = {"_fn": fn, "_timed": timed,
                                 "_totals": totals, "_every": SAMPLE_EVERY}
    header = []
    for p in params:
        if p.default is p.empty:
            header.append(p.name)
        else:
            namespace[f"_default_{p.name}"] = p.default
            header.append(f"{p.name}=_default_{p.name}")
    names = ", ".join(p.name for p in params)
    exec(f"def access({', '.join(header)}):\n"
         f"    calls = _totals[1] = _totals[1] + 1\n"
         f"    if calls % _every:\n"
         f"        return _fn({names})\n"
         f"    return _timed({names})\n", namespace)
    access: Callable[..., Any] = functools.wraps(fn)(namespace["access"])
    return access


def _aggregate(counts: Dict[str, List[float]], layer: str, calls: int,
               seconds: float) -> None:
    entry = counts.get(layer)
    if entry is None:
        counts[layer] = [calls, seconds]
    else:
        entry[0] += calls
        entry[1] += seconds


def _resume(gen: Generator[Any, Any, Any], value: Any,
            error: Optional[BaseException]) -> Any:
    if error is not None:
        return gen.throw(error)
    return gen.send(value)


def _forward(gen: Generator[Any, Any, Any],
             resume: Callable[..., Any]) -> Generator[Any, Any, Any]:
    """Drive ``gen`` through ``resume``, forwarding the generator protocol."""
    value: Any = None
    error: Optional[BaseException] = None
    while True:
        try:
            item = resume(gen, value, error)
        except StopIteration as stop:
            return stop.value
        value, error = None, None
        try:
            value = yield item
        except GeneratorExit:
            gen.close()
            raise
        except BaseException as thrown:  # handed to gen.throw, not dropped
            error = thrown


def _subclasses(cls: type) -> List[type]:
    found = [cls]
    for sub in cls.__subclasses__():
        found.extend(_subclasses(sub))
    return list(dict.fromkeys(found))
