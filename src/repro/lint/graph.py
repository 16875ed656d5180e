"""Project symbol and call-graph layer for cross-module rules.

Per-file rules see one AST at a time; the contracts added by the
shared-encoding work (PR 6) span modules — the producer of a reuse
encoding lives in ``cache/vector.py`` while its consumers live in the
stacked driver, and a helper three imports away can run inside the
epoch loop.  :class:`ProjectGraph` parses the *whole analyzed file
set* once and gives rules:

* module resolution — every file is named by its dotted module path
  (``repro/sim/engine.py`` -> ``repro.sim.engine``) and its imports are
  resolved to project modules and symbols;
* symbol tables — top-level functions and classes
  (:class:`FunctionInfo`, :class:`ClassInfo`), including per-class
  attribute types harvested from dataclass fields, annotated
  assignments and ``self.x = Cls(...)`` constructor assignments;
* a call graph — ``caller qualname -> callee qualnames`` over bare
  calls, ``self.method()`` dispatch, imported symbols and
  typed-receiver method calls, with :meth:`ProjectGraph.reachable`
  computing the closure from a set of roots; and
* light type inference — :meth:`ProjectGraph.infer` maps an expression
  inside a function to a project class name (or a ``list:``/``dict:``
  container of one) using parameter annotations, local assignments,
  class attribute tables and function return annotations.

Inference is deliberately *conservative*: anything ambiguous or
unresolvable is ``None`` (untracked), so graph-backed rules produce
false negatives, never false positives, on code the layer cannot type.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import (
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

from .source import SourceFile

#: Container markers used in type strings: ``"RunStats"`` is an
#: instance, ``"list:RunStats"`` a sequence of them, ``"dict:RunStats"``
#: a mapping whose *values* are instances.
_LIST = "list:"
_DICT = "dict:"

#: Annotation heads treated as sequence containers (element type is the
#: first argument) and as mappings (value type is the second).
_SEQ_HEADS = frozenset({"List", "Sequence", "Tuple", "Iterable",
                        "Iterator", "FrozenSet", "Set",
                        "list", "tuple", "frozenset", "set"})
_MAP_HEADS = frozenset({"Dict", "Mapping", "MutableMapping",
                        "OrderedDict", "DefaultDict", "dict"})

#: Calls that return their first argument's type unchanged.
_PASSTHROUGH_CALLS = frozenset({"copy.deepcopy", "copy.copy",
                                "dataclasses.replace", "replace"})

_FuncNode = Union[ast.FunctionDef, ast.AsyncFunctionDef]


@dataclass
class FunctionInfo:
    """One module-level function or method in the analyzed set."""

    qualname: str                 # "repro.sim.engine:SimulationEngine.run"
    name: str
    module: str
    node: _FuncNode
    source: SourceFile
    class_name: Optional[str] = None

    @property
    def is_method(self) -> bool:
        return self.class_name is not None


@dataclass
class ClassInfo:
    """One class definition plus its harvested attribute types."""

    name: str
    module: str
    node: ast.ClassDef
    source: SourceFile
    bases: List[str] = field(default_factory=list)
    methods: Dict[str, FunctionInfo] = field(default_factory=dict)
    #: attribute name -> type string; attributes assigned conflicting
    #: types are dropped (untracked).
    attr_types: Dict[str, str] = field(default_factory=dict)


def module_name_of(relpath: str) -> str:
    """Dotted module name of a repo-relative posix path.

    Anchored at the *last* ``repro`` path segment so the repo layout
    (``src/repro/...``), installed packages and test fixtures that
    mirror the real tail all resolve to the same names; files outside
    any ``repro`` tree fall back to their stem.
    """
    parts = relpath.split("/")
    stem = parts[-1]
    if stem.endswith(".py"):
        stem = stem[:-3]
    head = parts[:-1]
    if "repro" in head:
        anchor = len(head) - 1 - head[::-1].index("repro")
        pkg = head[anchor:]
    else:
        pkg = []
    if stem == "__init__":
        return ".".join(pkg) if pkg else stem
    return ".".join(pkg + [stem])


def _ann_to_type(node: Optional[ast.AST]) -> Optional[str]:
    """Type string for an annotation expression, or None.

    Understands plain names, dotted names (last segment), ``Optional``/
    ``Union`` unwrapping, sequence and mapping subscripts, and string
    (forward-reference) annotations.
    """
    if node is None:
        return None
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        try:
            node = ast.parse(node.value, mode="eval").body
        except SyntaxError:
            return None
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Subscript):
        head = node.value
        head_name = head.id if isinstance(head, ast.Name) else (
            head.attr if isinstance(head, ast.Attribute) else None)
        if head_name is None:
            return None
        args: List[ast.AST] = []
        sl: ast.AST = node.slice
        if isinstance(sl, ast.Tuple):
            args = list(sl.elts)
        else:
            args = [sl]
        if head_name == "Optional" and args:
            return _ann_to_type(args[0])
        if head_name == "Union":
            inner = {_ann_to_type(a) for a in args
                     if not (isinstance(a, ast.Constant)
                             and a.value is None)}
            inner.discard(None)
            return inner.pop() if len(inner) == 1 else None
        if head_name in _SEQ_HEADS and args:
            elem = _ann_to_type(args[0])
            return _LIST + elem if elem else None
        if head_name in _MAP_HEADS and len(args) == 2:
            value = _ann_to_type(args[1])
            return _DICT + value if value else None
    return None


def _elem_of(type_str: Optional[str]) -> Optional[str]:
    """Element/value type of a container type string."""
    if type_str is None:
        return None
    if type_str.startswith(_LIST):
        return type_str[len(_LIST):]
    if type_str.startswith(_DICT):
        return type_str[len(_DICT):]
    return None


def _dotted(node: ast.AST) -> Optional[str]:
    parts = []
    current = node
    while isinstance(current, ast.Attribute):
        parts.append(current.attr)
        current = current.value
    if isinstance(current, ast.Name):
        parts.append(current.id)
        return ".".join(reversed(parts))
    return None


class ProjectGraph:
    """Symbols, types and call edges of one analyzed file set."""

    def __init__(self, sources: Iterable[SourceFile]) -> None:
        #: relpath -> SourceFile, insertion-ordered.
        self.sources: Dict[str, SourceFile] = {}
        #: dotted module name -> relpath (first wins on collision).
        self.modules: Dict[str, str] = {}
        #: function qualname -> info.
        self.functions: Dict[str, FunctionInfo] = {}
        #: simple class name -> info; names defined in several modules
        #: land in :attr:`ambiguous` and are untracked.
        self.classes: Dict[str, ClassInfo] = {}
        self.ambiguous: Set[str] = set()
        #: caller qualname -> callee qualnames.
        self.calls: Dict[str, Set[str]] = {}
        #: class name -> direct project subclasses.
        self.subclasses: Dict[str, Set[str]] = {}
        #: module -> imported name -> (module, symbol or None).
        self._imports: Dict[str, Dict[str, Tuple[str, Optional[str]]]] = {}
        #: per-function local type environments, lazily built.
        self._envs: Dict[str, Dict[str, str]] = {}

        for source in sources:
            self._add_source(source)
        self._resolve_classes()
        # Two attribute-harvest passes: the second sees classes typed by
        # the first (``self.stats = RunStats(...)`` inside a class whose
        # own attributes feed other classes' inference).
        for _ in range(2):
            for cls in self.classes.values():
                self._harvest_attrs(cls)
            self._envs.clear()
        self._build_calls()

    # -- Construction ------------------------------------------------------

    def _add_source(self, source: SourceFile) -> None:
        module = module_name_of(source.relpath)
        self.sources[source.relpath] = source
        self.modules.setdefault(module, source.relpath)
        imports: Dict[str, Tuple[str, Optional[str]]] = {}
        self._imports[module] = imports
        for node in ast.iter_child_nodes(source.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    target = alias.name if alias.asname else \
                        alias.name.split(".")[0]
                    imports[name] = (target, None)
            elif isinstance(node, ast.ImportFrom):
                base = self._resolve_from(module, node)
                if base is None:
                    continue
                for alias in node.names:
                    name = alias.asname or alias.name
                    imports[name] = (base, alias.name)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                info = FunctionInfo(
                    qualname=f"{module}:{node.name}", name=node.name,
                    module=module, node=node, source=source)
                self.functions[info.qualname] = info
            elif isinstance(node, ast.ClassDef):
                self._add_class(module, source, node)

    def _add_class(self, module: str, source: SourceFile,
                   node: ast.ClassDef) -> None:
        bases = []
        for b in node.bases:
            name = _dotted(b)
            if name:
                bases.append(name.split(".")[-1])
        cls = ClassInfo(name=node.name, module=module, node=node,
                        source=source, bases=bases)
        for stmt in node.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                info = FunctionInfo(
                    qualname=f"{module}:{node.name}.{stmt.name}",
                    name=stmt.name, module=module, node=stmt,
                    source=source, class_name=node.name)
                cls.methods[stmt.name] = info
                self.functions[info.qualname] = info
        if node.name in self.classes and \
                self.classes[node.name].node is not node:
            self.ambiguous.add(node.name)
        else:
            self.classes[node.name] = cls

    def _resolve_from(self, module: str,
                      node: ast.ImportFrom) -> Optional[str]:
        """Absolute module targeted by a (possibly relative) from-import."""
        if node.level == 0:
            return node.module
        relpath = self.modules.get(module, "")
        is_pkg = relpath.endswith("__init__.py")
        pkg = module.split(".") if is_pkg else module.split(".")[:-1]
        ascend = node.level - 1
        if ascend > len(pkg):
            return None
        base = pkg[:len(pkg) - ascend] if ascend else pkg
        if node.module:
            base = base + node.module.split(".")
        return ".".join(base) if base else None

    def _resolve_classes(self) -> None:
        for name in self.ambiguous:
            self.classes.pop(name, None)
        for cls in self.classes.values():
            for base in cls.bases:
                self.subclasses.setdefault(base, set()).add(cls.name)

    def _harvest_attrs(self, cls: ClassInfo) -> None:
        """Fill ``cls.attr_types`` from its body and its methods."""
        conflicted: Set[str] = set()

        def record(attr: str, type_str: Optional[str]) -> None:
            if type_str is None or attr in conflicted:
                return
            prior = cls.attr_types.get(attr)
            if prior is not None and prior != type_str:
                conflicted.add(attr)
                del cls.attr_types[attr]
                return
            cls.attr_types[attr] = type_str

        for stmt in cls.node.body:
            if isinstance(stmt, ast.AnnAssign) and \
                    isinstance(stmt.target, ast.Name):
                record(stmt.target.id, _ann_to_type(stmt.annotation))
        for method in cls.methods.values():
            for node in ast.walk(method.node):
                target: Optional[ast.expr] = None
                type_str: Optional[str] = None
                if isinstance(node, ast.AnnAssign):
                    target = node.target
                    type_str = _ann_to_type(node.annotation)
                elif isinstance(node, ast.Assign) and \
                        len(node.targets) == 1:
                    target = node.targets[0]
                    type_str = self.infer(method, node.value)
                if isinstance(target, ast.Attribute) and \
                        isinstance(target.value, ast.Name) and \
                        target.value.id == "self":
                    record(target.attr, type_str)

    def _build_calls(self) -> None:
        for info in self.functions.values():
            edges: Set[str] = set()
            for node in ast.walk(info.node):
                if isinstance(node, ast.Call):
                    callee = self._resolve_call(info, node)
                    if callee is not None:
                        edges.add(callee)
                    elif isinstance(node.func, ast.Attribute):
                        # Dynamic dispatch: the receiver's *declared*
                        # class lacks the method, but a project subclass
                        # implements it (``org.observe_batch`` on a
                        # ``LLCOrganization``).  Reachability must
                        # over-approximate, so edge to every
                        # implementation in the subclass cone.
                        edges.update(self._cone_methods(
                            info, node.func))
            self.calls[info.qualname] = edges

    def _cone_methods(self, caller: FunctionInfo,
                      func: ast.Attribute) -> Set[str]:
        receiver = self.infer(caller, func.value)
        if receiver is None or receiver.startswith((_LIST, _DICT)):
            return set()
        edges: Set[str] = set()
        seen: Set[str] = set()
        queue = [receiver]
        while queue:
            name = queue.pop()
            if name in seen:
                continue
            seen.add(name)
            cls = self.classes.get(name)
            if cls is not None and func.attr in cls.methods:
                edges.add(cls.methods[func.attr].qualname)
            queue.extend(self.subclasses.get(name, ()))
        return edges

    def _resolve_call(self, caller: FunctionInfo,
                      call: ast.Call) -> Optional[str]:
        func = call.func
        module = caller.module
        imports = self._imports.get(module, {})
        if isinstance(func, ast.Name):
            name = func.id
            # Same-module function or method of the enclosing class's
            # module-level namespace.
            qual = f"{module}:{name}"
            if qual in self.functions:
                return qual
            if name in imports:
                target_mod, symbol = imports[name]
                if symbol is None:
                    return None
                resolved = self._lookup(target_mod, symbol)
                if resolved is not None:
                    return resolved
            cls = self.classes.get(name)
            if cls is not None and cls.module == module:
                init = cls.methods.get("__init__")
                return init.qualname if init else None
            return None
        if isinstance(func, ast.Attribute):
            base = func.value
            # self.method() / cls-typed receiver.
            receiver = self.infer(caller, base)
            if receiver is not None and not receiver.startswith(
                    (_LIST, _DICT)):
                method = self.lookup_method(receiver, func.attr)
                if method is not None:
                    return method.qualname
            # module-alias calls: ``stacked.simulate_stacked(...)``.
            if isinstance(base, ast.Name) and base.id in imports:
                target_mod, symbol = imports[base.id]
                if symbol is None:
                    return self._lookup(target_mod, func.attr)
                # ``pkg.mod.func`` where ``pkg.mod`` itself was
                # imported as a symbol of a package.
                return self._lookup(f"{target_mod}.{symbol}", func.attr)
        return None

    def _lookup(self, module: Optional[str],
                symbol: str) -> Optional[str]:
        """Qualname of ``symbol`` defined in ``module``, if analyzed."""
        if module is None or module not in self.modules:
            return None
        qual = f"{module}:{symbol}"
        if qual in self.functions:
            return qual
        cls = self.classes.get(symbol)
        if cls is not None and cls.module == module:
            init = cls.methods.get("__init__")
            return init.qualname if init else None
        return None

    # -- Queries -----------------------------------------------------------

    def lookup_method(self, class_name: str,
                      method: str) -> Optional[FunctionInfo]:
        """Resolve ``method`` on ``class_name`` through project bases."""
        seen: Set[str] = set()
        queue = [class_name]
        while queue:
            name = queue.pop(0)
            if name in seen:
                continue
            seen.add(name)
            cls = self.classes.get(name)
            if cls is None:
                continue
            if method in cls.methods:
                return cls.methods[method]
            queue.extend(cls.bases)
        return None

    def function_at(self, module_suffix: str,
                    name: str) -> Optional[FunctionInfo]:
        """Find a function by module path suffix and (dotted) name.

        ``name`` may be ``func`` or ``Class.method``.  The suffix match
        mirrors :func:`repro.lint.rules._common.module_matches`.
        """
        for relpath, source in self.sources.items():
            if relpath != module_suffix and \
                    not relpath.endswith("/" + module_suffix):
                continue
            module = module_name_of(relpath)
            qual = f"{module}:{name}"
            if qual in self.functions:
                return self.functions[qual]
        return None

    def functions_in(self, source: SourceFile) -> List[FunctionInfo]:
        """Every analyzed function defined in ``source``."""
        return [info for info in self.functions.values()
                if info.source is source]

    def reachable(self, roots: Iterable[str]) -> Set[str]:
        """Call-graph closure (qualnames) from ``roots`` (inclusive)."""
        seen: Set[str] = set()
        queue = [r for r in roots if r in self.functions]
        while queue:
            qual = queue.pop()
            if qual in seen:
                continue
            seen.add(qual)
            queue.extend(self.calls.get(qual, ()))
        return seen

    # -- Type inference ----------------------------------------------------

    def infer(self, func: FunctionInfo,
              expr: ast.AST) -> Optional[str]:
        """Type string of ``expr`` inside ``func``, or None (untracked)."""
        if isinstance(expr, ast.Name):
            if expr.id == "self" and func.class_name is not None:
                return func.class_name
            return self._env(func).get(expr.id)
        if isinstance(expr, ast.Attribute):
            base = self.infer(func, expr.value)
            if base is None or base.startswith((_LIST, _DICT)):
                return None
            cls = self.classes.get(base)
            if cls is None:
                return None
            return cls.attr_types.get(expr.attr)
        if isinstance(expr, ast.Subscript):
            return _elem_of(self.infer(func, expr.value))
        if isinstance(expr, ast.Call):
            return self._infer_call(func, expr)
        if isinstance(expr, (ast.ListComp, ast.GeneratorExp)):
            # A one-generator comprehension of constructor calls types
            # as a list of that class (the ``self.caches = [...]`` idiom).
            elem = self.infer(func, expr.elt) \
                if not expr.generators[1:] else None
            return _LIST + elem if elem else None
        if isinstance(expr, ast.IfExp):
            a = self.infer(func, expr.body)
            b = self.infer(func, expr.orelse)
            return a if a == b else None
        return None

    def _infer_call(self, func: FunctionInfo,
                    call: ast.Call) -> Optional[str]:
        callee = call.func
        if isinstance(callee, ast.Name):
            name = callee.id
            if name in self.classes and name not in self.ambiguous:
                return name
            dotted = name
        else:
            dotted = _dotted(callee) or ""
        if dotted in _PASSTHROUGH_CALLS and call.args:
            return self.infer(func, call.args[0])
        # ``receiver.get(k)``/``.pop(k)`` on a typed mapping yields its
        # value type; other method calls resolve via return annotation.
        if isinstance(callee, ast.Attribute):
            receiver = self.infer(func, callee.value)
            if receiver is not None and receiver.startswith(_DICT) and \
                    callee.attr in ("get", "pop", "setdefault"):
                return _elem_of(receiver)
            if receiver is not None and \
                    not receiver.startswith((_LIST, _DICT)):
                method = self.lookup_method(receiver, callee.attr)
                if method is not None:
                    return _ann_to_type(method.node.returns)
        # Plain function call: return annotation of the resolved target.
        resolved = self._resolve_call(func, call)
        if resolved is not None and resolved in self.functions:
            target = self.functions[resolved]
            if target.name == "__init__" and target.class_name:
                return target.class_name
            return _ann_to_type(target.node.returns)
        return None

    def _env(self, func: FunctionInfo) -> Dict[str, str]:
        """Local name -> type environment of ``func`` (cached)."""
        cached = self._envs.get(func.qualname)
        if cached is not None:
            return cached
        env: Dict[str, str] = {}
        self._envs[func.qualname] = env
        conflicted: Set[str] = set()

        def record(name: str, type_str: Optional[str]) -> None:
            if type_str is None or name in conflicted:
                return
            prior = env.get(name)
            if prior is not None and prior != type_str:
                conflicted.add(name)
                del env[name]
                return
            env[name] = type_str

        args = func.node.args
        for arg in (list(args.posonlyargs) + list(args.args)
                    + list(args.kwonlyargs)):
            record(arg.arg, _ann_to_type(arg.annotation))
        # Two passes so assignments reading later-typed locals resolve.
        for _ in range(2):
            for node in ast.walk(func.node):
                if isinstance(node, ast.Assign) and \
                        len(node.targets) == 1 and \
                        isinstance(node.targets[0], ast.Name):
                    record(node.targets[0].id,
                           self.infer(func, node.value))
                elif isinstance(node, ast.AnnAssign) and \
                        isinstance(node.target, ast.Name):
                    record(node.target.id, _ann_to_type(node.annotation))
                elif isinstance(node, ast.For) and \
                        isinstance(node.target, ast.Name):
                    record(node.target.id,
                           _elem_of(self.infer(func, node.iter)))
        return env


def build_graph(sources: Sequence[SourceFile]) -> ProjectGraph:
    """Build the project graph over ``sources``."""
    return ProjectGraph(sources)


def _unpack_targets(target: ast.expr) -> Iterator[ast.expr]:
    if isinstance(target, (ast.Tuple, ast.List)):
        for elt in target.elts:
            yield from _unpack_targets(elt)
    else:
        yield target
