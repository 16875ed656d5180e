"""Parsed source files and inline ``noqa`` suppressions.

A :class:`SourceFile` bundles everything a rule needs: the raw text,
the parsed AST with parent links, the repo-relative path used in
reports, and the per-line suppression map parsed from
``# repro: noqa(rule-a, rule-b)`` comments (a bare
``# repro: noqa`` suppresses every rule on that line).  Suppressions
are matched against the line a finding is anchored to, so a noqa on a
``for`` statement suppresses the hot-loop finding it would raise.

Findings anchor at a statement's *first* line, but the statement (or
its header, for compound statements) may span several physical lines —
a wrapped ``for`` iterable, a decorated ``def``.  A noqa comment on any
line of that span therefore also suppresses findings anchored at the
statement's first line; :attr:`SourceFile.noqa_comments` keeps the raw
per-comment map and :attr:`SourceFile.noqa_sources` the reverse anchor
-> comment-line mapping, which the runner uses to flag comments that
suppress nothing (unused-suppression).
"""

from __future__ import annotations

import ast
import re
import tokenize
from dataclasses import dataclass, field
from io import StringIO
from pathlib import Path
from typing import Dict, FrozenSet, Iterator, List, Optional

#: Matches the bare form and the rule-list form ``noqa(rule-a, rule-b)``
#: of the project's suppression comment.
_NOQA_RE = re.compile(
    r"#\s*repro:\s*noqa\s*(?:\(\s*(?P<rules>[\w,\s-]*)\s*\))?", re.IGNORECASE)

#: Sentinel meaning "every rule is suppressed on this line".
ALL_RULES: FrozenSet[str] = frozenset({"*"})


def _parse_noqa(text: str) -> Dict[int, FrozenSet[str]]:
    """Map line number -> suppressed rule names for ``text``.

    Comments are found with :mod:`tokenize` so that ``noqa``-looking
    content inside string literals never suppresses anything.
    """
    suppressions: Dict[int, FrozenSet[str]] = {}
    try:
        tokens = tokenize.generate_tokens(StringIO(text).readline)
        for tok in tokens:
            if tok.type != tokenize.COMMENT:
                continue
            match = _NOQA_RE.search(tok.string)
            if match is None:
                continue
            rules = match.group("rules")
            if rules is None:
                names: FrozenSet[str] = ALL_RULES
            else:
                names = frozenset(
                    name.strip() for name in rules.split(",") if name.strip())
                if not names:
                    names = ALL_RULES
            line = tok.start[0]
            suppressions[line] = suppressions.get(line, frozenset()) | names
    except tokenize.TokenError:  # unterminated string etc.; AST parse
        pass                     # will have failed loudly already
    return suppressions


def relpath_of(path: Path, root: Optional[Path] = None) -> str:
    """Repo-relative posix path used in reports."""
    relpath = path.as_posix()
    if root is not None:
        try:
            relpath = path.resolve().relative_to(root.resolve()).as_posix()
        except ValueError:
            pass
    return relpath


#: Compound statements whose *header* (first line through the line
#: before the first body statement) can wrap; a noqa on any header line
#: suppresses findings anchored at the statement's first line.
_COMPOUND = (ast.If, ast.For, ast.AsyncFor, ast.While, ast.With,
             ast.AsyncWith, ast.Try, ast.FunctionDef,
             ast.AsyncFunctionDef, ast.ClassDef)


def _statement_spans(tree: ast.AST) -> List[tuple]:
    """(anchor, first, last) line intervals of statements and handlers.

    ``anchor`` is where findings for the statement land (its
    ``lineno``); ``first``..``last`` is the physical span a noqa
    comment may sit on — the whole statement for simple statements, the
    header (including decorators) for compound ones.
    """
    spans: List[tuple] = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.stmt, ast.excepthandler)):
            continue
        anchor = node.lineno
        first = anchor
        decorators = getattr(node, "decorator_list", [])
        if decorators:
            first = min([d.lineno for d in decorators] + [anchor])
        body = getattr(node, "body", None)
        if isinstance(node, _COMPOUND + (ast.excepthandler,)) and body:
            last = max(anchor, body[0].lineno - 1)
        else:
            last = getattr(node, "end_lineno", anchor) or anchor
        if first != last or first != anchor:
            spans.append((anchor, first, last))
    return spans


@dataclass
class SourceFile:
    """One parsed python file, ready for rule checks."""

    path: Path
    relpath: str
    text: str
    tree: ast.AST
    #: anchor line -> suppressed rule names (statement spans expanded).
    noqa: Dict[int, FrozenSet[str]]
    #: physical comment line -> rule names, exactly as written.
    noqa_comments: Dict[int, FrozenSet[str]] = field(default_factory=dict)
    #: anchor line -> the comment lines contributing suppressions to it.
    noqa_sources: Dict[int, List[int]] = field(default_factory=dict)
    _parents: Dict[int, ast.AST] = field(default_factory=dict)

    @classmethod
    def from_text(cls, text: str, path: Path,
                  root: Optional[Path] = None) -> "SourceFile":
        tree = ast.parse(text, filename=str(path))
        comments = _parse_noqa(text)
        noqa = dict(comments)
        sources = {line: [line] for line in comments}
        if comments:
            for anchor, first, last in _statement_spans(tree):
                for line, names in comments.items():
                    if first <= line <= last and line != anchor:
                        noqa[anchor] = noqa.get(anchor, frozenset()) | names
                        sources.setdefault(anchor, []).append(line)
        source = cls(path=path, relpath=relpath_of(path, root), text=text,
                     tree=tree, noqa=noqa,
                     noqa_comments=comments, noqa_sources=sources)
        for parent in ast.walk(tree):
            for child in ast.iter_child_nodes(parent):
                source._parents[id(child)] = parent
        return source

    @classmethod
    def load(cls, path: Path, root: Optional[Path] = None) -> "SourceFile":
        return cls.from_text(path.read_text(encoding="utf-8"), path,
                             root=root)

    # -- Queries ---------------------------------------------------------

    def parent(self, node: ast.AST) -> Optional[ast.AST]:
        return self._parents.get(id(node))

    def ancestors(self, node: ast.AST) -> Iterator[ast.AST]:
        current = self.parent(node)
        while current is not None:
            yield current
            current = self.parent(current)

    def is_suppressed(self, rule: str, line: int) -> bool:
        names = self.noqa.get(line)
        if names is None:
            return False
        return "*" in names or rule in names

    def walk(self) -> Iterator[ast.AST]:
        return ast.walk(self.tree)
