"""Source hygiene of ``src/gepkit``: no dead top-level names, no unread
parameters, no more optional parameters than before.

Three rules, checked on the syntax trees of the package's modules:

* every top-level def, class and assignment is referenced outside its own
  definition, somewhere in ``src/gepkit`` (an ``__init__`` export counts),
  ``scripts/`` or ``perfbench/``;
* every parameter of a named function is read in its body, and read
  before anything is stored in it (an assignment's right-hand side is
  evaluated before its target); ``self``, ``cls`` and names starting with
  ``_`` are exempt, lambdas unchecked;
* the parameters with a default value, nested functions' included, number
  no more than ``MAX_DEFAULTED``.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "gepkit").glob("*.py"))
READERS = PACKAGE + sorted((ROOT / "scripts").glob("*.py")) + \
    sorted((ROOT / "perfbench").glob("*.py"))


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _defined(stmt) -> list:
    """Names a top-level statement defines: a def or class name, or the
    plain names an assignment binds."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                         ast.ClassDef)):
        return [stmt.name]
    targets = stmt.targets if isinstance(stmt, ast.Assign) else \
        [stmt.target] if isinstance(stmt, ast.AnnAssign) else []
    return [node.id for t in targets for node in ast.walk(t)
            if isinstance(node, ast.Name)]


def _used(node) -> set:
    """Names read anywhere under ``node``: loaded names, attributes and
    imported names."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, ast.ImportFrom):
            out.update(alias.name for alias in sub.names)
    return out


def _unreferenced() -> list:
    # uses[(path, i)]: names read by top-level statement i of path
    uses = {(path, i): _used(stmt) for path in READERS
            for i, stmt in enumerate(_parse(path).body)}
    dead = []
    for path in PACKAGE:
        for i, stmt in enumerate(_parse(path).body):
            for name in _defined(stmt):
                if name.startswith("__"):
                    continue
                if not any(name in names for key, names in uses.items()
                           if key != (path, i)):
                    dead.append(f"{path.stem}.{name}")
    return dead


def _in_order(node):
    """``node`` and the nodes under it in the order Python evaluates them,
    as far as names go: an assignment's value before its target, a loop's
    or a comprehension's iterable before its target, a comprehension's
    clauses before its element."""
    first = []
    if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign,
                         ast.NamedExpr)) and node.value is not None:
        first = [node.value]
    elif isinstance(node, (ast.For, ast.AsyncFor, ast.comprehension)):
        first = [node.iter]
    elif isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp,
                           ast.DictComp)):
        first = node.generators
    yield node
    for child in first + [c for c in ast.iter_child_nodes(node)
                          if c not in first]:
        yield from _in_order(child)


def _stored_first(name, body) -> bool:
    """Whether the first use of the plain name ``name`` in ``body`` stores
    it; an augmented assignment reads its target before storing it."""
    for stmt in body:
        augmented = {id(node.target) for node in ast.walk(stmt)
                     if isinstance(node, ast.AugAssign)}
        for node in _in_order(stmt):
            if isinstance(node, ast.Name) and node.id == name:
                return isinstance(node.ctx, ast.Store) and \
                    id(node) not in augmented
    return False


def _functions():
    """(path, node) of every named function in the package, nested ones
    included."""
    for path in PACKAGE:
        for node in ast.walk(_parse(path)):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield path, node


def _unread_parameters() -> list:
    unread = []
    for path, node in _functions():
        a = node.args
        params = a.posonlyargs + a.args + a.kwonlyargs + \
            [p for p in (a.vararg, a.kwarg) if p is not None]
        read = set().union(*(_used(stmt) for stmt in node.body))
        unread += [f"{path.stem}.{node.name}({p.arg})" for p in params
                   if p.arg not in ("self", "cls")
                   and not p.arg.startswith("_")
                   and (p.arg not in read
                        or _stored_first(p.arg, node.body))]
    return unread


@pytest.mark.parametrize("check", [_unreferenced, _unread_parameters],
                         ids=["top-level names", "parameters"])
def test_nothing_dead(check):
    assert len(PACKAGE) >= 10  # the glob found the package
    assert check() == []


# parameters with a default value in the package; lower it when one goes
MAX_DEFAULTED = 12


def test_defaulted_parameters_do_not_grow():
    """Each optional parameter is one more way to call a function: their
    count may fall, never rise."""
    count = sum(len(node.args.defaults) + sum(
        d is not None for d in node.args.kw_defaults)
        for _path, node in _functions())
    assert count <= MAX_DEFAULTED
