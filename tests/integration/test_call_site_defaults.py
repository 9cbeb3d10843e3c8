"""Every defaulted parameter of the library is passed by some call site.

A parameter with a default that no caller ever passes is a setting
nobody can reach except by editing a call: it only adds a branch or a
name to read. This static check parses every function defined in
``src/repro`` (outside ``experiments/``, whose runner parameters the CLI
forwards through ``**kwargs``) and requires each defaulted parameter,
other than the ``clock`` test seam, to be passed somewhere in ``src/``,
``tests/``, ``benchmarks/``, ``examples/`` or ``perfbench/``: by
keyword, by position or through ``**``.

Call sites are matched by callee name (``f(...)`` and ``obj.f(...)``;
a class name stands for its ``__init__``). A name defined more than once
in ``src/repro`` is skipped, since a call cannot be told apart by name.
"""

from __future__ import annotations

import ast
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
PACKAGE = ROOT / "src" / "repro"
CALLER_DIRS = ("src", "tests", "benchmarks", "examples", "perfbench")
EXEMPT = {"clock"}


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _definitions():
    """(name, path, lineno, positional params, defaulted params) per def.

    ``name`` is the name a caller uses: the class name for ``__init__``.
    Other dunder methods are never called by name and are left out.
    """
    defs = []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = _parse(path)
        parents = {}
        for node in ast.walk(tree):
            for child in ast.iter_child_nodes(node):
                parents[child] = node
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            name = node.name
            parent = parents.get(node)
            is_method = isinstance(parent, ast.ClassDef)
            if name == "__init__" and is_method:
                name = parent.name
            elif name.startswith("__") and name.endswith("__"):
                continue
            args = node.args
            positional = [a.arg for a in args.posonlyargs + args.args]
            static = any(
                isinstance(d, ast.Name) and d.id == "staticmethod"
                for d in node.decorator_list
            )
            if is_method and not static and positional:
                positional = positional[1:]  # self / cls
            ordered = args.posonlyargs + args.args
            defaulted = [a.arg for a in ordered[len(ordered) - len(args.defaults):]]
            defaulted += [
                a.arg
                for a, d in zip(args.kwonlyargs, args.kw_defaults)
                if d is not None
            ]
            defs.append((name, path, node.lineno, positional, defaulted))
    return defs


def _call_sites():
    """callee name -> list of (n positional args, keywords, open-ended)."""
    calls = defaultdict(list)
    for top in CALLER_DIRS:
        for path in sorted((ROOT / top).rglob("*.py")):
            for node in ast.walk(_parse(path)):
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                if isinstance(func, ast.Name):
                    name = func.id
                elif isinstance(func, ast.Attribute):
                    name = func.attr
                else:
                    continue
                starred = any(isinstance(a, ast.Starred) for a in node.args)
                spread = any(k.arg is None for k in node.keywords)
                calls[name].append(
                    (
                        len(node.args),
                        {k.arg for k in node.keywords if k.arg is not None},
                        starred,
                        spread,
                    )
                )
    return calls


def _never_passed():
    defs = _definitions()
    counts = defaultdict(int)
    for name, *_ in defs:
        counts[name] += 1
    calls = _call_sites()
    missing = []
    for name, path, lineno, positional, defaulted in defs:
        if counts[name] > 1 or "experiments" in path.relative_to(PACKAGE).parts:
            continue
        for param in defaulted:
            if param in EXEMPT:
                continue
            index = positional.index(param) if param in positional else None
            passed = any(
                spread
                or param in keywords
                or (index is not None and (starred or n_pos > index))
                for n_pos, keywords, starred, spread in calls.get(name, ())
            )
            if not passed:
                rel = path.relative_to(ROOT)
                missing.append(f"{rel}:{lineno} {name}({param}=)")
    return missing


def test_every_defaulted_parameter_has_a_caller():
    missing = _never_passed()
    assert not missing, (
        "parameters with a default that no call site passes (make them "
        "constants, or pass them):\n  " + "\n  ".join(missing)
    )
