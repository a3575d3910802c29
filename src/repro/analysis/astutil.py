"""Shared AST helpers for the analysis engine and its rules.

The interprocedural engine (:mod:`repro.analysis.callgraph`,
:mod:`repro.analysis.effects`) and several rule modules need the same
small vocabulary: reading decorator calls, flattening dotted call paths,
the ``frozen`` dependency marker, and recognising in-place mutation
syntax.  Keeping those here (and not in a rule module) lets the
engine stay importable without touching :mod:`repro.analysis.rules` —
rules import the engine, never the other way round.
"""

from __future__ import annotations

import ast

__all__ = [
    "CONSTRUCTORS",
    "DECISION_SCOPE",
    "FROZEN",
    "MUTATING_METHODS",
    "decorator_call",
    "dotted",
    "string_args",
    "string_keywords",
]

#: Method-call names that mutate their receiver in place.
MUTATING_METHODS = {
    "append", "add", "remove", "discard", "pop", "popitem", "clear",
    "update", "setdefault", "extend", "insert", "sort", "reverse",
    "move_to_end", "fill", "resize",
}

#: The ``@coherent`` dependency kind meaning "never mutate after init".
FROZEN = "frozen"

#: Methods allowed to touch coherent fields without a declaration: object
#: construction, which by definition precedes any derived cache.
CONSTRUCTORS = {"__init__", "__post_init__", "__new__"}

#: Packages whose code makes or replays scheduling decisions.
DECISION_SCOPE = ("repro.core", "repro.sim", "repro.perf", "repro.baselines")


def decorator_call(node: ast.AST, name: str) -> ast.Call | None:
    """The decorator node if it is ``@name(...)`` (possibly dotted)."""
    if not isinstance(node, ast.Call):
        return None
    func = node.func
    if isinstance(func, ast.Name) and func.id == name:
        return node
    if isinstance(func, ast.Attribute) and func.attr == name:
        return node
    return None


def string_args(call: ast.Call) -> list[str]:
    """The call's positional string-literal arguments."""
    return [
        arg.value
        for arg in call.args
        if isinstance(arg, ast.Constant) and isinstance(arg.value, str)
    ]


def string_keywords(call: ast.Call) -> dict[str, str]:
    """The call's ``name="literal"`` keyword arguments."""
    out: dict[str, str] = {}
    for keyword in call.keywords:
        if keyword.arg and isinstance(keyword.value, ast.Constant) and isinstance(
            keyword.value.value, str
        ):
            out[keyword.arg] = keyword.value.value
    return out


def dotted(node: ast.AST) -> str | None:
    """Best-effort dotted path of a call target (``a.b.c`` -> ``"a.b.c"``)."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None
