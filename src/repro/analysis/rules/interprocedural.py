"""Interprocedural rules (IP) — contracts checked across function lines.

The CC family verifies coherence declarations *locally*: a method that
textually mutates ``self._field`` must declare it and discharge the
invalidation hook.  What the local view cannot see is everything the
cache stack now leans on: a helper that mutates through a *call* to a
declared mutator, a ``trusted=True`` shared plan array that some alias
scribbles on three frames later, an escape hatch nothing can reach, or an
unseeded generator smuggled across a module boundary.  These rules consume
the whole-program view (:mod:`repro.analysis.callgraph` /
:mod:`repro.analysis.effects`) built in the *prepare* phase and stage
findings per file for the *check* phase.
"""

from __future__ import annotations

import ast
from collections.abc import Iterable
from pathlib import Path

from repro.analysis.astutil import (
    CONSTRUCTORS,
    DECISION_SCOPE,
    FROZEN,
    dotted,
)
from repro.analysis.callgraph import CallGraph, CallSite, FunctionInfo, bind_args
from repro.analysis.context import FileContext
from repro.analysis.effects import alias_roots, mutation_events
from repro.analysis.findings import Finding, Severity
from repro.analysis.program import Program
from repro.analysis.registry import Rule, register, walk_scope

__all__ = [
    "UndeclaredTransitiveMutationRule",
    "SharedPlanAliasMutationRule",
    "DeadEscapeHatchRule",
    "AmbientRngCrossingRule",
]

#: Call names whose arguments are adopted by reference into a cache.
_ADOPTING_APIS = ("set_plan", "load_plans")

#: ndarray methods returning a view over the same buffer.
_VIEW_METHODS = ("view", "reshape", "ravel", "squeeze")


class _StagedRule(Rule):
    """Base for IP rules: compute in ``prepare``, emit in ``check``."""

    def __init__(self) -> None:
        self._staged: dict[str, list[Finding]] = {}
        self._seen: set[tuple[str, int, int, str]] = set()

    def _stage(
        self,
        program: Program,
        path: str,
        node: ast.AST,
        message: str,
        *,
        severity: Severity | None = None,
    ) -> None:
        ctx = program.context_by_path.get(path)
        if ctx is None:  # pragma: no cover - engine paths come from contexts
            return
        key = (
            path,
            getattr(node, "lineno", 1),
            getattr(node, "col_offset", 0),
            message,
        )
        if key in self._seen:
            return
        self._seen.add(key)
        self._staged.setdefault(path, []).append(
            ctx.finding(
                node, self.rule_id, message, severity=severity or self.severity
            )
        )

    def check(self, ctx: FileContext) -> Iterable[Finding]:
        yield from self._staged.get(str(ctx.path), ())


@register
class UndeclaredTransitiveMutationRule(_StagedRule):
    """IP001: calling a declared mutator is itself a mutation.

    A function that calls a ``@mutates``-declared method on a
    ``@coherent`` object changes that object's coherent state just as
    surely as a textual ``self._field[...] = ...`` — but the CC rules
    cannot see it.  The caller must own up: declare
    ``@mutates("Class._field")`` (bare ``@mutates("_field")`` when it is
    a method of the same class), be a registered ``@invalidates``
    provider of the field's dependency, or be the owning class's
    constructor.  Dotted declarations are *terminal* — they document the
    transitive mutation without creating a fresh obligation in their own
    callers, so the chain does not cascade to the CLI.  ``frozen``
    dependencies carry no invalidation obligation and are exempt.
    """

    rule_id = "IP001"
    title = "transitive coherent-field mutation lacks a declaration"
    severity = Severity.ERROR

    def prepare(self, program: Program) -> None:
        graph = program.callgraph
        for caller_qual, sites in graph.edges.items():
            caller = graph.functions.get(caller_qual)
            for site in sites:
                if len(site.callees) != 1:
                    # Ambiguous (all-candidates) resolution: creating an
                    # obligation from a guess would drown real findings.
                    continue
                callee = graph.functions.get(site.callees[0])
                if callee is None or callee.class_name is None:
                    continue
                if callee.qualname == caller_qual:
                    continue
                owner = graph.classes.get(callee.class_name)
                if owner is None:
                    continue
                for field_name in callee.mutates:
                    if "." in field_name:
                        continue  # dotted declarations are terminal
                    dependency = owner.coherent_fields.get(field_name)
                    if dependency is None or dependency == FROZEN:
                        continue
                    if dependency in callee.invalidates:
                        continue  # the callee invalidates as it mutates
                    if caller is not None and _discharges(
                        caller, owner.name, field_name, dependency
                    ):
                        continue
                    self._stage(
                        program,
                        site.path,
                        site.node,
                        f"call to {callee.class_name}.{callee.name}() mutates "
                        f"coherent field '{field_name}' (dependency "
                        f"'{dependency}'); declare "
                        f'@mutates("{owner.name}.{field_name}") on the '
                        f"caller or route through an @invalidates provider",
                    )


def _discharges(
    caller: FunctionInfo, owner: str, field_name: str, dependency: str
) -> bool:
    """Whether a caller already accounts for the transitive mutation."""
    if dependency in caller.invalidates:
        return True
    if f"{owner}.{field_name}" in caller.mutates:
        return True
    if caller.class_name == owner:
        if field_name in caller.mutates or caller.name in CONSTRUCTORS:
            return True
    return False


@register
class SharedPlanAliasMutationRule(_StagedRule):
    """IP002: arrays shared by reference must stay frozen — on every alias.

    ``Ledger.set_plan(..., trusted=True)`` and ``Ledger.load_plans``
    take in arrays *by reference*: the caller's local name, every view
    over it, and every callee it escapes to all address the adopted
    buffer.  Digest checks
    cannot catch a write through such an alias — the ledger version
    never ticks.  This rule tracks each share site's alias set (views,
    slices, plain rebinding) through the function body and flags any
    in-place mutation after the share, including indirectly via a callee
    whose effect summary writes the bound parameter.  It also checks the
    adopting API itself: an implementation that takes arrays by
    reference without marking them read-only has no defence at all.
    """

    rule_id = "IP002"
    title = "shared plan array mutated (or never frozen) after adoption"
    severity = Severity.ERROR

    def prepare(self, program: Program) -> None:
        graph = program.callgraph
        effects = program.effects
        for qualname, info in graph.functions.items():
            shares: list[tuple[str, int, str]] = []
            for site in graph.sites_in(qualname):
                tail = site.name.split(".")[-1]
                if tail == "set_plan" and _is_trusted(site.node):
                    shares.extend(
                        (arg.id, site.line, "set_plan(..., trusted=True)")
                        for arg in site.node.args
                        if isinstance(arg, ast.Name)
                    )
                    self._check_freeze_contract(program, graph, site)
                elif tail == "load_plans":
                    shares.extend(
                        (arg.id, site.line, "load_plans(...)")
                        for arg in site.node.args
                        if isinstance(arg, ast.Name)
                    )
                    self._check_freeze_contract(program, graph, site)
            for name, line, label in shares:
                self._check_share(
                    program, graph, effects, info, name, line, label
                )

    def _check_share(
        self,
        program: Program,
        graph: CallGraph,
        effects,
        info: FunctionInfo,
        name: str,
        line: int,
        label: str,
    ) -> None:
        roots = alias_roots(info.node, {name})
        aliases = {m for m, seeds in roots.items() if name in seeds}
        rebinds = _rebind_lines(info.node, aliases)
        for event in mutation_events(info.node):
            if event.name not in aliases or event.line <= line:
                continue
            if _rebound_between(rebinds, event.name, line, event.line):
                continue
            self._stage(
                program,
                info.path,
                event.node,
                f"in-place write through '{event.name}', an alias of "
                f"'{name}' shared by reference via {label} on line {line}; "
                f"the adopted buffer must stay frozen (copy before "
                f"mutating)",
            )
        for site in graph.sites_in(info.qualname):
            if site.line <= line:
                continue
            method_call = isinstance(site.node.func, ast.Attribute)
            for callee_qual in site.callees:
                callee = graph.functions.get(callee_qual)
                summary = effects.summary(callee_qual)
                if callee is None or summary is None:
                    continue
                for param, expr in bind_args(
                    site.node, callee, method_call=method_call
                ):
                    if (
                        isinstance(expr, ast.Name)
                        and expr.id in aliases
                        and param in summary.writes_params
                        and not _rebound_between(
                            rebinds, expr.id, line, site.line
                        )
                    ):
                        self._stage(
                            program,
                            info.path,
                            site.node,
                            f"'{expr.id}' aliases '{name}' shared via "
                            f"{label} on line {line}, but "
                            f"{callee.name}() writes its parameter "
                            f"'{param}' in place",
                        )

    def _check_freeze_contract(
        self, program: Program, graph: CallGraph, site: CallSite
    ) -> None:
        for callee_qual in site.callees:
            callee = graph.functions.get(callee_qual)
            if callee is None:
                return
            if _freezes_arrays(callee, graph):
                return
            self._stage(
                program,
                site.path,
                site.node,
                f"{site.name}() adopts arrays by reference but "
                f"{callee.qualname} never freezes them "
                f"(set .flags.writeable = False on every stored array)",
            )


def _is_trusted(node: ast.Call) -> bool:
    return any(
        keyword.arg == "trusted"
        and isinstance(keyword.value, ast.Constant)
        and keyword.value.value is True
        for keyword in node.keywords
    )


def _rebind_lines(
    func_node: ast.FunctionDef | ast.AsyncFunctionDef, aliases: set[str]
) -> list[tuple[str, int]]:
    """``(name, line)`` for assignments that break the alias (fresh value)."""
    rebinds: list[tuple[str, int]] = []
    for node in walk_scope(func_node):
        if not (isinstance(node, ast.Assign) and len(node.targets) == 1):
            continue
        target = node.targets[0]
        if not isinstance(target, ast.Name):
            continue
        if _value_alias_names(node.value) & aliases:
            continue  # still the same buffer — not a reset
        rebinds.append((target.id, node.lineno))
    return rebinds


def _value_alias_names(value: ast.AST) -> set[str]:
    """Names whose buffer the assigned expression may share."""
    if isinstance(value, ast.Name):
        return {value.id}
    if isinstance(value, ast.Subscript) and isinstance(value.value, ast.Name):
        return {value.value.id}
    if (
        isinstance(value, ast.Call)
        and isinstance(value.func, ast.Attribute)
        and value.func.attr in _VIEW_METHODS
        and isinstance(value.func.value, ast.Name)
    ):
        return {value.func.value.id}
    return set()


def _rebound_between(
    rebinds: list[tuple[str, int]], name: str, share_line: int, use_line: int
) -> bool:
    return any(
        bound == name and share_line < line <= use_line
        for bound, line in rebinds
    )


def _freezes_arrays(callee: FunctionInfo, graph: CallGraph) -> bool:
    """Whether an adopting API (or a direct helper) marks arrays read-only."""
    if _freezes_textually(callee.node):
        return True
    for site in graph.sites_in(callee.qualname):
        for helper_qual in site.callees:
            helper = graph.functions.get(helper_qual)
            if helper is not None and _freezes_textually(helper.node):
                return True
    return False


def _freezes_textually(
    func_node: ast.FunctionDef | ast.AsyncFunctionDef,
) -> bool:
    for node in ast.walk(func_node):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                path = dotted(target)
                if (
                    path is not None
                    and path.endswith(".flags.writeable")
                    and isinstance(node.value, ast.Constant)
                    and node.value.value is False
                ):
                    return True
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "setflags"
        ):
            for keyword in node.keywords:
                if (
                    keyword.arg == "write"
                    and isinstance(keyword.value, ast.Constant)
                    and keyword.value.value is False
                ):
                    return True
    return False


@register
class DeadEscapeHatchRule(_StagedRule):
    """IP003: an escape hatch nobody can pull is a liability, not a safety.

    The performance stack ships ``@contextmanager`` kill switches
    (``*_disabled``) so a bad cache or kernel can be bypassed without a
    rollback.  A hatch that no analysed module and no test ever enters is
    dead weight: it silently rots (nothing exercises the disabled path)
    and its presence falsely suggests a tested fallback exists.  Either
    wire a test through the hatch or delete it.  Liveness counts any
    load of the name in the analysed files plus any non-import,
    non-definition mention under the repository ``tests/`` tree;
    re-exports and ``__all__`` listings do not count as use.
    """

    rule_id = "IP003"
    title = "escape-hatch context manager is unreachable"
    severity = Severity.WARNING

    def prepare(self, program: Program) -> None:
        hatches: list[tuple[str, ast.FunctionDef | ast.AsyncFunctionDef]] = []
        for ctx in program.contexts:
            for node in ast.walk(ctx.tree):
                if (
                    isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and node.name.endswith("_disabled")
                    and any(
                        _is_contextmanager(d) for d in node.decorator_list
                    )
                ):
                    hatches.append((str(ctx.path), node))
        if not hatches:
            return
        loaded: set[str] = set()
        for ctx in program.contexts:
            for node in ast.walk(ctx.tree):
                if isinstance(node, ast.Name) and isinstance(
                    node.ctx, ast.Load
                ):
                    loaded.add(node.id)
                elif isinstance(node, ast.Attribute):
                    loaded.add(node.attr)
        tested = _tests_tree_mentions({node.name for _, node in hatches})
        for path, node in hatches:
            if node.name in loaded or node.name in tested:
                continue
            self._stage(
                program,
                path,
                node,
                f"escape hatch {node.name}() is never entered by any "
                f"analysed module or test; wire a test through it or "
                f"remove it",
            )


def _is_contextmanager(decorator: ast.AST) -> bool:
    if isinstance(decorator, ast.Name):
        return decorator.id == "contextmanager"
    if isinstance(decorator, ast.Attribute):
        return decorator.attr == "contextmanager"
    return False


def _tests_tree_mentions(names: set[str]) -> set[str]:
    """Hatch names mentioned by a *use* line under the repo tests tree."""
    tests_dir = Path(__file__).resolve().parents[4] / "tests"
    found: set[str] = set()
    if not tests_dir.is_dir():
        return found
    skip = ("def ", "async def ", "@", "from ", "import ", "#")
    for path in sorted(tests_dir.rglob("*.py")):
        try:
            text = path.read_text(encoding="utf-8")
        except OSError:  # pragma: no cover - unreadable test file
            continue
        for raw in text.splitlines():
            line = raw.strip()
            if not line or line.startswith(skip):
                continue
            for name in names:
                if name in line:
                    found.add(name)
    return found


@register
class AmbientRngCrossingRule(_StagedRule):
    """IP004: ambient randomness must not cross into decision code.

    DET001 bans creating unseeded generators *inside* the decision scope
    (scheduling, simulation, performance, baselines).  The remaining
    hole is interprocedural: a driver outside the scope builds
    ``default_rng()`` and passes it in, and every digest downstream is
    unreproducible even though the decision modules themselves lint
    clean.  This rule follows the effect summaries — locals bound to
    ambient generators, returns that may produce one, parameters tainted
    by any caller — and flags the call site where such a value is bound
    to a parameter of an in-scope callee.  Thread a seeded
    ``Generator`` from the experiment configuration instead.
    """

    rule_id = "IP004"
    title = "ambient RNG flows into the decision scope"
    severity = Severity.ERROR

    def prepare(self, program: Program) -> None:
        effects = program.effects
        for site, callee_qual, param in effects.ambient_decision_crossings(
            DECISION_SCOPE
        ):
            self._stage(
                program,
                site.path,
                site.node,
                f"ambient (unseeded) randomness is passed as parameter "
                f"'{param}' of {callee_qual}; decisions fed by it are "
                f"unreproducible — thread a seeded Generator instead",
            )
