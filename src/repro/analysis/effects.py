"""Effect-propagation fixpoints over the call graph.

Each function gets a *summary* — which of its parameters it writes in
place (directly or through any callee), which coherent fields it mutates
transitively, whether it creates or returns ambient (unseeded)
randomness — computed to a fixpoint over the
:class:`repro.analysis.callgraph.CallGraph`.  The interprocedural rules
(IP001–IP004) consume these summaries; the hypothesis test in
``tests/test_analysis_callgraph.py`` checks them against a brute-force
graph interpreter on randomly generated module sets.

Everything here is a *may* analysis: control flow inside a function is
ignored (a write on any path counts), and ambiguous receivers propagate
through every candidate callee.  That direction errs toward reporting —
the right bias for contract checking, where a silent miss is a silently
corrupted cache.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

from repro.analysis.astutil import MUTATING_METHODS, dotted
from repro.analysis.callgraph import CallGraph, CallSite, FunctionInfo, bind_args
from repro.analysis.registry import walk_scope

__all__ = [
    "EffectAnalysis",
    "FunctionEffects",
    "MutationEvent",
    "alias_roots",
    "is_ambient_rng_call",
    "mutation_events",
]


@dataclass
class MutationEvent:
    """One in-place write through a tracked local name."""

    name: str
    node: ast.AST
    line: int
    kind: str  # "subscript" | "aug" | "method" | "out" | "del" | "unfreeze"


def mutation_events(
    func_node: ast.FunctionDef | ast.AsyncFunctionDef,
) -> list[MutationEvent]:
    """Every in-place mutation of a bare local name in one function body.

    Covers subscript/slice stores (``a[...] = v``), augmented assignment
    (``a += v``, ``a[i] += v``), in-place mutating method calls
    (``a.sort()``), numpy ``out=`` targets (``np.add(x, y, out=a)``),
    ``del a[...]``, and re-enabling writes on a frozen array
    (``a.flags.writeable = True``).
    """
    events: list[MutationEvent] = []

    def target_name(target: ast.AST) -> tuple[str, str] | None:
        if isinstance(target, ast.Subscript) and isinstance(
            target.value, ast.Name
        ):
            return target.value.id, "subscript"
        if isinstance(target, ast.Name):
            return target.id, "aug"
        if isinstance(target, ast.Attribute):
            path = dotted(target)
            if path is not None and path.endswith(".flags.writeable"):
                return path.split(".")[0], "unfreeze"
        return None

    for node in walk_scope(func_node):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                found = target_name(target)
                if found is None or found[1] == "aug":
                    continue
                if found[1] == "unfreeze" and not (
                    isinstance(node.value, ast.Constant)
                    and node.value.value is True
                ):
                    # ``a.flags.writeable = False`` is the *freeze* — the
                    # protective act, not a mutation.
                    continue
                events.append(
                    MutationEvent(found[0], node, node.lineno, found[1])
                )
        elif isinstance(node, ast.AugAssign):
            found = target_name(node.target)
            if found is not None:
                events.append(
                    MutationEvent(found[0], node, node.lineno, found[1])
                )
        elif isinstance(node, ast.Delete):
            for target in node.targets:
                if isinstance(target, ast.Subscript) and isinstance(
                    target.value, ast.Name
                ):
                    events.append(
                        MutationEvent(target.value.id, node, node.lineno, "del")
                    )
        elif isinstance(node, ast.Call):
            func = node.func
            if (
                isinstance(func, ast.Attribute)
                and isinstance(func.value, ast.Name)
                and func.attr in MUTATING_METHODS
            ):
                events.append(
                    MutationEvent(func.value.id, node, node.lineno, "method")
                )
            for keyword in node.keywords:
                if keyword.arg == "out" and isinstance(keyword.value, ast.Name):
                    events.append(
                        MutationEvent(
                            keyword.value.id, node, node.lineno, "out"
                        )
                    )
    return events


def alias_roots(
    func_node: ast.FunctionDef | ast.AsyncFunctionDef,
    seeds: set[str],
) -> dict[str, set[str]]:
    """Map each local name to the seed names it may alias.

    One ordered textual pass: ``v = s`` and ``v = s[...]`` (a numpy view)
    extend an alias chain; rebinding a name to anything else resets it.
    Seeds alias themselves.  Control flow is ignored (may-alias).
    """
    roots: dict[str, set[str]] = {name: {name} for name in seeds}

    def roots_of(expr: ast.AST) -> set[str]:
        if isinstance(expr, ast.Name):
            return set(roots.get(expr.id, ()))
        if isinstance(expr, ast.Subscript) and isinstance(expr.value, ast.Name):
            return set(roots.get(expr.value.id, ()))
        if isinstance(expr, ast.Call) and isinstance(expr.func, ast.Attribute):
            # ``s.view()`` / ``s.reshape(...)`` share the buffer.
            if expr.func.attr in ("view", "reshape", "ravel", "squeeze"):
                if isinstance(expr.func.value, ast.Name):
                    return set(roots.get(expr.func.value.id, ()))
        return set()

    assignments = [
        node
        for node in walk_scope(func_node)
        if isinstance(node, ast.Assign) and len(node.targets) == 1
    ]
    for node in sorted(assignments, key=lambda n: n.lineno):
        target = node.targets[0]
        if not isinstance(target, ast.Name):
            continue
        aliased = roots_of(node.value)
        if target.id in seeds:
            aliased.add(target.id)
        if aliased:
            roots[target.id] = aliased
        else:
            roots.pop(target.id, None)
    return roots


def is_ambient_rng_call(node: ast.Call) -> bool:
    """Whether a call creates an *unseeded* random generator."""
    path = dotted(node.func)
    if path is None:
        return False
    parts = path.split(".")
    tail = parts[-1]
    if tail == "default_rng":
        return not node.args and not node.keywords
    if tail == "RandomState" and "random" in parts[:-1]:
        return not node.args and not node.keywords
    if tail == "Random" and parts[0] == "random":
        return not node.args and not node.keywords
    return False


@dataclass
class FunctionEffects:
    """The inferred mutation/escape summary of one function."""

    qualname: str
    #: Parameters written in place, directly or through any callee.
    writes_params: set[str] = field(default_factory=set)
    #: Parameters written by this function's own body.
    direct_writes_params: set[str] = field(default_factory=set)
    #: ``(class, field)`` coherent fields mutated transitively.
    mutated_fields: set[tuple[str, str]] = field(default_factory=set)
    #: Coherent fields this body mutates textually (``self.<f>`` writes).
    direct_mutated_fields: set[tuple[str, str]] = field(default_factory=set)
    #: Whether the return value may be an ambient (unseeded) generator.
    returns_ambient_rng: bool = False
    #: Local names bound to ambient generators in this body.
    ambient_names: set[str] = field(default_factory=set)
    #: Parameters that may receive an ambient generator from a caller.
    tainted_params: set[str] = field(default_factory=set)
    #: Local name -> parameter seeds it may alias (for write attribution).
    param_aliases: dict[str, set[str]] = field(default_factory=dict)


class EffectAnalysis:
    """Whole-program effect summaries, computed to a fixpoint."""

    def __init__(self, graph: CallGraph) -> None:
        self.graph = graph
        self.effects: dict[str, FunctionEffects] = {}
        self._site_of_node: dict[int, CallSite] = {}
        for sites in graph.edges.values():
            for site in sites:
                self._site_of_node[id(site.node)] = site
        for qualname, info in graph.functions.items():
            self.effects[qualname] = self._direct_facts(info)
        self._fix_writes_params()
        self._fix_mutated_fields()
        self._fix_ambient_returns()
        self._fix_tainted_params()

    def summary(self, qualname: str) -> FunctionEffects | None:
        return self.effects.get(qualname)

    # -- direct (intraprocedural) facts ------------------------------------

    def _direct_facts(self, info: FunctionInfo) -> FunctionEffects:
        fx = FunctionEffects(qualname=info.qualname)
        params = set(info.params)
        fx.param_aliases = alias_roots(info.node, params)
        for event in mutation_events(info.node):
            for root in fx.param_aliases.get(event.name, ()):
                if root in params:
                    fx.direct_writes_params.add(root)
        fx.writes_params = set(fx.direct_writes_params)

        if info.class_name is not None:
            owner = self.graph.classes.get(info.class_name)
            if owner is not None and owner.coherent_fields:
                for field_name, node in _self_field_mutations(info.node):
                    if field_name in owner.coherent_fields:
                        fx.direct_mutated_fields.add(
                            (info.class_name, field_name)
                        )
        fx.mutated_fields = set(fx.direct_mutated_fields)

        for node in walk_scope(info.node):
            if not isinstance(node, ast.Assign):
                continue
            if isinstance(node.value, ast.Call) and is_ambient_rng_call(
                node.value
            ):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        fx.ambient_names.add(target.id)
        for node in walk_scope(info.node):
            if isinstance(node, ast.Return) and node.value is not None:
                if self._expr_may_be_ambient(node.value, fx):
                    fx.returns_ambient_rng = True
        return fx

    # -- fixpoints ---------------------------------------------------------

    def _each_binding(self):
        """Yield ``(caller_fx, callee_fx, param, expr)`` for internal edges."""
        for caller, sites in self.graph.edges.items():
            caller_fx = self.effects.get(caller)
            if caller_fx is None:
                continue
            for site in sites:
                method_call = isinstance(site.node.func, ast.Attribute)
                for callee in site.callees:
                    callee_info = self.graph.functions.get(callee)
                    if callee_info is None:
                        continue
                    for param, expr in bind_args(
                        site.node, callee_info, method_call=method_call
                    ):
                        yield caller_fx, self.effects[callee], param, expr, site

    def _fix_writes_params(self) -> None:
        changed = True
        while changed:
            changed = False
            for caller_fx, callee_fx, param, expr, _site in self._each_binding():
                if param not in callee_fx.writes_params:
                    continue
                if not isinstance(expr, ast.Name):
                    continue
                for root in caller_fx.param_aliases.get(expr.id, ()):
                    if (
                        root not in caller_fx.writes_params
                        and root in caller_fx.param_aliases
                        and root in set(
                            self.graph.functions[caller_fx.qualname].params
                        )
                    ):
                        caller_fx.writes_params.add(root)
                        changed = True

    def _fix_mutated_fields(self) -> None:
        changed = True
        while changed:
            changed = False
            for caller, sites in self.graph.edges.items():
                caller_fx = self.effects.get(caller)
                if caller_fx is None:
                    continue
                for site in sites:
                    for callee in site.callees:
                        callee_fx = self.effects.get(callee)
                        if callee_fx is None:
                            continue
                        missing = (
                            callee_fx.mutated_fields - caller_fx.mutated_fields
                        )
                        if missing:
                            caller_fx.mutated_fields |= missing
                            changed = True

    def _fix_ambient_returns(self) -> None:
        changed = True
        while changed:
            changed = False
            for qualname, fx in self.effects.items():
                if fx.returns_ambient_rng:
                    continue
                info = self.graph.functions[qualname]
                for node in walk_scope(info.node):
                    if isinstance(node, ast.Return) and node.value is not None:
                        if self._expr_may_be_ambient(node.value, fx):
                            fx.returns_ambient_rng = True
                            changed = True
                            break

    def _fix_tainted_params(self) -> None:
        changed = True
        while changed:
            changed = False
            for caller_fx, callee_fx, param, expr, _site in self._each_binding():
                if param in callee_fx.tainted_params:
                    continue
                if self._expr_may_be_ambient(expr, caller_fx):
                    callee_fx.tainted_params.add(param)
                    changed = True

    def _expr_may_be_ambient(
        self, expr: ast.AST, fx: FunctionEffects
    ) -> bool:
        """Whether an expression may evaluate to an ambient generator."""
        if isinstance(expr, ast.Name):
            return expr.id in fx.ambient_names or expr.id in fx.tainted_params
        if isinstance(expr, ast.Call):
            if is_ambient_rng_call(expr):
                return True
            site = self._site_of_node.get(id(expr))
            if site is not None:
                return any(
                    self.effects[callee].returns_ambient_rng
                    for callee in site.callees
                    if callee in self.effects
                )
        if isinstance(expr, ast.IfExp):
            return self._expr_may_be_ambient(
                expr.body, fx
            ) or self._expr_may_be_ambient(expr.orelse, fx)
        if isinstance(expr, ast.BoolOp):
            return any(
                self._expr_may_be_ambient(value, fx) for value in expr.values
            )
        return False

    # -- queries used by the IP rules --------------------------------------

    def reaches_call(
        self, qualname: str, target_names: set[str], *, max_depth: int = 8
    ) -> bool:
        """Whether a function transitively performs a call named in
        ``target_names`` (bare last-component match), following internal
        edges up to ``max_depth`` frames."""
        seen: set[str] = set()
        frontier = [qualname]
        for _ in range(max_depth):
            next_frontier: list[str] = []
            for current in frontier:
                if current in seen:
                    continue
                seen.add(current)
                for site in self.graph.sites_in(current):
                    if site.name.split(".")[-1] in target_names:
                        return True
                    next_frontier.extend(
                        callee
                        for callee in site.callees
                        if callee not in seen
                    )
            if not next_frontier:
                return False
            frontier = next_frontier
        return False

    def ambient_decision_crossings(
        self, decision_scope: tuple[str, ...]
    ) -> list[tuple[CallSite, str, str]]:
        """Call sites where ambient randomness enters a decision module.

        Returns ``(site, callee_qualname, param)`` triples where the
        caller sits *outside* the decision scope (inside, DET001 already
        bans the ambient source itself) and the callee inside it.
        """

        def in_scope(module: str) -> bool:
            return any(
                module == prefix or module.startswith(prefix + ".")
                for prefix in decision_scope
            )

        crossings: list[tuple[CallSite, str, str]] = []
        for caller_fx, callee_fx, param, expr, site in self._each_binding():
            caller_info = self.graph.functions.get(caller_fx.qualname)
            callee_info = self.graph.functions.get(callee_fx.qualname)
            if caller_info is None or callee_info is None:
                continue
            if in_scope(caller_info.module) or not in_scope(callee_info.module):
                continue
            if self._expr_may_be_ambient(expr, caller_fx):
                crossings.append((site, callee_fx.qualname, param))
        return crossings


def _self_field_mutations(
    func: ast.FunctionDef | ast.AsyncFunctionDef,
):
    """``(field, node)`` for each textual ``self.<field>`` mutation."""
    for node in walk_scope(func):
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        elif isinstance(node, ast.Delete):
            targets = node.targets
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            if node.func.attr in MUTATING_METHODS:
                inner = node.func.value
                if (
                    isinstance(inner, ast.Attribute)
                    and isinstance(inner.value, ast.Name)
                    and inner.value.id == "self"
                ):
                    yield inner.attr, node
            continue
        else:
            continue
        for target in targets:
            if isinstance(target, ast.Attribute) and isinstance(
                target.value, ast.Name
            ):
                if target.value.id == "self":
                    yield target.attr, target
            elif isinstance(target, ast.Subscript):
                inner = target.value
                if (
                    isinstance(inner, ast.Attribute)
                    and isinstance(inner.value, ast.Name)
                    and inner.value.id == "self"
                ):
                    yield inner.attr, target
