"""Cache-coherence rules (CC).

These rules verify the declarations made with the
:mod:`repro.perf.coherence` decorators: classes declare which fields feed
fingerprints/tokens/derived caches (``@coherent``), which memos are kept
fresh by revision-carrying keys (``@keyed``), and methods declare intended
mutations (``@mutates``) and invalidation capability (``@invalidates``).
The analyser re-derives the registry from source — no imports, no runtime —
and checks that every mutation discharges its invalidation obligation.
"""

from __future__ import annotations

import ast
from collections.abc import Iterable
from dataclasses import dataclass, field

from repro.analysis.astutil import dep_kind
from repro.analysis.context import FileContext
from repro.analysis.findings import Finding, Severity
from repro.analysis.registry import Rule, register, walk_scope

__all__ = [
    "MutatorHookRule",
    "UndeclaredMutationRule",
    "ForeignMutationRule",
    "StaleCrossDeclarationRule",
    "KeyedMemoRule",
]

#: Method-call names that mutate their receiver in place.
_MUTATING_METHODS = {
    "append", "add", "remove", "discard", "pop", "popitem", "clear",
    "update", "setdefault", "extend", "insert", "sort", "reverse",
    "move_to_end", "fill", "resize",
}

#: The ``@coherent`` dependency name meaning "never mutate after init".
_FROZEN = "frozen"

#: The ``@coherent`` dependency name for advisory state that is re-checked
#: against ground truth at every point of use (e.g. warm-start cap hints):
#: stale entries cost time, never correctness, so declared mutators carry
#: no invalidation obligation.  CC002 still requires the ``@mutates``
#: declaration — the *intent* to mutate stays explicit.  The declaration
#: may name the verifier(s) — ``"verified:caps_fresh"`` — which
#: the interprocedural rule IP005 checks; here only the kind matters, so
#: all comparisons go through :func:`repro.analysis.astutil.dep_kind`.
_VERIFIED = "verified"

#: Methods allowed to touch coherent fields without a declaration: object
#: construction, which by definition precedes any derived cache.
_CONSTRUCTORS = {"__init__", "__post_init__", "__new__"}


def _decorator_call(node: ast.AST, name: str) -> ast.Call | None:
    """The decorator node if it is ``@name(...)`` (possibly dotted)."""
    if not isinstance(node, ast.Call):
        return None
    func = node.func
    if isinstance(func, ast.Name) and func.id == name:
        return node
    if isinstance(func, ast.Attribute) and func.attr == name:
        return node
    return None


def _string_args(call: ast.Call) -> list[str]:
    return [
        arg.value
        for arg in call.args
        if isinstance(arg, ast.Constant) and isinstance(arg.value, str)
    ]


def _string_keywords(call: ast.Call) -> dict[str, str]:
    out: dict[str, str] = {}
    for keyword in call.keywords:
        if keyword.arg and isinstance(keyword.value, ast.Constant) and isinstance(
            keyword.value.value, str
        ):
            out[keyword.arg] = keyword.value.value
    return out


@dataclass
class _ClassDecl:
    """One class's coherence declarations, as parsed from source."""

    name: str
    module: str
    coherent_fields: dict[str, str] = field(default_factory=dict)
    keyed_fields: dict[str, str] = field(default_factory=dict)
    mutator_methods: dict[str, tuple[str, ...]] = field(default_factory=dict)


class _Declarations:
    """Whole-program facts shared by every CC rule within one run."""

    def __init__(self) -> None:
        self.classes: dict[str, _ClassDecl] = {}  # class name -> declaration
        self.providers: dict[str, set[str]] = {}  # dependency -> callables
        #: field name -> {(class name, dependency)} for the foreign check.
        self.coherent_field_owners: dict[str, set[tuple[str, str]]] = {}
        self.seen_modules: set[str] = set()

    def collect(self, ctx: FileContext) -> None:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.ClassDef):
                self._collect_class(ctx, node)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._collect_function(node)

    def _collect_class(self, ctx: FileContext, node: ast.ClassDef) -> None:
        decl = self.classes.setdefault(
            node.name, _ClassDecl(name=node.name, module=ctx.module)
        )
        for decorator in node.decorator_list:
            call = _decorator_call(decorator, "coherent")
            if call is not None:
                decl.coherent_fields.update(_string_keywords(call))
            call = _decorator_call(decorator, "keyed")
            if call is not None:
                decl.keyed_fields.update(_string_keywords(call))
        for field_name, dependency in decl.coherent_fields.items():
            self.coherent_field_owners.setdefault(field_name, set()).add(
                (node.name, dependency)
            )
        for item in node.body:
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                declared = self._mutates_of(item)
                if declared:
                    decl.mutator_methods[item.name] = declared
                self._collect_function(item)

    def _collect_function(self, node: ast.FunctionDef | ast.AsyncFunctionDef) -> None:
        for decorator in node.decorator_list:
            call = _decorator_call(decorator, "invalidates")
            if call is not None:
                for dependency in _string_args(call):
                    self.providers.setdefault(dependency, set()).add(node.name)

    @staticmethod
    def _mutates_of(node: ast.FunctionDef | ast.AsyncFunctionDef) -> tuple[str, ...]:
        declared: list[str] = []
        for decorator in node.decorator_list:
            call = _decorator_call(decorator, "mutates")
            if call is not None:
                declared.extend(_string_args(call))
        return tuple(declared)

    @staticmethod
    def _invalidates_of(
        node: ast.FunctionDef | ast.AsyncFunctionDef,
    ) -> tuple[str, ...]:
        provided: list[str] = []
        for decorator in node.decorator_list:
            call = _decorator_call(decorator, "invalidates")
            if call is not None:
                provided.extend(_string_args(call))
        return tuple(provided)


#: One shared declaration table per analysis run.  The runner resets it
#: before the collect phase (see ``reset_declarations``).
_DECLARATIONS = _Declarations()


def reset_declarations() -> None:
    """Start a fresh declaration table (called by the runner per run)."""
    global _DECLARATIONS
    _DECLARATIONS = _Declarations()


def declarations() -> _Declarations:
    return _DECLARATIONS


class _CCRuleBase(Rule):
    """Shared collect phase: parse declarations out of every file."""

    severity = Severity.ERROR

    def collect(self, ctx: FileContext) -> None:
        # The table is shared; only the first CC rule pays the parse.
        decls = declarations()
        if str(ctx.path) not in decls.seen_modules:
            decls.seen_modules.add(str(ctx.path))
            decls.collect(ctx)


def _self_field_mutations(
    func: ast.FunctionDef | ast.AsyncFunctionDef,
) -> Iterable[tuple[str, ast.AST]]:
    """Yield ``(field, node)`` for each textual ``self.<field>`` mutation."""
    for node in walk_scope(func):
        yield from _field_mutations_of(node, receiver="self")


def _field_mutations_of(
    node: ast.AST, *, receiver: str | None
) -> Iterable[tuple[str, ast.AST]]:
    """``(field, node)`` pairs for mutations through one receiver name.

    ``receiver=None`` matches any non-``self`` name (the foreign check).
    Covers plain/aug assignment, ``del``, subscript stores, slice stores,
    and in-place mutating method calls.
    """

    def matches(value: ast.AST) -> bool:
        if not isinstance(value, ast.Name):
            return False
        if receiver is None:
            return value.id != "self"
        return value.id == receiver

    def attr_of(target: ast.AST) -> str | None:
        # `obj.field` directly, or `obj.field[...]` subscript store.
        if isinstance(target, ast.Attribute) and matches(target.value):
            return target.attr
        if isinstance(target, ast.Subscript):
            inner = target.value
            if isinstance(inner, ast.Attribute) and matches(inner.value):
                return inner.attr
        return None

    if isinstance(node, ast.Assign):
        for target in node.targets:
            name = attr_of(target)
            if name is not None:
                yield name, node
    elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
        name = attr_of(node.target)
        if name is not None:
            yield name, node
    elif isinstance(node, ast.Delete):
        for target in node.targets:
            name = attr_of(target)
            if name is not None:
                yield name, node
    elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
        if node.func.attr in _MUTATING_METHODS:
            inner = node.func.value
            if isinstance(inner, ast.Attribute) and matches(inner.value):
                yield inner.attr, node


# --------------------------------------------------------------------------
# Every-path call analysis
# --------------------------------------------------------------------------


def _is_provider_call(stmt: ast.AST, provider_names: set[str]) -> bool:
    """Whether a simple statement performs a call to any provider."""
    for node in walk_scope(stmt):
        if isinstance(node, ast.Call):
            func = node.func
            name = None
            if isinstance(func, ast.Name):
                name = func.id
            elif isinstance(func, ast.Attribute):
                name = func.attr
            if name in provider_names:
                return True
    return False


def always_calls(
    body: list[ast.stmt], provider_names: set[str]
) -> tuple[bool, list[ast.stmt]]:
    """Conservative every-path analysis of one statement list.

    Returns ``(called_at_fallthrough, bad_exits)`` where ``bad_exits`` are
    ``return`` statements reached without a provider call.  Paths that end
    in ``raise`` are exempt (error paths abandon the mutation's effects to
    the caller, which re-raises past every cache consumer).
    """
    bad_exits: list[ast.stmt] = []
    called = _scan_block(body, False, bad_exits, provider_names)
    return called, bad_exits


def _scan_block(
    stmts: list[ast.stmt],
    called: bool,
    bad_exits: list[ast.stmt],
    providers: set[str],
) -> bool:
    for stmt in stmts:
        if isinstance(stmt, ast.Return):
            if not called and not _is_provider_call(stmt, providers):
                bad_exits.append(stmt)
            return True  # nothing after a return is reachable
        if isinstance(stmt, ast.Raise):
            return True  # raise-exit: exempt, block cannot fall through
        if isinstance(stmt, ast.If):
            then_called = _scan_block(stmt.body, called, bad_exits, providers)
            else_called = _scan_block(stmt.orelse, called, bad_exits, providers)
            called = called or (then_called and else_called)
            continue
        if isinstance(stmt, (ast.For, ast.AsyncFor, ast.While)):
            # The loop body may run zero times: calls inside cannot be
            # credited, but returns inside are still real exits.
            _scan_block(stmt.body, called, bad_exits, providers)
            _scan_block(stmt.orelse, called, bad_exits, providers)
            continue
        if isinstance(stmt, ast.Try):
            body_called = _scan_block(stmt.body, called, bad_exits, providers)
            for handler in stmt.handlers:
                _scan_block(handler.body, called, bad_exits, providers)
            else_called = _scan_block(stmt.orelse, body_called, bad_exits, providers)
            final_called = _scan_block(
                stmt.finalbody, called, bad_exits, providers
            )
            # Only the finally block is guaranteed on every path.
            called = called or final_called
            if not stmt.finalbody:
                called = called or (body_called and else_called)
            continue
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            called = _scan_block(stmt.body, called, bad_exits, providers)
            continue
        if isinstance(stmt, ast.Match):
            # Conservative: cases are alternatives and may all be skipped.
            for case in stmt.cases:
                _scan_block(case.body, called, bad_exits, providers)
            continue
        if isinstance(
            stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        ):
            continue  # nested definitions run later, if ever
        if not called and _is_provider_call(stmt, providers):
            called = True
    return called


# --------------------------------------------------------------------------
# The rules
# --------------------------------------------------------------------------


@register
class MutatorHookRule(_CCRuleBase):
    """CC001 — declared mutators must invalidate on every path.

    A method decorated ``@mutates("<field>")`` whose class declares the
    field via ``@coherent(<field>="<dep>")`` must, on every non-raising
    path, call a function registered as ``@invalidates("<dep>")`` (or be
    such a provider itself).  Mutating a fingerprinted/tokenised field
    without reaching its invalidation hook leaves every derived cache —
    planning tables, fill fingerprints, revision-keyed memos — silently
    stale.  Fields declared ``frozen`` have no hook and must not be
    mutated at all.
    """

    rule_id = "CC001"
    title = "coherent-field mutator misses its invalidation hook"

    def check(self, ctx: FileContext) -> Iterable[Finding]:
        decls = declarations()
        for class_node in ast.walk(ctx.tree):
            if not isinstance(class_node, ast.ClassDef):
                continue
            decl = decls.classes.get(class_node.name)
            if decl is None or not decl.coherent_fields:
                continue
            for item in class_node.body:
                if not isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                declared = decls._mutates_of(item)
                if not declared:
                    continue
                self_provided = set(decls._invalidates_of(item))
                for field_name in declared:
                    if "." in field_name:
                        continue  # cross-class: checked by CC004
                    dependency = decl.coherent_fields.get(field_name)
                    if dependency is None:
                        yield ctx.finding(
                            item,
                            self.rule_id,
                            f"@mutates({field_name!r}) on "
                            f"{decl.name}.{item.name} names a field the "
                            f"class does not declare via @coherent(...)",
                        )
                        continue
                    if dep_kind(dependency) == _FROZEN:
                        yield ctx.finding(
                            item,
                            self.rule_id,
                            f"{decl.name}.{field_name} is declared frozen; "
                            f"no mutator may exist for it",
                        )
                        continue
                    if dep_kind(dependency) == _VERIFIED:
                        # Advisory state, re-validated at use: the declared
                        # mutator discharges nothing.
                        continue
                    if dependency in self_provided:
                        continue  # the method IS the invalidation point
                    providers = decls.providers.get(dependency, set())
                    if not providers:
                        yield ctx.finding(
                            item,
                            self.rule_id,
                            f"no @invalidates({dependency!r}) provider is "
                            f"declared anywhere in the analysed tree",
                        )
                        continue
                    called, bad_exits = always_calls(item.body, providers)
                    # Early-guard returns *before* the first textual
                    # mutation of the field exit with nothing to
                    # invalidate; only exits at or past the mutation count.
                    mutation_lines = [
                        node.lineno
                        for name, node in _self_field_mutations(item)
                        if name == field_name
                    ]
                    if mutation_lines:
                        threshold = min(mutation_lines)
                        bad_exits = [
                            exit_stmt
                            for exit_stmt in bad_exits
                            if exit_stmt.lineno >= threshold
                        ]
                    if called and not bad_exits:
                        continue
                    anchor = bad_exits[0] if bad_exits else item
                    names = ", ".join(sorted(providers))
                    yield ctx.finding(
                        anchor,
                        self.rule_id,
                        f"{decl.name}.{item.name} mutates coherent field "
                        f"{field_name!r} but does not call an invalidation "
                        f"provider of {dependency!r} ({names}) on every "
                        f"non-raising path",
                    )


@register
class UndeclaredMutationRule(_CCRuleBase):
    """CC002 — coherent fields may only be mutated by declared mutators.

    Inside a class that declares ``@coherent`` fields, any textual
    mutation of such a field (``self.f = ...``, ``self.f += ...``,
    ``self.f[...] = ...``, ``del self.f``, or an in-place method call
    like ``self.f.update(...)``) must sit in a method decorated
    ``@mutates("f")`` — or in ``__init__``/``__post_init__``, where the
    object cannot yet have dependants.  Frozen fields admit no mutator
    outside construction at all.
    """

    rule_id = "CC002"
    title = "undeclared mutation of a coherent field"

    def check(self, ctx: FileContext) -> Iterable[Finding]:
        decls = declarations()
        for class_node in ast.walk(ctx.tree):
            if not isinstance(class_node, ast.ClassDef):
                continue
            decl = decls.classes.get(class_node.name)
            if decl is None or not decl.coherent_fields:
                continue
            for item in class_node.body:
                if not isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                if item.name in _CONSTRUCTORS:
                    continue
                declared = set(decls._mutates_of(item))
                for field_name, node in _self_field_mutations(item):
                    if field_name not in decl.coherent_fields:
                        continue
                    if field_name in declared:
                        continue
                    dependency = decl.coherent_fields[field_name]
                    if dep_kind(dependency) == _FROZEN:
                        hint = (
                            "the field is frozen: move the mutation into "
                            "construction"
                        )
                    elif dep_kind(dependency) == _VERIFIED:
                        hint = (
                            f"the field is advisory (verified at use): "
                            f"decorate the method with "
                            f"@mutates({field_name!r})"
                        )
                    else:
                        hint = (
                            f"decorate the method with "
                            f"@mutates({field_name!r}) and call the "
                            f"{dependency!r} invalidation"
                        )
                    yield ctx.finding(
                        node,
                        self.rule_id,
                        f"{decl.name}.{item.name} mutates coherent field "
                        f"{field_name!r} without declaring it; {hint}",
                    )


@register
class ForeignMutationRule(_CCRuleBase):
    """CC003 — no reaching into another object's coherent fields.

    A field declared coherent anywhere in the tree must never be mutated
    through a non-``self`` receiver (``ledger._plans[...] = ...``,
    ``info.weights += ...``): all mutation goes through the owning
    class's declared mutator methods, which carry the invalidation
    obligation.  A function may override this only by declaring the
    cross-class mutation explicitly: ``@mutates("Ledger._plans")``.
    """

    rule_id = "CC003"
    title = "foreign mutation of a coherent field"

    def check(self, ctx: FileContext) -> Iterable[Finding]:
        decls = declarations()
        if not decls.coherent_field_owners:
            return
        for func in ast.walk(ctx.tree):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            permitted = {
                name for name in decls._mutates_of(func) if "." in name
            }
            for node in walk_scope(func):
                for field_name, mutation in _field_mutations_of(
                    node, receiver=None
                ):
                    owners = decls.coherent_field_owners.get(field_name)
                    if not owners:
                        continue
                    if any(
                        f"{cls}.{field_name}" in permitted for cls, _ in owners
                    ):
                        continue
                    owner_names = ", ".join(sorted(cls for cls, _ in owners))
                    yield ctx.finding(
                        mutation,
                        self.rule_id,
                        f"mutation of coherent field {field_name!r} (declared "
                        f"by {owner_names}) through a foreign receiver; call "
                        f"the owning class's declared mutator instead",
                    )


@register
class StaleCrossDeclarationRule(_CCRuleBase):
    """CC004 — cross-class @mutates declarations must be exercised.

    ``@mutates("Ledger._plans")`` on a free function promises that the
    function drives mutations of that class's coherent state.  The body
    must therefore call at least one of the class's declared mutator
    methods; a declaration with no matching call is stale documentation
    that would grandfather real violations later.
    """

    rule_id = "CC004"
    title = "stale cross-class mutation declaration"
    severity = Severity.WARNING

    def check(self, ctx: FileContext) -> Iterable[Finding]:
        decls = declarations()
        for func in ast.walk(ctx.tree):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for declared in decls._mutates_of(func):
                if "." not in declared:
                    continue
                class_name, _, field_name = declared.partition(".")
                decl = decls.classes.get(class_name)
                if decl is None or field_name not in decl.coherent_fields:
                    yield ctx.finding(
                        func,
                        self.rule_id,
                        f"@mutates({declared!r}) names an unknown coherent "
                        f"field; declare it with @coherent on {class_name}",
                        severity=self.severity,
                    )
                    continue
                mutators = {
                    name
                    for name, fields in decl.mutator_methods.items()
                    if field_name in fields
                }
                if not mutators:
                    continue  # the class declares no mutators to call
                if not self._calls_any(func, mutators):
                    names = ", ".join(sorted(mutators))
                    yield ctx.finding(
                        func,
                        self.rule_id,
                        f"{func.name} declares @mutates({declared!r}) but "
                        f"never calls a declared mutator ({names})",
                        severity=self.severity,
                    )

    @staticmethod
    def _calls_any(func: ast.AST, method_names: set[str]) -> bool:
        for node in ast.walk(func):
            if isinstance(node, ast.Call) and isinstance(
                node.func, ast.Attribute
            ):
                if node.func.attr in method_names:
                    return True
        return False


@register
class KeyedMemoRule(_CCRuleBase):
    """CC005 — revision-keyed memos must derive keys from their revision.

    A field declared ``@keyed(<memo>="<key_fn>")`` holds cache entries
    whose freshness is carried by the key, not by an invalidation hook.
    Any method that stores into the memo (``self.<memo>[...] = ...`` or
    an in-place write) must call ``<key_fn>(...)`` somewhere in its body
    — otherwise the entry is keyed without the revision and survives the
    invalidation it was supposed to observe.
    """

    rule_id = "CC005"
    title = "revision-keyed memo written without its revision function"

    def check(self, ctx: FileContext) -> Iterable[Finding]:
        decls = declarations()
        for class_node in ast.walk(ctx.tree):
            if not isinstance(class_node, ast.ClassDef):
                continue
            decl = decls.classes.get(class_node.name)
            if decl is None or not decl.keyed_fields:
                continue
            for item in class_node.body:
                if not isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                if item.name in _CONSTRUCTORS:
                    continue
                written = {
                    name
                    for name, _ in _self_field_mutations(item)
                    if name in decl.keyed_fields
                }
                for field_name in sorted(written):
                    key_fn = decl.keyed_fields[field_name]
                    if not _is_provider_call(item, {key_fn}):
                        yield ctx.finding(
                            item,
                            self.rule_id,
                            f"{decl.name}.{item.name} writes revision-keyed "
                            f"memo {field_name!r} without deriving the key "
                            f"from {key_fn}(...)",
                        )
