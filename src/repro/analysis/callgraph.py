"""Project-wide symbol table and call graph (stdlib ``ast`` only).

This is the foundation of the interprocedural pass: one
:class:`CallGraph` indexes every module-level function, every class and
its methods, the ``@coherent``/``@keyed``/``@mutates``/``@invalidates``
declarations from :mod:`repro.perf.coherence`, and every call site, each
resolved to its in-tree callee(s) where possible.

Resolution is deliberately layered (most precise first):

1. **Typed receivers** — ``self.m(...)`` resolves through the enclosing
   class (walking base classes by name); ``obj.m(...)`` resolves when the
   receiver's class is known from a parameter annotation, a local
   ``obj = ClassName(...)`` construction, or an instance-attribute type
   recorded from ``__init__`` / class-body annotations.
2. **Module bindings** — names bound by ``import``/``from ... import``
   resolve either to in-tree functions/classes or to provably-external
   modules (numpy, stdlib).
3. **Name fallback** — a bare name matching a module-level function of the
   same module, a class (constructor call), or a builtin.
4. **Unique-method fallback** — an attribute call on an untyped receiver
   whose method name is defined by in-tree classes resolves to *all*
   candidates (sound over-approximation); a method name defined by **no**
   in-tree class is provably external.

Anything else (calls through local callable variables, ``getattr``
dispatch) is counted *unresolved*; the coverage statistic reported in
``BENCH_analysis.json`` is ``(internal + external) / total`` and the
acceptance bar for this tree is >= 95% (see docs/static-analysis.md).
"""

from __future__ import annotations

import ast
import builtins
from dataclasses import dataclass, field

from repro.analysis.astutil import (
    MUTATING_METHODS,
    decorator_call,
    dotted,
    string_args,
    string_keywords,
)
from repro.analysis.context import FileContext

__all__ = ["CallGraph", "CallSite", "ClassInfo", "FunctionInfo", "bind_args"]

#: Names that resolve through the interpreter, never through this tree.
_BUILTIN_NAMES = frozenset(dir(builtins))

#: Pseudo-function name for module-level (import-time) call sites.
MODULE_SCOPE = "<module>"


@dataclass
class FunctionInfo:
    """One module-level function or method, as indexed from source."""

    qualname: str
    module: str
    name: str
    class_name: str | None
    node: ast.FunctionDef | ast.AsyncFunctionDef
    path: str
    mutates: tuple[str, ...] = ()
    invalidates: tuple[str, ...] = ()
    is_property: bool = False
    params: tuple[str, ...] = ()
    param_types: dict[str, str] = field(default_factory=dict)

    @property
    def is_method(self) -> bool:
        return self.class_name is not None


@dataclass
class ClassInfo:
    """One class: methods, bases, and its coherence declarations."""

    name: str
    module: str
    qualname: str
    node: ast.ClassDef
    bases: tuple[str, ...] = ()
    methods: dict[str, str] = field(default_factory=dict)
    coherent_fields: dict[str, str] = field(default_factory=dict)
    keyed_fields: dict[str, str] = field(default_factory=dict)
    attr_types: dict[str, str] = field(default_factory=dict)


@dataclass
class CallSite:
    """One ``ast.Call``, attributed to its enclosing function."""

    caller: str
    node: ast.Call
    path: str
    line: int
    name: str
    callees: tuple[str, ...] = ()
    resolution: str = "unresolved"  # "internal" | "external" | "unresolved"


def _annotation_class(annotation: ast.AST | None) -> str | None:
    """Bare class name named by a parameter/attribute annotation, if any."""
    if annotation is None:
        return None
    if isinstance(annotation, ast.Name):
        return annotation.id
    if isinstance(annotation, ast.Attribute):
        return annotation.attr
    if isinstance(annotation, ast.BinOp) and isinstance(annotation.op, ast.BitOr):
        # ``Ledger | None`` — take whichever side names a class.
        return _annotation_class(annotation.left) or _annotation_class(
            annotation.right
        )
    if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
        text = annotation.value.split("|")[0].strip()
        if text and all(part.isidentifier() for part in text.split(".")):
            return text.split(".")[-1]
    if isinstance(annotation, ast.Subscript):
        value = annotation.value
        if isinstance(value, ast.Name) and value.id == "Optional":
            return _annotation_class(annotation.slice)
    return None


def _mutates_of(node: ast.FunctionDef | ast.AsyncFunctionDef) -> tuple[str, ...]:
    declared: list[str] = []
    for decorator in node.decorator_list:
        call = decorator_call(decorator, "mutates")
        if call is not None:
            declared.extend(string_args(call))
    return tuple(declared)


def _invalidates_of(node: ast.FunctionDef | ast.AsyncFunctionDef) -> tuple[str, ...]:
    provided: list[str] = []
    for decorator in node.decorator_list:
        call = decorator_call(decorator, "invalidates")
        if call is not None:
            provided.extend(string_args(call))
    return tuple(provided)


def _is_property(node: ast.FunctionDef | ast.AsyncFunctionDef) -> bool:
    for decorator in node.decorator_list:
        if isinstance(decorator, ast.Name) and decorator.id in (
            "property",
            "cached_property",
        ):
            return True
        if isinstance(decorator, ast.Attribute) and decorator.attr in (
            "property",
            "cached_property",
        ):
            return True
    return False


def bind_args(
    site: ast.Call, callee: FunctionInfo, *, method_call: bool
) -> list[tuple[str, ast.AST]]:
    """Map a call's argument expressions onto the callee's parameter names.

    ``method_call`` strips the implicit ``self``/``cls`` first parameter
    (the receiver is the attribute base, not an argument expression).
    ``*args``/``**kwargs`` forwarding is ignored — the analysis treats it
    as unresolved data flow rather than guessing.
    """
    params = list(callee.params)
    if method_call and params and params[0] in ("self", "cls"):
        params = params[1:]
    bound: list[tuple[str, ast.AST]] = []
    for index, arg in enumerate(site.args):
        if isinstance(arg, ast.Starred):
            break
        if index < len(params):
            bound.append((params[index], arg))
    for keyword in site.keywords:
        if keyword.arg is not None and keyword.arg in callee.params:
            bound.append((keyword.arg, keyword.value))
    return bound


class CallGraph:
    """The whole-program symbol table plus resolved call edges."""

    def __init__(self) -> None:
        self.functions: dict[str, FunctionInfo] = {}
        self.classes: dict[str, ClassInfo] = {}
        #: invalidation name -> function qualnames declaring @invalidates.
        self.providers: dict[str, set[str]] = {}
        #: method bare name -> qualnames across all classes.
        self.methods_by_name: dict[str, list[str]] = {}
        #: (module, name) -> qualname of a module-level function.
        self.module_functions: dict[tuple[str, str], str] = {}
        #: module -> {bound name -> dotted import target}.
        self.imports: dict[str, dict[str, str]] = {}
        #: module -> in-tree modules it imports (for --changed closure).
        self.module_deps: dict[str, set[str]] = {}
        self.modules: set[str] = set()
        self.call_sites: list[CallSite] = []
        #: caller qualname -> its call sites (internal edges live here).
        self.edges: dict[str, list[CallSite]] = {}
        #: callee qualname -> caller qualnames.
        self.callers: dict[str, set[str]] = {}

    # -- construction ------------------------------------------------------

    @classmethod
    def build(cls, contexts: list[FileContext]) -> "CallGraph":
        graph = cls()
        for ctx in contexts:
            graph._index_module(ctx)
        for ctx in contexts:
            graph._resolve_module(ctx)
        return graph

    def _index_module(self, ctx: FileContext) -> None:
        module = ctx.module
        self.modules.add(module)
        bindings = self.imports.setdefault(module, {})
        deps = self.module_deps.setdefault(module, set())
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    bindings[alias.asname or alias.name.split(".")[0]] = alias.name
                    if alias.name.startswith("repro"):
                        deps.add(alias.name)
            elif isinstance(node, ast.ImportFrom) and node.module:
                if node.module.startswith("repro"):
                    deps.add(node.module)
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    target = f"{node.module}.{alias.name}"
                    bindings[alias.asname or alias.name] = target
                    if node.module.startswith("repro"):
                        deps.add(target)
        for stmt in ctx.tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._index_function(ctx, stmt, class_name=None)
            elif isinstance(stmt, ast.ClassDef):
                self._index_class(ctx, stmt)

    def _index_function(
        self,
        ctx: FileContext,
        node: ast.FunctionDef | ast.AsyncFunctionDef,
        *,
        class_name: str | None,
    ) -> FunctionInfo:
        if class_name is None:
            qualname = f"{ctx.module}.{node.name}"
        else:
            qualname = f"{ctx.module}.{class_name}.{node.name}"
        params = tuple(
            arg.arg
            for arg in (
                node.args.posonlyargs + node.args.args + node.args.kwonlyargs
            )
        )
        param_types: dict[str, str] = {}
        for arg in node.args.posonlyargs + node.args.args + node.args.kwonlyargs:
            annotated = _annotation_class(arg.annotation)
            if annotated is not None:
                param_types[arg.arg] = annotated
        info = FunctionInfo(
            qualname=qualname,
            module=ctx.module,
            name=node.name,
            class_name=class_name,
            node=node,
            path=str(ctx.path),
            mutates=_mutates_of(node),
            invalidates=_invalidates_of(node),
            is_property=_is_property(node),
            params=params,
            param_types=param_types,
        )
        self.functions[qualname] = info
        for dependency in info.invalidates:
            self.providers.setdefault(dependency, set()).add(qualname)
        if class_name is None:
            self.module_functions[(ctx.module, node.name)] = qualname
        else:
            self.methods_by_name.setdefault(node.name, []).append(qualname)
        return info

    def _index_class(self, ctx: FileContext, node: ast.ClassDef) -> None:
        qualname = f"{ctx.module}.{node.name}"
        info = ClassInfo(
            name=node.name,
            module=ctx.module,
            qualname=qualname,
            node=node,
            bases=tuple(
                base.id if isinstance(base, ast.Name) else base.attr
                for base in node.bases
                if isinstance(base, (ast.Name, ast.Attribute))
            ),
        )
        for decorator in node.decorator_list:
            call = decorator_call(decorator, "coherent")
            if call is not None:
                info.coherent_fields.update(string_keywords(call))
            call = decorator_call(decorator, "keyed")
            if call is not None:
                info.keyed_fields.update(string_keywords(call))
        for item in node.body:
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                method = self._index_function(ctx, item, class_name=node.name)
                info.methods[item.name] = method.qualname
                if item.name in ("__init__", "__post_init__"):
                    self._collect_attr_types(info, item)
            elif isinstance(item, ast.AnnAssign) and isinstance(
                item.target, ast.Name
            ):
                annotated = _annotation_class(item.annotation)
                if annotated is not None:
                    info.attr_types[item.target.id] = annotated
        # First definition wins on bare-name collisions (none in-tree today;
        # fixtures masquerading under lint-module directives stay isolated
        # because fixture runs analyse one file at a time).
        self.classes.setdefault(node.name, info)

    def _collect_attr_types(
        self, info: ClassInfo, ctor: ast.FunctionDef | ast.AsyncFunctionDef
    ) -> None:
        param_types: dict[str, str] = {}
        for arg in ctor.args.posonlyargs + ctor.args.args + ctor.args.kwonlyargs:
            annotated = _annotation_class(arg.annotation)
            if annotated is not None:
                param_types[arg.arg] = annotated
        for node in ast.walk(ctor):
            target: ast.AST | None = None
            value: ast.AST | None = None
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                target, value = node.targets[0], node.value
            elif isinstance(node, ast.AnnAssign):
                target, value = node.target, node.value
                if isinstance(target, ast.Attribute):
                    annotated = _annotation_class(node.annotation)
                    if annotated is not None and isinstance(
                        target.value, ast.Name
                    ) and target.value.id == "self":
                        info.attr_types.setdefault(target.attr, annotated)
            if (
                isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"
            ):
                if isinstance(value, ast.Call):
                    callee = value.func
                    name = (
                        callee.id
                        if isinstance(callee, ast.Name)
                        else callee.attr
                        if isinstance(callee, ast.Attribute)
                        else None
                    )
                    if name is not None and name[:1].isupper():
                        info.attr_types.setdefault(target.attr, name)
                elif isinstance(value, ast.Name) and value.id in param_types:
                    info.attr_types.setdefault(target.attr, param_types[value.id])

    # -- lookup helpers ----------------------------------------------------

    def method_on(self, class_name: str, method: str) -> str | None:
        """Resolve a method through a class and its (named) bases."""
        seen: set[str] = set()
        stack = [class_name]
        while stack:
            current = stack.pop()
            if current in seen:
                continue
            seen.add(current)
            info = self.classes.get(current)
            if info is None:
                continue
            qualname = info.methods.get(method)
            if qualname is not None:
                return qualname
            stack.extend(info.bases)
        return None

    def class_of(self, qualname: str) -> ClassInfo | None:
        info = self.functions.get(qualname)
        if info is None or info.class_name is None:
            return None
        return self.classes.get(info.class_name)

    def sites_in(self, qualname: str) -> list[CallSite]:
        return self.edges.get(qualname, [])

    # -- call-site resolution ----------------------------------------------

    def _resolve_module(self, ctx: FileContext) -> None:
        module = ctx.module
        for stmt in ctx.tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._resolve_function(ctx, stmt, class_name=None)
            elif isinstance(stmt, ast.ClassDef):
                for item in stmt.body:
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        self._resolve_function(ctx, item, class_name=stmt.name)
                    else:
                        self._resolve_stray(ctx, item, f"{module}.{MODULE_SCOPE}")
            else:
                self._resolve_stray(ctx, stmt, f"{module}.{MODULE_SCOPE}")

    def _resolve_stray(self, ctx: FileContext, node: ast.AST, caller: str) -> None:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Call):
                self._record_site(ctx, caller, sub, class_name=None, func=None)

    def _resolve_function(
        self,
        ctx: FileContext,
        node: ast.FunctionDef | ast.AsyncFunctionDef,
        *,
        class_name: str | None,
    ) -> None:
        if class_name is None:
            qualname = f"{ctx.module}.{node.name}"
        else:
            qualname = f"{ctx.module}.{class_name}.{node.name}"
        info = self.functions.get(qualname)
        local_types = dict(info.param_types) if info is not None else {}
        locally_bound: set[str] = set(info.params) if info is not None else set()
        # One ordered pass records local constructions (``x = Ledger(...)``,
        # ``x = self.attr``) so later receivers type-resolve; control flow
        # is ignored — a wrong branch costs precision, never soundness,
        # because ambiguous receivers fall back to all-candidates.
        for sub in ast.walk(node):
            if isinstance(sub, ast.Assign) and len(sub.targets) == 1:
                target = sub.targets[0]
                if isinstance(target, ast.Name):
                    locally_bound.add(target.id)
                    inferred = self._expr_type(
                        sub.value, class_name, local_types
                    )
                    if inferred is not None:
                        local_types[target.id] = inferred
        for sub in ast.walk(node):
            if isinstance(sub, ast.Call):
                self._record_site(
                    ctx,
                    qualname,
                    sub,
                    class_name=class_name,
                    func=info,
                    local_types=local_types,
                    locally_bound=locally_bound,
                )

    def _expr_type(
        self,
        expr: ast.AST,
        class_name: str | None,
        local_types: dict[str, str],
    ) -> str | None:
        """Bare class name of an expression's value, when statically known."""
        if isinstance(expr, ast.Name):
            if expr.id == "self" and class_name is not None:
                return class_name
            return local_types.get(expr.id)
        if isinstance(expr, ast.Attribute) and isinstance(expr.value, ast.Name):
            if expr.value.id == "self" and class_name is not None:
                owner = self.classes.get(class_name)
                if owner is not None:
                    return owner.attr_types.get(expr.attr)
            receiver_type = local_types.get(expr.value.id)
            if receiver_type is not None:
                owner = self.classes.get(receiver_type)
                if owner is not None:
                    return owner.attr_types.get(expr.attr)
        if isinstance(expr, ast.Call):
            callee = expr.func
            name = (
                callee.id
                if isinstance(callee, ast.Name)
                else callee.attr
                if isinstance(callee, ast.Attribute)
                else None
            )
            if name is not None and name in self.classes:
                return name
        if isinstance(expr, ast.IfExp):
            body = self._expr_type(expr.body, class_name, local_types)
            orelse = self._expr_type(expr.orelse, class_name, local_types)
            if body is not None and orelse in (None, body):
                return body
            if body is None:
                return orelse
        return None

    def _record_site(
        self,
        ctx: FileContext,
        caller: str,
        node: ast.Call,
        *,
        class_name: str | None,
        func: FunctionInfo | None,
        local_types: dict[str, str] | None = None,
        locally_bound: set[str] | None = None,
    ) -> None:
        local_types = local_types or {}
        locally_bound = locally_bound or set()
        name = dotted(node.func) or (
            node.func.attr if isinstance(node.func, ast.Attribute) else "<dynamic>"
        )
        site = CallSite(
            caller=caller,
            node=node,
            path=str(ctx.path),
            line=node.lineno,
            name=name,
        )
        callees, resolution = self._resolve_callee(
            ctx, node.func, class_name, local_types, locally_bound
        )
        site.callees = tuple(callees)
        site.resolution = resolution
        self.call_sites.append(site)
        self.edges.setdefault(caller, []).append(site)
        for callee in callees:
            self.callers.setdefault(callee, set()).add(caller)

    def _resolve_callee(
        self,
        ctx: FileContext,
        func: ast.AST,
        class_name: str | None,
        local_types: dict[str, str],
        locally_bound: set[str],
    ) -> tuple[list[str], str]:
        module = ctx.module
        bindings = self.imports.get(module, {})
        if isinstance(func, ast.Name):
            name = func.id
            target = bindings.get(name)
            if target is not None:
                return self._resolve_dotted_target(target)
            qualname = self.module_functions.get((module, name))
            if qualname is not None:
                return [qualname], "internal"
            if name in self.classes and self.classes[name].module == module:
                ctor = self.method_on(name, "__init__")
                return ([ctor], "internal") if ctor else ([], "external")
            if name in _BUILTIN_NAMES and name not in locally_bound:
                return [], "external"
            return [], "unresolved"
        if isinstance(func, ast.Attribute):
            method = func.attr
            receiver = func.value
            # Module-qualified call: ``np.zeros``, ``tables.cache_enabled``.
            if isinstance(receiver, ast.Name):
                target = bindings.get(receiver.id)
                if target is not None and receiver.id not in locally_bound:
                    return self._resolve_dotted_target(f"{target}.{method}")
            receiver_type = self._expr_type(receiver, class_name, local_types)
            if receiver_type is not None and receiver_type in self.classes:
                qualname = self.method_on(receiver_type, method)
                if qualname is not None:
                    return [qualname], "internal"
                return [], "external"  # e.g. dict/ndarray attr on typed recv
            # Builtin container-protocol names on an *untyped* receiver are
            # overwhelmingly list/dict/set operations; resolving them to a
            # same-named in-tree method (``workers.clear()`` -> ``Ledger.
            # clear``) would fabricate edges.  Typed receivers resolved
            # above still reach in-tree methods of these names.
            if method in MUTATING_METHODS:
                return [], "external"
            candidates = self.methods_by_name.get(method)
            if candidates:
                return list(candidates), "internal"
            # No in-tree callable has this name: provably external.
            return [], "external"
        # Chained/ subscripted call expressions: ``f()()``, ``fns[i]()``.
        return [], "unresolved"

    def _resolve_dotted_target(self, target: str) -> tuple[list[str], str]:
        """Resolve a fully-qualified import target to in-tree functions."""
        if not target.startswith("repro"):
            return [], "external"
        qualname = target
        if qualname in self.functions:
            return [qualname], "internal"
        # ``repro.pkg.Class`` constructor or ``repro.pkg.mod.func``.
        parts = target.split(".")
        tail = parts[-1]
        if tail in self.classes:
            ctor = self.method_on(tail, "__init__")
            return ([ctor], "internal") if ctor else ([], "external")
        for split in range(len(parts) - 1, 0, -1):
            module = ".".join(parts[:split])
            remainder = parts[split:]
            if module in self.modules and remainder:
                if len(remainder) == 1:
                    qualname = self.module_functions.get((module, remainder[0]))
                    if qualname is not None:
                        return [qualname], "internal"
                if remainder[0] in self.classes and len(remainder) == 2:
                    method = self.method_on(remainder[0], remainder[1])
                    if method is not None:
                        return [method], "internal"
                # A re-exported name (``from repro.core import Ledger`` via
                # a package __init__): fall through to bare-name lookup.
                if remainder[-1] in self.classes:
                    ctor = self.method_on(remainder[-1], "__init__")
                    return ([ctor], "internal") if ctor else ([], "external")
        # In-tree module attribute we could not pin down (re-export chains,
        # module objects passed around): treat as external, not unresolved —
        # the name provably left the analysed source set.
        return [], "external"

    # -- statistics --------------------------------------------------------

    def coverage(self) -> dict[str, float | int]:
        total = len(self.call_sites)
        internal = sum(1 for s in self.call_sites if s.resolution == "internal")
        external = sum(1 for s in self.call_sites if s.resolution == "external")
        unresolved = total - internal - external
        resolved = internal + external
        return {
            "call_sites": total,
            "internal": internal,
            "external": external,
            "unresolved": unresolved,
            "coverage": (resolved / total) if total else 1.0,
        }
