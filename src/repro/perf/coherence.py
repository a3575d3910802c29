"""Cache-coherence declarations for the scheduling hot loop.

PR 1 introduced several layers of memoisation (planning tables, fill
fingerprints, revision-keyed memos) whose correctness hangs on one
contract: **every mutation of state that a cached value was derived from
must reach the matching invalidation hook**.  That contract used to live in
docstrings; this module turns it into machine-checkable declarations that
the static analyser (``python -m repro.analysis``, rules CC001-CC005)
verifies on every run.

Vocabulary (all decorators are zero-cost at runtime — they only attach
metadata):

- :func:`coherent` — class decorator declaring *hook-invalidated* fields:
  ``@coherent(_corrections="planning_tables")`` says "caches derived from
  ``self._corrections`` are kept coherent by the ``planning_tables``
  invalidation; whoever mutates the field must trigger it".  The special
  dependency ``"frozen"`` (never mutated after construction) needs no
  hook.
- :func:`keyed` — class decorator declaring *key-invalidated* memo fields:
  ``@keyed(_rate_memo="curve_revision")`` says "entries of
  ``self._rate_memo`` stay coherent because their keys embed
  ``curve_revision(...)``; any method that writes the memo must derive its
  key from that function".
- :func:`mutates` — method/function decorator declaring an intentional
  mutation of coherent fields, either the decorated class's own
  (``@mutates("_corrections")``) or another class's, by qualified name
  (``@mutates("Ledger._plans")``).
- :func:`invalidates` — decorator registering a function as a *provider* of
  one or more named invalidations.  The analyser accepts a call to any
  provider of the right name as discharging a mutator's obligation.

The provider names form the **invalidation registry**
(:data:`INVALIDATION_REGISTRY`): the root provider for ``planning_tables``
is :func:`repro.perf.tables.invalidate_planning_tables`, and every
declaration elsewhere in the tree resolves against entries registered here
at import time.  :func:`coherence_report` exposes the collected metadata
for tests and debugging; :func:`export_contracts` renders the whole
registry (plus any classes handed to it) as one machine-readable document
— the static analyser's interprocedural pass cross-checks its own
source-derived view against this export.
"""

from __future__ import annotations

from typing import Any, Callable, TypeVar

__all__ = [
    "COHERENT_FIELDS_ATTR",
    "KEYED_FIELDS_ATTR",
    "MUTATES_ATTR",
    "INVALIDATES_ATTR",
    "INVALIDATION_REGISTRY",
    "coherent",
    "keyed",
    "mutates",
    "invalidates",
    "coherence_report",
    "parse_dependency",
    "export_contracts",
]

_F = TypeVar("_F", bound=Callable[..., Any])
_C = TypeVar("_C", bound=type)

#: Attribute name under which :func:`coherent` stores field declarations.
COHERENT_FIELDS_ATTR = "__coherent_fields__"
#: Attribute name under which :func:`keyed` stores memo-key declarations.
KEYED_FIELDS_ATTR = "__keyed_fields__"
#: Attribute name under which :func:`mutates` stores mutated field names.
MUTATES_ATTR = "__coherence_mutates__"
#: Attribute name under which :func:`invalidates` stores provided hooks.
INVALIDATES_ATTR = "__coherence_invalidates__"

#: Invalidation name -> sorted provider qualnames, populated at import time
#: by :func:`invalidates`.  The static analyser re-derives the same mapping
#: from source, so the two views can be cross-checked in tests.
INVALIDATION_REGISTRY: dict[str, tuple[str, ...]] = {}


def coherent(**field_hooks: str) -> Callable[[_C], _C]:
    """Declare hook-invalidated coherent fields on a class.

    Args:
        **field_hooks: Mapping of field name to the invalidation name
            (an :data:`INVALIDATION_REGISTRY` key) that keeps caches
            derived from the field coherent.  The special name
            ``"frozen"`` declares a field that must never be mutated
            after construction (it feeds a fingerprint; there is no hook
            that could repair a mutation).
    """

    def decorate(cls: _C) -> _C:
        merged = dict(getattr(cls, COHERENT_FIELDS_ATTR, {}))
        merged.update(field_hooks)
        setattr(cls, COHERENT_FIELDS_ATTR, merged)
        return cls

    return decorate


def keyed(**field_keys: str) -> Callable[[_C], _C]:
    """Declare key-invalidated memo fields on a class.

    Args:
        **field_keys: Mapping of memo field name to the name of the
            revision function its keys must embed (for example
            ``"curve_revision"``).
    """

    def decorate(cls: _C) -> _C:
        merged = dict(getattr(cls, KEYED_FIELDS_ATTR, {}))
        merged.update(field_keys)
        setattr(cls, KEYED_FIELDS_ATTR, merged)
        return cls

    return decorate


def mutates(*fields: str) -> Callable[[_F], _F]:
    """Declare that a function intentionally mutates coherent fields.

    Bare names (``"_corrections"``) refer to fields of the enclosing
    class; dotted names (``"Ledger._plans"``) refer to another class's
    fields and declare a cross-object mutation (which must then happen
    through that class's own declared mutator methods).
    """

    def decorate(func: _F) -> _F:
        existing = getattr(func, MUTATES_ATTR, ())
        setattr(func, MUTATES_ATTR, tuple(existing) + fields)
        return func

    return decorate


def invalidates(*names: str) -> Callable[[_F], _F]:
    """Register a function as a provider of named invalidations."""

    def decorate(func: _F) -> _F:
        existing = getattr(func, INVALIDATES_ATTR, ())
        setattr(func, INVALIDATES_ATTR, tuple(existing) + names)
        qualname = getattr(func, "__qualname__", func.__name__)
        for name in names:
            providers = set(INVALIDATION_REGISTRY.get(name, ()))
            providers.add(qualname)
            INVALIDATION_REGISTRY[name] = tuple(sorted(providers))
        return func

    return decorate


def parse_dependency(dependency: str) -> str:
    """Classify one ``@coherent`` dependency string.

    Returns ``"frozen"`` for the frozen marker and ``"hook"`` for
    anything else (the string names an invalidation-registry entry)::

        parse_dependency("ledger_version")  == "hook"
        parse_dependency("frozen")          == "frozen"
    """
    return "frozen" if dependency == "frozen" else "hook"


def export_contracts(classes: tuple[type, ...] = ()) -> dict[str, Any]:
    """Machine-readable dump of every runtime coherence contract.

    Returns a JSON-ready document holding the invalidation registry plus,
    for each class handed in, its coherent/keyed fields (with parsed
    dependency kinds) and its declared mutators/providers.
    The static analyser derives the same facts from source; tests diff the
    two views so neither can silently drift.
    """
    contracts: dict[str, Any] = {
        "invalidation_registry": {
            name: list(providers)
            for name, providers in sorted(INVALIDATION_REGISTRY.items())
        },
        "classes": {},
    }
    for cls in classes:
        report = coherence_report(cls)
        fields = {}
        for field_name, dependency in sorted(report["coherent_fields"].items()):
            fields[field_name] = {
                "dependency": dependency,
                "kind": parse_dependency(dependency),
            }
        contracts["classes"][cls.__qualname__] = {
            "coherent_fields": fields,
            "keyed_fields": dict(sorted(report["keyed_fields"].items())),
            "mutators": {
                name: list(fields_)
                for name, fields_ in sorted(report["mutators"].items())
            },
            "providers": {
                name: list(deps)
                for name, deps in sorted(report["providers"].items())
            },
        }
    return contracts


def coherence_report(cls: type) -> dict[str, Any]:
    """Collected coherence metadata of one class (for tests/debugging)."""
    mutators: dict[str, tuple[str, ...]] = {}
    providers: dict[str, tuple[str, ...]] = {}
    for name in dir(cls):
        try:
            member = getattr(cls, name)
        except AttributeError:  # pragma: no cover - dynamic attributes
            continue
        declared = getattr(member, MUTATES_ATTR, None)
        if declared:
            mutators[name] = tuple(declared)
        provided = getattr(member, INVALIDATES_ATTR, None)
        if provided:
            providers[name] = tuple(provided)
    return {
        "coherent_fields": dict(getattr(cls, COHERENT_FIELDS_ATTR, {})),
        "keyed_fields": dict(getattr(cls, KEYED_FIELDS_ATTR, {})),
        "mutators": mutators,
        "providers": providers,
    }
