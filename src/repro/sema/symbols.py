"""Symbol tables for Céu programs.

Céu is fully static: no recursion and no dynamic allocation, so every
variable has exactly one live instance and can be identified by its
declaration site.  Symbols therefore double as the keys used by the memory
layout (§4.2), the gate allocator (§4.3) and the reference VM.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..lang import ast
from ..lang.errors import BindError, SourceSpan


@dataclass(eq=False)
class VarSymbol:
    """A Céu variable (or fixed-size vector)."""

    name: str
    type: ast.TypeRef
    decl: ast.Declarator
    array_size: Optional[int] = None  # None for scalars
    uid: int = -1                     # dense index assigned by the binder

    @property
    def is_array(self) -> bool:
        return self.array_size is not None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        arr = f"[{self.array_size}]" if self.is_array else ""
        return f"<var {self.type}{arr} {self.name}#{self.uid}>"


@dataclass(eq=False)
class EventSymbol:
    """An external input/output or internal event."""

    name: str
    kind: str  # "input" | "internal" | "output"
    type: ast.TypeRef
    decl: Optional[ast.DeclEvent]
    uid: int = -1

    @property
    def is_internal(self) -> bool:
        return self.kind == "internal"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{self.kind} event {self.name}#{self.uid}>"


class Scope:
    """A lexical scope (one per block).  Declarations are *sequential*:
    a name is only visible to statements after its declaration, matching
    the paper's "variables and events must be declared before they are
    used" rule."""

    def __init__(self, parent: Optional["Scope"] = None):
        self.parent = parent
        self.vars: dict[str, VarSymbol] = {}

    def declare(self, sym: VarSymbol, span: SourceSpan) -> None:
        if sym.name in self.vars:
            raise BindError(f"variable `{sym.name}` redeclared in the same "
                            f"block", span)
        self.vars[sym.name] = sym

    def lookup(self, name: str) -> Optional[VarSymbol]:
        scope: Optional[Scope] = self
        while scope is not None:
            sym = scope.vars.get(name)
            if sym is not None:
                return sym
            scope = scope.parent
        return None


@dataclass
class Annotations:
    """`pure` / `deterministic` declarations for C functions (§2.6)."""

    pure: set[str] = field(default_factory=set)
    groups: list[frozenset[str]] = field(default_factory=list)

    @staticmethod
    def _strip(name: str) -> str:
        return name[1:] if name.startswith("_") else name

    def add_pure(self, names: list[str]) -> None:
        self.pure.update(self._strip(n) for n in names)

    def add_group(self, names: list[str]) -> None:
        self.groups.append(frozenset(self._strip(n) for n in names))

    def compatible(self, f: str, g: str) -> bool:
        """May calls to C functions ``f`` and ``g`` run concurrently?

        ``pure`` functions run concurrently with anything; two (distinct or
        identical) functions run concurrently iff some ``deterministic``
        group contains both.  A function is never implicitly compatible
        with itself: concurrent ``_f() || _f()`` is refused unless ``_f``
        is pure or listed in a group naming it (the strict reading of the
        paper's "Céu is strict about determinism").
        """
        if f in self.pure or g in self.pure:
            return True
        for group in self.groups:
            if f in group and g in group:
                if f != g:
                    return True
                # same function twice: require it to be pure or in a
                # group where it is the sole member listed with itself —
                # we accept membership in any group as opt-in for f||f.
                return True
        return False


def declaration_signature(stmt: ast.Stmt) -> tuple:
    """The binder-visible exports of one top-level statement, as a
    hashable value — empty for statements that declare nothing.

    Two statements with equal signatures contribute the same
    names/kinds/types to every later scope, so a region whose own text
    and whose predecessors' signatures are both unchanged binds the same
    symbols.  The incremental analyzer keys its per-region memo on
    (content, environment signature) and re-runs dependents when a
    predecessor's signature changes.
    """
    if isinstance(stmt, ast.DeclEvent):
        return ("event", stmt.kind, str(stmt.type), tuple(stmt.names))
    if isinstance(stmt, ast.DeclVar):
        if stmt.array is None:
            array: tuple = ()
        elif isinstance(stmt.array, ast.Num):
            array = ("array", stmt.array.value)
        else:
            array = ("array", "?")
        return ("var", str(stmt.type), array,
                tuple(d.name for d in stmt.decls))
    if isinstance(stmt, ast.PureDecl):
        return ("pure", tuple(stmt.names))
    if isinstance(stmt, ast.DeterministicDecl):
        return ("deterministic", tuple(stmt.names))
    return ()
