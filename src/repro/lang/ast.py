"""Abstract syntax tree for Céu (grammar of Appendix A).

Nodes use identity equality (``eq=False``): analyses key dictionaries by
node object, and two syntactically equal awaits in different program
positions must stay distinct (each owns its own *gate*, §4.3).

Every node carries:

* ``span`` — source region for diagnostics;
* ``nid``  — a stable integer assigned at construction, used by the flow
  graph, gate allocator and memory layout as a deterministic key.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, fields
from typing import Iterator, Optional, Union, get_args, get_type_hints

from .errors import SourceSpan, UNKNOWN_SPAN
from .time_units import TimeLiteral

_nid_counter = itertools.count(1)


@dataclass(eq=False)
class Node:
    span: SourceSpan = field(default=UNKNOWN_SPAN, kw_only=True)
    nid: int = field(default_factory=lambda: next(_nid_counter),
                     kw_only=True, compare=False)

    #: names of the fields that can hold child nodes (a node, ``None`` or
    #: a list of nodes), in field order; bound per class at import by
    #: :func:`_bind_child_fields` from the field annotations
    _child_fields = ()

    def children(self) -> list["Node"]:
        """Direct child nodes, in source order.

        Only the class's ``_child_fields`` are read: spans, nids, names
        and numbers are never looked at."""
        out = []
        for name in self._child_fields:
            value = getattr(self, name)
            if isinstance(value, Node):
                out.append(value)
            elif isinstance(value, list):
                out.extend(value)
        return out

    def walk(self) -> Iterator["Node"]:
        """Pre-order traversal of the subtree rooted at this node.

        An explicit stack yields each node once, so a walk is linear in
        the subtree's size whatever its depth; each node's children come
        from :meth:`children`, read when the walk reaches the node."""
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            kids = node.children()
            kids.reverse()
            stack.extend(kids)


# --------------------------------------------------------------------------
# Types
# --------------------------------------------------------------------------

@dataclass(eq=False)
class TypeRef(Node):
    """A (possibly pointered) type name, e.g. ``int``, ``_message_t*``."""

    name: str = ""
    pointers: int = 0

    def __str__(self) -> str:
        return self.name + "*" * self.pointers

    @property
    def is_void(self) -> bool:
        return self.name == "void" and self.pointers == 0


# --------------------------------------------------------------------------
# Expressions
# --------------------------------------------------------------------------

@dataclass(eq=False)
class Exp(Node):
    pass


@dataclass(eq=False)
class Num(Exp):
    value: int = 0


@dataclass(eq=False)
class Str(Exp):
    value: str = ""


@dataclass(eq=False)
class Null(Exp):
    pass


@dataclass(eq=False)
class NameInt(Exp):
    """Reference to a Céu variable (lowercase identifier)."""

    name: str = ""


@dataclass(eq=False)
class NameC(Exp):
    """Reference to a C symbol (underscore identifier); ``_foo`` → C ``foo``."""

    name: str = ""

    @property
    def c_name(self) -> str:
        return self.name[1:]


@dataclass(eq=False)
class Unop(Exp):
    op: str = ""
    operand: Exp = None  # type: ignore[assignment]


@dataclass(eq=False)
class Binop(Exp):
    op: str = ""
    left: Exp = None   # type: ignore[assignment]
    right: Exp = None  # type: ignore[assignment]


@dataclass(eq=False)
class Index(Exp):
    base: Exp = None   # type: ignore[assignment]
    index: Exp = None  # type: ignore[assignment]


@dataclass(eq=False)
class CallExp(Exp):
    func: Exp = None  # type: ignore[assignment]
    args: list[Exp] = field(default_factory=list)


@dataclass(eq=False)
class FieldAccess(Exp):
    base: Exp = None  # type: ignore[assignment]
    name: str = ""
    arrow: bool = False  # True for ``->``, False for ``.``

    @property
    def op(self) -> str:
        return "->" if self.arrow else "."


@dataclass(eq=False)
class Cast(Exp):
    type: TypeRef = None  # type: ignore[assignment]
    operand: Exp = None   # type: ignore[assignment]


@dataclass(eq=False)
class SizeOf(Exp):
    type: TypeRef = None  # type: ignore[assignment]


# --------------------------------------------------------------------------
# Statements
# --------------------------------------------------------------------------

@dataclass(eq=False)
class Stmt(Node):
    pass


@dataclass(eq=False)
class Block(Node):
    """A `;`-separated statement sequence (also a variable scope)."""

    stmts: list[Stmt] = field(default_factory=list)


@dataclass(eq=False)
class Nothing(Stmt):
    pass


@dataclass(eq=False)
class DeclEvent(Stmt):
    """``input``/``internal``/``output`` event declaration."""

    kind: str = "input"  # "input" | "internal" | "output"
    type: TypeRef = None  # type: ignore[assignment]
    names: list[str] = field(default_factory=list)


#: rvalues: plain expressions or the statement-expressions the grammar
#: allows on the right of ``=`` (awaits, blocks, pars, asyncs).
SetExp = Union["Exp", "Stmt"]


@dataclass(eq=False)
class Declarator(Node):
    name: str = ""
    init: Optional[SetExp] = None


@dataclass(eq=False)
class DeclVar(Stmt):
    type: TypeRef = None  # type: ignore[assignment]
    array: Optional[Exp] = None  # fixed size for ``int[10] keys``
    decls: list[Declarator] = field(default_factory=list)


@dataclass(eq=False)
class CBlockStmt(Stmt):
    """``C do ... end`` — raw C passed through to the backend."""

    code: str = ""


@dataclass(eq=False)
class PureDecl(Stmt):
    names: list[str] = field(default_factory=list)


@dataclass(eq=False)
class DeterministicDecl(Stmt):
    names: list[str] = field(default_factory=list)


@dataclass(eq=False)
class AwaitExt(Stmt):
    """``await Event`` on an external input event; yields the event value."""

    event: str = ""


@dataclass(eq=False)
class AwaitInt(Stmt):
    """``await event`` on an internal event; yields the emitted value."""

    event: str = ""


@dataclass(eq=False)
class AwaitTime(Stmt):
    """``await 10min`` — literal wall-clock timeout."""

    time: TimeLiteral = None  # type: ignore[assignment]


@dataclass(eq=False)
class AwaitExp(Stmt):
    """``await (exp)`` — computed timeout, in microseconds."""

    exp: Exp = None  # type: ignore[assignment]


@dataclass(eq=False)
class AwaitForever(Stmt):
    """``await forever`` — an input event that never occurs."""


@dataclass(eq=False)
class EmitExt(Stmt):
    """``emit Event [= exp]`` — only legal inside ``async`` (simulation)."""

    event: str = ""
    value: Optional[Exp] = None


@dataclass(eq=False)
class EmitInt(Stmt):
    """``emit event [= exp]`` — internal event, stack policy (§2.2)."""

    event: str = ""
    value: Optional[Exp] = None


@dataclass(eq=False)
class EmitTime(Stmt):
    """``emit 10ms`` — advance wall-clock time; only legal inside ``async``."""

    time: TimeLiteral = None  # type: ignore[assignment]


@dataclass(eq=False)
class If(Stmt):
    cond: Exp = None  # type: ignore[assignment]
    then: Block = None  # type: ignore[assignment]
    orelse: Optional[Block] = None


@dataclass(eq=False)
class Loop(Stmt):
    body: Block = None  # type: ignore[assignment]


@dataclass(eq=False)
class Break(Stmt):
    pass


@dataclass(eq=False)
class ParStmt(Stmt):
    """``par`` / ``par/or`` / ``par/and`` composition."""

    mode: str = "par"  # "par" | "or" | "and"
    blocks: list[Block] = field(default_factory=list)

    @property
    def keyword(self) -> str:
        return {"par": "par", "or": "par/or", "and": "par/and"}[self.mode]


@dataclass(eq=False)
class CCallStmt(Stmt):
    """A bare C call used as a statement: ``_printf(...);``."""

    call: CallExp = None  # type: ignore[assignment]


@dataclass(eq=False)
class CallStmt(Stmt):
    """``call Exp`` — evaluate an expression for its side effects."""

    exp: Exp = None  # type: ignore[assignment]


@dataclass(eq=False)
class Assign(Stmt):
    target: Exp = None  # type: ignore[assignment]
    value: SetExp = None  # type: ignore[assignment]


@dataclass(eq=False)
class Return(Stmt):
    """``return [exp]`` — escapes the innermost value block (a ``do``,
    ``par`` or ``async`` used as a SetExp) or terminates the program."""

    value: Optional[Exp] = None


@dataclass(eq=False)
class DoBlock(Stmt):
    body: Block = None  # type: ignore[assignment]


@dataclass(eq=False)
class AsyncBlock(Stmt):
    body: Block = None  # type: ignore[assignment]


@dataclass(eq=False)
class Program(Node):
    body: Block = None  # type: ignore[assignment]
    filename: str = "<ceu>"


#: Nodes that may appear as the right-hand side of ``=`` besides plain Exp.
SETEXP_STMTS = (AwaitExt, AwaitInt, AwaitTime, AwaitExp,
                DoBlock, ParStmt, AsyncBlock)

#: All await statement forms.
AWAITS = (AwaitExt, AwaitInt, AwaitTime, AwaitExp, AwaitForever)


def _holds_nodes(hint) -> bool:
    """Whether a field annotation admits a node: ``Exp``,
    ``Optional[Block]``, ``list[Stmt]``, ``SetExp``."""
    args = get_args(hint)
    if args:
        return any(_holds_nodes(arg) for arg in args)
    return isinstance(hint, type) and issubclass(hint, Node)


def _bind_child_fields(cls: type) -> None:
    hints = get_type_hints(cls)
    cls._child_fields = tuple(f.name for f in fields(cls)
                              if _holds_nodes(hints[f.name]))
    for sub in cls.__subclasses__():
        _bind_child_fields(sub)


_bind_child_fields(Node)


def renumber(root: Node) -> int:
    """Reassign ``nid``s over ``root``'s subtree in deterministic
    pre-order (1, 2, ...), returning the number of nodes.

    Node ids are allocated from a process-global counter at construction
    time, so two parses of the same source in one process get different
    ids.  Passes that key on ``nid`` across parses — the analysis engine
    and the incremental analyzer's replay maps — renumber first so ids
    are a pure function of program structure.
    """
    count = 0
    for count, node in enumerate(root.walk(), start=1):
        node.nid = count
    return count
