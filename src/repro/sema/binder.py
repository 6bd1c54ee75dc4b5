"""Name resolution and structural checks.

The binder produces a :class:`BoundProgram`, the shared input of every later
stage (bounded-execution check, flow graph, temporal analysis, memory
layout, code generation and the reference VM).  It resolves:

* variable references (``NameInt``) to :class:`VarSymbol`s,
* await/emit statements to :class:`EventSymbol`s,
* ``break`` statements to their enclosing ``loop``,
* ``return`` statements to their *value boundary* — the innermost block
  used as the right-hand side of an assignment (``v = par do ... end``,
  ``ret = async do ... end``, ``v = do ... end``) or the program itself,

and enforces the contextual rules of the paper:

* ``emit`` of input events and of time only inside ``async`` (§2.8);
* ``async`` bodies contain no parallel blocks, no awaits (not even
  ``await forever``), no internal events, no ``do ... end`` value
  blocks, and no assignments to variables of outer blocks (§2.7);
* events and variables are declared before use; inputs are uppercase,
  internals lowercase (§2).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..lang import ast
from ..lang.errors import AsyncError, BindError
from .symbols import Annotations, EventSymbol, Scope, VarSymbol


@dataclass
class BoundProgram:
    """A parsed program plus all binder-computed facts."""

    program: ast.Program
    events: dict[str, EventSymbol] = field(default_factory=dict)
    variables: list[VarSymbol] = field(default_factory=list)
    var_of: dict[int, VarSymbol] = field(default_factory=dict)     # NameInt.nid
    event_of: dict[int, EventSymbol] = field(default_factory=dict)  # await/emit nid
    break_target: dict[int, ast.Loop] = field(default_factory=dict)
    ret_boundary: dict[int, Optional[ast.Node]] = field(default_factory=dict)
    sym_of_decl: dict[int, VarSymbol] = field(default_factory=dict)  # Declarator.nid
    annotations: Annotations = field(default_factory=Annotations)
    async_blocks: list[ast.AsyncBlock] = field(default_factory=list)
    parent: dict[int, ast.Node] = field(default_factory=dict)
    #: nodes that act as value boundaries (SetExp-positioned blocks)
    value_boundaries: set[int] = field(default_factory=set)
    #: C function names referenced anywhere (for reporting / codegen)
    c_symbols: set[str] = field(default_factory=set)

    def event(self, name: str) -> EventSymbol:
        return self.events[name]

    def input_events(self) -> list[EventSymbol]:
        return [e for e in self.events.values() if e.kind == "input"]

    def internal_events(self) -> list[EventSymbol]:
        return [e for e in self.events.values() if e.kind == "internal"]


class _Binder:
    def __init__(self, program: ast.Program):
        self.program = program
        self.out = BoundProgram(program)
        self._var_uid = 0
        self._evt_uid = 0
        self._scope = Scope()
        self._loops: list[ast.Loop] = []
        self._boundaries: list[ast.Node] = []  # value-boundary stack
        self._async_depth = 0
        self._async_scope: Optional[Scope] = None  # outermost scope inside async

    # ------------------------------------------------------------- helpers
    def _declare_event(self, decl: ast.DeclEvent) -> None:
        for name in decl.names:
            if name in self.out.events:
                raise BindError(f"event `{name}` redeclared", decl.span)
            sym = EventSymbol(name, decl.kind, decl.type, decl,
                              uid=self._evt_uid)
            self._evt_uid += 1
            self.out.events[name] = sym

    def _resolve_event(self, name: str, kinds: tuple[str, ...],
                       node: ast.Node) -> EventSymbol:
        sym = self.out.events.get(name)
        if sym is None:
            raise BindError(f"event `{name}` is not declared", node.span)
        if sym.kind not in kinds:
            raise BindError(
                f"event `{name}` is `{sym.kind}`, expected "
                f"{' or '.join(kinds)}", node.span)
        self.out.event_of[node.nid] = sym
        return sym

    def _declare_var(self, decl_stmt: ast.DeclVar,
                     declarator: ast.Declarator) -> VarSymbol:
        size: Optional[int] = None
        if decl_stmt.array is not None:
            if not isinstance(decl_stmt.array, ast.Num):
                raise BindError("vector size must be an integer literal "
                                "(Céu is fully static)", decl_stmt.span)
            size = decl_stmt.array.value
            if size <= 0:
                raise BindError("vector size must be positive",
                                decl_stmt.span)
        sym = VarSymbol(declarator.name, decl_stmt.type, declarator,
                        array_size=size, uid=self._var_uid)
        self._var_uid += 1
        self.out.variables.append(sym)
        self.out.sym_of_decl[declarator.nid] = sym
        self._scope.declare(sym, declarator.span)
        return sym

    def _set_parent(self, node: ast.Node) -> None:
        for child in node.children():
            self.out.parent[child.nid] = node

    # --------------------------------------------------------------- walks
    def bind(self) -> BoundProgram:
        self._bind_block(self.program.body)
        self.out.parent[self.program.body.nid] = self.program
        return self.out

    def _bind_block(self, block: ast.Block,
                    new_scope: bool = True) -> None:
        self._set_parent(block)
        saved = self._scope
        if new_scope:
            self._scope = Scope(saved)
        try:
            for stmt in block.stmts:
                self._bind_stmt(stmt)
        finally:
            self._scope = saved

    def _bind_stmt(self, s: ast.Stmt) -> None:
        self._set_parent(s)
        if isinstance(s, (ast.Nothing, ast.CBlockStmt)):
            return
        if isinstance(s, ast.DeclEvent):
            if self._async_depth:
                raise AsyncError("event declarations are not allowed inside "
                                 "`async`", s.span)
            self._declare_event(s)
            return
        if isinstance(s, ast.PureDecl):
            self.out.annotations.add_pure(s.names)
            return
        if isinstance(s, ast.DeterministicDecl):
            self.out.annotations.add_group(s.names)
            return
        if isinstance(s, ast.DeclVar):
            for declarator in s.decls:
                # initializer sees only *earlier* declarations
                if declarator.init is not None:
                    self._bind_setexp(declarator.init, declarator)
                self._declare_var(s, declarator)
            return
        if isinstance(s, (ast.AwaitExt, ast.AwaitInt, ast.AwaitTime,
                          ast.AwaitExp, ast.AwaitForever)):
            self._bind_await(s)
            return
        if isinstance(s, (ast.EmitExt, ast.EmitInt, ast.EmitTime)):
            self._bind_emit(s)
            return
        if isinstance(s, ast.If):
            self._bind_exp(s.cond)
            self._bind_block(s.then)
            if s.orelse is not None:
                self._bind_block(s.orelse)
            return
        if isinstance(s, ast.Loop):
            self._loops.append(s)
            try:
                self._bind_block(s.body)
            finally:
                self._loops.pop()
            return
        if isinstance(s, ast.Break):
            if not self._loops:
                raise BindError("`break` outside of a loop", s.span)
            self.out.break_target[s.nid] = self._loops[-1]
            return
        if isinstance(s, ast.ParStmt):
            if self._async_depth:
                raise AsyncError("parallel blocks are not allowed inside "
                                 "`async`", s.span)
            for blk in s.blocks:
                self._bind_block(blk)
            return
        if isinstance(s, ast.CCallStmt):
            self._bind_exp(s.call)
            return
        if isinstance(s, ast.CallStmt):
            self._bind_exp(s.exp)
            return
        if isinstance(s, ast.Assign):
            self._bind_lvalue(s.target)
            self._bind_setexp(s.value, s)
            return
        if isinstance(s, ast.Return):
            if s.value is not None:
                self._bind_exp(s.value)
            boundary = self._boundaries[-1] if self._boundaries else None
            self.out.ret_boundary[s.nid] = boundary
            return
        if isinstance(s, ast.DoBlock):
            self._bind_block(s.body)
            return
        if isinstance(s, ast.AsyncBlock):
            self._bind_async(s)
            return
        raise BindError(f"unhandled statement {type(s).__name__}", s.span)

    def _bind_async(self, s: ast.AsyncBlock) -> None:
        if self._async_depth:
            raise AsyncError("nested `async` blocks are not allowed", s.span)
        self.out.async_blocks.append(s)
        # `return` inside an async always terminates the async itself
        self._boundaries.append(s)
        self._async_depth += 1
        saved_loops, self._loops = self._loops, []
        saved_async_scope = self._async_scope
        self._async_scope = Scope(self._scope)
        saved_scope = self._scope
        self._scope = self._async_scope
        try:
            self._bind_block(s.body, new_scope=False)
        finally:
            self._scope = saved_scope
            self._async_scope = saved_async_scope
            self._loops = saved_loops
            self._async_depth -= 1
            self._boundaries.pop()

    def _bind_await(self, s: ast.Stmt) -> None:
        if self._async_depth:
            raise AsyncError("`await` is not allowed inside `async`", s.span)
        if isinstance(s, ast.AwaitExt):
            self._resolve_event(s.event, ("input",), s)
        elif isinstance(s, ast.AwaitInt):
            self._resolve_event(s.event, ("internal",), s)
        elif isinstance(s, ast.AwaitExp):
            self._bind_exp(s.exp)
        # AwaitTime / AwaitForever carry no names

    def _bind_emit(self, s: ast.Stmt) -> None:
        if isinstance(s, ast.EmitInt):
            if self._async_depth:
                raise AsyncError("internal events cannot be manipulated "
                                 "inside `async`", s.span)
            sym = self._resolve_event(s.event, ("internal",), s)
        elif isinstance(s, ast.EmitExt):
            sym = self._resolve_event(s.event, ("input", "output"), s)
            if sym.kind == "input" and not self._async_depth:
                raise BindError(
                    f"input event `{s.event}` can only be emitted from an "
                    f"`async` block (simulation, §2.8)", s.span)
        else:  # EmitTime
            if not self._async_depth:
                raise BindError("wall-clock time can only be emitted from "
                                "an `async` block", s.span)
            return
        if s.value is not None:
            self._bind_exp(s.value)
            if sym.type.is_void:
                raise BindError(f"event `{sym.name}` carries no value",
                                s.span)
        elif not sym.type.is_void and isinstance(s, ast.EmitExt):
            raise BindError(f"event `{sym.name}` carries a value of type "
                            f"`{sym.type}`; `emit {sym.name} = <exp>` "
                            f"expected", s.span)

    def _bind_setexp(self, value: ast.Node, owner: ast.Node) -> None:
        self.out.parent[value.nid] = owner
        if isinstance(value, ast.Exp):
            self._bind_exp(value)
            return
        # statement-valued rvalue: awaits bind normally; block forms become
        # value boundaries for `return`.
        if isinstance(value, (ast.AwaitExt, ast.AwaitInt, ast.AwaitTime,
                              ast.AwaitExp)):
            self._bind_await(value)
            return
        if self._async_depth and isinstance(value, ast.DoBlock):
            raise AsyncError("`async` declarations and assignments take "
                             "plain expressions, not `do ... end`",
                             value.span)
        if isinstance(value, (ast.DoBlock, ast.ParStmt, ast.AsyncBlock)):
            self.out.value_boundaries.add(value.nid)
            self._boundaries.append(value)
            try:
                self._bind_stmt(value)
            finally:
                self._boundaries.pop()
            return
        raise BindError("invalid right-hand side", value.span)

    def _bind_lvalue(self, e: ast.Exp) -> None:
        if isinstance(e, ast.NameInt):
            self._bind_exp(e)
            sym = self.out.var_of[e.nid]
            if (self._async_depth and self._async_scope is not None
                    and not self._declared_inside_async(sym)):
                raise AsyncError(
                    f"`async` blocks cannot assign to variable "
                    f"`{sym.name}` of an outer block", e.span)
            return
        if isinstance(e, (ast.Index, ast.FieldAccess)):
            self._bind_lvalue_base(e)
            return
        if isinstance(e, ast.Unop) and e.op == "*":
            self._bind_exp(e.operand)
            return
        if isinstance(e, ast.NameC):
            self.out.c_symbols.add(e.c_name)
            return
        raise BindError("invalid assignment target", e.span)

    def _bind_lvalue_base(self, e: ast.Exp) -> None:
        """`a[i] = ...` / `p->f = ...`: index/field chains over an lvalue."""
        if isinstance(e, ast.Index):
            self._bind_lvalue(e.base)
            self._bind_exp(e.index)
        elif isinstance(e, ast.FieldAccess):
            self._bind_lvalue(e.base)
        else:  # pragma: no cover - guarded by caller
            raise BindError("invalid assignment target", e.span)

    def _declared_inside_async(self, sym: VarSymbol) -> bool:
        scope: Optional[Scope] = self._scope
        while scope is not None:
            if sym.name in scope.vars and scope.vars[sym.name] is sym:
                return True
            if scope is self._async_scope:
                return False
            scope = scope.parent
        return False

    def _bind_exp(self, e: ast.Exp) -> None:
        self._set_parent(e)
        if isinstance(e, ast.NameInt):
            sym = self._scope.lookup(e.name)
            if sym is None:
                raise BindError(f"variable `{e.name}` is not declared",
                                e.span)
            self.out.var_of[e.nid] = sym
            return
        if isinstance(e, ast.NameC):
            self.out.c_symbols.add(e.c_name)
            return
        if isinstance(e, (ast.Num, ast.Str, ast.Null, ast.SizeOf)):
            return
        if isinstance(e, ast.Unop):
            self._bind_exp(e.operand)
            return
        if isinstance(e, ast.Binop):
            self._bind_exp(e.left)
            self._bind_exp(e.right)
            return
        if isinstance(e, ast.Index):
            self._bind_exp(e.base)
            self._bind_exp(e.index)
            return
        if isinstance(e, ast.CallExp):
            self._bind_exp(e.func)
            for a in e.args:
                self._bind_exp(a)
            return
        if isinstance(e, ast.FieldAccess):
            self._bind_exp(e.base)  # field names themselves are C-side
            return
        if isinstance(e, ast.Cast):
            self._bind_exp(e.operand)
            return
        raise BindError(f"unhandled expression {type(e).__name__}", e.span)


def bind(program: ast.Program) -> BoundProgram:
    """Resolve names and check contextual rules; returns the bound program."""
    return _Binder(program).bind()
