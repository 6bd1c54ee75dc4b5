"""Asynchronous blocks (§2.7) and in-language simulation (§2.8).

An ``async`` runs detached from the synchronous side, may contain unbounded
loops, and may emit input events and wall-clock time back into the program
— which is how Céu simulates itself.  The VM models each ``async`` as an
:class:`AsyncJob` holding its own generator; ``ceu_go_async`` (the
scheduler's :meth:`~repro.runtime.scheduler.Scheduler.go_async`) steps the
current job by **one loop iteration or one emit**, switching among jobs
round-robin, exactly as §4.5 describes.
"""

from __future__ import annotations

import itertools
from typing import Any, Optional

from ..lang import ast
from ..lang.errors import RuntimeCeuError
from ..sema.binder import BoundProgram
from .eval import Evaluator
from .trails import BreakSignal, ReturnSignal, Trail
from .values import as_int, truthy

_job_seq = itertools.count(1)


class AsyncJob:
    """One executing ``async`` block."""

    __slots__ = ("node", "owner", "gen", "done", "aborted", "result",
                 "seq")

    def __init__(self, node: ast.AsyncBlock, owner: Trail, gen):
        self.node = node
        self.owner = owner
        self.gen = gen
        self.done = False
        self.aborted = False
        self.result: Any = None
        self.seq = next(_job_seq)


class AsyncInterp:
    """Interpreter for ``async`` bodies.

    Yields:

    * ``("tick",)`` at every loop-back edge — the granularity of
      ``ceu_go_async``;
    * ``("emit_ext", sym, value)`` — an input event for the synchronous
      side (handled as a tail call by the scheduler);
    * ``("emit_time", us)`` — the passage of wall-clock time.

    Completion is signalled by ``StopIteration`` carrying the ``return``
    value (``None`` when the body falls through).
    """

    def __init__(self, bound: BoundProgram, evaluator: Evaluator):
        self.bound = bound
        self.ev = evaluator

    def run(self, node: ast.AsyncBlock):
        try:
            yield from self._block(node.body)
        except ReturnSignal as sig:
            if sig.boundary is node:
                return sig.value
            raise RuntimeCeuError(
                "`return` inside `async` must target the async block",
                node.span)
        return None

    def _block(self, block: ast.Block):
        for stmt in block.stmts:
            yield from self._stmt(stmt)

    def _stmt(self, s: ast.Stmt):
        if isinstance(s, (ast.Nothing, ast.PureDecl, ast.DeterministicDecl,
                          ast.CBlockStmt)):
            return
        if isinstance(s, ast.DeclVar):
            for declarator in s.decls:
                sym = self.bound.sym_of_decl[declarator.nid]
                if declarator.init is None:
                    self.ev.memory.declare(sym)
                elif isinstance(declarator.init, ast.Exp):
                    self.ev.memory.write(sym, self.ev.eval(declarator.init))
                else:
                    raise RuntimeCeuError(
                        "async declarations take plain expressions",
                        declarator.span)
            return
        if isinstance(s, ast.EmitExt):
            sym = self.bound.event_of[s.nid]
            value = None if s.value is None else self.ev.eval(s.value)
            yield ("emit_ext", sym, value)
            return
        if isinstance(s, ast.EmitTime):
            yield ("emit_time", s.time.us)
            return
        if isinstance(s, ast.If):
            if truthy(self.ev.eval(s.cond)):
                yield from self._block(s.then)
            elif s.orelse is not None:
                yield from self._block(s.orelse)
            return
        if isinstance(s, ast.Loop):
            while True:
                try:
                    yield from self._block(s.body)
                except BreakSignal as sig:
                    if sig.target is s:
                        break
                    raise
                yield ("tick",)  # one ceu_go_async step per iteration
            return
        if isinstance(s, ast.Break):
            raise BreakSignal(self.bound.break_target[s.nid])
        if isinstance(s, ast.Return):
            value = None if s.value is None else self.ev.eval(s.value)
            raise ReturnSignal(self.bound.ret_boundary.get(s.nid), value)
        if isinstance(s, ast.CCallStmt):
            self.ev.call(s.call)
            return
        if isinstance(s, ast.CallStmt):
            self.ev.eval(s.exp)
            return
        if isinstance(s, ast.Assign):
            if not isinstance(s.value, ast.Exp):
                raise RuntimeCeuError("async assignments take plain "
                                      "expressions", s.span)
            self.ev.assign(s.target, self.ev.eval(s.value))
            return
        if isinstance(s, ast.DoBlock):
            yield from self._block(s.body)
            return
        raise RuntimeCeuError(
            f"statement {type(s).__name__} is not allowed inside `async`",
            s.span)
