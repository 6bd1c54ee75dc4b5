"""Statement interpreter of the reference VM.

Every ``exec_*`` method is a generator; yields are the trail's halt points:

=====================  =====================================================
``("ext", sym)``        await an external input event → resumes with value
``("int", sym)``        await an internal event → resumes with value
``("time", us)``        await wall-clock time → resumes with residual delta
``("forever",)``        halt forever (still counts as *awaiting*, §3.1)
``("par", join)``       halt until the parallel rejoins / escapes
``("async", job)``      halt until the async completes → resumes with value
=====================  =====================================================

Resume values for ``("par", join)`` are ``("done", value)`` or
``("escape", signal)`` — the scheduler decides which.
"""

from __future__ import annotations

from typing import Any

from ..lang import ast
from ..lang.errors import RuntimeCeuError
from ..sema.binder import BoundProgram
from .eval import Evaluator
from .trails import BreakSignal, ReturnSignal, Trail
from .values import as_int


class Interp:
    """Stateless walker (all state lives in the scheduler/memory)."""

    def __init__(self, bound: BoundProgram, evaluator: Evaluator, scheduler):
        self.bound = bound
        self.ev = evaluator
        self.sched = scheduler

    # ------------------------------------------------------------- blocks
    def exec_block(self, block: ast.Block, trail: Trail):
        for stmt in block.stmts:
            yield from self.exec_stmt(stmt, trail)

    # --------------------------------------------------------- statements
    def exec_stmt(self, s: ast.Stmt, trail: Trail):
        self.sched.note_step(trail, s)
        if isinstance(s, (ast.Nothing, ast.DeclEvent, ast.PureDecl,
                          ast.DeterministicDecl, ast.CBlockStmt)):
            return
        if isinstance(s, ast.DeclVar):
            for declarator in s.decls:
                sym = self._declared_sym(declarator)
                if declarator.init is None:
                    self.sched.memory.declare(sym)
                else:
                    value = yield from self.exec_setexp(declarator.init,
                                                        trail)
                    self.sched.memory.write(sym, value)
            return
        if isinstance(s, (ast.AwaitExt, ast.AwaitInt, ast.AwaitTime,
                          ast.AwaitExp, ast.AwaitForever)):
            yield from self.exec_await(s, trail)
            return
        if isinstance(s, ast.EmitInt):
            value = None if s.value is None else self.ev.eval(s.value)
            self.sched.emit_internal(self.bound.event_of[s.nid], value,
                                     trail)
            return
        if isinstance(s, ast.EmitExt):
            # binder guarantees: output event (input emits live in asyncs)
            value = None if s.value is None else self.ev.eval(s.value)
            self.sched.emit_output(self.bound.event_of[s.nid], value)
            return
        if isinstance(s, ast.If):
            from .values import truthy
            if truthy(self.ev.eval(s.cond)):
                yield from self.exec_block(s.then, trail)
            elif s.orelse is not None:
                yield from self.exec_block(s.orelse, trail)
            return
        if isinstance(s, ast.Loop):
            while True:
                try:
                    yield from self.exec_block(s.body, trail)
                except BreakSignal as sig:
                    if sig.target is s:
                        break
                    raise
            return
        if isinstance(s, ast.Break):
            raise BreakSignal(self.bound.break_target[s.nid])
        if isinstance(s, ast.Return):
            value = None if s.value is None else self.ev.eval(s.value)
            raise ReturnSignal(self.bound.ret_boundary.get(s.nid), value)
        if isinstance(s, ast.ParStmt):
            yield from self.exec_par(s, trail)
            return
        if isinstance(s, ast.CCallStmt):
            self.ev.call(s.call)
            return
        if isinstance(s, ast.CallStmt):
            self.ev.eval(s.exp)
            return
        if isinstance(s, ast.Assign):
            value = yield from self.exec_setexp(s.value, trail)
            self.ev.assign(s.target, value)
            return
        if isinstance(s, ast.DoBlock):
            yield from self.exec_do(s, trail)
            return
        if isinstance(s, ast.AsyncBlock):
            yield from self.exec_async(s, trail)
            return
        raise RuntimeCeuError(f"unhandled statement {type(s).__name__}",
                              s.span)

    # ------------------------------------------------------------- pieces
    def _declared_sym(self, declarator: ast.Declarator):
        return self.bound.sym_of_decl[declarator.nid]

    def exec_await(self, s: ast.Stmt, trail: Trail):
        if isinstance(s, ast.AwaitExt):
            sym = self.bound.event_of[s.nid]
            self._note_await(trail, "ext:", sym.name)
            value = yield ("ext", sym)
            return value
        if isinstance(s, ast.AwaitInt):
            sym = self.bound.event_of[s.nid]
            self._note_await(trail, "int:", sym.name)
            value = yield ("int", sym)
            return value
        if isinstance(s, ast.AwaitTime):
            self._note_await(trail, "time")
            delta = yield ("time", s.time.us)
            return delta
        if isinstance(s, ast.AwaitExp):
            us = as_int(self.ev.eval(s.exp), "await timeout")
            self._note_await(trail, "time")
            # the `computed` marker makes the scheduler fire this timeout
            # in its own reaction, matching the analysis' `tunk` trigger
            delta = yield ("time", us, True)
            return delta
        if isinstance(s, ast.AwaitForever):
            self._note_await(trail, "forever")
            yield ("forever",)
            raise RuntimeCeuError("awoke from `await forever`", s.span)
        raise RuntimeCeuError("bad await", s.span)

    def _note_await(self, trail: Trail, kind: str, name: str = "") -> None:
        """Count an await about to suspend and announce it on the
        observability bus (the interpreter knows the *target name*,
        ``kind + name``; the scheduler's later ``trail_halt`` only knows
        the suspension kind).  The name is joined only when someone
        listens."""
        sched = self.sched
        collector, hooks = sched.collector, sched.hooks
        if collector is None and not hooks.enabled:
            return
        target = kind + name
        if collector is not None:
            collector.await_begin(target)
        if hooks.enabled:
            hooks.await_begin(trail.label, target, sched.clock)
            # the registration is the aux cause of the eventual wakeup
            # (timer arms overwrite this with the timer_schedule span)
            trail.wake_cause = hooks.last_span

    def exec_setexp(self, value: ast.Node, trail: Trail):
        if isinstance(value, ast.Exp):
            return self.ev.eval(value)
        if isinstance(value, (ast.AwaitExt, ast.AwaitInt, ast.AwaitTime,
                              ast.AwaitExp)):
            result = yield from self.exec_await(value, trail)
            return result
        if isinstance(value, ast.DoBlock):
            result = yield from self.exec_do(value, trail)
            return result
        if isinstance(value, ast.ParStmt):
            result = yield from self.exec_par(value, trail)
            return result
        if isinstance(value, ast.AsyncBlock):
            result = yield from self.exec_async(value, trail)
            return result
        raise RuntimeCeuError("invalid right-hand side", value.span)

    def exec_do(self, s: ast.DoBlock, trail: Trail):
        if s.nid in self.bound.value_boundaries:
            try:
                yield from self.exec_block(s.body, trail)
            except ReturnSignal as sig:
                if sig.boundary is s:
                    return sig.value
                raise
            return 0  # block fell through without `return`
        yield from self.exec_block(s.body, trail)
        return 0

    def exec_par(self, s: ast.ParStmt, trail: Trail):
        join = self.sched.spawn_par(s, trail)
        kind, payload = yield ("par", join)
        if kind == "escape":
            raise payload
        if kind != "done":  # pragma: no cover - scheduler invariant
            raise RuntimeCeuError(f"bad par resume {kind!r}", s.span)
        return payload

    def exec_async(self, s: ast.AsyncBlock, trail: Trail):
        job = self.sched.spawn_async(s, trail)
        value = yield ("async", job)
        return value

    # -------------------------------------------------------------- trail
    def trail_body(self, block: ast.Block, trail: Trail):
        """Top generator of a trail: executes the block to completion."""
        yield from self.exec_block(block, trail)
