"""AST → flow graph conversion (§4.1).

The graph is a faithful rendering of control flow for *visualisation and
reporting* (the paper's fig. `nfa`); the temporal analysis itself
(:mod:`repro.dfa`) abstract-interprets the AST directly, so the two stages
cannot drift apart.

Priorities: join nodes of parallel compositions and loop-termination nodes
receive ``max_depth - depth + 1``, with ``depth`` the binder's join depth
(:attr:`~repro.sema.binder.BoundProgram.join_depth`, the one the scheduler
runs by) and ``max_depth`` one past the deepest construct, so that *outer*
constructs get *lower* priority (larger number = runs later), exactly the
scheme of the paper's figure where the outermost join carries the lowest
priority.
"""

from __future__ import annotations

from ..lang import ast
from ..lang.pretty import pretty as _pretty
from ..sema.binder import BoundProgram
from .graph import FlowGraph, FlowNode


def build_flow(bound: BoundProgram) -> FlowGraph:
    return _Builder(bound).build()


def _stmt_label(s: ast.Stmt) -> str:
    text = _pretty(s).strip().rstrip(";")
    first = text.splitlines()[0]
    if len(first) > 28:
        first = first[:25] + "..."
    return first


class _Builder:
    def __init__(self, bound: BoundProgram):
        self.bound = bound
        self.graph = FlowGraph()
        self._max_depth = 1 + max(bound.join_depth.values(), default=-1)
        #: open loop contexts: loop node → (head FlowNode, escape join)
        self._loops: dict[int, tuple[FlowNode, FlowNode]] = {}

    def _join_priority(self, node: ast.Node) -> int:
        # outer (small depth) → lower priority (larger number)
        return self._max_depth - self.bound.join_depth[node.nid] + 1

    # -------------------------------------------------------------- build
    def build(self) -> FlowGraph:
        entry = self.graph.add_node("boot", "stmt")
        self.graph.entry = entry.id
        exits = self._block(self.bound.program.body, entry)
        end = self.graph.add_node("end", "end")
        for node in exits:
            self.graph.add_edge(node, end)
        return self.graph

    def _block(self, block: ast.Block, pred: FlowNode) -> list[FlowNode]:
        """Wire a block after ``pred``; returns the nodes that fall out."""
        frontier = [pred]
        for stmt in block.stmts:
            next_frontier: list[FlowNode] = []
            entries, exits = self._stmt(stmt)
            if entries:
                for node in frontier:
                    for e in entries:
                        self.graph.add_edge(node, e)
                next_frontier = exits
                frontier = next_frontier
            # statements with no flow effect keep the frontier
            if not frontier:
                break  # unreachable code after non-falling statement
        return frontier

    def _stmt(self, s: ast.Stmt) -> tuple[list[FlowNode], list[FlowNode]]:
        g = self.graph
        if isinstance(s, (ast.Nothing, ast.DeclEvent, ast.PureDecl,
                          ast.DeterministicDecl, ast.CBlockStmt)):
            return [], []
        if isinstance(s, (ast.AwaitExt, ast.AwaitInt, ast.AwaitTime,
                          ast.AwaitExp, ast.AwaitForever)):
            node = g.add_node(_stmt_label(s), "await", ast_nid=s.nid)
            if isinstance(s, ast.AwaitForever):
                return [node], []
            return [node], [node]
        if isinstance(s, ast.If):
            cond = g.add_node(f"if {_stmt_label(s)[3:]}", "stmt",
                              ast_nid=s.nid)
            then_exits = self._block(s.then, cond)
            if s.orelse is not None:
                else_exits = self._block(s.orelse, cond)
            else:
                else_exits = [cond]
            return [cond], then_exits + else_exits
        if isinstance(s, ast.Loop):
            head = g.add_node("loop", "stmt", ast_nid=s.nid)
            escape = g.add_node("loop-end", "join",
                                priority=self._join_priority(s),
                                ast_nid=s.nid)
            self._loops[s.nid] = (head, escape)
            body_exits = self._block(s.body, head)
            for node in body_exits:
                g.add_edge(node, head, "iterate")
            del self._loops[s.nid]
            return [head], [escape]
        if isinstance(s, ast.Break):
            node = g.add_node("break", "stmt", ast_nid=s.nid)
            target = self.bound.break_target[s.nid]
            _, escape = self._loops[target.nid]
            g.add_edge(node, escape)
            return [node], []
        if isinstance(s, ast.Return):
            node = g.add_node(_stmt_label(s), "stmt", ast_nid=s.nid)
            return [node], []
        if isinstance(s, ast.ParStmt):
            fork = g.add_node(s.keyword, "fork", ast_nid=s.nid)
            join: FlowNode | None = None
            if s.mode in ("or", "and") or s.nid in \
                    self.bound.value_boundaries:
                join = g.add_node(f"{s.keyword}-join", "join",
                                  priority=self._join_priority(s),
                                  ast_nid=s.nid)
            for block in s.blocks:
                exits = self._block(block, fork)
                if join is not None:
                    for node in exits:
                        g.add_edge(node, join, "terminate")
            return [fork], [join] if join is not None else []
        if isinstance(s, (ast.DeclVar, ast.Assign)):
            node = g.add_node(_stmt_label(s), "stmt", ast_nid=s.nid)
            inner = _setexp_of(s)
            if inner is not None and not isinstance(inner, ast.Exp):
                entries, exits = self._stmt(inner)
                for e in entries:
                    g.add_edge(node, e)
                return [node], exits
            return [node], [node]
        if isinstance(s, ast.DoBlock):
            entry = g.add_node("do", "stmt", ast_nid=s.nid)
            exits = self._block(s.body, entry)
            return [entry], exits
        if isinstance(s, ast.AsyncBlock):
            node = g.add_node("async", "await", ast_nid=s.nid)
            return [node], [node]
        # emits, C calls, plain calls
        node = g.add_node(_stmt_label(s), "stmt", ast_nid=s.nid)
        return [node], [node]


def _setexp_of(s: ast.Stmt):
    if isinstance(s, ast.Assign):
        return s.value
    if isinstance(s, ast.DeclVar):
        for d in s.decls:
            if d.init is not None and not isinstance(d.init, ast.Exp):
                return d.init
    return None
