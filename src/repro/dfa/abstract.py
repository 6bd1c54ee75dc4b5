"""Abstract reaction-chain execution for the temporal analysis (§2.6, §4.1).

The DFA's states are *configurations*: which awaits are armed, with what
relative wall-clock offsets, under which parallel structure.  A transition
abstract-executes one full reaction chain: data is unknown, so conditionals
fork the machine; everything else mirrors the concrete scheduler —
priorities, the internal-event stack policy, par/or kills, loop escapes.

Configuration trees are flat dicts ``path → entry``:

=========================  ================================================
``("par", nid, mode)``      a live parallel composition (children at
                            ``path + (i,)``)
``("ext", nid)``            trail awaiting an external event
``("intl", nid)``           trail awaiting an internal event
``("time", nid, rem, ep)``  trail awaiting a literal timeout: ``rem`` µs
                            remain, comparable within epoch ``ep``
``("tunk", nid)``           computed timeout (``await (exp)``): duration
                            statically unknown, fires alone
``("fore", nid)``           ``await forever``
``("async", nid)``          trail awaiting an ``async`` completion
``("done",)``               terminated branch
``("run",)``                transient: trail executing this reaction
``("term",)``               the program returned
=========================  ================================================

Wall-clock epochs: timers armed in the same reaction share an epoch and
their deadlines are numerically comparable (residual-delta chaining, §2.3);
timers armed in reactions triggered by *events* begin a fresh epoch because
the event's arrival instant is unknown.  Within an epoch the minimal
remaining time fires, and equal minima fire in the same reaction —
concurrently — which is exactly how the analysis catches the paper's
``10ms``-loop-vs-``100ms`` race while accepting ``50+49`` vs ``100``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterator, Optional

from ..lang import ast
from ..lang.errors import AnalysisBudgetExceeded
from ..sema.binder import BoundProgram
from .actions import ARM, CALL, EMIT, RD, WR, Action, ChainSet

Path = tuple
Entry = tuple


@dataclass(eq=False)
class RunItem:
    cursor: tuple            # ("enter", node) | ("after", node) |
    #                          ("decl", declvar, index)
    path: Path
    chain: int


@dataclass(eq=False)
class JoinItem:
    prio: tuple
    seq: int
    kind: str                # "join" | "escape"
    path: Path               # par path (join) / escaping leaf path (escape)
    payload: tuple           # join: (par_nid,); escape: (k, target_node)
    cause: Optional[int] = None   # chain that enqueued this join


class MidState:
    """One in-flight abstract reaction (copied at every conditional)."""

    __slots__ = ("tree", "stack", "joinq", "actions", "chains",
                 "timer_epoch", "terminated", "_seq")

    def __init__(self, tree: dict, timer_epoch: int):
        self.tree = tree
        self.stack: list[RunItem] = []
        self.joinq: list[JoinItem] = []
        self.actions: list[Action] = []
        self.chains = ChainSet()
        self.timer_epoch = timer_epoch
        self.terminated = False
        self._seq = 0

    def copy(self) -> "MidState":
        dup = MidState(dict(self.tree), self.timer_epoch)
        dup.stack = [RunItem(i.cursor, i.path, i.chain) for i in self.stack]
        dup.joinq = [JoinItem(j.prio, j.seq, j.kind, j.path, j.payload,
                              j.cause)
                     for j in self.joinq]
        dup.actions = list(self.actions)
        dup.chains = self.chains.copy()
        dup.terminated = self.terminated
        dup._seq = self._seq
        return dup

    def seq(self) -> int:
        self._seq += 1
        return self._seq


def freeze(tree: dict) -> tuple:
    """Canonical hashable form with epochs renumbered by first appearance."""
    items = sorted(tree.items())
    epoch_map: dict[int, int] = {}
    out = []
    for path, entry in items:
        if entry[0] == "time":
            ep = entry[3]
            if ep not in epoch_map:
                epoch_map[ep] = len(epoch_map)
            entry = ("time", entry[1], entry[2], epoch_map[ep])
        out.append((path, entry))
    return tuple(out)


def thaw(frozen: tuple) -> dict:
    return {path: entry for path, entry in frozen}


class AbstractMachine:
    """Executes abstract reaction chains over configuration trees."""

    def __init__(self, bound: BoundProgram, midstate_budget: int = 20_000):
        self.bound = bound
        self.midstate_budget = midstate_budget
        self._epoch_seq = itertools.count(1)

    def fresh_epoch(self) -> int:
        return next(self._epoch_seq)

    # --------------------------------------------------------- transitions
    def boot(self) -> list[tuple[tuple, list[Action], ChainSet]]:
        ms = MidState({(): ("run",)}, self.fresh_epoch())
        chain = ms.chains.new()
        ms.stack.append(RunItem(("enter", self.bound.program.body), (),
                                chain))
        return self._drain(ms)

    def fire_event(self, frozen: tuple, name: str):
        tree = thaw(frozen)
        ms = MidState(tree, self.fresh_epoch())
        leaves = [(path, entry) for path, entry in sorted(tree.items())
                  if entry[0] == "ext"
                  and self.bound.event_of[entry[1]].name == name]
        self._seed_resumes(ms, leaves)
        return self._drain(ms)

    def fire_timer(self, frozen: tuple, epoch: int):
        tree = thaw(frozen)
        in_epoch = [(path, entry) for path, entry in tree.items()
                    if entry[0] == "time" and entry[3] == epoch]
        if not in_epoch:
            return []
        m = min(entry[2] for _, entry in in_epoch)
        batch = []
        for path, entry in sorted(in_epoch):
            if entry[2] == m:
                batch.append((path, entry))
            else:
                tree[path] = ("time", entry[1], entry[2] - m, epoch)
        ms = MidState(tree, epoch)
        self._seed_resumes(ms, batch)
        return self._drain(ms)

    def fire_unknown_timer(self, frozen: tuple, path: Path):
        tree = thaw(frozen)
        entry = tree.get(path)
        if entry is None or entry[0] != "tunk":
            return []
        ms = MidState(tree, self.fresh_epoch())
        self._seed_resumes(ms, [(path, entry)])
        return self._drain(ms)

    def fire_async(self, frozen: tuple, path: Path):
        tree = thaw(frozen)
        entry = tree.get(path)
        if entry is None or entry[0] != "async":
            return []
        ms = MidState(tree, self.fresh_epoch())
        node = self._node_by_nid(entry[1])
        ms.tree[path] = ("run",)
        chain = ms.chains.new()
        ms.stack.append(RunItem(("after", node), path, chain))
        return self._drain(ms)

    def _seed_resumes(self, ms: MidState, leaves: list) -> None:
        """Arrange independent (mutually concurrent) resumes of leaves."""
        items = []
        for path, entry in leaves:
            ms.tree[path] = ("run",)
            node = self._node_by_nid(entry[1])
            chain = ms.chains.new()
            items.append(RunItem(("after_await", node), path, chain))
        ms.stack.extend(reversed(items))

    # ----------------------------------------------------------- the drain
    def _drain(self, first: MidState):
        """Run the abstract reaction to quiescence in every fork.

        Returns ``[(frozen_tree, actions, chains), ...]`` — one result per
        distinct data path through the reaction.
        """
        results = []
        worklist = [first]
        spent = 0
        while worklist:
            spent += 1
            if spent > self.midstate_budget:
                raise AnalysisBudgetExceeded(
                    "temporal analysis transition exceeded its fork budget")
            ms = worklist.pop()
            if ms.terminated:
                results.append((freeze(ms.tree), ms.actions, ms.chains))
                continue
            if ms.stack:
                item = ms.stack.pop()
                self._run(ms, item, worklist)
                worklist.append(ms)
                continue
            if ms.joinq:
                ms.joinq.sort(key=lambda j: (j.prio, j.seq))
                join = ms.joinq.pop(0)
                self._dispatch_join(ms, join)
                worklist.append(ms)
                continue
            results.append((freeze(ms.tree), ms.actions, ms.chains))
        return results

    # ---------------------------------------------------------- run cursor
    def _run(self, ms: MidState, item: RunItem, worklist: list) -> None:
        """Advance one chain until it suspends/ends (forks go to worklist)."""
        cursor = item.cursor
        path = item.path
        chain = item.chain
        guard = 0
        while True:
            guard += 1
            if guard > 100_000:
                raise AnalysisBudgetExceeded(
                    "abstract chain did not reach an await — tight loop?")
            kind, node = cursor[0], cursor[1]
            if kind == "enter":
                nxt = self._enter(ms, node, path, chain, worklist)
            elif kind == "after":
                nxt = self._after(ms, node, path, chain)
            elif kind == "after_await":
                # resuming from an await: value assignment (if any) is
                # handled by the generic successor walk
                nxt = self._after(ms, node, path, chain)
            elif kind == "decl":
                nxt = self._decl_step(ms, cursor, path, chain)
            else:  # pragma: no cover
                raise AssertionError(cursor)
            if nxt is None:
                return  # suspended / branch ended / stacked
            cursor = nxt

    # returns next cursor, or None when the chain stops
    def _enter(self, ms: MidState, node: ast.Node, path: Path, chain: int,
               worklist: list) -> Optional[tuple]:
        bound = self.bound
        if isinstance(node, ast.Block):
            if not node.stmts:
                return ("after", node)
            return ("enter", node.stmts[0])
        if isinstance(node, (ast.Nothing, ast.DeclEvent, ast.PureDecl,
                             ast.DeterministicDecl, ast.CBlockStmt)):
            return ("after", node)
        if isinstance(node, ast.DeclVar):
            return ("decl", node, 0)
        if isinstance(node, ast.AwaitExt):
            ms.tree[path] = ("ext", node.nid)
            return None
        if isinstance(node, ast.AwaitInt):
            sym = bound.event_of[node.nid]
            self._act(ms, chain, ARM, ("evt", sym.uid, sym.name), node.span)
            ms.tree[path] = ("intl", node.nid)
            return None
        if isinstance(node, ast.AwaitTime):
            ms.tree[path] = ("time", node.nid, node.time.us, ms.timer_epoch)
            return None
        if isinstance(node, ast.AwaitExp):
            self._reads(ms, chain, node.exp)
            ms.tree[path] = ("tunk", node.nid)
            return None
        if isinstance(node, ast.AwaitForever):
            ms.tree[path] = ("fore", node.nid)
            return None
        if isinstance(node, ast.AsyncBlock):
            # async bodies are globally asynchronous (§2.9) — not analysed
            ms.tree[path] = ("async", node.nid)
            return None
        if isinstance(node, ast.EmitInt):
            return self._emit_internal(ms, node, path, chain)
        if isinstance(node, ast.EmitExt):
            sym = bound.event_of[node.nid]
            if node.value is not None:
                self._reads(ms, chain, node.value)
            self._act(ms, chain, EMIT, ("evt", sym.uid, sym.name), node.span)
            return ("after", node)
        if isinstance(node, ast.If):
            self._reads(ms, chain, node.cond)
            fork = ms.copy()
            if node.orelse is not None:
                fork.stack.append(RunItem(("enter", node.orelse), path,
                                          chain))
            else:
                fork.stack.append(RunItem(("after", node), path, chain))
            worklist.append(fork)
            return ("enter", node.then)
        if isinstance(node, ast.Loop):
            return ("enter", node.body)
        if isinstance(node, ast.Break):
            target = bound.break_target[node.nid]
            k = self._pars_crossed(node, target)
            if k == 0:
                return ("after", target)
            self._enqueue_escape(ms, path, k, target, chain)
            return None
        if isinstance(node, ast.Return):
            if node.value is not None:
                self._reads(ms, chain, node.value)
            boundary = bound.ret_boundary.get(node.nid)
            if boundary is None:
                ms.terminated = True
                ms.tree = {(): ("term",)}
                ms.stack.clear()
                ms.joinq.clear()
                return None
            k = self._pars_crossed(node, boundary)
            if k == 0:
                return ("after", boundary)
            self._enqueue_escape(ms, path, k, boundary, chain)
            return None
        if isinstance(node, ast.ParStmt):
            ms.tree[path] = ("par", node.nid, node.mode)
            items = []
            for i, block in enumerate(node.blocks):
                child_path = path + (i,)
                ms.tree[child_path] = ("run",)
                child_chain = ms.chains.new(cause=chain)
                items.append(RunItem(("enter", block), child_path,
                                     child_chain))
            ms.stack.extend(reversed(items))
            return None
        if isinstance(node, ast.CCallStmt):
            self._reads(ms, chain, node.call)
            return ("after", node)
        if isinstance(node, ast.CallStmt):
            self._reads(ms, chain, node.exp)
            return ("after", node)
        if isinstance(node, ast.Assign):
            if isinstance(node.value, ast.Exp):
                self._reads(ms, chain, node.value)
                self._write_target(ms, chain, node.target)
                return ("after", node)
            return ("enter", node.value)
        if isinstance(node, ast.DoBlock):
            return ("enter", node.body)
        raise AssertionError(f"abstract: unhandled {type(node).__name__}")

    def _decl_step(self, ms: MidState, cursor: tuple, path: Path,
                   chain: int) -> Optional[tuple]:
        _, declvar, index = cursor
        while index < len(declvar.decls):
            declarator = declvar.decls[index]
            sym = self.bound.sym_of_decl[declarator.nid]
            if declarator.init is None:
                self._act(ms, chain, WR, ("var", sym.uid, sym.name),
                          declarator.span)
                index += 1
                continue
            if isinstance(declarator.init, ast.Exp):
                self._reads(ms, chain, declarator.init)
                self._act(ms, chain, WR, ("var", sym.uid, sym.name),
                          declarator.span)
                index += 1
                continue
            # statement-valued initializer: run it; the successor walk
            # through the Declarator records the write and resumes here
            return ("enter", declarator.init)
        return ("after", declvar)

    # ------------------------------------------------------ successor walk
    def _after(self, ms: MidState, node: ast.Node, path: Path,
               chain: int) -> Optional[tuple]:
        parent = self.bound.parent.get(node.nid)
        if parent is None or isinstance(parent, ast.Program):
            # root trail code ended
            ms.tree[path] = ("done",)
            return None
        if isinstance(parent, ast.Block):
            idx = _index_of(parent.stmts, node)
            if idx + 1 < len(parent.stmts):
                return ("enter", parent.stmts[idx + 1])
            return ("after", parent)
        if isinstance(parent, ast.Loop):
            return ("enter", parent.body)  # iterate (bounded by §2.5)
        if isinstance(parent, (ast.If, ast.DoBlock)):
            return ("after", parent)
        if isinstance(parent, ast.ParStmt):
            return self._branch_end(ms, parent, path, chain)
        if isinstance(parent, ast.Declarator):
            sym = self.bound.sym_of_decl[parent.nid]
            self._act(ms, chain, WR, ("var", sym.uid, sym.name),
                      parent.span)
            declvar = self.bound.parent[parent.nid]
            idx = _index_of(declvar.decls, parent)
            return ("decl", declvar, idx + 1)
        if isinstance(parent, ast.Assign):
            self._write_target(ms, chain, parent.target)
            return ("after", parent)
        if isinstance(parent, ast.AsyncBlock):  # pragma: no cover
            return ("after", parent)
        raise AssertionError(
            f"abstract successor: unhandled parent {type(parent).__name__}")

    def _branch_end(self, ms: MidState, par: ast.ParStmt,
                    path: Path, chain: int) -> None:
        ms.tree[path] = ("done",)
        par_path = path[:-1]
        entry = ms.tree.get(par_path)
        if entry is None or entry[0] != "par" or entry[1] != par.nid:
            return None  # the composition is gone (killed)
        rejoins = (par.mode in ("or", "and")
                   or par.nid in self.bound.value_boundaries)
        if not rejoins:
            return None
        if par.mode == "and":
            all_done = all(
                ms.tree.get(par_path + (i,)) == ("done",)
                for i in range(len(par.blocks)))
            if not all_done:
                return None
        if any(j.kind == "join" and j.path == par_path for j in ms.joinq):
            return None  # already scheduled this reaction
        prio = (1, -self.bound.join_depth[par.nid])
        ms.joinq.append(JoinItem(prio, ms.seq(), "join", par_path,
                                 (par.nid,), cause=chain))
        return None

    def _enqueue_escape(self, ms: MidState, path: Path, k: int,
                        target: ast.Node, chain: int) -> None:
        ms.tree[path] = ("done",)
        prio = (1, -self.bound.join_depth[target.nid])
        ms.joinq.append(JoinItem(prio, ms.seq(), "escape", path,
                                 (k, target), cause=chain))

    def _dispatch_join(self, ms: MidState, join: JoinItem) -> None:
        if join.kind == "join":
            par_nid, = join.payload
            entry = ms.tree.get(join.path)
            if entry is None or entry[0] != "par" or entry[1] != par_nid:
                return
            node = self._node_by_nid(par_nid)
            self._kill_subtree(ms, join.path)
            ms.tree[join.path] = ("run",)
            chain = ms.chains.new(prio=join.prio, cause=join.cause)
            ms.stack.append(RunItem(("after", node), join.path, chain))
            return
        # escape: the leaf marker must have survived any earlier kill
        if ms.tree.get(join.path) != ("done",):
            return
        k, target = join.payload
        land = join.path[:len(join.path) - k]
        self._kill_subtree(ms, land)
        ms.tree[land] = ("run",)
        chain = ms.chains.new(prio=join.prio, cause=join.cause)
        ms.stack.append(RunItem(("after", target), land, chain))

    def _kill_subtree(self, ms: MidState, prefix: Path) -> None:
        for path in [p for p in ms.tree if p[:len(prefix)] == prefix]:
            del ms.tree[path]
        ms.joinq = [j for j in ms.joinq
                    if j.path[:len(prefix)] != prefix]
        ms.stack = [i for i in ms.stack
                    if i.path[:len(prefix)] != prefix]

    # ----------------------------------------------------- internal events
    def _emit_internal(self, ms: MidState, node: ast.EmitInt, path: Path,
                       chain: int) -> Optional[tuple]:
        sym = self.bound.event_of[node.nid]
        if node.value is not None:
            self._reads(ms, chain, node.value)
        self._act(ms, chain, EMIT, ("evt", sym.uid, sym.name), node.span)
        awaiting = [(p, e) for p, e in sorted(ms.tree.items())
                    if e[0] == "intl"
                    and self.bound.event_of[e[1]].uid == sym.uid]
        if not awaiting:
            return ("after", node)
        # stack policy: continuation below, awakened trails on top (LIFO)
        ms.stack.append(RunItem(("after", node), path, chain))
        items = []
        for p, e in awaiting:
            ms.tree[p] = ("run",)
            sub_chain = ms.chains.new(prio=ms.chains.prio[chain],
                                      cause=chain)
            items.append(RunItem(("after_await", self._node_by_nid(e[1])),
                                 p, sub_chain))
        ms.stack.extend(reversed(items))
        return None

    # ------------------------------------------------------------- helpers
    def _pars_crossed(self, node: ast.Node, target: ast.Node) -> int:
        """Parallel compositions crossed when escaping `node` → `target`
        (a target that *is* a par counts as crossed — or-completion)."""
        k = 0
        cur = self.bound.parent.get(node.nid)
        while cur is not None and cur is not target:
            if isinstance(cur, ast.ParStmt):
                k += 1
            cur = self.bound.parent.get(cur.nid)
        if isinstance(target, ast.ParStmt):
            k += 1
        return k

    def _node_by_nid(self, nid: int):
        cache = getattr(self, "_nid_cache", None)
        if cache is None:
            cache = {n.nid: n for n in self.bound.program.walk()}
            self._nid_cache = cache
        return cache[nid]

    def _act(self, ms: MidState, chain: int, kind: str, key: tuple,
             span) -> None:
        ms.actions.append(Action(chain, kind, key, span))

    def _reads(self, ms: MidState, chain: int, e: ast.Exp) -> None:
        bound = self.bound
        if isinstance(e, ast.NameInt):
            sym = bound.var_of[e.nid]
            self._act(ms, chain, RD, ("var", sym.uid, sym.name), e.span)
            return
        if isinstance(e, ast.NameC):
            return  # bare C global read: harmless
        if isinstance(e, (ast.Num, ast.Str, ast.Null, ast.SizeOf)):
            return
        if isinstance(e, ast.Unop):
            if e.op == "&" and isinstance(e.operand, ast.NameInt):
                # address taken and handed to C: assume it may be written
                sym = bound.var_of[e.operand.nid]
                self._act(ms, chain, WR, ("var", sym.uid, sym.name), e.span)
                return
            self._reads(ms, chain, e.operand)
            return
        if isinstance(e, ast.Binop):
            self._reads(ms, chain, e.left)
            self._reads(ms, chain, e.right)
            return
        if isinstance(e, ast.Index):
            self._reads(ms, chain, e.base)
            self._reads(ms, chain, e.index)
            return
        if isinstance(e, ast.CallExp):
            name = _callee_name(e)
            if name is not None:
                self._act(ms, chain, CALL, ("cfun", name), e.span)
            for a in e.args:
                self._reads(ms, chain, a)
            return
        if isinstance(e, ast.FieldAccess):
            self._reads(ms, chain, e.base)
            return
        if isinstance(e, ast.Cast):
            self._reads(ms, chain, e.operand)
            return

    def _write_target(self, ms: MidState, chain: int, target: ast.Exp) -> None:
        bound = self.bound
        if isinstance(target, ast.NameInt):
            sym = bound.var_of[target.nid]
            self._act(ms, chain, WR, ("var", sym.uid, sym.name), target.span)
            return
        if isinstance(target, ast.NameC):
            self._act(ms, chain, WR, ("cglobal", target.c_name), target.span)
            return
        if isinstance(target, ast.Index):
            self._reads(ms, chain, target.index)
            self._write_target(ms, chain, target.base)
            return
        if isinstance(target, ast.FieldAccess):
            self._write_target(ms, chain, target.base)
            return
        if isinstance(target, ast.Unop) and target.op == "*":
            if isinstance(target.operand, ast.NameInt):
                sym = bound.var_of[target.operand.nid]
                self._act(ms, chain, RD, ("var", sym.uid, sym.name),
                          target.span)
                self._act(ms, chain, WR, ("deref", sym.uid, sym.name),
                          target.span)
            else:
                self._reads(ms, chain, target.operand)
            return
        self._reads(ms, chain, target)


def _index_of(seq: list, node: ast.Node) -> int:
    for i, item in enumerate(seq):
        if item is node:
            return i
    raise ValueError("node not in parent sequence")


def _callee_name(e: ast.CallExp) -> Optional[str]:
    if isinstance(e.func, ast.NameC):
        return e.func.c_name
    if isinstance(e.func, ast.FieldAccess):
        parts = [e.func.name]
        base = e.func.base
        while isinstance(base, ast.FieldAccess):
            parts.append(base.name)
            base = base.base
        if isinstance(base, ast.NameC):
            parts.append(base.c_name)
        return ".".join(reversed(parts))
    return None
