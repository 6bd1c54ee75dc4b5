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

Compiled segments: between two touches of the configuration, a chain's
path through the AST is fixed by the AST alone.  Assignments, C calls,
declarations, external emits, the successors of blocks, loops, ``if``
and ``do``, and a ``break`` or ``return`` that crosses no ``par`` only
record accesses.  So the first time a build reaches a *cursor* (entering
a node, leaving it, or a declaration resumed at its n-th declarator) it
compiles it into a :class:`Segment`: the ``(kind, key, span)`` template
of every access up to the next op that reads or changes the
configuration (an await, an ``if`` fork, a ``par``, an internal emit, an
escape, a branch end, a return, the program's end), then that op.  A
chain runs one segment per await or fork, and records each access as a
``(chain, template)`` pair; :func:`~repro.dfa.actions.find_conflicts`
builds :class:`~repro.dfa.actions.Action` objects only for a conflict's
two sides.  Segments live on one build's machine, never on the bound
program, though the incremental analyzer now keeps a kept statement's
nodes and spans as they are (it renumbers their lines), so they could be
cached per statement across edits.  A segment or a run (see
:meth:`AbstractMachine._run`) that comes back to a cursor is a loop with
no await in it (§2.5): the tight-loop refusal, found at once.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional

from ..lang import ast
from ..lang.errors import AnalysisBudgetExceeded
from ..sema.binder import BoundProgram
from .actions import ARM, CALL, EMIT, RD, WR, ChainSet

Path = tuple
Entry = tuple

#: cursor kinds: ``(ENTER, node)``, ``(AFTER, node)`` and
#: ``(DECL, declvar, index)``
ENTER, AFTER, DECL = "enter", "after", "decl"

#: AST steps one chain may take before it counts as a tight loop
STEP_BUDGET = 100_000
TIGHT_LOOP = "abstract chain did not reach an await — tight loop?"


@dataclass(eq=False)
class JoinItem:
    prio: tuple
    seq: int
    kind: str                # "join" | "escape"
    path: Path               # par path (join) / escaping leaf path (escape)
    payload: tuple           # join: (par,); escape: (k, target)
    cause: Optional[int] = None   # chain that enqueued this join


class Segment:
    """One cursor, compiled: record ``accesses``, then run ``op``.

    ``op(machine, ms, arg, path, chain, worklist)`` is the step that
    touches the configuration; it returns the cursor the chain goes on
    at, or ``None`` when the chain stops.  ``steps`` is the number of AST
    steps the segment stands for, which the step budget counts."""

    __slots__ = ("accesses", "steps", "op", "arg")

    def __init__(self, accesses: tuple, steps: int, op, arg) -> None:
        self.accesses = accesses
        self.steps = steps
        self.op = op
        self.arg = arg


class MidState:
    """One in-flight abstract reaction (copied at every conditional).

    ``stack`` holds ``(cursor, path, chain)`` run items and ``accesses``
    the ``(chain, (kind, key, span))`` pairs in the order they ran;
    neither the items nor the join items are mutated, so copies share
    them."""

    __slots__ = ("tree", "stack", "joinq", "accesses", "chains",
                 "timer_epoch", "terminated", "_seq")

    def __init__(self, tree: dict, timer_epoch: int):
        self.tree = tree
        self.stack: list[tuple] = []
        self.joinq: list[JoinItem] = []
        self.accesses: list[tuple] = []
        self.chains = ChainSet()
        self.timer_epoch = timer_epoch
        self.terminated = False
        self._seq = 0

    def copy(self) -> "MidState":
        dup = MidState(dict(self.tree), self.timer_epoch)
        dup.stack = list(self.stack)
        dup.joinq = list(self.joinq)
        dup.accesses = list(self.accesses)
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
        self._segments: dict[tuple, Segment] = {}
        #: await nid -> the cursor its trail resumes at; filled as the
        #: awaits are compiled, which is before any configuration holds
        #: them
        self._resume: dict[int, tuple] = {}

    def fresh_epoch(self) -> int:
        return next(self._epoch_seq)

    # --------------------------------------------------------- transitions
    def boot(self) -> list[tuple[tuple, list[tuple], ChainSet]]:
        ms = MidState({(): ("run",)}, self.fresh_epoch())
        chain = ms.chains.new()
        ms.stack.append(((ENTER, self.bound.program.body), (), chain))
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
        ms.tree[path] = ("run",)
        chain = ms.chains.new()
        ms.stack.append((self._resume[entry[1]], path, chain))
        return self._drain(ms)

    def _seed_resumes(self, ms: MidState, leaves: list) -> None:
        """Arrange independent (mutually concurrent) resumes of leaves:
        each goes on after its await."""
        items = []
        for path, entry in leaves:
            ms.tree[path] = ("run",)
            items.append((self._resume[entry[1]], path, ms.chains.new()))
        ms.stack.extend(reversed(items))

    # ----------------------------------------------------------- the drain
    def _drain(self, first: MidState):
        """Run the abstract reaction to quiescence in every fork.

        Returns ``[(frozen_tree, accesses, chains), ...]`` — one result per
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
                results.append((freeze(ms.tree), ms.accesses, ms.chains))
                continue
            if ms.stack:
                cursor, path, chain = ms.stack.pop()
                self._run(ms, cursor, path, chain, worklist)
                worklist.append(ms)
                continue
            if ms.joinq:
                ms.joinq.sort(key=lambda j: (j.prio, j.seq))
                join = ms.joinq.pop(0)
                self._dispatch_join(ms, join)
                worklist.append(ms)
                continue
            results.append((freeze(ms.tree), ms.accesses, ms.chains))
        return results

    # ---------------------------------------------------------- run cursor
    def _run(self, ms: MidState, cursor: tuple, path: Path, chain: int,
             worklist: list) -> None:
        """Advance one chain a segment at a time until it suspends or
        ends (forks go to the worklist).  Only a fork and an internal
        emit that wakes nobody go on, and neither changes the
        configuration: coming back to a cursor would loop for ever."""
        segments = self._segments
        steps = 0
        seen = None                    # cursors the run went on at
        while cursor is not None:
            seg = segments.get(cursor) or self._compile(cursor)
            steps += seg.steps
            if steps > STEP_BUDGET:
                raise AnalysisBudgetExceeded(TIGHT_LOOP)
            if seg.accesses:
                ms.accesses.extend(zip(itertools.repeat(chain),
                                       seg.accesses))
            cursor = seg.op(self, ms, seg.arg, path, chain, worklist)
            if cursor is not None:
                if seen is None:
                    seen = set()
                elif cursor in seen:
                    raise AnalysisBudgetExceeded(TIGHT_LOOP)
                seen.add(cursor)

    # ------------------------------------------------------------ compiler
    def _compile(self, cursor: tuple) -> Segment:
        """Follow the AST from ``cursor`` through every step that only
        records accesses, up to the op that touches the configuration."""
        start = cursor
        accesses: list[tuple] = []
        passed = set()
        while True:
            if cursor in passed:
                raise AnalysisBudgetExceeded(TIGHT_LOOP)
            passed.add(cursor)
            node = cursor[1]
            if cursor[0] == ENTER:
                op, arg = self._enter(node, accesses)
            elif cursor[0] == AFTER:
                op, arg = self._after(node, accesses)
            else:
                op, arg = self._decl(node, cursor[2], accesses)
            if op is not None:
                break
            cursor = arg
        seg = Segment(tuple(accesses), len(passed), op, arg)
        self._segments[start] = seg
        return seg

    # each step returns ``(op, arg)``: ``op`` is None when the chain goes
    # straight on at cursor ``arg``
    def _enter(self, node: ast.Node, acc: list) -> tuple:
        bound = self.bound
        if isinstance(node, ast.Block):
            if not node.stmts:
                return None, (AFTER, node)
            return None, (ENTER, node.stmts[0])
        if isinstance(node, (ast.Nothing, ast.DeclEvent, ast.PureDecl,
                             ast.DeterministicDecl, ast.CBlockStmt)):
            return None, (AFTER, node)
        if isinstance(node, ast.DeclVar):
            return None, (DECL, node, 0)
        if isinstance(node, ast.AwaitExt):
            return self._suspend(node, _leaf, ("ext", node.nid))
        if isinstance(node, ast.AwaitInt):
            acc.append((ARM, self._event_key(node), node.span))
            return self._suspend(node, _leaf, ("intl", node.nid))
        if isinstance(node, ast.AwaitTime):
            return self._suspend(node, _timer, (node.nid, node.time.us))
        if isinstance(node, ast.AwaitExp):
            self._reads(acc, node.exp)
            return self._suspend(node, _leaf, ("tunk", node.nid))
        if isinstance(node, ast.AwaitForever):
            return self._suspend(node, _leaf, ("fore", node.nid))
        if isinstance(node, ast.AsyncBlock):
            # async bodies are globally asynchronous (§2.9) — not analysed
            return self._suspend(node, _leaf, ("async", node.nid))
        if isinstance(node, ast.EmitInt):
            if node.value is not None:
                self._reads(acc, node.value)
            key = self._event_key(node)
            acc.append((EMIT, key, node.span))
            return _emit_internal, (key[1], (AFTER, node))
        if isinstance(node, ast.EmitExt):
            if node.value is not None:
                self._reads(acc, node.value)
            acc.append((EMIT, self._event_key(node), node.span))
            return None, (AFTER, node)
        if isinstance(node, ast.If):
            self._reads(acc, node.cond)
            if node.orelse is not None:
                other = (ENTER, node.orelse)
            else:
                other = (AFTER, node)
            return _fork, ((ENTER, node.then), other)
        if isinstance(node, ast.Loop):
            return None, (ENTER, node.body)
        if isinstance(node, ast.Break):
            return self._escape_to(node, bound.break_target[node.nid])
        if isinstance(node, ast.Return):
            if node.value is not None:
                self._reads(acc, node.value)
            boundary = bound.ret_boundary.get(node.nid)
            if boundary is None:
                return _terminate, None
            return self._escape_to(node, boundary)
        if isinstance(node, ast.ParStmt):
            return _par, node
        if isinstance(node, ast.CCallStmt):
            self._reads(acc, node.call)
            return None, (AFTER, node)
        if isinstance(node, ast.CallStmt):
            self._reads(acc, node.exp)
            return None, (AFTER, node)
        if isinstance(node, ast.Assign):
            if isinstance(node.value, ast.Exp):
                self._reads(acc, node.value)
                self._write_target(acc, node.target)
                return None, (AFTER, node)
            return None, (ENTER, node.value)
        if isinstance(node, ast.DoBlock):
            return None, (ENTER, node.body)
        raise AssertionError(f"abstract: unhandled {type(node).__name__}")

    def _decl(self, declvar: ast.DeclVar, index: int, acc: list) -> tuple:
        while index < len(declvar.decls):
            declarator = declvar.decls[index]
            if declarator.init is not None:
                if not isinstance(declarator.init, ast.Exp):
                    # statement-valued initializer: run it; the successor
                    # walk through the Declarator records the write and
                    # resumes here
                    return None, (ENTER, declarator.init)
                self._reads(acc, declarator.init)
            acc.append((WR, self._decl_key(declarator), declarator.span))
            index += 1
        return None, (AFTER, declvar)

    # ------------------------------------------------------ successor walk
    def _after(self, node: ast.Node, acc: list) -> tuple:
        parent = self.bound.parent.get(node.nid)
        if parent is None or isinstance(parent, ast.Program):
            # root trail code ended
            return _leaf, ("done",)
        if isinstance(parent, ast.Block):
            idx = _index_of(parent.stmts, node)
            if idx + 1 < len(parent.stmts):
                return None, (ENTER, parent.stmts[idx + 1])
            return None, (AFTER, parent)
        if isinstance(parent, ast.Loop):
            return None, (ENTER, parent.body)  # iterate (bounded by §2.5)
        if isinstance(parent, (ast.If, ast.DoBlock, ast.AsyncBlock)):
            return None, (AFTER, parent)
        if isinstance(parent, ast.ParStmt):
            return _branch_end, parent
        if isinstance(parent, ast.Declarator):
            acc.append((WR, self._decl_key(parent), parent.span))
            declvar = self.bound.parent[parent.nid]
            return None, (DECL, declvar,
                          _index_of(declvar.decls, parent) + 1)
        if isinstance(parent, ast.Assign):
            self._write_target(acc, parent.target)
            return None, (AFTER, parent)
        raise AssertionError(
            f"abstract successor: unhandled parent {type(parent).__name__}")

    def _suspend(self, node: ast.Node, op, arg) -> tuple:
        """An await (or ``async``): its trail resumes after it."""
        self._resume[node.nid] = (AFTER, node)
        return op, arg

    def _escape_to(self, node: ast.Node, target: ast.Node) -> tuple:
        """Leave ``node`` for the end of ``target``: straight on when no
        ``par`` is crossed, else an escape (a ``target`` that *is* a par
        counts as crossed — or-completion)."""
        k = 0
        cur = self.bound.parent.get(node.nid)
        while cur is not None and cur is not target:
            if isinstance(cur, ast.ParStmt):
                k += 1
            cur = self.bound.parent.get(cur.nid)
        if isinstance(target, ast.ParStmt):
            k += 1
        if k == 0:
            return None, (AFTER, target)
        return _escape, (k, target)

    def _dispatch_join(self, ms: MidState, join: JoinItem) -> None:
        if join.kind == "join":
            par, = join.payload
            entry = ms.tree.get(join.path)
            if entry is None or entry[0] != "par" or entry[1] != par.nid:
                return
            self._kill_subtree(ms, join.path)
            ms.tree[join.path] = ("run",)
            chain = ms.chains.new(prio=join.prio, cause=join.cause)
            ms.stack.append(((AFTER, par), join.path, chain))
            return
        # escape: the leaf marker must have survived any earlier kill
        if ms.tree.get(join.path) != ("done",):
            return
        k, target = join.payload
        land = join.path[:len(join.path) - k]
        self._kill_subtree(ms, land)
        ms.tree[land] = ("run",)
        chain = ms.chains.new(prio=join.prio, cause=join.cause)
        ms.stack.append(((AFTER, target), land, chain))

    @staticmethod
    def _kill_subtree(ms: MidState, prefix: Path) -> None:
        n = len(prefix)
        for path in [p for p in ms.tree if p[:n] == prefix]:
            del ms.tree[path]
        ms.joinq = [j for j in ms.joinq if j.path[:n] != prefix]
        ms.stack = [i for i in ms.stack if i[1][:n] != prefix]

    # ------------------------------------------------------------ accesses
    def _event_key(self, node: ast.Node) -> tuple:
        sym = self.bound.event_of[node.nid]
        return ("evt", sym.uid, sym.name)

    def _decl_key(self, declarator: ast.Declarator) -> tuple:
        sym = self.bound.sym_of_decl[declarator.nid]
        return ("var", sym.uid, sym.name)

    def _var_key(self, name: ast.NameInt) -> tuple:
        sym = self.bound.var_of[name.nid]
        return ("var", sym.uid, sym.name)

    def _reads(self, acc: list, e: ast.Exp) -> None:
        if isinstance(e, ast.NameInt):
            acc.append((RD, self._var_key(e), e.span))
            return
        if isinstance(e, ast.NameC):
            return  # bare C global read: harmless
        if isinstance(e, (ast.Num, ast.Str, ast.Null, ast.SizeOf)):
            return
        if isinstance(e, ast.Unop):
            if e.op == "&" and isinstance(e.operand, ast.NameInt):
                # address taken and handed to C: assume it may be written
                acc.append((WR, self._var_key(e.operand), e.span))
                return
            self._reads(acc, e.operand)
            return
        if isinstance(e, ast.Binop):
            self._reads(acc, e.left)
            self._reads(acc, e.right)
            return
        if isinstance(e, ast.Index):
            self._reads(acc, e.base)
            self._reads(acc, e.index)
            return
        if isinstance(e, ast.CallExp):
            name = _callee_name(e)
            if name is not None:
                acc.append((CALL, ("cfun", name), e.span))
            for a in e.args:
                self._reads(acc, a)
            return
        if isinstance(e, ast.FieldAccess):
            self._reads(acc, e.base)
            return
        if isinstance(e, ast.Cast):
            self._reads(acc, e.operand)
            return

    def _write_target(self, acc: list, target: ast.Exp) -> None:
        if isinstance(target, ast.NameInt):
            acc.append((WR, self._var_key(target), target.span))
            return
        if isinstance(target, ast.NameC):
            acc.append((WR, ("cglobal", target.c_name), target.span))
            return
        if isinstance(target, ast.Index):
            self._reads(acc, target.index)
            self._write_target(acc, target.base)
            return
        if isinstance(target, ast.FieldAccess):
            self._write_target(acc, target.base)
            return
        if isinstance(target, ast.Unop) and target.op == "*":
            if isinstance(target.operand, ast.NameInt):
                sym = self.bound.var_of[target.operand.nid]
                acc.append((RD, ("var", sym.uid, sym.name), target.span))
                acc.append((WR, ("deref", sym.uid, sym.name), target.span))
            else:
                self._reads(acc, target.operand)
            return
        self._reads(acc, target)


# ------------------------------------------------------------------ ops
# the step that ends a segment (see :class:`Segment`)

def _leaf(machine: AbstractMachine, ms: MidState, entry: Entry, path: Path,
          chain: int, worklist: list) -> None:
    """Suspend on an await, or end the root trail (``entry`` is the
    configuration entry the trail's path now holds)."""
    ms.tree[path] = entry


def _timer(machine: AbstractMachine, ms: MidState, arg: tuple, path: Path,
           chain: int, worklist: list) -> None:
    nid, us = arg
    ms.tree[path] = ("time", nid, us, ms.timer_epoch)


def _fork(machine: AbstractMachine, ms: MidState, arg: tuple, path: Path,
          chain: int, worklist: list) -> tuple:
    """An ``if``: the copy takes the other branch, this state goes on
    into ``then``."""
    then, other = arg
    fork = ms.copy()
    fork.stack.append((other, path, chain))
    worklist.append(fork)
    return then


def _par(machine: AbstractMachine, ms: MidState, par: ast.ParStmt,
         path: Path, chain: int, worklist: list) -> None:
    ms.tree[path] = ("par", par.nid, par.mode)
    items = []
    for i, block in enumerate(par.blocks):
        child_path = path + (i,)
        ms.tree[child_path] = ("run",)
        items.append(((ENTER, block), child_path,
                      ms.chains.new(cause=chain)))
    ms.stack.extend(reversed(items))


def _emit_internal(machine: AbstractMachine, ms: MidState, arg: tuple,
                   path: Path, chain: int, worklist: list) -> Optional[tuple]:
    uid, after = arg
    event_of = machine.bound.event_of
    awaiting = sorted((p, e) for p, e in ms.tree.items()
                      if e[0] == "intl" and event_of[e[1]].uid == uid)
    if not awaiting:
        return after
    # stack policy: continuation below, awakened trails on top (LIFO)
    ms.stack.append((after, path, chain))
    items = []
    for p, e in awaiting:
        ms.tree[p] = ("run",)
        sub_chain = ms.chains.new(prio=ms.chains.prio[chain], cause=chain)
        items.append((machine._resume[e[1]], p, sub_chain))
    ms.stack.extend(reversed(items))
    return None


def _escape(machine: AbstractMachine, ms: MidState, arg: tuple, path: Path,
            chain: int, worklist: list) -> None:
    """A ``break`` or ``return`` crossing ``k`` pars: schedule the kill
    and the landing at the target's join priority."""
    k, target = arg
    ms.tree[path] = ("done",)
    prio = (1, -machine.bound.join_depth[target.nid])
    ms.joinq.append(JoinItem(prio, ms.seq(), "escape", path, (k, target),
                             cause=chain))


def _branch_end(machine: AbstractMachine, ms: MidState, par: ast.ParStmt,
                path: Path, chain: int, worklist: list) -> None:
    ms.tree[path] = ("done",)
    par_path = path[:-1]
    entry = ms.tree.get(par_path)
    if entry is None or entry[0] != "par" or entry[1] != par.nid:
        return None  # the composition is gone (killed)
    rejoins = (par.mode in ("or", "and")
               or par.nid in machine.bound.value_boundaries)
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
    prio = (1, -machine.bound.join_depth[par.nid])
    ms.joinq.append(JoinItem(prio, ms.seq(), "join", par_path, (par,),
                             cause=chain))
    return None


def _terminate(machine: AbstractMachine, ms: MidState, arg: None,
               path: Path, chain: int, worklist: list) -> None:
    """A ``return`` outside every value block ends the program."""
    ms.terminated = True
    ms.tree = {(): ("term",)}
    ms.stack.clear()
    ms.joinq.clear()


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
