"""Bounded-execution analysis (§2.5).

A reaction chain must run in bounded time; the only statements that can
violate this are loops (C calls are *assumed* non-looping, §2.5).  The rule:
**every path through a loop body must contain at least one ``await`` or
``break``** (``return`` also escapes).  The paper's acceptance examples:

* refused — ``loop do v = v+1 end``;
* refused — ``loop do if v then await A end end`` (else path is zero-time);
* refused — ``loop do par/or do await A with v = 1 end end`` (the ``par/or``
  rejoins in zero time through its second branch);
* accepted — ``loop do await A end``;
* accepted — ``loop do par/and do await A with v = 1 end end``.

The analysis is the structural induction the paper describes, implemented as
an *outcome set* lattice.  Each statement is mapped to the set of ways its
execution can leave the statement:

===========  =============================================================
``CA``       completes, and the path crossed an await (took time)
``CZ``       completes in zero time
``EA``/``EZ``  escapes via ``break`` (awaited / zero-time path)
``RA``/``RZ``  escapes via ``return`` (awaited / zero-time path)
===========  =============================================================

An empty set means control never leaves (e.g. ``await forever``, a ``par``
that never rejoins).  A loop is valid iff its body's outcome set does not
contain ``CZ``.  ``async`` bodies are exempt — unbounded loops are their
purpose (§2.7).

The walk reports findings through a :class:`BoundedSink`.  The default
sink raises :class:`BoundedError` at the first tight loop (the compiler's
refusal); the analysis engine substitutes a collecting sink that records
every tight loop, unreachable statement, and never-rejoining parallel and
lets the walk continue.
"""

from __future__ import annotations

from ..lang import ast
from ..lang.errors import BoundedError
from .binder import BoundProgram

CA, CZ, EA, EZ, RA, RZ = "CA", "CZ", "EA", "EZ", "RA", "RZ"

_COMPLETIONS = {CA, CZ}
_AWAITED = {CA: True, CZ: False, EA: True, EZ: False, RA: True, RZ: False}
_MARK_AWAITED = {CZ: CA, CA: CA, EZ: EA, EA: EA, RZ: RA, RA: RA}

Outcomes = frozenset


class BoundedSink:
    """Receiver for the walk's findings; the default refuses tight loops
    and ignores the informational ones."""

    def tight_loop(self, loop: ast.Loop) -> None:
        raise BoundedError(
            "loop body has a path with neither `await` nor `break` — "
            "the reaction chain would not terminate", loop.span)

    def unreachable(self, stmt: ast.Stmt, count: int) -> None:
        """``stmt`` (and ``count - 1`` statements after it) can never run."""

    def par_never_rejoins(self, par: ast.ParStmt) -> None:
        """A rejoining ``par/or``/``par/and`` whose control never leaves."""


_RAISING = BoundedSink()


def check_bounded(bound: BoundProgram) -> None:
    """Raise :class:`BoundedError` on the first tight loop found."""
    _outcomes_block(bound.program.body, bound, _RAISING)


def analyze_bounded(bound: BoundProgram, sink: BoundedSink) -> Outcomes:
    """Run the full walk, reporting every finding through ``sink``
    (accumulate-don't-raise when the sink does not raise)."""
    return _outcomes_block(bound.program.body, bound, sink)


def loop_outcomes(bound: BoundProgram, node: ast.Node) -> Outcomes:
    """Expose the outcome set of an arbitrary statement (used by tests)."""
    return _outcomes_stmt(node, bound, _RAISING)


def _seq(first: Outcomes, rest: Outcomes) -> Outcomes:
    """Compose outcomes of `first; rest` paths."""
    out = {o for o in first if o not in _COMPLETIONS}
    for completion in first & _COMPLETIONS:
        for nxt in rest:
            out.add(_MARK_AWAITED[nxt] if _AWAITED[completion] else nxt)
    return frozenset(out)


def _outcomes_block(block: ast.Block, bound: BoundProgram,
                    sink: BoundedSink) -> Outcomes:
    acc: Outcomes = frozenset({CZ})  # empty block completes instantly
    for i, stmt in enumerate(block.stmts):
        acc = _seq(acc, _outcomes_stmt(stmt, bound, sink))
        if not acc & _COMPLETIONS:
            # nothing ever flows past this statement; later statements are
            # unreachable but must still be *checked* for tight loops.
            rest = block.stmts[i + 1:]
            if rest:
                sink.unreachable(rest[0], len(rest))
            for later in rest:
                _outcomes_stmt(later, bound, sink)
            return acc
    return acc


def _setexp_outcomes(value: ast.Node, bound: BoundProgram,
                     sink: BoundedSink) -> Outcomes:
    if isinstance(value, ast.Exp):
        return frozenset({CZ})
    return _outcomes_stmt(value, bound, sink)


def _outcomes_stmt(s: ast.Stmt, bound: BoundProgram,
                   sink: BoundedSink) -> Outcomes:
    """Outcome set of a statement, converting caught returns at value
    boundaries (``v = do/par/async ... end``) into completions."""
    out = _outcomes_stmt_raw(s, bound, sink)
    if s.nid in bound.value_boundaries:
        mapped = {RA: CA, RZ: CZ}
        out = frozenset(mapped.get(o, o) for o in out)
    return out


def _outcomes_stmt_raw(s: ast.Stmt, bound: BoundProgram,
                       sink: BoundedSink) -> Outcomes:
    if isinstance(s, (ast.AwaitExt, ast.AwaitInt, ast.AwaitTime,
                      ast.AwaitExp)):
        return frozenset({CA})
    if isinstance(s, ast.AwaitForever):
        return frozenset()
    if isinstance(s, ast.Break):
        return frozenset({EZ})
    if isinstance(s, ast.Return):
        return frozenset({RZ})
    if isinstance(s, ast.AsyncBlock):
        # the synchronous side awaits the async's completion event (§2.7);
        # loops inside the async are intentionally unchecked.
        return frozenset({CA})
    if isinstance(s, ast.If):
        then = _outcomes_block(s.then, bound, sink)
        if s.orelse is not None:
            return then | _outcomes_block(s.orelse, bound, sink)
        return then | frozenset({CZ})
    if isinstance(s, ast.Loop):
        body = _outcomes_block(s.body, bound, sink)
        if CZ in body:
            sink.tight_loop(s)
            # a collecting sink returns: continue as if the offending
            # zero-time path did not exist, to find further issues
            body = body - {CZ}
        out: set[str] = set()
        if EA in body:
            out.add(CA)
        if EZ in body:
            out.add(CZ)
        out |= {o for o in body if o in (RA, RZ)}
        return frozenset(out)
    if isinstance(s, ast.ParStmt):
        branch_outs = [_outcomes_block(b, bound, sink) for b in s.blocks]
        out: set[str] = set()
        for branch in branch_outs:
            out |= {o for o in branch if o not in _COMPLETIONS}
        if s.mode == "or":
            for branch in branch_outs:
                out |= branch & _COMPLETIONS
        elif s.mode == "and":
            if all(branch & _COMPLETIONS for branch in branch_outs):
                if all(CZ in branch for branch in branch_outs):
                    out.add(CZ)
                if any(CA in branch for branch in branch_outs):
                    out.add(CA)
        # plain `par` never rejoins: no completions
        if s.mode in ("or", "and") and not out:
            sink.par_never_rejoins(s)
        return frozenset(out)
    if isinstance(s, ast.DoBlock):
        return _outcomes_block(s.body, bound, sink)
    if isinstance(s, ast.DeclVar):
        acc: Outcomes = frozenset({CZ})
        for declarator in s.decls:
            if declarator.init is not None:
                acc = _seq(acc, _setexp_outcomes(declarator.init, bound,
                                                 sink))
        return acc
    if isinstance(s, ast.Assign):
        return _setexp_outcomes(s.value, bound, sink)
    # declarations, emits, C calls, annotations, nothing: zero-time
    return frozenset({CZ})


#: public aliases for the incremental analyzer (docs/ANALYSIS.md), which
#: replicates the top-level `_outcomes_block` walk over memoized
#: per-statement outcomes
COMPLETIONS = _COMPLETIONS
seq_outcomes = _seq


def statement_outcomes(stmt: ast.Stmt, bound: BoundProgram,
                       sink: BoundedSink) -> Outcomes:
    """Outcome set of one top-level statement (value-boundary aware)."""
    return _outcomes_stmt(stmt, bound, sink)
