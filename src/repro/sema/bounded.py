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
execution can leave the statement, one bit per way:

======  ======  ======================================================
bit     name    the statement
======  ======  ======================================================
``1``   ``CA``  completes, and the path crossed an await (took time)
``2``   ``CZ``  completes in zero time
``4``   ``EA``  escapes via ``break`` on an awaited path
``8``   ``EZ``  escapes via ``break`` in zero time
``16``  ``RA``  escapes via ``return`` on an awaited path
``32``  ``RZ``  escapes via ``return`` in zero time
======  ======  ======================================================

Each zero-time bit sits one above its awaited bit, so the lattice runs on
shifts: the paths that follow an await become awaited with ``>> 1`` of
their zero-time bits, a loop turns its escapes into completions with
``>> 2``, and a value boundary (``v = do ... end``) turns the returns it
catches into completions with ``>> 4``.  ``0`` means control never
leaves (e.g. ``await forever``, a ``par`` that never rejoins).  A loop is
valid iff its body's outcome set does not contain ``CZ``.  ``async``
bodies are exempt — unbounded loops are their purpose (§2.7).

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

CA, CZ, EA, EZ, RA, RZ = 1, 2, 4, 8, 16, 32

_COMPLETES = CA | CZ
_BREAKS = EA | EZ
_RETURNS = RA | RZ
_AWAITED = CA | EA | RA
_ZERO_TIME = CZ | EZ | RZ

#: statements that hold no statement; a kind named neither here nor in
#: :func:`_outcomes_stmt` (declarations, emits, C calls, annotations,
#: ``nothing``) completes in zero time.  The synchronous side of an
#: ``async`` awaits its completion event (§2.7); loops inside the async
#: are intentionally unchecked.
_SIMPLE = {ast.AwaitExt: CA, ast.AwaitInt: CA, ast.AwaitTime: CA,
           ast.AwaitExp: CA, ast.AsyncBlock: CA, ast.AwaitForever: 0,
           ast.Break: EZ, ast.Return: RZ}


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


def analyze_bounded(bound: BoundProgram, sink: BoundedSink) -> int:
    """Run the full walk, reporting every finding through ``sink``
    (accumulate-don't-raise when the sink does not raise)."""
    return _outcomes_block(bound.program.body, bound, sink)


def _seq(first: int, rest: int) -> int:
    """Outcomes of `first; rest` paths: ``rest`` runs after each way
    ``first`` completes, awaited after an awaited completion."""
    out = first & ~_COMPLETES
    if first & CZ:
        out |= rest
    if first & CA:
        out |= rest & _AWAITED | (rest & _ZERO_TIME) >> 1
    return out


def _outcomes_block(block: ast.Block, bound: BoundProgram,
                    sink: BoundedSink) -> int:
    acc = CZ  # empty block completes instantly
    for i, stmt in enumerate(block.stmts):
        acc = _seq(acc, _outcomes_stmt(stmt, bound, sink))
        if not acc & _COMPLETES:
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
                     sink: BoundedSink) -> int:
    if isinstance(value, ast.Exp):
        return CZ
    return _outcomes_stmt(value, bound, sink)


def _outcomes_stmt(s: ast.Stmt, bound: BoundProgram,
                   sink: BoundedSink) -> int:
    """Outcome set of a statement, converting caught returns at value
    boundaries (``v = do/par/async ... end``) into completions.  Every
    statement class is a leaf of :class:`~repro.lang.ast.Stmt`, so the
    exact type picks the rule."""
    kind = type(s)
    out = _SIMPLE.get(kind)
    if out is not None:
        return out
    if kind is ast.If:
        out = _outcomes_block(s.then, bound, sink)
        out |= (CZ if s.orelse is None
                else _outcomes_block(s.orelse, bound, sink))
    elif kind is ast.Loop:
        body = _outcomes_block(s.body, bound, sink)
        if body & CZ:
            # a collecting sink returns, and the walk goes on to find
            # further findings
            sink.tight_loop(s)
        # completions, the offending zero-time one included, go round
        # again; a break completes the loop
        out = (body & _BREAKS) >> 2 | body & _RETURNS
    elif kind is ast.ParStmt:
        branches = [_outcomes_block(b, bound, sink) for b in s.blocks]
        union = 0
        for branch in branches:
            union |= branch
        out = union if s.mode == "or" else union & ~_COMPLETES
        if s.mode == "and" and all(b & _COMPLETES for b in branches):
            if all(b & CZ for b in branches):
                out |= CZ
            out |= union & CA
        # plain `par` never rejoins: no completions
        if s.mode != "par" and not out:
            sink.par_never_rejoins(s)
    elif kind is ast.DoBlock:
        out = _outcomes_block(s.body, bound, sink)
    elif kind is ast.DeclVar:
        out = CZ
        for declarator in s.decls:
            if declarator.init is not None:
                out = _seq(out, _setexp_outcomes(declarator.init, bound,
                                                 sink))
    elif kind is ast.Assign:
        out = _setexp_outcomes(s.value, bound, sink)
    else:
        return CZ
    if out & _RETURNS and s.nid in bound.value_boundaries:
        out = out & ~_RETURNS | (out & _RETURNS) >> 4
    return out

