"""Incremental analysis engine: keystroke-latency re-lint.

:class:`IncrementalAnalyzer` keeps the full pipeline's products —
tokens → AST → ``BoundProgram`` → DFA → diagnostics — cached on a
*statement tree* that mirrors the block structure of the program, and
splices only the damaged parts on every edit.

The contract is mechanical: ``analyze(source)`` returns a
:class:`~repro.analysis.diagnostics.Report` that is **byte-identical**
to a cold :func:`~repro.analysis.engine.run_analysis` over the same
source, for every input.  Everything that could possibly diverge falls
back to a transparent cold run (counted in :attr:`stats`), so the fast
paths are a pure optimisation.

How an edit is processed
========================

1. The old and new sources are cut into ``\\n``-delimited lines (the
   lexer's line model) and diffed at line granularity
   (``difflib.SequenceMatcher``).
2. One algorithm repairs every block, starting with the program body,
   whose window is the whole new file.  Each statement of a block is an
   entry carrying its own comment-closed line extent, token signature,
   and — for compound statements — a *template* of literal token runs
   interleaved with child blocks, each block holding entries for its
   own statements, recursively.  Statements whose extents overlap (two
   on one line, a block comment joining them) form a *group*, kept or
   re-parsed as a unit.  A group whose whole extent lands inside one
   equal block of the diff *survives*: its nodes and signatures are
   kept as they are.  A damaged group of one compound statement whose
   frame (the literal runs: ``loop``/``if``/``par`` headers, ``with``,
   ``else``, ``end``, with the statement's first and last extent lines)
   survived piece by piece is **descended** into: each child block is
   repaired the same way within its own window, the lines strictly
   between the frame's.  The remaining gap lines are re-lexed and
   re-parsed standalone.  A mid-file keystroke inside a 200-line
   ``loop`` thus re-parses a handful of lines, not the loop.
   A position points at the :class:`~repro.lang.errors.Line` it was
   lexed on.  Once the repair succeeds, each kept line is renumbered
   through the diff and each gap's lines move by the gap's start;
   until then kept lines carry old numbers, so nothing compares
   positions, and ``analyze()`` returns a report detached from them.
3. Extents are closed over multi-line block comments (a comment never
   straddles a group boundary), which makes standalone parsing of any
   gap equivalent to the full lex.  A parse failure, or a damaged group
   that shares a line with the frame (``with loop do``), abandons the
   repair at that level (block → enclosing block → … → program body →
   cold run).
4. The spliced program is re-numbered (pre-order ``nid``s) and
   re-bound (an edit that only moved statements keeps the nids and the
   binder's tables), and the §2.5 bounded and liveness passes run over
   the whole program, as :func:`~repro.analysis.engine.run_analysis`
   runs them.
5. The whole-program DFA passes re-run only when the program's token
   signature actually changed: on an identical token stream (an edit to
   comments/whitespace) every DFA-derived diagnostic — conflicts with
   witnesses, stuck states, resource bounds — replays at the current
   spans of its nodes; when only ``NUM`` literals changed and the
   cached run had no conflicts the DFA is replayed too (the automaton is
   literal-independent; only witness realization is value-sensitive),
   though the bounds recompute (array sizes live in NUM literals) and,
   with the edited text's signature, replace the memoized ones.
   Anything else rebuilds.
"""

from __future__ import annotations

import difflib
from dataclasses import dataclass, field, replace
from typing import Optional

from ..dfa.actions import Conflict
from ..lang import ast
from ..lang.errors import CeuError, Line, SourceSpan
from ..lang.lexer import Lexer, split_lines
from ..lang.parser import Parser
from ..lang.tokens import TokKind, Token
from ..sema import bind
from .bounds import ResourceBounds, memory_bounds
from .diagnostics import Report
from .engine import dfa_stage, front_end_error
from .passes import bounded_pass, bounds_pass, liveness_pass

#: ``stats`` keys counting a group that was kept, repaired inside, or
#: re-parsed: in the program body (a top-level group is what the keys
#: call a region) and in the blocks of compound statements
_TOP_KEYS = ("regions_reused", "regions_recovered", "regions_reparsed")
_NESTED_KEYS = ("entries_reused", "descents", "entries_reparsed")


class _Fallback(Exception):
    """Internal: abandon the fast path, run cold (always sound)."""


def _vals(tokens: list[Token], masked: bool = False) -> tuple:
    """Position-free token signature: ``(kind, text)`` pairs, skipping
    the semantically-void ``;`` separators and EOF.  With ``masked``,
    NUM literal texts collapse to ``#`` (the DFA is literal-independent,
    so a masked-equal program has an identical automaton)."""
    out = []
    for t in tokens:
        if t.kind is TokKind.EOF or (t.kind is TokKind.SYM
                                     and t.text == ";"):
            continue
        if masked and t.kind is TokKind.NUM:
            out.append((t.kind.value, "#"))
        else:
            out.append((t.kind.value, t.text))
    return tuple(out)


def _comment_ranges(lexer: Lexer) -> list[tuple[int, int]]:
    """Line ranges of multi-line block comments (deduplicated)."""
    return sorted({(c.start.line, c.end.line) for c in lexer.comments
                   if c.end.line > c.start.line})


def _close_extent(lo: int, hi: int,
                  comments: list[tuple[int, int]]) -> tuple[int, int]:
    """Extend ``[lo, hi]`` until no multi-line comment straddles it."""
    changed = True
    while changed:
        changed = False
        for clo, chi in comments:
            if clo <= hi and chi >= lo:
                if clo < lo:
                    lo, changed = clo, True
                if chi > hi:
                    hi, changed = chi, True
    return lo, hi


def _detach(report: Report) -> Report:
    """``report`` on lines of its own, which the next edit's renumbering
    does not move."""
    for diag in report.diagnostics:
        diag.span = diag.span.detached()
        diag.notes = [(label, span.detached()) for label, span in diag.notes]
    return report


@dataclass
class _Entry:
    """One statement of one block, with enough structure to repair
    damage *inside* it without re-parsing the whole statement.

    ``template`` (compound statements only) is the statement's token
    stream split into literal runs and child-block slots, e.g. a
    ``loop`` is ``[lit("loop do"), blk(0), lit("end")]``.  Literal
    segments are lists ``["lit", raw, masked, line_lo, line_hi]`` (the
    :class:`Line` of the run's first and last token, ``None`` when the
    run is empty); block slots are ``["blk", index]`` into
    :attr:`blocks`.  By construction the template always alternates
    lit/blk/lit/…, so every block slot has a literal neighbour on both
    sides — those neighbours' lines are the *frame* that must survive an
    edit for the descent to be legal."""

    stmt: ast.Stmt
    lo: Line                           # comment-closed extent
    hi: Line
    raw: tuple                         # token signature of the extent
    masked: tuple
    template: Optional[list] = None
    blocks: list = field(default_factory=list)


@dataclass
class _BlockNode:
    block: ast.Block
    entries: list[_Entry]


@dataclass
class _DfaMemo:
    #: raw signature of the text ``bounds`` describe (a masked-equal
    #: replay moves both forward; ``masked`` stays the DFA's key)
    raw: tuple
    masked: tuple
    dfa: object
    states: int
    transitions: int
    #: (code, Conflict, Witness, first_nid, second_nid) in emission order
    conflicts: list
    #: (message, anchor_nid | None) in emission order
    stuck: list
    replayable: bool
    #: the ResourceBounds of the memoized run (replayed on raw-equal
    #: token streams with per-trail lines rebased; NUM literals carry
    #: array sizes, so masked-equal is not enough)
    bounds: object = None

    @property
    def had_conflicts(self) -> bool:
        return bool(self.conflicts)


def _groups(entries: list[_Entry]) -> list[list]:
    """A block's entries as ``[lo, hi, [entry, ...]]`` runs whose
    comment-closed extents overlap: the statements of a run share lines,
    so a run is kept or re-parsed as a unit.  Extents start in statement
    order, so one pass finds every run."""
    groups: list[list] = []
    for entry in entries:
        lo, hi = entry.lo.number, entry.hi.number
        if groups and lo <= groups[-1][1]:
            groups[-1][1] = max(groups[-1][1], hi)
            groups[-1][2].append(entry)
        else:
            groups.append([lo, hi, [entry]])
    return groups


class IncrementalAnalyzer:
    """Re-analyze successive versions of one buffer, reusing everything
    an edit did not damage.  ``analyze()`` output is byte-identical to
    :func:`~repro.analysis.engine.run_analysis` on every call."""

    def __init__(self, filename: str = "<ceu>", max_states: int = 20_000,
                 witnesses: bool = True, verify_witnesses: bool = True):
        self.filename = filename
        self.max_states = max_states
        self.witnesses = witnesses
        self.verify_witnesses = verify_witnesses
        self.stats: dict[str, int] = {
            "analyses": 0, "full_runs": 0, "full_fallbacks": 0,
            "fast_path_errors": 0,
            "regions_reused": 0, "regions_recovered": 0,
            "regions_reparsed": 0,
            "entries_reused": 0, "entries_reparsed": 0, "descents": 0,
            "dfa_replays": 0, "dfa_rebuilds": 0, "bounds_replays": 0,
            "bind_reuses": 0,
        }
        self._primed = False
        #: True when the last splice changed the program's *structure*
        #: (statement objects added/removed) as opposed to only moving
        #: surviving statements — a pure-move edit keeps nids, the walk
        #: list and the binder tables valid
        self._struct_dirty = True
        self._nodes: Optional[list] = None
        self._source: Optional[str] = None
        self._lines: list[str] = []
        #: the current text's :class:`Line` objects (``[k - 1]`` is line
        #: ``k``), which the positions of the kept tree point at
        self._line_table: list[Line] = []
        #: ``(lo, hi, lines)`` of every gap the running repair re-parsed,
        #: in parse order
        self._gaps: list[tuple] = []
        self._program: Optional[ast.Program] = None
        self._body: Optional[_BlockNode] = None
        self._dfa_memo: Optional[_DfaMemo] = None
        #: the :class:`~repro.sema.binder.BoundProgram` of the last
        #: successful bind, or ``None`` after a front-end error — the LSP
        #: server resolves go-to-definition against it
        self.last_bound = None

    # ------------------------------------------------------------- entry
    def analyze(self, source: str) -> Report:
        self.stats["analyses"] += 1
        if self._primed:
            try:
                return _detach(self._analyze_spliced(source))
            except _Fallback:
                self.stats["full_fallbacks"] += 1
            except Exception:
                # the fast path must never be less correct than cold,
                # but an unplanned failure is a bug, not a fallback
                self.stats["fast_path_errors"] += 1
        return _detach(self._analyze_cold(source))

    # --------------------------------------------------------- cold path
    def _analyze_cold(self, source: str) -> Report:
        self.stats["full_runs"] += 1
        self._primed = False
        self._struct_dirty = True
        report = Report(filename=self.filename)
        try:
            program, entries, table = self._parse(source)
        except CeuError as err:
            front_end_error(report, err)
            self._source = source
            self.last_bound = None
            return report
        self._program = program
        self._body = _BlockNode(program.body, entries)
        self._install(source, split_lines(source), table)
        return self._pipeline(report)

    def _install(self, source: str, lines: list[str],
                 table: list[Line]) -> None:
        self._source = source
        self._lines = lines
        self._line_table = table
        self._primed = True

    # ------------------------------------------------------- entry build
    def _parse(self, text: str
               ) -> tuple[ast.Program, list[_Entry], list[Line]]:
        """Lex and parse ``text`` on its own: the program, the entries of
        its body and the lexer's line table (raises :class:`CeuError`)."""
        lexer = Lexer(text, self.filename)
        toks = list(lexer.tokens())
        parser = Parser(text, self.filename, tokens=toks)
        program = parser.parse_program()
        entries = self._build_entries(program.body, toks, parser,
                                      _comment_ranges(lexer), lexer.lines)
        return program, entries, lexer.lines

    def _build_entries(self, block: ast.Block, toks: list[Token],
                       parser: Parser, comments: list[tuple[int, int]],
                       table: list[Line]) -> list[_Entry]:
        ext = parser.extents[id(block)]
        return [self._build_entry(stmt, ext[k], ext[k + 1], toks, parser,
                                  comments, table)
                for k, stmt in zip(range(2, len(ext), 2), block.stmts)]

    def _build_entry(self, stmt: ast.Stmt, s: int, e: int,
                     toks: list[Token], parser: Parser,
                     comments: list[tuple[int, int]],
                     table: list[Line]) -> _Entry:
        chunk = toks[s:e]
        lo, hi = _close_extent(chunk[0].span.start.line,
                               chunk[-1].span.end.line, comments)
        entry = _Entry(stmt=stmt, lo=table[lo - 1], hi=table[hi - 1],
                       raw=_vals(chunk), masked=_vals(chunk, masked=True))
        cands = []
        for node in stmt.walk():
            if isinstance(node, ast.Block):
                ext = parser.extents.get(id(node))
                if ext is not None and s <= ext[0] and ext[1] <= e:
                    cands.append((ext[0], ext[1], node))
        if not cands:
            return entry
        # block token ranges nest properly; keep only the outermost ones
        cands.sort(key=lambda c: (c[0], -c[1]))
        template: list = []
        blocks: list[_BlockNode] = []
        pos = s
        for bs, be, blk in cands:
            if bs < pos:
                continue               # nested inside the previous block
            template.append(self._lit_seg(toks, pos, bs))
            template.append(["blk", len(blocks)])
            blocks.append(_BlockNode(blk, self._build_entries(
                blk, toks, parser, comments, table)))
            pos = be
        template.append(self._lit_seg(toks, pos, e))
        entry.template = template
        entry.blocks = blocks
        return entry

    @staticmethod
    def _lit_seg(toks: list[Token], a: int, b: int) -> list:
        chunk = toks[a:b]
        if chunk:
            return ["lit", _vals(chunk), _vals(chunk, masked=True),
                    chunk[0].span.start.at, chunk[-1].span.end.at]
        return ["lit", (), (), None, None]

    @staticmethod
    def _resig(entry: _Entry) -> None:
        """Recompute an entry's token signature from its template after
        a child block was repaired."""
        raw: list = []
        masked: list = []
        for seg in entry.template:
            if seg[0] == "lit":
                raw.extend(seg[1])
                masked.extend(seg[2])
            else:
                for child in entry.blocks[seg[1]].entries:
                    raw.extend(child.raw)
                    masked.extend(child.masked)
        entry.raw = tuple(raw)
        entry.masked = tuple(masked)

    # ------------------------------------------------------ splice path
    def _analyze_spliced(self, source: str) -> Report:
        new_lines = split_lines(source)
        matcher = difflib.SequenceMatcher(None, self._lines, new_lines,
                                          autojunk=False)
        line_map: dict[int, int] = {}
        for a, b, size in matcher.get_matching_blocks():
            for k in range(size):
                line_map[a + k + 1] = b + k + 1

        self._struct_dirty = False
        self._gaps = []
        if not self._recover_block(self._body, 1, len(new_lines), line_map,
                                   new_lines, _TOP_KEYS):
            raise _Fallback("the program body cannot be repaired")
        self._program.span = self._program.body.span
        self._install(source, new_lines,
                      self._renumber(line_map, new_lines))
        return self._pipeline(Report(filename=self.filename))

    def _renumber(self, line_map: dict[int, int],
                  new_lines: list[str]) -> list[Line]:
        """Move the repaired tree's lines to the new text and return its
        line table: kept lines go where the diff maps them, gap lines
        down by their gap's start.  A gap parsed by a repair that failed
        lies inside a gap parsed later, which overwrites it."""
        starts = [0]
        for line in new_lines:
            starts.append(starts[-1] + len(line))
        table: list = [None] * len(new_lines)
        old = self._line_table
        for a, b in line_map.items():
            line = old[a - 1]
            line.number, line.start = b, starts[b - 1]
            table[b - 1] = line
        for lo, hi, lines in self._gaps:
            for line in lines[:hi - lo + 1]:
                line.number += lo - 1
                line.start += starts[lo - 1]
                table[line.number - 1] = line
        return table

    @staticmethod
    def _extent_survives(lo: int, hi: int,
                         line_map: dict[int, int]) -> bool:
        base = line_map.get(lo)
        if base is None:
            return False
        return all(line_map.get(l) == base + (l - lo)
                   for l in range(lo + 1, hi + 1))

    # ------------------------------------------------- damage recovery
    def _recover_block(self, bnode: _BlockNode, win_lo: int, win_hi: int,
                       line_map: dict[int, int], new_lines: list[str],
                       keys: tuple) -> bool:
        """Repair one block within its new line window ``[win_lo,
        win_hi]``: keep the groups that survived, descend into a damaged
        group of one compound statement, re-parse the remaining gap
        lines.  ``keys`` names the ``stats`` counters of the level.
        Returns ``False`` when the damage cannot be contained at this
        level; the half-repaired entries are then unreachable."""
        reused, repaired, reparsed = keys
        kept: list[tuple] = []         # (lo, hi, entries) in the new text
        for lo, hi, group in _groups(bnode.entries):
            if self._extent_survives(lo, hi, line_map):
                self.stats[reused] += 1
            elif len(group) == 1 and self._descend(group[0], line_map,
                                                   new_lines):
                self.stats[repaired] += 1
            elif (line_map.get(lo, win_lo) < win_lo
                  or line_map.get(hi, win_hi) > win_hi):
                # it shares a line with the enclosing frame (`with loop
                # do`, `x = 1; end`), outside the window: re-parsing the
                # window would lose that part of it
                return False
            else:
                # dropped — its lines become part of a gap below
                self._struct_dirty = True
                continue
            kept.append((line_map[lo], line_map[hi], group))
        entries: list[_Entry] = []
        cursor = win_lo
        for lo, hi, group in kept + [(win_hi + 1, win_hi, [])]:
            if cursor < lo:
                got = self._parse_gap(cursor, lo - 1, new_lines)
                if got is None:
                    return False
                self.stats[reparsed] += len(_groups(got))
                entries.extend(got)
            entries.extend(group)
            cursor = hi + 1
        if not entries:
            return False               # an empty block does not round-trip
        bnode.entries = entries
        bnode.block.stmts = [entry.stmt for entry in entries]
        # as the parser's merge picks them, without comparing positions:
        # kept statements still carry their old line numbers
        first, last = entries[0].stmt.span, entries[-1].stmt.span
        bnode.block.span = SourceSpan(first.start, last.end, first.filename)
        return True

    def _descend(self, entry: _Entry, line_map: dict[int, int],
                 new_lines: list[str]) -> bool:
        """Repair damage *inside* a compound statement whose frame
        survived: each literal run moved as one piece, the first from
        the statement's first extent line and the last to its last one
        (then every new line of the statement is a frame line or in a
        child block's window).  Recover each child block within its
        window."""
        if not entry.blocks:
            return False
        frame = [[seg[3], seg[4]] for seg in entry.template
                 if seg[0] == "lit"]
        if any(lo is None for lo, _hi in frame):
            return False               # no line to anchor a window on
        frame[0][0], frame[-1][1] = entry.lo, entry.hi
        if not all(self._extent_survives(lo.number, hi.number, line_map)
                   for lo, hi in frame):
            return False
        for idx, seg in enumerate(entry.template):
            if seg[0] != "blk":
                continue
            if not self._recover_block(
                    entry.blocks[seg[1]],
                    line_map[entry.template[idx - 1][4].number] + 1,
                    line_map[entry.template[idx + 1][3].number] - 1,
                    line_map, new_lines, _NESTED_KEYS):
                return False
        self._resig(entry)
        return True

    def _parse_gap(self, lo: int, hi: int,
                   new_lines: list[str]) -> Optional[list[_Entry]]:
        """Entries of the new lines ``[lo, hi]`` parsed on their own, or
        ``None`` when they do not parse.  Their positions count from the
        gap's first line until :meth:`_renumber` moves them."""
        try:
            _program, entries, lines = self._parse(
                "".join(new_lines[lo - 1:hi]))
        except CeuError:
            return None
        if entries:
            self._struct_dirty = True
        self._gaps.append((lo, hi, lines))
        return entries

    # ---------------------------------------------------------- pipeline
    def _pipeline(self, report: Report) -> Report:
        """Bind + passes over the installed program, mirroring
        :func:`run_analysis` stage for stage.  The tree is walked once;
        ``nid``s are pre-order positions, so the walk list doubles as
        the nid → node map for DFA replay."""
        program = self._program
        if (not self._struct_dirty and self._nodes is not None
                and self.last_bound is not None):
            # pure-move edit: same statement objects in the same order,
            # so nids, the walk list and every binder table still hold
            # (their lines were renumbered)
            nodes = self._nodes
            bound = self.last_bound
            report.stages.append("parse")
            report.stages.append("bind")
            self.stats["bind_reuses"] += 1
        else:
            nodes = list(program.walk())
            for i, node in enumerate(nodes, start=1):
                node.nid = i
            report.stages.append("parse")
            try:
                bound = bind(program)
            except CeuError as err:
                front_end_error(report, err)
                self.last_bound = None
                self._nodes = None
                return report
            report.stages.append("bind")
            self.last_bound = bound
            self._nodes = nodes

        tight_loops = bounded_pass(bound, report)
        liveness_pass(bound, report, nodes=nodes)
        if tight_loops:
            return report

        entries = self._body.entries
        flat_raw = tuple(v for en in entries for v in en.raw)
        flat_masked = tuple(v for en in entries for v in en.masked)
        memo = self._dfa_memo
        if (memo is not None and memo.replayable
                and (flat_raw == memo.raw
                     or (flat_masked == memo.masked
                         and not memo.had_conflicts))):
            self._replay_dfa(memo, bound, report, nodes, flat_raw)
            self.stats["dfa_replays"] += 1
        else:
            self._rebuild_dfa(bound, report, flat_raw, flat_masked,
                              nodes)
            self.stats["dfa_rebuilds"] += 1
        return report

    # ------------------------------------------------------- DFA caching
    def _replay_dfa(self, memo: _DfaMemo, bound, report: Report,
                    nodes: list[ast.Node], flat_raw: tuple) -> None:
        report.stages.append("dfa")
        report.dfa_states = memo.states
        report.dfa_transitions = memo.transitions
        for code, conflict, witness, nid1, nid2 in memo.conflicts:
            first = replace(conflict.first, span=nodes[nid1 - 1].span)
            second = replace(conflict.second, span=nodes[nid2 - 1].span)
            current = Conflict(first, second, conflict.trigger,
                               conflict.state_index)
            report.add(code, current.message(), first.span,
                       notes=[(second.describe(), second.span)],
                       witness=witness)
        report.stages.append("conflicts")
        for message, nid in memo.stuck:
            span = (nodes[nid - 1].span if nid is not None
                    else SourceSpan.point(0, 0, filename=report.filename))
            report.add("CEU-W305", message, span)
        report.stages.append("stuck")
        if memo.bounds is not None:
            bounds = self._replay_bounds(memo, bound, nodes, flat_raw)
            memo.bounds, memo.raw = bounds, flat_raw
            report.bounds = bounds
            report.add("CEU-I501",
                       f"static resource bounds: {bounds.summary()}",
                       SourceSpan.point(0, 0, filename=report.filename),
                       data=bounds.as_dict())
            report.stages.append("bounds")
            self.stats["bounds_replays"] += 1
            return
        bounds_pass(bound, memo.dfa, report)

    def _replay_bounds(self, memo: _DfaMemo, bound,
                       nodes: list[ast.Node],
                       flat_raw: tuple) -> ResourceBounds:
        """Rebuild the memoized :class:`ResourceBounds` without folding
        over the DFA again (the per-state maxima depend only on the —
        unchanged — automaton).  Raw-equal token streams keep the memory
        figures too and only rebase the per-trail source extents;
        masked-equal streams may have changed array sizes, so the fields
        that follow from the declarations recompute from the binder."""
        old = memo.bounds
        if flat_raw == memo.raw:
            frames = [bound.program.body]
            frames.extend(blk for node in nodes
                          if isinstance(node, ast.ParStmt)
                          for blk in node.blocks)
            if len(frames) == len(old.per_trail):
                return replace(old, per_trail=tuple(
                    replace(t, line=blk.span.start.line,
                            end_line=blk.span.end.line)
                    for t, blk in zip(old.per_trail, frames)))
        return replace(old, **memory_bounds(bound))

    def _rebuild_dfa(self, bound, report: Report, flat_raw: tuple,
                     flat_masked: tuple, nodes: list[ast.Node]) -> None:
        result = dfa_stage(self._source, bound, report,
                           max_states=self.max_states,
                           witnesses=self.witnesses,
                           verify_witnesses=self.verify_witnesses)
        if result is None:             # budget exceeded: CEU-W401 path
            self._dfa_memo = None
            return
        dfa, conflict_entries, stuck_entries = result
        span_to_nid: dict[SourceSpan, int] = {}
        for node in nodes:
            span_to_nid.setdefault(node.span, node.nid)
        replayable = True
        conflicts = []
        for code, conflict, witness in conflict_entries:
            nid1 = span_to_nid.get(conflict.first.span)
            nid2 = span_to_nid.get(conflict.second.span)
            if nid1 is None or nid2 is None:
                replayable = False
                break
            conflicts.append((code, conflict, witness, nid1, nid2))
        self._dfa_memo = _DfaMemo(
            raw=flat_raw, masked=flat_masked, dfa=dfa,
            states=dfa.state_count(),
            transitions=dfa.transition_count(),
            conflicts=conflicts, stuck=list(stuck_entries),
            replayable=replayable, bounds=report.bounds)
