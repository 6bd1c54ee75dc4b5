"""Incremental analysis engine: keystroke-latency re-lint.

:class:`IncrementalAnalyzer` keeps the full pipeline's products —
tokens → AST → ``BoundProgram`` → DFA → diagnostics — cached per
**top-level region**, with a recursive *entry tree* inside each region
that mirrors the block structure of the statements, and splices only
the damaged parts on every edit.

The contract is mechanical: ``analyze(source)`` returns a
:class:`~repro.analysis.diagnostics.Report` that is **byte-identical**
to a cold :func:`~repro.analysis.engine.run_analysis` over the same
source, for every input.  Everything that could possibly diverge falls
back to a transparent cold run (counted in :attr:`stats`), so the fast
paths are a pure optimisation.

How an edit is processed
========================

1. The old and new sources are diffed at **line** granularity
   (``difflib.SequenceMatcher``).  A region whose whole line extent
   lands inside one equal block *survives*: its AST, token signature and
   memoized diagnostics are kept, with every span shifted by a constant
   ``(dline, doffset)``.
2. A damaged region is repaired through its entry tree: each top-level
   statement is an entry carrying its own line extent, token signature,
   and — for compound statements — a *template* of literal token runs
   interleaved with child blocks, each block holding entries for its own
   statements, recursively.  Recovery keeps every entry whose extent
   survived the diff, **descends** into compound entries whose frame
   lines (the literal runs: ``loop``/``if``/``par`` headers, ``with``,
   ``else``, ``end``) all survived and repairs only the damaged child
   block, and re-lexes/re-parses just the remaining gap lines
   standalone.  A mid-file keystroke inside a 200-line ``loop`` thus
   re-parses a handful of lines, not the loop.
3. Region extents are closed over multi-line block comments (a comment
   never straddles a region boundary), which makes standalone parsing
   of any gap equivalent to the full lex; any parse failure abandons
   the repair at that level (entry → region → whole file → cold run).
4. The spliced program is re-numbered (pre-order ``nid``s), re-bound,
   and the bounded/liveness passes run over per-region memos: a region
   whose content and binder-visible environment signature (exports of
   all preceding regions, :func:`repro.sema.symbols
   .declaration_signature`) are unchanged replays its memoized
   diagnostics; damaged regions and their dependents recompute.
5. The whole-program DFA passes re-run only when the program's token
   signature actually changed: on an identical token stream (an edit to
   comments/whitespace) every DFA-derived diagnostic — conflicts with
   witnesses, stuck states, resource bounds — replays with rebased
   spans; when only ``NUM`` literals changed and the cached run had no
   conflicts the DFA is replayed too (the automaton is
   literal-independent; only witness realization is value-sensitive),
   though the bounds recompute (array sizes live in NUM literals).
   Anything else rebuilds.
"""

from __future__ import annotations

import difflib
from dataclasses import dataclass, field, replace
from typing import Optional

from ..dfa.actions import Conflict
from ..lang import ast
from ..lang.errors import CeuError, SourcePos, SourceSpan
from ..lang.lexer import Lexer
from ..lang.parser import Parser
from ..lang.rebase import shift_span, shift_subtree
from ..lang.tokens import TokKind, Token
from ..codegen.memlayout import HOST, TARGET16, build_layout
from ..sema import bind
from ..sema.bounded import COMPLETIONS, CZ, seq_outcomes, statement_outcomes
from ..sema.symbols import declaration_signature
from .bounds import ResourceBounds, compute_trail_bounds
from .diagnostics import Diagnostic, Report
from .engine import dfa_stage, front_end_error
from .passes import _CollectingSink, bounds_pass, liveness_pass


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


def _copy_diag(diag: Diagnostic) -> Diagnostic:
    return Diagnostic(code=diag.code, message=diag.message, span=diag.span,
                      notes=list(diag.notes), witness=diag.witness,
                      data=diag.data)


@dataclass
class _Entry:
    """One statement of one block, with enough structure to repair
    damage *inside* it without re-parsing the whole statement.

    ``template`` (compound statements only) is the statement's token
    stream split into literal runs and child-block slots, e.g. a
    ``loop`` is ``[lit("loop do"), blk(0), lit("end")]``.  Literal
    segments are mutable lists ``["lit", raw, masked, line_lo,
    line_hi]`` (lines ``None`` when the run is empty); block slots are
    ``["blk", index]`` into :attr:`blocks`.  By construction the
    template always alternates lit/blk/lit/…, so every block slot has a
    literal neighbour on both sides — those neighbours' lines are the
    *frame* that must survive an edit for the descent to be legal."""

    stmt: ast.Stmt
    lo: int                            # 1-based comment-closed extent
    hi: int
    raw: tuple                         # token signature of the extent
    masked: tuple
    template: Optional[list] = None
    blocks: list = field(default_factory=list)


@dataclass
class _BlockNode:
    block: ast.Block
    entries: list[_Entry]


@dataclass
class _Region:
    """One cached top-level region: a maximal run of top-level
    statements whose (comment-closed) line extents overlap."""

    entries: list[_Entry]
    lo: int                            # 1-based line extent, inclusive
    hi: int
    raw: tuple                         # token signature of the extent
    masked: tuple
    exports: tuple = ()                # declaration signatures, in order
    env_sig: Optional[tuple] = None    # env the bounded memo was keyed on
    #: per-statement bounded memo: (outcomes, [Diagnostic], tight_count)
    bounded: Optional[list] = None

    @property
    def stmts(self) -> list[ast.Stmt]:
        return [entry.stmt for entry in self.entries]


@dataclass
class _DfaMemo:
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
            "bounded_hits": 0, "bounded_misses": 0,
            "dfa_replays": 0, "dfa_rebuilds": 0, "bounds_replays": 0,
            "bind_reuses": 0,
        }
        self._primed = False
        #: True when the last splice changed the program's *structure*
        #: (statement objects added/removed) as opposed to only shifting
        #: surviving subtrees — a pure-shift edit keeps nids, the walk
        #: list and the binder tables valid
        self._struct_dirty = True
        self._nodes: Optional[list] = None
        self._source: Optional[str] = None
        self._lines: list[str] = []
        self._line_starts: list[int] = []          # 1-based, [0] unused
        self._program: Optional[ast.Program] = None
        self._regions: list[_Region] = []
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
                return self._analyze_spliced(source)
            except _Fallback:
                self.stats["full_fallbacks"] += 1
            except Exception:
                # the fast path must never be less correct than cold,
                # but an unplanned failure is a bug, not a fallback
                self.stats["fast_path_errors"] += 1
        return self._analyze_cold(source)

    # --------------------------------------------------------- cold path
    def _analyze_cold(self, source: str) -> Report:
        self.stats["full_runs"] += 1
        self._primed = False
        self._struct_dirty = True
        report = Report(filename=self.filename)
        try:
            lexer = Lexer(source, self.filename)
            toks = list(lexer.tokens())
            parser = Parser(source, self.filename, tokens=toks,
                            track_extents=True)
            program = parser.parse_program()
        except CeuError as err:
            front_end_error(report, err)
            self._source = source
            self.last_bound = None
            return report
        regions = self._regions_from_parse(parser, toks,
                                           _comment_ranges(lexer))
        self._install(source, program, regions)
        return self._pipeline(report)

    def _install(self, source: str, program: ast.Program,
                 regions: list[_Region]) -> None:
        self._source = source
        self._lines = source.splitlines(keepends=True)
        starts = [0, 0]
        for line in self._lines:
            starts.append(starts[-1] + len(line))
        self._line_starts = starts
        self._program = program
        self._regions = regions
        self._primed = True

    # ------------------------------------------------------- entry build
    def _build_entry(self, stmt: ast.Stmt, s: int, e: int,
                     toks: list[Token], parser: Parser,
                     comments: list[tuple[int, int]]) -> _Entry:
        chunk = toks[s:e]
        lo, hi = _close_extent(chunk[0].span.start.line,
                               chunk[-1].span.end.line, comments)
        entry = _Entry(stmt=stmt, lo=lo, hi=hi,
                       raw=_vals(chunk), masked=_vals(chunk, masked=True))
        cands = []
        for node in stmt.walk():
            if isinstance(node, ast.Block):
                rng = parser.block_ranges.get(id(node))
                if rng is not None and s <= rng[0] and rng[1] <= e:
                    cands.append((rng[0], rng[1], node))
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
            blocks.append(_BlockNode(block=blk, entries=[
                self._build_entry(st, ms, me, toks, parser, comments)
                for st, ms, me in parser.block_marks.get(id(blk), [])]))
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
                    chunk[0].span.start.line, chunk[-1].span.end.line]
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

    # ------------------------------------------------------ region build
    def _regions_from_parse(self, parser: Parser, toks: list[Token],
                            comments: list[tuple[int, int]]
                            ) -> list[_Region]:
        groups: list[list] = []        # [lo, hi, [entry, ...]]
        for stmt, s, e in parser.toplevel_marks:
            entry = self._build_entry(stmt, s, e, toks, parser, comments)
            if groups and entry.lo <= groups[-1][1]:
                groups[-1][1] = max(groups[-1][1], entry.hi)
                groups[-1][2].append(entry)
            else:
                groups.append([entry.lo, entry.hi, [entry]])
        # comment closure can make a later extent reach back over an
        # earlier group's lines; merge until stable
        merged = True
        while merged:
            merged = False
            out: list[list] = []
            for g in groups:
                if out and g[0] <= out[-1][1]:
                    out[-1][1] = max(out[-1][1], g[1])
                    out[-1][2].extend(g[2])
                    merged = True
                else:
                    out.append(g)
            groups = out
        regions = []
        for lo, hi, entries in groups:
            regions.append(_Region(
                entries=entries, lo=lo, hi=hi,
                raw=tuple(v for en in entries for v in en.raw),
                masked=tuple(v for en in entries for v in en.masked),
                exports=tuple(sig for en in entries
                              if (sig := declaration_signature(en.stmt)))))
        return regions

    # ------------------------------------------------------ splice path
    def _analyze_spliced(self, source: str) -> Report:
        new_lines = source.splitlines(keepends=True)
        matcher = difflib.SequenceMatcher(None, self._lines, new_lines,
                                          autojunk=False)
        line_map: dict[int, int] = {}
        for a, b, size in matcher.get_matching_blocks():
            for k in range(size):
                line_map[a + k + 1] = b + k + 1
        new_starts = [0, 0]
        for line in new_lines:
            new_starts.append(new_starts[-1] + len(line))

        self._struct_dirty = False
        kept: list[_Region] = []
        old_ext = [(r.lo, r.hi) for r in self._regions]
        for i, region in enumerate(self._regions):
            if self._extent_survives(region.lo, region.hi, line_map):
                dline = line_map[region.lo] - region.lo
                doff = (new_starts[line_map[region.lo]]
                        - self._line_starts[region.lo])
                self._shift_region(region, dline, doff)
                kept.append(region)
                self.stats["regions_reused"] += 1
                continue
            # recovery window: the region's own endpoints when they
            # survived, else bounded by the (old) neighbour regions'
            # boundary lines — an edit on a region's first or last line
            # must not disable repair of the rest of it
            win_lo = line_map.get(region.lo)
            if win_lo is None:
                if i == 0:
                    win_lo = 1
                else:
                    prev_hi = line_map.get(old_ext[i - 1][1])
                    win_lo = None if prev_hi is None else prev_hi + 1
            win_hi = line_map.get(region.hi)
            if win_hi is None:
                if i == len(self._regions) - 1:
                    win_hi = len(new_lines)
                else:
                    next_lo = line_map.get(old_ext[i + 1][0])
                    win_hi = None if next_lo is None else next_lo - 1
            if (win_lo is not None and win_hi is not None
                    and self._recover_region(region, win_lo, win_hi,
                                             line_map, new_lines,
                                             new_starts)):
                kept.append(region)
                self.stats["regions_recovered"] += 1
            else:
                # the region's new lines fall into a gap and reparse
                self._struct_dirty = True

        # gaps: new lines not covered by a kept region
        covered: list[tuple[int, int]] = sorted(
            (r.lo, r.hi) for r in kept)
        for (alo, ahi), (blo, bhi) in zip(covered, covered[1:]):
            if blo <= ahi:
                raise _Fallback("kept regions overlap")
        fresh: list[_Region] = []
        cursor = 1
        total = len(new_lines)
        for lo, hi in covered + [(total + 1, total + 1)]:
            if cursor < lo:
                fresh.extend(self._parse_gap(cursor, min(lo - 1, total),
                                             new_lines, new_starts))
            cursor = hi + 1
        regions = sorted(kept + fresh, key=lambda r: r.lo)
        for prev, nxt in zip(regions, regions[1:]):
            if nxt.lo <= prev.hi:
                raise _Fallback("spliced regions overlap")
        stmts = [stmt for region in regions for stmt in region.stmts]
        if not stmts:
            raise _Fallback("empty program")

        program = self._program
        program.body.stmts = stmts
        program.body.span = stmts[0].span.merge(stmts[-1].span)
        program.span = program.body.span
        self._install(source, program, regions)
        return self._pipeline(Report(filename=self.filename))

    @staticmethod
    def _extent_survives(lo: int, hi: int,
                         line_map: dict[int, int]) -> bool:
        base = line_map.get(lo)
        if base is None:
            return False
        return all(line_map.get(l) == base + (l - lo)
                   for l in range(lo + 1, hi + 1))

    def _parse_gap(self, lo: int, hi: int, new_lines: list[str],
                   new_starts: list[int]) -> list[_Region]:
        if lo > hi:
            return []
        text = "".join(new_lines[lo - 1:hi])
        try:
            lexer = Lexer(text, self.filename)
            toks = list(lexer.tokens())
            parser = Parser(text, self.filename, tokens=toks,
                            track_extents=True)
            parser.parse_program()
        except CeuError:
            raise _Fallback("gap does not parse standalone")
        regions = self._regions_from_parse(parser, toks,
                                           _comment_ranges(lexer))
        if regions:
            self._struct_dirty = True
        for region in regions:
            self._shift_region(region, lo - 1, new_starts[lo])
            self.stats["regions_reparsed"] += 1
        return regions

    # --------------------------------------------------------- shifting
    def _shift_entry(self, entry: _Entry, dline: int, doff: int,
                     shift_ast: bool = True) -> None:
        """Move an entry (extents, template lines, recursively its
        children) by a constant delta; ``shift_ast`` shifts the AST
        subtree too — ``False`` for nested entries, whose nodes are
        already covered by the parent's ``shift_subtree``."""
        if dline == 0 and doff == 0:
            return
        if shift_ast:
            shift_subtree(entry.stmt, dline, doff)
        entry.lo += dline
        entry.hi += dline
        if entry.template is not None:
            for seg in entry.template:
                if seg[0] == "lit" and seg[3] is not None:
                    seg[3] += dline
                    seg[4] += dline
        for bnode in entry.blocks:
            for child in bnode.entries:
                self._shift_entry(child, dline, doff, shift_ast=False)

    def _shift_region(self, region: _Region, dline: int,
                      doff: int) -> None:
        if dline == 0 and doff == 0:
            return
        region.lo += dline
        region.hi += dline
        for entry in region.entries:
            self._shift_entry(entry, dline, doff)
        if region.bounded is not None:
            for _out, diags, _tight in region.bounded:
                for diag in diags:
                    diag.span = shift_span(diag.span, dline, doff)
                    diag.notes = [(label, shift_span(span, dline, doff))
                                  for label, span in diag.notes]

    def _map_span(self, span: SourceSpan, line_map: dict[int, int],
                  new_starts: list[int]) -> SourceSpan:
        """Rebase a span whose endpoint *lines* survived the diff but
        may have moved by different amounts (content between them was
        repaired)."""
        def mp(pos: SourcePos) -> SourcePos:
            nl = line_map[pos.line]
            return SourcePos(nl, pos.col, pos.offset
                             + (new_starts[nl]
                                - self._line_starts[pos.line]))
        return SourceSpan(mp(span.start), mp(span.end), span.filename)

    # ------------------------------------------------- damage recovery
    def _recover_region(self, region: _Region, win_lo: int, win_hi: int,
                        line_map: dict[int, int], new_lines: list[str],
                        new_starts: list[int]) -> bool:
        """Repair a damaged region through its entry tree.  On failure
        the region is simply dropped (its lines re-parse as a gap);
        partially-shifted state is unreachable afterwards."""
        got = self._recover_entries(
            region.entries, win_lo, win_hi,
            line_map, new_lines, new_starts)
        if not got:
            return False
        region.entries = got
        region.lo = got[0].lo
        region.hi = got[-1].hi
        region.raw = tuple(v for en in got for v in en.raw)
        region.masked = tuple(v for en in got for v in en.masked)
        region.exports = tuple(sig for en in got
                               if (sig := declaration_signature(en.stmt)))
        region.bounded = None
        region.env_sig = None
        return True

    def _recover_entries(self, entries: list[_Entry], win_lo: int,
                         win_hi: int, line_map: dict[int, int],
                         new_lines: list[str], new_starts: list[int]
                         ) -> Optional[list[_Entry]]:
        """Repair one block's entry list within its new line window
        ``[win_lo, win_hi]``: shift survivors, descend into damaged
        compound entries, re-parse the remaining gap lines.  Returns the
        new entry list, or ``None`` when the damage cannot be contained
        at this level."""
        for a, b in zip(entries, entries[1:]):
            if b.lo <= a.hi:
                return None            # overlapping closures: punt
        kept: list[_Entry] = []
        for entry in entries:
            if self._extent_survives(entry.lo, entry.hi, line_map):
                dline = line_map[entry.lo] - entry.lo
                doff = (new_starts[line_map[entry.lo]]
                        - self._line_starts[entry.lo])
                self._shift_entry(entry, dline, doff)
                kept.append(entry)
                self.stats["entries_reused"] += 1
            elif self._descend(entry, line_map, new_lines, new_starts):
                kept.append(entry)
                self.stats["descents"] += 1
            else:
                # dropped — its lines become part of a gap below
                self._struct_dirty = True
        covered = sorted((en.lo, en.hi) for en in kept)
        if covered and (covered[0][0] < win_lo
                        or covered[-1][1] > win_hi):
            return None
        for (alo, ahi), (blo, bhi) in zip(covered, covered[1:]):
            if blo <= ahi:
                return None
        result = list(kept)
        cursor = win_lo
        for lo, hi in covered + [(win_hi + 1, win_hi + 1)]:
            if cursor < lo:
                got = self._parse_entry_gap(cursor, min(lo - 1, win_hi),
                                            new_lines, new_starts)
                if got is None:
                    return None
                result.extend(got)
            cursor = hi + 1
        result.sort(key=lambda en: en.lo)
        for a, b in zip(result, result[1:]):
            if b.lo <= a.hi:
                return None
        return result

    def _descend(self, entry: _Entry, line_map: dict[int, int],
                 new_lines: list[str], new_starts: list[int]) -> bool:
        """Repair damage *inside* a compound statement whose frame (the
        literal token runs between child blocks) survived: recover each
        child block within its own window, then rebase the frame nodes
        line by line."""
        if entry.template is None or not entry.blocks:
            return False
        if entry.lo not in line_map or entry.hi not in line_map:
            return False
        for seg in entry.template:
            if seg[0] == "lit" and seg[3] is not None:
                for line in range(seg[3], seg[4] + 1):
                    if line not in line_map:
                        return False
        for idx, seg in enumerate(entry.template):
            if seg[0] != "blk":
                continue
            prev = entry.template[idx - 1]
            nxt = entry.template[idx + 1]
            if prev[3] is None or nxt[3] is None:
                return False           # no line to anchor the window on
            bnode = entry.blocks[seg[1]]
            got = self._recover_entries(
                bnode.entries, line_map[prev[4]] + 1,
                line_map[nxt[3]] - 1, line_map, new_lines, new_starts)
            if not got:
                return False           # empty blocks don't round-trip
            bnode.entries = got
            bnode.block.stmts = [en.stmt for en in got]
            bnode.block.span = got[0].stmt.span.merge(got[-1].stmt.span)
        # frame nodes: everything in the statement's subtree that is not
        # inside a child block; their endpoint lines all survived, but
        # possibly with different deltas, so rebase per line.  The
        # traversal prunes at child-block roots, so its cost is the
        # frame size, not the subtree size.
        block_ids = {id(bnode.block) for bnode in entry.blocks}
        frame: list[ast.Node] = []
        stack: list[ast.Node] = [entry.stmt]
        while stack:
            node = stack.pop()
            frame.append(node)
            for child in node.children():
                if id(child) not in block_ids:
                    stack.append(child)
        for node in frame:
            span = node.span
            if span.start.line == 0:
                continue               # unknown span: leave untouched
            if (span.start.line not in line_map
                    or span.end.line not in line_map):
                return False
        for node in frame:
            if node.span.start.line == 0:
                continue
            node.span = self._map_span(node.span, line_map, new_starts)
        for seg in entry.template:
            if seg[0] == "lit" and seg[3] is not None:
                seg[3] = line_map[seg[3]]
                seg[4] = line_map[seg[4]]
        entry.lo = line_map[entry.lo]
        entry.hi = line_map[entry.hi]
        self._resig(entry)
        return True

    def _parse_entry_gap(self, lo: int, hi: int, new_lines: list[str],
                         new_starts: list[int]
                         ) -> Optional[list[_Entry]]:
        if lo > hi:
            return []
        text = "".join(new_lines[lo - 1:hi])
        try:
            lexer = Lexer(text, self.filename)
            toks = list(lexer.tokens())
            parser = Parser(text, self.filename, tokens=toks,
                            track_extents=True)
            parser.parse_program()
        except CeuError:
            return None
        comments = _comment_ranges(lexer)
        entries = [self._build_entry(stmt, s, e, toks, parser, comments)
                   for stmt, s, e in parser.toplevel_marks]
        if entries:
            self._struct_dirty = True
        for entry in entries:
            self._shift_entry(entry, lo - 1, new_starts[lo])
            self.stats["entries_reparsed"] += 1
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
            # pure-shift edit: same statement objects in the same order,
            # so nids, the walk list and every binder table still hold
            # (spans were rebased in place)
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

        tight_loops = self._bounded_over_regions(bound, report)
        liveness_pass(bound, report, nodes=nodes)
        if tight_loops:
            return report

        flat_raw = tuple(v for r in self._regions for v in r.raw)
        flat_masked = tuple(v for r in self._regions for v in r.masked)
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

    def _bounded_over_regions(self, bound, report: Report) -> int:
        """Replicates ``analyze_bounded``'s top-level block walk over the
        per-region memos, byte-identically: same diagnostics, in the
        same order, same tight-loop count."""
        entries: list[tuple] = []      # (stmt, outcomes, diags, tight)
        env: list[tuple] = []
        for region in self._regions:
            cur_env = tuple(env)
            if region.bounded is None or region.env_sig != cur_env:
                memo = []
                for stmt in region.stmts:
                    scratch = Report(filename=self.filename)
                    sink = _CollectingSink(scratch)
                    out = statement_outcomes(stmt, bound, sink)
                    memo.append((out, scratch.diagnostics,
                                 sink.tight_loops))
                region.bounded = memo
                region.env_sig = cur_env
                self.stats["bounded_misses"] += 1
            else:
                self.stats["bounded_hits"] += 1
            for stmt, entry in zip(region.stmts, region.bounded):
                entries.append((stmt, *entry))
            env.extend(region.exports)

        sink = _CollectingSink(report)
        tight_total = 0
        acc = frozenset({CZ})
        cut = False
        for i, (stmt, out, diags, tight) in enumerate(entries):
            for diag in diags:
                report.diagnostics.append(_copy_diag(diag))
            tight_total += tight
            if cut:
                continue
            acc = seq_outcomes(acc, out)
            if not acc & COMPLETIONS:
                rest = [e[0] for e in entries[i + 1:]]
                if rest:
                    sink.unreachable(rest[0], len(rest))
                cut = True
        report.stages.append("bounded")
        return tight_total + sink.tight_loops

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
        masked-equal streams may have changed array sizes, so the
        layouts and per-trail attribution recompute from the binder."""
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
        host = build_layout(bound, HOST)
        t16 = build_layout(bound, TARGET16)
        return ResourceBounds(
            max_trails=old.max_trails,
            max_armed_timers=old.max_armed_timers,
            max_async_jobs=old.max_async_jobs,
            max_internal_emits=old.max_internal_emits,
            mem_slots=len(bound.variables),
            mem_bytes_host=host.total,
            mem_bytes_target16=t16.total,
            dfa_states=old.dfa_states,
            dfa_transitions=old.dfa_transitions,
            per_trail=compute_trail_bounds(bound, host, t16))

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
