"""Bounded-execution analysis (§2.5): the paper's five examples, the
outcome-lattice corners, and a digest of every finding on the repo's
programs and their await-mutants."""

import hashlib
import re
from collections import Counter
from pathlib import Path

import pytest

from repro.analysis.diagnostics import Report
from repro.analysis.passes import bounded_pass
from repro.lang import parse
from repro.lang.ast import renumber
from repro.lang.errors import BindError, BoundedError
from repro.sema import bind, check_bounded

ROOT = Path(__file__).parent.parent

#: the repo's programs, under the names ``repro lint`` gives them
LINT_DIRS = (("examples/ceu", "examples/ceu/"), ("tests/corpus", "corpus/"),
             ("src/repro/apps/ceu", "apps/ceu/"))

#: an ``await ...;`` statement, or the value of an assignment
AWAIT = re.compile(r"\bawait\b[^;]*;")

#: SHA-256 over the ``bounded_pass`` report of every program below
BOUNDED_DIGEST = (
    "cca3f5a1b1d9c30ae681abbe706f019f24bc153c156ad6468c9ed22c301d3cb6")


def ok(src: str) -> None:
    check_bounded(bind(parse(src)))


def refuse(src: str) -> None:
    with pytest.raises(BoundedError):
        check_bounded(bind(parse(src)))


class TestPaperExamples:
    def test_ex1_tight_loop_refused(self):
        refuse("int v;\nloop do\nv = v + 1;\nend")

    def test_ex2_if_without_awaiting_else_refused(self):
        refuse("input void A;\nint v;\nloop do\nif v then\nawait A;"
               "\nend\nend")

    def test_ex3_par_or_with_instant_branch_refused(self):
        refuse("input void A;\nint v;\nloop do\npar/or do\nawait A;"
               "\nwith\nv = 1;\nend\nend")

    def test_ex4_await_accepted(self):
        ok("input void A;\nloop do\nawait A;\nend")

    def test_ex5_par_and_accepted(self):
        ok("input void A;\nint v;\nloop do\npar/and do\nawait A;"
           "\nwith\nv = 1;\nend\nend")


class TestAwaitForms:
    def test_time_await_counts(self):
        ok("loop do\nawait 1s;\nend")

    def test_computed_timeout_counts(self):
        ok("int dt = 5;\nloop do\nawait (dt * 1000);\nend")

    def test_internal_await_counts(self):
        ok("internal void e;\nloop do\nawait e;\nend")

    def test_await_forever_never_completes(self):
        # the loop body can never complete, which is fine
        ok("loop do\nawait forever;\nend")

    def test_setexp_await_counts(self):
        ok("input int X;\nint v;\nloop do\nv = await X;\nend")

    def test_decl_await_counts(self):
        ok("input int X;\nloop do\nint v = await X;\nend")


class TestBreakAndReturn:
    def test_break_makes_loop_bounded(self):
        ok("int v;\nloop do\nv = 1;\nbreak;\nend")

    def test_conditional_break_both_paths_covered(self):
        ok("input void A;\nint c;\nloop do\nif c then\nbreak;"
           "\nelse\nawait A;\nend\nend")

    def test_conditional_break_with_zero_path_refused(self):
        refuse("int c;\nloop do\nif c then\nbreak;\nend\nend")

    def test_return_escapes(self):
        ok("int v;\nloop do\nreturn 1;\nend")

    def test_break_through_nested_if(self):
        ok("int a, b;\nloop do\nif a then\nif b then\nbreak;\nelse"
           "\nbreak;\nend\nelse\nbreak;\nend\nend")

    def test_inner_loop_breaking_is_still_zero_time(self):
        # inner loop exits via break without awaiting → outer is tight
        refuse("""
        int v;
        loop do
           loop do
              v = 1;
              break;
           end
        end
        """)

    def test_inner_loop_awaiting_before_break_bounds_outer(self):
        ok("""
        input void A;
        loop do
           loop do
              await A;
              break;
           end
        end
        """)


class TestParallelCompositions:
    def test_plain_par_never_rejoins(self):
        # the loop can never iterate: accepted
        ok("input void A;\nloop do\npar do\nawait A;\nwith\nawait A;"
           "\nend\nend")

    def test_par_and_all_instant_refused(self):
        refuse("int a, b;\nloop do\npar/and do\na = 1;\nwith\nb = 2;"
               "\nend\nend")

    def test_par_or_all_awaiting_accepted(self):
        ok("input void A, B;\nloop do\npar/or do\nawait A;\nwith"
           "\nawait B;\nend\nend")

    def test_nested_par_or_instant_leak_refused(self):
        refuse("""
        input void A;
        loop do
           par/or do
              await A;
           with
              par/or do
                 await A;
              with
                 nothing;
              end
           end
        end
        """)

    def test_value_par_with_returns_accepted(self):
        ok("""
        input void A, B;
        int v;
        loop do
           v = par do
              await A;
              return 1;
           with
              await B;
              return 0;
           end;
        end
        """)


class TestAsyncExemption:
    def test_unbounded_loop_inside_async_accepted(self):
        ok("""
        int r;
        r = async do
           int i = 0;
           loop do
              i = i + 1;
              if i == 100 then
                 break;
              end
           end
           return i;
        end;
        """)

    def test_async_counts_as_awaiting(self):
        ok("loop do\nasync do\nint i = 0;\ni = 1;\nend\nend")

    def test_loop_after_unreachable_code_still_checked(self):
        refuse("""
        input void A;
        await forever;
        loop do
           nothing;
        end
        """)


class TestValueBoundaries:
    def test_do_value_with_instant_return(self):
        refuse("int v;\nloop do\nv = do\nreturn 1;\nend;\nend")

    def test_do_value_with_awaiting_return(self):
        ok("input void A;\nint v;\nloop do\nv = do\nawait A;\nreturn 1;"
           "\nend;\nend")


def _bound_texts():
    """The repo's programs that bind (22 of 23), each followed by its
    await-mutants: every ``await ...;`` statement replaced by
    ``nothing;`` and by ``await forever;``.  The programs themselves
    have no §2.5 finding; the mutants tighten loops, cut blocks short
    and keep parallels from rejoining."""
    for rel, prefix in LINT_DIRS:
        for path in sorted((ROOT / rel).glob("*.ceu")):
            filename, src = prefix + path.name, path.read_text()
            try:
                yield filename, _bound(src, filename)
            except BindError:
                continue               # mario_game.ceu
            for match in AWAIT.finditer(src):
                if src[:match.start()].rstrip().endswith("="):
                    continue           # `v = await X;` awaits a value
                for stmt in ("nothing;", "await forever;"):
                    yield filename, _bound(src[:match.start()] + stmt
                                           + src[match.end():], filename)


def _bound(text: str, filename: str):
    program = parse(text, filename)
    renumber(program)
    return bind(program)


def test_await_mutants_are_pinned():
    """Every finding of the §2.5 walk, its emission order and the
    tight-loop count, on 636 texts, are byte-identical to the digest
    minted for them."""
    digest = hashlib.sha256()
    codes: Counter = Counter()
    texts = 0
    for filename, bound in _bound_texts():
        report = Report(filename=filename)
        tight = bounded_pass(bound, report)
        emitted = [diag.code for diag in report.diagnostics]
        digest.update(repr((tight, emitted)).encode())
        digest.update(report.to_json().encode())
        codes.update(emitted)
        texts += 1
    assert texts == 636
    assert codes == {"CEU-E101": 50, "CEU-W301": 391, "CEU-W304": 136}
    assert digest.hexdigest() == BOUNDED_DIGEST
