"""The incremental analysis engine (docs/ANALYSIS.md §Incremental).

The headline property: for *any* edit sequence, ``IncrementalAnalyzer
.analyze()`` output is byte-identical to a cold ``run_analysis`` over
the same source — the cache layers (statement-tree repair, bounded
memos, DFA replay) are pure optimisations.  The random-walk test drives
200 edits through one analyzer instance, from a program with one
statement per line and from one whose statements share lines, and
asserts both the identity and that the caches actually hit.
"""

import json
import random
from pathlib import Path

import pytest

from repro.analysis import IncrementalAnalyzer, run_analysis
from repro.cli import main
from repro.lang import ast

CORPUS = Path(__file__).parent / "corpus"
EXAMPLES = Path(__file__).parent.parent / "examples" / "ceu"

COUNTER = """\
input int Restart;
internal void changed;
int v = 0;
par do
   loop do
      await 1s;
      v = v + 1;
      emit changed;
   end
with
   loop do
      v = await Restart;
      emit changed;
   end
end
"""


#: statements that share lines, at the top level and inside a ``loop``:
#: two declarations on line 2, two joined by a block comment on lines 3-4,
#: three statements on line 7; the second ``loop`` shares its first line
#: with the ``par``'s ``with`` and its last with the ``par``'s ``end``
GROUPED = """\
input int Restart;
internal void changed; int v = 0;
int w = 0; /* a block comment
   joining two statements */ int u = 5;
par do
   loop do
      await 1s; v = v + 1; emit changed;
      w = w + 1;
      u = u - 1;
   end
with loop do
      v = await Restart;
      emit changed; end end
"""

#: the characters besides ``\n`` that ``str.splitlines`` cuts at; the
#: lexer reads them as blanks or comment text
SEPARATORS = ["\r", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x85",
              "\u2028", "\u2029"]

RACY = """\
input void A;
int x = 0;
par/and do
    x = 1;
    await A;
    x = 3;
with
    await A;
    x = 2;
end
"""


def cold(source: str, filename: str = "<ceu>") -> str:
    return run_analysis(source, filename=filename).to_json()


def check(analyzer: IncrementalAnalyzer, source: str) -> None:
    assert analyzer.analyze(source).to_json() == cold(
        source, analyzer.filename)


# ---------------------------------------------------------------- identity
def test_cold_run_matches_batch():
    an = IncrementalAnalyzer()
    check(an, COUNTER)
    assert an.stats["full_runs"] == 1


def test_comment_edit_replays_dfa_and_reuses_binder():
    an = IncrementalAnalyzer()
    check(an, COUNTER)
    lines = COUNTER.splitlines(keepends=True)
    edited = "".join(lines[:3] + ["// a comment\n"] + lines[3:])
    check(an, edited)
    assert an.stats["full_runs"] == 1          # no cold rerun
    assert an.stats["dfa_replays"] == 1        # token stream unchanged
    assert an.stats["bind_reuses"] == 1        # structure unchanged
    assert an.stats["bounds_replays"] == 1


def test_literal_edit_is_contained():
    an = IncrementalAnalyzer()
    check(an, COUNTER)
    check(an, COUNTER.replace("int v = 0;", "int v = 7;"))
    assert an.stats["full_runs"] == 1
    assert an.stats["regions_reused"] >= 1     # the par survived


def test_literal_edit_leaves_its_bounds_in_the_memo(monkeypatch):
    """A literal edit replays the DFA but recomputes the bounds (array
    sizes are literals); those bounds and the edited text become the
    memo, so a later comment edit only rebases them."""
    from repro.analysis import incremental

    source = COUNTER.replace("int v = 0;\n", "int v = 0;\nint[4] keys;\n")
    bumped = source.replace("int[4]", "int[9]")
    lines = bumped.splitlines(keepends=True)
    commented = "".join(lines[:3] + ["// a comment\n"] + lines[3:])
    an = IncrementalAnalyzer()
    check(an, source)
    calls = []
    monkeypatch.setattr(incremental, "memory_bounds",
                        lambda bound, _real=incremental.memory_bounds:
                        calls.append(bound) or _real(bound))
    check(an, bumped)
    assert (an.stats["dfa_replays"], an.stats["bounds_replays"]) == (1, 1)
    assert len(calls) == 1
    report = an.analyze(commented)
    monkeypatch.undo()
    assert len(calls) == 1
    assert report.to_json() == cold(commented)
    assert (an.stats["dfa_replays"], an.stats["bounds_replays"]) == (2, 2)


def test_statement_edit_descends_into_compound():
    an = IncrementalAnalyzer()
    check(an, COUNTER)
    check(an, COUNTER.replace("v = v + 1;", "v = v + 2;"))
    assert an.stats["full_runs"] == 1
    assert an.stats["descents"] >= 1           # repaired inside the par
    assert an.stats["entries_reparsed"] >= 1


def test_parse_error_and_recovery():
    an = IncrementalAnalyzer()
    check(an, COUNTER)
    check(an, COUNTER + "loop do\n")           # unclosed: parse error
    check(an, COUNTER)                         # recovers cleanly


def test_bind_error_and_recovery():
    an = IncrementalAnalyzer()
    check(an, COUNTER)
    check(an, COUNTER.replace("v = v + 1;", "w = w + 1;"))
    assert an.last_bound is None
    check(an, COUNTER)
    assert an.last_bound is not None


def test_last_bound_exposed_for_lsp():
    an = IncrementalAnalyzer()
    an.analyze(COUNTER)
    bound = an.last_bound
    assert bound is not None
    assert any(sym.name == "v" for sym in bound.variables)


@pytest.mark.parametrize("sep", SEPARATORS,
                         ids=lambda ch: f"U+{ord(ch):04X}")
def test_lines_end_only_at_newline(sep, tmp_path, capsys):
    """The analyzer and ``lint --diff-base`` count lines as the lexer
    does, at ``\\n`` only: another separator in a comment on line 1
    neither moves an incremental report off the cold one nor makes
    ``--diff-base`` drop the finding on the changed line."""
    source = (CORPUS / "deep_005.ceu").read_text().replace(
        "\n", f" // form{sep}feed\n", 1)
    lines = source.split("\n")
    mid = len(lines) // 2
    an = IncrementalAnalyzer()
    check(an, source)
    check(an, "\n".join(lines[:mid] + ["// keystroke"] + lines[mid:]))
    assert an.stats["full_runs"] == 1

    # the conflict is anchored on the changed line, `x = 4`
    racy = f"// smoke{sep}feed\n{RACY}"
    base = tmp_path / "base.ceu"
    new = tmp_path / "new.ceu"
    base.write_text(racy, encoding="utf-8", newline="")
    new.write_text(racy.replace("x = 3", "x = 4"), encoding="utf-8",
                   newline="")
    assert main(["lint", str(new), "--diff-base", str(base),
                 "--format", "json"]) == 0
    found = json.loads(capsys.readouterr().out)["diagnostics"]
    assert [d["code"] for d in found] == ["CEU-E201"]

    # the CLI reads the file's characters as written: `feed` stays in
    # the comment, as it does for an editor's LSP session
    assert main(["lint", str(new), "--format", "json"]) == 0
    found = json.loads(capsys.readouterr().out)["diagnostics"]
    report = run_analysis(new.read_bytes().decode("utf-8"), str(new))
    assert [d["code"] for d in found] == [d.code for d in report.sorted()]


def test_grouped_statements_repair_in_place():
    """Statements that share lines are kept or re-parsed together at
    every level.  An edit elsewhere in the first ``loop``, whose line 7
    holds three statements, and a line added inside the second, which
    starts on the ``par``'s ``with`` line and ends on its ``end``, are
    both repaired inside their loop (the loop objects survive).
    Single-line edits anywhere never fall back to a cold run."""
    def loops():
        return [node for node in an.last_bound.program.walk()
                if isinstance(node, ast.Loop)]

    an = IncrementalAnalyzer()
    check(an, GROUPED)
    first, second = loops()
    check(an, GROUPED.replace("w = w + 1;", "w = w + 2;"))
    check(an, GROUPED.replace("await Restart;\n",
                              "await Restart;\n      u = 1;\n"))
    assert [id(loop) for loop in loops()] == [id(first), id(second)]
    rng = random.Random(19)
    lines = GROUPED.splitlines(keepends=True)
    for _ in range(60):
        edited = list(lines)
        pos = rng.randrange(len(lines))
        if rng.random() < 0.5:
            edited.insert(pos, "// edited\n")
        else:
            edited[pos] = _mutate(lines[pos])
        check(an, "".join(edited))
    assert (an.stats["full_runs"], an.stats["full_fallbacks"]) == (1, 0)


# ------------------------------------------------------------- random walk
def _mutate(line: str) -> str:
    """Bump every digit of a line, or comment the end of one without."""
    if any(ch.isdigit() for ch in line):
        return "".join(str((int(ch) + 1) % 10) if ch.isdigit() else ch
                       for ch in line)
    return line.rstrip("\n") + " // x\n"


def _random_edit(rng: random.Random, lines: list) -> list:
    """One line-granular edit: insert, delete, or mutate a line."""
    lines = list(lines)
    kind = rng.choice(("insert", "delete", "mutate", "dup"))
    if kind == "insert":
        pos = rng.randrange(len(lines) + 1)
        lines.insert(pos, rng.choice((
            "// edited\n", "int zz = 3;\n", "\n", "emit changed;\n")))
    elif kind == "delete" and lines:
        lines.pop(rng.randrange(len(lines)))
    elif kind == "mutate" and lines:
        pos = rng.randrange(len(lines))
        lines[pos] = _mutate(lines[pos])
    else:
        pos = rng.randrange(len(lines)) if lines else 0
        if lines:
            lines.insert(pos, lines[pos])
    return lines


@pytest.mark.parametrize("base", [
    (EXAMPLES / "counter.ceu").read_text(), GROUPED],
    ids=["counter", "grouped"])
def test_random_edit_walk_byte_identical(base):
    """200 random edits through one analyzer: every report byte-identical
    to a cold run, and the caches provably did work."""
    rng = random.Random(20110214)              # PPoPP'11 ;)
    an = IncrementalAnalyzer(filename="walk.ceu")
    check(an, base)
    lines = base.splitlines(keepends=True)
    for step in range(200):
        lines = _random_edit(rng, lines)
        source = "".join(lines)
        got = an.analyze(source).to_json()
        want = cold(source, "walk.ceu")
        assert got == want, f"diverged at step {step}"
        # occasionally jump back to a known-good base so the walk keeps
        # exercising the fast paths, not only error recovery
        if rng.random() < 0.15:
            lines = base.splitlines(keepends=True)
            source = "".join(lines)
            assert an.analyze(source).to_json() == cold(source, "walk.ceu")
    stats = an.stats
    assert stats["analyses"] >= 200
    # the point of the exercise: the caches must actually hit
    assert stats["regions_reused"] > 0
    assert stats["dfa_replays"] > 0
    assert stats["full_runs"] < stats["analyses"]


@pytest.mark.parametrize("path", sorted(CORPUS.glob("deep_*.ceu")))
def test_corpus_edit_identity(path):
    source = path.read_text()
    an = IncrementalAnalyzer(filename=str(path))
    check(an, source)
    lines = source.splitlines(keepends=True)
    mid = len(lines) // 2
    check(an, "".join(lines[:mid] + ["// keystroke\n"] + lines[mid:]))
    check(an, source)
    assert an.stats["full_fallbacks"] == 0
    assert an.stats["fast_path_errors"] == 0
    assert an.stats["full_runs"] == 1


def test_fast_path_bug_is_counted_apart_from_planned_fallbacks(
        monkeypatch):
    """A planned ``_Fallback`` and an unexpected exception both fall
    back to a cold run with identical output, but only the planned one
    counts as ``full_fallbacks``: a bug reads as ``fast_path_errors``."""
    from repro.analysis import incremental

    source = (CORPUS / "deep_005.ceu").read_text()
    edited = source + "// keystroke\n"
    for raised, stat in ((incremental._Fallback("planned"),
                          "full_fallbacks"),
                         (RuntimeError("injected"), "fast_path_errors")):
        an = IncrementalAnalyzer()
        an.analyze(source)

        def spliced(self, src, exc=raised):
            raise exc

        with monkeypatch.context() as m:
            m.setattr(IncrementalAnalyzer, "_analyze_spliced", spliced)
            report = an.analyze(edited)
        assert report.to_json() == run_analysis(edited).to_json()
        other = ({"full_fallbacks", "fast_path_errors"} - {stat}).pop()
        assert (an.stats[stat], an.stats[other]) == (1, 0)
        assert an.stats["full_runs"] == 2


# ------------------------------------------------------------- renumbering
def test_returned_report_keeps_its_positions_after_later_edits():
    """The analyzer renumbers the lines its kept statements sit on; a
    report it returned earlier points at lines of its own and keeps its
    JSON when later edits insert lines above its diagnostics."""
    an = IncrementalAnalyzer()
    cold_report = an.analyze(RACY)
    cold_json = cold_report.to_json()
    assert '"CEU-E201"' in cold_json
    spliced = an.analyze("// one\n" + RACY)
    spliced_json = spliced.to_json()
    check(an, "// one\n// two\n" + RACY)
    assert an.stats["full_runs"] == 1
    assert cold_report.to_json() == cold_json
    assert spliced.to_json() == spliced_json
    assert spliced_json == cold("// one\n" + RACY)


def test_gap_between_kept_groups_is_byte_identical():
    """A statement re-parsed in a gap that grows by a line, between two
    kept groups: the gap's lines are moved by its start, the group below
    is renumbered by one more line."""
    source = "int y = 1;\n" + RACY.replace("int x = 0;\n",
                                          "int x = 0;\nint z = 2;\n")
    edited = source.replace("int z = 2;\n", "int z = 3;\nint w = 4;\n")
    an = IncrementalAnalyzer()
    check(an, source)
    reused = an.stats["regions_reused"]
    check(an, edited)
    assert an.stats["full_runs"] == 1
    assert an.stats["regions_reparsed"] == 2        # `int z`, `int w`
    assert an.stats["regions_reused"] - reused == 4  # 2 above, 2 below


def test_descended_par_whose_frame_lines_move_apart():
    """Lines added inside both branches of a ``par/and``: its first line
    stays, ``with`` moves by one and ``end`` by two, while the kept
    statements of each branch move with them."""
    edited = (RACY.replace("    x = 1;\n", "    x = 1;\n    // one\n")
              .replace("    x = 2;\n", "    // two\n    x = 2;\n"))
    an = IncrementalAnalyzer()
    check(an, RACY)
    check(an, edited)
    assert an.stats["full_runs"] == 1
    assert an.stats["regions_recovered"] == 1
    check(an, RACY)
    assert an.stats["full_runs"] == 1


def test_line_inserted_inside_a_frame_is_not_skipped():
    """A compound statement is descended into only when each piece of
    its frame moved as one: a header that spans two lines, or a block
    comment that closes on the ``loop`` line, must not have a line
    slipped between its lines that no child block's window covers."""
    header = "int a = 1, b = 2;\nif a &&\n   b then\n  a = 3;\nend\n"
    comment = ("int a = 1;\n/* a\nb */ loop do\n  a = a + 1;\n"
               "  await 1s;\nend\n")
    for source, edited in (
            (header, header.replace("if a &&\n", "if a &&\nzz = 5;\n")),
            (comment, comment.replace("/* a\n", "/* a\n*/ zz = 9; /*\n"))):
        an = IncrementalAnalyzer()
        check(an, source)
        check(an, edited)
        assert '"CEU-E00' in an.analyze(edited).to_json()
