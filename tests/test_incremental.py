"""The incremental analysis engine (docs/ANALYSIS.md §Incremental).

The headline property: for *any* edit sequence, ``IncrementalAnalyzer
.analyze()`` output is byte-identical to a cold ``run_analysis`` over
the same source — the cache layers (region splicing, entry-tree damage
recovery, bounded memos, DFA replay) are pure optimisations.  The
random-walk test drives 200 edits through one analyzer instance and
asserts both the identity and that the caches actually hit.
"""

import random
from pathlib import Path

import pytest

from repro.analysis import IncrementalAnalyzer, run_analysis

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


# ------------------------------------------------------------- random walk
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
        line = lines[pos]
        if any(ch.isdigit() for ch in line):
            lines[pos] = "".join(
                str((int(ch) + 1) % 10) if ch.isdigit() else ch
                for ch in line)
        else:
            lines[pos] = line.rstrip("\n") + " // x\n"
    else:
        pos = rng.randrange(len(lines)) if lines else 0
        if lines:
            lines.insert(pos, lines[pos])
    return lines


def test_random_edit_walk_byte_identical():
    """200 random edits through one analyzer: every report byte-identical
    to a cold run, and the caches provably did work."""
    rng = random.Random(20110214)              # PPoPP'11 ;)
    base = (EXAMPLES / "counter.ceu").read_text()
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
    assert stats["bounded_hits"] > 0
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
