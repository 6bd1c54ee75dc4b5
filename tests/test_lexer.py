"""Lexer unit tests: identifier classes, TIME literals, C blocks, errors."""

import bisect
import random
import re
import sys
from pathlib import Path

import pytest

from repro.fuzz.gen import PROFILES, generate_case
from repro.lang.errors import LexError
from repro.lang.lexer import Lexer, tokenize
from repro.lang.time_units import TimeLiteral, from_components, us_to_text
from repro.lang.tokens import TokKind


def kinds(src):
    return [t.kind for t in tokenize(src)][:-1]  # drop EOF


def texts(src):
    return [t.text for t in tokenize(src)][:-1]


class TestIdentifierClasses:
    def test_external_event_uppercase(self):
        (tok,) = tokenize("Restart")[:-1]
        assert tok.kind is TokKind.ID_EXT

    def test_internal_lowercase(self):
        (tok,) = tokenize("changed")[:-1]
        assert tok.kind is TokKind.ID_INT

    def test_c_symbol_underscore(self):
        (tok,) = tokenize("_printf")[:-1]
        assert tok.kind is TokKind.ID_C

    def test_keywords_not_identifiers(self):
        toks = tokenize("loop do await emit end")[:-1]
        assert all(t.kind is TokKind.KEYWORD for t in toks)

    def test_par_composites(self):
        assert texts("par par/or par/and") == ["par", "par/or", "par/and"]
        assert all(k is TokKind.KEYWORD for k in kinds("par par/or par/and"))

    def test_par_slash_other_not_composite(self):
        toks = tokenize("par / x")[:-1]
        assert [t.text for t in toks] == ["par", "/", "x"]

    def test_c_is_event_when_not_block(self):
        # fig. 1 declares an input event named C
        toks = tokenize("input void A, B, C;")[:-1]
        assert toks[-2].kind is TokKind.ID_EXT
        assert toks[-2].text == "C"


class TestNumbers:
    def test_decimal(self):
        assert tokenize("42")[0].value == 42

    def test_hex(self):
        assert tokenize("0x1F")[0].value == 31

    def test_char_literal_is_num(self):
        tok = tokenize("'#'")[0]
        assert tok.kind is TokKind.NUM
        assert tok.value == ord("#")

    def test_char_escapes(self):
        assert tokenize(r"'\n'")[0].value == ord("\n")

    def test_bad_char_literal(self):
        with pytest.raises(LexError):
            tokenize("'ab'")

    @pytest.mark.parametrize("src", ["int x = 1²;", "int x = ٣;"])
    def test_only_ascii_digits(self, src):
        """``str.isdigit`` accepts ``²`` and ``٣``; the lexer must stop
        the number there and refuse the character, not hand ``1²`` to
        ``int``."""
        bad = next(ch for ch in src if ord(ch) > 127)
        with pytest.raises(LexError, match="unexpected character") as err:
            tokenize(src)
        assert err.value.span.start.col == src.index(bad) + 1

    def test_only_ascii_digits_inside_time_literal(self):
        with pytest.raises(LexError, match="lacks a unit"):
            tokenize("await 1h3²min;")


class TestTimeLiterals:
    @pytest.mark.parametrize("src,us", [
        ("1us", 1),
        ("1ms", 1_000),
        ("1s", 1_000_000),
        ("1min", 60_000_000),
        ("1h", 3_600_000_000),
        ("500ms", 500_000),
        ("1h35min", 5_700_000_000),
        ("1min30s", 90_000_000),
        ("2s500ms", 2_500_000),
        ("1h2min3s4ms5us", 3_723_004_005),
    ])
    def test_values(self, src, us):
        tok = tokenize(src)[0]
        assert tok.kind is TokKind.TIME
        assert tok.value.us == us

    def test_units_must_descend(self):
        with pytest.raises(LexError):
            tokenize("1ms2s")

    def test_number_without_unit_inside_literal(self):
        with pytest.raises(LexError):
            tokenize("1h35")

    def test_time_not_greedy_over_identifiers(self):
        toks = tokenize("10units")
        # `10units` is not `10us` — suffix followed by alpha chars
        assert toks[0].kind is TokKind.NUM
        assert toks[1].text == "units"

    def test_round_trip_text(self):
        assert us_to_text(5_700_000_000) == "1h35min"
        assert us_to_text(0) == "0us"
        assert us_to_text(1_001) == "1ms1us"

    def test_components_preserved(self):
        lit = from_components([("h", 1), ("min", 35)])
        assert str(lit) == "1h35min"
        assert isinstance(lit, TimeLiteral)


class TestStrings:
    def test_string_value(self):
        assert tokenize('"hi"')[0].value == "hi"

    def test_string_escapes(self):
        assert tokenize(r'"a\nb\t\"q\""')[0].value == 'a\nb\t"q"'

    def test_unterminated(self):
        with pytest.raises(LexError):
            tokenize('"oops')

    def test_newline_in_string(self):
        with pytest.raises(LexError):
            tokenize('"a\nb"')


class TestCBlocks:
    def test_c_block_captures_verbatim(self):
        src = "C do\n#include <assert.h>\nint I = 0;\nend"
        tok = tokenize(src)[0]
        assert tok.kind is TokKind.C_CODE
        assert "#include <assert.h>" in tok.value
        assert "end" not in tok.value

    def test_c_block_end_in_string_ignored(self):
        src = 'C do char* s = "end"; int x; end'
        tok = tokenize(src)[0]
        assert '"end"' in tok.value

    def test_c_block_end_in_comment_ignored(self):
        src = "C do /* end */ int x; end"
        tok = tokenize(src)[0]
        assert "/* end */" in tok.value

    def test_c_block_identifier_containing_end(self):
        src = "C do int end_x = 3; int x_end = 4; end"
        tok = tokenize(src)[0]
        assert "end_x" in tok.value and "x_end" in tok.value

    def test_unterminated_c_block(self):
        with pytest.raises(LexError):
            tokenize("C do int x;")


class TestComments:
    def test_line_comment(self):
        assert kinds("1 // two\n3") == [TokKind.NUM, TokKind.NUM]

    def test_block_comment(self):
        assert kinds("1 /* 2 \n 2b */ 3") == [TokKind.NUM, TokKind.NUM]

    def test_unterminated_block_comment(self):
        with pytest.raises(LexError):
            tokenize("1 /* oops")


class TestSymbols:
    def test_maximal_munch(self):
        assert texts("a<<b <= == != && || ->") == \
            ["a", "<<", "b", "<=", "==", "!=", "&&", "||", "->"]

    def test_positions(self):
        toks = tokenize("a\n  b")
        assert toks[0].span.start.line == 1
        assert toks[1].span.start.line == 2
        assert toks[1].span.start.col == 3

    def test_unexpected_character(self):
        with pytest.raises(LexError):
            tokenize("a $ b")


# ------------------------------------------------------------ invariants
ROOT = Path(__file__).parent.parent
#: snippets the byte mutator splices in, so mutants reach every scanner
SNIPPETS = [b"/*", b"*/", b"/* c */", b"/*\n x\n*/", b"//", b"\n", b"\r\n",
            b"\t", b'"', b"'", b"\\", b"C do x; end", b"0x", b"1h35min",
            b"par/", b"par/or", b"_", b"->", b"<<", "\u00b2".encode(),
            "\u00e9".encode(), b"$"]


def _mutant(rng: random.Random, data: bytes) -> str:
    """Truncate, flip a bit, overwrite 1-15 bytes or splice a snippet;
    decode as Latin-1 or as UTF-8 with replacement characters."""
    out = bytearray(data)
    op = rng.randrange(4)
    if op == 0:
        del out[rng.randrange(len(out) + 1):]
    elif op == 1 and out:
        out[rng.randrange(len(out))] ^= 1 << rng.randrange(8)
    elif op == 2:
        n = rng.randint(1, 15)
        at = rng.randrange(max(1, len(out) - n + 1))
        out[at:at + n] = bytes(rng.randrange(256) for _ in range(n))
    else:
        at = rng.randrange(len(out) + 1)
        out[at:at] = rng.choice(SNIPPETS)
    return bytes(out).decode(rng.choice(("latin-1", "utf-8")), "replace")


def _lexer_inputs() -> list[str]:
    sources = [p.read_text() for d in ("tests/corpus", "examples/ceu",
                                       "src/repro/apps/ceu")
               for p in sorted((ROOT / d).glob("*.ceu"))]
    sources += [generate_case(seed, PROFILES[name], name).src
                for seed, name in enumerate(sorted(PROFILES) * 6)]
    rng = random.Random(18)
    mutants = [_mutant(rng, rng.choice(sources).encode())
               for _ in range(600)]
    return sources + mutants


#: inputs that end inside a scanner: an unterminated comment in a ``C do``
#: body, and a trailing escape in a C string and in a Céu string
PAST_THE_END = ["C do /*", 'C do "a\\', '"ab\\']


def test_spans_match_offsets_on_every_input():
    """Every repo program, fuzz programs, byte mutants of both and inputs
    that end inside a scanner either tokenize or raise LexError.  Outside
    ``C do`` bodies a token's text is the source between its offsets.
    The span of every such token and of every LexError ends inside the
    source, and its lines and columns are a recount of its offsets."""
    for src in _lexer_inputs() + PAST_THE_END:
        starts = [0] + [i + 1 for i, ch in enumerate(src) if ch == "\n"]

        def at(offset: int) -> tuple[int, int]:
            line = bisect.bisect_right(starts, offset)
            return line, offset - starts[line - 1] + 1

        spans = []
        try:
            for tok in Lexer(src, "f.ceu").tokens():
                if tok.kind is not TokKind.C_CODE:
                    start, end = tok.span.start, tok.span.end
                    assert src[start.offset:end.offset] == tok.text
                    spans.append(tok.span)
        except LexError as err:
            spans.append(err.span)
        for span in spans:
            start, end = span.start, span.end
            assert start.offset <= end.offset <= len(src), (src, span)
            assert (start.line, start.col) == at(start.offset)
            assert (end.line, end.col) == at(end.offset)


def test_word_class_is_isalnum_or_underscore():
    """The lexer matches identifier tails with ``\\w``; for ``str``
    patterns that is exactly ``str.isalnum()`` or ``_``."""
    word = re.compile(r"\w")
    assert [ch for ch in map(chr, range(sys.maxunicode + 1))
            if bool(word.match(ch)) != (ch.isalnum() or ch == "_")] == []
