"""Hand-written maximal-munch lexer for Céu.

Peculiarities relative to a generic C-family lexer:

* identifiers are classified by their first character (Appendix A):
  uppercase → external event, lowercase → variable / internal event,
  underscore → C symbol;
* TIME literals (``1h35min``, ``500ms``) are a single token; unit suffixes
  must appear in the grammar's fixed order with no interior whitespace;
* ``par/or`` and ``par/and`` are composite keywords;
* ``C do ... end`` captures its body verbatim as a single ``C_CODE`` token
  (the body is passed through to the C compiler untouched, §2.4);
* character literals are NUM tokens carrying the character code, matching
  C semantics (the demos compare against ``'#'`` etc.).
"""

from __future__ import annotations

from typing import Iterator

from . import time_units
from .errors import LexError, SourcePos, SourceSpan
from .tokens import KEYWORDS, SYMBOLS, TokKind, Token

_ESCAPES = {
    "n": "\n", "t": "\t", "r": "\r", "0": "\0", "\\": "\\",
    "'": "'", '"': '"', "a": "\a", "b": "\b", "f": "\f", "v": "\v",
}
#: decimal digits: ASCII only (``str.isdigit`` also accepts ``²`` and
#: other Unicode digits that ``int`` then refuses or reinterprets)
_DIGITS = frozenset("0123456789")


class Lexer:
    """Tokenises one source buffer; use :func:`tokenize` for convenience."""

    def __init__(self, src: str, filename: str = "<ceu>"):
        self.src = src
        self.filename = filename
        self.pos = 0
        self.line = 1
        self.col = 1
        #: spans of ``/* ... */`` comments, recorded as they are skipped.
        #: The incremental analyzer uses the multi-line ones to keep
        #: region extents from splitting a comment in half.  (The ``C do``
        #: lookahead re-scans trivia after a position restore, so the list
        #: may contain duplicates — consumers treat it as a set.)
        self.comments: list[SourceSpan] = []

    # ----------------------------------------------------------- plumbing
    def _peek(self, ahead: int = 0) -> str:
        i = self.pos + ahead
        return self.src[i] if i < len(self.src) else ""

    def _advance(self, n: int = 1) -> str:
        text = self.src[self.pos:self.pos + n]
        for ch in text:
            if ch == "\n":
                self.line += 1
                self.col = 1
            else:
                self.col += 1
        self.pos += n
        return text

    def _pos(self) -> SourcePos:
        return SourcePos(self.line, self.col, self.pos)

    def _span(self, start: SourcePos) -> SourceSpan:
        return SourceSpan(start, self._pos(), self.filename)

    def _error(self, msg: str) -> LexError:
        return LexError(msg, SourceSpan.point(self.line, self.col,
                                              self.pos, self.filename))

    # ------------------------------------------------------------ skipping
    def _skip_trivia(self) -> None:
        while self.pos < len(self.src):
            ch = self._peek()
            if ch in " \t\r\n":
                self._advance()
            elif ch == "/" and self._peek(1) == "/":
                while self.pos < len(self.src) and self._peek() != "\n":
                    self._advance()
            elif ch == "/" and self._peek(1) == "*":
                start = self._pos()
                self._advance(2)
                while self.pos < len(self.src):
                    if self._peek() == "*" and self._peek(1) == "/":
                        self._advance(2)
                        self.comments.append(self._span(start))
                        break
                    self._advance()
                else:
                    raise LexError("unterminated block comment",
                                   self._span(start))
            else:
                return

    # ------------------------------------------------------------ scanners
    def _scan_number_or_time(self) -> Token:
        start = self._pos()
        value = self._scan_int()
        # A number immediately followed by a unit suffix begins a TIME
        # literal; keep consuming NUM+unit pairs in grammar order.
        unit = self._peek_time_unit()
        if unit is None:
            return Token(TokKind.NUM, self.src[start.offset:self.pos],
                         self._span(start), value)
        pairs: list[tuple[str, int]] = []
        order = list(time_units.UNIT_ORDER)
        count = value
        while True:
            if unit not in order:
                raise self._error(
                    f"time units out of order near {unit!r} "
                    f"(expected one of {order})")
            # units must strictly descend: drop this unit and the ones
            # before it from the allowed set.
            order = order[order.index(unit) + 1:]
            pairs.append((unit, count))
            self._advance(len(unit))
            if self._peek() not in _DIGITS:
                break
            count = self._scan_int()
            unit = self._peek_time_unit()
            if unit is None:
                raise self._error("number inside TIME literal lacks a unit")
        lit = time_units.from_components(pairs)
        return Token(TokKind.TIME, self.src[start.offset:self.pos],
                     self._span(start), lit)

    def _peek_time_unit(self) -> str | None:
        # longest-match among the unit suffixes, but only when not followed
        # by more identifier characters (so `10units` is not `10 us` + ...).
        for unit in ("min", "ms", "us", "h", "s"):
            if self.src.startswith(unit, self.pos):
                nxt = self._peek(len(unit))
                if not (nxt.isalnum() or nxt == "_"):
                    return unit
                # `1h35min` — unit followed by a digit continues the literal
                if nxt in _DIGITS:
                    return unit
        return None

    def _scan_int(self) -> int:
        start = self.pos
        if self._peek() == "0" and self._peek(1) in ("x", "X"):
            self._advance(2)
            while (ch := self._peek()) and ch in "0123456789abcdefABCDEF":
                self._advance()
            if self.pos == start + 2:
                raise self._error("malformed hex literal")
            return int(self.src[start:self.pos], 16)
        while self._peek() in _DIGITS:
            self._advance()
        return int(self.src[start:self.pos])

    def _scan_string(self) -> Token:
        start = self._pos()
        quote = self._advance()
        chars: list[str] = []
        while True:
            if self.pos >= len(self.src):
                raise LexError("unterminated string literal",
                               self._span(start))
            ch = self._advance()
            if ch == quote:
                break
            if ch == "\\":
                esc = self._advance()
                chars.append(_ESCAPES.get(esc, esc))
            elif ch == "\n":
                raise LexError("newline in string literal", self._span(start))
            else:
                chars.append(ch)
        text = "".join(chars)
        if quote == "'":
            if len(text) != 1:
                raise LexError("char literal must hold exactly one character",
                               self._span(start))
            return Token(TokKind.NUM, self.src[start.offset:self.pos],
                         self._span(start), ord(text))
        return Token(TokKind.STRING, self.src[start.offset:self.pos],
                     self._span(start), text)

    def _scan_word(self) -> Token:
        start = self._pos()
        while self._peek().isalnum() or self._peek() == "_":
            self._advance()
        word = self.src[start.offset:self.pos]
        if word == "par" and self._peek() == "/":
            # composite keywords par/or and par/and
            save = (self.pos, self.line, self.col)
            self._advance()
            tail_start = self.pos
            while self._peek().isalpha():
                self._advance()
            tail = self.src[tail_start:self.pos]
            if tail in ("or", "and"):
                word = f"par/{tail}"
            else:
                self.pos, self.line, self.col = save
        if word in KEYWORDS:
            if word == "C":
                # `C` introduces a C block only when followed by `do`;
                # otherwise it is an ordinary external identifier (fig. 1
                # of the paper uses an input event named `C`).
                save = (self.pos, self.line, self.col)
                self._skip_trivia()
                is_block = (self.src.startswith("do", self.pos)
                            and not (self._peek(2).isalnum()
                                     or self._peek(2) == "_"))
                self.pos, self.line, self.col = save
                if is_block:
                    return self._scan_c_block(start)
                return Token(TokKind.ID_EXT, word, self._span(start))
            return Token(TokKind.KEYWORD, word, self._span(start))
        if word[0] == "_":
            kind = TokKind.ID_C
        elif word[0].isupper():
            kind = TokKind.ID_EXT
        else:
            kind = TokKind.ID_INT
        return Token(kind, word, self._span(start))

    def _scan_c_block(self, start: SourcePos) -> Token:
        """``C do <raw C code> end`` — capture the body verbatim.

        The terminating ``end`` is found at word boundaries outside C
        strings, chars and comments (the pragmatic rule the real compiler
        also relies on: C code rarely contains a bare identifier ``end``).
        """
        self._skip_trivia()
        kw = self._pos()
        if not self.src.startswith("do", self.pos):
            raise LexError("expected `do` after `C`", self._span(kw))
        self._advance(2)
        body_start = self.pos
        while self.pos < len(self.src):
            ch = self._peek()
            if ch in "\"'":
                self._skip_c_string(ch)
            elif ch == "/" and self._peek(1) == "/":
                while self.pos < len(self.src) and self._peek() != "\n":
                    self._advance()
            elif ch == "/" and self._peek(1) == "*":
                self._advance(2)
                while self.pos < len(self.src) and not (
                        self._peek() == "*" and self._peek(1) == "/"):
                    self._advance()
                self._advance(2)
            elif (self.src.startswith("end", self.pos)
                  and not (self.pos > 0 and (self.src[self.pos - 1].isalnum()
                                             or self.src[self.pos - 1] == "_"))
                  and not (self._peek(3).isalnum() or self._peek(3) == "_")):
                body = self.src[body_start:self.pos]
                self._advance(3)
                return Token(TokKind.C_CODE, body, self._span(start), body)
            else:
                self._advance()
        raise LexError("unterminated `C do ... end` block",
                       SourceSpan(start, self._pos(), self.filename))

    def _skip_c_string(self, quote: str) -> None:
        self._advance()
        while self.pos < len(self.src):
            ch = self._advance()
            if ch == "\\":
                self._advance()
            elif ch == quote:
                return

    def _scan_symbol(self) -> Token:
        start = self._pos()
        for sym in SYMBOLS:
            if self.src.startswith(sym, self.pos):
                self._advance(len(sym))
                return Token(TokKind.SYM, sym, self._span(start))
        raise self._error(f"unexpected character {self._peek()!r}")

    # ---------------------------------------------------------------- API
    def tokens(self) -> Iterator[Token]:
        while True:
            self._skip_trivia()
            if self.pos >= len(self.src):
                yield Token(TokKind.EOF, "",
                            SourceSpan.point(self.line, self.col, self.pos,
                                             self.filename))
                return
            ch = self._peek()
            if ch in _DIGITS:
                yield self._scan_number_or_time()
            elif ch in "\"'":
                yield self._scan_string()
            elif ch.isalpha() or ch == "_":
                yield self._scan_word()
            else:
                yield self._scan_symbol()


def tokenize(src: str, filename: str = "<ceu>") -> list[Token]:
    """Tokenise ``src`` to a list ending in an EOF token."""
    return list(Lexer(src, filename).tokens())
