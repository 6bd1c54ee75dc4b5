"""Token definitions for the Céu lexer (grammar of Appendix A)."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any

from .errors import SourceSpan


class TokKind(enum.Enum):
    KEYWORD = "keyword"       # reserved words, including par/or and par/and
    ID_EXT = "id_ext"         # begins with an uppercase letter (external event)
    ID_INT = "id_int"         # begins with a lowercase letter (var / internal event)
    ID_C = "id_c"             # begins with an underscore (C symbol)
    NUM = "num"               # integer literal (decimal / hex / char)
    STRING = "string"         # C string literal
    TIME = "time"             # wall-clock literal, e.g. 1h35min, 500ms
    SYM = "sym"               # operator / punctuation
    C_CODE = "c_code"         # raw body of a `C do ... end` block
    EOF = "eof"


#: Reserved words.  ``par/or`` and ``par/and`` are produced as single
#: composite keywords by the lexer so the parser never has to reassemble
#: them from three tokens.
KEYWORDS: frozenset[str] = frozenset({
    "input", "internal", "do", "end", "with", "loop", "break",
    "if", "then", "else", "await", "emit", "forever", "async",
    "return", "C", "pure", "deterministic", "call", "sizeof",
    "null", "nothing", "par", "par/or", "par/and", "output",
})

#: Operator and punctuation symbols, none longer than two characters:
#: the lexer looks up two characters, then one (maximal munch).
SYMBOLS: frozenset[str] = frozenset({
    "<<", ">>", "<=", ">=", "==", "!=", "&&", "||", "->",
    "+", "-", "*", "/", "%", "(", ")", "[", "]", "{", "}",
    ",", ";", "=", "<", ">", "!", "&", "|", "^", "~", ".", "?", ":",
})


@dataclass(frozen=True, slots=True)
class Token:
    kind: TokKind
    text: str
    span: SourceSpan
    value: Any = field(default=None)  # int for NUM, TimeLiteral for TIME

    def is_kw(self, *words: str) -> bool:
        return self.kind is TokKind.KEYWORD and self.text in words

    def is_sym(self, *syms: str) -> bool:
        return self.kind is TokKind.SYM and self.text in syms

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        return f"{self.kind.value}({self.text!r})"
