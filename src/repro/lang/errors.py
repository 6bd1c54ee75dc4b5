"""Diagnostics for the Céu front end and analyses.

Every compile-time failure in the reproduction is reported through one of
the exception classes below.  Each diagnostic carries a :class:`SourceSpan`
so callers (tests, the CLI examples, the benchmark harness) can render
precise ``file:line:col`` messages, mirroring the error style of the
original Céu compiler.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter
from typing import Optional


class Line:
    """One line of a source text: its 1-based ``number`` and ``start``,
    the offset of its first character.  The lexer gives each line of its
    input one ``Line`` and every position on the line points at it, so
    renumbering the line (as the incremental analyzer does to the lines
    an edit kept) moves them all."""

    __slots__ = ("number", "start")

    def __init__(self, number: int, start: int) -> None:
        self.number = number
        self.start = start


class SourcePos:
    """A position inside a source buffer: a 1-based column on a
    :class:`Line`, through which ``line`` and ``offset`` are read."""

    __slots__ = ("at", "col")

    def __init__(self, at: Line, col: int) -> None:
        self.at = at
        self.col = col

    line = property(attrgetter("at.number"))
    offset = property(lambda self: self.at.start + self.col - 1)

    def _key(self) -> tuple:
        return (self.at.number, self.col, self.offset)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not SourcePos:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return "SourcePos(line=%d, col=%d, offset=%d)" % self._key()

    def __str__(self) -> str:  # pragma: no cover - trivial
        return f"{self.at.number}:{self.col}"


@dataclass(frozen=True, slots=True)
class SourceSpan:
    """A half-open region of source text ``[start, end)``."""

    start: SourcePos
    end: SourcePos
    filename: str = "<ceu>"

    @staticmethod
    def point(line: int, col: int, offset: int = 0,
              filename: str = "<ceu>") -> "SourceSpan":
        pos = SourcePos(Line(line, offset - col + 1), col)
        return SourceSpan(pos, pos, filename)

    def merge(self, other: "SourceSpan") -> "SourceSpan":
        """Smallest span covering both ``self`` and ``other``."""
        lo = self.start if self.start.offset <= other.start.offset else other.start
        hi = self.end if self.end.offset >= other.end.offset else other.end
        return SourceSpan(lo, hi, self.filename)

    def detached(self) -> "SourceSpan":
        """This span on lines of its own, which no renumbering moves."""
        start, end = (SourcePos(Line(pos.at.number, pos.at.start), pos.col)
                      for pos in (self.start, self.end))
        return SourceSpan(start, end, self.filename)

    def __str__(self) -> str:  # pragma: no cover - trivial
        return f"{self.filename}:{self.start}"


UNKNOWN_SPAN = SourceSpan.point(0, 0)


class CeuError(Exception):
    """Base class of all diagnostics produced by the reproduction."""

    kind = "error"

    def __init__(self, message: str, span: Optional[SourceSpan] = None):
        self.message = message
        self.span = span if span is not None else UNKNOWN_SPAN
        super().__init__(self.render())

    def render(self) -> str:
        if self.span is UNKNOWN_SPAN:
            return f"{self.kind}: {self.message}"
        return f"{self.span}: {self.kind}: {self.message}"


class LexError(CeuError):
    kind = "lex error"


class ParseError(CeuError):
    kind = "parse error"


class BindError(CeuError):
    """Name-resolution / declaration errors (undeclared ids, redeclaration,
    emitting an input event from synchronous code, ...)."""

    kind = "bind error"


class BoundedError(CeuError):
    """Violation of the bounded-execution rule of §2.5: a loop body has a
    path with neither ``await`` nor ``break``."""

    kind = "tight loop"


class AsyncError(CeuError):
    """Violation of the ``async`` restrictions of §2.7 (no parallel blocks,
    no awaits, no internal events, no writes to outer variables)."""

    kind = "async restriction"


class NondeterminismError(CeuError):
    """Raised by the temporal analysis (§2.6) when two concurrent trails may
    access a variable, an internal event, or non-annotated C functions in
    the same reaction chain."""

    kind = "nondeterminism"

    def __init__(self, message: str, span: Optional[SourceSpan] = None,
                 state: Optional[int] = None,
                 witness: Optional[tuple] = None):
        self.state = state
        self.witness = witness
        super().__init__(message, span)


class RuntimeCeuError(CeuError):
    """Errors raised while a program is executing on the reference VM."""

    kind = "runtime error"


class AnalysisBudgetExceeded(CeuError):
    """The DFA exploration hit its configured state budget.

    The conversion is exponential in the worst case (§6); the budget turns a
    blow-up into a diagnosable condition instead of a hang.
    """

    kind = "analysis budget exceeded"
