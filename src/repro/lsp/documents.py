"""Open-document store with LSP position arithmetic.

LSP positions are ``{line, character}`` where ``line`` is 0-based and
``character`` counts **UTF-16 code units** (the protocol default; the
server also advertises ``positionEncoding: "utf-16"``).  A
:class:`Document` applies full or incremental
``textDocument/didChange`` edits and converts between LSP positions and
Python string offsets through a line table it rebuilds once per applied
change.
"""

from __future__ import annotations

from bisect import bisect_right


class Document:
    """One open text document, synced via didChange events."""

    def __init__(self, uri: str, text: str, version: int = 0) -> None:
        self.uri = uri
        self.version = version
        self._set_text(text)

    def _set_text(self, text: str) -> None:
        self.text = text
        #: the text cut at ``\n`` (never empty), and the offset each
        #: line starts at
        self.lines = text.split("\n")
        self.line_starts = [0]
        for line in self.lines[:-1]:
            self.line_starts.append(self.line_starts[-1] + len(line) + 1)

    # ------------------------------------------------ position arithmetic
    def offset_at(self, position: dict) -> int:
        """Python string offset of an LSP ``{line, character}``."""
        line = max(0, min(position.get("line", 0), len(self.lines) - 1))
        units = position.get("character", 0)
        col = 0
        for ch in self.lines[line]:
            if units <= 0:
                break
            units -= 2 if ord(ch) > 0xFFFF else 1
            col += 1
        return self.line_starts[line] + col

    def position_at(self, offset: int) -> dict:
        """LSP position of a Python string offset."""
        offset = max(0, min(offset, len(self.text)))
        line = bisect_right(self.line_starts, offset) - 1
        character = sum(2 if ord(ch) > 0xFFFF else 1
                        for ch in self.text[self.line_starts[line]:offset])
        return {"line": line, "character": character}

    # ------------------------------------------------------------- edits
    def apply(self, changes: list[dict], version: int) -> None:
        """Apply ``contentChanges`` in order (full or ranged); each
        ranged change is positioned in the text the earlier ones
        produced."""
        for change in changes:
            rng = change.get("range")
            if rng is None:
                self._set_text(change.get("text", ""))
            else:
                start = self.offset_at(rng["start"])
                end = self.offset_at(rng["end"])
                if end < start:
                    start, end = end, start
                self._set_text(self.text[:start] + change.get("text", "")
                               + self.text[end:])
        self.version = version


def uri_to_path(uri: str) -> str:
    """Filesystem path of a ``file://`` URI (other schemes pass through
    verbatim — the analyzer only uses it as a display name)."""
    if uri.startswith("file://"):
        from urllib.parse import unquote, urlparse
        return unquote(urlparse(uri).path) or uri
    return uri
