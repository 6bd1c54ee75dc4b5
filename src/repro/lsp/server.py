"""The LSP dispatcher: one incremental analyzer per open document.

Supported requests/notifications:

=================================  ====================================
``initialize`` / ``initialized``   capability handshake
``shutdown`` / ``exit``            orderly teardown
``textDocument/didOpen``           analyze + publish diagnostics
``textDocument/didChange``         incremental sync, re-publish
``textDocument/didClose``          drop state, clear diagnostics
``textDocument/hover``             static resource bounds of the trail
                                   frame under the cursor (§4.2 figures)
``textDocument/definition``        declaration of the variable / event
                                   under the cursor (binder symbols)
=================================  ====================================

Diagnostics carry the same ``CEU-*`` codes, messages, severities and
related locations as ``repro lint`` — the analyzer underneath is
byte-identical to the batch pipeline.
"""

from __future__ import annotations

import sys
from typing import Optional

from ..analysis import IncrementalAnalyzer, Report
from ..analysis.diagnostics import Diagnostic
from ..lang import ast
from ..lang.errors import SourcePos, SourceSpan
from .documents import Document, uri_to_path
from .rpc import (INVALID_PARAMS, METHOD_NOT_FOUND, JsonRpcStream,
                  ProtocolError)

#: LSP DiagnosticSeverity per repro severity
_SEVERITY = {"error": 1, "warning": 2, "note": 3}

#: AST nodes whose event name resolves through ``bound.event_of``
_EVENT_NODES = (ast.AwaitExt, ast.AwaitInt, ast.EmitExt, ast.EmitInt)


def _span_range(span: SourceSpan, lines: list[str]) -> dict:
    """LSP range of a source span over the text cut into ``lines`` at
    ``\\n``: 0-based lines, and characters counted in UTF-16 code units
    (the ``positionEncoding`` the server advertises).  Spans count
    characters, and comments and strings take any character, so an
    astral one earlier on the line counts twice here."""
    if span.start.line == 0:          # unknown span → file start
        return {"start": {"line": 0, "character": 0},
                "end": {"line": 0, "character": 0}}
    return {"start": _position(span.start, lines),
            "end": _position(span.end, lines)}


def _position(pos: SourcePos, lines: list[str]) -> dict:
    head = lines[pos.line - 1][:max(0, pos.col - 1)]
    return {"line": pos.line - 1,
            "character": len(head.encode("utf-16-le")) // 2}


def _lsp_diagnostic(diag: Diagnostic, uri: str, lines: list[str]) -> dict:
    out = {
        "range": _span_range(diag.span, lines),
        "severity": _SEVERITY[diag.severity],
        "code": diag.code,
        "source": "repro-lint",
        "message": diag.message,
    }
    if diag.notes:
        out["relatedInformation"] = [
            {"location": {"uri": uri, "range": _span_range(span, lines)},
             "message": label}
            for label, span in diag.notes]
    return out


class _OpenFile:
    def __init__(self, uri: str, text: str, version: int) -> None:
        self.document = Document(uri, text, version)
        self.analyzer = IncrementalAnalyzer(filename=uri_to_path(uri))
        self.report: Optional[Report] = None


class LspServer:
    """Single-threaded stdio LSP server (tests inject pipe streams)."""

    def __init__(self, reader=None, writer=None) -> None:
        self.stream = JsonRpcStream(
            reader if reader is not None else sys.stdin.buffer,
            writer if writer is not None else sys.stdout.buffer)
        self.files: dict[str, _OpenFile] = {}
        self.initialized = False
        self.shutdown_requested = False
        self.exit_code: Optional[int] = None

    # ------------------------------------------------------------- loop
    def serve_forever(self) -> int:
        while self.exit_code is None:
            try:
                message = self.stream.read()
            except ProtocolError as err:
                print(f"repro lsp: {err}", file=sys.stderr)
                return 1
            if message is None:       # client hung up
                return 0 if self.shutdown_requested else 1
            self.handle(message)
        return self.exit_code

    def handle(self, message: dict) -> None:
        method = message.get("method")
        req_id = message.get("id")
        if method is None:
            return                    # a response; we never send requests
        params = message.get("params") or {}
        handler = getattr(self, "_on_" + method.replace("/", "_")
                          .replace("$", "dollar"), None)
        if handler is None:
            if req_id is not None:    # unknown notifications are ignored
                self.stream.error(req_id, METHOD_NOT_FOUND,
                                  f"unsupported method: {method}")
            return
        try:
            result = handler(params)
        except (KeyError, TypeError, ValueError) as err:
            if req_id is not None:
                self.stream.error(req_id, INVALID_PARAMS,
                                  f"{type(err).__name__}: {err}")
            return
        if req_id is not None:
            self.stream.respond(req_id, result)

    # -------------------------------------------------------- lifecycle
    def _on_initialize(self, params: dict):
        self.initialized = True
        return {
            "capabilities": {
                "positionEncoding": "utf-16",
                "textDocumentSync": {"openClose": True, "change": 2},
                "hoverProvider": True,
                "definitionProvider": True,
            },
            "serverInfo": {"name": "repro-lsp", "version": "1.0.0"},
        }

    def _on_initialized(self, params: dict) -> None:
        return None

    def _on_shutdown(self, params: dict):
        self.shutdown_requested = True
        return None

    def _on_exit(self, params: dict) -> None:
        self.exit_code = 0 if self.shutdown_requested else 1
        return None

    def _on_dollar_cancelRequest(self, params: dict) -> None:
        return None                   # all requests complete synchronously

    # ------------------------------------------------------------- sync
    def _on_textDocument_didOpen(self, params: dict) -> None:
        doc = params["textDocument"]
        open_file = _OpenFile(doc["uri"], doc["text"],
                              doc.get("version", 0))
        self.files[doc["uri"]] = open_file
        self._publish(open_file)
        return None

    def _on_textDocument_didChange(self, params: dict) -> None:
        uri = params["textDocument"]["uri"]
        open_file = self.files.get(uri)
        if open_file is None:
            return None
        open_file.document.apply(params.get("contentChanges", []),
                                 params["textDocument"].get("version", 0))
        self._publish(open_file)
        return None

    def _on_textDocument_didClose(self, params: dict) -> None:
        uri = params["textDocument"]["uri"]
        if self.files.pop(uri, None) is not None:
            self.stream.notify("textDocument/publishDiagnostics",
                               {"uri": uri, "diagnostics": []})
        return None

    def _publish(self, open_file: _OpenFile) -> None:
        report = open_file.analyzer.analyze(open_file.document.text)
        open_file.report = report
        doc = open_file.document
        self.stream.notify("textDocument/publishDiagnostics", {
            "uri": doc.uri,
            "version": doc.version,
            "diagnostics": [_lsp_diagnostic(d, doc.uri, doc.lines)
                            for d in report.sorted()],
        })

    # ----------------------------------------------------------- queries
    def _node_at(self, open_file: _OpenFile,
                 position: dict) -> Optional[ast.Node]:
        bound = open_file.analyzer.last_bound
        if bound is None:
            return None
        offset = open_file.document.offset_at(position)
        best: Optional[ast.Node] = None
        best_width = 1 << 60
        for node in bound.program.walk():
            span = node.span
            if span.start.line == 0:
                continue
            if span.start.offset <= offset <= span.end.offset:
                width = span.end.offset - span.start.offset
                if width < best_width:
                    best, best_width = node, width
        return best

    def _on_textDocument_definition(self, params: dict):
        uri = params["textDocument"]["uri"]
        open_file = self.files.get(uri)
        if open_file is None:
            return None
        bound = open_file.analyzer.last_bound
        node = self._node_at(open_file, params["position"])
        decl_span: Optional[SourceSpan] = None
        while node is not None and decl_span is None and bound:
            if isinstance(node, ast.NameInt):
                sym = bound.var_of.get(node.nid)
                if sym is not None:
                    decl_span = sym.decl.span
            elif isinstance(node, _EVENT_NODES):
                sym = bound.event_of.get(node.nid)
                if sym is not None and sym.decl is not None:
                    decl_span = sym.decl.span
            node = bound.parent.get(node.nid) if decl_span is None \
                else node
        if decl_span is None:
            return None
        return {"uri": uri,
                "range": _span_range(decl_span, open_file.document.lines)}

    def _on_textDocument_hover(self, params: dict):
        uri = params["textDocument"]["uri"]
        open_file = self.files.get(uri)
        if open_file is None or open_file.report is None:
            return None
        bounds = open_file.report.bounds
        if bounds is None:
            return None
        line = params["position"]["line"] + 1
        trail = bounds.trail_at(line)
        lines = ["```", f"program: {bounds.summary()}", "```"]
        if trail is not None:
            lines[1:1] = [f"trail frame: {trail.summary()}"]
        return {
            "contents": {"kind": "markdown", "value": "\n".join(lines)},
            "range": {"start": {"line": line - 1, "character": 0},
                      "end": {"line": line - 1, "character": 0}},
        }


def main(reader=None, writer=None) -> int:
    """Entry point for ``repro lsp``."""
    return LspServer(reader, writer).serve_forever()
