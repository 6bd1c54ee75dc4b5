"""The LSP server (docs/ANALYSIS.md §LSP): JSON-RPC framing, UTF-16
position bookkeeping, and the request handlers — driven in-process
through byte pipes, exactly as a real client would over stdio."""

import io
import json

from repro.lsp import Document, JsonRpcStream, LspServer
from repro.lsp.documents import uri_to_path

URI = "file:///tmp/demo.ceu"

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


def frame(obj) -> bytes:
    body = json.dumps(obj).encode()
    return b"Content-Length: %d\r\n\r\n%s" % (len(body), body)


def run_server(*messages) -> list:
    """Feed framed messages to a fresh server; return decoded output."""
    reader = io.BytesIO(b"".join(frame(m) for m in messages))
    writer = io.BytesIO()
    server = LspServer(reader, writer)
    server.serve_forever()
    out = []
    stream = JsonRpcStream(io.BytesIO(writer.getvalue()), io.BytesIO())
    while (msg := stream.read()) is not None:
        out.append(msg)
    return out


def req(rid, method, **params):
    return {"jsonrpc": "2.0", "id": rid, "method": method,
            "params": params}


def note(method, **params):
    return {"jsonrpc": "2.0", "method": method, "params": params}


def by_id(messages, rid):
    return next(m for m in messages if m.get("id") == rid)


def published(messages):
    return [m["params"] for m in messages
            if m.get("method") == "textDocument/publishDiagnostics"]


# ----------------------------------------------------------------- framing
def test_rpc_roundtrip():
    writer = io.BytesIO()
    stream = JsonRpcStream(io.BytesIO(), writer)
    stream.notify("demo", {"x": 1})
    back = JsonRpcStream(io.BytesIO(writer.getvalue()), io.BytesIO())
    msg = back.read()
    assert msg["method"] == "demo" and msg["params"] == {"x": 1}
    assert back.read() is None         # clean EOF


def test_uri_to_path():
    assert uri_to_path("file:///tmp/a%20b.ceu") == "/tmp/a b.ceu"


# --------------------------------------------------------------- documents
def test_document_incremental_edit():
    doc = Document(URI, "abc\ndef\n", 1)
    doc.apply([{"range": {"start": {"line": 1, "character": 0},
                          "end": {"line": 1, "character": 1}},
                "text": "D"}], 2)
    assert doc.text == "abc\nDef\n"
    assert doc.version == 2


def test_document_full_sync_and_utf16():
    doc = Document(URI, "x = 1\n", 1)
    doc.apply([{"text": "y = 2\n"}], 2)      # no range: full replace
    assert doc.text == "y = 2\n"
    # astral characters count as two UTF-16 units
    doc = Document(URI, "a\U0001F600b\n", 1)
    assert doc.offset_at({"line": 0, "character": 3}) == 2
    assert doc.position_at(2) == {"line": 0, "character": 3}


# --------------------------------------------------------------- lifecycle
def test_initialize_capabilities():
    out = run_server(req(1, "initialize"),
                     req(2, "shutdown"), note("exit"))
    caps = by_id(out, 1)["result"]["capabilities"]
    assert caps["textDocumentSync"] == {"openClose": True, "change": 2}
    assert caps["hoverProvider"] and caps["definitionProvider"]
    assert by_id(out, 1)["result"]["serverInfo"]["name"] == "repro-lsp"


def test_unknown_method_errors():
    out = run_server(req(1, "initialize"), req(2, "nope/nope"),
                     req(3, "shutdown"), note("exit"))
    assert by_id(out, 2)["error"]["code"] == -32601


# ------------------------------------------------------------- diagnostics
def test_did_open_publishes_lint_codes():
    nondet = COUNTER.replace("v = await Restart;", "v = 2;\nawait 1s;")
    out = run_server(
        req(1, "initialize"),
        note("textDocument/didOpen",
             textDocument={"uri": URI, "languageId": "ceu",
                           "version": 1, "text": nondet}),
        req(2, "shutdown"), note("exit"))
    pubs = published(out)
    assert pubs and pubs[0]["uri"] == URI
    codes = {d["code"] for d in pubs[0]["diagnostics"]}
    assert "CEU-E201" in codes         # same codes as `repro lint`
    diag = next(d for d in pubs[0]["diagnostics"]
                if d["code"] == "CEU-E201")
    assert diag["severity"] == 1 and diag["source"] == "repro-lint"
    assert diag["relatedInformation"]


def test_did_change_incremental_then_close_clears():
    out = run_server(
        req(1, "initialize"),
        note("textDocument/didOpen",
             textDocument={"uri": URI, "languageId": "ceu",
                           "version": 1, "text": COUNTER}),
        note("textDocument/didChange",
             textDocument={"uri": URI, "version": 2},
             contentChanges=[{
                 "range": {"start": {"line": 2, "character": 8},
                           "end": {"line": 2, "character": 9}},
                 "text": "9"}]),       # int v = 9;
        note("textDocument/didClose", textDocument={"uri": URI}),
        req(2, "shutdown"), note("exit"))
    pubs = published(out)
    assert len(pubs) == 3              # open, change, close-clear
    assert pubs[1]["version"] == 2
    assert pubs[2]["diagnostics"] == []


def test_did_change_to_parse_error_publishes_e001():
    out = run_server(
        req(1, "initialize"),
        note("textDocument/didOpen",
             textDocument={"uri": URI, "languageId": "ceu",
                           "version": 1, "text": COUNTER}),
        note("textDocument/didChange",
             textDocument={"uri": URI, "version": 2},
             contentChanges=[{"text": COUNTER + "loop do\n"}]),
        req(2, "shutdown"), note("exit"))
    codes = {d["code"] for d in published(out)[1]["diagnostics"]}
    assert "CEU-E001" in codes


def test_did_change_to_unicode_digit_publishes_lex_error():
    """``1²`` once crashed the lexer with a ``ValueError`` the server
    swallowed, so version 2 got no diagnostics at all."""
    out = run_server(
        req(1, "initialize"),
        note("textDocument/didOpen",
             textDocument={"uri": URI, "languageId": "ceu",
                           "version": 1, "text": COUNTER}),
        note("textDocument/didChange",
             textDocument={"uri": URI, "version": 2},
             contentChanges=[{
                 "range": {"start": {"line": 2, "character": 8},
                           "end": {"line": 2, "character": 9}},
                 "text": "1²"}]),      # int v = 1²;
        req(2, "shutdown"), note("exit"))
    pubs = published(out)
    assert [p["version"] for p in pubs] == [1, 2]
    diag, = pubs[1]["diagnostics"]
    assert diag["code"] == "CEU-E001"
    assert "unexpected character '²'" in diag["message"]
    assert diag["range"]["start"] == {"line": 2, "character": 9}


# ----------------------------------------------------------------- queries
def test_definition_resolves_to_declaration():
    # cursor on the `v` of `v = v + 1;` (line 6, col 6)
    out = run_server(
        req(1, "initialize"),
        note("textDocument/didOpen",
             textDocument={"uri": URI, "languageId": "ceu",
                           "version": 1, "text": COUNTER}),
        req(2, "textDocument/definition",
            textDocument={"uri": URI},
            position={"line": 6, "character": 6}),
        req(3, "shutdown"), note("exit"))
    result = by_id(out, 2)["result"]
    assert result["uri"] == URI
    assert result["range"]["start"]["line"] == 2   # `int v = 0;`


def test_hover_reports_trail_bounds():
    out = run_server(
        req(1, "initialize"),
        note("textDocument/didOpen",
             textDocument={"uri": URI, "languageId": "ceu",
                           "version": 1, "text": COUNTER}),
        req(2, "textDocument/hover",
            textDocument={"uri": URI},
            position={"line": 5, "character": 6}),
        req(3, "shutdown"), note("exit"))
    value = by_id(out, 2)["result"]["contents"]["value"]
    assert "trail frame:" in value and "program: trails<=" in value


def test_exit_without_shutdown_is_failure():
    reader = io.BytesIO(frame(note("exit")))
    server = LspServer(reader, io.BytesIO())
    assert server.serve_forever() == 1
