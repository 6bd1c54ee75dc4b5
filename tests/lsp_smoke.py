"""End-to-end LSP smoke test: spawn ``repro lsp`` as a real subprocess
and drive it over stdio pipes, exactly as an editor would.

Asserts the full loop: initialize handshake → didOpen publishes what
``repro lint --format json`` reports for the same text (every
diagnostic's code and start position) → an incremental didChange
re-publishes what lint reports for the edited text, and so does one
didChange carrying three ranged changes, each positioned in the text the
earlier ones left → hover answers with the static resource bounds →
clean shutdown/exit.  A second document
holds a form feed in its first line, which the server must count as
lint does: not as a line break; and an astral character in a comment
before the reported ``x = 3``, which the server must count as two
UTF-16 units, where lint's column counts it as one character.

Run from the repository root (CI ``lsp-smoke`` step)::

    python tests/lsp_smoke.py
"""

import json
import pathlib
import subprocess
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parent.parent

#: the paper's §2.6 nondeterministic race — `repro lint` flags CEU-E201
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


#: the race under a first line holding a form feed, which
#: ``str.splitlines`` would count as a line break, with an astral
#: character before the reported ``x = 3``
FORM_FEED = "// smoke\fform feed\n" + RACY.replace(
    "    x = 3;", "    /*\U0001F600*/ x = 3;")


def frame(obj) -> bytes:
    body = json.dumps(obj).encode()
    return b"Content-Length: %d\r\n\r\n%s" % (len(body), body)


def read_message(stdout):
    length = None
    while True:
        line = stdout.readline()
        if not line:
            raise AssertionError("server closed the pipe early")
        if line.lower().startswith(b"content-length:"):
            length = int(line.split(b":")[1])
        elif line in (b"\r\n", b"\n"):
            break
    return json.loads(stdout.read(length))


def wait_for(stdout, predicate, what):
    for _ in range(50):
        message = read_message(stdout)
        if predicate(message):
            return message
    raise AssertionError(f"never saw {what}")


def published(message) -> list:
    """(code, line, character) of every published diagnostic."""
    return sorted((d["code"], d["range"]["start"]["line"],
                   d["range"]["start"]["character"])
                  for d in message["params"]["diagnostics"])


def linted(text: str) -> list:
    """What ``repro lint --format json`` reports for ``text``, in the
    form of :func:`published` (0-based, the column counted in UTF-16
    units; a spanless finding at 0:0)."""
    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp) / "doc.ceu"
        path.write_text(text, newline="")
        out = subprocess.run(
            [sys.executable, "-m", "repro", "lint", "--format", "json",
             str(path)], capture_output=True, text=True, cwd=ROOT,
            check=True).stdout
    lines = text.split("\n")
    found = []
    for diag in json.loads(out)["diagnostics"]:
        span = diag["span"] or {"line": 1, "col": 1}
        head = lines[span["line"] - 1][:span["col"] - 1]
        found.append((diag["code"], span["line"] - 1,
                      len(head.encode("utf-16-le")) // 2))
    return sorted(found)


def main() -> int:
    uri = "file:///smoke/racy.ceu"
    ff_uri = "file:///smoke/form_feed.ceu"
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "lsp"],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, cwd=ROOT)

    def send(obj):
        proc.stdin.write(frame(obj))
        proc.stdin.flush()

    try:
        send({"jsonrpc": "2.0", "id": 1, "method": "initialize",
              "params": {"capabilities": {}}})
        init = wait_for(proc.stdout, lambda m: m.get("id") == 1,
                        "initialize response")
        caps = init["result"]["capabilities"]
        assert caps["textDocumentSync"]["change"] == 2, caps
        print("initialize: ok", init["result"]["serverInfo"])

        send({"jsonrpc": "2.0", "method": "initialized", "params": {}})
        send({"jsonrpc": "2.0", "method": "textDocument/didOpen",
              "params": {"textDocument": {
                  "uri": uri, "languageId": "ceu",
                  "version": 1, "text": RACY}}})
        pub = wait_for(
            proc.stdout,
            lambda m: m.get("method") == "textDocument/publishDiagnostics",
            "publishDiagnostics")
        codes = sorted({d["code"] for d in pub["params"]["diagnostics"]})
        assert "CEU-E201" in codes, codes
        assert published(pub) == linted(RACY), published(pub)
        print("didOpen: ok, published", codes)

        # keystroke: x = 3 → x = 4 (line 5, cols 8..9), incremental sync
        send({"jsonrpc": "2.0", "method": "textDocument/didChange",
              "params": {
                  "textDocument": {"uri": uri, "version": 2},
                  "contentChanges": [{
                      "range": {"start": {"line": 5, "character": 8},
                                "end": {"line": 5, "character": 9}},
                      "text": "4"}]}})
        pub2 = wait_for(
            proc.stdout,
            lambda m: m.get("method") == "textDocument/publishDiagnostics"
            and m["params"].get("version") == 2,
            "re-published diagnostics")
        codes2 = sorted({d["code"] for d in pub2["params"]["diagnostics"]})
        assert "CEU-E201" in codes2, codes2
        assert published(pub2) == linted(RACY.replace("x = 3", "x = 4"))
        print("didChange: ok, re-published", codes2)

        # one didChange carrying three ranged changes, each positioned in
        # the text the earlier ones produced: a line inserted above
        # `x = 4;`, which moves to line 6; x = 4 → x = 5 there; and the
        # second branch's `await A;`, now line 8, deleted
        send({"jsonrpc": "2.0", "method": "textDocument/didChange",
              "params": {
                  "textDocument": {"uri": uri, "version": 3},
                  "contentChanges": [
                      {"range": {"start": {"line": 3, "character": 0},
                                 "end": {"line": 3, "character": 0}},
                       "text": "    // inserted\n"},
                      {"range": {"start": {"line": 6, "character": 8},
                                 "end": {"line": 6, "character": 9}},
                       "text": "5"},
                      {"range": {"start": {"line": 8, "character": 0},
                                 "end": {"line": 9, "character": 0}},
                       "text": ""}]}})
        pub_multi = wait_for(
            proc.stdout,
            lambda m: m.get("method") == "textDocument/publishDiagnostics"
            and m["params"]["uri"] == uri
            and m["params"].get("version") == 3,
            "multi-change re-publish")
        multi = (RACY.replace("    x = 1;", "    // inserted\n    x = 1;")
                 .replace("x = 3", "x = 5")
                 .replace("with\n    await A;\n", "with\n"))
        assert published(pub_multi) == linted(multi), (published(pub_multi),
                                                       linted(multi))
        print("multi-change didChange: ok, re-published",
              published(pub_multi))

        # a comment appended to `x = 3;` (line 6, 0-based; UTF-16 unit
        # 17, code point 16) of a document whose first line holds a form
        # feed
        send({"jsonrpc": "2.0", "method": "textDocument/didOpen",
              "params": {"textDocument": {
                  "uri": ff_uri, "languageId": "ceu",
                  "version": 1, "text": FORM_FEED}}})
        pub_ff = wait_for(
            proc.stdout,
            lambda m: m.get("method") == "textDocument/publishDiagnostics"
            and m["params"]["uri"] == ff_uri, "form-feed publish")
        assert published(pub_ff) == linted(FORM_FEED), published(pub_ff)
        send({"jsonrpc": "2.0", "method": "textDocument/didChange",
              "params": {
                  "textDocument": {"uri": ff_uri, "version": 2},
                  "contentChanges": [{
                      "range": {"start": {"line": 6, "character": 17},
                                "end": {"line": 6, "character": 17}},
                      "text": " // edited"}]}})
        pub3 = wait_for(
            proc.stdout,
            lambda m: m.get("method") == "textDocument/publishDiagnostics"
            and m["params"]["uri"] == ff_uri
            and m["params"].get("version") == 2,
            "form-feed re-publish")
        edited = FORM_FEED.replace("x = 3;", "x = 3; // edited")
        assert published(pub3) == linted(edited), (published(pub3),
                                                   linted(edited))
        print("form feed: ok, re-published", published(pub3))

        send({"jsonrpc": "2.0", "id": 2, "method": "textDocument/hover",
              "params": {"textDocument": {"uri": uri},
                         "position": {"line": 4, "character": 4}}})
        hover = wait_for(proc.stdout, lambda m: m.get("id") == 2, "hover")
        value = hover["result"]["contents"]["value"]
        assert "trails<=" in value, value
        print("hover: ok,", value.splitlines()[1])

        send({"jsonrpc": "2.0", "id": 3, "method": "shutdown",
              "params": None})
        wait_for(proc.stdout, lambda m: m.get("id") == 3, "shutdown")
        send({"jsonrpc": "2.0", "method": "exit", "params": None})
        code = proc.wait(timeout=30)
        assert code == 0, f"exit code {code}"
        print("shutdown/exit: ok")
        return 0
    finally:
        if proc.poll() is None:
            proc.kill()


if __name__ == "__main__":
    sys.exit(main())
