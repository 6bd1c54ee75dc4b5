"""JSON-RPC 2.0 with LSP base-protocol framing.

Messages are UTF-8 JSON bodies preceded by RFC-822-style headers, of
which ``Content-Length`` is mandatory::

    Content-Length: 52\r\n
    \r\n
    {"jsonrpc":"2.0","id":1,"method":"initialize",...}

The stream works over any pair of binary file objects, so tests drive a
server in-process through ``io.BytesIO`` without spawning a subprocess.
"""

from __future__ import annotations

import json
from typing import BinaryIO, Optional



class ProtocolError(Exception):
    """Malformed framing — unrecoverable; the server exits."""


class JsonRpcStream:
    """Reads and writes framed JSON-RPC messages over binary streams."""

    def __init__(self, reader: BinaryIO, writer: BinaryIO) -> None:
        self.reader = reader
        self.writer = writer

    def read(self) -> Optional[dict]:
        """The next message, or ``None`` on a clean EOF."""
        length: Optional[int] = None
        while True:
            line = self.reader.readline()
            if not line:
                if length is None:
                    return None
                raise ProtocolError("EOF inside message headers")
            line = line.rstrip(b"\r\n")
            if not line:
                break              # blank line terminates the headers
            name, _, value = line.partition(b":")
            if name.strip().lower() == b"content-length":
                value = value.strip()
                if not value.isdigit():         # ASCII digits only
                    raise ProtocolError(f"bad Content-Length: {value!r}")
                length = int(value)
        if length is None:
            raise ProtocolError("missing Content-Length header")
        # read in bounded chunks: a length past the end of the stream
        # is an EOF, not one huge allocation
        body = bytearray()
        while len(body) < length:
            chunk = self.reader.read(min(length - len(body), 1 << 16))
            if not chunk:
                raise ProtocolError("EOF inside message body")
            body += chunk
        try:
            message = json.loads(body.decode("utf-8"))
        except (ValueError, RecursionError) as err:
            raise ProtocolError(f"bad message body: {err}")
        if not isinstance(message, dict):
            raise ProtocolError("message body is not an object")
        return message

    def write(self, message: dict) -> None:
        body = json.dumps(message, separators=(",", ":"),
                          sort_keys=False).encode("utf-8")
        self.writer.write(f"Content-Length: {len(body)}\r\n\r\n"
                          .encode("ascii"))
        self.writer.write(body)
        self.writer.flush()

    # ------------------------------------------------------- conveniences
    def respond(self, req_id, result) -> None:
        self.write({"jsonrpc": "2.0", "id": req_id, "result": result})

    def error(self, req_id, code: int, message: str) -> None:
        self.write({"jsonrpc": "2.0", "id": req_id,
                    "error": {"code": code, "message": message}})

    def notify(self, method: str, params: dict) -> None:
        self.write({"jsonrpc": "2.0", "method": method, "params": params})


#: JSON-RPC error codes the server uses
PARSE_ERROR = -32700
METHOD_NOT_FOUND = -32601
INVALID_PARAMS = -32602
SERVER_NOT_INITIALIZED = -32002
