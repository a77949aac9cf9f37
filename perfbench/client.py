"""A minimal HTTP/1.1 client for the benchmark's persistent connections.

It behaves like a browser tab's connection: one keep-alive TCP socket,
``Accept-Encoding: gzip``, no ``Connection: close`` and no socket
options of its own, so the kernel's delayed ACK meets the server's Nagle
exactly as it would for a real user.  It records the time the last body
byte arrived and keeps the body as sent (gzip and all), with chunked
framing removed; decoding and checking happen after timing stops
(:mod:`perfbench.checks`).
"""

from __future__ import annotations

import socket
import time
from dataclasses import dataclass, field
from typing import Dict, Optional

#: status recorded for a request that got no HTTP answer at all
TRANSPORT_ERROR = 599


@dataclass
class Response:
    status: int
    headers: Dict[str, str] = field(default_factory=dict)
    body: bytes = b""
    #: chunked bodies only: the terminating zero-length chunk arrived
    complete: bool = True
    #: perf_counter() just before the request bytes were written
    sent_at: float = 0.0
    #: perf_counter() once the last body byte was read
    done_at: float = 0.0
    error: Optional[str] = None


class ProtocolError(Exception):
    pass


class Connection:
    """One persistent HTTP/1.1 connection; reconnects after a failure."""

    def __init__(self, host: str, port: int, timeout_s: float = 30.0):
        self.host = host
        self.port = port
        self.timeout_s = timeout_s
        self._sock: Optional[socket.socket] = None
        self._rfile = None

    def _connect(self) -> None:
        self._sock = socket.create_connection(
            (self.host, self.port), timeout=self.timeout_s
        )
        self._rfile = self._sock.makefile("rb")

    def close(self) -> None:
        if self._rfile is not None:
            self._rfile.close()
        if self._sock is not None:
            self._sock.close()
        self._sock = self._rfile = None

    def get(self, target: str, headers: Dict[str, str]) -> Response:
        """Send one GET and read the whole answer; never raises on
        transport failure (the response then has :data:`TRANSPORT_ERROR`)."""
        lines = [f"GET {target} HTTP/1.1", f"Host: {self.host}:{self.port}"]
        lines.extend(f"{name}: {value}" for name, value in headers.items())
        payload = ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")
        sent_at = time.perf_counter()
        try:
            if self._sock is None:
                self._connect()
            self._sock.sendall(payload)
            response = self._read_response()
        except (OSError, ProtocolError) as exc:
            self.close()
            return Response(
                TRANSPORT_ERROR, sent_at=sent_at, done_at=time.perf_counter(),
                error=f"{type(exc).__name__}: {exc}",
            )
        response.sent_at = sent_at
        response.done_at = time.perf_counter()
        if response.headers.get("connection", "").lower() == "close":
            self.close()
        return response

    def _readline(self) -> bytes:
        line = self._rfile.readline(65537)
        if not line:
            raise ProtocolError("connection closed by server")
        return line

    def _read_exact(self, n: int) -> bytes:
        data = self._rfile.read(n)
        if len(data) != n:
            raise ProtocolError(f"short body: {len(data)} of {n} bytes")
        return data

    def _read_response(self) -> Response:
        status_line = self._readline().decode("latin-1").rstrip("\r\n")
        parts = status_line.split(" ", 2)
        if len(parts) < 2 or not parts[0].startswith("HTTP/"):
            raise ProtocolError(f"bad status line {status_line!r}")
        status = int(parts[1])
        headers: Dict[str, str] = {}
        while True:
            line = self._readline().decode("latin-1").rstrip("\r\n")
            if not line:
                break
            name, _, value = line.partition(":")
            headers[name.strip().lower()] = value.strip()
        if status == 304 or status < 200 or status == 204:
            return Response(status, headers)
        if headers.get("transfer-encoding", "").lower() == "chunked":
            body, complete = self._read_chunked()
            return Response(status, headers, body, complete=complete)
        length = headers.get("content-length")
        if length is None:
            raise ProtocolError("response without length on keep-alive")
        return Response(status, headers, self._read_exact(int(length)))

    def _read_chunked(self):
        parts = []
        while True:
            size_line = self._rfile.readline(65537)
            if not size_line:
                # the server aborted the stream: a truncated page
                self.close()
                return b"".join(parts), False
            size = int(size_line.split(b";", 1)[0].strip() or b"0", 16)
            if size == 0:
                # trailer section ends with an empty line
                while self._readline() not in (b"\r\n", b"\n"):
                    pass
                return b"".join(parts), True
            parts.append(self._read_exact(size))
            self._read_exact(2)
