"""JSON API server over the dashboard routes.

The production system serves these routes from Ruby on Rails behind
Open OnDemand's per-user nginx; here a stdlib HTTP server fills that
role so the examples can exercise a real network path.  Authentication
is modeled the way OOD does it: the authenticated username arrives in a
trusted header (``X-Remote-User``).

The server is optional — everything can be driven in-process through
:class:`~repro.core.dashboard.Dashboard` — but the HTTP layer lets the
browser-style client talk to the same API shape the paper's frontend
fetches.
"""

from __future__ import annotations

import gzip
import json
import math
import re
import threading
import zlib
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, Iterable, Optional, Tuple
from urllib.parse import parse_qsl, urlparse

#: download URLs the Accounts widget links to (§3.4 export dropdown)
_EXPORT_RE = re.compile(
    r"^/api/v1/export/account_usage/(?P<account>[^/]+)\.(?P<fmt>csv|xls)$"
)

from repro.auth import Viewer
from repro.core.dashboard import Dashboard
from repro.core.routes import RouteResponse

# Param validation lives in repro.core.params so widgets can use it without
# importing the HTTP layer; re-exported here for backwards compatibility.
from repro.core.params import (  # noqa: F401  (re-exports)
    ParamError,
    coerce_params,
    positive_int_param,
)
from repro.web.delivery import (
    GZIP_MIN_BYTES,
    RetryJitter,
    ValidatorIndex,
    content_disposition,
    gzip_accepted,
    is_compressible,
    quote_etag,
    request_cache_key,
)


class _Handler(BaseHTTPRequestHandler):
    """Request handler bound to a Dashboard via the server instance."""

    server_version = "ReproDashboard/1.0"
    # HTTP/1.1 so the streamed homepage can use chunked transfer encoding;
    # every non-chunked response still carries Content-Length, and clients
    # that want one-shot connections send ``Connection: close`` as before.
    protocol_version = "HTTP/1.1"

    @property
    def dashboard(self) -> Dashboard:
        return self.server.dashboard  # type: ignore[attr-defined]

    @property
    def validators(self) -> ValidatorIndex:
        return self.server.validators  # type: ignore[attr-defined]

    @property
    def retry_jitter(self) -> RetryJitter:
        return self.server.retry_jitter  # type: ignore[attr-defined]

    def log_message(self, fmt: str, *args) -> None:  # noqa: A003
        if self.server.verbose:  # type: ignore[attr-defined]
            super().log_message(fmt, *args)

    def do_GET(self) -> None:  # noqa: N802
        try:
            self._handle_get()
        except (BrokenPipeError, ConnectionResetError):  # client went away
            pass
        except Exception as exc:  # noqa: BLE001 - no traceback ever escapes
            try:
                self._send_error(500, f"{type(exc).__name__}: {exc}")
            except OSError:  # headers already sent / socket gone
                pass

    # HEAD is GET with the body suppressed (``_send_body`` checks
    # ``self.command``): same status, same headers — including
    # Content-Length — so clients can probe a route cheaply.
    do_HEAD = do_GET  # noqa: N815

    def _endpoint_kind(self, path: str) -> str:
        """Low-cardinality endpoint label for the HTTP request counter."""
        if path == "/healthz":
            return "health"
        if path == "/metrics":
            return "metrics"
        if path == "/api/v1/traces/recent":
            return "traces"
        if path == "/":
            return "homepage"
        if _EXPORT_RE.match(path):
            return "export"
        if path.startswith("/api/"):
            return "api"
        return "other"

    def _record_http(self, status: int) -> None:
        self.dashboard.ctx.obs.record_http(
            self._endpoint_kind(urlparse(self.path).path), status
        )

    def _handle_get(self) -> None:
        parsed = urlparse(self.path)
        try:
            # keep_blank_values so ``?limit=`` reaches coerce_params (which
            # rejects it as a structured 400) instead of vanishing silently
            params = coerce_params(
                parse_qsl(parsed.query, keep_blank_values=True)
            )
        except ParamError as exc:
            self._send_error(400, str(exc))
            return
        username = self.headers.get("X-Remote-User")

        if parsed.path == "/healthz":
            # the dashboard owns its health shape: breakers + admission tier
            self._send(200, self.dashboard.healthz_payload())
            return
        if parsed.path == "/metrics":
            # operator endpoint, unauthenticated like /healthz
            self._send_text(200, self.dashboard.ctx.scrape_metrics())
            return
        if parsed.path == "/api/v1/traces/recent":
            try:
                limit = positive_int_param(params, "limit")
            except ParamError as exc:
                self._send_error(400, str(exc))
                return
            traces = self.dashboard.ctx.obs.tracer.recent(limit)
            self._send(
                200,
                {
                    "ok": True,
                    "traces": [t.to_dict() for t in traces],
                    "slow_threshold_ms": (
                        self.dashboard.ctx.obs.tracer.slow_threshold_ms
                    ),
                },
            )
            return
        if username is None:
            self._send_error(401, "missing X-Remote-User header")
            return
        viewer = Viewer(
            username=username,
            is_admin=self.headers.get("X-Admin", "") == "1",
        )
        if parsed.path == "/":
            self._stream_html(self.dashboard.stream_homepage(viewer))
            return
        request_key = request_cache_key(
            viewer.username, viewer.is_admin, parsed.path, parsed.query
        )
        if self._maybe_not_modified(request_key):
            return
        export = _EXPORT_RE.match(parsed.path)
        if export is not None:
            response = self.dashboard.call(
                "account_usage_export",
                viewer,
                {"account": export.group("account"), "format": export.group("fmt")},
            )
            if not response.ok:
                self._send_route_response(response, request_key=request_key)
                return
            self._send_download(
                response.data["content"],
                response.data["mime_type"],
                response.data["filename"],
                response=response,
                request_key=request_key,
            )
            return
        response = self.dashboard.get(parsed.path, viewer, params)
        self._send_route_response(response, request_key=request_key)

    # -- conditional GET -----------------------------------------------------

    def _maybe_not_modified(self, request_key: str) -> bool:
        """Answer a validating conditional GET with 304 — zero render work,
        zero body bytes.  The decision (ETag match + every cache dep still
        fresh at the same write generation) lives in
        :meth:`repro.web.delivery.ValidatorIndex.validate`; a miss on any
        condition falls through to a full dispatch."""
        if_none_match = self.headers.get("If-None-Match")
        if if_none_match is None:
            return False
        ctx = self.dashboard.ctx
        record = self.validators.validate(
            request_key, if_none_match, ctx.cache, ctx.clock.now()
        )
        if record is None:
            return False
        kind = self._endpoint_kind(urlparse(self.path).path)
        ctx.obs.record_not_modified(kind, record.body_len)
        self._record_http(304)
        self.send_response(304)
        self.send_header("ETag", quote_etag(record.etag))
        self.end_headers()  # no body, no Content-Length (RFC 9110 §15.4.5)
        return True

    def _record_validator(
        self,
        extra: list,
        response,
        request_key: Optional[str],
        body_len: int,
    ) -> None:
        """Attach the ETag header and index the validator for later 304s."""
        etag = getattr(response, "etag", None)
        if etag is None or request_key is None:
            return
        extra.append(("ETag", quote_etag(etag)))
        self.validators.record(
            request_key, etag, response.cache_deps or (), body_len
        )

    # -- helpers ------------------------------------------------------------

    def _send(self, status: int, payload: Dict[str, Any],
              extra: Tuple[Tuple[str, str], ...] = ()) -> None:
        body = json.dumps(payload).encode()
        self._send_body(status, body, "application/json", extra=extra)

    def _send_error(self, status: int, error: str) -> None:
        """A server-level failure in the same envelope every route uses."""
        envelope = RouteResponse(ok=False, status=status, error=error)
        self._send(status, envelope.to_json())

    def _send_route_response(self, response,
                             request_key: Optional[str] = None) -> None:
        """Send a :class:`RouteResponse`, surfacing backpressure hints.

        Rejections and outages (503) carry a retry budget; clients
        honouring ``Retry-After`` spread their retries instead of piling
        onto an overloaded daemon.  Responses computed purely from fresh
        cache entries additionally carry an ETag.
        """
        extra = []
        retry_after = getattr(response, "retry_after_s", None)
        if retry_after is not None and retry_after > 0:
            # jitter the header hint so concurrently rejected clients
            # spread their retries instead of re-stampeding in lockstep;
            # the body's retry_after_s stays the un-jittered budget
            hint = self.retry_jitter.jitter(retry_after)
            extra.append(("Retry-After", str(max(1, math.ceil(hint)))))
        status = response.status if not response.ok else 200
        body = json.dumps(response.to_json()).encode()
        self._record_validator(extra, response, request_key, len(body))
        self._send_body(status, body, "application/json", extra=tuple(extra))

    def _send_text(self, status: int, text: str) -> None:
        # the content type Prometheus scrapers expect from /metrics
        self._send_body(
            status, text.encode(), "text/plain; version=0.0.4; charset=utf-8"
        )

    def _send_download(self, content: str, mime: str, filename: str,
                       response=None, request_key: Optional[str] = None) -> None:
        body = content.encode()
        # filename derives from a URL path segment: sanitize per RFC 6266
        # or a crafted account name corrupts/injects response headers
        extra = [("Content-Disposition", content_disposition(filename))]
        if response is not None:
            self._record_validator(extra, response, request_key, len(body))
        self._send_body(200, body, mime, extra=tuple(extra))

    def _send_body(self, status: int, body: bytes, ctype: str,
                   extra: Tuple[Tuple[str, str], ...] = ()) -> None:
        headers = list(extra)
        if is_compressible(ctype) and len(body) >= GZIP_MIN_BYTES:
            # Vary on every *eligible* response — caches must key on the
            # request header even when this client gets identity bytes
            headers.append(("Vary", "Accept-Encoding"))
            if gzip_accepted(self.headers.get("Accept-Encoding")):
                compressed = gzip.compress(body, mtime=0)  # deterministic
                if len(compressed) < len(body):
                    if self.command != "HEAD":
                        self.dashboard.ctx.obs.record_bytes_saved(
                            "gzip", len(body) - len(compressed)
                        )
                    headers.append(("Content-Encoding", "gzip"))
                    body = compressed
        self._record_http(status)
        self.send_response(status)
        self.send_header("Content-Type", ctype)
        for name, value in headers:
            self.send_header(name, value)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        if self.command != "HEAD":  # HEAD mirrors headers, omits the body
            self.wfile.write(body)

    def _stream_html(self, chunks: Iterable[str]) -> None:
        """Stream an HTML document under chunked transfer encoding.

        Headers flush before the first chunk is rendered, so
        time-to-first-byte is decoupled from the slowest widget.  A HEAD
        request returns after the headers without advancing the generator
        at all — header parity with zero render work.
        """
        use_gzip = gzip_accepted(self.headers.get("Accept-Encoding"))
        self._record_http(200)
        self.send_response(200)
        self.send_header("Content-Type", "text/html; charset=utf-8")
        self.send_header("Vary", "Accept-Encoding")
        if use_gzip:
            self.send_header("Content-Encoding", "gzip")
        self.send_header("Transfer-Encoding", "chunked")
        self.end_headers()
        if self.command == "HEAD":
            return
        # wbits=31 emits a gzip member; zlib writes no mtime, so streamed
        # bytes are as deterministic as gzip.compress(..., mtime=0)
        compressor = zlib.compressobj(wbits=31) if use_gzip else None
        raw_len = sent_len = 0
        try:
            for chunk in chunks:
                data = chunk.encode()
                raw_len += len(data)
                if compressor is not None:
                    # sync-flush so each widget slot reaches the client
                    # as soon as its worker completes, not at stream end
                    data = compressor.compress(data) + compressor.flush(
                        zlib.Z_SYNC_FLUSH
                    )
                if data:
                    sent_len += len(data)
                    self._write_chunk(data)
            if compressor is not None:
                tail = compressor.flush(zlib.Z_FINISH)
                if tail:
                    sent_len += len(tail)
                    self._write_chunk(tail)
            self.wfile.write(b"0\r\n\r\n")
            if compressor is not None and raw_len > sent_len:
                self.dashboard.ctx.obs.record_bytes_saved(
                    "gzip", raw_len - sent_len
                )
        except Exception:  # noqa: BLE001
            # headers (and possibly chunks) are already on the wire — a 500
            # is no longer expressible.  Abort the stream instead: chunked
            # framing makes the truncation detectable client-side, and
            # closing the connection stops a broken generator from wedging
            # the handler thread.
            self.close_connection = True

    def _write_chunk(self, data: bytes) -> None:
        self.wfile.write(f"{len(data):X}\r\n".encode() + data + b"\r\n")


class _LoadableHTTPServer(ThreadingHTTPServer):
    """ThreadingHTTPServer hardened for load tests and rapid restarts.

    The stdlib default ``request_queue_size`` of 5 drops connections the
    moment a traffic generator fires a burst of arrivals in one tick;
    a deeper accept backlog lets the admission layer (not the kernel)
    decide what gets shed.

    ``allow_reuse_address`` (``SO_REUSEADDR``) is made explicit — a
    server restarted on the same port must not flake with ``Address
    already in use`` while the old socket lingers in TIME_WAIT — and
    handler threads are daemonic with a non-blocking close, so stopping
    a server never hangs on a wedged keep-alive connection.
    """

    request_queue_size = 128
    allow_reuse_address = True
    daemon_threads = True
    # don't join lingering handler threads in server_close(): a client
    # holding a keep-alive connection open must not block a restart
    block_on_close = False


class DashboardServer:
    """Threaded HTTP server wrapping one :class:`Dashboard`.

    Binds at construction time (``port=0`` asks the kernel for an
    ephemeral port); the bound port is exposed via :attr:`port`
    immediately, before :meth:`start`.
    """

    def __init__(self, dashboard: Dashboard, host: str = "127.0.0.1", port: int = 0,
                 verbose: bool = False):
        self.dashboard = dashboard
        self._httpd = _LoadableHTTPServer((host, port), _Handler)
        self._httpd.dashboard = dashboard  # type: ignore[attr-defined]
        self._httpd.verbose = verbose  # type: ignore[attr-defined]
        # one validator index per server: ETags recorded at send time,
        # revalidated on If-None-Match without dispatching the route
        self._httpd.validators = ValidatorIndex()  # type: ignore[attr-defined]
        # one jitter stream per server: deterministic Retry-After spread
        self._httpd.retry_jitter = RetryJitter()  # type: ignore[attr-defined]
        self._thread: Optional[threading.Thread] = None
        self._stopped = False

    @property
    def address(self) -> Tuple[str, int]:
        return self._httpd.server_address[:2]

    @property
    def port(self) -> int:
        """The actually-bound TCP port (resolves ``port=0`` bindings)."""
        return self._httpd.server_address[1]

    @property
    def url(self) -> str:
        host, port = self.address
        return f"http://{host}:{port}"

    @property
    def running(self) -> bool:
        """True between :meth:`start` and :meth:`stop`."""
        return self._thread is not None

    @property
    def validators(self) -> ValidatorIndex:
        """The server's ETag validator index (for tests and reports)."""
        return self._httpd.validators  # type: ignore[attr-defined]

    def start(self) -> "DashboardServer":
        """Start serving on a background thread; returns self."""
        if self._thread is not None:
            raise RuntimeError("server already started")
        if self._stopped:
            raise RuntimeError("server already stopped; build a new one")
        self._thread = threading.Thread(target=self._httpd.serve_forever, daemon=True)
        self._thread.start()
        return self

    def stop(self, grace_s: float = 5.0) -> None:
        """Shut the server down and join its thread (idempotent).

        The listening socket closes unconditionally — even if the accept
        loop takes longer than ``grace_s`` to drain — so the port is
        free for an immediate rebind.
        """
        if self._thread is None:
            if not self._stopped:
                # never started: still release the bound socket
                self._httpd.server_close()
                self._stopped = True
            return
        self._httpd.shutdown()
        self._thread.join(timeout=grace_s)
        self._httpd.server_close()
        self._thread = None
        self._stopped = True

    def __enter__(self) -> "DashboardServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()
