"""The front balancer: one port, N worker dashboards behind it.

:class:`BalancerServer` is the fleet's single public endpoint.  It
proxies every request to a worker process chosen by **cache-affinity
routing**: the request's viewer+route identity (the same
:func:`~repro.web.delivery.request_cache_key` the workers' validator
indexes use) is hashed on a consistent-hash ring
(:class:`~repro.scaleout.ring.HashRing`) over the worker names.  Repeat
requests for the same key land on the same worker, so the fleet's
caches partition the working set — N workers hold N x the entries —
instead of each worker independently missing on everything (the
round-robin failure mode, kept available as ``affinity=False`` for the
A/B control).

Failure handling mirrors the in-process breaker philosophy one level
up: each worker gets a *mini-breaker* (consecutive transport failures
open it; a wall-clock cooldown later, one probe request may half-open
it).  A request whose owner is down is re-hashed along the ring's
preference order and retried **once** on the next healthy worker — a
dead worker means redistributed load and a cold-cache blip, never an
outage.

Operator endpoints aggregate rather than proxy: ``/metrics`` merges
every worker's scrape under a ``worker`` label (exactly how the
federation merges clusters) plus the balancer's own ``repro_balancer_*``
families, and ``/healthz`` nests each worker's health payload.
"""

from __future__ import annotations

import http.client
import json
import threading
from http.server import BaseHTTPRequestHandler
from typing import Dict, List, Mapping, Optional, Tuple
from urllib.parse import urlparse

from repro.federation.metrics import merge_scrapes
from repro.obs.metrics import MetricsRegistry
from repro.web.delivery import request_cache_key
from repro.web.server import _LoadableHTTPServer

from .ring import HashRing

#: headers that are connection-scoped, never forwarded either direction
#: (RFC 9110 §7.6.1), plus the ones the proxy regenerates itself
_HOP_BY_HOP = frozenset(
    {
        "connection",
        "keep-alive",
        "proxy-authenticate",
        "proxy-authorization",
        "te",
        "trailer",
        "transfer-encoding",
        "upgrade",
        "host",
        "server",
        "date",
    }
)


class WorkerBreaker:
    """Per-worker mini circuit breaker, wall-clock based.

    The in-process breakers guard *backends* with sim-time cooldowns;
    out here real processes die in real time, so the cooldown runs on
    the wall clock the balancer actually experiences.  ``threshold``
    consecutive transport failures open the breaker; once ``cooldown_s``
    elapses, probes flow again (half-open) and the next recorded
    outcome closes or re-opens it.  ``allow`` is a pure read — routing
    consults it to *order* candidates, so it must never consume state;
    a few concurrent probes against a still-dead worker each fail fast
    and reroute, which is benign.
    """

    def __init__(self, threshold: int = 1, cooldown_s: float = 2.0):
        if threshold < 1:
            raise ValueError(f"threshold must be >= 1: {threshold}")
        self.threshold = threshold
        self.cooldown_s = cooldown_s
        self._failures = 0
        self._open_until: Optional[float] = None
        self._lock = threading.Lock()

    def allow(self, now: float) -> bool:
        """May a request be sent to this worker right now?"""
        with self._lock:
            return self._open_until is None or now >= self._open_until

    def record_success(self) -> None:
        with self._lock:
            self._failures = 0
            self._open_until = None

    def record_failure(self, now: float) -> None:
        with self._lock:
            self._failures += 1
            if self._failures >= self.threshold:
                self._open_until = now + self.cooldown_s

    def state(self, now: float) -> str:
        with self._lock:
            if self._open_until is None:
                return "closed"
            return "open" if now < self._open_until else "half-open"


class _ProxyError(Exception):
    """One failed proxy attempt (transport-level, worker unreachable)."""


class _BalancerHandler(BaseHTTPRequestHandler):
    server_version = "ReproBalancer/1.0"
    protocol_version = "HTTP/1.1"

    @property
    def balancer(self) -> "BalancerServer":
        return self.server.balancer  # type: ignore[attr-defined]

    def log_message(self, fmt: str, *args) -> None:  # noqa: A003
        if self.balancer.verbose:
            super().log_message(fmt, *args)

    def do_GET(self) -> None:  # noqa: N802
        try:
            self._handle()
        except (BrokenPipeError, ConnectionResetError):
            pass
        except Exception as exc:  # noqa: BLE001 - no traceback escapes
            try:
                self._send_json(
                    500, {"ok": False, "error": f"{type(exc).__name__}: {exc}"}
                )
            except OSError:
                pass

    do_HEAD = do_GET  # noqa: N815

    def _handle(self) -> None:
        path = urlparse(self.path).path
        if path == "/healthz":
            self._send_json(*self.balancer.healthz())
            return
        if path == "/metrics":
            self._send_text(200, self.balancer.merged_metrics())
            return
        self._proxy()

    # -- proxying --------------------------------------------------------

    def _proxy(self) -> None:
        bal = self.balancer
        candidates, routing = bal.route(
            self.headers.get("X-Remote-User"),
            self.headers.get("X-Admin", "") == "1",
            self.path,
        )
        attempted: List[str] = []
        for worker in candidates:
            if len(attempted) >= 2:  # initial attempt + one retry, only
                break
            attempted.append(worker)
            try:
                status, headers, body = bal.fetch(
                    worker, self.command, self.path, self.headers
                )
            except _ProxyError:
                continue
            rerouted = worker != candidates[0] or len(attempted) > 1
            outcome = "rerouted" if rerouted else routing
            bal.requests_total.inc(worker=worker, routing=outcome)
            if len(attempted) > 1:
                bal.retries_total.inc()
            self._relay(status, headers, body)
            return
        bal.unroutable_total.inc()
        self._send_json(
            503,
            {
                "ok": False,
                "error": "no healthy worker available",
                "status": 503,
                "workers_tried": attempted,
            },
        )

    def _relay(
        self,
        status: int,
        headers: List[Tuple[str, str]],
        body: bytes,
    ) -> None:
        """Re-send one upstream response on the client connection."""
        has_body = self.command != "HEAD" and status != 304
        self.send_response(status)
        for name, value in headers:
            lname = name.lower()
            if lname in _HOP_BY_HOP:
                continue
            if lname == "content-length":
                # recomputed below for bodies; preserved verbatim for
                # HEAD so header parity with GET survives the proxy
                if self.command == "HEAD" and status != 304:
                    self.send_header(name, value)
                continue
            self.send_header(name, value)
        if has_body:
            self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        if has_body and body:
            self.wfile.write(body)

    # -- plain senders ---------------------------------------------------

    def _send_json(self, status: int, payload: Dict) -> None:
        body = json.dumps(payload).encode()
        self._send_body(status, body, "application/json")

    def _send_text(self, status: int, text: str) -> None:
        self._send_body(
            status, text.encode(), "text/plain; version=0.0.4; charset=utf-8"
        )

    def _send_body(self, status: int, body: bytes, ctype: str) -> None:
        self.send_response(status)
        self.send_header("Content-Type", ctype)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        if self.command != "HEAD":
            self.wfile.write(body)


class BalancerServer:
    """The fleet's front proxy; same lifecycle shape as
    :class:`~repro.web.server.DashboardServer`.

    Parameters
    ----------
    workers:
        Mapping of worker name -> ``(host, port)``.  Names become ring
        nodes and the ``worker`` label on merged metrics.
    affinity:
        Route by cache-affinity hash (the default).  ``False`` degrades
        to pure round-robin — the duplicated-cache control arm of the
        scale-out benchmark.
    """

    def __init__(
        self,
        workers: Mapping[str, Tuple[str, int]],
        host: str = "127.0.0.1",
        port: int = 0,
        affinity: bool = True,
        proxy_timeout_s: float = 30.0,
        breaker_threshold: int = 1,
        breaker_cooldown_s: float = 2.0,
        verbose: bool = False,
        clock=None,
    ):
        if not workers:
            raise ValueError("a balancer needs at least one worker")
        self.workers: Dict[str, Tuple[str, int]] = dict(workers)
        self.affinity = affinity
        self.proxy_timeout_s = proxy_timeout_s
        self.verbose = verbose
        # injectable wall clock (monotonic seconds) for breaker tests
        import time as _time

        self._wall = clock or _time.monotonic
        self.ring = HashRing(self.workers)
        self.breakers: Dict[str, WorkerBreaker] = {
            name: WorkerBreaker(breaker_threshold, breaker_cooldown_s)
            for name in self.workers
        }
        self._rr = 0
        self._rr_lock = threading.Lock()

        self.registry = MetricsRegistry()
        self.requests_total = self.registry.counter(
            "repro_balancer_requests_total",
            "Requests proxied to workers by routing decision",
            labelnames=("worker", "routing"),
        )
        self.proxy_failures_total = self.registry.counter(
            "repro_balancer_proxy_failures_total",
            "Transport-level proxy failures per worker",
            labelnames=("worker",),
        )
        self.retries_total = self.registry.counter(
            "repro_balancer_retries_total",
            "Requests that needed the retry-once re-hash",
        )
        self.unroutable_total = self.registry.counter(
            "repro_balancer_unroutable_total",
            "Requests that exhausted every candidate worker",
        )
        self.worker_up = self.registry.gauge(
            "repro_balancer_worker_up",
            "1 if the worker's mini-breaker is closed, else 0",
            labelnames=("worker",),
        )
        self.workers_gauge = self.registry.gauge(
            "repro_balancer_workers", "Workers registered with the balancer"
        )
        self.workers_gauge.set(len(self.workers))
        for name in self.workers:
            self.worker_up.set(1.0, worker=name)

        self._httpd = _LoadableHTTPServer((host, port), _BalancerHandler)
        self._httpd.balancer = self  # type: ignore[attr-defined]
        self._thread: Optional[threading.Thread] = None
        self._stopped = False

    # -- routing ---------------------------------------------------------

    def route(
        self, username: Optional[str], is_admin: bool, path: str
    ) -> Tuple[List[str], str]:
        """Candidate workers (healthy-first, at most all of them) and
        the routing label for the first-choice outcome.

        Affinity requests order candidates along the ring's preference
        walk for the request's cache key; viewer-less requests (and the
        round-robin control) rotate through the fleet.  Unhealthy
        workers sink to the back of the candidate list rather than
        vanishing: if *every* breaker is open the request still probes,
        because a guaranteed 503 is worse than an attempt.
        """
        parsed = urlparse(path)
        if self.affinity and username is not None:
            key = request_cache_key(
                username, is_admin, parsed.path, parsed.query
            )
            ordered = self.ring.preference(key)
            routing = "affinity"
        else:
            names = list(self.workers)
            with self._rr_lock:
                start = self._rr
                self._rr = (self._rr + 1) % len(names)
            ordered = names[start:] + names[:start]
            routing = "round_robin"
        now = self._wall()
        healthy = [w for w in ordered if self.breakers[w].allow(now)]
        unhealthy = [w for w in ordered if w not in healthy]
        return healthy + unhealthy, routing

    # -- worker I/O ------------------------------------------------------

    def fetch(
        self,
        worker: str,
        method: str,
        path: str,
        headers: Optional[Mapping[str, str]] = None,
    ) -> Tuple[int, List[Tuple[str, str]], bytes]:
        """One upstream request; raises :class:`_ProxyError` on
        transport failure (and records it on the worker's breaker)."""
        host, port = self.workers[worker]
        fwd = {
            name: value
            for name, value in (headers or {}).items()
            if name.lower() not in _HOP_BY_HOP
        }
        fwd["Connection"] = "close"
        conn = http.client.HTTPConnection(
            host, port, timeout=self.proxy_timeout_s
        )
        try:
            conn.request(method, path, headers=fwd)
            resp = conn.getresponse()
            body = resp.read()
            result = (resp.status, list(resp.getheaders()), body)
        except (OSError, http.client.HTTPException) as exc:
            self.breakers[worker].record_failure(self._wall())
            self.proxy_failures_total.inc(worker=worker)
            raise _ProxyError(f"{worker}: {type(exc).__name__}: {exc}") from exc
        finally:
            conn.close()
        self.breakers[worker].record_success()
        return result

    # -- operator endpoints ----------------------------------------------

    def healthz(self) -> Tuple[int, Dict]:
        """Nested fleet health: the balancer is ok while >= 1 worker is."""
        now = self._wall()
        nested: Dict[str, Dict] = {}
        up = 0
        for name in self.workers:
            if not self.breakers[name].allow(now):
                nested[name] = {
                    "ok": False, "state": self.breakers[name].state(now)
                }
                continue
            try:
                status, _headers, body = self.fetch(name, "GET", "/healthz")
                payload = json.loads(body.decode())
            except (_ProxyError, ValueError):
                nested[name] = {"ok": False, "state": "unreachable"}
                continue
            payload["state"] = "up" if status == 200 else f"http-{status}"
            nested[name] = payload
            if status == 200:
                up += 1
        ok = up > 0
        return 200 if ok else 503, {
            "ok": ok,
            "service": "repro-balancer",
            "routing": "affinity" if self.affinity else "round_robin",
            "workers_total": len(self.workers),
            "workers_up": up,
            "workers": nested,
        }

    def merged_metrics(self) -> str:
        """Every worker's scrape under a ``worker`` label, plus the
        balancer's own families (no label — they describe the fleet)."""
        now = self._wall()
        sections: Dict[str, str] = {}
        for name in self.workers:
            if not self.breakers[name].allow(now):
                self.worker_up.set(0.0, worker=name)
                continue
            try:
                status, _headers, body = self.fetch(name, "GET", "/metrics")
            except _ProxyError:
                self.worker_up.set(0.0, worker=name)
                continue
            if status == 200:
                sections[name] = body.decode()
                self.worker_up.set(1.0, worker=name)
            else:
                self.worker_up.set(0.0, worker=name)
        return merge_scrapes(
            sections, base=self.registry.render(), label="worker"
        )

    # -- lifecycle -------------------------------------------------------

    @property
    def port(self) -> int:
        return self._httpd.server_address[1]

    @property
    def url(self) -> str:
        host, port = self._httpd.server_address[:2]
        return f"http://{host}:{port}"

    def start(self) -> "BalancerServer":
        if self._thread is not None:
            raise RuntimeError("balancer already started")
        if self._stopped:
            raise RuntimeError("balancer already stopped; build a new one")
        self._thread = threading.Thread(
            target=self._httpd.serve_forever, daemon=True
        )
        self._thread.start()
        return self

    def stop(self, grace_s: float = 5.0) -> None:
        if self._thread is None:
            if not self._stopped:
                self._httpd.server_close()
                self._stopped = True
            return
        self._httpd.shutdown()
        self._thread.join(timeout=grace_s)
        self._httpd.server_close()
        self._thread = None
        self._stopped = True

    def __enter__(self) -> "BalancerServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()
