"""Span wrappers around the public entry points of each serving layer.

Installed only in a traced server process (``server.py --trace 1``); the
program's own code is not changed.  Every wrapped call records one span
``(id, parent, request id, layer, start, end, note)`` in memory.  The
request id arrives in the ``X-Bench-Request-Id`` header; it and the open
span follow work onto pool threads through the scatter wrappers, so a
homepage's widget spans land under the request that caused them.  Work
no request caused (refresh-ahead revalidation) has request id ``None``.
The spans are written out once, when the run ends.

Layers are named after the modules they live in:

=====================  ====================================================
``web.server.*``       request span (request parse to last write), ``parse``
                       (``parse_request``), ``json`` (``json.dumps`` as bound
                       in :mod:`repro.web.server`), ``write`` (socket writes)
``web.delivery.*``     ``validate`` (``ValidatorIndex.validate``/``record``),
                       ``gzip`` (``gzip.compress`` and the streamed zlib
                       compressor)
``faults.admission``   ``AdmissionController.admit_route``
``core.routes``        ``RouteRegistry.call``
``core.pages``         route handlers and each step of ``stream_homepage``
``core.rendering``     ``render_document``, ``Template.render``, outermost
                       ``Element.render``
``core.workers``       the request thread blocked in ``scatter_gather`` or
                       on a ``scatter_stream`` result
``core.caching``       ``TTLCache.lookup``
``faults.resilience``  ``ResilientFetcher.fetch``
``slurm.commands.*``   ``run`` (``Squeue``/``Sinfo``/``Sacct.run``,
                       ``Scontrol.show_*``), ``parse`` (``parse_*`` as bound
                       in :mod:`repro.core.routes`)
``core.records``       ``JobRecord.from_*``, ``NodeRecord.from_scontrol_block``
``obs``                entering/leaving ``Tracer.span``,
                       ``Observability.record_*``
=====================  ====================================================
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import json
import threading
from time import perf_counter
from typing import Any, Callable, List, Optional

REQUEST_ID_HEADER = "X-Bench-Request-Id"


class _ThreadState(threading.local):
    def __init__(self) -> None:
        self.rid: Optional[str] = None
        #: ids of this thread's open spans, innermost last
        self.stack: List[int] = []
        #: parent of this thread's outermost span (set on pool threads)
        self.base: int = 0
        #: open request span (id, start) between parse and the last write
        self.request: Optional[tuple] = None
        self.rendering = False


class SpanLog:
    """In-memory span store shared by every thread of the server."""

    def __init__(self) -> None:
        #: finished spans: [id, parent, rid, layer, t0, t1, note]
        self.spans: List[list] = []
        #: wall time of each measured tick barrier (advance + submissions)
        self.ticks_ms: List[float] = []
        #: (rid, seconds) from a fan-out task's enqueue to its start
        self.queue_waits: List[tuple] = []
        self._ids = itertools.count(1)
        self.state = _ThreadState()

    def open(self, layer: str) -> tuple:
        state = self.state
        sid = next(self._ids)
        parent = state.stack[-1] if state.stack else state.base
        state.stack.append(sid)
        return (sid, parent, state.rid, layer, perf_counter())

    def close(self, token: tuple, note: Any = None) -> None:
        end = perf_counter()
        self.state.stack.pop()
        sid, parent, rid, layer, start = token
        self.spans.append([sid, parent, rid, layer, start, end, note])

    def timed(self, layer: str, fn: Callable, note: Callable = None) -> Callable:
        """``fn`` wrapped in a span; ``note(result)`` annotates it."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            token = self.open(layer)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                self.close(token, note(result) if note is not None else None)

        return wrapper

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(
                {
                    "spans": self.spans,
                    "ticks_ms": self.ticks_ms,
                    "queue_waits": self.queue_waits,
                },
                fh,
            )


class _ModuleProxy:
    """Stands in for a module bound in another module's globals, with
    some attributes replaced and every other one read through."""

    def __init__(self, module, **overrides) -> None:
        self._module = module
        self.__dict__.update(overrides)

    def __getattr__(self, name: str) -> Any:
        return getattr(self._module, name)


class _TimedCompressor:
    """A zlib compressor whose calls are ``web.delivery.gzip`` spans."""

    def __init__(self, log: SpanLog, inner) -> None:
        self._log = log
        self._inner = inner

    def compress(self, data: bytes) -> bytes:
        token = self._log.open("web.delivery.gzip")
        out = b""
        try:
            out = self._inner.compress(data)
            return out
        finally:
            self._log.close(token, [len(data), len(out)])

    def flush(self, *args) -> bytes:
        token = self._log.open("web.delivery.gzip")
        out = b""
        try:
            out = self._inner.flush(*args)
            return out
        finally:
            self._log.close(token, [0, len(out)])


class _TimedWriter:
    """Wraps a handler's ``wfile``: each write is a ``web.server.write``."""

    def __init__(self, log: SpanLog, inner) -> None:
        self._log = log
        self._inner = inner

    def write(self, data) -> int:
        token = self._log.open("web.server.write")
        try:
            return self._inner.write(data)
        finally:
            self._log.close(token)

    def __getattr__(self, name: str) -> Any:
        return getattr(self._inner, name)


class _TimedSpanContext:
    """Times entering and leaving one ``Tracer.span`` as ``obs``, leaving
    the body of the ``with`` block to the spans inside it."""

    def __init__(self, log: SpanLog, inner) -> None:
        self._log = log
        self._inner = inner

    def __enter__(self):
        token = self._log.open("obs")
        try:
            return self._inner.__enter__()
        finally:
            self._log.close(token)

    def __exit__(self, *exc):
        token = self._log.open("obs")
        try:
            return self._inner.__exit__(*exc)
        finally:
            self._log.close(token)


def _install_server(log: SpanLog) -> None:
    import gzip
    import json as json_module
    import zlib

    from repro.web import server as web_server

    handler = web_server._Handler
    state = log.state
    orig_parse = handler.parse_request
    orig_do_get = handler.do_GET
    orig_setup = handler.setup

    def parse_request(self):
        start = perf_counter()
        ok = orig_parse(self)
        end = perf_counter()
        rid = self.headers.get(REQUEST_ID_HEADER) if ok else None
        sid = next(log._ids)
        state.rid = rid
        state.stack = [sid]
        state.base = 0
        state.request = (sid, start)
        log.spans.append([next(log._ids), sid, rid, "web.server.parse",
                          start, end, None])
        if not ok:
            _close_request()
        return ok

    def _close_request() -> None:
        if state.request is not None:
            sid, start = state.request
            log.spans.append([sid, 0, state.rid, "web.server.request",
                              start, perf_counter(), None])
        state.request = None
        state.rid = None
        state.stack = []

    def do_get(self):
        try:
            orig_do_get(self)
        finally:
            _close_request()

    def setup(self):
        orig_setup(self)
        self.wfile = _TimedWriter(log, self.wfile)

    handler.parse_request = parse_request
    handler.do_GET = do_get
    handler.setup = setup
    web_server.json = _ModuleProxy(
        json_module, dumps=log.timed("web.server.json", json_module.dumps)
    )

    def compress(data, *args, **kwargs):
        token = log.open("web.delivery.gzip")
        out = b""
        try:
            out = gzip.compress(data, *args, **kwargs)
            return out
        finally:
            log.close(token, [len(data), len(out)])

    web_server.gzip = _ModuleProxy(gzip, compress=compress)
    web_server.zlib = _ModuleProxy(
        zlib,
        compressobj=lambda *a, **k: _TimedCompressor(
            log, zlib.compressobj(*a, **k)
        ),
    )

    from repro.web.delivery import ValidatorIndex

    ValidatorIndex.validate = log.timed(
        "web.delivery.validate", ValidatorIndex.validate,
        note=lambda record: record is not None,
    )
    ValidatorIndex.record = log.timed(
        "web.delivery.validate", ValidatorIndex.record
    )


def _install_workers(log: SpanLog) -> None:
    from repro.core.workers import WorkerPool

    state = log.state
    orig_gather = WorkerPool.scatter_gather
    orig_stream = WorkerPool.scatter_stream

    def as_task(fn: Callable, parent: int, rid: Optional[str]) -> Callable:
        queued = perf_counter()

        def run():
            saved = (state.rid, state.stack, state.base)
            state.rid, state.stack, state.base = rid, [], parent
            log.queue_waits.append((rid, perf_counter() - queued))
            try:
                return fn()
            finally:
                state.rid, state.stack, state.base = saved

        return run

    def scatter_gather(self, fns):
        token = log.open("core.workers")
        try:
            return orig_gather(
                self, [as_task(fn, token[0], token[2]) for fn in fns]
            )
        finally:
            log.close(token)

    def scatter_stream(self, fns):
        token = log.open("core.workers")
        try:
            inner = orig_stream(
                self, [as_task(fn, token[0], token[2]) for fn in fns]
            )
        finally:
            log.close(token)
        return _timed_iter(log, "core.workers", inner)

    WorkerPool.scatter_gather = scatter_gather
    WorkerPool.scatter_stream = scatter_stream


def _timed_iter(log: SpanLog, layer: str, inner):
    """Yield from ``inner``, timing each step as one ``layer`` span."""
    while True:
        token = log.open(layer)
        try:
            item = next(inner)
        except StopIteration:
            log.close(token)
            return
        except BaseException:
            log.close(token)
            raise
        log.close(token)
        yield item


def _install_routes(log: SpanLog, dash) -> None:
    from repro.core import dashboard as dashboard_module
    from repro.core import routes as routes_module
    from repro.core.routes import RouteRegistry
    from repro.faults.admission import AdmissionController

    RouteRegistry.call = log.timed("core.routes", RouteRegistry.call)
    AdmissionController.admit_route = log.timed(
        "faults.admission", AdmissionController.admit_route,
        note=lambda decision: bool(decision and decision.allowed),
    )
    registry = dash.registry
    for route in registry.all_routes():
        registry.unregister(route.name)
        registry.register(dataclasses.replace(
            route, handler=log.timed("core.pages", route.handler)
        ))
    orig_stream = dashboard_module.stream_homepage

    def stream_homepage(*args, **kwargs):
        return _timed_iter(log, "core.pages", orig_stream(*args, **kwargs))

    dashboard_module.stream_homepage = stream_homepage

    for name in ("parse_squeue", "parse_sinfo", "parse_sacct",
                 "parse_scontrol_blocks"):
        setattr(routes_module, name, log.timed(
            "slurm.commands.parse", getattr(routes_module, name)
        ))


def _install_data(log: SpanLog) -> None:
    from repro.core.caching import TTLCache
    from repro.core.records import JobRecord, NodeRecord
    from repro.faults.resilience import ResilientFetcher
    from repro.slurm.commands import Sacct, Scontrol, Sinfo, Squeue

    TTLCache.lookup = log.timed(
        "core.caching", TTLCache.lookup,
        note=lambda lookup: lookup.result if lookup is not None else "error",
    )
    ResilientFetcher.fetch = log.timed(
        "faults.resilience", ResilientFetcher.fetch,
        note=lambda outcome: (
            [outcome.attempts, outcome.degraded] if outcome is not None
            else None
        ),
    )
    for cls, names in (
        (Squeue, ("run",)),
        (Sinfo, ("run",)),
        (Sacct, ("run",)),
        (Scontrol, ("show_job", "show_jobs", "show_node", "show_nodes",
                    "show_assoc")),
    ):
        for name in names:
            setattr(cls, name, log.timed(
                "slurm.commands.run", getattr(cls, name)
            ))
    for cls, names in (
        (JobRecord, ("from_sacct_row", "from_squeue_row",
                     "from_scontrol_block")),
        (NodeRecord, ("from_scontrol_block",)),
    ):
        for name in names:
            bound = getattr(cls, name)
            setattr(cls, name, classmethod(_drop_cls(
                log.timed("core.records", bound)
            )))


def _drop_cls(fn: Callable) -> Callable:
    def method(cls, *args, **kwargs):
        return fn(*args, **kwargs)

    return method


def _install_rendering(log: SpanLog) -> None:
    from repro.core import rendering
    from repro.core.pages import homepage
    from repro.core.rendering import document
    from repro.core.rendering.html import Element
    from repro.core.rendering.templates import Template

    timed_document = log.timed("core.rendering", document.render_document)
    for module in (document, rendering, homepage):
        module.render_document = timed_document
    Template.render = log.timed("core.rendering", Template.render)

    state = log.state
    orig_render = Element.render

    def render(self):
        # only the outermost call is a span: children render recursively
        if state.rendering:
            return orig_render(self)
        state.rendering = True
        token = log.open("core.rendering")
        try:
            return orig_render(self)
        finally:
            log.close(token)
            state.rendering = False

    Element.render = render


def _install_obs(log: SpanLog) -> None:
    from repro.obs import Observability
    from repro.obs.tracing import Tracer

    orig_span = Tracer.span

    def span(self, *args, **kwargs):
        return _TimedSpanContext(log, orig_span(self, *args, **kwargs))

    Tracer.span = span
    for name in ("record_route", "record_http", "record_not_modified",
                 "record_bytes_saved"):
        setattr(Observability, name, log.timed(
            "obs", getattr(Observability, name)
        ))


def install(dash) -> SpanLog:
    """Wrap every layer boundary of this process; returns the span log."""
    log = SpanLog()
    _install_server(log)
    _install_workers(log)
    _install_routes(log, dash)
    _install_data(log)
    _install_rendering(log)
    _install_obs(log)
    return log
