"""Benchmark the dashboard as a browser sees it, end to end and per layer.

Usage, from the repository root::

    python3 perfbench/run.py --workload browse --seed 1 --seconds 20 --trace 0

One run:

1. **Verify.**  A fresh server replays the warm-up and open-loop ticks of
   a short fixed-seed plan of the workload over one connection, draining
   the worker pool after every response, and compares each status and
   decoded-body sha256 with ``perfbench/digests/<workload>.json``.
2. **Measure.**  A fresh server gets the ``--seed`` plan over two
   persistent connections: untimed warm-up ticks, then the open-loop
   phase (ticks start on a fixed wall schedule, every request of a tick
   is due at its start and timed from then), then the closed-loop phase
   (each connection sends its next request when the last completes).
   The cluster steps at every tick barrier, after the worker pool drains.
3. **Set up** once more (``--trace 0``) so ``setup_s`` is a median of
   three fresh starts; or (``--trace 1``) replay the same plan against a
   server with the span wrappers of :mod:`perfbench.layers` installed.

The last stdout line is one JSON object: ``correct``, ``attempted``,
``failed`` and the end-to-end (``--trace 0``) or per-layer (``--trace 1``)
metrics.  A failed correctness check exits with status 1; a run that
cannot start the server exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import select
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench import stats  # noqa: E402
from perfbench.checks import (  # noqa: E402
    decoded_body,
    digest,
    structural_problems,
)
from perfbench.client import TRANSPORT_ERROR, Connection, Response  # noqa: E402
from perfbench.layers import REQUEST_ID_HEADER  # noqa: E402
from perfbench.plan import (  # noqa: E402
    CONNECTIONS,
    MY_JOBS_MAX_AGE_S,
    MY_JOBS_PATH,
    WORKLOADS,
    Catalog,
    Plan,
    Request,
    Tick,
    Workload,
    build_plan,
    plan_digest,
)

#: the verification replay: a short plan of a fixed seed
VERIFY_SEED = 7
VERIFY_SECONDS = 8.0
DIGEST_DIR = ROOT / "perfbench" / "digests"
#: scratch files (span dumps) stay inside the checkout
OUT_DIR = ROOT / ".perfbench"
SERVER_START_TIMEOUT_S = 120.0
COMMAND_TIMEOUT_S = 60.0
P95 = 0.95


def declared_units(section: str) -> Dict[str, str]:
    """Metric name -> unit, in the order ``BENCHMARK.json`` lists them
    under ``section`` (``end_to_end`` or ``per_layer``)."""
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in doc[section]}


class ServerError(RuntimeError):
    """The server process could not be started or stopped answering."""


# -- the server process ----------------------------------------------------------


class ServerProcess:
    """One fresh ``python3 -m perfbench.server`` interpreter."""

    def __init__(self, trace: bool) -> None:
        env = dict(os.environ)
        src = str(ROOT / "src")
        env["PYTHONPATH"] = src + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        self.launched_at = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "perfbench.server", "--trace", str(int(trace))],
            cwd=str(ROOT),
            env=env,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        try:
            ready = self._read(SERVER_START_TIMEOUT_S)
            self.port = int(ready["port"])
            self.pid = int(ready["pid"])
            probe = Connection("127.0.0.1", self.port)
            try:
                first = probe.get("/healthz", {"Accept-Encoding": "gzip"})
                if first.status != 200:
                    raise ServerError(f"/healthz answered {first.status}")
                #: launch of the interpreter to its first answered request
                self.setup_s = first.done_at - self.launched_at
                max_ages = client_max_ages(probe, ready["catalog"]["users"][0])
            finally:
                probe.close()
            self.catalog = Catalog.from_json(ready["catalog"], max_ages)
        except BaseException:
            self.kill()
            raise

    def _read(self, timeout_s: float) -> dict:
        ready, _, _ = select.select([self.proc.stdout], [], [], timeout_s)
        if not ready:
            raise ServerError(f"server silent for {timeout_s:.0f} s")
        line = self.proc.stdout.readline()
        if not line:
            raise ServerError(
                f"server exited with status {self.proc.wait()} "
                "(is the repository's src/ present?)"
            )
        return json.loads(line)

    def command(self, op: str, **args) -> dict:
        self.proc.stdin.write(json.dumps({"op": op, **args}) + "\n")
        self.proc.stdin.flush()
        reply = self._read(COMMAND_TIMEOUT_S)
        if not reply.get("ok"):
            raise ServerError(f"{op} failed: {reply}")
        return reply

    def cpu_s(self) -> float:
        """User + system CPU of the whole server process: every thread,
        including ones that have already exited."""
        fields = Path(f"/proc/{self.pid}/stat").read_text().rsplit(")", 1)[1]
        utime, stime = fields.split()[11:13]
        return (int(utime) + int(stime)) / os.sysconf("SC_CLK_TCK")

    def peak_rss_mb(self) -> float:
        for line in Path(f"/proc/{self.pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise ServerError("no VmHWM in /proc status")

    def stop(self) -> None:
        try:
            self.command("quit")
            self.proc.wait(timeout=10)
        except (ServerError, OSError, ValueError, subprocess.TimeoutExpired):
            self.kill()
        finally:
            self._close_pipes()

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self._close_pipes()

    def _close_pipes(self) -> None:
        for pipe in (self.proc.stdin, self.proc.stdout):
            try:
                pipe.close()
            except OSError:
                pass


def client_max_ages(conn: Connection, user: str) -> Dict[str, float]:
    """Client max-age of each polled route: the widgets' from the
    homepage manifest, which the dashboard's client cache follows, and
    My Jobs' (not in the manifest)."""
    response = conn.get(
        "/api/v1/homepage", {"X-Remote-User": user, "Accept-Encoding": "gzip"}
    )
    if response.status != 200:
        raise ServerError(f"homepage manifest answered {response.status}")
    manifest = json.loads(decoded_body(response))["data"]
    ages = {w["path"]: float(w["max_age_s"]) for w in manifest["widgets"]}
    ages[MY_JOBS_PATH] = MY_JOBS_MAX_AGE_S
    return ages


# -- sending ----------------------------------------------------------------------


@dataclass
class Record:
    """One sent request and what came back."""

    rid: str
    request: Request
    response: Response
    sent_etag: Optional[str]
    #: open loop: when the request was due (its tick's start)
    due: Optional[float] = None
    #: when the generator could first have sent it: due, or the moment
    #: its connection came free; ``sent_at - ready`` is generator lag
    ready: float = 0.0


@dataclass
class PhaseResult:
    records: List[Record] = field(default_factory=list)
    #: closed loop: seconds the connections were serving (barriers excluded)
    busy_s: float = 0.0
    #: open loop: ticks that fell due while the generator was still busy
    #: with the previous tick or its barrier, and their summed lateness
    late_ticks: int = 0
    late_s: float = 0.0


class Generator:
    """Two persistent connections and the client-side ETag cache."""

    #: the pacing clock (a test swaps in a fake one)
    now = staticmethod(time.perf_counter)
    sleep = staticmethod(time.sleep)

    def __init__(self, server: ServerProcess, workload: Workload,
                 connections: int = CONNECTIONS) -> None:
        self.server = server
        self.workload = workload
        self.conns = [
            Connection("127.0.0.1", server.port) for _ in range(connections)
        ]
        self.etags: Dict[Tuple[str, str], str] = {}
        self._count = 0
        self._lock = threading.Lock()

    def close(self) -> None:
        for conn in self.conns:
            conn.close()

    def send(self, conn: Connection, req: Request) -> Record:
        with self._lock:
            self._count += 1
            rid = str(self._count)
        key = (req.user, req.target)
        etag = self.etags.get(key) if req.conditional else None
        headers = {
            "X-Remote-User": req.user,
            "Accept-Encoding": "gzip",
            REQUEST_ID_HEADER: rid,
        }
        if etag is not None:
            headers["If-None-Match"] = etag
        response = conn.get(req.target, headers)
        new_etag = response.headers.get("etag")
        if response.status == 200 and new_etag:
            self.etags[key] = new_etag
        return Record(rid, req, response, etag)

    def run_tick(self, tick: Tick,
                 due: Optional[float]) -> Tuple[List[Record], float]:
        """Send one tick's requests over every connection.

        Open loop (``due`` set): every request of the tick is due at
        ``due`` and goes out as soon as a connection is free (or, for a
        tick with lanes, as soon as its own connection is).  Closed loop
        (``due`` None): each connection sends its next request when the
        last completes.  Returns the records in plan order and the
        seconds the tick kept the connections busy.
        """
        n = len(tick.requests)
        records: List[Optional[Record]] = [None] * n
        if tick.lanes:
            queues = [
                iter([i for i in range(n) if tick.lanes[i] == c])
                for c in range(len(self.conns))
            ]
        else:
            queues = [iter(range(n))] * len(self.conns)
        lock = threading.Lock()
        start = time.perf_counter()

        def worker(c: int) -> None:
            free_at = start if due is None else max(start, due)
            while True:
                with lock:
                    i = next(queues[c], None)
                if i is None:
                    return
                record = self.send(self.conns[c], tick.requests[i])
                record.due = due
                record.ready = free_at
                free_at = record.response.done_at
                records[i] = record

        helpers = [
            threading.Thread(target=worker, args=(c,), daemon=True)
            for c in range(1, len(self.conns))
        ]
        for thread in helpers:
            thread.start()
        worker(0)
        for thread in helpers:
            thread.join()
        busy = time.perf_counter() - start
        return records, busy  # type: ignore[return-value]

    def barrier(self, tick: Tick, measured: bool) -> None:
        """Drain the server's pool, step the cluster, submit the jobs."""
        self.server.command(
            "tick",
            advance_s=self.workload.sim_step_s * tick.span,
            submit=[sub.__dict__ for sub in tick.submissions],
            measured=measured,
        )

    def run_phase(self, ticks: Sequence[Tick], paced: bool,
                  measured: bool = True) -> PhaseResult:
        """Replay ``ticks``.  Paced tick ``i`` is due ``i * tick_wall_s``
        after the phase starts, a schedule that is never reset: a tick
        that falls due while the previous one or its barrier is still
        running starts late, and its requests' latencies carry the
        lateness (no coordinated omission)."""
        result = PhaseResult()
        phase_start = self.now()
        for i, tick in enumerate(ticks):
            due = None
            if paced:
                due = phase_start + i * self.workload.tick_wall_s
                delay = due - self.now()
                if delay > 0:
                    self.sleep(delay)
                elif i > 0:
                    result.late_ticks += 1
                    result.late_s -= delay
            records, busy = self.run_tick(tick, due)
            result.records.extend(records)
            result.busy_s += busy
            self.barrier(tick, measured)
        return result

    def scrape_rpcs(self) -> Dict[str, float]:
        """slurmctld/slurmdbd RPC totals from ``/metrics``."""
        response = self.conns[0].get("/metrics", {"Accept-Encoding": "gzip"})
        if response.status != 200:
            raise ServerError(f"/metrics answered {response.status}")
        text = decoded_body(response).decode()
        totals: Dict[str, float] = defaultdict(float)
        for match in re.finditer(
            r'^repro_daemon_rpcs_total\{([^}]*)\}\s+(\S+)$', text, re.M
        ):
            daemon = re.search(r'daemon="([^"]*)"', match.group(1))
            if daemon:
                totals[daemon.group(1)] += float(match.group(2))
        return totals


def install_outage(gen: Generator, plan: Plan) -> None:
    if plan.outage_ticks is None:
        return
    step = gen.workload.sim_step_s
    first, end = plan.outage_ticks
    gen.server.command("outage", start_s=first * step, end_s=end * step)


# -- phases -------------------------------------------------------------------------


@dataclass
class Measurement:
    open: PhaseResult
    closed: PhaseResult
    warmup: PhaseResult
    cpu_s: float
    rpcs: Dict[str, float]
    rss_mb: float

    @property
    def measured(self) -> List[Record]:
        return self.open.records + self.closed.records


def measure(server: ServerProcess, workload: Workload, plan: Plan) -> Measurement:
    gen = Generator(server, workload)
    try:
        warmup = gen.run_phase(plan.warmup, paced=False, measured=False)
        install_outage(gen, plan)
        rpcs_before = gen.scrape_rpcs()
        cpu_before = server.cpu_s()
        open_phase = gen.run_phase(plan.open_ticks, paced=True)
        closed_phase = gen.run_phase(plan.closed_ticks, paced=False)
        cpu = server.cpu_s() - cpu_before
        rpcs_after = gen.scrape_rpcs()
        rss = server.peak_rss_mb()
    finally:
        gen.close()
    rpcs = {
        name: rpcs_after.get(name, 0.0) - rpcs_before.get(name, 0.0)
        for name in ("slurmctld", "slurmdbd")
    }
    return Measurement(open_phase, closed_phase, warmup, cpu, rpcs, rss)


def verify(server: ServerProcess, workload: Workload,
           write: bool = False) -> List[str]:
    """Byte-exact replay against the committed digests; returns problems."""
    plan = build_plan(workload, server.catalog, VERIFY_SEED, VERIFY_SECONDS)
    gen = Generator(server, workload, connections=1)
    observed = []

    def replay(ticks: Sequence[Tick]) -> List[str]:
        for tick in ticks:
            for req in tick.requests:
                record = gen.send(gen.conns[0], req)
                server.command("drain")
                problems = structural_problems(
                    record.response, workload.expected, record.sent_etag
                )
                if problems:
                    return [f"verify {req.target}: {p}" for p in problems]
                status, sha = digest(record.response)
                observed.append(f"{status} {sha}")
            gen.barrier(tick, measured=False)
        return []

    try:
        problems = replay(plan.warmup)
        if not problems:
            install_outage(gen, plan)
            problems = replay(plan.open_ticks)
    finally:
        gen.close()
    if problems:
        return problems
    path = DIGEST_DIR / f"{workload.name}.json"
    doc = {
        "workload": workload.name,
        "seed": VERIFY_SEED,
        "seconds": VERIFY_SECONDS,
        "plan_sha256": plan_digest(plan),
        "responses": observed,
    }
    if write:
        DIGEST_DIR.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(doc, indent=1) + "\n")
        return []
    expected = json.loads(path.read_text())
    if expected["plan_sha256"] != doc["plan_sha256"]:
        return ["verification plan differs from the one the digests record"]
    problems = []
    if len(expected["responses"]) != len(observed):
        problems.append(
            f"{len(observed)} responses, digests list "
            f"{len(expected['responses'])}"
        )
    for i, (want, got) in enumerate(zip(expected["responses"], observed)):
        if want != got:
            problems.append(f"response {i}: expected {want}, got {got}")
    return problems


# -- metrics ---------------------------------------------------------------------------


def e2e_metrics(m: Measurement, setup_samples: Sequence[float]):
    """The end-to-end metrics and their sample counts."""
    open_recs = m.open.records
    latencies = stats.open_loop_latencies(
        [r.due for r in open_recs],
        [r.response.done_at for r in open_recs],
        [r.response.status != TRANSPORT_ERROR for r in open_recs],
    )
    need = stats.min_samples(P95)
    if len(latencies) < need:
        raise ValueError(
            f"open loop timed {len(latencies)} requests; p95 needs {need}"
        )
    measured = m.measured
    attempted = len(measured)
    completed = sum(1 for r in measured if r.response.status != TRANSPORT_ERROR)
    statuses = [r.response.status for r in measured]
    closed_statuses = [r.response.status for r in m.closed.records]
    metrics = {
        "setup_s": statistics.median(setup_samples),
        "latency_p50_ms": stats.percentile(latencies, 0.5) * 1000.0,
        "latency_p95_ms": stats.percentile(latencies, P95) * 1000.0,
        "capacity_rps": stats.capacity(closed_statuses, m.closed.busy_s),
        "ok_rate": stats.ok_rate(statuses),
        "server_cpu_ms_per_req": m.cpu_s * 1000.0 / max(1, completed),
        "server_rss_mb": m.rss_mb,
        "ctld_rpcs_per_req": m.rpcs["slurmctld"] / attempted,
        "dbd_rpcs_per_req": m.rpcs["slurmdbd"] / attempted,
        "bytes_per_req": sum(len(r.response.body) for r in measured) / attempted,
    }
    samples = {
        "setup_s": len(setup_samples),
        "latency_p50_ms": len(latencies),
        "latency_p95_ms": len(latencies),
        "capacity_rps": len(closed_statuses),
    }
    return metrics, samples


def layer_metrics(spans_doc: dict, traced: Measurement,
                  untraced_metrics: Dict[str, float],
                  traced_metrics: Dict[str, float]) -> Dict[str, float]:
    """Per-layer self times, counts and ratios of the traced replay."""
    records = {r.rid: r for r in traced.measured}
    spans = [s for s in spans_doc["spans"] if s[2] in records]
    selfs = stats.self_times(spans)
    n = len(records)
    per_layer: Dict[str, float] = defaultdict(float)
    counts: Dict[str, int] = defaultdict(int)
    request_ms: Dict[str, float] = {}
    covered = total = 0.0
    lookups = hits = fetches = attempts = stale = validates = matched = 0
    admits = rejected = 0
    gzip_in = gzip_out = 0
    for span in spans:
        sid, _parent, rid, layer, start, end, note = span
        per_layer[layer] += selfs[sid]
        counts[layer] += 1
        if layer == "web.server.request":
            request_ms[rid] = (end - start) * 1000.0
            total += end - start
            covered += (end - start) - selfs[sid]
        elif layer == "core.workers":
            # blocked on pool results: the whole wait, not its self time
            per_layer["core.workers.wait"] += end - start
        elif layer == "core.caching":
            lookups += 1
            hits += note == "hit"
        elif layer == "faults.resilience":
            fetches += 1
            if note is not None:
                attempts += note[0]
                stale += bool(note[1])
            else:
                attempts += 1
        elif layer == "web.delivery.validate" and note is not None:
            validates += 1
            matched += bool(note)
        elif layer == "faults.admission":
            admits += 1
            rejected += not note
        elif layer == "web.delivery.gzip" and note is not None:
            gzip_in += note[0]
            gzip_out += note[1]
    wire = [
        (records[rid].response.done_at - records[rid].response.sent_at) * 1000.0
        - ms
        for rid, ms in request_ms.items()
    ]
    queue = [s for rid, s in spans_doc["queue_waits"] if rid in records]
    lags = [
        (r.response.sent_at - r.ready) * 1000.0 for r in traced.open.records
    ]

    def ms(layer: str) -> float:
        return per_layer[layer] * 1000.0 / n

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    def overhead(name: str) -> float:
        return (traced_metrics[name] / untraced_metrics[name] - 1.0) * 100.0

    ticks = spans_doc["ticks_ms"]
    return {
        "web.server.request_ms": sum(request_ms.values()) / n,
        "web.server.parse_ms": ms("web.server.parse"),
        "web.server.json_ms": ms("web.server.json"),
        "web.server.write_ms": ms("web.server.write"),
        # median, not mean: a response either meets the ~40 ms delayed-ACK
        # stall on the wire or it does not, and the median says which
        "web.server.wire_ms": statistics.median(wire),
        "web.delivery.validate_ms": ms("web.delivery.validate"),
        "web.delivery.not_modified_ratio": ratio(matched, validates),
        "web.delivery.gzip_ms": ms("web.delivery.gzip"),
        "web.delivery.gzip_ratio": ratio(gzip_out, gzip_in),
        "faults.admission.admit_ms": ms("faults.admission"),
        "faults.admission.rejected_ratio": ratio(rejected, admits),
        "core.routes.dispatch_ms": ms("core.routes"),
        "core.routes.calls_per_req": counts["core.routes"] / n,
        "core.pages.handler_ms": ms("core.pages"),
        "core.rendering.render_ms": ms("core.rendering"),
        "core.workers.wait_ms": ms("core.workers.wait"),
        "core.workers.queue_ms": sum(queue) * 1000.0 / n,
        "core.workers.tasks_per_req": len(queue) / n,
        "core.caching.lookup_ms": ms("core.caching"),
        "core.caching.lookups_per_req": lookups / n,
        "core.caching.hit_ratio": ratio(hits, lookups),
        "faults.resilience.fetch_ms": ms("faults.resilience"),
        "faults.resilience.attempts_per_fetch": ratio(attempts, fetches),
        "faults.resilience.stale_ratio": ratio(stale, fetches),
        "slurm.commands.run_ms": ms("slurm.commands.run"),
        "slurm.commands.parse_ms": ms("slurm.commands.parse"),
        "slurm.commands.runs_per_req": counts["slurm.commands.run"] / n,
        "core.records.build_ms": ms("core.records"),
        "obs.record_ms": ms("obs"),
        "slurm.cluster.advance_ms": statistics.median(ticks) if ticks else 0.0,
        "attributed_ratio": ratio(covered, total),
        "trace.overhead_pct": overhead("server_cpu_ms_per_req"),
        "trace.latency_overhead_pct": overhead("latency_p50_ms"),
        "gen.lag_p95_ms": stats.percentile(lags, P95),
    }


def check_records(records: Sequence[Record], workload: Workload) -> List[str]:
    """Structural problems of every record, one line per problem."""
    return [
        f"{r.request.target} as {r.request.user}: {problem}"
        for r in records
        for problem in structural_problems(
            r.response, workload.expected, r.sent_etag
        )
    ]


# -- main -------------------------------------------------------------------------------


def run(workload: Workload, seed: int, seconds: float, trace: bool) -> int:
    setup_samples: List[float] = []
    problems: List[str] = []

    server = ServerProcess(trace=False)
    try:
        setup_samples.append(server.setup_s)
        problems += verify(server, workload)
    finally:
        server.stop()

    server = ServerProcess(trace=False)
    try:
        setup_samples.append(server.setup_s)
        plan = build_plan(workload, server.catalog, seed, seconds)
        untraced = measure(server, workload, plan)
    finally:
        server.stop()
    problems += check_records(untraced.warmup.records + untraced.measured, workload)
    e2e, samples = e2e_metrics(untraced, setup_samples)

    if trace:
        OUT_DIR.mkdir(exist_ok=True)
        server = ServerProcess(trace=True)
        try:
            traced = measure(server, workload, plan)
            spans_path = OUT_DIR / f"spans-{server.pid}.json"
            server.command("spans", path=str(spans_path))
        finally:
            server.stop()
        spans_doc = json.loads(spans_path.read_text())
        spans_path.unlink()
        problems += check_records(traced.warmup.records + traced.measured, workload)
        traced_e2e, _ = e2e_metrics(traced, setup_samples)
        metrics = layer_metrics(spans_doc, traced, e2e, traced_e2e)
        units = declared_units("per_layer")
    else:
        server = ServerProcess(trace=False)
        try:
            setup_samples.append(server.setup_s)
        finally:
            server.stop()
        e2e["setup_s"] = statistics.median(setup_samples)
        samples["setup_s"] = len(setup_samples)
        metrics = e2e
        units = declared_units("end_to_end")

    attempted = len(untraced.measured)
    failed = sum(1 for r in untraced.measured if check_records([r], workload))
    open_phase = untraced.open
    offered = len(open_phase.records) / (
        len(plan.open_ticks) * workload.tick_wall_s
    )
    print(f"# workload {workload.name}  seed {seed}  seconds {seconds:g}  "
          f"trace {int(trace)}  python {platform.python_version()}  "
          f"nproc {os.cpu_count()}  offered {offered:.1f} req/s  "
          f"requests {attempted} (open {len(open_phase.records)}, "
          f"closed {len(untraced.closed.records)})  "
          f"late ticks {open_phase.late_ticks} of {len(plan.open_ticks)} "
          f"({open_phase.late_s * 1000.0:.1f} ms in all)")
    for name, unit in units.items():
        count = samples.get(name) if not trace else None
        suffix = f"  (n={count})" if count else ""
        print(f"#   {name:38s} {metrics[name]:14.6f} {unit}{suffix}")
    for problem in problems[:20]:
        print(f"# CHECK FAILED: {problem}")
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit}
            for name, unit in units.items()
        },
    }
    print(json.dumps(result))
    return 0 if not problems else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--write-digests", action="store_true",
        help="record the verification replay as the new expected digests",
    )
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    try:
        if args.write_digests:
            server = ServerProcess(trace=False)
            try:
                problems = verify(server, workload, write=True)
            finally:
                server.stop()
            for problem in problems:
                print(f"perfbench: {problem}", file=sys.stderr)
            return 1 if problems else 0
        return run(workload, args.seed, args.seconds, bool(args.trace))
    except ServerError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
