"""One fleet worker: a full dashboard in its own process.

Each worker the fleet spawns is an ordinary single-process deployment —
its own interpreter, server cache, circuit breakers, admission
controller and worker pool — built from :class:`WorkerConfig` and
served by a :class:`~repro.web.server.DashboardServer` on an ephemeral
port.  Shared-nothing is the point: a worker dying takes out only its
shard of the cache, never the fleet.

Coordination with the parent crosses the process boundary over a
:func:`multiprocessing.Pipe` control channel speaking small tuples:

========================  =============================  ===============
parent sends              worker replies                 meaning
========================  =============================  ===============
(handshake at start)      ``("ready", port, now)``       bound + serving
``("advance", seconds)``  ``("advanced", now)``          sim-clock tick
``("stop",)``             ``("stopped",)`` then exit     graceful stop
========================  =============================  ===============

All workers build from the same seed, so their sim clocks agree at
startup and the fleet's broadcast-and-barrier ``advance`` keeps them in
lockstep thereafter.  Identical builds are also what makes balancer
routing *transparent*: any worker produces byte-identical bodies for
the same request at the same simulated time — affinity routing changes
which cache warms, never what the client sees.
"""

from __future__ import annotations

import multiprocessing as mp
import multiprocessing.connection
from dataclasses import dataclass
from typing import Optional, Tuple


@dataclass(frozen=True)
class WorkerConfig:
    """Everything a worker process needs to build its dashboard.

    Primitives only — the config crosses the process boundary (and must
    survive pickling under any multiprocessing start method), so it
    carries knob values, not live objects.  ``cache_max_entries`` is the
    scale-out lever: capping each worker's cache makes aggregate fleet
    capacity ``N x cap``, which affinity routing then actually exploits.
    """

    seed: int = 2025
    duration_hours: float = 6.0
    cache_max_entries: Optional[int] = None
    #: uniform TTL override for every source (None keeps the paper's
    #: per-source policy) — load scenarios pin it so cache misses
    #: measure *capacity*, not TTL churn
    cache_ttl_s: Optional[float] = None
    #: False builds cache-less workers: every response is recomputed
    #: from the frozen sim state, which makes bodies a pure function of
    #: (request, sim time) — the transparency proof runs this way
    use_server_cache: bool = True
    workload_users: Optional[int] = None
    workload_interarrival_s: Optional[float] = None
    verbose: bool = False

    def build(self):
        """Build the dashboard this config describes (in-process).

        Also used parent-side by the load harness to derive the request
        catalog for a fleet without talking to a worker.
        """
        from repro.core.caching import CachePolicy
        from repro.core.dashboard import build_demo_dashboard
        from repro.slurm.workload import WorkloadConfig

        cache_policy = None
        if self.cache_ttl_s is not None:
            ttl = self.cache_ttl_s
            cache_policy = CachePolicy(
                squeue=ttl, sinfo=ttl, sacct=ttl, scontrol_node=ttl,
                scontrol_job=ttl, scontrol_assoc=ttl, news=ttl,
                storage=ttl, default=ttl,
            )
        workload = None
        if (self.workload_users is not None
                or self.workload_interarrival_s is not None):
            kwargs = {"seed": self.seed}
            if self.workload_users is not None:
                kwargs["n_users"] = self.workload_users
            if self.workload_interarrival_s is not None:
                kwargs["mean_interarrival_s"] = self.workload_interarrival_s
            workload = WorkloadConfig(**kwargs)
        return build_demo_dashboard(
            seed=self.seed,
            duration_hours=self.duration_hours,
            workload=workload,
            cache_policy=cache_policy,
            use_server_cache=self.use_server_cache,
            cache_max_entries=self.cache_max_entries,
        )


def worker_main(
    conn: "mp.connection.Connection", config: WorkerConfig
) -> None:
    """Entry point of one worker process.

    Builds the dashboard, serves it, then sits in the control-message
    loop until told to stop (or until the channel breaks — a dead
    parent must not leave orphaned servers behind).
    """
    from repro.web.server import DashboardServer

    dash, _directory, _result = config.build()
    server = DashboardServer(dash, port=0, verbose=config.verbose)
    server.start()
    try:
        conn.send(("ready", server.port, dash.clock.now()))
        while True:
            try:
                msg = conn.recv()
            except (EOFError, OSError):
                break
            if msg[0] == "advance":
                dash.clock.advance(float(msg[1]))
                conn.send(("advanced", dash.clock.now()))
            elif msg[0] == "stop":
                conn.send(("stopped",))
                break
            else:  # unknown verb: fail loudly, protocol bugs must not hang
                conn.send(("error", f"unknown control message {msg[0]!r}"))
    finally:
        server.stop()
        conn.close()


class WorkerHandle:
    """Parent-side handle on one spawned worker process.

    Owns the process object and the parent end of the control pipe.
    The two-phase advance (:meth:`send_advance` broadcast, then
    :meth:`wait_advanced` collect) lets the fleet move every worker's
    clock concurrently instead of serially round-tripping each pipe.
    """

    def __init__(self, name: str, config: WorkerConfig,
                 ctx: Optional[mp.context.BaseContext] = None):
        self.name = name
        self.config = config
        self._ctx = ctx or mp.get_context("fork")
        self._proc: Optional[mp.process.BaseProcess] = None
        self._conn: Optional[mp.connection.Connection] = None
        #: bound HTTP port, known after :meth:`start`
        self.port: Optional[int] = None
        #: sim time reported in the ready handshake
        self.start_time: Optional[float] = None
        self._dead = False

    # -- lifecycle -------------------------------------------------------

    def spawn(self) -> "WorkerHandle":
        """Fork the process; returns immediately (handshake comes
        later).  Split from :meth:`await_ready` so a fleet can overlap
        N dashboard builds instead of serializing them."""
        if self._proc is not None:
            raise RuntimeError(f"worker {self.name!r} already started")
        parent_conn, child_conn = self._ctx.Pipe()
        self._proc = self._ctx.Process(
            target=worker_main,
            args=(child_conn, self.config),
            name=f"repro-worker-{self.name}",
            daemon=True,
        )
        self._proc.start()
        child_conn.close()  # child's end lives in the child now
        self._conn = parent_conn
        return self

    def await_ready(self, timeout_s: float = 60.0) -> "WorkerHandle":
        """Block until the ready handshake lands; records port + time."""
        if self._conn is None:
            raise RuntimeError(f"worker {self.name!r} not spawned")
        if not self._conn.poll(timeout_s):
            self.kill()
            raise TimeoutError(
                f"worker {self.name!r} did not become ready within "
                f"{timeout_s:.0f}s"
            )
        msg = self._conn.recv()
        if msg[0] != "ready":
            self.kill()
            raise RuntimeError(
                f"worker {self.name!r} sent {msg!r} instead of ready"
            )
        self.port = int(msg[1])
        self.start_time = float(msg[2])
        return self

    def start(self, ready_timeout_s: float = 60.0) -> "WorkerHandle":
        """Spawn the process and wait for its ready handshake."""
        return self.spawn().await_ready(ready_timeout_s)

    @property
    def alive(self) -> bool:
        return (
            not self._dead
            and self._proc is not None
            and self._proc.is_alive()
        )

    def kill(self) -> None:
        """SIGKILL the worker — the fleet's fault-injection primitive.

        Hard death, no goodbye: in-flight proxied requests fail at the
        transport level and the balancer's mini-breaker takes it from
        there.  Idempotent.
        """
        self._dead = True
        if self._proc is not None and self._proc.is_alive():
            self._proc.kill()
            self._proc.join(timeout=10.0)
        if self._conn is not None:
            self._conn.close()
            self._conn = None

    def stop(self, grace_s: float = 10.0) -> None:
        """Graceful stop: ask nicely, then escalate to :meth:`kill`."""
        if self._dead or self._proc is None:
            return
        try:
            if self._conn is not None:
                self._conn.send(("stop",))
                if self._conn.poll(grace_s):
                    self._conn.recv()  # ("stopped",)
        except (BrokenPipeError, EOFError, OSError):
            pass
        self._proc.join(timeout=grace_s)
        self.kill()

    # -- lockstep clock --------------------------------------------------

    def send_advance(self, seconds: float) -> bool:
        """Broadcast half of one tick; True if the send reached a live
        worker (a dead one is marked and skipped, never an error)."""
        if not self.alive or self._conn is None:
            return False
        try:
            self._conn.send(("advance", float(seconds)))
            return True
        except (BrokenPipeError, OSError):
            self._dead = True
            return False

    def wait_advanced(self, timeout_s: float = 60.0) -> Optional[float]:
        """Barrier half: the worker's new sim time, or None if it died."""
        if not self.alive or self._conn is None:
            return None
        try:
            if not self._conn.poll(timeout_s):
                self._dead = True
                return None
            msg = self._conn.recv()
        except (EOFError, OSError):
            self._dead = True
            return None
        if msg[0] != "advanced":
            raise RuntimeError(
                f"worker {self.name!r} answered advance with {msg!r}"
            )
        return float(msg[1])

    def address(self) -> Tuple[str, int]:
        if self.port is None:
            raise RuntimeError(f"worker {self.name!r} not started")
        return ("127.0.0.1", self.port)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "alive" if self.alive else "dead"
        return f"WorkerHandle({self.name!r}, port={self.port}, {state})"
