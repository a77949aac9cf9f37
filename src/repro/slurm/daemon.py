"""RPC load/latency model for the Slurm daemons.

Paper §3.2: "Because the squeue command queries Slurm's central management
daemon (slurmctld) — which also handles all job allocation — rather than
Slurm's database daemon (slurmdbd), querying squeue too frequently could
slow down slurmctld, causing delayed responses when running job allocation
commands."  The dashboard's whole caching design exists to reduce this
load, so we need a load model to *measure* the claim (bench P1/P2).

Model
-----
Each daemon is an M/M/1-flavoured service: an RPC has a base service time,
and the *effective* latency grows with the daemon's recent request rate
relative to its capacity:

    latency = base * (1 + (rate / capacity)^2)        (rate < capacity)
    latency = base * (1 + saturation_penalty * ...)   (rate >= capacity)

Recent rate is measured over a sliding window of simulated time.  The
quadratic keeps low traffic cheap and makes pile-ups visibly expensive —
enough to reproduce the paper's qualitative claim without pretending to be
a queueing-theory paper.
"""

from __future__ import annotations

import threading
from collections import defaultdict, deque
from contextlib import contextmanager
from dataclasses import dataclass
from typing import TYPE_CHECKING, Deque, Dict, Iterator, List, Optional, Tuple

from repro.sim.clock import SimClock

if TYPE_CHECKING:  # pragma: no cover
    from repro.faults.plan import FaultPlan
    from repro.obs import MetricsRegistry


@dataclass
class DaemonConfig:
    """Capacity/latency parameters for one daemon."""

    name: str
    base_latency_s: float = 0.020  # service time of one RPC, unloaded
    capacity_rps: float = 50.0  # sustainable requests/second
    window_s: float = 60.0  # sliding window for rate measurement
    saturation_penalty: float = 8.0


class DaemonLoadModel:
    """Tracks RPC traffic against one daemon and prices each call."""

    def __init__(self, config: DaemonConfig, clock: SimClock):
        self.config = config
        self.clock = clock
        self._events: Deque[Tuple[float, str]] = deque()
        self.total_rpcs = 0
        self.failed_rpcs = 0
        self.rpcs_by_kind: Dict[str, int] = defaultdict(int)
        self._latency_sum = 0.0
        #: chaos schedule consulted on every RPC (None = healthy daemon)
        self.faults: Optional["FaultPlan"] = None

    # -- recording ----------------------------------------------------------

    def record_rpc(self, kind: str) -> float:
        """Record one RPC of ``kind``; returns its simulated latency (s).

        When a :class:`~repro.faults.plan.FaultPlan` is installed, the
        RPC may instead raise
        :class:`~repro.faults.errors.DaemonUnavailableError` (outage or
        flaky window), and active slowdown windows inflate the returned
        latency.  A refused connection never lands on the daemon, so it
        is counted separately and does not load the rate window.
        """
        now = self.clock.now()
        if self.faults is not None:
            try:
                self.faults.check(self.config.name, now)
            except Exception:
                self.failed_rpcs += 1
                raise
        self._events.append((now, kind))
        self.total_rpcs += 1
        self.rpcs_by_kind[kind] += 1
        latency = self.latency_at(now)
        if self.faults is not None:
            latency += self.faults.extra_latency(self.config.name, now)
        self._latency_sum += latency
        return latency

    # -- measurement ----------------------------------------------------------

    def _trim(self, now: float) -> None:
        horizon = now - self.config.window_s
        while self._events and self._events[0][0] < horizon:
            self._events.popleft()

    def recent_rate(self, now: float | None = None) -> float:
        """RPCs per second over the sliding window."""
        if now is None:
            now = self.clock.now()
        self._trim(now)
        return len(self._events) / self.config.window_s

    def latency_at(self, now: float | None = None) -> float:
        """Current RPC latency under the load model."""
        rate = self.recent_rate(now)
        cfg = self.config
        util = rate / cfg.capacity_rps
        if util < 1.0:
            return cfg.base_latency_s * (1.0 + util * util)
        overload = util - 1.0
        return cfg.base_latency_s * (2.0 + cfg.saturation_penalty * overload)

    @property
    def mean_latency(self) -> float:
        if self.total_rpcs == 0:
            return 0.0
        return self._latency_sum / self.total_rpcs

    def snapshot(self) -> dict:
        """Current counters/rates/latency as a dict."""
        now = self.clock.now()
        return {
            "daemon": self.config.name,
            "total_rpcs": self.total_rpcs,
            "failed_rpcs": self.failed_rpcs,
            "recent_rate_rps": round(self.recent_rate(now), 4),
            "current_latency_s": round(self.latency_at(now), 6),
            "mean_latency_s": round(self.mean_latency, 6),
            "rpcs_by_kind": dict(sorted(self.rpcs_by_kind.items())),
        }

    def reset_counters(self) -> None:
        """Zero the RPC counters and the sliding window."""
        self.total_rpcs = 0
        self.failed_rpcs = 0
        self.rpcs_by_kind.clear()
        self._latency_sum = 0.0
        self._events.clear()


class LatencyProbe:
    """Observes the RPC latencies issued while a probe is active, so the
    fetch path can enforce a per-source timeout on whatever the compute
    block did (one RPC or several)."""

    __slots__ = ("max_latency_s", "rpcs")

    def __init__(self) -> None:
        self.max_latency_s = 0.0
        self.rpcs = 0

    def observe(self, latency_s: float) -> None:
        self.rpcs += 1
        if latency_s > self.max_latency_s:
            self.max_latency_s = latency_s


class DaemonBus:
    """Routes command-layer traffic to the right daemon, Slurm-style.

    ``squeue``, ``sinfo`` and ``scontrol`` hit **slurmctld**; ``sacct``
    hits **slurmdbd**.  The dashboard's backend caching exists precisely to
    keep the ctld column of this table small.
    """

    CTLD_COMMANDS = frozenset({"squeue", "sinfo", "scontrol", "salloc", "sbatch"})
    DBD_COMMANDS = frozenset({"sacct", "sreport", "sshare"})

    def __init__(self, clock: SimClock, ctld: DaemonConfig | None = None, dbd: DaemonConfig | None = None):
        self.ctld = DaemonLoadModel(ctld or DaemonConfig(name="slurmctld"), clock)
        self.dbd = DaemonLoadModel(
            dbd or DaemonConfig(name="slurmdbd", base_latency_s=0.050, capacity_rps=200.0),
            clock,
        )
        self.faults: Optional["FaultPlan"] = None
        self._probe_local = threading.local()
        #: metrics registry (None until a dashboard attaches one)
        self.metrics: Optional["MetricsRegistry"] = None
        self._rpc_total = None
        self._rpc_failed = None
        self._rpc_latency = None

    # -- observability --------------------------------------------------------

    def attach_metrics(self, registry: "MetricsRegistry") -> None:
        """Report every subsequent RPC into ``registry`` — count, failure
        count, and simulated latency histogram, labeled per daemon."""
        self.metrics = registry
        self._rpc_total = registry.counter(
            "repro_daemon_rpcs_total",
            "Simulated daemon RPCs by daemon and command kind.",
            ("daemon", "kind"),
        )
        self._rpc_failed = registry.counter(
            "repro_daemon_rpcs_failed_total",
            "RPCs refused by an injected fault, per daemon.",
            ("daemon",),
        )
        self._rpc_latency = registry.histogram(
            "repro_daemon_rpc_latency_seconds",
            "Simulated RPC latency from the daemon load model.",
            ("daemon",),
        )

    # -- fault injection ------------------------------------------------------

    def install_faults(self, plan: Optional["FaultPlan"]) -> None:
        """Install (or with ``None`` remove) a chaos schedule on both
        daemons.  Every subsequent RPC consults the plan."""
        self.faults = plan
        self.ctld.faults = plan
        self.dbd.faults = plan

    # -- latency probing ------------------------------------------------------

    def _probe_stack(self) -> List[LatencyProbe]:
        stack = getattr(self._probe_local, "stack", None)
        if stack is None:
            stack = self._probe_local.stack = []
        return stack

    @contextmanager
    def measure(self) -> Iterator[LatencyProbe]:
        """Context manager: observe every RPC latency this *thread* records
        while the block runs (the fetch path's timeout instrument)."""
        probe = LatencyProbe()
        stack = self._probe_stack()
        stack.append(probe)
        try:
            yield probe
        finally:
            stack.remove(probe)

    def model_for(self, command: str) -> DaemonLoadModel:
        """The daemon model that serves a given command."""
        if command in self.CTLD_COMMANDS:
            return self.ctld
        if command in self.DBD_COMMANDS:
            return self.dbd
        raise ValueError(f"unknown Slurm command {command!r}")

    def record(self, command: str, kind: str = "") -> float:
        """Record an RPC for ``command``; returns simulated latency."""
        model = self.model_for(command)
        try:
            latency = model.record_rpc(kind or command)
        except Exception:
            if self._rpc_failed is not None:
                self._rpc_failed.inc(daemon=model.config.name)
            raise
        if self._rpc_total is not None:
            self._rpc_total.inc(daemon=model.config.name, kind=kind or command)
            self._rpc_latency.observe(latency, daemon=model.config.name)
        for probe in self._probe_stack():
            probe.observe(latency)
        return latency

    def snapshot(self) -> dict:
        """Snapshots of both daemons, keyed by daemon name."""
        return {"slurmctld": self.ctld.snapshot(), "slurmdbd": self.dbd.snapshot()}

    def reset_counters(self) -> None:
        """Zero both daemons' counters."""
        self.ctld.reset_counters()
        self.dbd.reset_counters()
