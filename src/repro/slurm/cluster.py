"""Cluster assembly: nodes + partitions + scheduler + accounting + daemons.

:class:`SlurmCluster` is the top-level handle every other subsystem talks
to — the moral equivalent of "the cluster" in the paper's Figure 1.  It
wires the event loop, slurmctld (scheduler), slurmdbd (accounting
archive) and the daemon load model together and offers a small
convenience API for building clusters in tests, examples and benchmarks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.sim.clock import SimClock
from repro.sim.events import EventLoop

from .accounting import AccountingDatabase
from .daemon import DaemonBus
from .gpumetrics import GpuTelemetry
from .model import (
    Association,
    Job,
    JobSpec,
    Node,
    Partition,
    QoS,
    TRES,
)
from .scheduler import SchedulerConfig, SlurmScheduler


@dataclass
class NodeGroupSpec:
    """A homogeneous rack of nodes, e.g. 32x 128-core CPU nodes."""

    prefix: str
    count: int
    cpus: int
    memory_mb: int
    gpus: int = 0
    gres_model: str = ""
    features: List[str] = field(default_factory=list)
    os: str = "Linux 5.14.0-el9"
    start_index: int = 1
    pad: int = 3

    def build(self) -> List[Node]:
        """Materialize the group's Node objects."""
        if self.count <= 0:
            raise ValueError(f"node group {self.prefix!r}: count must be positive")
        nodes = []
        for i in range(self.start_index, self.start_index + self.count):
            nodes.append(
                Node(
                    name=f"{self.prefix}{i:0{self.pad}d}",
                    cpus=self.cpus,
                    real_memory_mb=self.memory_mb,
                    gpus=self.gpus,
                    gres_model=self.gres_model,
                    features=list(self.features),
                    os=self.os,
                )
            )
        return nodes


@dataclass
class PartitionSpec:
    """Partition over one or more node groups (by prefix)."""

    name: str
    node_prefixes: List[str]
    max_time_s: float = 14 * 86400.0
    is_default: bool = False
    priority_tier: int = 1


@dataclass
class ClusterSpec:
    """Declarative description of a cluster to simulate."""

    name: str
    node_groups: List[NodeGroupSpec]
    partitions: List[PartitionSpec]
    qos: List[QoS] = field(default_factory=list)
    associations: List[Association] = field(default_factory=list)
    scheduler: SchedulerConfig = field(default_factory=SchedulerConfig)


class SlurmCluster:
    """A live simulated cluster: submit jobs, advance time, query state."""

    def __init__(self, spec: ClusterSpec, loop: Optional[EventLoop] = None):
        self.spec = spec
        self.name = spec.name
        self.loop = loop if loop is not None else EventLoop(SimClock())
        self.clock = self.loop.clock
        self.accounting = AccountingDatabase()
        self.daemons = DaemonBus(self.clock)
        self.gpu_telemetry = GpuTelemetry()

        nodes: List[Node] = []
        by_prefix: Dict[str, List[str]] = {}
        for group in spec.node_groups:
            built = group.build()
            nodes.extend(built)
            by_prefix[group.prefix] = [n.name for n in built]

        partitions: List[Partition] = []
        for pspec in spec.partitions:
            node_names: List[str] = []
            for prefix in pspec.node_prefixes:
                if prefix not in by_prefix:
                    raise ValueError(
                        f"partition {pspec.name!r}: unknown node group {prefix!r}"
                    )
                node_names.extend(by_prefix[prefix])
            partitions.append(
                Partition(
                    name=pspec.name,
                    node_names=node_names,
                    max_time=pspec.max_time_s,
                    is_default=pspec.is_default,
                    priority_tier=pspec.priority_tier,
                )
            )

        self.scheduler = SlurmScheduler(
            loop=self.loop,
            nodes=nodes,
            partitions=partitions,
            qos=spec.qos,
            associations=spec.associations,
            config=spec.scheduler,
            on_job_end=self._on_job_end,
        )

    def _on_job_end(self, job: Job) -> None:
        self.accounting.record(job)
        self.gpu_telemetry.record_job_end(job, self.clock.now())

    # -- convenience -------------------------------------------------------

    def submit(self, spec: JobSpec, held: bool = False) -> List[Job]:
        """Submit a job spec; returns the created job(s)."""
        return self.scheduler.submit(spec, held=held)

    def advance(self, seconds: float) -> None:
        """Run the simulation forward (jobs start/finish, daemons tick)."""
        self.loop.run_for(seconds)

    def now(self) -> float:
        """Current simulated time (seconds since the epoch)."""
        return self.clock.now()

    @property
    def nodes(self) -> Dict[str, Node]:
        return self.scheduler.nodes

    @property
    def partitions(self) -> Dict[str, Partition]:
        return self.scheduler.partitions

    def default_partition(self) -> Partition:
        """The default partition (first one if none is flagged)."""
        for p in self.partitions.values():
            if p.is_default:
                return p
        return next(iter(self.partitions.values()))

    def total_capacity(self) -> TRES:
        """Sum of configured resources across nodes."""
        cap = TRES()
        for node in self.nodes.values():
            cap = cap + node.capacity
        return cap


def small_test_cluster(
    name: str = "anvil",
    cpu_nodes: int = 8,
    gpu_nodes: int = 2,
    cpus_per_node: int = 64,
    mem_per_node_mb: int = 256_000,
    gpus_per_node: int = 4,
    associations: Sequence[Association] = (),
    qos: Sequence[QoS] = (),
    scheduler: Optional[SchedulerConfig] = None,
) -> SlurmCluster:
    """A compact cluster used across the test suite: one CPU partition
    (default) and one GPU partition, modeled on the paper's Anvil host."""
    spec = ClusterSpec(
        name=name,
        node_groups=[
            NodeGroupSpec(
                prefix="a",
                count=cpu_nodes,
                cpus=cpus_per_node,
                memory_mb=mem_per_node_mb,
                features=["avx512", "icelake"],
            ),
            NodeGroupSpec(
                prefix="g",
                count=gpu_nodes,
                cpus=cpus_per_node,
                memory_mb=2 * mem_per_node_mb,
                gpus=gpus_per_node,
                gres_model="nvidia_a100",
                features=["avx512", "icelake", "gpu"],
            ),
        ],
        partitions=[
            PartitionSpec(
                name="cpu", node_prefixes=["a"], is_default=True, max_time_s=4 * 86400.0
            ),
            PartitionSpec(name="gpu", node_prefixes=["g"], max_time_s=2 * 86400.0),
        ],
        qos=list(qos),
        associations=list(associations),
        scheduler=scheduler or SchedulerConfig(),
    )
    return SlurmCluster(spec)
