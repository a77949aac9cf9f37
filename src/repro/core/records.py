"""Typed views over parsed Slurm command output.

The dashboard backend runs Slurm commands and parses their text (§2.2.2);
pages then need numeric fields (efficiencies, durations, GPU hours).
:class:`JobRecord` is that bridge: built from one parsed ``sacct`` row or
``scontrol show job`` block, it exposes the same accessors as the
simulator's internal ``Job`` (``elapsed``, ``wait_time``, ``gpu_hours``,
``req`` ...) so the efficiency/chart code is agnostic about which side of
the text boundary its input came from.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.sim.clock import SimClock, parse_duration
from repro.slurm.hostlist import expand_hostlist
from repro.slurm.model import JobState, TRES, parse_memory_mb


def _parse_state(text: str) -> JobState:
    """Parse sacct's State column, tolerating 'CANCELLED by user'."""
    base = text.split()[0]
    try:
        return JobState(base)
    except ValueError:
        raise ValueError(f"unknown job state {text!r}") from None


def _parse_time(clock: SimClock, text: str) -> Optional[float]:
    if text in ("", "N/A", "None", "Unknown"):
        return None
    return clock.parse_iso(text)


@dataclass
class JobRecord:
    """One job as the dashboard understands it after parsing."""

    job_id: int
    display_id: str
    name: str
    user: str
    account: str
    partition: str
    qos: str
    state: JobState
    reason: str
    submit_time: float
    eligible_time: Optional[float]
    start_time: Optional[float]
    end_time: Optional[float]
    time_limit: float
    req: TRES
    total_cpu_seconds: float = 0.0
    max_rss_mb: int = 0
    exit_code: str = "0:0"
    nodes: List[str] = field(default_factory=list)
    raw: Dict[str, str] = field(default_factory=dict)

    # -- derived quantities (same contracts as slurm.model.Job) ------------

    def wait_time(self, now: float) -> float:
        """Queue wait: submit -> start (or submit -> now while pending)."""
        if self.start_time is not None:
            return max(0.0, self.start_time - self.submit_time)
        return max(0.0, now - self.submit_time)

    def elapsed(self, now: float) -> float:
        """Wall time used so far (0 while pending)."""
        if self.start_time is None:
            return 0.0
        end = self.end_time if self.end_time is not None else now
        return max(0.0, end - self.start_time)

    def gpu_hours(self, now: float) -> float:
        """Allocated GPUs x elapsed hours."""
        return self.req.gpus * self.elapsed(now) / 3600.0

    def cpu_hours(self, now: float) -> float:
        """Allocated CPUs x elapsed hours."""
        return self.req.cpus * self.elapsed(now) / 3600.0

    @property
    def is_array_task(self) -> bool:
        return "_" in self.display_id

    @property
    def array_job_id(self) -> Optional[int]:
        if not self.is_array_task:
            return None
        return int(self.display_id.split("_")[0])

    @property
    def is_interactive(self) -> bool:
        """OOD batch-connect jobs are named ``sys/dashboard/<app>``."""
        return self.name.startswith("sys/dashboard/")

    @property
    def interactive_app(self) -> Optional[str]:
        if not self.is_interactive:
            return None
        return self.name.rsplit("/", 1)[-1]

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_sacct_row(cls, row: Dict[str, str], clock: SimClock) -> "JobRecord":
        """Build from one parsed ``sacct --parsable2`` row."""
        req = TRES.parse(row["ReqTRES"]) if row.get("ReqTRES") else TRES(
            cpus=int(row["NCPUS"]),
            mem_mb=parse_memory_mb(row["ReqMem"]),
            nodes=int(row["NNodes"]),
        )
        max_rss = 0
        if row.get("MaxRSS"):
            max_rss = parse_memory_mb(row["MaxRSS"])
        nodelist = row.get("NodeList", "")
        nodes = [] if nodelist in ("", "None assigned") else expand_hostlist(nodelist)
        return cls(
            job_id=int(row.get("JobIDRaw") or row["JobID"].split("_")[0]),
            display_id=row["JobID"],
            name=row["JobName"],
            user=row["User"],
            account=row["Account"],
            partition=row["Partition"],
            qos=row.get("QOS", "normal"),
            state=_parse_state(row["State"]),
            reason=row.get("Reason", "None"),
            submit_time=_parse_time(clock, row["Submit"]) or 0.0,
            eligible_time=_parse_time(clock, row.get("Eligible", "")),
            start_time=_parse_time(clock, row.get("Start", "")),
            end_time=_parse_time(clock, row.get("End", "")),
            time_limit=parse_duration(row["Timelimit"]),
            req=req,
            total_cpu_seconds=parse_duration(row["TotalCPU"]) if row.get("TotalCPU") else 0.0,
            max_rss_mb=max_rss,
            exit_code=row.get("ExitCode", "0:0"),
            nodes=nodes,
            raw=row,
        )

    @classmethod
    def from_squeue_row(cls, row: Dict[str, str], clock: SimClock) -> "JobRecord":
        """Build from one parsed squeue row (Recent Jobs widget path)."""
        return cls(
            job_id=int(row["JOBID"].split("_")[0]),
            display_id=row["JOBID"],
            name=row["NAME"],
            user=row["USER"],
            account=row["ACCOUNT"],
            partition=row["PARTITION"],
            qos=row["QOS"],
            state=_parse_state(row["STATE"]),
            reason=row["REASON"],
            submit_time=_parse_time(clock, row["SUBMIT_TIME"]) or 0.0,
            eligible_time=None,
            start_time=_parse_time(clock, row["START_TIME"]),
            end_time=_parse_time(clock, row["END_TIME"]),
            time_limit=parse_duration(row["TIME_LIMIT"]),
            req=TRES.parse(row["TRES_PER_JOB"]),
            nodes=(
                expand_hostlist(row["NODELIST(REASON)"])
                if row["NODELIST(REASON)"] and not row["NODELIST(REASON)"].startswith("(")
                else []
            ),
            raw=row,
        )

    @classmethod
    def from_scontrol_block(cls, block: Dict[str, str], clock: SimClock) -> "JobRecord":
        """Build from one parsed ``scontrol show job`` block."""
        nodelist = block.get("NodeList", "(null)")
        nodes = [] if nodelist == "(null)" else expand_hostlist(nodelist)
        display = block["JobId"]
        if "ArrayJobId" in block:
            display = f"{block['ArrayJobId']}_{block['ArrayTaskId']}"
        return cls(
            job_id=int(block["JobId"]),
            display_id=display,
            name=block["JobName"],
            user=block["UserId"].split("(")[0],
            account=block["Account"],
            partition=block["Partition"],
            qos=block["QOS"],
            state=_parse_state(block["JobState"]),
            reason=block.get("Reason", "None"),
            submit_time=_parse_time(clock, block["SubmitTime"]) or 0.0,
            eligible_time=_parse_time(clock, block.get("EligibleTime", "")),
            start_time=_parse_time(clock, block.get("StartTime", "")),
            end_time=_parse_time(clock, block.get("EndTime", "")),
            time_limit=parse_duration(block["TimeLimit"]),
            req=TRES.parse(block["TRES"]),
            exit_code=block.get("ExitCode", "0:0"),
            nodes=nodes,
            raw=block,
        )


@dataclass
class NodeRecord:
    """One node parsed from ``scontrol show node`` (Cluster Status/Node
    Overview path)."""

    name: str
    cpus_total: int
    cpus_alloc: int
    cpu_load: float
    memory_total_mb: int
    memory_alloc_mb: int
    gpus_total: int
    gpus_alloc: int
    gres_model: str
    state: str
    partitions: List[str]
    features: List[str]
    os: str
    arch: str
    reason: str
    last_busy: Optional[float]
    raw: Dict[str, str] = field(default_factory=dict)

    @property
    def cpu_fraction(self) -> float:
        return self.cpus_alloc / self.cpus_total if self.cpus_total else 0.0

    @property
    def memory_fraction(self) -> float:
        return (
            self.memory_alloc_mb / self.memory_total_mb if self.memory_total_mb else 0.0
        )

    @property
    def gpu_fraction(self) -> Optional[float]:
        if self.gpus_total == 0:
            return None
        return self.gpus_alloc / self.gpus_total

    @classmethod
    def from_scontrol_block(cls, block: Dict[str, str], clock: SimClock) -> "NodeRecord":
        gpus_total = gpus_alloc = 0
        gres_model = ""
        gres = block.get("Gres", "(null)")
        if gres != "(null)":
            # "gpu:nvidia_a100:4"
            parts = gres.split(":")
            gres_model = parts[1] if len(parts) == 3 else ""
            gpus_total = int(parts[-1])
        gres_used = block.get("GresUsed", "(null)")
        if gres_used != "(null)":
            gpus_alloc = int(gres_used.split(":")[-1])
        features = (
            []
            if block.get("AvailableFeatures", "(null)") == "(null)"
            else block["AvailableFeatures"].split(",")
        )
        return cls(
            name=block["NodeName"],
            cpus_total=int(block["CPUTot"]),
            cpus_alloc=int(block["CPUAlloc"]),
            cpu_load=float(block["CPULoad"]),
            memory_total_mb=int(block["RealMemory"]),
            memory_alloc_mb=int(block["AllocMem"]),
            gpus_total=gpus_total,
            gpus_alloc=gpus_alloc,
            gres_model=gres_model,
            state=block["State"],
            partitions=block.get("Partitions", "").split(",") if block.get("Partitions") else [],
            features=features,
            os=block.get("OS", ""),
            arch=block.get("Arch", ""),
            reason=block.get("Reason", ""),
            last_busy=_parse_time(clock, block.get("LastBusyTime", "")),
            raw=block,
        )
