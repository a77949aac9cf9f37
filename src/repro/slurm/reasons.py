"""Slurm pending/state reason codes and their user-friendly explanations.

Paper §4.1: the My Jobs table shows "more user-friendly messages for job
reasons, which can be obscure to understand for beginners", e.g. the
reason ``AssocGrpCpuLimit`` is annotated with "It means this job's
association has reached its aggregate group CPU limit."

This module is the catalog both the scheduler (which *assigns* reason
codes) and the dashboard (which *explains* them) share.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

# Canonical reason codes, matching Slurm's squeue(1) REASONS section.
NONE = "None"
RESOURCES = "Resources"
PRIORITY = "Priority"
DEPENDENCY = "Dependency"
DEPENDENCY_NEVER = "DependencyNeverSatisfied"
ASSOC_GRP_CPU_LIMIT = "AssocGrpCpuLimit"
ASSOC_GRP_GRES_LIMIT = "AssocGrpGRES"
ASSOC_MAX_JOBS_LIMIT = "AssocMaxJobsLimit"
QOS_MAX_JOBS_PER_USER = "QOSMaxJobsPerUserLimit"
QOS_MAX_TRES_PER_USER = "QOSMaxTresPerUser"
QOS_MAX_WALL = "QOSMaxWallDurationPerJobLimit"
PARTITION_TIME_LIMIT = "PartitionTimeLimit"
PARTITION_DOWN = "PartitionDown"
PARTITION_NODE_LIMIT = "PartitionNodeLimit"
JOB_HELD_USER = "JobHeldUser"
JOB_HELD_ADMIN = "JobHeldAdmin"
BEGIN_TIME = "BeginTime"
LAUNCH_FAILED = "launch failed requeued held"
NODE_DOWN = "NodeDown"
BAD_CONSTRAINTS = "BadConstraints"
REQ_NODE_NOT_AVAIL = "ReqNodeNotAvail"


@dataclass(frozen=True)
class ReasonInfo:
    """Explanation + guidance for one reason code."""

    code: str
    friendly: str
    guidance: str = ""
    severity: str = "info"  # info | warning | error


_CATALOG: Dict[str, ReasonInfo] = {}


def _register(info: ReasonInfo) -> None:
    _CATALOG[info.code] = info


_register(ReasonInfo(NONE, "No blocking reason; the job is progressing normally."))
_register(
    ReasonInfo(
        RESOURCES,
        "It means the job is waiting for enough free CPUs, memory, or GPUs to "
        "become available on the requested partition.",
        "Your job is at the front of the queue; it will start as soon as "
        "resources free up.",
    )
)
_register(
    ReasonInfo(
        PRIORITY,
        "It means one or more higher-priority jobs are ahead of this job in "
        "the queue.",
        "Waiting is normal; jobs gain priority as they age.",
    )
)
_register(
    ReasonInfo(
        DEPENDENCY,
        "It means this job is waiting for a job it depends on to finish.",
        "Check the dependency list with the job's details.",
    )
)
_register(
    ReasonInfo(
        DEPENDENCY_NEVER,
        "It means a job this job depends on failed or was cancelled, so "
        "this job can never start.",
        "Cancel this job and resubmit once the dependency problem is fixed.",
        severity="error",
    )
)
_register(
    ReasonInfo(
        ASSOC_GRP_CPU_LIMIT,
        "It means this job's association has reached its aggregate group CPU "
        "limit.",
        "Jobs already running under your allocation are using all of its "
        "CPUs; the job will start when some of them finish.",
        severity="warning",
    )
)
_register(
    ReasonInfo(
        ASSOC_GRP_GRES_LIMIT,
        "It means this job's association has reached its aggregate group GPU "
        "(GRES) limit.",
        "Your allocation's GPUs are fully in use; the job will start when "
        "GPU jobs under the allocation finish.",
        severity="warning",
    )
)
_register(
    ReasonInfo(
        ASSOC_MAX_JOBS_LIMIT,
        "It means your association has reached its maximum number of "
        "concurrently running jobs.",
        severity="warning",
    )
)
_register(
    ReasonInfo(
        QOS_MAX_JOBS_PER_USER,
        "It means you have reached the maximum number of running jobs allowed "
        "per user under this QOS.",
        severity="warning",
    )
)
_register(
    ReasonInfo(
        QOS_MAX_TRES_PER_USER,
        "It means you have reached the maximum resources one user may hold "
        "under this QOS.",
        severity="warning",
    )
)
_register(
    ReasonInfo(
        QOS_MAX_WALL,
        "It means the job's requested time limit exceeds the maximum wall "
        "time this QOS allows.",
        "Lower the --time request or submit under a QOS with a longer limit.",
        severity="error",
    )
)
_register(
    ReasonInfo(
        PARTITION_TIME_LIMIT,
        "It means the job's requested time limit exceeds the partition's "
        "maximum time limit.",
        "Lower the --time request or choose a partition with a longer limit.",
        severity="error",
    )
)
_register(
    ReasonInfo(
        PARTITION_DOWN,
        "It means the partition the job was submitted to is currently down.",
        severity="error",
    )
)
_register(
    ReasonInfo(
        PARTITION_NODE_LIMIT,
        "It means the job requests more nodes than the partition contains.",
        "Reduce the node count or use a larger partition.",
        severity="error",
    )
)
_register(
    ReasonInfo(
        JOB_HELD_USER,
        "It means you placed this job on hold; release it to let it run.",
    )
)
_register(
    ReasonInfo(
        JOB_HELD_ADMIN,
        "It means an administrator placed this job on hold; contact support "
        "for details.",
        severity="warning",
    )
)
_register(
    ReasonInfo(
        BEGIN_TIME,
        "It means the job's requested begin time has not been reached yet.",
    )
)
_register(
    ReasonInfo(
        NODE_DOWN,
        "It means a node required by this job is down.",
        severity="error",
    )
)
_register(
    ReasonInfo(
        BAD_CONSTRAINTS,
        "It means the job's feature constraints cannot be satisfied by any "
        "node in the partition.",
        "Check the --constraint flags against the cluster's node features.",
        severity="error",
    )
)
_register(
    ReasonInfo(
        REQ_NODE_NOT_AVAIL,
        "It means a specifically requested node is not currently available "
        "(it may be down, drained, or reserved).",
        severity="warning",
    )
)
_register(
    ReasonInfo(
        LAUNCH_FAILED,
        "It means the job failed to launch and was requeued in a held state; "
        "contact support if this persists.",
        severity="error",
    )
)


def explain(code: str) -> ReasonInfo:
    """Friendly explanation for a reason code; unknown codes degrade
    gracefully instead of crashing the widget (modularity, §2.4)."""
    info = _CATALOG.get(code)
    if info is not None:
        return info
    return ReasonInfo(
        code=code,
        friendly=f"Slurm reported reason {code!r}; see the Slurm documentation "
        "or contact support for details.",
    )

