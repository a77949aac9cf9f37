"""slurmctld simulator: job queue, priority, FIFO + conservative backfill.

The scheduler is intentionally a faithful-but-compact model of the parts
of slurmctld the dashboard observes:

* jobs move PENDING -> RUNNING -> {COMPLETED, FAILED, TIMEOUT, CANCELLED,
  OUT_OF_MEMORY, NODE_FAIL} with authentic reason codes while pending;
* association **GrpTRES** limits produce ``AssocGrpCpuLimit`` /
  ``AssocGrpGRES`` — the reasons the paper's My Jobs table explains to
  users (§4.1);
* QoS per-user caps produce ``QOSMaxJobsPerUserLimit`` and
  ``QOSMaxTresPerUser``;
* node selection is best-fit over schedulable nodes, with feature
  constraints, producing MIXED/ALLOCATED node states the Cluster Status
  grid colors (§6);
* a conservative backfill pass lets small jobs jump the queue when they
  cannot delay the highest-priority blocked job.

Completed jobs stay visible to ``squeue``/``scontrol`` for ``min_job_age``
seconds (like Slurm's MinJobAge) and are archived forever in
:class:`~repro.slurm.accounting.AccountingDatabase`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from repro.sim.events import EventLoop

from . import reasons as R
from .model import (
    Association,
    AssociationUsage,
    Job,
    JobSpec,
    JobState,
    Node,
    Partition,
    QoS,
    Reservation,
    TRES,
)


@dataclass
class SchedulerConfig:
    """Tunables mirroring common slurm.conf knobs."""

    sched_interval: float = 30.0  # periodic schedule pass
    min_job_age: float = 300.0  # keep finished jobs in ctld memory this long
    backfill: bool = True
    #: how deep past the first blocked job the backfill scan looks
    #: (slurm.conf bf_max_job_test)
    backfill_depth: int = 100
    age_weight: float = 1.0 / 60.0  # priority points per minute of queue age
    qos_weight: float = 1000.0
    #: multifactor fairshare: accounts that consumed a larger share of the
    #: cluster's recent CPU-hours get up to this many points *less*
    fairshare_weight: float = 200.0
    base_priority: float = 1000.0


@dataclass
class _RunInfo:
    """Per running job: what was carved out of each node."""

    per_node: TRES
    utilization: float
    finish_handle: object = None
    #: runtime still owed when the job resumes (set while SUSPENDED)
    remaining_runtime: Optional[float] = None
    final_state: Optional[JobState] = None
    final_exit_code: int = 0


class SlurmScheduler:
    """The cluster's central management daemon (slurmctld)."""

    def __init__(
        self,
        loop: EventLoop,
        nodes: Sequence[Node],
        partitions: Sequence[Partition],
        qos: Sequence[QoS] = (),
        associations: Sequence[Association] = (),
        config: Optional[SchedulerConfig] = None,
        on_job_end: Optional[Callable[[Job], None]] = None,
    ):
        self.loop = loop
        self.clock = loop.clock
        self.config = config or SchedulerConfig()
        self.nodes: Dict[str, Node] = {}
        for n in nodes:
            if n.name in self.nodes:
                raise ValueError(f"duplicate node {n.name!r}")
            self.nodes[n.name] = n
        self.partitions: Dict[str, Partition] = {}
        for p in partitions:
            if p.name in self.partitions:
                raise ValueError(f"duplicate partition {p.name!r}")
            for nn in p.node_names:
                if nn not in self.nodes:
                    raise ValueError(f"partition {p.name!r}: unknown node {nn!r}")
                node = self.nodes[nn]
                if p.name not in node.partitions:
                    node.partitions.append(p.name)
            self.partitions[p.name] = p
        self.qos: Dict[str, QoS] = {q.name: q for q in qos}
        self.qos.setdefault("normal", QoS(name="normal", priority=0))
        self.associations: Dict[str, Association] = {}
        for assoc in associations:
            if assoc.user:
                continue  # only account-level associations carry group limits
            self.associations[assoc.account] = assoc
        self._usage: Dict[str, AssociationUsage] = {}

        self.jobs: Dict[int, Job] = {}  # everything ctld still remembers
        self._pending: List[int] = []
        self._running: Dict[int, _RunInfo] = {}
        self._held: set[int] = set()
        self._in_pass = False
        self._pass_requested = False
        #: final state of every job ever seen, for dependency resolution
        #: after the job itself is purged from ctld memory
        self._outcomes: Dict[int, JobState] = {}
        self._next_job_id = 1000
        self._on_job_end = on_job_end
        self.reservations: Dict[str, Reservation] = {}
        self._purge_queue: List[tuple[float, int]] = []

        # periodic schedule pass, like slurmctld's sched cycle
        loop.schedule_every(self.config.sched_interval, self.schedule_pass, "sched")

        # instrumentation the daemon-load model reads
        self.stats = {
            "submitted": 0,
            "started": 0,
            "completed": 0,
            "cancelled": 0,
            "backfilled": 0,
            "schedule_passes": 0,
        }

    # ------------------------------------------------------------------
    # submission & lifecycle
    # ------------------------------------------------------------------

    def submit(self, spec: JobSpec, held: bool = False) -> List[Job]:
        """Submit a job (or a whole array).  Returns the created job records.

        Raises :class:`ValueError` for requests no partition could ever
        satisfy is *not* Slurm behaviour — Slurm queues them with a
        blocking reason — so invalid jobs are queued with their permanent
        reason instead.
        """
        if spec.partition not in self.partitions:
            raise ValueError(f"unknown partition {spec.partition!r}")
        if spec.qos not in self.qos:
            raise ValueError(f"unknown QOS {spec.qos!r}")
        for dep in spec.depends_on:
            if dep not in self.jobs and dep not in self._outcomes:
                raise ValueError(f"dependency on unknown job {dep}")
        now = self.clock.now()
        created: List[Job] = []
        count = max(1, spec.array_size)
        array_job_id = self._next_job_id if spec.array_size else None
        for idx in range(count):
            job = Job(
                job_id=self._next_job_id,
                spec=spec,
                submit_time=now,
                eligible_time=now,
                array_job_id=array_job_id,
                array_task_id=idx if spec.array_size else None,
            )
            self._next_job_id += 1
            self.jobs[job.job_id] = job
            if held:
                self._held.add(job.job_id)
                job.reason = R.JOB_HELD_USER
            self._pending.append(job.job_id)
            created.append(job)
            self.stats["submitted"] += 1
        self.schedule_pass()
        return created

    def cancel(self, job_id: int) -> Job:
        """Cancel a pending or running job."""
        job = self._get(job_id)
        now = self.clock.now()
        if job.state is JobState.PENDING:
            self._pending.remove(job_id)
            self._held.discard(job_id)
            job.state = JobState.CANCELLED
            job.end_time = now
            job.reason = R.NONE
            self._retire(job)
        elif job.state in (JobState.RUNNING, JobState.SUSPENDED):
            info = self._running[job_id]
            if info.finish_handle is not None:
                info.finish_handle.cancel()
            self._end_job(job, JobState.CANCELLED, exit_code=0)
        else:
            raise ValueError(f"job {job_id} already finished ({job.state.value})")
        self.stats["cancelled"] += 1
        return job

    def hold(self, job_id: int) -> Job:
        """Hold a pending job (it will not be scheduled)."""
        job = self._get(job_id)
        if job.state is not JobState.PENDING:
            raise ValueError(f"can only hold pending jobs; {job_id} is {job.state.value}")
        self._held.add(job_id)
        job.reason = R.JOB_HELD_USER
        return job

    def release(self, job_id: int) -> Job:
        """Release a held job back into the queue."""
        job = self._get(job_id)
        if job_id not in self._held:
            raise ValueError(f"job {job_id} is not held")
        self._held.discard(job_id)
        job.reason = R.NONE
        job.eligible_time = self.clock.now()
        self.schedule_pass()
        return job

    def suspend(self, job_id: int) -> Job:
        """Suspend a running job (``scontrol suspend``).

        The job keeps its full node allocation (gang-scheduling style —
        a simplification: real Slurm releases CPUs but pins memory) and
        its remaining runtime is owed back on resume.  Suspended wall
        time counts toward elapsed, as sacct reports it.
        """
        job = self._get(job_id)
        if job.state is not JobState.RUNNING:
            raise ValueError(
                f"can only suspend running jobs; {job_id} is {job.state.value}"
            )
        info = self._running[job_id]
        now = self.clock.now()
        end_at = info.finish_handle.time if info.finish_handle else now
        info.finish_handle.cancel()
        info.finish_handle = None
        info.remaining_runtime = max(0.0, end_at - now)
        job.state = JobState.SUSPENDED
        return job

    def resume_job(self, job_id: int) -> Job:
        """Resume a suspended job (``scontrol resume``)."""
        job = self._get(job_id)
        if job.state is not JobState.SUSPENDED:
            raise ValueError(
                f"can only resume suspended jobs; {job_id} is {job.state.value}"
            )
        info = self._running[job_id]
        remaining = info.remaining_runtime or 0.0
        info.remaining_runtime = None
        job.state = JobState.RUNNING
        info.finish_handle = self.loop.schedule_in(
            max(remaining, 0.001),
            lambda j=job, st=info.final_state, ec=info.final_exit_code: (
                self._end_job(j, st or JobState.COMPLETED, ec)
            ),
            f"end job {job.job_id}",
        )
        return job

    def _get(self, job_id: int) -> Job:
        try:
            return self.jobs[job_id]
        except KeyError:
            raise KeyError(f"unknown or purged job id {job_id}") from None

    # ------------------------------------------------------------------
    # queries used by the command layer
    # ------------------------------------------------------------------

    def pending_jobs(self) -> List[Job]:
        """All jobs waiting in the queue."""
        return [self.jobs[j] for j in self._pending]

    def running_jobs(self) -> List[Job]:
        """All jobs currently executing."""
        return [self.jobs[j] for j in self._running]

    def visible_jobs(self) -> List[Job]:
        """Everything squeue would show (pending + running + recently done)."""
        self._purge_old()
        return list(self.jobs.values())

    def job(self, job_id: int) -> Job:
        """Look up a job ctld still remembers (KeyError if purged)."""
        return self._get(job_id)

    def node(self, name: str) -> Node:
        """Look up a node by name (KeyError if unknown)."""
        try:
            return self.nodes[name]
        except KeyError:
            raise KeyError(f"unknown node {name!r}") from None

    def jobs_on_node(self, name: str) -> List[Job]:
        """Jobs currently running on the named node."""
        node = self.node(name)
        return [self.jobs[j] for j in node.running_job_ids if j in self.jobs]

    def association_usage(self, account: str) -> AssociationUsage:
        """Live usage counters for an account (created on demand)."""
        return self._usage.setdefault(account, AssociationUsage())

    #: pending reasons that will never clear on their own — no start estimate
    _PERMANENT_REASONS = frozenset(
        {
            R.PARTITION_TIME_LIMIT,
            R.PARTITION_NODE_LIMIT,
            R.BAD_CONSTRAINTS,
            R.DEPENDENCY_NEVER,
            R.JOB_HELD_USER,
            R.JOB_HELD_ADMIN,
            R.QOS_MAX_WALL,
        }
    )

    def estimate_start(self, job_id: int) -> Optional[float]:
        """Expected start time for a pending job (``squeue --start``).

        Uses the conservative shadow-time projection the backfill pass
        already computes; returns None for jobs blocked on conditions
        that cannot clear by themselves (bad constraints, holds, ...).
        """
        job = self._get(job_id)
        if job.state is not JobState.PENDING:
            return None
        if job.reason in self._PERMANENT_REASONS:
            return None
        now = self.clock.now()
        if self._select_nodes(job) is not None:
            return now  # would start on the next pass
        return max(now, self._projected_start(job))

    def refresh_node_loads(self) -> None:
        """Recompute per-node cpu_load from the utilization ground truth of
        the jobs running there (what `scontrol show node` reports)."""
        for node in self.nodes.values():
            load = 0.0
            for jid in node.running_job_ids:
                info = self._running.get(jid)
                if info is None:
                    continue
                load += info.per_node.cpus * info.utilization
            node.cpu_load = round(load, 2)

    # ------------------------------------------------------------------
    # the scheduling pass
    # ------------------------------------------------------------------

    def schedule_pass(self) -> int:
        """One pass of the main scheduler plus backfill.  Returns the number
        of jobs started.

        Re-entrant calls (a preempted job's teardown ends inside a pass)
        are deferred: the outer pass reruns until quiescent.
        """
        if self._in_pass:
            self._pass_requested = True
            return 0
        self._in_pass = True
        started = 0
        try:
            while True:
                self._pass_requested = False
                started += self._schedule_pass_once()
                if not self._pass_requested:
                    break
        finally:
            self._in_pass = False
        return started

    def _schedule_pass_once(self) -> int:
        self.stats["schedule_passes"] += 1
        self._purge_old()
        started = 0
        now = self.clock.now()

        queue = sorted(
            (self.jobs[j] for j in self._pending),
            key=lambda j: (-self._priority(j, now), j.job_id),
        )
        blocked_job: Optional[Job] = None
        shadow_time: Optional[float] = None
        examined_after_block = 0
        # Within one pass, identical (partition, shape) requests that failed
        # to fit will fail again unless something started meanwhile; memoize
        # to keep a deep backlog cheap (cleared whenever a job starts).
        no_fit: set = set()

        for job in queue:
            if job.state is not JobState.PENDING or job.job_id not in self._pending:
                continue  # state changed mid-pass (e.g. preemption teardown)
            job.priority = self._priority(job, now)
            if job.job_id in self._held:
                continue
            if blocked_job is not None:
                examined_after_block += 1
                if examined_after_block > self.config.backfill_depth:
                    job.reason = R.PRIORITY
                    continue
            reason = self._limit_reason(job)
            if reason is not None:
                job.reason = reason
                continue
            sig = (
                job.partition,
                job.req.cpus,
                job.req.mem_mb,
                job.req.gpus,
                job.req.nodes,
                tuple(sorted(job.spec.features)),
            )
            if sig in no_fit:
                job.reason = R.PRIORITY if blocked_job is not None else R.RESOURCES
                if blocked_job is None:
                    blocked_job = job
                    shadow_time = self._projected_start(job)
                continue
            nodes = self._select_nodes(job)
            if nodes is not None:
                if blocked_job is None:
                    self._start_job(job, nodes)
                    no_fit.clear()
                    started += 1
                    continue
                # backfill candidate: must finish before the blocked job's
                # projected start to be conservative
                if (
                    self.config.backfill
                    and shadow_time is not None
                    and now + job.time_limit <= shadow_time
                ):
                    self._start_job(job, nodes)
                    no_fit.clear()
                    self.stats["backfilled"] += 1
                    started += 1
                    continue
                job.reason = R.PRIORITY
                continue
            # cannot start now
            if (
                self.reservations
                and self._select_nodes(job, honor_reservations=False) is not None
            ):
                # only a reservation stands in the way (e.g. upcoming
                # maintenance): Slurm reports ReqNodeNotAvail
                job.reason = R.REQ_NODE_NOT_AVAIL
                continue
            # higher-priority QoS may preempt preemptible running jobs
            if blocked_job is None and self._try_preempt(job):
                nodes = self._select_nodes(job)
                if nodes is not None:
                    self._start_job(job, nodes)
                    no_fit.clear()
                    self.stats["preemptions_for"] = (
                        self.stats.get("preemptions_for", 0) + 1
                    )
                    started += 1
                    continue
            no_fit.add(sig)
            if blocked_job is None:
                blocked_job = job
                job.reason = R.RESOURCES
                shadow_time = self._projected_start(job)
            else:
                job.reason = R.PRIORITY
        return started

    def priority_components(self, job: Job, now: Optional[float] = None) -> Dict[str, float]:
        """Multifactor priority decomposition (what ``sprio`` reports)."""
        if now is None:
            now = self.clock.now()
        qos = self.qos[job.qos]
        age = max(0.0, now - job.eligible_time)
        return {
            "base": self.config.base_priority,
            "qos": qos.priority * self.config.qos_weight,
            "age": age * self.config.age_weight,
            "fairshare": self._fairshare_factor(job.account),
        }

    def _priority(self, job: Job, now: float) -> float:
        return sum(self.priority_components(job, now).values())

    def _fairshare_factor(self, account: str) -> float:
        """Fairshare points: the account's complement of its share of all
        accounts' consumed CPU-hours (a compact stand-in for Slurm's
        fair-tree algorithm)."""
        weight = self.config.fairshare_weight
        if weight <= 0:
            return 0.0
        total = sum(u.cpu_hours_used for u in self._usage.values())
        if total <= 0:
            return weight
        used = self._usage.get(account)
        share = (used.cpu_hours_used / total) if used is not None else 0.0
        return weight * (1.0 - share)

    # -- limit checks ----------------------------------------------------

    def _dependency_state(self, dep: int) -> JobState:
        live = self.jobs.get(dep)
        if live is not None:
            return live.state
        return self._outcomes[dep]

    def _limit_reason(self, job: Job) -> Optional[str]:
        for dep in job.spec.depends_on:
            state = self._dependency_state(dep)
            if state.is_active:
                return R.DEPENDENCY
            if state is not JobState.COMPLETED:
                # afterok: a failed/cancelled dependency blocks forever
                return R.DEPENDENCY_NEVER
        part = self.partitions[job.partition]
        if part.state != "UP":
            return R.PARTITION_DOWN
        if job.time_limit > part.max_time:
            return R.PARTITION_TIME_LIMIT
        if job.req.nodes > len(part.node_names):
            return R.PARTITION_NODE_LIMIT
        if job.spec.features and not self._features_satisfiable(job, part):
            return R.BAD_CONSTRAINTS

        assoc = self.associations.get(job.account)
        if assoc is not None:
            usage = self.association_usage(job.account)
            if assoc.max_jobs is not None and usage.running_jobs >= assoc.max_jobs:
                return R.ASSOC_MAX_JOBS_LIMIT
            if assoc.grp_tres is not None:
                after = usage.alloc + job.req
                if assoc.grp_tres.cpus and after.cpus > assoc.grp_tres.cpus:
                    return R.ASSOC_GRP_CPU_LIMIT
                if assoc.grp_tres.gpus and after.gpus > assoc.grp_tres.gpus:
                    return R.ASSOC_GRP_GRES_LIMIT

        qos = self.qos[job.qos]
        if qos.max_wall is not None and job.time_limit > qos.max_wall:
            return R.QOS_MAX_WALL
        if qos.max_jobs_per_user is not None:
            running = sum(
                1
                for info_id in self._running
                if self.jobs[info_id].user == job.user
                and self.jobs[info_id].qos == job.qos
            )
            if running >= qos.max_jobs_per_user:
                return R.QOS_MAX_JOBS_PER_USER
        if qos.max_tres_per_user is not None:
            held = TRES()
            for jid in self._running:
                other = self.jobs[jid]
                if other.user == job.user and other.qos == job.qos:
                    held = held + other.req
            after = held + job.req
            cap = qos.max_tres_per_user
            if (cap.cpus and after.cpus > cap.cpus) or (
                cap.gpus and after.gpus > cap.gpus
            ):
                return R.QOS_MAX_TRES_PER_USER
        return None

    def _features_satisfiable(self, job: Job, part: Partition) -> bool:
        want = set(job.spec.features)
        return any(
            want.issubset(set(self.nodes[nn].features)) for nn in part.node_names
        )

    # -- reservations --------------------------------------------------------

    def create_reservation(self, reservation: Reservation) -> Reservation:
        """Register a reservation (duplicate names rejected)."""
        if reservation.name in self.reservations:
            raise ValueError(f"duplicate reservation {reservation.name!r}")
        for name in reservation.node_names:
            if name not in self.nodes:
                raise ValueError(
                    f"reservation {reservation.name!r}: unknown node {name!r}"
                )
        self.reservations[reservation.name] = reservation
        return reservation

    def delete_reservation(self, name: str) -> None:
        """Remove a reservation by name."""
        if name not in self.reservations:
            raise KeyError(f"no reservation {name!r}")
        del self.reservations[name]

    def _node_reserved_against(self, node_name: str, job: Job, now: float) -> bool:
        """True if a reservation forbids starting ``job`` on this node now:
        the job's [now, now + limit] window would overlap the reservation."""
        for res in self.reservations.values():
            if node_name in res.node_names and res.overlaps(
                now, now + job.time_limit
            ):
                return True
        return False

    # -- node selection ----------------------------------------------------

    def _per_node_share(self, job: Job) -> TRES:
        n = job.req.nodes
        return TRES(
            cpus=math.ceil(job.req.cpus / n),
            mem_mb=math.ceil(job.req.mem_mb / n),
            gpus=math.ceil(job.req.gpus / n),
            nodes=1,
        )

    def _select_nodes(
        self, job: Job, honor_reservations: bool = True
    ) -> Optional[List[Node]]:
        """Best-fit selection of ``job.req.nodes`` distinct nodes."""
        part = self.partitions[job.partition]
        share = self._per_node_share(job)
        want = set(job.spec.features)
        now = self.clock.now()
        candidates = [
            node
            for nn in part.node_names
            if (node := self.nodes[nn]).can_fit(share)
            and want.issubset(set(node.features))
            and not (
                honor_reservations and self._node_reserved_against(nn, job, now)
            )
        ]
        if len(candidates) < job.req.nodes:
            return None
        candidates.sort(
            key=lambda n: (
                n.cpus - n.alloc.cpus,
                n.real_memory_mb - n.alloc.mem_mb,
                n.name,
            )
        )
        return candidates[: job.req.nodes]

    def _projected_start(self, job: Job) -> float:
        """Conservative estimate of when the blocked job could start: when
        enough running jobs have hit their time limits.  Used as the
        backfill shadow time."""
        now = self.clock.now()
        ends = sorted(
            (self.jobs[jid].start_time or now) + self.jobs[jid].time_limit
            for jid in self._running
        )
        if not ends:
            return now
        # Conservative: assume the blocked job can start once as many running
        # jobs have reached their limits as it needs nodes.
        needed = min(job.req.nodes, len(ends))
        return ends[needed - 1]

    # -- preemption ----------------------------------------------------------

    def _try_preempt(self, job: Job) -> bool:
        """Free resources for ``job`` by preempting lower-priority-QoS
        running jobs whose QoS allows it.  Victims are chosen lowest
        priority first, and only actually preempted when a sufficient set
        exists (dry-run first).  Returns True if preemption happened."""
        my_prio = self.qos[job.qos].priority
        part_nodes = set(self.partitions[job.partition].node_names)
        candidates = []
        for jid in self._running:
            victim = self.jobs[jid]
            vqos = self.qos[victim.qos]
            if vqos.preempt_mode == "off" or vqos.priority >= my_prio:
                continue
            if not set(victim.nodes) & part_nodes:
                continue
            candidates.append(victim)
        if not candidates:
            return False
        candidates.sort(key=lambda v: (self.qos[v.qos].priority, v.job_id))
        chosen: List[Job] = []
        for victim in candidates:
            chosen.append(victim)
            if self._fits_with_victims(job, chosen):
                for v in chosen:
                    self._preempt(v)
                self.stats["preempted"] = self.stats.get("preempted", 0) + len(
                    chosen
                )
                # requeued victims deserve a fresh pass once this one ends
                self._pass_requested = True
                return True
        return False

    def _fits_with_victims(self, job: Job, victims: Sequence[Job]) -> bool:
        """Would ``job`` fit if the victims' allocations were returned?"""
        share = self._per_node_share(job)
        want = set(job.spec.features)
        now = self.clock.now()
        avail: Dict[str, TRES] = {}
        for nn in self.partitions[job.partition].node_names:
            node = self.nodes[nn]
            if not node.state.is_schedulable:
                continue
            if not want.issubset(set(node.features)):
                continue
            if self._node_reserved_against(nn, job, now):
                continue
            avail[nn] = node.available
        for victim in victims:
            vshare = self._running[victim.job_id].per_node
            for nn in victim.nodes:
                if nn in avail:
                    avail[nn] = avail[nn] + TRES(
                        vshare.cpus, vshare.mem_mb, vshare.gpus, 0
                    )
        fitting = sum(
            1
            for a in avail.values()
            if a.cpus >= share.cpus
            and a.mem_mb >= share.mem_mb
            and a.gpus >= share.gpus
        )
        return fitting >= job.req.nodes

    def _preempt(self, victim: Job) -> None:
        mode = self.qos[victim.qos].preempt_mode
        info = self._running[victim.job_id]
        if info.finish_handle is not None:
            info.finish_handle.cancel()
        if mode == "cancel":
            self._end_job(victim, JobState.PREEMPTED, exit_code=0)
            return
        # requeue: return the allocation and put the job back in the queue
        now = self.clock.now()
        self._running.pop(victim.job_id)
        for name in victim.nodes:
            self.nodes[name].release(info.per_node, victim.job_id)
        usage = self.association_usage(victim.account)
        usage.alloc = usage.alloc - victim.req
        usage.running_jobs -= 1
        usage.cpu_hours_used += victim.cpu_hours(now)
        usage.gpu_hours_used += victim.gpu_hours(now)
        victim.state = JobState.PENDING
        victim.reason = R.PRIORITY
        victim.nodes = []
        victim.start_time = None
        victim.end_time = None
        victim.eligible_time = now
        self._pending.append(victim.job_id)

    # -- node failure ---------------------------------------------------------

    def fail_node(self, name: str, reason: str = "node failure") -> List[Job]:
        """Hard-fail a node: it goes DOWN and every job running on it ends
        as NODE_FAIL.  Returns the killed jobs."""
        node = self.node(name)
        victims = [self.jobs[jid] for jid in list(node.running_job_ids)]
        node.set_down(reason)
        for job in victims:
            info = self._running[job.job_id]
            if info.finish_handle is not None:
                info.finish_handle.cancel()
            self._end_job(job, JobState.NODE_FAIL, exit_code=1)
        self.schedule_pass()
        return victims

    # -- start / end ----------------------------------------------------------

    def _start_job(self, job: Job, nodes: List[Node]) -> None:
        now = self.clock.now()
        share = self._per_node_share(job)
        for node in nodes:
            node.allocate(share, job.job_id)
            node.last_busy = now
        job.nodes = [n.name for n in nodes]
        job.state = JobState.RUNNING
        job.reason = R.NONE
        job.start_time = now
        self._pending.remove(job.job_id)

        spec = job.spec
        runtime = min(spec.actual_runtime, job.time_limit)
        final_state = JobState.COMPLETED
        exit_code = spec.exit_code
        if spec.fail_state is not None:
            final_state = spec.fail_state
            if exit_code == 0 and final_state in (JobState.FAILED, JobState.NODE_FAIL):
                exit_code = 1
            runtime = min(runtime, spec.actual_runtime)
        elif spec.actual_max_rss_mb and spec.actual_max_rss_mb > share.mem_mb:
            final_state = JobState.OUT_OF_MEMORY
            exit_code = 137  # SIGKILL by the OOM killer
            runtime = min(runtime, max(1.0, 0.5 * runtime))
        elif spec.actual_runtime > job.time_limit:
            final_state = JobState.TIMEOUT
            exit_code = 0
            runtime = job.time_limit
        elif exit_code != 0:
            final_state = JobState.FAILED

        info = _RunInfo(per_node=share, utilization=spec.actual_cpu_utilization)
        info.final_state = final_state
        info.final_exit_code = exit_code
        info.finish_handle = self.loop.schedule_in(
            runtime,
            lambda j=job, st=final_state, ec=exit_code: self._end_job(j, st, ec),
            f"end job {job.job_id}",
        )
        self._running[job.job_id] = info

        usage = self.association_usage(job.account)
        usage.alloc = usage.alloc + job.req
        usage.running_jobs += 1
        self.stats["started"] += 1

    def _end_job(self, job: Job, final_state: JobState, exit_code: int) -> None:
        now = self.clock.now()
        info = self._running.pop(job.job_id)
        for name in job.nodes:
            self.nodes[name].release(info.per_node, job.job_id)
        job.state = final_state
        job.end_time = now
        job.exit_code = exit_code
        elapsed = job.elapsed(now)
        job.total_cpu_seconds = elapsed * job.req.cpus * info.utilization
        job.max_rss_mb = job.spec.actual_max_rss_mb or max(
            1, int(info.per_node.mem_mb * 0.5)
        )

        usage = self.association_usage(job.account)
        usage.alloc = usage.alloc - job.req
        usage.running_jobs -= 1
        usage.gpu_hours_used += job.gpu_hours(now)
        usage.cpu_hours_used += job.cpu_hours(now)

        self.stats["completed"] += 1
        self._retire(job)
        self.schedule_pass()

    def _retire(self, job: Job) -> None:
        """Archive the job and queue it for purge after min_job_age."""
        self._outcomes[job.job_id] = job.state
        if self._on_job_end is not None:
            self._on_job_end(job.clone())
        self._purge_queue.append(
            (self.clock.now() + self.config.min_job_age, job.job_id)
        )

    def _purge_old(self) -> None:
        now = self.clock.now()
        keep: List[tuple[float, int]] = []
        for t, jid in self._purge_queue:
            if t <= now:
                self.jobs.pop(jid, None)
            else:
                keep.append((t, jid))
        self._purge_queue = keep
