"""The benchmark's server process: a fresh interpreter serving one dashboard.

Started by :mod:`perfbench.run` as ``python3 -m perfbench.server`` with
``PYTHONPATH=src``.  It builds the seeded demo dashboard, serves it with
:class:`~repro.web.server.DashboardServer` on an ephemeral port, prints
one JSON line (port, pid and the catalog the plan draws users, nodes and
jobs from), then obeys one JSON command per stdin line, answering each
with one JSON line on stdout:

* ``drain`` — wait until the worker pool has no queued or running task;
* ``tick`` — drain, advance the cluster ``advance_s`` simulated seconds
  and submit the listed jobs (the tick barrier);
* ``outage`` — install a ``slurmctld`` outage ``[now+start_s, now+end_s)``;
* ``spans`` — traced mode only: write the recorded spans to ``path``;
* ``quit`` — stop serving and exit.

With ``--trace 1`` the span wrappers of :mod:`perfbench.layers` are
installed before the first request; nothing else differs.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from perfbench.plan import BUILD_HOURS, BUILD_SEED


def _catalog(dash, directory) -> dict:
    cluster = dash.ctx.cluster
    users = sorted(u.username for u in directory.users())
    return {
        "users": users,
        "accounts": {u: directory.account_names_of(u) for u in users},
        "nodes": sorted(cluster.nodes),
        "jobs": [
            [job_id, job.spec.user]
            for job_id, job in sorted(cluster.scheduler.jobs.items())
        ],
    }


def _drain(dash) -> None:
    """Block until the shared worker pool is idle (read from the same
    gauges ``/metrics`` exports).  Queue depth is read before the active
    count, and two idle readings in a row are required, so a task moving
    from the queue to a worker between the reads is never missed."""
    registry = dash.ctx.obs.registry
    queued = registry.get("repro_worker_pool_queue_depth")
    active = registry.get("repro_worker_pool_active")
    idle = 0
    while idle < 2:
        if queued.value(pool="core") == 0 and active.value(pool="core") == 0:
            idle += 1
        else:
            idle = 0
        time.sleep(0.0005)


def _submit(cluster, jobs) -> None:
    from repro.slurm.model import JobSpec, TRES

    for job in jobs:
        cluster.submit(
            JobSpec(
                name=job["name"],
                user=job["user"],
                account=job["account"],
                partition=job["partition"],
                req=TRES(
                    cpus=job["cpus"], mem_mb=job["cpus"] * 2000,
                    gpus=job["gpus"], nodes=1,
                ),
                time_limit=job["time_limit_s"],
                actual_runtime=job["runtime_s"],
            )
        )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    from repro import build_demo_dashboard
    from repro.faults import FaultPlan
    from repro.web.server import DashboardServer

    dash, directory, _ = build_demo_dashboard(
        seed=BUILD_SEED, duration_hours=BUILD_HOURS
    )
    spans = None
    if args.trace:
        from perfbench.layers import install

        spans = install(dash)
    server = DashboardServer(dash, port=0).start()
    out = sys.stdout

    def reply(doc: dict) -> None:
        out.write(json.dumps(doc) + "\n")
        out.flush()

    reply({
        "port": server.port,
        "pid": os.getpid(),
        "catalog": _catalog(dash, directory),
    })
    cluster = dash.ctx.cluster
    try:
        for line in sys.stdin:
            cmd = json.loads(line)
            op = cmd["op"]
            if op == "drain":
                _drain(dash)
                reply({"ok": True})
            elif op == "tick":
                _drain(dash)
                t0 = time.perf_counter()
                cluster.advance(cmd["advance_s"])
                _submit(cluster, cmd.get("submit", ()))
                advance_ms = (time.perf_counter() - t0) * 1000.0
                if spans is not None and cmd.get("measured"):
                    spans.ticks_ms.append(advance_ms)
                reply({"ok": True, "advance_ms": advance_ms})
            elif op == "outage":
                now = cluster.now()
                plan = FaultPlan(seed=0)
                plan.schedule_outage(
                    "slurmctld", now + cmd["start_s"], now + cmd["end_s"]
                )
                dash.inject_faults(plan)
                reply({"ok": True})
            elif op == "spans":
                if spans is None:
                    raise RuntimeError("spans requested from an untraced server")
                spans.dump(cmd["path"])
                reply({"ok": True})
            elif op == "quit":
                break
            else:
                raise ValueError(f"unknown command {op!r}")
    finally:
        server.stop()
    reply({"ok": True, "bye": True})
    return 0


if __name__ == "__main__":
    sys.exit(main())
