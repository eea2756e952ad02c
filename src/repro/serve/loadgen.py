"""Closed-loop load generation against a :class:`~repro.serve.Server`.

``clients`` concurrent client coroutines each submit ``requests`` jobs
back to back (closed loop: the next submit waits for the previous result),
drawing specs round-robin from the given list — deterministic, so a bench
run is reproducible and an over-capacity configuration rejects/sheds the
*same* jobs every time. The report counts every terminal outcome
(completed, rejected, shed, cancelled, failed) and summarizes end-to-end
latency percentiles of the completed jobs, per spec and overall — the
numbers ``repro serve`` prints.
"""

from __future__ import annotations

import asyncio
import time
from typing import Sequence

from repro.observability.metrics import percentiles
from repro.serve.errors import DeadlineExceeded, QueueFullError, ServeError
from repro.serve.server import Server
from repro.workload import WorkloadSpec


async def run_closed_loop(
    server: Server,
    specs: Sequence[WorkloadSpec | str],
    *,
    clients: int = 4,
    requests: int = 8,
    tenants: int = 1,
    deadline: float | None = None,
    priority: int = 0,
) -> dict:
    """Drive the server with a closed loop; returns the outcome report.

    Client ``c`` belongs to tenant ``"client<c mod tenants>"`` and submits
    ``requests`` jobs, cycling through ``specs`` starting at its own
    index. Rejected submits count and continue — a closed loop pushed
    over capacity measures the admission controller, not a hang.
    """
    resolved = [
        WorkloadSpec.parse(s) if isinstance(s, str) else s for s in specs
    ]
    outcomes: list[tuple[WorkloadSpec, str, float]] = []

    async def _client(index: int) -> None:
        tenant = f"client{index % tenants}"
        for r in range(requests):
            spec = resolved[(index + r) % len(resolved)]
            t0 = time.perf_counter()
            try:
                handle = await server.submit(
                    spec, tenant=tenant, priority=priority, deadline=deadline
                )
                await handle
            except QueueFullError:
                outcomes.append((spec, "rejected", 0.0))
                continue
            except DeadlineExceeded:
                outcomes.append((spec, "shed", 0.0))
                continue
            except asyncio.CancelledError:
                outcomes.append((spec, "cancelled", 0.0))
                continue
            except ServeError:
                outcomes.append((spec, "failed", 0.0))
                continue
            outcomes.append((spec, "ok", time.perf_counter() - t0))

    await asyncio.gather(*(_client(c) for c in range(clients)))
    return _report(outcomes)


def _report(outcomes: list[tuple[WorkloadSpec, str, float]]) -> dict:
    per_spec: dict[str, dict] = {}
    ok_latencies: list[float] = []
    counts = {"ok": 0, "rejected": 0, "shed": 0, "cancelled": 0, "failed": 0}
    for spec, outcome, latency in outcomes:
        key = spec.describe()
        entry = per_spec.setdefault(
            key, {"ok": 0, "rejected": 0, "shed": 0, "cancelled": 0,
                  "failed": 0, "latencies": []}
        )
        entry[outcome] += 1
        counts[outcome] += 1
        if outcome == "ok":
            entry["latencies"].append(latency)
            ok_latencies.append(latency)
    for entry in per_spec.values():
        entry["latency"] = percentiles(entry.pop("latencies"))
    return {
        "jobs": len(outcomes),
        **counts,
        "latency": percentiles(ok_latencies),
        "per_spec": per_spec,
    }
