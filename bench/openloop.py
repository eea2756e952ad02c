"""Open-loop load generator for ``repro.serve`` (``repro.serve.loadgen`` is closed-loop only).

Independent users do not wait for each other, so jobs are sent on a
schedule whatever the server is doing, and each job is timed from the
moment it was *due*: a stall delays later sends, and that delay is the
stalled server's cost, not the generator's. How late the generator itself
ran is reported separately (``lateness``), so a slow generator cannot pass
for a slow server.

One thread, one event loop: a dispatcher sleeps until the next due time
and only then creates that job's coroutine, so there are never more
generator coroutines than jobs in flight.
"""

from __future__ import annotations

import asyncio
import random
import time
from dataclasses import dataclass
from typing import Sequence


def arrival_schedule(
    seed: int, jobs: int, rate: float, population: Sequence[str]
) -> list[tuple[float, str]]:
    """``[(due_seconds, spec)]`` for one run; the same seed gives the same list.

    Inter-arrival gaps are exponential draws scaled to sum to ``jobs / rate``
    (a Poisson process conditioned on its count), so every seed offers
    exactly ``rate`` jobs/s over the same span and run-to-run differences
    in throughput come from the server, not from the draw. The population
    is dealt deck by deck, each deck shuffled, for the same reason: every
    seed serves the same set of jobs, and no seed draws a long run of the
    dearest spec that another seed never sees.
    """
    rng = random.Random(seed)
    gaps = [rng.expovariate(1.0) for _ in range(jobs)]
    scale = (jobs / rate) / sum(gaps)
    specs: list[str] = []
    while len(specs) < jobs:
        deck = list(population)
        rng.shuffle(deck)
        specs.extend(deck)
    del specs[jobs:]
    due, now = [], 0.0
    for gap in gaps:
        now += gap * scale
        due.append(now)
    return list(zip(due, specs))


@dataclass
class JobRecord:
    """Wall-clock marks of one job, in seconds from the window start."""

    index: int
    spec: str
    due: float
    started: float = 0.0    # the generator actually began the submit
    admitted: float = 0.0   # submit() returned a handle
    done: float = 0.0       # the handle resolved (or the job failed)
    outcome: str = "ok"     # ok | rejected | shed | failed
    result: object = None

    @property
    def latency(self) -> float:
        return self.done - self.due

    @property
    def lateness(self) -> float:
        return self.started - self.due


async def run_open_loop(
    server,
    schedule: Sequence[tuple[float, str]],
    keep_results: bool = False,
    sample_health: float = 0.0,
) -> tuple[list[JobRecord], list[dict], float]:
    """Drive ``server`` through ``schedule``.

    Returns the job records, the health samples, and the ``perf_counter``
    reading the records' seconds count from.

    ``sample_health`` > 0 polls ``server.health()`` at that period while
    the window runs (traced runs only: it is extra work on the loop).
    """
    from repro.serve.errors import DeadlineExceeded, QueueFullError, ServeError

    records = [JobRecord(i, spec, due) for i, (due, spec) in enumerate(schedule)]
    t0 = time.perf_counter()

    async def _job(rec: JobRecord) -> None:
        rec.started = time.perf_counter() - t0
        try:
            handle = await server.submit(rec.spec)
            rec.admitted = time.perf_counter() - t0
            result = await handle
            if keep_results:
                rec.result = result
        except QueueFullError:
            rec.outcome = "rejected"
        except DeadlineExceeded:
            rec.outcome = "shed"
        except ServeError:
            rec.outcome = "failed"
        rec.done = time.perf_counter() - t0
        if not rec.admitted:
            rec.admitted = rec.done

    samples: list[dict] = []
    sampling = True

    async def _sampler() -> None:
        while sampling:
            samples.append(server.health())
            await asyncio.sleep(sample_health)

    sampler = asyncio.create_task(_sampler()) if sample_health > 0 else None
    tasks = []
    for rec in records:
        delay = rec.due - (time.perf_counter() - t0)
        if delay > 0:
            await asyncio.sleep(delay)
        tasks.append(asyncio.create_task(_job(rec)))
    await asyncio.gather(*tasks)
    sampling = False
    if sampler is not None:
        await sampler
    return records, samples, t0
