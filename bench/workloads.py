"""The five workloads. Names, sizes and metric names are the contract
(``BENCHMARK.json``, ``bench/README.md``); every later performance claim
names one metric and one workload from here.

Each workload measures the program **from outside**: it calls public
functions and times the calls. A traced run passes a :class:`Tracer`; the
same calls are then wrapped in spans, and the per-layer numbers are read
from the spans and from what the calls return (``GroupRun.chunk_seconds``,
``CompiledPlanCache.hits``, ``Server.health()``).

Operation counts are fixed: each workload's ``OPS`` at the contract's
``run_seconds`` (scaled in proportion by ``--seconds``), so two commits
always run the same operations whatever their speed.

The host this runs on shares its cores: the same operation of the same code
reads up to 1.6 times its undisturbed time for seconds to tens of seconds,
whenever the neighbours are busy. A window's median and mean follow the
neighbours; its fastest operation is the one they disturbed least and is the
one statistic of a window that repeats (``bench/README.md`` has the
numbers). So a window of back-to-back operations reports its fastest
operation as ``latency_ms`` and that operation's rate as ``work_per_s``.
"""

from __future__ import annotations

import asyncio
import os
import time
from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

from repro.observability.metrics import percentiles
from repro.stencil.compiled import (
    CompiledPlanCache,
    run_program_compiled,
    run_program_stacked,
)
from repro.stencil.numpy_eval import run_program

from benchlib import Tracer, geomean, median
from openloop import arrival_schedule, run_open_loop


@dataclass
class Window:
    """One timed window: per-operation seconds and what the contract reports of them."""

    latencies: list[float]
    latency_s: float     # what ``latency_ms`` reports, in seconds
    work_per_s: float    # work units (the workload's own) per second
    attempted: int
    failed: int


def golden(program, fields, niter):
    """The reference result: the tree-walking interpreter, never the engine under test."""
    return run_program(program, fields, niter, engine="interpreter")


def same_fields(got, want) -> bool:
    """Bit-identity (``np.array_equal``, no tolerance) on every field of ``want``."""
    return all(np.array_equal(got[name].data, want[name].data) for name in want)


def traced_cache(cache: CompiledPlanCache, tracer: Tracer | None) -> CompiledPlanCache:
    """Wrap the public calls of ``cache``, and of every program it binds, in spans.

    ``plan_for`` → ``stencil.plan``; a ``get`` that compiles → ``stencil.bind``
    (one that hits → ``stencil.get``); on each bound program ``load*`` →
    ``stencil.load``, ``run_iterations`` → ``stencil.steady``, ``result*`` →
    ``stencil.copyout``. Instance attributes shadow the methods, so the
    program's own ``run``/``run_stacked`` go through the wrappers too.
    """
    if tracer is None:
        return cache
    get = cache.get
    cache.plan_for = tracer.wrap("stencil.plan", cache.plan_for)

    def traced_get(*args, **kwargs):
        misses = cache.misses
        with tracer.span("stencil.get") as sid:
            compiled = get(*args, **kwargs)
        if cache.misses != misses:
            if sid is not None:
                tracer.spans[sid]["name"] = "stencil.bind"
                tracer.spans[sid]["rung"] = getattr(compiled, "native_backend", "tape")
            for method, span in (
                ("load", "stencil.load"),
                ("load_stacked", "stencil.load"),
                ("run_iterations", "stencil.steady"),
                ("result", "stencil.copyout"),
                ("result_stacked", "stencil.copyout"),
            ):
                setattr(compiled, method, tracer.wrap(span, getattr(compiled, method)))
        return compiled

    cache.get = traced_get
    return cache


class Workload:
    """One set of inputs; ``setup`` → ``run_window`` → ``gate`` → ``teardown``."""

    name = ""
    #: timed operations in the window at the contract's ``run_seconds``
    OPS = 10
    #: what one work unit is
    work_unit = "cell-updates"
    #: bytes of one mesh array, for the bandwidth probe
    array_bytes = 64 << 20
    #: work units one operation completes
    work_per_op = 0.0

    def __init__(self, seed: int, scale: float = 1.0, smoke: bool = False,
                 tracer: Tracer | None = None):
        self.seed = seed
        self.smoke = smoke
        self.tracer = tracer
        self.ops = 2 if smoke else max(3, round(self.OPS * scale))
        if smoke:
            self.array_bytes = 1 << 20
        self.info: dict = {}
        #: per-operation layer samples noted outside the clock (traced runs)
        self.notes: dict[str, list[float]] = {}

    # -- helpers ------------------------------------------------------------------
    def span(self, name: str, **attrs):
        if self.tracer is None:
            return nullcontext()
        return self.tracer.span(name, **attrs)

    @property
    def tracing(self) -> bool:
        return self.tracer is not None and self.tracer.active

    def note(self, name: str, value: float) -> None:
        if self.tracing:
            self.notes.setdefault(name, []).append(float(value))

    # -- protocol -----------------------------------------------------------------
    def setup(self) -> None:
        raise NotImplementedError

    def op(self):
        raise NotImplementedError

    def check(self, out) -> bool:
        """Is one operation's output right? Runs outside the clock."""
        raise NotImplementedError

    def gate(self) -> tuple[int, int]:
        """Golden-reference check, outside set-up and window: (attempted, failed)."""
        return 0, 0

    def teardown(self) -> None:
        pass

    def run_window(self, ops: int) -> Window:
        """``ops`` operations back to back; the clock stops while each is checked."""
        latencies, failed = [], 0
        for i in range(ops):
            if self.tracer is not None:
                self.tracer.op = i
            with self.span("op"):
                t0 = time.perf_counter()
                out = self.op()
                latencies.append(time.perf_counter() - t0)
            if not self.check(out):
                failed += 1
            del out
        fastest = min(latencies)
        return Window(latencies, fastest, self.work_per_op / fastest, ops, failed)

    def layer_metrics(self, window: Window) -> dict[str, float]:
        """Per-layer numbers of a traced window (names from ``BENCHMARK.json``)."""
        return {}

    # -- layer arithmetic shared by the execution workloads ---------------------
    def stencil_metrics(self, cell_updates: float, nbytes: float) -> dict[str, float]:
        """The ``stencil.*`` layer from the cache wrappers' spans.

        ``cell_updates``/``nbytes`` are per operation; the bytes are
        *computed* from ``program.bytes_per_cell_pass()`` (external reads
        and writes per cell per iteration), not measured: cache misses move
        more.
        """
        t = self.tracer
        steady = median(t.per_op("stencil.steady"))
        binds = {s["id"] for s in t.spans if s["name"] == "stencil.bind"}
        # the stacked path lowers before, and outside, the get that binds:
        # only a lowering inside a bind span is part of that span
        plan_in_bind = sum(
            s["end"] - s["start"]
            for s in t.spans
            if s["name"] == "stencil.plan" and s["parent"] in binds and s["op"] == "setup"
        )
        out = {
            "stencil.plan_s": t.total("stencil.plan", op="setup"),
            "stencil.bind_s": t.total("stencil.bind", op="setup") - plan_in_bind,
            "stencil.load_s": median(t.per_op("stencil.load")),
            "stencil.steady_s": steady,
            "stencil.copyout_s": median(t.per_op("stencil.copyout")),
            "stencil.bytes_per_cell": nbytes / cell_updates,
        }
        if steady > 0:
            out["stencil.cells_per_s"] = cell_updates / steady
            out["stencil.bw_gbs"] = nbytes / steady / 1e9
        self.info["native_rungs"] = sorted(
            {s["rung"] for s in t.spans if s["name"] == "stencil.bind"}
        )
        return out


# --------------------------------------------------------------------------- #
# stream_jacobi3d
# --------------------------------------------------------------------------- #
class StreamJacobi3D(Workload):
    """One out-of-cache mesh streamed through the steady loop (the paper's baseline regime)."""

    name = "stream_jacobi3d"
    OPS = 12
    NITER = 8
    GATE_NITER = 2

    def setup(self) -> None:
        from repro.apps import jacobi3d_app

        n = 24 if self.smoke else 256
        app = jacobi3d_app()
        self.program = app.program_on((n, n, n))
        with self.span("mesh.fields"):
            self.fields = app.fields((n, n, n), seed=self.seed)
        self.cells = n**3
        self.array_bytes = self.cells * 4
        self.work_per_op = self.cells * self.NITER
        self.cache = traced_cache(CompiledPlanCache(max_bytes=4 << 30), self.tracer)
        # two untimed warm-ups: the first pays lowering, the cold cc build
        # and the bind-time verify; the second shows the steady state is reached
        for _ in range(2):
            self.reference = self.solve(self.NITER)
        program = self.cache.get(self.program, self.fields, native=True)
        self.info.update(
            mesh=[n, n, n],
            niter=self.NITER,
            array_bytes=self.array_bytes,
            plan_working_set_bytes=program.nbytes,
            native_rungs=[program.native_backend],
        )

    def solve(self, niter: int):
        return run_program_compiled(
            self.program, self.fields, niter, cache=self.cache, engine="native"
        )

    def op(self):
        return self.solve(self.NITER)

    def check(self, out) -> bool:
        return same_fields(out, self.reference)

    def gate(self) -> tuple[int, int]:
        # the interpreter at full niter on the full mesh would not fit the
        # run; the same mesh at a reduced count exercises the same plan
        want = golden(self.program, self.fields, self.GATE_NITER)
        return 1, int(not same_fields(self.solve(self.GATE_NITER), want))

    def layer_metrics(self, window: Window) -> dict[str, float]:
        nbytes = self.work_per_op * self.program.bytes_per_cell_pass()
        out = self.stencil_metrics(self.work_per_op, nbytes)
        out["mesh.fields_s"] = self.tracer.total("mesh.fields")
        return out


# --------------------------------------------------------------------------- #
# tiled_poisson2d
# --------------------------------------------------------------------------- #
class TiledPoisson2D(Workload):
    """Spatial blocking (paper §IV-A): many block replays through one cached plan."""

    name = "tiled_poisson2d"
    OPS = 9
    P = 4
    NITER = 24  # six passes

    def setup(self) -> None:
        from repro.apps import poisson2d_app
        from repro.dataflow.tiler import SpatialTiler
        from repro.model.design import DesignPoint
        from repro.model.tiling import TileDesign

        n, tile = (96, 48) if self.smoke else (4096, 1024)
        app = poisson2d_app()
        self.program = app.program_on((n, n))
        with self.span("mesh.fields"):
            self.fields = app.fields((n, n), seed=self.seed)
        self.cells = n * n
        self.array_bytes = self.cells * 4
        self.work_per_op = self.cells * self.NITER
        self.cache = traced_cache(CompiledPlanCache(max_bytes=4 << 30), self.tracer)
        design = DesignPoint(V=8, p=self.P, clock_mhz=250.0, tile=TileDesign((tile,)))
        self.tiler = SpatialTiler(
            self.program, design, engine="native", plan_cache=self.cache
        )
        if self.tracer is not None:
            self._trace_passes()
        for _ in range(2):
            self.reference = self.op()
        self.info.update(
            mesh=[n, n], niter=self.NITER, tile=tile, p=self.P,
            array_bytes=self.array_bytes,
        )

    def _trace_passes(self) -> None:
        """Span every block's ``pipeline.run_pass``; note the cells it computes."""
        run_pass = self.tiler.pipeline.run_pass
        state = self.program.state_fields[0]

        def traced_pass(fields, *args, **kwargs):
            cells = fields[state].spec.num_points
            with self.span("dataflow.tiler_pass", cells=cells):
                return run_pass(fields, *args, **kwargs)

        self.tiler.pipeline.run_pass = traced_pass

    def op(self):
        with self.span("dataflow.tiler_run"):
            return self.tiler.run(self.fields, self.NITER)

    def check(self, out) -> bool:
        return same_fields(out, self.reference)

    def gate(self) -> tuple[int, int]:
        want = golden(self.program, self.fields, self.P)
        got = self.tiler.run(self.fields, self.P)
        return 1, int(not same_fields(got, want))

    def layer_metrics(self, window: Window) -> dict[str, float]:
        t = self.tracer
        passes = [s for s in t.spans if s["name"] == "dataflow.tiler_pass" and s["op"] == 0]
        computed = sum(s["cells"] for s in passes) * self.P
        nbytes = computed * self.program.bytes_per_cell_pass()
        out = self.stencil_metrics(computed, nbytes)
        run_s = median(t.per_op("dataflow.tiler_run"))
        pass_s = median(t.per_op("dataflow.tiler_pass"))
        out.update(
            {
                "mesh.fields_s": t.total("mesh.fields"),
                "dataflow.tiler_run_s": run_s,
                "dataflow.tiler_pass_s": pass_s,
                "dataflow.tiler_self_s": run_s - pass_s,
                "dataflow.tiler_blocks": len(passes),
                "dataflow.tiler_redundancy": computed / self.work_per_op,
            }
        )
        return out


# --------------------------------------------------------------------------- #
# mix_batched
# --------------------------------------------------------------------------- #
class MixBatched(Workload):
    """Batching (paper §IV-B, eq. 15): dispatch-bound small meshes in stacked chunks."""

    name = "mix_batched"
    OPS = 8
    #: the paper's small-batch sizes: 100B Poisson, 10B Jacobi, 20B RTM
    MIX = (
        "poisson2d:200x100:240x100,poisson2d:300x150:120x100,"
        "jacobi3d:50x50x50:116x10,rtm:32x32x32:9x20"
    )
    SMOKE_MIX = "poisson2d:20x10:6x5,jacobi3d:8x8x8:3x3"

    def setup(self) -> None:
        from repro.dataflow.scheduler import MixScheduler
        from repro.workload import WorkloadMix

        with self.span("workload.parse"):
            self.mix = WorkloadMix.parse(self.SMOKE_MIX if self.smoke else self.MIX)
            self.groups = list(self.mix.job_groups().values())
        self.work_per_op = float(
            sum(g.mesh.num_points * g.niter * g.batch for g in self.groups)
        )
        self.cache = traced_cache(CompiledPlanCache(max_bytes=1 << 30), self.tracer)
        self.scheduler = MixScheduler(
            engine="native", seed=self.seed, plan_cache=self.cache
        )
        for _ in range(2):
            self.reference = self.ends(self.op())
        self.info.update(mix=self.mix.describe(), meshes=sum(g.batch for g in self.groups))

    def op(self):
        with self.span("dataflow.sched_run"):
            return self.scheduler.run(self.mix)

    @staticmethod
    def ends(run) -> list[tuple[dict, dict]]:
        """First and last mesh of every group: what the gate re-solves."""
        return [(g.results[0], g.results[-1]) for g in run.groups]

    def check(self, run) -> bool:
        self.note("stencil.chunk_s", sum(sum(g.chunk_seconds) for g in run.groups))
        self.note("dataflow.dispatches", run.dispatches)
        self.note("dataflow.meshes", run.meshes)
        self.note(
            "dataflow.stacked_meshes",
            sum(c for g in run.groups for c in g.chunks if c > 1),
        )
        return run.ok and all(
            same_fields(got, want)
            for pair, ref in zip(self.ends(run), self.reference)
            for got, want in zip(pair, ref)
        )

    def gate(self) -> tuple[int, int]:
        # the scheduler seeds member i of a group with seed + i
        attempted = failed = 0
        for spec, ref in zip(self.groups, self.reference):
            program = spec.program()
            for index, got in zip((0, spec.batch - 1), ref):
                want = golden(program, spec.fields(seed=self.seed + index), spec.niter)
                attempted += 1
                failed += int(not same_fields(got, want))
        return attempted, failed

    def layer_metrics(self, window: Window) -> dict[str, float]:
        t = self.tracer
        nbytes = sum(
            g.mesh.num_points * g.niter * g.batch * g.program().bytes_per_cell_pass()
            for g in self.groups
        )
        out = self.stencil_metrics(self.work_per_op, nbytes)
        run_s = median(t.per_op("dataflow.sched_run"))
        chunk_s = median(self.notes["stencil.chunk_s"])
        out.update(
            {
                "workload.parse_s": t.total("workload.parse"),
                "stencil.chunk_s": chunk_s,
                "dataflow.sched_run_s": run_s,
                "dataflow.sched_self_s": run_s - chunk_s,
                "dataflow.dispatches": median(self.notes["dataflow.dispatches"]),
                "dataflow.meshes": median(self.notes["dataflow.meshes"]),
                "dataflow.stacked_meshes": median(self.notes["dataflow.stacked_meshes"]),
            }
        )
        return out


# --------------------------------------------------------------------------- #
# serve_open
# --------------------------------------------------------------------------- #
class ServeOpen(Workload):
    """Top of the stack as independent users see it: an open loop at a fixed rate."""

    name = "serve_open"
    work_unit = "jobs within the latency limit"
    OPS = 128
    #: jobs per second offered: about a third of what the default server
    #: sustains on the reference host, so most jobs find the server idle
    RATE = 8.0
    #: a job later than this from its due time is a failed operation
    LIMIT_S = 1.0
    POPULATION = (
        "poisson2d:200x100:60",
        "poisson2d:200x100:60",
        "poisson2d:300x150:60",
        "jacobi3d:50x50x50:29",
        "rtm:32x32x32:6",
    )
    SMOKE_POPULATION = ("poisson2d:20x10:4", "jacobi3d:8x8x8:2")
    WARM_JOBS = 16

    def setup(self) -> None:
        from repro.serve import Server, ServerConfig

        self.population = self.SMOKE_POPULATION if self.smoke else self.POPULATION
        if self.smoke:
            self.ops = 8
            self.RATE = 200.0  # no waiting between arrivals
            self.LIMIT_S = 30.0  # the harness tests run many smokes side by side
        self.loop = asyncio.new_event_loop()
        #: the jobs of every window so far: a traced run's plain and traced
        #: windows offer the same load, and the tail needs the samples of both
        self.seen: list = []
        # defaults, whatever they are at the commit under test
        self.server = Server(ServerConfig())
        self.info.update(
            serve_engine=self.server.config.engine,
            offered_per_s=self.RATE,
            latency_limit_ms=self.LIMIT_S * 1e3,
            population=list(self.population),
        )
        # warm-up: one job of each spec alone (member 0 of its group, which
        # the gate can re-derive), then a short open loop so pools, plans
        # and worker-side caches have seen every spec under overlap
        self.warm = {}
        for spec in dict.fromkeys(self.population):
            self.warm[spec] = self.loop.run_until_complete(self._one(spec))
        warm_jobs = 4 if self.smoke else self.WARM_JOBS
        schedule = arrival_schedule(self.seed + 1, warm_jobs, self.RATE, self.population)
        self.loop.run_until_complete(run_open_loop(self.server, schedule))

    async def _one(self, spec: str):
        handle = await self.server.submit(spec)
        return await handle

    def run_window(self, ops: int) -> Window:
        schedule = arrival_schedule(self.seed, ops, self.RATE, self.population)
        sample = 0.05 if self.tracing else 0.0
        records, health, t0 = self.loop.run_until_complete(
            run_open_loop(self.server, schedule, sample_health=sample)
        )
        self.records, self.health = records, health
        self.seen.extend(records)
        good = [r for r in records if r.outcome == "ok" and r.latency <= self.LIMIT_S]
        wall = max(r.done for r in records)
        if self.tracing:
            for r in records:
                root = self.tracer.add(
                    "op", t0 + r.due, t0 + r.done, op=r.index, spec=r.spec
                )
                for name, a, b in (
                    ("serve.gen_late", r.due, r.started),
                    ("serve.submit", r.started, r.admitted),
                    ("serve.resolve", r.admitted, r.done),
                ):
                    self.tracer.add(name, t0 + a, t0 + b, parent=root, op=r.index)
        return Window(
            [r.latency for r in good], self.latency_stat(good), len(good) / wall,
            ops, ops - len(good),
        )

    @staticmethod
    def latency_stat(records) -> float:
        """Geometric mean over the specs of each spec's median latency.

        The specs differ tenfold in cost, so the plain median of the mixed
        population sits on the edge between two specs' clusters, where few
        jobs land, and moves by a fifth with the arrival order. Each spec's
        own median sits inside its cluster and is what that spec's users
        see; the geometric mean weighs a relative change in any of them alike.
        """
        by_spec: dict[str, list[float]] = {}
        for r in records:
            by_spec.setdefault(r.spec, []).append(r.latency)
        return geomean([median(v) for v in by_spec.values()])

    def gate(self) -> tuple[int, int]:
        from repro.workload import WorkloadSpec

        seed = self.server.config.seed
        failed = 0
        for text, result in self.warm.items():
            spec = WorkloadSpec.parse(text)
            want = golden(spec.program(), spec.fields(seed=seed), spec.niter)
            failed += int(len(result) != 1 or not same_fields(result[0], want))
        return len(self.warm), failed

    def teardown(self) -> None:
        from repro.parallel.pool import shutdown_shared_pools

        self.loop.run_until_complete(self.server.close(drain=True))
        self.loop.close()
        shutdown_shared_pools(wait=True)

    # -- traced-run probes ----------------------------------------------------------
    def _parallel_probe(self) -> dict[str, float]:
        """The fan-out's cost on the dominant coalesced group, against the serial stack."""
        from repro.parallel.executor import run_program_parallel
        from repro.workload import WorkloadSpec

        spec = WorkloadSpec.parse(self.population[0])
        program = spec.program()
        envs = [spec.fields(seed=i) for i in range(8)]
        stats: dict = {}
        par, ser = [], []
        for _ in range(2 if self.smoke else 7):
            with self.span("parallel.dispatch") as sid:
                run_program_parallel(program, envs, spec.niter, stats=stats)
            par.append(self.tracer.spans[sid])
            with self.span("parallel.serial_equiv") as sid:
                run_program_stacked(program, envs, spec.niter)
            ser.append(self.tracer.spans[sid])
        dispatch = median([s["end"] - s["start"] for s in par])
        serial = median([s["end"] - s["start"] for s in ser])
        return {
            "parallel.dispatch_s": dispatch,
            "parallel.serial_equiv_s": serial,
            "parallel.overhead_ratio": dispatch / serial,
            "parallel.retries": float(stats.get("retries", 0)),
        }

    def _closed_capacity(self) -> float:
        """Jobs/s a closed loop of ``nproc`` clients reaches: the capacity yardstick."""
        from repro.serve.loadgen import run_closed_loop

        clients = os.cpu_count() or 1
        requests = 2 if self.smoke else 30
        t0 = time.perf_counter()
        report = self.loop.run_until_complete(
            run_closed_loop(self.server, self.population, clients=clients, requests=requests)
        )
        return report["ok"] / (time.perf_counter() - t0)

    def layer_metrics(self, window: Window) -> dict[str, float]:
        records = self.records
        latency = percentiles([r.latency for r in self.seen])
        lateness = percentiles([r.lateness for r in records])
        jobs = self.server.health()["jobs"]
        last_due = max(r.due for r in records)
        self.tracer.op = "probe"
        capacity = self._closed_capacity()
        out = self._parallel_probe()
        out.update(
            {
                "serve.offered_per_s": len(records) / last_due,
                "serve.submit_ms": median([r.admitted - r.started for r in records]) * 1e3,
                "serve.resolve_ms": median([r.done - r.admitted for r in records]) * 1e3,
                "serve.latency_p95_ms": latency["p95"] * 1e3,
                "serve.gen_late_p99_ms": lateness["p99"] * 1e3,
                "serve.queue_depth_max": max(
                    (h["queue"]["total"] for h in self.health), default=0
                ),
                "serve.backlog_end": sum(r.done > last_due + self.LIMIT_S for r in records),
                "serve.completed": jobs["completed"],
                "serve.rejected": jobs["rejected"],
                "serve.shed": jobs["shed"],
                "serve.failed": jobs["failed"],
                "serve.degraded": jobs["degraded"],
                "serve.breaker_trips": self.server.breaker.trips,
                "serve.closed_capacity_per_s": capacity,
                "serve.utilization": self.RATE / capacity,
            }
        )
        return out


# --------------------------------------------------------------------------- #
# dse_sweep
# --------------------------------------------------------------------------- #
class DseSweep(Workload):
    """The predictive model and the design-space search; no execution layer runs."""

    name = "dse_sweep"
    OPS = 32
    work_unit = "configurations"
    ANNEAL_TRIALS = 200
    #: trial budget of each exhaustive sweep (None: the whole space)
    SWEEP_TRIALS = None

    def setup(self) -> None:
        from repro.apps import jacobi3d_app, poisson2d_app, rtm_app
        from repro.harness import paper_data as paper

        #: (app factory, mesh, iterations): the paper's largest baseline meshes
        self.problems = [
            (poisson2d_app, (400, 400), paper.POISSON_BASE_ITERS),
            (jacobi3d_app, (200, 200, 200), paper.JACOBI_BASE_ITERS),
            (rtm_app, (50, 50, 50), paper.RTM_BASE_ITERS),
        ]
        if self.smoke:
            self.problems = self.problems[:1]
            self.SWEEP_TRIALS = self.ANNEAL_TRIALS = 100
        for _ in range(2):
            self.reference = self.op()
        self.work_per_op = float(sum(row[3] for row in self.reference))
        self.info.update(answers=[list(map(str, row)) for row in self.reference])

    def _study(self, factory, mesh, niter, strategy, trials=None):
        """One search; returns ``(app, best config, predicted seconds, trials, feasible)``."""
        from repro.arch.device import ALVEO_U280
        from repro.dse import Evaluator, Study, model_space

        app = factory(mesh)
        program = app.program_on(mesh)
        workload = app.workload(mesh, niter)
        with self.span("dse.space_build"):
            space = model_space(program, ALVEO_U280, workload)
        evaluator = Evaluator(program, ALVEO_U280, workload)
        if self.tracer is not None:
            # evaluate_many calls evaluate per configuration: one wrapper sees all
            evaluator.evaluate = self.tracer.wrap("model.predict", evaluator.evaluate)
        with self.span("dse.study_run"):
            study = Study(space, evaluator).run(strategy, trials)
        best = study.best()
        return (
            app.name,
            tuple(sorted(best.config.items())),
            best.value("runtime"),
            len(study.trials),
            len(study.feasible_trials()),
        )

    def op(self):
        from repro.dse import ExhaustiveSearch, strategy_by_name

        rows = [
            self._study(*problem, ExhaustiveSearch(), self.SWEEP_TRIALS)
            for problem in self.problems
        ]
        annealing = strategy_by_name("annealing", seed=self.seed)
        rows.append(self._study(*self.problems[0], annealing, self.ANNEAL_TRIALS))
        return rows

    def check(self, rows) -> bool:
        # simulated statistics must repeat exactly: a faster model that
        # changes its answers is not a faster model
        return rows == self.reference

    def layer_metrics(self, window: Window) -> dict[str, float]:
        t = self.tracer
        trials = sum(row[3] for row in self.reference)
        eval_s = median(t.per_op("model.predict"))
        out = {
            "dse.space_build_s": median(t.per_op("dse.space_build")),
            "dse.eval_s": eval_s,
            "dse.trials": trials,
            "dse.feasible_ratio": sum(row[4] for row in self.reference) / trials,
            "model.predict_us": eval_s / t.count("model.predict", op=0) * 1e6,
        }
        out.update(self._model_error())
        return out

    def _model_error(self) -> dict[str, float]:
        """Predicted vs published FPGA runtimes (Fig. 3a/4a/5a); deterministic."""
        from repro.harness.runner import run_fig3a, run_fig4a, run_fig5a

        errors = [
            abs(rec["fpga_pred"] - rec["fpga_paper"]) / rec["fpga_paper"] * 100
            for figure in (run_fig3a, run_fig4a, run_fig5a)
            for rec in figure().records
        ]
        return {"model.err_pct_median": median(errors), "model.err_pct_max": max(errors)}


WORKLOADS = {
    cls.name: cls
    for cls in (StreamJacobi3D, TiledPoisson2D, MixBatched, ServeOpen, DseSweep)
}
