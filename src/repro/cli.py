"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``apps``
    List the three paper applications and their validated design points.
``experiments [--id ID]``
    Run one or all registered paper experiments and print the tables.
``report [--output PATH]``
    Regenerate EXPERIMENTS.md.
``explore APP --mesh MxN[xL] [--niter N] [--tiled]``
    Rank feasible design points for an application workload.
``dse [APP] [--strategy S] [--trials N] [--study PATH] [--resume] [--top K]``
    Run a design-space exploration study with a pluggable search strategy,
    journalling every trial (resumable) and reporting the Pareto front.
    ``--workloads app:MESH:NITERxBATCH,...`` scores every configuration
    against a whole workload mix instead of a single workload
    (``--validate-mix`` then replays the winner bit-identically against
    the golden interpreter).
``mix MIX [--engine E] [--validate] [--strict] [--trace FILE]``
    Run a workload mix through the chunked stacked engine (serial,
    parallel worker-pool, or golden interpreter) and report the dispatch
    accounting and latency percentiles per job group. Failing groups are
    isolated and reported as error rows unless ``--strict`` (which exits
    non-zero on the first failure). ``--trace FILE`` records the run's
    structured events and span tree as JSONL.
``serve MIX [--bench] [--clients N] [--requests N] [--engine E] ...``
    Stand up the async serving layer (``repro.serve``) and drive it with
    a closed-loop load generator: bounded per-tenant admission queues,
    job coalescing into stacked dispatches, per-job deadlines, circuit
    breaking with serial degradation, graceful drain. Prints the
    latency-percentile report and the server health snapshot (see
    ``docs/serving.md``).
``metrics MIX [--engine E] [--serve] [--trace FILE]``
    Run a mix fully instrumented and dump the Prometheus-style metrics
    and the human-readable trace table. ``--serve`` routes the mix
    through the serving layer so the dump includes the serve counters,
    queue-depth gauge and end-to-end latency histogram.
``codegen APP [--out DIR] [--mesh MxN[xL]]``
    Emit the Vivado HLS project for an application's paper design.
"""

from __future__ import annotations

import argparse
import math
import sys
from contextlib import contextmanager
from typing import Sequence

from repro.apps.registry import all_apps, app_by_name, registry_program
from repro.util.errors import ReproError


def _parse_mesh(text: str) -> tuple[int, ...]:
    try:
        shape = tuple(int(part) for part in text.lower().split("x"))
    except ValueError:
        raise ReproError(f"cannot parse mesh {text!r}; expected e.g. 400x400") from None
    if len(shape) not in (2, 3):
        raise ReproError(f"mesh must be 2D or 3D, got {text!r}")
    return shape


def _parse_batches(text: str | None) -> tuple[int, ...]:
    """A ``batch`` search axis from e.g. ``"1,4,16"`` (default: no axis)."""
    if not text:
        return (1,)
    try:
        batches = tuple(int(part) for part in text.split(","))
    except ValueError:
        raise ReproError(
            f"cannot parse batches {text!r}; expected e.g. 1,4,16"
        ) from None
    if not batches or any(b < 1 for b in batches):
        raise ReproError(f"batch sizes must be positive, got {text!r}")
    return batches


@contextmanager
def _traced_run(trace_path: str | None):
    """Enable observability around a command body when ``--trace`` is set."""
    if not trace_path:
        yield
        return
    from repro import observability

    observability.enable(trace_path=trace_path)
    try:
        yield
    finally:
        observability.disable()
        print(f"event log: {trace_path}")


def _ms(seconds: float) -> str:
    """A latency cell: milliseconds, or ``-`` when no samples exist."""
    return "-" if math.isnan(seconds) else f"{seconds * 1e3:.2f}"


def _cmd_apps(_: argparse.Namespace) -> int:
    from repro.model.resources import gdsp_program
    from repro.util.tables import TextTable

    table = TextTable(
        ["name", "mesh", "V", "p", "clock MHz", "memory", "Gdsp", "II"],
        title="Registered applications (paper Section V)",
    )
    for key, app in all_apps().items():
        table.add_row(
            [
                key,
                str(app.program.mesh),
                app.V,
                app.p,
                app.paper_clock_mhz,
                app.memory,
                gdsp_program(app.program),
                app.initiation_interval,
            ]
        )
    print(table.render())
    return 0


def _cmd_experiments(args: argparse.Namespace) -> int:
    from repro.harness.experiments import all_experiments, experiment_by_id

    experiments = (
        [experiment_by_id(args.id)] if args.id else list(all_experiments())
    )
    for exp in experiments:
        print(exp.run().render())
        print()
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.harness.report import write_report

    path = write_report(args.output)
    print(f"wrote {path}")
    return 0


def _explore_study(args: argparse.Namespace, objectives, tiled, constraints=()):
    """Build and run a study from common CLI arguments.

    ``--workloads`` switches the study onto a workload mix: the space is
    the union :func:`~repro.dse.space.mix_space` over the mix's programs
    and every configuration is scored against the whole mix (predicted
    runtime = weighted sum over specs). Otherwise a single workload is
    built from ``APP --mesh --niter --batch`` as before.
    """
    from repro.arch.device import device_by_name
    from repro.dse import Evaluator, Study, model_space, strategy_by_name
    from repro.dse.space import mix_space
    from repro.model.design import Workload
    from repro.workload import WorkloadMix

    device = device_by_name(args.device)
    batches = _parse_batches(getattr(args, "batches", None))
    mix_text = getattr(args, "workloads", None)
    if mix_text:
        # a mix fully specifies apps/meshes/iterations/batches: refuse the
        # single-workload flags instead of silently dropping them
        clashes = [
            flag
            for flag, value in (
                ("APP", args.app),
                ("--mesh", args.mesh),
                ("--niter", getattr(args, "niter", None)),
                ("--batch", getattr(args, "batch", None)),
            )
            if value is not None
        ]
        if clashes:
            raise ReproError(
                f"--workloads already names apps, meshes, iterations and "
                f"batches; drop {', '.join(clashes)}"
            )
        mix = WorkloadMix.parse(mix_text)
        rep = mix.heaviest()
        app = app_by_name(rep.app)
        program = rep.program()
        workload, workloads = rep, mix  # rep reported, mix scored
        space = mix_space(mix, device, tiled=tiled, batches=batches)
    else:
        if not args.app:
            raise ReproError("name an APP or pass --workloads MIX")
        app = app_by_name(args.app)
        mesh = _parse_mesh(args.mesh) if args.mesh else app.program.mesh.shape
        program = registry_program(args.app, mesh)
        # the dse parser defaults niter/batch to None so --workloads can
        # detect explicit use; the single-workload path fills them here
        niter = args.niter if getattr(args, "niter", None) is not None else 1000
        batch = args.batch if getattr(args, "batch", None) is not None else 1
        workload = Workload(program.mesh, niter, batch)
        workloads = None
        space = model_space(program, device, workload, tiled=tiled, batches=batches)
    evaluator = Evaluator(
        program,
        device,
        # workload= and workloads= are mutually exclusive on the Evaluator
        workload if workloads is None else None,
        objectives=objectives,
        constraints=constraints,
        workloads=workloads,
    )
    study = Study(
        space,
        evaluator,
        path=getattr(args, "study", None),
        resume=getattr(args, "resume", False),
    )
    strategy = strategy_by_name(
        getattr(args, "strategy", "exhaustive"), seed=getattr(args, "seed", 0)
    )
    study.run(strategy, getattr(args, "trials", None))
    return app, device, workload, study


def _design_cells(trial):
    """The V/p/clock/tile/runtime/GB/W cells shared by explore and dse tables."""
    from repro.util.units import GB

    design = trial.result.design
    return [
        design.V,
        design.p,
        f"{design.clock_mhz:.0f}",
        design.tile.tile if design.tile else "-",
        trial.value("runtime"),
        trial.value("bandwidth") / GB,
        trial.value("power"),
    ]


def _cmd_explore(args: argparse.Namespace) -> int:
    from repro.dse import BANDWIDTH, POWER, RUNTIME
    from repro.util.tables import TextTable

    app, device, _, study = _explore_study(
        args, objectives=(RUNTIME, BANDWIDTH, POWER), tiled=args.tiled
    )
    mesh = _parse_mesh(args.mesh) if args.mesh else app.program.mesh.shape
    table = TextTable(
        ["V", "p", "clock MHz", "tile", "runtime (s)", "GB/s", "W"],
        title=f"{app.name} on {device.name}: {args.niter} iters, mesh {args.mesh or mesh}",
    )
    top = study.top(args.top)
    for trial in top:
        table.add_row(_design_cells(trial))
    print(table.render())
    if not top:
        print("no feasible designs found — try --tiled for large meshes")
        return 1
    return 0


def _cmd_dse(args: argparse.Namespace) -> int:
    with _traced_run(getattr(args, "trace", None)):
        return _dse_body(args)


def _dse_body(args: argparse.Namespace) -> int:
    from repro.dse import BANDWIDTH, POWER, RUNTIME, parse_objectives
    from repro.util.tables import TextTable

    if args.resume and not args.study:
        raise ReproError("--resume needs --study PATH to know which journal to replay")
    if args.validate_mix and not args.workloads:
        raise ReproError("--validate-mix needs --workloads MIX to know what to run")
    objectives = parse_objectives(args.objectives)
    # the report table always shows runtime/bandwidth/power: score them too
    extra = tuple(
        o
        for o in (RUNTIME, BANDWIDTH, POWER)
        if o.name not in {x.name for x in objectives}
    )
    app, device, workload, study = _explore_study(
        args, objectives=objectives + extra, tiled=args.tiled
    )
    mix = study.evaluator.mix
    subject = (
        f"mix {mix.describe()}" if mix is not None
        else f"{app.name}, {workload.niter} iters"
    )
    table = TextTable(
        ["rank", "memory", "V", "p", "clock MHz", "tile", "runtime (s)", "GB/s", "W"],
        title=(
            f"{subject} on {device.name}: {args.strategy} search, "
            f"primary objective '{objectives[0].name}'"
        ),
    )
    top = study.top(args.top)
    for rank, trial in enumerate(top, 1):
        table.add_row([rank, trial.result.design.memory] + _design_cells(trial))
    print(table.render())
    front = study.pareto_front(objectives)
    evaluator = study.evaluator
    rejected = sum(evaluator.infeasible.values())
    by_check = ", ".join(f"{c} {n}" for c, n in evaluator.infeasible.most_common())
    print(
        f"\ntrials: {len(study.trials)} total, {study.evaluated} evaluated this run, "
        f"{study.replayed} replayed from journal, {evaluator.cache_hits} cache hits; "
        f"feasible {evaluator.evaluations - rejected}, infeasible {rejected}"
        + (f" ({by_check})" if by_check else "")
        + f"; {study.seconds:.3f} s, "
        f"{study.evaluated / max(study.seconds, 1e-9):.0f} configurations/s"
    )
    names = "/".join(o.name for o in objectives)
    print(f"pareto front ({names}): {len(front)} non-dominated designs")
    for member in front:
        t = member.payload
        d = t.result.design
        values = ", ".join(f"{o.name}={member.values[o.name]:.4g}" for o in objectives)
        print(f"  {d.memory} V={d.V} p={d.p} -> {values}")
    if study.path is not None:
        print(f"journal: {study.path}")
    if not top:
        print("no feasible designs found — try --tiled for large meshes")
        return 1
    if mix is not None and getattr(args, "validate_mix", False):
        best = study.best()
        run = study.evaluator.validate_mix(
            best.config,
            engine=getattr(args, "engine", "compiled"),
            max_workers=getattr(args, "max_workers", None),
        )
        print(
            f"mix validation: {run.meshes} meshes bit-identical to the golden "
            f"interpreter in {run.dispatches} chunked stacked dispatches"
        )
    return 0


def _cmd_mix(args: argparse.Namespace) -> int:
    from repro.dataflow.scheduler import MixScheduler
    from repro.util.tables import TextTable
    from repro.workload import WorkloadMix

    mix = WorkloadMix.parse(args.workloads)
    scheduler = MixScheduler(
        engine=args.engine,
        seed=args.seed,
        max_workers=args.max_workers,
        strict=args.strict,
    )
    with _traced_run(getattr(args, "trace", None)):
        run = scheduler.run(mix, validate=args.validate)
    table = TextTable(
        ["group", "meshes", "niter", "dispatches", "chunks",
         "p50 ms", "p95 ms", "p99 ms"],
        title=f"mix {mix.describe()} ({args.engine} engine)",
    )
    for group in run.groups:
        chunk_text = ",".join(str(c) for c in group.chunks) or "-"
        lat = group.latency_percentiles()
        table.add_row(
            [group.spec.describe(), group.meshes, group.spec.niter,
             group.dispatches, chunk_text,
             _ms(lat["p50"]), _ms(lat["p95"]), _ms(lat["p99"])]
        )
    for error in run.errors:
        table.add_row(
            [f"{error.spec.describe()} FAILED", error.spec.batch,
             error.spec.niter, "-", "-", "-", "-", "-"]
        )
    table.add_row(["total", run.meshes, "", run.dispatches, "", "", "", ""])
    print(table.render())
    for error in run.errors:
        print(f"group failed (isolated): {error.describe()}")
    if run.validated and run.ok:
        print("validated: every mesh bit-identical to the golden interpreter")
    elif run.validated and run.groups:
        print(
            "validated: every completed group bit-identical to the golden "
            "interpreter (failed groups excluded)"
        )
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.serve import Server, ServerConfig, run_closed_loop
    from repro.util.tables import TextTable
    from repro.workload import WorkloadMix

    mix = WorkloadMix.parse(args.workloads)
    config = ServerConfig(
        engine=args.engine,
        max_workers=args.max_workers,
        queue_depth=args.queue_depth,
        admission=args.admission,
        batch_window=args.batch_window,
        failure_threshold=args.failure_threshold,
        reset_timeout=args.reset_timeout,
        validate=args.validate,
        seed=args.seed,
    )

    async def _bench():
        async with Server(config) as server:
            report = await run_closed_loop(
                server,
                mix.specs,
                clients=args.clients,
                requests=args.requests,
                tenants=args.tenants,
                deadline=args.deadline,
            )
            return report, server.health()

    with _traced_run(getattr(args, "trace", None)):
        report, health = asyncio.run(_bench())
    table = TextTable(
        ["spec", "ok", "rejected", "shed", "p50 ms", "p95 ms", "p99 ms"],
        title=(
            f"serve bench: {args.clients} clients x {args.requests} requests "
            f"({args.engine} engine, admission={args.admission})"
        ),
    )
    for spec_text, entry in report["per_spec"].items():
        lat = entry["latency"]
        table.add_row(
            [spec_text, entry["ok"], entry["rejected"], entry["shed"],
             _ms(lat["p50"]), _ms(lat["p95"]), _ms(lat["p99"])]
        )
    lat = report["latency"]
    table.add_row(
        ["total", report["ok"], report["rejected"], report["shed"],
         _ms(lat["p50"]), _ms(lat["p95"]), _ms(lat["p99"])]
    )
    print(table.render())
    breaker = health["breaker"]
    jobs = health["jobs"]
    print(
        f"health: state={health['state']}, breaker={breaker['state']} "
        f"({breaker['trips']} trips), degraded dispatches: "
        f"{jobs['degraded']:g}"
    )
    print(
        f"jobs: admitted {jobs['admitted']:g}, completed {jobs['completed']:g}, "
        f"rejected {jobs['rejected']:g}, shed {jobs['shed']:g}, "
        f"cancelled {jobs['cancelled']:g}, failed {jobs['failed']:g}"
    )
    if config.validate and report["ok"]:
        print(
            "validated: every served mesh bit-identical to the golden "
            "interpreter"
        )
    return 0


def _cmd_metrics(args: argparse.Namespace) -> int:
    from repro import observability
    from repro.dataflow.scheduler import MixScheduler
    from repro.workload import WorkloadMix

    mix = WorkloadMix.parse(args.workloads)
    observability.enable(trace_path=getattr(args, "trace", None))
    try:
        if getattr(args, "serve", False):
            import asyncio

            from repro.serve import Server, ServerConfig, run_closed_loop

            async def _serve_mix():
                config = ServerConfig(
                    engine=args.engine,
                    max_workers=args.max_workers,
                    seed=args.seed,
                )
                async with Server(config) as server:
                    await run_closed_loop(
                        server, mix.specs, clients=2, requests=2
                    )

            asyncio.run(_serve_mix())
        else:
            scheduler = MixScheduler(
                engine=args.engine,
                seed=args.seed,
                max_workers=args.max_workers,
            )
            scheduler.run(mix)
    finally:
        observability.disable()
    print(observability.render_metrics(), end="")
    print()
    print(observability.render_trace(), end="")
    if getattr(args, "trace", None):
        print(f"event log: {args.trace}")
    return 0


def _cmd_codegen(args: argparse.Namespace) -> int:
    from repro.hls.project import HLSProject

    app = app_by_name(args.app)
    mesh = _parse_mesh(args.mesh) if args.mesh else app.program.mesh.shape
    project = HLSProject(registry_program(args.app, mesh), app.design())
    written = project.write_to(args.out)
    for path in written:
        print(f"wrote {path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="FPGA stencil-accelerator workflow (IPDPS 2021 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("apps", help="list applications").set_defaults(fn=_cmd_apps)

    p_exp = sub.add_parser("experiments", help="run paper experiments")
    p_exp.add_argument("--id", help="one experiment id (e.g. fig3a)")
    p_exp.set_defaults(fn=_cmd_experiments)

    p_rep = sub.add_parser("report", help="write EXPERIMENTS.md")
    p_rep.add_argument("--output", default="EXPERIMENTS.md")
    p_rep.set_defaults(fn=_cmd_report)

    p_explore = sub.add_parser("explore", help="design-space exploration")
    p_explore.add_argument("app", help="app name (poisson2d | jacobi3d | rtm)")
    p_explore.add_argument("--mesh", help="mesh shape, e.g. 400x400")
    p_explore.add_argument("--niter", type=int, default=1000)
    p_explore.add_argument("--batch", type=int, default=1)
    p_explore.add_argument("--tiled", action="store_true")
    p_explore.add_argument("--device", default="U280")
    p_explore.add_argument("--top", type=int, default=5)
    p_explore.set_defaults(fn=_cmd_explore)

    p_dse = sub.add_parser("dse", help="design-space exploration study")
    p_dse.add_argument(
        "app", nargs="?",
        help="app name (poisson2d | jacobi3d | rtm); optional with --workloads",
    )
    p_dse.add_argument("--mesh", help="mesh shape, e.g. 400x400")
    # None defaults (filled to 1000/1 in _explore_study) let --workloads
    # reject explicitly passed single-workload flags instead of ignoring them
    p_dse.add_argument("--niter", type=int, default=None)
    p_dse.add_argument("--batch", type=int, default=None)
    p_dse.add_argument(
        "--batches",
        help="comma-separated batch sizes to add as a search axis "
        "(e.g. 1,4,16); the design must serve the whole mix. With "
        "--workloads each value is a *multiplier* on every spec's own "
        "batch count rather than a replacement",
    )
    p_dse.add_argument(
        "--workloads",
        help="workload mix to score every configuration against: "
        "comma-separated app:MESH:NITER[xBATCH][@WEIGHT] specs "
        "(e.g. jacobi3d:96x96x96:100x4,rtm:64x64x64:36x2)",
    )
    p_dse.add_argument(
        "--validate-mix",
        action="store_true",
        help="after the study, run the best design's whole mix through the "
        "chunked stacked engine and assert bit-identity to the interpreter",
    )
    p_dse.add_argument("--tiled", action="store_true")
    p_dse.add_argument("--device", default="U280")
    p_dse.add_argument(
        "--strategy",
        default="annealing",
        help="search strategy (exhaustive | random | annealing | greedy)",
    )
    p_dse.add_argument(
        "--trials", type=int, default=None, help="budget of new evaluations"
    )
    p_dse.add_argument(
        "--objectives",
        default="runtime,energy",
        help="comma-separated objectives; first is primary",
    )
    p_dse.add_argument("--study", help="JSONL journal path (enables --resume)")
    p_dse.add_argument(
        "--resume",
        action="store_true",
        help="replay the journal at --study instead of restarting it",
    )
    p_dse.add_argument("--top", type=int, default=5)
    p_dse.add_argument("--seed", type=int, default=0)
    p_dse.add_argument(
        "--engine",
        default="compiled",
        choices=("compiled", "parallel", "native"),
        help="execution engine for --validate-mix (parallel fans chunks "
        "out over a worker pool, native runs generated steady-loop code; "
        "results stay bit-identical)",
    )
    p_dse.add_argument(
        "--max-workers", type=int, default=None,
        help="worker-pool width for --engine parallel (default: one per core)",
    )
    p_dse.add_argument(
        "--trace",
        help="record the study's structured events and span tree to this "
        "JSONL file (enables instrumentation for the run)",
    )
    p_dse.set_defaults(fn=_cmd_dse)

    p_mix = sub.add_parser(
        "mix", help="run a workload mix through the chunked stacked engine"
    )
    p_mix.add_argument(
        "workloads",
        help="comma-separated app:MESH:NITER[xBATCH][@WEIGHT] specs "
        "(e.g. jacobi3d:24x24x16:50x8,rtm:16x16x12:20x4)",
    )
    p_mix.add_argument(
        "--engine",
        default="compiled",
        choices=("compiled", "parallel", "native", "interpreter"),
        help="execution engine (parallel overlaps chunks of all groups "
        "on a worker pool, native runs generated steady-loop code)",
    )
    p_mix.add_argument(
        "--max-workers", type=int, default=None,
        help="worker-pool width for --engine parallel (default: one per core)",
    )
    p_mix.add_argument(
        "--validate", action="store_true",
        help="re-derive every mesh on the golden interpreter and compare bitwise",
    )
    p_mix.add_argument(
        "--strict", action="store_true",
        help="abort (non-zero exit) on the first failing group; the default "
        "isolates failing groups, reports them as error rows and exits 0",
    )
    p_mix.add_argument("--seed", type=int, default=0)
    p_mix.add_argument(
        "--trace",
        help="record the run's structured events and span tree to this "
        "JSONL file (enables instrumentation for the run)",
    )
    p_mix.set_defaults(fn=_cmd_mix)

    # every server option defaults to its ServerConfig field
    from repro.serve.server import ServerConfig

    served = ServerConfig()
    p_srv = sub.add_parser(
        "serve",
        help="run the async serving layer under a closed-loop bench load",
    )
    p_srv.add_argument(
        "workloads",
        help="comma-separated app:MESH:NITER[xBATCH] specs the load "
        "generator cycles through (e.g. jacobi3d:24x24x16:50x2,"
        "poisson2d:48x32:100)",
    )
    p_srv.add_argument(
        "--bench", action="store_true",
        help="closed-loop bench mode (the default and only mode: serving "
        "without a load source has nothing to do in a CLI run)",
    )
    p_srv.add_argument(
        "--clients", type=int, default=4,
        help="concurrent closed-loop client coroutines (default 4)",
    )
    p_srv.add_argument(
        "--requests", type=int, default=8,
        help="jobs each client submits back to back (default 8)",
    )
    p_srv.add_argument(
        "--tenants", type=int, default=1,
        help="tenants the clients are spread across (default 1)",
    )
    p_srv.add_argument(
        "--engine",
        default=served.engine,
        choices=("compiled", "parallel", "native", "interpreter"),
        help="engine every dispatch runs on (default %(default)s); only "
        "parallel has a breaker, whose open state degrades to compiled",
    )
    p_srv.add_argument(
        "--max-workers", type=int, default=served.max_workers,
        help="worker-pool width for --engine parallel (default: one per core)",
    )
    p_srv.add_argument(
        "--queue-depth", type=int, default=served.queue_depth,
        help="bounded admission queue capacity per tenant (default %(default)s)",
    )
    p_srv.add_argument(
        "--admission", default=served.admission, choices=("reject", "block"),
        help="full-queue behaviour: reject raises QueueFullError, block "
        "waits for space (default %(default)s)",
    )
    p_srv.add_argument(
        "--deadline", type=float, default=None,
        help="per-job deadline in seconds (queued work past it is shed, "
        "in-flight work is cancelled cooperatively)",
    )
    p_srv.add_argument(
        "--batch-window", type=float, default=served.batch_window,
        help="seconds the batching loop waits after waking before it "
        "dequeues (default %(default)s); 0 dispatches on wake, and jobs "
        "that queue during a dispatch still coalesce on the next one",
    )
    p_srv.add_argument(
        "--failure-threshold", type=int, default=served.failure_threshold,
        help="consecutive parallel failures that trip the breaker "
        "(default %(default)s)",
    )
    p_srv.add_argument(
        "--reset-timeout", type=float, default=served.reset_timeout,
        help="seconds an open breaker waits before half-opening "
        "(default %(default)s)",
    )
    p_srv.add_argument(
        "--validate", action="store_true",
        help="re-derive every served mesh on the golden interpreter and "
        "compare bitwise",
    )
    p_srv.add_argument("--seed", type=int, default=served.seed)
    p_srv.add_argument(
        "--trace",
        help="record the run's structured events (admissions, sheds, "
        "breaker transitions, drain) to this JSONL file",
    )
    p_srv.set_defaults(fn=_cmd_serve)

    p_met = sub.add_parser(
        "metrics",
        help="run a mix fully instrumented and dump metrics + trace table",
    )
    p_met.add_argument(
        "workloads",
        help="comma-separated app:MESH:NITER[xBATCH][@WEIGHT] specs "
        "(e.g. jacobi3d:24x24x16:50x8,rtm:16x16x12:20x4)",
    )
    p_met.add_argument(
        "--engine",
        default="compiled",
        choices=("compiled", "parallel", "native", "interpreter"),
        help="execution engine to instrument",
    )
    p_met.add_argument(
        "--max-workers", type=int, default=None,
        help="worker-pool width for --engine parallel (default: one per core)",
    )
    p_met.add_argument("--seed", type=int, default=0)
    p_met.add_argument(
        "--serve", action="store_true",
        help="route the mix through the serving layer (repro.serve) so the "
        "dump includes serve counters, queue-depth gauge and the "
        "end-to-end latency histogram",
    )
    p_met.add_argument(
        "--trace",
        help="also write the structured events and span tree to this JSONL file",
    )
    p_met.set_defaults(fn=_cmd_metrics)

    p_gen = sub.add_parser("codegen", help="emit the Vivado HLS project")
    p_gen.add_argument("app")
    p_gen.add_argument("--out", default="hls_out")
    p_gen.add_argument("--mesh")
    p_gen.set_defaults(fn=_cmd_codegen)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:  # e.g. `repro apps | head`
        sys.stderr.close()  # suppress the shutdown-flush warning too
        return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
