"""Experiment runners: one function per paper table/figure.

Each runner assembles the paper workloads, evaluates our three estimators —
analytic model ("pred"), dataflow-simulator structural estimate ("sim",
includes host overheads, fills and burst effects) and the GPU baseline
model — and returns an :class:`ExperimentResult` holding both a printable
table and the raw records for the report generator and the tests.

Runtimes at paper scale are obtained through cycle accounting (estimate
paths), exactly as the paper's own predictions are; functional correctness
of the same architecture is validated separately on scaled-down meshes by
the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import Sequence

from repro.apps.jacobi3d import jacobi3d_app
from repro.apps.poisson2d import poisson2d_app
from repro.apps.rtm import rtm_app
from repro.arch.device import ALVEO_U280
from repro.harness import paper_data as paper
from repro.model.design import Workload
from repro.model.resources import gdsp_program, p_dsp
from repro.model.tiling import tile_throughput, valid_ratio
from repro.util.tables import TextTable
from repro.util.units import GB


@dataclass
class ExperimentResult:
    """Outcome of one reproduced artifact."""

    experiment_id: str
    title: str
    table: TextTable
    records: list[dict] = dc_field(default_factory=list)
    notes: str = ""

    def render(self) -> str:
        """The printable result."""
        text = self.table.render()
        if self.notes:
            text += f"\n\nNotes: {self.notes}"
        return text


def _mesh_str(mesh: Sequence[int]) -> str:
    return "x".join(str(v) for v in mesh)


def _bw_gbs(bytes_per_s: float) -> float:
    return bytes_per_s / GB


# --------------------------------------------------------------------------- #
# Table II
# --------------------------------------------------------------------------- #
def run_table2() -> ExperimentResult:
    """Reproduce Table II: frequency, G_dsp and p_dsp per application."""
    apps = {
        "Poisson-5pt-2D": poisson2d_app(),
        "Jacobi-7pt-3D": jacobi3d_app(),
        "RTM-forward": rtm_app(),
    }
    table = TextTable(
        ["app", "freq MHz (paper)", "Gdsp ours", "Gdsp paper",
         "pdsp ours (eq.6)", "pdsp paper model", "p synthesized (paper)"],
        title="Table II: baseline and batching, model parameters",
    )
    result = ExperimentResult("table2", "Table II - model parameters", table)
    for row in paper.TABLE2:
        app = apps[row.app]
        gdsp = gdsp_program(app.program)
        ours_pdsp = p_dsp(ALVEO_U280, app.V, gdsp)
        table.add_row(
            [row.app, row.freq_mhz, gdsp, row.gdsp, ours_pdsp, row.pdsp_model, row.pdsp_actual]
        )
        result.records.append(
            {
                "app": row.app,
                "gdsp_ours": gdsp,
                "gdsp_paper": row.gdsp,
                "pdsp_ours": ours_pdsp,
                "pdsp_paper": row.pdsp_model,
            }
        )
    return result


# --------------------------------------------------------------------------- #
# Table III
# --------------------------------------------------------------------------- #
def run_table3() -> ExperimentResult:
    """Reproduce Table III: spatial-blocking throughput parameters."""
    table = TextTable(
        ["app", "p", "V", "M", "N", "T ours", "T paper", "valid ours", "valid paper"],
        title="Table III: spatial blocking model parameters",
    )
    result = ExperimentResult("table3", "Table III - spatial blocking parameters", table)
    for row in paper.TABLE3:
        if row.N is None:
            # 2D: M x n blocks with a very tall n (asymptotic in eq. 14)
            t = tile_throughput(row.M, None, 10**6, row.V, row.p, 2)
            ratio = valid_ratio(row.M, None, row.p, 2)
        else:
            t = tile_throughput(row.M, row.N, 10**9, row.V, row.p, 2)
            ratio = valid_ratio(row.M, row.N, row.p, 2)
        table.add_row(
            [row.app, row.p, row.V, row.M, row.N or "-", t, row.throughput, ratio, row.valid_ratio]
        )
        result.records.append(
            {
                "app": row.app,
                "throughput_ours": t,
                "throughput_paper": row.throughput,
                "valid_ours": ratio,
                "valid_paper": row.valid_ratio,
            }
        )
    return result


# --------------------------------------------------------------------------- #
# Baseline runtime figures (3a / 4a / 5a)
# --------------------------------------------------------------------------- #
def _run_baseline_figure(
    experiment_id: str,
    title: str,
    app_factory,
    rows,
    niter: int,
) -> ExperimentResult:
    table = TextTable(
        ["mesh", "FPGA pred (s)", "FPGA sim (s)", "FPGA paper (s)",
         "GPU model (s)", "GPU paper (s)"],
        title=title,
    )
    result = ExperimentResult(experiment_id, title, table)
    for row in rows:
        app = app_factory(row.mesh)
        workload = app.workload(row.mesh, niter)
        pred = app.predictor(row.mesh).predict(workload)
        sim = app.accelerator(row.mesh).estimate(workload)
        gpu = app.gpu_model().predict(workload)
        table.add_row(
            [_mesh_str(row.mesh), pred.seconds, sim.seconds, row.fpga_s,
             gpu.seconds, row.gpu_s]
        )
        result.records.append(
            {
                "mesh": row.mesh,
                "fpga_pred": pred.seconds,
                "fpga_sim": sim.seconds,
                "fpga_paper": row.fpga_s,
                "gpu_model": gpu.seconds,
                "gpu_paper": row.gpu_s,
            }
        )
    return result


def run_fig3a() -> ExperimentResult:
    """Fig 3(a): Poisson baseline runtimes, 60000 iterations."""
    return _run_baseline_figure(
        "fig3a",
        "Fig 3(a): Poisson-5pt-2D baseline - 60000 iterations",
        lambda mesh: poisson2d_app(mesh),
        paper.FIG3A,
        paper.POISSON_BASE_ITERS,
    )


def run_fig4a() -> ExperimentResult:
    """Fig 4(a): Jacobi baseline runtimes, 29000 iterations."""
    return _run_baseline_figure(
        "fig4a",
        "Fig 4(a): Jacobi-7pt-3D baseline - 29000 iterations",
        lambda mesh: jacobi3d_app(mesh),
        paper.FIG4A,
        paper.JACOBI_BASE_ITERS,
    )


def run_fig5a() -> ExperimentResult:
    """Fig 5(a): RTM baseline runtimes, 1800 iterations."""
    return _run_baseline_figure(
        "fig5a",
        "Fig 5(a): RTM forward pass baseline - 1800 iterations",
        lambda mesh: rtm_app(mesh),
        paper.FIG5A,
        paper.RTM_BASE_ITERS,
    )


# --------------------------------------------------------------------------- #
# Batched runtime figures (3b / 4b / 5b)
# --------------------------------------------------------------------------- #
def _run_batched_figure(
    experiment_id: str,
    title: str,
    app_factory,
    bw_rows,
    niter: int,
    batch_small: int,
    batch_large: int,
    logical_bytes_per_cell_iter: float,
) -> ExperimentResult:
    table = TextTable(
        ["mesh", "batch", "FPGA sim (s)", "FPGA paper* (s)",
         "GPU model (s)", "GPU paper* (s)"],
        title=title,
    )
    result = ExperimentResult(
        experiment_id,
        title,
        table,
        notes="* paper runtimes derived from the bandwidth tables via "
        "runtime = logical_bytes / bandwidth (figures are not labelled).",
    )
    for row in bw_rows:
        for batch, fpga_bw, gpu_bw in (
            (batch_small, row.fpga_batch_small, row.gpu_batch_small),
            (batch_large, row.fpga_batch_large, row.gpu_batch_large),
        ):
            if fpga_bw is None:
                continue
            app = app_factory(row.mesh)
            workload = app.workload(row.mesh, niter, batch)
            sim = app.accelerator(row.mesh).estimate(workload)
            gpu = app.gpu_model().predict(workload)
            cells = workload.total_points
            logical = logical_bytes_per_cell_iter * cells * niter
            fpga_paper_s = logical / (fpga_bw * GB)
            gpu_paper_s = logical / (gpu_bw * GB) if gpu_bw else None
            table.add_row(
                [_mesh_str(row.mesh), batch, sim.seconds, fpga_paper_s,
                 gpu.seconds, gpu_paper_s if gpu_paper_s is not None else "-"]
            )
            result.records.append(
                {
                    "mesh": row.mesh,
                    "batch": batch,
                    "fpga_sim": sim.seconds,
                    "fpga_paper": fpga_paper_s,
                    "gpu_model": gpu.seconds,
                    "gpu_paper": gpu_paper_s,
                }
            )
    return result


def run_fig3b() -> ExperimentResult:
    """Fig 3(b): Poisson batched runtimes (100B / 1000B), 60000 iterations."""
    return _run_batched_figure(
        "fig3b",
        "Fig 3(b): Poisson-5pt-2D batching - 60000 iterations",
        lambda mesh: poisson2d_app(mesh),
        paper.TABLE4_BASELINE,
        paper.POISSON_BASE_ITERS,
        paper.POISSON_BATCH_SMALL,
        paper.POISSON_BATCH_LARGE,
        8.0,
    )


def run_fig4b() -> ExperimentResult:
    """Fig 4(b): Jacobi batched runtimes (10B / 50B), 2900 iterations."""
    return _run_batched_figure(
        "fig4b",
        "Fig 4(b): Jacobi-7pt-3D batching - 2900 iterations",
        lambda mesh: jacobi3d_app(mesh),
        paper.TABLE5_BASELINE,
        paper.JACOBI_BATCH_ITERS,
        paper.JACOBI_BATCH_SMALL,
        paper.JACOBI_BATCH_LARGE,
        8.0,
    )


def run_fig5b() -> ExperimentResult:
    """Fig 5(b): RTM batched runtimes (20B / 40B), 180 iterations."""
    return _run_batched_figure(
        "fig5b",
        "Fig 5(b): RTM forward pass batching - 180 iterations",
        lambda mesh: rtm_app(mesh),
        paper.TABLE6,
        paper.RTM_BATCH_ITERS,
        paper.RTM_BATCH_SMALL,
        paper.RTM_BATCH_LARGE,
        440.0,
    )


# --------------------------------------------------------------------------- #
# Tiled runtime figures (3c / 4c)
# --------------------------------------------------------------------------- #
def _run_tiled_figure(
    experiment_id: str,
    title: str,
    app_factory,
    meshes,
    tile_sweep,
    tiled_rows,
    niter: int,
    square_tiles: bool,
    logical_bytes_per_cell_iter: float,
) -> ExperimentResult:
    table = TextTable(
        ["mesh", "tile", "FPGA pred (s)", "FPGA sim (s)", "FPGA paper* (s)",
         "GPU model (s)", "GPU paper* (s)"],
        title=title,
    )
    result = ExperimentResult(
        experiment_id,
        title,
        table,
        notes="* paper runtimes derived from the spatial-blocking bandwidth tables.",
    )
    paper_bw = {(r.mesh, r.tile): r for r in tiled_rows}
    for mesh in meshes:
        app = app_factory()
        workload = app.workload(mesh, niter)
        gpu = app.gpu_model().predict(workload)
        logical = logical_bytes_per_cell_iter * workload.total_points * niter
        for tile_edge in tile_sweep:
            tile = (tile_edge, tile_edge) if square_tiles else (tile_edge,)
            design = app.design(tile=tile)
            pred = app.predictor(mesh, design).predict(workload)
            sim = app.accelerator(mesh, design).estimate(workload)
            row = paper_bw.get((mesh, tile_edge))
            fpga_paper_s = logical / (row.fpga_bw * GB) if row else None
            gpu_paper_s = logical / (row.gpu_bw * GB) if row and row.gpu_bw else None
            table.add_row(
                [
                    _mesh_str(mesh),
                    tile_edge,
                    pred.seconds,
                    sim.seconds,
                    fpga_paper_s if fpga_paper_s is not None else "-",
                    gpu.seconds,
                    gpu_paper_s if gpu_paper_s is not None else "-",
                ]
            )
            result.records.append(
                {
                    "mesh": mesh,
                    "tile": tile_edge,
                    "fpga_pred": pred.seconds,
                    "fpga_sim": sim.seconds,
                    "fpga_paper": fpga_paper_s,
                    "gpu_model": gpu.seconds,
                    "gpu_paper": gpu_paper_s,
                }
            )
    return result


def run_fig3c() -> ExperimentResult:
    """Fig 3(c): Poisson spatial blocking, 6000 iterations."""
    return _run_tiled_figure(
        "fig3c",
        "Fig 3(c): Poisson-5pt-2D spatial blocking - 6000 iterations",
        poisson2d_app,
        ((15000, 15000), (20000, 20000)),
        paper.POISSON_TILE_SWEEP,
        paper.TABLE4_TILED,
        paper.POISSON_TILED_ITERS,
        square_tiles=False,
        logical_bytes_per_cell_iter=8.0,
    )


def run_fig4c() -> ExperimentResult:
    """Fig 4(c): Jacobi spatial blocking, 120 iterations."""
    return _run_tiled_figure(
        "fig4c",
        "Fig 4(c): Jacobi-7pt-3D spatial blocking - 120 iterations",
        jacobi3d_app,
        ((600, 600, 600), (1800, 1800, 100)),
        paper.JACOBI_TILE_SWEEP,
        paper.TABLE5_TILED,
        paper.JACOBI_TILED_ITERS,
        square_tiles=True,
        logical_bytes_per_cell_iter=8.0,
    )


# --------------------------------------------------------------------------- #
# Bandwidth & energy tables (IV / V / VI)
# --------------------------------------------------------------------------- #
def _run_bw_energy_table(
    experiment_id: str,
    title: str,
    app_factory,
    bw_rows,
    base_iters: int,
    batch_iters: int,
    batch_large: int,
) -> ExperimentResult:
    table = TextTable(
        ["mesh", "FPGA BW ours", "FPGA BW paper", "GPU BW ours", "GPU BW paper",
         "FPGA kJ ours", "FPGA kJ paper", "GPU kJ ours", "GPU kJ paper"],
        title=title,
    )
    result = ExperimentResult(
        experiment_id,
        title,
        table,
        notes="BW in GB/s (paper's logical-traffic convention, baseline runs); "
        f"energy in kJ at the large batch ({batch_large}B).",
    )
    for row in bw_rows:
        app = app_factory(row.mesh)
        base_w = app.workload(row.mesh, base_iters)
        sim = app.accelerator(row.mesh).estimate(base_w)
        gpu = app.gpu_model().predict(base_w)
        if row.fpga_energy_kj is not None:
            batch_w = app.workload(row.mesh, batch_iters, batch_large)
            sim_b = app.accelerator(row.mesh).estimate(batch_w)
            gpu_b = app.gpu_model().predict(batch_w)
            fpga_kj, gpu_kj = sim_b.energy_j / 1e3, gpu_b.energy_j / 1e3
        else:
            fpga_kj = gpu_kj = None
        table.add_row(
            [
                _mesh_str(row.mesh),
                _bw_gbs(sim.logical_bandwidth),
                row.fpga_base,
                _bw_gbs(gpu.logical_bandwidth),
                row.gpu_base,
                fpga_kj if fpga_kj is not None else "-",
                row.fpga_energy_kj if row.fpga_energy_kj is not None else "-",
                gpu_kj if gpu_kj is not None else "-",
                row.gpu_energy_kj if row.gpu_energy_kj is not None else "-",
            ]
        )
        result.records.append(
            {
                "mesh": row.mesh,
                "fpga_bw_ours": _bw_gbs(sim.logical_bandwidth),
                "fpga_bw_paper": row.fpga_base,
                "gpu_bw_ours": _bw_gbs(gpu.logical_bandwidth),
                "gpu_bw_paper": row.gpu_base,
                "fpga_kj_ours": fpga_kj,
                "fpga_kj_paper": row.fpga_energy_kj,
                "gpu_kj_ours": gpu_kj,
                "gpu_kj_paper": row.gpu_energy_kj,
            }
        )
    return result


def run_table4() -> ExperimentResult:
    """Table IV: Poisson bandwidth and energy."""
    return _run_bw_energy_table(
        "table4",
        "Table IV: Poisson-5pt-2D bandwidth (GB/s) and energy (kJ)",
        lambda mesh: poisson2d_app(mesh),
        paper.TABLE4_BASELINE,
        paper.POISSON_BASE_ITERS,
        paper.POISSON_BASE_ITERS,
        paper.POISSON_BATCH_LARGE,
    )


def run_table5() -> ExperimentResult:
    """Table V: Jacobi bandwidth and energy."""
    return _run_bw_energy_table(
        "table5",
        "Table V: Jacobi-7pt-3D bandwidth (GB/s) and energy (kJ)",
        lambda mesh: jacobi3d_app(mesh),
        paper.TABLE5_BASELINE,
        paper.JACOBI_BASE_ITERS,
        paper.JACOBI_BATCH_ITERS,
        paper.JACOBI_BATCH_LARGE,
    )


def run_table6() -> ExperimentResult:
    """Table VI: RTM bandwidth and energy."""
    return _run_bw_energy_table(
        "table6",
        "Table VI: RTM avg. bandwidth (GB/s) and energy (kJ)",
        lambda mesh: rtm_app(mesh),
        paper.TABLE6,
        paper.RTM_BASE_ITERS,
        paper.RTM_BATCH_ITERS,
        paper.RTM_BATCH_LARGE,
    )


# --------------------------------------------------------------------------- #
# DSE experiments (extension: the model as an optimizer, Section V-A)
# --------------------------------------------------------------------------- #
#: (app factory, mesh, niter) per application — modest workloads keep the
#: exhaustive reference sweep fast while preserving the design-space shape
_DSE_WORKLOADS = (
    ("poisson2d", lambda: poisson2d_app(), (1000, 1000), 500),
    ("jacobi3d", lambda: jacobi3d_app(), (100, 100, 100), 100),
    ("rtm", lambda: rtm_app(), (100, 100, 100), 90),
)

#: new-evaluation budget granted to each non-exhaustive strategy
_DSE_BUDGET = 40


def _dse_study(app, mesh, niter, strategy_name, trials, boards=(1,)):
    from repro.dse import Evaluator, Study, model_space, strategy_by_name

    program = app.program_on(mesh)
    workload = Workload(program.mesh, niter)
    space = model_space(program, ALVEO_U280, workload, boards=boards)
    evaluator = Evaluator(
        program,
        ALVEO_U280,
        workload,
        logical_bytes_per_cell_iter=app.gpu_traffic.logical_bytes_per_cell_iter,
    )
    study = Study(space, evaluator)
    study.run(strategy_by_name(strategy_name, seed=0), trials)
    return study


def run_dse_convergence() -> ExperimentResult:
    """Strategy convergence to the exhaustive optimum, per application.

    For each paper application the full grid provides the reference
    optimum; every other strategy then gets a fixed budget of new
    evaluations.  The gap column is the paper-facing claim: the analytic
    model narrows the design space well enough that a few dozen trials
    recover (near-)optimal designs that synthesis sweeps take days to find.
    """
    table = TextTable(
        ["app", "strategy", "trials", "best runtime (s)", "optimum (s)",
         "gap %", "paper design gap %"],
        title="DSE: strategy convergence to the exhaustive optimum (U280)",
    )
    result = ExperimentResult(
        "dse-convergence", "DSE - strategy convergence", table,
        notes=(
            f"budget: {_DSE_BUDGET} new evaluations per strategy (seed 0); "
            "'paper design gap' compares the predicted runtime of the paper's "
            "validated (V, p) design point against the grid optimum on the "
            "same workload"
        ),
    )
    for key, make_app, mesh, niter in _DSE_WORKLOADS:
        app = make_app()
        reference = _dse_study(app, mesh, niter, "exhaustive", None)
        optimum = reference.best()
        if optimum is None:
            table.add_row([key, "exhaustive", reference.evaluated,
                           None, None, None, None])
            result.records.append({"app": key, "strategy": "exhaustive",
                                   "trials": reference.evaluated,
                                   "best_runtime": None, "optimum_runtime": None,
                                   "gap_pct": None})
            continue
        paper_gap = _paper_design_gap(app, mesh, niter, optimum)
        for strategy in ("exhaustive", "random", "annealing", "greedy"):
            if strategy == "exhaustive":
                study, best = reference, optimum
            else:
                study = _dse_study(app, mesh, niter, strategy, _DSE_BUDGET)
                best = study.best()
            gap = (
                (best.value("runtime") / optimum.value("runtime") - 1.0) * 100
                if best is not None
                else float("inf")
            )
            table.add_row(
                [
                    key,
                    strategy,
                    study.evaluated,
                    best.value("runtime") if best else None,
                    optimum.value("runtime"),
                    gap,
                    paper_gap,
                ]
            )
            result.records.append(
                {
                    "app": key,
                    "strategy": strategy,
                    "trials": study.evaluated,
                    "best_runtime": best.value("runtime") if best else None,
                    "optimum_runtime": optimum.value("runtime"),
                    "gap_pct": gap,
                }
            )
    return result


def _paper_design_gap(app, mesh, niter, optimum) -> float | None:
    """Predicted-runtime gap of the paper's validated design vs the optimum."""
    from repro.util.errors import ReproError

    try:
        predictor = app.predictor(mesh)
        workload = app.workload(mesh, niter)
        seconds = predictor.predict(workload).seconds
    except ReproError:
        return None
    return (seconds / optimum.value("runtime") - 1.0) * 100


def run_dse_multifpga() -> ExperimentResult:
    """Best designs along the multi-FPGA spatial-scaling axis.

    Adds the board count to the design space (halo exchange over QSFP28
    links, see :mod:`repro.model.multifpga`) and reports the best design
    and parallel efficiency the model predicts at each cluster size.
    """
    from repro.model.multifpga import scaling_efficiency

    table = TextTable(
        ["app", "boards", "V", "p", "memory", "runtime (s)", "speedup", "efficiency"],
        title="DSE: multi-FPGA spatial scaling (U280 x QSFP28)",
    )
    result = ExperimentResult(
        "dse-multifpga", "DSE - multi-FPGA scaling", table,
        notes=(
            "board count explored as a design-space axis; efficiency is "
            "t1 / (n * tn) from the spatial-scaling halo-exchange model"
        ),
    )
    boards_axis = (1, 2, 4, 8)
    for key, make_app, mesh, niter in _DSE_WORKLOADS[:2]:  # poisson + jacobi
        app = make_app()
        study = _dse_study(app, mesh, niter, "greedy", None, boards=boards_axis)
        program = app.program_on(mesh)
        workload = Workload(program.mesh, niter)
        base = None
        for boards in boards_axis:
            best = min(
                (t for t in study.feasible_trials() if t.config.get("boards") == boards),
                key=lambda t: t.score,
                default=None,
            )
            if best is None:
                continue
            seconds = best.value("runtime")
            if boards == 1:
                base = seconds
            design = best.result.design
            efficiency = scaling_efficiency(
                program, design, workload, boards, strategy="spatial"
            )
            table.add_row(
                [
                    key,
                    boards,
                    design.V,
                    design.p,
                    design.memory,
                    seconds,
                    base / seconds if base else None,
                    efficiency,
                ]
            )
            result.records.append(
                {
                    "app": key,
                    "boards": boards,
                    "runtime": seconds,
                    "efficiency": efficiency,
                }
            )
    return result


# --------------------------------------------------------------------------- #
# workload-mix throughput
# --------------------------------------------------------------------------- #
#: the mix the experiment schedules: small functional meshes spanning all
#: three applications with differing shapes and iteration counts — the
#: heterogeneous population the paper's batched mode (Section IV-B) serves
_MIX_SPEC = "poisson2d:24x16:20x6,jacobi3d:16x14x10:12x4,rtm:12x12x10:6x3"


def run_mix_throughput() -> ExperimentResult:
    """Workload-mix scheduling: chunked stacked dispatch vs per-mesh replay.

    Schedules a heterogeneous mix (three apps, differing mesh shapes and
    iteration counts) through :class:`~repro.dataflow.scheduler.MixScheduler`:
    members group by job shape and each group executes through the compiled
    engine in stacked chunks bounded by
    :data:`repro.stencil.compiled.STACKED_BYTES_LIMIT`. The per-mesh
    dispatch count is the structural baseline (one tape replay per mesh,
    derived, not executed), and every mesh is validated bit-identical
    against the golden interpreter. The estimate column prices each group
    at paper scale with the app's validated design (kernel seconds from the
    batched cycle model).
    """
    from repro.apps.registry import app_by_name
    from repro.dataflow.scheduler import MixScheduler
    from repro.stencil.compiled import STACKED_BYTES_LIMIT
    from repro.workload import WorkloadMix

    mix = WorkloadMix.parse(_MIX_SPEC)
    chunked = MixScheduler().run(mix, validate=True)

    table = TextTable(
        ["group", "meshes", "chunks", "dispatches", "per-mesh", "est. kernel s"],
        title="Workload mix: chunked stacked scheduling (validated vs interpreter)",
    )
    result = ExperimentResult(
        "mix-throughput", "Workload mix - chunked stacked scheduling", table,
        notes=(
            f"mix: {mix.describe()}; chunks bounded by {STACKED_BYTES_LIMIT} "
            "bytes; 'per-mesh' is the one-dispatch-per-mesh baseline; all "
            f"{chunked.meshes} meshes bit-identical to the golden interpreter"
        ),
    )
    for group in chunked.groups:
        spec = group.spec
        app = app_by_name(spec.app)
        estimate = app.accelerator(spec.mesh.shape).estimate(spec)
        table.add_row(
            [
                spec.describe(),
                group.meshes,
                "+".join(str(c) for c in group.chunks),
                group.dispatches,
                group.meshes,
                estimate.kernel_seconds,
            ]
        )
        result.records.append(
            {
                "group": spec.describe(),
                "meshes": group.meshes,
                "chunks": list(group.chunks),
                "dispatches": group.dispatches,
                "per_mesh_dispatches": group.meshes,
                "kernel_seconds": estimate.kernel_seconds,
            }
        )
    table.add_row(
        ["total", chunked.meshes, "-", chunked.dispatches, chunked.meshes, None]
    )
    result.records.append(
        {
            "group": "total",
            "meshes": chunked.meshes,
            "dispatches": chunked.dispatches,
            "per_mesh_dispatches": chunked.meshes,
        }
    )
    return result
