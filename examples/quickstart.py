"""Quickstart: describe a stencil, design an accelerator, predict and simulate.

This walks the paper's whole workflow on the Poisson-5pt-2D solver:

1. describe the stencil kernel as an expression tree;
2. let the analytic model pick V (eq. 4) and p (eqs. 6/7);
3. predict runtime/bandwidth/energy (the paper's "FPGA - Pred");
4. run the dataflow simulator and check the numerics against the golden
   NumPy model;
5. compare with the V100 GPU baseline.

Run:  python examples/quickstart.py
"""

import numpy as np

from repro.apps.poisson2d import poisson2d_app
from repro.arch.device import ALVEO_U280
from repro.dse import (
    BANDWIDTH, POWER, RUNTIME, Evaluator, ExhaustiveSearch, Study, model_space,
)
from repro.model.design import Workload
from repro.stencil.numpy_eval import run_program
from repro.util.units import GB


def main() -> None:
    mesh_shape = (400, 400)
    niter = 6000

    app = poisson2d_app(mesh_shape)
    program = app.program_on(mesh_shape)
    print(f"Program: {program.name} on {program.mesh}")
    kernel = next(iter(program.kernels()))
    print(f"Kernel ops: {kernel.op_counts()}  (G_dsp = 14, Table II)")

    # -- 2. design-space exploration -------------------------------------------
    workload = Workload(program.mesh, niter)
    evaluator = Evaluator(
        program, ALVEO_U280, workload, objectives=(RUNTIME, BANDWIDTH, POWER)
    )
    study = Study(model_space(program, ALVEO_U280, workload), evaluator)
    study.run(ExhaustiveSearch())
    print("\nTop design points (model-ranked):")
    for trial in study.top(3):
        design = trial.result.design
        print(
            f"  V={design.V:<3} p={design.p:<3} {design.clock_mhz:.0f} MHz "
            f"{design.memory:<5} -> {trial.value('runtime') * 1e3:8.2f} ms, "
            f"{trial.value('bandwidth') / GB:6.1f} GB/s, "
            f"{trial.value('power'):5.1f} W"
        )

    # -- 3. the paper's validated design ----------------------------------------
    design = app.design()
    predicted = app.predictor(mesh_shape, design).predict(workload)
    print(
        f"\nPaper design V={design.V}, p={design.p} @ {design.clock_mhz:.0f} MHz: "
        f"predicted {predicted.seconds * 1e3:.2f} ms"
    )

    # -- 4. simulate (numerics-preserving) --------------------------------------
    fields = app.fields(mesh_shape, seed=42)
    accelerator = app.accelerator(mesh_shape, design)
    result, report = accelerator.run(fields, niter)
    golden = run_program(program, fields, niter, engine="interpreter")
    exact = np.array_equal(result["U"].data, golden["U"].data)
    print(
        f"Simulated: {report.seconds * 1e3:.2f} ms "
        f"({report.cycles:.3g} cycles, {report.logical_bandwidth / GB:.1f} GB/s "
        f"logical) — results bit-identical to golden: {exact}"
    )

    # -- 5. GPU baseline ---------------------------------------------------------
    gpu = app.gpu_model().predict(workload)
    print(
        f"V100 baseline: {gpu.seconds * 1e3:.2f} ms at {gpu.power_w:.0f} W "
        f"-> FPGA speedup {gpu.seconds / report.seconds:.2f}x, "
        f"energy ratio {gpu.energy_j / report.energy_j:.2f}x"
    )


if __name__ == "__main__":
    main()
