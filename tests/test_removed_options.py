"""Options that were folded away stay gone, and stale calls fail loudly.

A coefficient changes only through the kernels
(``StencilKernel.with_coefficients``); the model runs on one calibration
per device (``DEFAULT_CLOCK_MODEL``, ``DEFAULT_DSP_COSTS``,
``DEFAULT_FPGA_POWER``). Each call below binds its arguments before running
anything, so a removed keyword fails with ``TypeError`` naming it, and a
positional call in the old order fails instead of binding a value to the
parameter that moved up.
"""

from __future__ import annotations

import pytest

from repro.arch.clocking import DEFAULT_CLOCK_MODEL
from repro.arch.device import ALVEO_U280
from repro.dataflow.accelerator import FPGAAccelerator, HostModel
from repro.dataflow.pipeline import IterativePipeline
from repro.dataflow.scheduler import MixScheduler
from repro.dataflow.tiler import SpatialTiler
from repro.dataflow.window import stream_iterate_2d, stream_iterate_3d
from repro.dse import RUNTIME, Evaluator
from repro.model.design import DesignSpace
from repro.model.energy import DEFAULT_FPGA_POWER
from repro.model.resources import resource_report
from repro.model.runtime import RuntimePredictor
from repro.parallel.executor import (
    plan_token_for,
    run_program_parallel,
    submit_stacked,
)
from repro.stencil.compiled import (
    CompiledPlanCache,
    run_program_compiled,
    run_program_stacked,
)
from repro.stencil.numpy_eval import apply_kernel, run_group, run_program
from repro.stencil.plan import lower_program

#: entry point -> a call forwarding keywords, for each removed keyword
COEFFICIENTS = {
    "apply_kernel": lambda **kw: apply_kernel(None, {}, **kw),
    "run_group": lambda **kw: run_group(None, {}, **kw),
    "run_program": lambda **kw: run_program(None, {}, 1, **kw),
    "lower_program": lambda **kw: lower_program(None, None, {}, **kw),
    "CompiledPlanCache.get": lambda **kw: CompiledPlanCache.get(None, None, {}, **kw),
    "CompiledPlanCache.plan_for": (
        lambda **kw: CompiledPlanCache.plan_for(None, None, {}, **kw)
    ),
    "run_program_compiled": lambda **kw: run_program_compiled(None, {}, 1, **kw),
    "run_program_stacked": lambda **kw: run_program_stacked(None, [], 1, **kw),
    "IterativePipeline.run": lambda **kw: IterativePipeline.run(None, {}, 1, **kw),
    "IterativePipeline.run_pass": lambda **kw: IterativePipeline.run_pass(None, {}, **kw),
    "IterativePipeline.run_batch": (
        lambda **kw: IterativePipeline.run_batch(None, [], 1, **kw)
    ),
    "SpatialTiler.run": lambda **kw: SpatialTiler.run(None, {}, 1, **kw),
    "FPGAAccelerator.run": lambda **kw: FPGAAccelerator.run(None, {}, 1, **kw),
    "FPGAAccelerator.run_batch": lambda **kw: FPGAAccelerator.run_batch(None, [], 1, **kw),
    "MixScheduler": lambda **kw: MixScheduler(**kw),
    "submit_stacked": lambda **kw: submit_stacked(None, [], 1, **kw),
    "run_program_parallel": lambda **kw: run_program_parallel(None, [], 1, **kw),
    "plan_token_for": lambda **kw: plan_token_for(None, {}, **kw),
    "stream_iterate_2d": lambda **kw: stream_iterate_2d(None, {}, **kw),
    "stream_iterate_3d": lambda **kw: stream_iterate_3d(None, {}, **kw),
}
CALIBRATION = {
    "Evaluator": (lambda **kw: Evaluator(None, None, **kw), ("clock_model",)),
    "DesignSpace": (lambda **kw: DesignSpace(None, None, **kw), ("clock_model", "costs")),
    "RuntimePredictor": (
        lambda **kw: RuntimePredictor(None, None, None, **kw), ("power_model", "costs")
    ),
    "resource_report": (lambda **kw: resource_report(None, None, 1, 1, **kw), ("costs",)),
    "FPGAAccelerator": (lambda **kw: FPGAAccelerator(None, None, **kw), ("power_model",)),
}
PASS_THROUGHS = {
    "apply_kernel": (lambda **kw: apply_kernel(None, {}, **kw), ("radius",)),
    "Evaluator.mix_scheduler": (
        lambda **kw: Evaluator.mix_scheduler(None, **kw),
        ("plan_cache", "seed", "fields_for"),
    ),
    "Evaluator.validate_mix": (
        lambda **kw: Evaluator.validate_mix(None, {}, **kw),
        ("plan_cache", "seed", "fields_for"),
    ),
}
CASES = [(name, call, "coefficients") for name, call in COEFFICIENTS.items()] + [
    (name, call, kwarg)
    for table in (CALIBRATION, PASS_THROUGHS)
    for name, (call, kwargs) in table.items()
    for kwarg in kwargs
]

#: entry point -> a call in the order its parameters had before one was removed
STALE_POSITIONAL = {
    "run_program": lambda: run_program(None, {}, 1, None, "compiled"),
    "run_program_compiled": lambda: run_program_compiled(None, {}, 1, None, None),
    "run_program_stacked": lambda: run_program_stacked(None, [], 1, None, None),
    "CompiledPlanCache.get": lambda: CompiledPlanCache.get(None, None, {}, None, 2),
    "IterativePipeline.run_pass": (
        lambda: IterativePipeline.run_pass(None, {}, None, None)
    ),
    "FPGAAccelerator": lambda: FPGAAccelerator(
        None, None, ALVEO_U280, HostModel(), DEFAULT_FPGA_POWER
    ),
    "MixScheduler": lambda: MixScheduler("compiled", None, None, None, 0, None, 2),
    "submit_stacked": lambda: submit_stacked(None, [], 1, None, None),
    "run_program_parallel": lambda: run_program_parallel(None, [], 1, None, None),
    "Evaluator": lambda: Evaluator(
        None, None, None, (RUNTIME,), (), DEFAULT_CLOCK_MODEL
    ),
    "RuntimePredictor": lambda: RuntimePredictor(None, None, None, DEFAULT_FPGA_POWER),
    "Evaluator.mix_scheduler": lambda: Evaluator.mix_scheduler(None, None, 0),
    "Evaluator.validate_mix": lambda: Evaluator.validate_mix(None, {}, None),
}


@pytest.mark.parametrize(
    "call,kwarg", [case[1:] for case in CASES], ids=[f"{n}-{k}" for n, _, k in CASES]
)
def test_removed_keyword_is_rejected(call, kwarg):
    with pytest.raises(TypeError, match=f"unexpected keyword argument '{kwarg}'"):
        call(**{kwarg: None})


@pytest.mark.parametrize("call", STALE_POSITIONAL.values(), ids=STALE_POSITIONAL.keys())
def test_stale_positional_call_is_rejected(call):
    with pytest.raises(TypeError, match="positional argument"):
        call()

