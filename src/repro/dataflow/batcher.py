"""Batched execution of many small independent meshes (paper Section IV-B).

The host stacks ``B`` same-shaped meshes and the pipeline streams them back
to back, paying the fill latency once per pass instead of once per mesh.
Stencil updates must not couple neighbouring meshes across the stacking
boundary, so the functional path keeps the meshes isolated **structurally**:
the compiled engine stacks the batch batch-major — a true leading array
axis, not a concatenation seam — and advances all ``B`` meshes through one
replay of the plan's op tape (see
:func:`repro.stencil.compiled.run_program_stacked`), while the cycle
accounting uses the stacked stream length (eq. (15) behaviour). Per-mesh
results are bit-identical to ``B`` independent solves; the
``engine="interpreter"`` golden path still evaluates each mesh on its own.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from repro.dataflow.pipeline import IterativePipeline
from repro.mesh.mesh import Field
from repro.model.design import DesignPoint
from repro.stencil.program import StencilProgram
from repro.util.errors import ValidationError
from repro.util.validation import check_positive


class BatchRunner:
    """Runs a batch of independent meshes through one pipeline."""

    def __init__(
        self,
        program: StencilProgram,
        design: DesignPoint,
        engine: str = "compiled",
        plan_cache=None,
        max_workers: int | None = None,
    ):
        self.program = program
        self.design = design
        # every mesh in a batch shares the same spec, so the whole batch
        # rides one compiled plan — stacked batch-major (in footprint-
        # bounded chunks) on the compiled engine, fanned out across a
        # worker pool on the parallel engine, replayed per mesh on the
        # interpreter
        self.pipeline = IterativePipeline(
            program, design.V, design.p, engine, plan_cache,
            max_workers=max_workers,
        )

    @property
    def engine(self) -> str:
        """The execution engine of the underlying pipeline."""
        return self.pipeline.engine

    def run(
        self,
        batch_fields: Sequence[Mapping[str, Field]],
        niter: int,
        coefficients: Mapping[str, float] | None = None,
    ) -> list[dict[str, Field]]:
        """Solve every mesh in the batch for ``niter`` iterations."""
        if not batch_fields:
            raise ValidationError("batch must contain at least one mesh")
        spec = None
        for env in batch_fields:
            for name in self.program.external_reads():
                if name not in env:
                    raise ValidationError(f"batch mesh missing field '{name}'")
            s = env[self.program.state_fields[0]].spec
            if spec is None:
                spec = s
            elif s != spec:
                raise ValidationError(
                    "all meshes in a batch must share the same spec "
                    f"({s} != {spec})"
                )
        return self.pipeline.run_batch(batch_fields, niter, coefficients)

    def run_mix(
        self,
        groups: Sequence[tuple[Sequence[Mapping[str, Field]], int]],
        coefficients: Mapping[str, float] | None = None,
    ) -> list[list[dict[str, Field]]]:
        """Solve a mix of batches: each ``(batch_fields, niter)`` group in turn.

        Specs must agree within a group but may differ across groups
        (differing mesh shapes and iteration counts ride separate compiled
        plans). See :class:`repro.dataflow.scheduler.MixScheduler` for
        workload-level mix orchestration.
        """
        if not groups:
            raise ValidationError("mix must contain at least one group")
        return [
            self.run(batch_fields, niter, coefficients)
            for batch_fields, niter in groups
        ]

    def total_cycles(self, niter: int, batch: int, mesh_shape: tuple[int, ...]) -> float:
        """Structural cycles for the batched solve (stacked stream)."""
        check_positive("batch", batch)
        return self.pipeline.total_cycles(
            mesh_shape, niter, batch, self.design.initiation_interval
        )
