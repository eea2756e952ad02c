"""Iterative pipeline: ``p`` chained compute modules (paper Fig. 2).

Unrolling the time loop feeds iteration ``k``'s output straight into
iteration ``k+1`` without touching external memory; one *pass* through the
pipeline advances the solution by ``p`` iterations at the cost of one mesh
traversal plus the chained fill latency ``p * sum(D_i/2)`` lines.

The pipeline's own work is that structural accounting. Its functional
entry points (:meth:`IterativePipeline.run`, :meth:`~IterativePipeline.run_pass`,
:meth:`~IterativePipeline.run_batch`) check the unroll contract and make
one call into :mod:`repro.stencil.compiled`, which picks the per-mesh or
stacked path for the engine.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from repro.dataflow.module import StencilModule
from repro.mesh.mesh import Field
from repro.stencil.compiled import (
    CompiledPlanCache,
    Into,
    check_engine,
    run_program_compiled,
    run_program_stacked,
)
from repro.stencil.program import StencilProgram
from repro.util.errors import ValidationError
from repro.util.rounding import ceil_div
from repro.util.validation import check_positive


class IterativePipeline:
    """A chain of ``p`` identical compute modules.

    Functional execution is one call into the stencil engines: a mesh runs
    through :func:`~repro.stencil.compiled.run_program_compiled`, a batch
    through :func:`~repro.stencil.compiled.run_program_stacked`, and those
    two decide how ``engine`` runs it — one replay of the cached op tape
    per run or pass on ``"compiled"`` (the default), generated loop nests
    on ``"native"`` (:mod:`repro.stencil.native`), the golden tree-walker
    mesh by mesh on ``"interpreter"``. ``engine="parallel"`` runs a mesh
    on the tape and fans batch chunks out over the shared worker pool
    (:mod:`repro.parallel`). Results are bit-identical on every engine.
    """

    def __init__(
        self,
        program: StencilProgram,
        V: int,
        p: int,
        engine: str = "compiled",
        plan_cache: CompiledPlanCache | None = None,
    ):
        check_positive("p", p)
        self.program = program
        self.V = V
        self.p = p
        self.engine = check_engine(engine)
        self.plan_cache = plan_cache
        # modules are identical hardware; one instance carries the accounting
        self.module = StencilModule(program, V)

    # -- functional ---------------------------------------------------------------
    def _check_niter(self, niter: int) -> None:
        """Refuse an ``niter`` that is not a positive multiple of ``p``.

        The hardware pipeline always advances ``p`` iterations per pass; a
        remainder would need a bypass datapath the paper's designs do not
        implement.
        """
        check_positive("niter", niter)
        if niter % self.p:
            raise ValidationError(
                f"niter={niter} is not a multiple of the unroll factor p={self.p}"
            )

    def _run_iterations(
        self,
        fields: Mapping[str, Field],
        niter: int,
        into: Into | None = None,
    ) -> dict[str, Field] | None:
        return run_program_compiled(
            self.program, fields, niter,
            cache=self.plan_cache, engine=self.engine, into=into,
        )

    def run_pass(
        self, fields: Mapping[str, Field], *, into: Into | None = None
    ) -> dict[str, Field] | None:
        """One pass = ``p`` chained iterations.

        ``into`` names, per state field, the pass's output array (its view
        over ``fields``' mesh) and the window of it this pass writes; the
        pass then stores that window there and returns None
        (:func:`~repro.stencil.compiled.run_program_compiled`).
        """
        return self._run_iterations(fields, self.p, into=into)

    def run(self, fields: Mapping[str, Field], niter: int) -> dict[str, Field]:
        """Run ``niter`` iterations (must be a multiple of ``p``)."""
        self._check_niter(niter)
        return self._run_iterations(fields, niter)

    def run_batch(
        self, batch_fields: Sequence[Mapping[str, Field]], niter: int
    ) -> list[dict[str, Field]]:
        """Run a batch of independent same-spec meshes (paper Section IV-B).

        The batch is stacked batch-major and advances through one replay
        of the op tape per footprint-bounded chunk — the software analogue
        of streaming the meshes back to back through one pipeline (eq.
        (15)); per-mesh results are bit-identical to ``B`` independent
        :meth:`run` calls, which is how ``"interpreter"`` runs it. The
        parallel engine dispatches the same chunks
        across the shared worker pool
        (:func:`repro.parallel.run_program_parallel`). ``niter`` must be a
        multiple of ``p`` exactly as for :meth:`run`; every member must
        bind the program's inputs on one shared spec.
        """
        self._check_niter(niter)
        if self.engine == "parallel":
            from repro.parallel.executor import run_program_parallel

            return run_program_parallel(
                self.program, batch_fields, niter, cache=self.plan_cache
            )
        return run_program_stacked(
            self.program, batch_fields, niter,
            cache=self.plan_cache, engine=self.engine,
        )

    # -- structural cycle accounting ------------------------------------------
    def pass_cycles(self, mesh_shape: tuple[int, ...], batch: int = 1, ii: float = 1.0) -> float:
        """Cycles of one pass over a (possibly batched) mesh.

        ``ceil(m/V)`` vectors per row; the stream is ``rows * batch`` rows
        long plus the chained fill latency in rows/planes.
        """
        check_positive("batch", batch)
        vectors_per_row = ceil_div(mesh_shape[0], self.V)
        if len(mesh_shape) == 2:
            stream_rows = mesh_shape[1] * batch
            fill_rows = self.p * self.module.fill_lines()
            return vectors_per_row * (stream_rows * ii + fill_rows)
        rows_per_plane = mesh_shape[1]
        stream_planes = mesh_shape[2] * batch
        fill_planes = self.p * self.module.fill_lines()
        return vectors_per_row * rows_per_plane * (stream_planes * ii + fill_planes)

    def total_cycles(
        self, mesh_shape: tuple[int, ...], niter: int, batch: int = 1, ii: float = 1.0
    ) -> float:
        """Cycles for the whole solve (``niter`` a multiple of ``p``)."""
        passes = niter // self.p
        if niter % self.p:
            raise ValidationError(
                f"niter={niter} is not a multiple of the unroll factor p={self.p}"
            )
        return passes * self.pass_cycles(mesh_shape, batch, ii)
