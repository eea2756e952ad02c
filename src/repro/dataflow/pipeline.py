"""Iterative pipeline: ``p`` chained compute modules (paper Fig. 2).

Unrolling the time loop feeds iteration ``k``'s output straight into
iteration ``k+1`` without touching external memory; one *pass* through the
pipeline advances the solution by ``p`` iterations at the cost of one mesh
traversal plus the chained fill latency ``p * sum(D_i/2)`` lines.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from repro.dataflow.module import StencilModule
from repro.mesh.mesh import Field
from repro.stencil.compiled import (
    CompiledPlanCache,
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

    Functional execution defaults to the plan-compiled engine: a whole run
    (or pass) is one replay of the cached op tape, so chained passes never
    re-interpret the program. ``engine="interpreter"`` selects the golden
    tree-walking path; ``engine="parallel"`` keeps the compiled path for
    single meshes and fans batch chunks out over a worker pool of up to
    ``max_workers`` lanes (:mod:`repro.parallel`); ``engine="native"``
    replays the steady tapes as generated fused code
    (:mod:`repro.stencil.native`). Results are bit-identical on every
    engine.
    """

    def __init__(
        self,
        program: StencilProgram,
        V: int,
        p: int,
        engine: str = "compiled",
        plan_cache: CompiledPlanCache | None = None,
        max_workers: int | None = None,
    ):
        check_positive("p", p)
        self.program = program
        self.V = V
        self.p = p
        self.engine = check_engine(engine)
        self.plan_cache = plan_cache
        self.max_workers = max_workers
        # modules are identical hardware; one functional instance suffices
        self.module = StencilModule(program, V, engine, plan_cache)

    # -- functional ---------------------------------------------------------------
    def _run_iterations(
        self,
        fields: Mapping[str, Field],
        niter: int,
        coefficients: Mapping[str, float] | None,
        copy: bool = True,
    ) -> dict[str, Field]:
        if self.engine != "interpreter":
            # a single mesh has no chunks to fan out: the parallel engine
            # and the compiled engine are the same path here (the native
            # engine swaps in the generated steady-loop replay)
            return run_program_compiled(
                self.program, fields, niter, coefficients,
                cache=self.plan_cache, engine=self.engine, copy=copy,
            )
        env: dict[str, Field] = dict(fields)
        for _ in range(niter):
            env = self.module.process(env, coefficients)
        return env

    def run_pass(
        self,
        fields: Mapping[str, Field],
        coefficients: Mapping[str, float] | None = None,
        copy: bool = True,
    ) -> dict[str, Field]:
        """One pass = ``p`` chained iterations.

        ``copy=False`` lets compiled-engine callers that immediately copy
        the produced arrays themselves (the tiler's write-back) skip the
        per-field result copies; the returned arrays then alias the cached
        instance's buffers until its next run.
        """
        return self._run_iterations(fields, self.p, coefficients, copy=copy)

    def run(
        self,
        fields: Mapping[str, Field],
        niter: int,
        coefficients: Mapping[str, float] | None = None,
    ) -> dict[str, Field]:
        """Run ``niter`` iterations (must be a multiple of ``p``).

        The hardware pipeline always advances ``p`` iterations per pass; a
        remainder would require a bypass datapath the paper's designs do not
        implement.
        """
        check_positive("niter", niter)
        if niter % self.p:
            raise ValidationError(
                f"niter={niter} is not a multiple of the unroll factor p={self.p}"
            )
        return self._run_iterations(fields, niter, coefficients)

    def run_batch(
        self,
        batch_fields: Sequence[Mapping[str, Field]],
        niter: int,
        coefficients: Mapping[str, float] | None = None,
    ) -> list[dict[str, Field]]:
        """Run a batch of independent same-spec meshes (paper Section IV-B).

        On the compiled engine the batch is stacked batch-major and
        advances through one replay of the op tape per footprint-bounded
        chunk — the software analogue of streaming the meshes back to back
        through one pipeline (eq. (15)); per-mesh results are bit-identical
        to ``B`` independent :meth:`run` calls. The parallel engine keeps
        the same chunk schedule but dispatches the chunks across a worker
        pool (:func:`repro.parallel.run_program_parallel`). The
        interpreter engine replays the golden path per mesh. ``niter``
        must be a multiple of ``p`` exactly as for :meth:`run`. Chunks are
        sized by :data:`repro.stencil.compiled.STACKED_BYTES_LIMIT`.
        """
        if not batch_fields:
            raise ValidationError("batch must contain at least one mesh")
        check_positive("niter", niter)
        if niter % self.p:
            raise ValidationError(
                f"niter={niter} is not a multiple of the unroll factor p={self.p}"
            )
        if self.engine == "parallel":
            from repro.parallel.executor import run_program_parallel

            return run_program_parallel(
                self.program, batch_fields, niter, coefficients,
                cache=self.plan_cache, max_workers=self.max_workers,
            )
        if self.engine in ("compiled", "native"):
            return run_program_stacked(
                self.program, batch_fields, niter, coefficients,
                cache=self.plan_cache, engine=self.engine,
            )
        return [
            dict(self._run_iterations(env, niter, coefficients))
            for env in batch_fields
        ]

    def run_mix(
        self,
        groups: Sequence[tuple[Sequence[Mapping[str, Field]], int]],
        coefficients: Mapping[str, float] | None = None,
    ) -> list[list[dict[str, Field]]]:
        """Run a mix of independent batches back to back.

        Each group is a ``(batch_fields, niter)`` pair; meshes within a
        group must share one spec (they ride one chunked stacked dispatch,
        see :meth:`run_batch`), while specs and iteration counts may differ
        freely across groups — the compiled engine keys plans by the bound
        field specs, so one pipeline serves every mesh shape in the mix.
        Higher-level mix orchestration (grouping a
        :class:`~repro.workload.WorkloadMix`, dispatch accounting) lives in
        :class:`repro.dataflow.scheduler.MixScheduler`.
        """
        if not groups:
            raise ValidationError("mix must contain at least one group")
        return [
            self.run_batch(batch_fields, niter, coefficients)
            for batch_fields, niter in groups
        ]

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
