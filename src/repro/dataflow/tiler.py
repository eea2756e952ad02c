"""Overlapped spatial blocking executor (paper Section IV-A).

Splits the mesh into blocks that overlap by ``2 * p * r`` cells per split
axis (``r`` = the program's per-iteration contamination radius), runs the
``p``-iteration pipeline on each block independently, and stores only the
*valid* interior of each block into the pass output: the pass is given
the output and the window (``run_pass(..., into=...)``) and stores it
there itself. Boundary blocks extend their valid region to the true mesh
boundary, where the Dirichlet (carry-through) semantics of the golden
model apply identically.

Correctness argument: a block cell at depth ``d`` from a block edge is exact
after ``t`` iterations iff ``d >= t * r`` (staleness advances one stencil
radius per iteration, per fused stage). The halo ``h = p * r`` therefore
makes the retained region ``[h, M-h)`` exact after ``p`` iterations. The
property is asserted against the un-tiled golden run in the test suite.
"""

from __future__ import annotations

import itertools
from typing import Mapping

import numpy as np

from repro.dataflow.datamover import DataMover
from repro.dataflow.pipeline import IterativePipeline
from repro.mesh.mesh import Field, MeshSpec
from repro.model.design import DesignPoint
from repro.model.tiling import BlockPlan, plan_blocks
from repro.stencil.compiled import placed_array
from repro.stencil.program import StencilProgram
from repro.util.errors import ValidationError
from repro.util.rounding import ceil_div


class SpatialTiler:
    """Tiled execution of an iterative program through a fixed pipeline."""

    def __init__(
        self,
        program: StencilProgram,
        design: DesignPoint,
        device=None,
        engine: str = "compiled",
        plan_cache=None,
    ):
        if design.tile is None:
            raise ValidationError("SpatialTiler requires a tiled design")
        self.program = program
        self.design = design
        self.device = device
        # blocks of the same shape share one compiled plan through the
        # pipeline's cache, so a tiled pass compiles at most a handful of
        # plans (full blocks plus the edge remainders) on its first sweep
        self.pipeline = IterativePipeline(
            program, design.V, design.p, engine, plan_cache
        )
        # per-iteration contamination radius per paper axis:
        # the sum over fused stages of each stage's radius
        ndim = program.mesh.ndim
        radii = [0] * ndim
        for kernel in program.kernels():
            kr = kernel.radius
            for axis in range(ndim):
                radii[axis] += kr[axis]
        self.iter_radius = tuple(radii)

    def halo(self, axis: int) -> int:
        """Halo per side on a split axis: ``p * r_axis``."""
        return self.design.p * self.iter_radius[axis]

    # -- functional ---------------------------------------------------------------
    def run(self, fields: Mapping[str, Field], niter: int) -> dict[str, Field]:
        """Run ``niter`` iterations (multiple of ``p``) with tiled passes.

        Mirrors the interpreter: the caller's bindings, with every state
        field replaced; the caller's arrays are only read. A pass writes
        its state fields into arrays of the run's own (placed as an
        instance's buffers are, :func:`~repro.stencil.compiled.placed_array`),
        which the valid windows of its blocks cover exactly, and the arrays
        a pass read take the output of the pass after it: two arrays per
        state field at most, however many passes run.
        """
        if niter % self.design.p:
            raise ValidationError(
                f"niter={niter} is not a multiple of p={self.design.p}"
            )
        env = dict(fields)
        spare: dict[str, np.ndarray] = {}
        slots = itertools.count()
        for k in range(niter // self.design.p):
            read = env
            out = {
                name: spare[name] if name in spare else placed_array(
                    read[name].spec.storage_shape, read[name].spec.dtype, next(slots)
                )
                for name in self.program.state_fields
            }
            env = self._run_pass(read, out)
            if k:  # the previous pass's output, read for the last time
                spare = {name: read[name].data for name in self.program.state_fields}
        return env

    def _axis_plans(self, mesh: MeshSpec) -> list[list[BlockPlan]]:
        tile = self.design.tile
        shape = mesh.shape
        plans = [plan_blocks(shape[0], min(tile.M, shape[0]), self.halo(0))]
        if mesh.ndim == 3:
            if tile.N is None:
                raise ValidationError("3D tiled designs need an (M, N) tile")
            plans.append(plan_blocks(shape[1], min(tile.N, shape[1]), self.halo(1)))
        return plans

    def _run_pass(
        self, env: dict[str, Field], out: dict[str, np.ndarray]
    ) -> dict[str, Field]:
        """One pass over every block of ``env``, each state field stored
        into its array of ``out`` (neither read nor aliased by ``env``):
        each block's pass stores its valid window there itself."""
        mesh = next(iter(env.values())).spec
        axis_plans = self._axis_plans(mesh)
        if mesh.ndim == 2:
            combos = [(bm,) for bm in axis_plans[0]]
        else:
            combos = [(bm, bn) for bm in axis_plans[0] for bn in axis_plans[1]]
        for combo in combos:
            block, shape, window = self._block(mesh, combo)
            block_env: dict[str, Field] = {}
            for name in self.program.external_reads():
                f = env[name]
                sub_spec = MeshSpec(shape, f.spec.components, f.spec.dtype)
                # a view, not a copy: no engine writes through its inputs
                # (the compiled one copies it into the plan's buffers at
                # load, the native one reads it where it lives, on a
                # descriptor re-derived for the mesh's outer strides, and
                # never stores into it; the interpreter computes into
                # fresh arrays)
                block_env[name] = Field(name, sub_spec, f.data[block])
            into = {
                name: (out[name][block], window) for name in self.program.state_fields
            }
            self.pipeline.run_pass(block_env, into=into)
        result = dict(env)
        for name in self.program.state_fields:
            result[name] = Field(name, env[name].spec, out[name])
        return result

    @staticmethod
    def _block(
        mesh: MeshSpec, combo: tuple[BlockPlan, ...]
    ) -> tuple[tuple[slice, ...], tuple[int, ...], tuple[slice, ...]]:
        """The block's storage slices of the mesh, its mesh shape, and the
        storage slices of its valid window within it."""
        # storage order is reversed paper order: (n, m, c) / (l, n, m, c)
        spans = [
            (
                slice(b.start, b.end),
                slice(b.valid_start - b.start, b.valid_end - b.start),
            )
            for b in reversed(combo)
        ]
        block = (slice(None), *(span for span, _ in spans))
        window = (slice(None), *(valid for _, valid in spans))
        shape = (*(b.extent for b in combo), *mesh.shape[len(combo):])
        return block, shape, window

    # -- structural cycle accounting ------------------------------------------
    def pass_cycles(self, mesh: MeshSpec, clock_hz: float) -> float:
        """Cycles of one tiled pass: per-block max(compute, memory) + fills.

        Each block is read with strided row runs (``M`` elements), computed
        by the pipeline and written back valid-only; the dataflow overlaps
        the three, so a block costs the max of the three stages.
        """
        axis_plans = self._axis_plans(mesh)
        mover = DataMover(self.device, self.design.memory, clock_hz)
        k = mesh.elem_bytes
        # a stream feeding V cells/cycle is striped over enough channels
        bank = self.device.memory(self.design.memory)
        stream_rate = self.design.V * k * clock_hz
        channels_per_stream = max(1, ceil_div(int(stream_rate), int(bank.channel_bandwidth)))
        total = 0.0
        if mesh.ndim == 2:
            combos = [(bm,) for bm in axis_plans[0]]
        else:
            combos = [(bm, bn) for bm in axis_plans[0] for bn in axis_plans[1]]
        for combo in combos:
            if mesh.ndim == 2:
                (bm,) = combo
                shape = (bm.extent, mesh.shape[1])
                rows = mesh.shape[1]
            else:
                bm, bn = combo
                shape = (bm.extent, bn.extent, mesh.shape[2])
                rows = bn.extent * mesh.shape[2]
            compute = self.pipeline.pass_cycles(shape, ii=self.design.initiation_interval)
            # reads of all input fields proceed in parallel on separate
            # channel groups; the slowest stream gates the block
            read = mover.strided_rows(bm.extent * k, rows).cycles / channels_per_stream
            valid_m = bm.valid_end - bm.valid_start
            write = (
                mover.strided_rows(max(1, valid_m) * k, rows).cycles
                / channels_per_stream
            )
            total += max(compute, float(read), float(write))
        return total

    def total_cycles(self, mesh: MeshSpec, niter: int, clock_hz: float) -> float:
        """Cycles for the whole tiled solve."""
        if niter % self.design.p:
            raise ValidationError(
                f"niter={niter} is not a multiple of p={self.design.p}"
            )
        return (niter // self.design.p) * self.pass_cycles(mesh, clock_hz)
