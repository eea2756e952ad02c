"""Compute modules: one unrolled time-iteration of the program body.

A :class:`StencilModule` chains the program's fused stages (each a
:class:`~repro.dataflow.compute.ComputeUnit` behind its window buffers) for
one iteration — the unit that iterative unrolling replicates ``p`` times
(paper Fig. 2).

The module is structural: it reports fill latency, stream cycles and DSP
cost. Running meshes is the stencil engines' job
(:mod:`repro.stencil.compiled`), which the pipeline calls directly.
"""

from __future__ import annotations

from repro.dataflow.compute import ComputeUnit
from repro.stencil.program import StencilProgram
from repro.util.validation import check_positive


class StencilModule:
    """One iteration of the program body as a chained dataflow stage."""

    def __init__(self, program: StencilProgram, V: int):
        check_positive("V", V)
        self.program = program
        self.V = V
        self.units = [ComputeUnit(k, V) for k in program.kernels()]

    def fill_lines(self) -> int:
        """Fill latency of the module: sum of its stages' ``D/2`` lines."""
        return sum(unit.fill_lines() for unit in self.units)

    def stream_cycles(self, mesh_shape: tuple[int, ...]) -> int:
        """Streaming cycles of the module (stages run concurrently: max, not sum)."""
        return max(unit.stream_cycles(mesh_shape) for unit in self.units)

    @property
    def dsp_cost(self) -> int:
        """DSP blocks of the module at the default operator costs."""
        from repro.model.resources import gdsp_kernel

        return self.V * sum(gdsp_kernel(u.kernel) for u in self.units)
