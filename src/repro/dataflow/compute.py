"""Compute units: V-way replicated kernel datapaths.

A :class:`ComputeUnit` models the vectorized datapath of one kernel — the
"cell-parallel" replicas of Fig. 1: how many cycles the unit needs to
stream a given mesh region at vectorization ``V``, and what one replica
costs.
"""

from __future__ import annotations

from repro.stencil.kernel import StencilKernel
from repro.util.rounding import ceil_div
from repro.util.validation import check_positive


class ComputeUnit:
    """One kernel's datapath, replicated ``V`` ways."""

    def __init__(self, kernel: StencilKernel, V: int):
        check_positive("V", V)
        self.kernel = kernel
        self.V = V
        #: DSP-relevant op counts of a single replica
        self.ops = kernel.op_counts()

    def stream_cycles(self, mesh_shape: tuple[int, ...]) -> int:
        """Cycles to stream the whole mesh through this unit (no fill).

        ``ceil(m/V)`` vectors per row, one vector per cycle at II=1.
        """
        vectors_per_row = ceil_div(mesh_shape[0], self.V)
        rows = 1
        for extent in mesh_shape[1:]:
            rows *= extent
        return vectors_per_row * rows

    def fill_lines(self) -> int:
        """Window-buffer fill latency of this stage, in rows/planes (``D/2``)."""
        return self.kernel.order // 2

    @property
    def flops_per_cell(self) -> int:
        """Floating-point operations per mesh-point update."""
        return self.ops.total
