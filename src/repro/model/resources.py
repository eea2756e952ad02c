"""Resource estimation: DSP cost of a mesh-point update and unroll bounds.

``G_dsp`` (paper Table II) is the DSP-block cost of computing one mesh-point
update — the whole fused loop chain of one iteration. With the standard
Xilinx single-precision operator costs (adder: 2 DSPs, multiplier: 3 DSPs,
divider: LUT-based) the paper's values are recovered exactly:

* Poisson-5pt-2D: 4 adds + 2 muls -> 4*2 + 2*3 = 14
* Jacobi-7pt-3D: 6 adds + 7 muls -> 6*2 + 7*3 = 33
* RTM forward pass: 2444 (see :mod:`repro.apps.rtm` for the op budget)

From ``G_dsp`` follow the two unroll bounds:

* eq. (6): ``p_dsp = FPGA_dsp / (V * G_dsp)``
* eq. (7): ``p_mem = FPGA_mem / (k*D*m)`` (2D) or ``/(k*D*m*n)`` (3D)

and the achievable iterative unroll factor ``p = min(p_dsp, p_mem)``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.arch.device import (
    BRAM_BLOCK_BITS,
    FPGADevice,
    URAM_BLOCK_BITS,
    URAM_WIDTH_BITS,
)
from repro.stencil.kernel import StencilKernel
from repro.stencil.program import StencilProgram
from repro.util.errors import ValidationError
from repro.util.rounding import ceil_div
from repro.util.validation import check_positive


@dataclass(frozen=True)
class DSPCostModel:
    """DSP blocks per single-precision floating-point operator."""

    add: int = 2
    mul: int = 3
    div: int = 0  # Xilinx SP divider is LUT-based; it consumes no DSP blocks

    def __post_init__(self):
        if self.add < 0 or self.mul < 0 or self.div < 0:
            raise ValidationError("DSP costs must be non-negative")


#: Standard Vivado HLS single-precision operator costs.
DEFAULT_DSP_COSTS = DSPCostModel()


def gdsp_kernel(kernel: StencilKernel, costs: DSPCostModel = DEFAULT_DSP_COSTS) -> int:
    """DSP blocks for one mesh-point update of a single kernel."""
    ops = kernel.op_counts()
    return ops.adds * costs.add + ops.muls * costs.mul + ops.divs * costs.div


def gdsp_program(program: StencilProgram, costs: DSPCostModel = DEFAULT_DSP_COSTS) -> int:
    """``G_dsp``: DSP blocks for one mesh-point update of the full iteration body."""
    return sum(gdsp_kernel(k, costs) for k in program.kernels())


def p_dsp(device: FPGADevice, V: int, gdsp: int) -> int:
    """Eq. (6): maximum unroll factor from the DSP budget."""
    check_positive("V", V)
    check_positive("gdsp", gdsp)
    return device.usable_dsp() // (V * gdsp)


def _line_points(shape: tuple[int, ...]) -> int:
    """Mesh points of one buffered line: a row (2D) or a plane (3D)."""
    if len(shape) == 2:
        return shape[0]
    if len(shape) == 3:
        return shape[0] * shape[1]
    raise ValidationError(f"mesh shape must be 2D or 3D, got {shape}")


def module_mem_bytes(program: StencilProgram, mesh_shape: tuple[int, ...] | None = None) -> int:
    """On-chip bytes needed by ONE compute module (one unrolled iteration).

    The program's window buffers and bypass FIFOs
    (:attr:`StencilProgram.module_line_bytes`, following the paper's rule
    that a ``D``-order stencil buffers ``D`` rows/planes) at the row (2D) or
    plane (3D) size of ``mesh_shape``.

    For a one-kernel scalar program this reduces exactly to the paper's
    ``k * D * m`` (2D) / ``k * D * m * n`` (3D) of eq. (7).
    """
    shape = tuple(mesh_shape) if mesh_shape is not None else program.mesh.shape
    return _line_points(shape) * program.module_line_bytes


def p_mem(device: FPGADevice, module_bytes: int) -> int:
    """Eq. (7): maximum unroll factor from the on-chip memory budget."""
    check_positive("module_bytes", module_bytes)
    return device.usable_on_chip_bytes() // module_bytes


def max_unroll(device: FPGADevice, V: int, gdsp: int, module_bytes: int) -> int:
    """The achievable iterative unroll factor: ``min(p_dsp, p_mem)``."""
    return min(p_dsp(device, V, gdsp), p_mem(device, module_bytes))


def uram_blocks_for_buffer(depth_elems: int, width_bits: int) -> int:
    """URAM blocks to realise a buffer, honouring the 72-bit native width.

    A buffer of ``width_bits`` needs ``ceil(width/72)`` URAM columns; each
    column holds ``288Kb / 72b = 4096`` elements of depth.
    """
    check_positive("depth_elems", depth_elems)
    check_positive("width_bits", width_bits)
    columns = ceil_div(width_bits, URAM_WIDTH_BITS)
    depth_per_block = URAM_BLOCK_BITS // URAM_WIDTH_BITS
    return columns * ceil_div(depth_elems, depth_per_block)


def bram_blocks_for_buffer(depth_elems: int, width_bits: int) -> int:
    """36Kb BRAM blocks to realise a buffer (72-bit max width per block)."""
    check_positive("depth_elems", depth_elems)
    check_positive("width_bits", width_bits)
    columns = ceil_div(width_bits, 72)
    depth_per_block = BRAM_BLOCK_BITS // 72
    return columns * ceil_div(depth_elems, depth_per_block)


@dataclass(frozen=True)
class ResourceReport:
    """Estimated device utilization of a design."""

    dsp_used: int
    dsp_total: int
    mem_used_bytes: int
    mem_total_bytes: int
    uram_blocks: int
    bram_blocks: int

    @property
    def dsp_utilization(self) -> float:
        """DSP utilization fraction."""
        return self.dsp_used / self.dsp_total

    @property
    def mem_utilization(self) -> float:
        """On-chip memory utilization fraction."""
        return self.mem_used_bytes / self.mem_total_bytes

    @property
    def binding_utilization(self) -> float:
        """The larger of the two utilizations: drives the clock estimate."""
        return max(self.dsp_utilization, self.mem_utilization)


def resource_report(
    program: StencilProgram,
    device: FPGADevice,
    V: int,
    p: int,
    mesh_shape: tuple[int, ...] | None = None,
) -> ResourceReport:
    """Utilization of a (V, p) design on ``device``.

    Window buffers are costed twice: raw bytes (for eq. (7)-style bounds)
    and quantized URAM blocks (wide vector elements waste URAM columns).
    """
    check_positive("V", V)
    check_positive("p", p)
    gdsp = gdsp_program(program)
    shape = tuple(mesh_shape) if mesh_shape is not None else program.mesh.shape
    line_points = _line_points(shape)
    # one line buffer per buffered row/plane, V elements wide
    uram = program.window_lines * uram_blocks_for_buffer(
        ceil_div(line_points, V), program.mesh.elem_bytes * 8 * V
    )
    return ResourceReport(
        dsp_used=V * p * gdsp,
        dsp_total=device.dsp_blocks,
        mem_used_bytes=p * module_mem_bytes(program, shape),
        mem_total_bytes=device.on_chip_bytes,
        uram_blocks=p * uram,
        bram_blocks=0,
    )
