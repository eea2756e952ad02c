"""Window buffers: literal cyclic line/plane buffer emulation (paper Fig. 1).

The FPGA template caches ``D`` rows (2D) or ``D`` planes (3D) of the input
stream in BRAM/URAM cyclic buffers so every mesh point is read from external
memory exactly once ("perfect data reuse"). This module emulates that
mechanism line by line: :class:`LineBufferStream` holds the cyclic window,
and :func:`stream_iterate_2d` / :func:`stream_iterate_3d` run a whole kernel
through it.

The streaming path produces bit-identical float32 results to the vectorized
golden evaluator — the equivalence is asserted in the test suite — and it is
the reference for what the HLS code generator emits. The top-level simulator
uses the (much faster) vectorized path.
"""

from __future__ import annotations

from collections import deque
from typing import Iterator, Mapping

import numpy as np

from repro.mesh.mesh import Field, MeshSpec
from repro.stencil.expr import BinOp, Coef, Const, Expr, FieldAccess, Neg
from repro.stencil.kernel import StencilKernel
from repro.util.errors import SimulationError, ValidationError
from repro.util.validation import check_non_negative


class LineBufferStream:
    """A cyclic buffer over the last ``2r+1`` lines of a stream.

    Push lines (rows or planes) in streaming order; once the window is full,
    each push returns the centred window: a list of the ``2r+1`` most recent
    lines with index ``r`` holding the line the stencil output is centred on.
    """

    def __init__(self, radius: int):
        check_non_negative("radius", radius)
        self.radius = radius
        self._window: deque[np.ndarray] = deque(maxlen=2 * radius + 1)
        self.pushes = 0

    @property
    def depth(self) -> int:
        """Lines held by the buffer (the paper's ``D`` rows/planes plus one in flight)."""
        return 2 * self.radius + 1

    @property
    def full(self) -> bool:
        """True once enough lines are buffered to emit a window."""
        return len(self._window) == self.depth

    def push(self, line: np.ndarray) -> list[np.ndarray] | None:
        """Push one line; return the centred window when available."""
        self._window.append(line)
        self.pushes += 1
        if self.full:
            return list(self._window)
        return None

    def window(self) -> list[np.ndarray]:
        """The buffered lines, oldest first (centre at index ``radius`` when full)."""
        return list(self._window)

    def reset(self) -> None:
        """Clear the buffer for the next mesh/pass."""
        self._window.clear()
        self.pushes = 0


class _RowEvaluator:
    """Evaluates kernel expressions over one output row, given line windows.

    ``windows`` maps each field to its list of lines (length ``2*r_axis+1``
    along the slowest axis); a line is a row ``(m, c)`` for 2D meshes or a
    plane ``(n, m, c)`` for 3D meshes.
    """

    def __init__(
        self,
        windows: Mapping[str, list[np.ndarray]],
        coeffs: Mapping[str, float],
        radius: tuple[int, ...],
        dtype: np.dtype,
        row_within_plane: int | None = None,
    ):
        self.windows = windows
        self.coeffs = coeffs
        self.radius = radius
        self.dtype = dtype
        self.row_within_plane = row_within_plane

    def eval(self, expr: Expr) -> np.ndarray | np.floating:
        if isinstance(expr, Const):
            return self.dtype.type(expr.value)
        if isinstance(expr, Coef):
            return self.dtype.type(self.coeffs[expr.name])
        if isinstance(expr, Neg):
            return -self.eval(expr.operand)
        if isinstance(expr, BinOp):
            lhs, rhs = self.eval(expr.lhs), self.eval(expr.rhs)
            if expr.op == "+":
                return lhs + rhs
            if expr.op == "-":
                return lhs - rhs
            if expr.op == "*":
                return lhs * rhs
            return lhs / rhs
        if isinstance(expr, FieldAccess):
            return self._access(expr)
        raise SimulationError(f"unknown expression node {type(expr).__name__}")

    def _access(self, access: FieldAccess) -> np.ndarray:
        window = self.windows[access.field]
        ndim = len(access.offset)
        rx = self.radius[0]
        centre = (len(window) - 1) // 2
        if ndim == 2:
            dx, dy = access.offset
            row = window[centre + dy]
            m = row.shape[0]
            return row[rx + dx : m - rx + dx, access.component]
        dx, dy, dz = access.offset
        plane = window[centre + dz]
        ry = self.radius[1]
        y = self.row_within_plane
        m = plane.shape[1]
        return plane[y + dy, rx + dx : m - rx + dx, access.component]


def stream_iterate_2d(
    kernel: StencilKernel, fields: Mapping[str, Field]
) -> dict[str, Field]:
    """Run a 2D kernel through literal row-streaming window buffers.

    Functionally identical to :func:`repro.stencil.numpy_eval.apply_kernel`;
    exists to validate the hardware mechanism (and is what the generated HLS
    code does row by row).
    """
    spec = _common_spec(kernel, fields, 2)
    rx, ry = kernel.radius
    n, m = spec.shape[1], spec.shape[0]
    read_fields = kernel.read_fields()
    buffers = {f: LineBufferStream(ry) for f in read_fields}
    outputs: dict[str, np.ndarray] = {}
    for out in kernel.outputs:
        if out.init_from is not None:
            outputs[out.field] = fields[out.init_from].data.copy()
        else:
            outputs[out.field] = np.zeros(
                (n, m, out.components), dtype=spec.dtype
            )
    for y in range(n + ry):
        # push the next input row into every window buffer (streaming in)
        if y < n:
            for f in read_fields:
                buffers[f].push(fields[f].data[y])
        else:
            for f in read_fields:  # drain: re-push last row, windows centred below n
                buffers[f].push(fields[f].data[n - 1])
        out_y = y - ry
        if out_y < ry or out_y >= n - ry:
            continue
        windows = {f: buffers[f].window() for f in read_fields}
        local_env = dict(windows)
        evaluator = _RowEvaluator(local_env, kernel.coefficients, (rx, ry), spec.dtype)
        for out in kernel.outputs:
            row_vals = [evaluator.eval(expr) for expr in out.exprs]
            for comp, vals in enumerate(row_vals):
                outputs[out.field][out_y, rx : m - rx, comp] = vals
            # expose the fresh centre row to later outputs of this kernel
            local_env[out.field] = [outputs[out.field][out_y]] * (2 * ry + 1)
    result: dict[str, Field] = {}
    for out in kernel.outputs:
        out_spec = MeshSpec(spec.shape, out.components, spec.dtype)
        result[out.field] = Field(out.field, out_spec, outputs[out.field])
    return result


def stream_iterate_3d(
    kernel: StencilKernel, fields: Mapping[str, Field]
) -> dict[str, Field]:
    """Run a 3D kernel through literal plane-streaming window buffers."""
    spec = _common_spec(kernel, fields, 3)
    rx, ry, rz = kernel.radius
    m, n, l = spec.shape
    read_fields = kernel.read_fields()
    buffers = {f: LineBufferStream(rz) for f in read_fields}
    outputs: dict[str, np.ndarray] = {}
    for out in kernel.outputs:
        if out.init_from is not None:
            outputs[out.field] = fields[out.init_from].data.copy()
        else:
            outputs[out.field] = np.zeros((l, n, m, out.components), dtype=spec.dtype)
    for z in range(l + rz):
        if z < l:
            for f in read_fields:
                buffers[f].push(fields[f].data[z])
        else:
            for f in read_fields:
                buffers[f].push(fields[f].data[l - 1])
        out_z = z - rz
        if out_z < rz or out_z >= l - rz:
            continue
        windows = {f: buffers[f].window() for f in read_fields}
        for y in range(ry, n - ry):
            local_env = dict(windows)
            evaluator = _RowEvaluator(
                local_env, kernel.coefficients, (rx, ry, rz), spec.dtype, y
            )
            for out in kernel.outputs:
                row_vals = [evaluator.eval(expr) for expr in out.exprs]
                for comp, vals in enumerate(row_vals):
                    outputs[out.field][out_z, y, rx : m - rx, comp] = vals
                fresh = outputs[out.field][out_z]
                local_env[out.field] = [fresh] * (2 * rz + 1)
    result: dict[str, Field] = {}
    for out in kernel.outputs:
        out_spec = MeshSpec(spec.shape, out.components, spec.dtype)
        result[out.field] = Field(out.field, out_spec, outputs[out.field])
    return result


def _common_spec(kernel: StencilKernel, fields: Mapping[str, Field], ndim: int) -> MeshSpec:
    for f in kernel.read_fields():
        if f not in fields:
            raise ValidationError(f"kernel '{kernel.name}' needs field '{f}'")
    spec = fields[kernel.read_fields()[0]].spec
    if spec.ndim != ndim:
        raise ValidationError(
            f"kernel '{kernel.name}' expects {ndim}D fields, got {spec.ndim}D"
        )
    return spec
