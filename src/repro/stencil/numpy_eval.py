"""NumPy golden evaluator for stencil kernels and programs.

This is the reference ("golden") model every other execution path is checked
against: vectorized slicing over the interior, single-precision arithmetic,
boundary cells carried through unchanged (``init_from``) exactly as the
streaming datapath does.

Evaluation semantics
--------------------
* A kernel updates the mesh *interior* at its per-axis radius; the boundary
  ring of each output is pre-filled from ``init_from`` (or zero).
* All reads refer to the *input* state, except reads of fields produced by an
  earlier output of the same kernel, which refer to the fresh value (a
  datapath wire; centre-point access enforced by kernel validation).
* Within a fused group, loop ``i+1`` reads loop ``i``'s outputs (fresh).
* Arithmetic is performed in the mesh dtype (float32 in the paper).
"""

from __future__ import annotations

from typing import Mapping, MutableMapping

import numpy as np

from repro.mesh.mesh import Field, MeshSpec
from repro.stencil.expr import BinOp, Coef, Const, Expr, FieldAccess, Neg
from repro.stencil.kernel import StencilKernel
from repro.stencil.program import FusedGroup, StencilProgram
from repro.util.errors import SimulationError, ValidationError


def _shifted_view(
    arr: np.ndarray,
    offset: tuple[int, ...],
    radius: tuple[int, ...],
    component: int,
) -> np.ndarray:
    """Interior view of ``arr`` shifted by ``offset`` (paper axis order).

    Storage order is reversed paper order with a trailing component axis.
    """
    ndim = len(offset)
    slices = []
    # storage axes iterate over reversed paper axes
    for storage_axis in range(ndim):
        paper_axis = ndim - 1 - storage_axis
        r = radius[paper_axis]
        d = offset[paper_axis]
        extent = arr.shape[storage_axis]
        slices.append(slice(r + d, extent - r + d))
    slices.append(component)
    return arr[tuple(slices)]


class _ExprEvaluator:
    """Evaluates an expression tree over the mesh interior."""

    def __init__(
        self,
        arrays: Mapping[str, np.ndarray],
        coeffs: Mapping[str, float],
        radius: tuple[int, ...],
        dtype: np.dtype,
    ):
        self.arrays = arrays
        self.coeffs = coeffs
        self.radius = radius
        self.dtype = dtype

    def eval(self, expr: Expr) -> np.ndarray | np.floating:
        if isinstance(expr, Const):
            return self.dtype.type(expr.value)
        if isinstance(expr, Coef):
            try:
                return self.dtype.type(self.coeffs[expr.name])
            except KeyError:
                raise SimulationError(f"coefficient '{expr.name}' has no value") from None
        if isinstance(expr, FieldAccess):
            try:
                arr = self.arrays[expr.field]
            except KeyError:
                raise SimulationError(f"field '{expr.field}' is not bound") from None
            if expr.component >= arr.shape[-1]:
                raise SimulationError(
                    f"component {expr.component} out of range for field "
                    f"'{expr.field}' with {arr.shape[-1]} components"
                )
            return _shifted_view(arr, expr.offset, self.radius, expr.component)
        if isinstance(expr, Neg):
            return -self.eval(expr.operand)
        if isinstance(expr, BinOp):
            lhs = self.eval(expr.lhs)
            rhs = self.eval(expr.rhs)
            if expr.op == "+":
                return lhs + rhs
            if expr.op == "-":
                return lhs - rhs
            if expr.op == "*":
                return lhs * rhs
            return lhs / rhs
        raise SimulationError(f"unknown expression node {type(expr).__name__}")


def apply_kernel(
    kernel: StencilKernel,
    fields: Mapping[str, Field],
) -> dict[str, Field]:
    """Apply one kernel over the mesh interior; returns its output fields."""
    spec = None
    for fname in kernel.read_fields():
        if fname not in fields:
            raise ValidationError(f"kernel '{kernel.name}' needs field '{fname}'")
        if spec is None:
            spec = fields[fname].spec
    if spec is None:  # pragma: no cover - kernels always read something
        raise ValidationError(f"kernel '{kernel.name}' reads no fields")

    radius = kernel.radius
    if len(radius) != spec.ndim:
        raise ValidationError(
            f"radius {radius} does not match mesh rank {spec.ndim}"
        )

    arrays: MutableMapping[str, np.ndarray] = {
        name: f.data for name, f in fields.items()
    }
    interior = spec.interior_slices(radius)
    outputs: dict[str, Field] = {}
    evaluator = _ExprEvaluator(arrays, kernel.coefficients, radius, spec.dtype)

    for out in kernel.outputs:
        out_spec = MeshSpec(spec.shape, out.components, spec.dtype)
        if out.init_from is not None:
            src = fields.get(out.init_from)
            if src is None:
                raise ValidationError(
                    f"kernel '{kernel.name}': init_from field '{out.init_from}' missing"
                )
            if src.spec != out_spec:
                raise ValidationError(
                    f"kernel '{kernel.name}': init_from '{out.init_from}' spec "
                    f"{src.spec} does not match output spec {out_spec}"
                )
            data = src.data.copy()
        else:
            data = np.zeros(out_spec.storage_shape, dtype=out_spec.dtype)
        for comp, expr in enumerate(out.exprs):
            result = evaluator.eval(expr)
            data[interior + (comp,)] = result
        field = Field(out.field, out_spec, data)
        outputs[out.field] = field
        # later outputs of this kernel see the fresh value
        arrays[out.field] = data
    return outputs


def run_group(
    group: FusedGroup,
    fields: Mapping[str, Field],
) -> dict[str, Field]:
    """Run one fused group; returns the updated field environment."""
    env: dict[str, Field] = dict(fields)
    for loop in group.loops:
        outputs = apply_kernel(loop.kernel, env)
        env.update(outputs)
    return env


def run_program(
    program: StencilProgram,
    fields: Mapping[str, Field],
    niter: int,
    *,
    engine: str = "interpreter",
) -> dict[str, Field]:
    """Run the full iterative solve for ``niter`` time iterations.

    ``fields`` must bind every state and constant field; the returned
    environment contains the final state (plus last-iteration intermediates).

    ``engine`` selects the execution path: ``"interpreter"`` (default) walks
    the expression trees node by node — the golden reference every other
    path is checked against; any other engine name is handed to
    :func:`repro.stencil.compiled.run_program_compiled`, which replays a
    plan-compiled op tape through the shared
    :data:`repro.stencil.compiled.DEFAULT_CACHE`. Results are bit-identical
    (``np.array_equal``) on every engine.
    """
    if niter < 0:
        raise ValidationError(f"niter must be non-negative, got {niter}")
    for fname in program.external_reads():
        if fname not in fields:
            raise ValidationError(
                f"program '{program.name}' needs field '{fname}' bound"
            )
    if engine != "interpreter":
        from repro.stencil.compiled import check_engine, run_program_compiled

        check_engine(engine)
        return run_program_compiled(program, fields, niter, engine=engine)
    env: dict[str, Field] = dict(fields)
    for _ in range(niter):
        for group in program.groups:
            env = run_group(group, env)
    return env
