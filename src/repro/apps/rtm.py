"""Reverse Time Migration (RTM) forward pass (paper Section V-C, Algorithm 1).

The iteration body is a classic RK4 step over a 6-component wave field
``Y`` with two scalar coefficient meshes ``rho`` and ``mu``::

    for i in range(niter):
        K1 = fpml(Y_25pt,  rho, mu) * dt;  T = Y + K1/2
        K2 = fpml(T_25pt,  rho, mu) * dt;  T = Y + K2/2
        K3 = fpml(T_25pt,  rho, mu) * dt;  T = Y + K3
        K4 = fpml(T_25pt,  rho, mu) * dt
        Y  = Y + K1/6 + K2/3 + K3/3 + K4/6

``fpml`` uses a 25-point 8th-order star stencil (radius 4 on each axis).
The paper fuses ``K1..K3`` with their ``T`` updates and ``K4`` with the
final ``Y`` update — four fused stencil loops brought into one pipeline,
with ``T``/``K`` as on-chip FIFO streams and ``rho``/``mu``/``Y`` delay-
buffered past each stage. External traffic per pass: one read+write of
``Y`` plus reads of ``rho`` and ``mu`` (56 B/cell).

Substitution note (documented in DESIGN.md): the production ``fpml`` is
proprietary NAG code. We implement a synthetic ``fpml`` with the same
structure — per component a full 3-axis 8th-order Laplacian scaled by
``mu``, with a ``rho`` damping term on the leading component — whose op mix
reproduces the paper's ``G_dsp = 2444`` exactly:

* ``Lap8``: 13 muls + 24 adds = 87 DSP
* components 1..5: ``mu * Lap8`` -> 90 DSP; component 0 adds ``+ rho*X_0``
  -> 95 DSP; ``fpml`` total 545 DSP
* the ``*dt`` scalings and the fused T/Y updates add 264 DSP over the four
  loops: 4*545 + 264 = 2444.

Design point (Section V-C): V=1 (keeps each fused module inside one SLR),
p=3 (one module per SLR), 261 MHz, HBM. The 6-float element struct limits
the mesh plane to 64^2 (URAM budget, eq. (7)) and sustains II ~ 1.6
(calibrated from Fig. 5 runtimes).
"""

from __future__ import annotations

from functools import lru_cache

from repro.apps.base import StencilApp
from repro.gpubaseline.traffic import RTM_TRAFFIC
from repro.mesh.mesh import Field, MeshSpec
from repro.stencil.builders import high_order_star_1d_terms
from repro.stencil.expr import Coef, Const, Expr, FieldAccess
from repro.stencil.kernel import KernelOutput, StencilKernel
from repro.stencil.program import FusedGroup, StencilLoop, StencilProgram
from repro.util.errors import ValidationError

#: Section V-C parameters
RTM_CLOCK_MHZ = 261.0
RTM_V = 1
RTM_P = 3
RTM_COMPONENTS = 6
RTM_RADIUS = 4
#: sustained initiation interval calibrated from Fig. 5 (see module docstring)
RTM_II = 1.6
#: largest supported mesh plane edge (paper: "limited to 64^2")
RTM_MAX_PLANE_EDGE = 64

_AXIS_PREFIX = ("lx", "ly", "lz")


def _lap8(field: str, component: int) -> tuple[Expr, dict[str, float]]:
    """Full 3-axis 8th-order Laplacian with one shared centre coefficient.

    13 multiplies (1 centre + 12 pair weights) and 24 adds, per component.
    """
    coeffs: dict[str, float] = {"l0": -8.541667e-3}  # 3 * (-205/72) * h^-2, h=10

    def acc(axis: int, r: int) -> Expr:
        off = [0, 0, 0]
        off[axis] = r
        return FieldAccess(field, tuple(off), component)

    expr: Expr = Coef("l0") * acc(0, 0)
    # standard 8th-order second-derivative pair weights (h=10 grid)
    pair_defaults = {1: 1.6e-2, 2: -2.0e-3, 3: 2.53968e-4, 4: -1.785714e-5}
    for axis in range(3):
        prefix = _AXIS_PREFIX[axis]
        for r in range(1, RTM_RADIUS + 1):
            cname = f"{prefix}{r}"
            coeffs[cname] = pair_defaults[r]
            expr = expr + Coef(cname) * (acc(axis, r) + acc(axis, -r))
    return expr, coeffs


def _fpml_exprs(field: str) -> tuple[tuple[Expr, ...], dict[str, float]]:
    """The synthetic fpml: ``mu * Lap8`` per component, rho damping on comp 0."""
    coeffs: dict[str, float] = {"rho_c": 1.0}
    exprs = []
    for c in range(RTM_COMPONENTS):
        lap, lap_coeffs = _lap8(field, c)
        coeffs.update(lap_coeffs)
        e: Expr = FieldAccess("mu", (0, 0, 0)) * lap
        if c == 0:
            e = e + FieldAccess("rho", (0, 0, 0)) * FieldAccess(field, (0, 0, 0), 0)
        exprs.append(e)
    return tuple(exprs), coeffs


def _scaled(exprs: tuple[Expr, ...], coef: str) -> tuple[Expr, ...]:
    return tuple(e * Coef(coef) for e in exprs)


def _combine(
    a: str, terms: list[tuple[str, float | None]]
) -> tuple[Expr, ...]:
    """Per-component ``a + sum(w * t)`` expressions (w=None means weight 1)."""
    out = []
    for c in range(RTM_COMPONENTS):
        e: Expr = FieldAccess(a, (0, 0, 0), c)
        for field, w in terms:
            t: Expr = FieldAccess(field, (0, 0, 0), c)
            if w is not None:
                t = Const(w) * t
            e = e + t
        out.append(e)
    return tuple(out)


def build_rtm_program(mesh_shape: tuple[int, int, int] = (64, 64, 32)) -> StencilProgram:
    """Algorithm 1 as four fused-loop kernels in one dataflow pipeline.

    Memoized per mesh shape: the program is frozen, and building it
    validates every kernel's expression trees, which costs milliseconds
    a call.
    """
    return _rtm_program(tuple(int(s) for s in mesh_shape))


@lru_cache(maxsize=64)
def _rtm_program(mesh_shape: tuple[int, ...]) -> StencilProgram:
    if mesh_shape[0] > RTM_MAX_PLANE_EDGE or mesh_shape[1] > RTM_MAX_PLANE_EDGE:
        raise ValidationError(
            f"RTM mesh plane {mesh_shape[0]}x{mesh_shape[1]} exceeds the "
            f"design limit of {RTM_MAX_PLANE_EDGE}^2 (paper Section V-C)"
        )
    dt = 1.0e-3
    coeffs: dict[str, float] = {"dt": dt}

    fpml_y, c1 = _fpml_exprs("Y")
    coeffs.update(c1)
    stage1 = StencilKernel(
        "rtm_stage1",
        (
            KernelOutput("K1", _scaled(fpml_y, "dt")),
            KernelOutput("T", _combine("Y", [("K1", 0.5)]), init_from="Y"),
        ),
        coeffs,
    )

    fpml_t, c2 = _fpml_exprs("T")
    coeffs2 = dict(coeffs)
    coeffs2.update(c2)
    stage2 = StencilKernel(
        "rtm_stage2",
        (
            KernelOutput("K2", _scaled(fpml_t, "dt")),
            KernelOutput("T", _combine("Y", [("K2", 0.5)]), init_from="Y"),
        ),
        coeffs2,
    )

    stage3 = StencilKernel(
        "rtm_stage3",
        (
            KernelOutput("K3", _scaled(fpml_t, "dt")),
            KernelOutput("T", _combine("Y", [("K3", None)]), init_from="Y"),
        ),
        coeffs2,
    )

    y_update = _combine(
        "Y",
        [("K1", 1.0 / 6.0), ("K2", 1.0 / 3.0), ("K3", 1.0 / 3.0), ("K4", 1.0 / 6.0)],
    )
    stage4 = StencilKernel(
        "rtm_stage4",
        (
            KernelOutput("K4", _scaled(fpml_t, "dt")),
            KernelOutput("Y", y_update, init_from="Y"),
        ),
        coeffs2,
    )

    group = FusedGroup(
        tuple(StencilLoop(k) for k in (stage1, stage2, stage3, stage4))
    )
    return StencilProgram(
        name="rtm_forward",
        mesh=MeshSpec(mesh_shape, components=RTM_COMPONENTS),
        groups=(group,),
        state_fields=("Y",),
        constant_fields=("rho", "mu"),
        description="RTM forward pass: RK4 over a 25-point 8th-order 3D stencil "
        "on 6-component vector elements (Algorithm 1)",
    )


def _make_fields(spec: MeshSpec, seed: int) -> dict[str, Field]:
    scalar = MeshSpec(spec.shape, 1, spec.dtype)
    return {
        "Y": Field.random("Y", spec, seed=seed, lo=-0.5, hi=0.5),
        "rho": Field.random("rho", scalar, seed=seed + 1, lo=0.9, hi=1.1),
        "mu": Field.random("mu", scalar, seed=seed + 2, lo=0.4, hi=0.6),
    }


def rtm_app(mesh_shape: tuple[int, int, int] = (64, 64, 32)) -> StencilApp:
    """The RTM forward-pass application preset."""
    return StencilApp(
        name="RTM-forward",
        program=build_rtm_program(mesh_shape),
        paper_clock_mhz=RTM_CLOCK_MHZ,
        V=RTM_V,
        p=RTM_P,
        memory="HBM",
        gpu_traffic=RTM_TRAFFIC,
        make_fields=_make_fields,
        initiation_interval=RTM_II,
        notes="V=1 keeps each fused module in one SLR; p=3 across the three SLRs. "
        "Mesh plane limited to 64^2 by URAM capacity.",
    )
