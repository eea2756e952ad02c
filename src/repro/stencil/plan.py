"""Plan compilation: lowering a stencil program to a flat in-place op tape.

The tree-walking golden evaluator (:mod:`repro.stencil.numpy_eval`)
re-interprets every expression node on every iteration, allocating a fresh
NumPy temporary per arithmetic op and re-copying whole output arrays per
kernel. This module lowers a :class:`~repro.stencil.program.StencilProgram`
*once* into a :class:`ProgramPlan`: a topologically-ordered tape of in-place
ufunc ops over precomputed interior views, with

* **folded constants** — any scalar subtree (constants and bound
  coefficients) is evaluated at compile time in the mesh dtype, reproducing
  the interpreter's scalar arithmetic bit for bit;
* **liveness-based register reuse** — intermediate results live in a small
  pool of preallocated scratch arrays, released the moment their last
  consumer has executed (the tape is sequential, so last-use is the emitting
  op itself);
* **component merging** — consecutive output components whose expressions
  are structurally identical modulo the component index (the RTM pattern:
  five of the six RK4 components share one datapath) collapse into a single
  sliced op over the component axis, cutting tape length and restoring
  contiguous inner loops;
* **ping-pong buffer rotation** — every produced field owns two storage
  buffers; each write alternates between them, so a kernel never reads the
  array it is writing and the steady-state loop allocates **no arrays at
  all**;
* **boundary slab ops** — instead of re-zeroing/copying whole output arrays
  per kernel application, the plan writes only the boundary ring (the
  interior is fully overwritten by the expression tape);
* **flat-mode lowering** — component runs whose operands all live in the
  run's own lane space (the component axis folded into the linearization)
  evaluate on contiguous 1-D windows of the flattened arrays; fixed
  -component reads of input fields are pre-expanded into broadcast buffers
  at load time (``ProgramPlan.expansions``), which is what lets RTM's
  merged multi-component ops leave their strided interior views (see
  :meth:`_Lowerer._flat_run`).

Because the first iteration reads the caller's input buffers while steady
state reads the rotation buffers, a plan carries a short sequence of
*warm-up* tapes (which also write every output's boundary ring) followed by
two *steady* tapes for the remaining odd/even iterations. Buffer rotation
is periodic with period two, so the steady pair repeats indefinitely; the
lowering asserts this invariant. The steady tapes normally carry no
boundary ops at all. Every ring is a pure copy chain that ends at zeros, a
constant field or an initial input boundary, and every write of a field
lands in one of its two rotation buffers — with RK-style programs (RTM's
``T``, written three times an iteration) alternating producers over the
pair. A symbolic fixpoint over the ring value id each rotation buffer
holds (:func:`_boundary_settle`) finds the last iteration that changes any
ring; the warm-up tapes cover every iteration up to it, so every ring op a
steady tape would replay rewrites the value its buffer already holds, and
the steady pair drops them all. It keeps them instead (``ProgramPlan.settle``
is then ``None``, with the reason in ``settle_refused``) when producers of
one rotation pair differ in radius (a narrower producer's interior write
clobbers a wider ring), when an ``init_from`` ring is wider than its
source's (it overlaps the source's recomputed interior), or when some
ring never stops changing.

Bit-identity contract: executing a plan produces results that are
``np.array_equal`` to the golden interpreter for every program, mesh and
coefficient binding — the same arithmetic DAG is evaluated per mesh point,
only the scheduling (in-place outputs, merged components, folded scalars)
differs, and none of those transformations change IEEE-754 results.
:mod:`repro.stencil.compiled` binds a plan to concrete buffers and runs it.
"""

from __future__ import annotations

import itertools
import threading
import weakref
from dataclasses import dataclass, field as dc_field
from typing import Mapping

import numpy as np

from repro.mesh.mesh import MeshSpec
from repro.stencil.expr import BinOp, Coef, Const, Expr, FieldAccess, Neg, walk
from repro.stencil.kernel import StencilKernel
from repro.stencil.program import StencilProgram
from repro.util.errors import SimulationError, ValidationError

#: Tape op names understood by the executor.
OPS = ("add", "sub", "mul", "div", "neg", "copy", "fill")

_BINOP_NAMES = {"+": "add", "-": "sub", "*": "mul", "/": "div"}


# --------------------------------------------------------------------------- #
# tape argument references
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class View:
    """A precomputable view into a named buffer slot.

    ``index`` is a storage-order tuple of slices plus a trailing component
    selector (an ``int`` for a single component — dropping the axis, as the
    interpreter's shifted views do — or a ``slice`` for merged runs).
    """

    slot: str
    index: tuple


@dataclass(frozen=True)
class Reg:
    """A scratch register: one preallocated array of ``shape`` per ``idx``.

    ``span`` marks flat-mode lane-window registers: it is the number of
    lanes one mesh contributes (``N`` of the run's :class:`_FlatLayout`),
    and ``0`` for canonical interior-shaped registers. A batch-major
    executor extends a spanned register to cover the whole stack —
    ``shape[0] + (B-1)*span`` lanes — so flat ops stay a single contiguous
    1-D ufunc call across all ``B`` meshes (lanes straddling a mesh seam
    compute discarded ghost values, exactly like the row-wrap lanes within
    one mesh).
    """

    shape: tuple[int, ...]
    idx: int
    span: int = 0


@dataclass(frozen=True)
class FlatView:
    """A contiguous 1-D window over a buffer's flattened storage.

    Used by *flat-mode* kernels (see :meth:`_Lowerer._flat_layout`): a shift
    by ``(dx, dy[, dz])`` on C-ordered scalar storage is a constant linear
    offset, so every stencil operand becomes one contiguous slice of the
    flattened array. Lanes whose neighbours wrap across a row edge compute
    discarded ghost values; only interior lanes reach an output buffer.

    ``index`` is the matching interior-mode index, kept so the root op of an
    expression (which must write the strided interior view) can fall back to
    the canonical layout for its operands.
    """

    slot: str
    start: int
    stop: int
    index: tuple


@dataclass(frozen=True)
class RegWindow:
    """A strided interior-shaped window over a flat 1-D register.

    Selects, from a flat-mode register holding lanes ``[R, N-R)``, the lanes
    corresponding to interior mesh positions — the bridge between the flat
    compute window and the canonical strided output layout. ``offset`` and
    ``strides`` are in elements.
    """

    reg: Reg
    offset: int
    shape: tuple[int, ...]
    strides: tuple[int, ...]


@dataclass(frozen=True)
class TapeOp:
    """One in-place operation of the tape.

    ``args`` are :class:`View`/:class:`Reg` references or NumPy scalars
    (folded constants); ``dest`` is where the result lands. ``fill`` takes a
    single scalar arg; ``copy`` a single view/reg arg. ``flat`` marks
    flat-mode arithmetic whose ghost lanes may hit overflow/invalid values
    the interpreter never touches; the executor runs such ops with those
    FP warnings suppressed (interior results are unaffected).
    """

    op: str
    args: tuple
    dest: object  # View | Reg
    flat: bool = False

    def __post_init__(self):
        if self.op not in OPS:
            raise ValidationError(f"unknown tape op {self.op!r}")


@dataclass(frozen=True)
class ProgramPlan:
    """A fully lowered program: buffers, registers and the three tapes."""

    #: canonical mesh the plan was lowered against
    mesh: MeshSpec
    #: buffer slot -> storage shape ("in:<f>" inputs, "st:<f>:<dims>:<k>"
    #: rotations — the storage shape is in the name so a field re-produced
    #: with a different component count gets its own rotation pair)
    buffers: Mapping[str, tuple[int, ...]]
    #: scratch-register (shape, flat-lane span) -> pool size
    registers: Mapping[tuple, int]
    #: warm-up tapes for iterations 0..settle (boundary ops included);
    #: iteration 0 reads the external input buffers
    warm: tuple[tuple[TapeOp, ...], ...]
    #: steady tapes for the two parities of iterations >= len(warm);
    #: ``steady[(i - len(warm)) % 2]`` executes iteration ``i``
    steady: tuple[tuple[TapeOp, ...], tuple[TapeOp, ...]]
    #: field -> slot holding its latest value after iteration 0 / odd / even
    env_after_prologue: Mapping[str, str]
    env_after_odd: Mapping[str, str]
    env_after_even: Mapping[str, str]
    #: mesh spec of every produced field
    produced_specs: Mapping[str, MeshSpec]
    #: fields that must be bound by the caller (reads and init_from sources
    #: not satisfied by an earlier output — a superset check of the
    #: program's declared external contract)
    inputs: tuple[str, ...]
    #: expanded-broadcast buffers: "inx:" slot -> (input field, component).
    #: Each holds one fixed component of an input field splatted across the
    #: consuming run's component axis, filled at load time so flat-mode
    #: merged runs see every operand at the same element stride.
    expansions: Mapping[str, tuple[str, int]] = dc_field(default_factory=dict)
    #: last iteration that changes a boundary ring; None when the steady
    #: tapes keep their ring ops, for the reason in ``settle_refused``
    #: (``"radius"``, ``"wide_ring"`` or ``"unsettled"``)
    settle: int | None = None
    settle_refused: str | None = None

    @property
    def nbytes(self) -> int:
        """Resident bytes a single-mesh executor binds for this plan.

        Buffers plus scratch registers in the plan dtype (splatted constant
        arrays, which depend on bind-time folding, are excluded — they are
        a small fraction). Batch-major executors scale roughly linearly in
        ``B``, which is what the stacked-dispatch footprint heuristic needs.
        """
        elems = sum(int(np.prod(shape)) for shape in self.buffers.values())
        elems += sum(
            count * int(np.prod(shape))
            for (shape, _span), count in self.registers.items()
        )
        return elems * self.mesh.dtype.itemsize

    @property
    def num_ops(self) -> int:
        """Tape length of one steady-state iteration pair."""
        return len(self.steady[0]) + len(self.steady[1])

    @property
    def steady_odd(self) -> tuple[TapeOp, ...]:
        """The steady tape executing odd iterations."""
        return self.steady[(1 - len(self.warm)) % 2]

    def tape_for(self, iteration: int) -> tuple[TapeOp, ...]:
        """The tape executing the given 0-based iteration."""
        if iteration < len(self.warm):
            return self.warm[iteration]
        return self.steady[(iteration - len(self.warm)) % 2]

    def final_env(self, niter: int) -> Mapping[str, str]:
        """Slots holding each produced field after ``niter`` iterations."""
        if niter <= 0:
            return {}
        if niter == 1:
            return self.env_after_prologue
        return self.env_after_odd if niter % 2 == 0 else self.env_after_even


# --------------------------------------------------------------------------- #
# view construction (mirrors numpy_eval._shifted_view / interior_slices)
# --------------------------------------------------------------------------- #
def _shifted_index(
    offset: tuple[int, ...],
    radius: tuple[int, ...],
    shape: tuple[int, ...],
    component,
) -> tuple:
    """Storage-order index of the interior shifted by ``offset`` (paper order)."""
    ndim = len(offset)
    slices = []
    for storage_axis in range(ndim):
        paper_axis = ndim - 1 - storage_axis
        r = radius[paper_axis]
        d = offset[paper_axis]
        extent = shape[paper_axis]
        slices.append(slice(r + d, extent - r + d))
    return tuple(slices) + (component,)


def _index_shape(index: tuple, storage_shape: tuple[int, ...]) -> tuple[int, ...]:
    """Array shape selected by a :class:`View` index on ``storage_shape``."""
    shape = []
    for sl, extent in zip(index, storage_shape):
        if isinstance(sl, slice):
            start, stop, _ = sl.indices(extent)
            shape.append(max(0, stop - start))
    return tuple(shape)


def _boundary_settle(program: StencilProgram) -> tuple[int | None, str | None]:
    """The last iteration that changes a boundary ring, or why none is last.

    Returns ``(settle, None)`` when every ring write after iteration
    ``settle`` rewrites the value its buffer already holds, else
    ``(None, reason)``; callers must then keep boundary ops in every tape.

    Output boundaries are pure copy chains: zeros (``init_from=None``), a
    never-produced caller field, or another output's boundary from an
    earlier kernel this iteration / the previous iteration (``init_from``
    resolves at *kernel entry*, exactly as :meth:`_Lowerer._lower_kernel`
    and the interpreter do — an earlier output of the same kernel does not
    count). Each write of a field lands in one of its two rotation buffers
    — the ``j``-th of ``count`` writes in iteration ``k`` in buffer
    ``(k * count + j) % 2`` — so the fixpoint tracks a symbolic ring
    *value id* per buffer and runs until the whole state (buffer values,
    field values, rotation parity) repeats. E.g. 1 for a self ping-pong
    or for RTM's ``T`` (three writes an iteration, each from ``Y``'s ring),
    but ``d+1`` for a depth-``d`` chain of ``init_from`` sources produced by
    *later* kernels, whose initial input boundaries drain one iteration at
    a time. The reasons for ``None``:

    * ``"radius"`` — producers of one rotation pair differ in radius on
      some axis: a narrower producer's interior write clobbers part of a
      wider producer's ring, so a buffer's ring is not a pure copy;
    * ``"wide_ring"`` — an ``init_from`` ring wider than its source
      kernel's radius on some axis overlaps the source's recomputed
      interior, which never settles;
    * ``"unsettled"`` — the state repeats while some write still changes
      a ring: e.g. producers with different rings alternating over one
      rotation pair.
    """
    radii: dict[tuple[str, int], tuple[int, ...]] = {}
    kernels: list[list[tuple[tuple[str, int], str | None, tuple[int, ...]]]] = []
    for group in program.groups:
        for kernel in group.kernels:
            radius = tuple(kernel.radius)
            outs = []
            for out in kernel.outputs:
                pair = (out.field, out.components)
                if radii.setdefault(pair, radius) != radius:
                    return None, "radius"
                outs.append((pair, out.init_from, radius))
            kernels.append(outs)
    for outs in kernels:
        for (_, components), src, radius in outs:
            src_radius = radii.get((src, components))
            if src_radius is not None and any(
                ro > rs for ro, rs in zip(radius, src_radius)
            ):
                return None, "wide_ring"
    writes = dict.fromkeys(radii, 0)
    #: (rotation pair, parity) -> value id of the ring that buffer holds
    held: dict[tuple, tuple] = {}
    #: field -> value id of its latest ring (absent: the caller's binding)
    env: dict[str, tuple] = {}
    seen: dict[tuple, int] = {}
    last_change = 0
    for k in itertools.count():
        state = (tuple(sorted(held.items())), tuple(sorted(env.items())), k % 2)
        if state in seen:
            if last_change >= seen[state]:
                return None, "unsettled"
            return last_change, None
        seen[state] = k
        for outs in kernels:
            entry = dict(env)  # init_from resolves at kernel entry
            for pair, src, _ in outs:
                vid = ("zero",) if src is None else entry.get(src, ("input", src))
                buffer = (pair, writes[pair] % 2)
                writes[pair] += 1
                if held.get(buffer) != vid:
                    held[buffer] = vid
                    last_change = k
                env[pair[0]] = vid


def _boundary_settle_iteration(program: StencilProgram) -> int | None:
    """The settle iteration of :func:`_boundary_settle` (None: refused)."""
    return _boundary_settle(program)[0]


def _args_equal(a: tuple, b: tuple) -> bool:
    """Tape-op argument equality with NumPy scalars compared bit for bit.

    Folded constants are NumPy scalars; ``==`` on them follows IEEE-754
    (``nan != nan``), which would make the periodicity check reject valid
    plans containing NaN constants. Bit-pattern comparison is the identity
    that matters for replaying a tape.
    """
    if len(a) != len(b):
        return False
    for x, y in zip(a, b):
        if isinstance(x, np.generic) or isinstance(y, np.generic):
            if type(x) is not type(y) or x.tobytes() != y.tobytes():
                return False
        elif x != y:
            return False
    return True


def _tapes_equal(t1: tuple[TapeOp, ...], t2: tuple[TapeOp, ...]) -> bool:
    """Structural tape equality (NaN-safe on folded scalar arguments)."""
    if len(t1) != len(t2):
        return False
    return all(
        a.op == b.op
        and a.dest == b.dest
        and a.flat == b.flat
        and _args_equal(a.args, b.args)
        for a, b in zip(t1, t2)
    )


def _boundary_slabs(
    storage_shape: tuple[int, ...], interior: tuple[slice, ...]
) -> list[tuple]:
    """Disjoint slabs covering the complement of the interior box.

    Onion-peel decomposition: slab ``i`` restricts axes ``< i`` to the
    interior, takes the low/high boundary band on axis ``i`` and leaves the
    remaining axes (and the component axis) full.
    """
    slabs: list[tuple] = []
    ndim = len(interior)
    for axis in range(ndim):
        lo = interior[axis].start
        hi = interior[axis].stop
        prefix = tuple(interior[j] for j in range(axis))
        suffix = tuple(slice(None) for _ in range(ndim - axis - 1)) + (slice(None),)
        if lo > 0:
            slabs.append(prefix + (slice(0, lo),) + suffix)
        if hi < storage_shape[axis]:
            slabs.append(prefix + (slice(hi, storage_shape[axis]),) + suffix)
    return slabs


# --------------------------------------------------------------------------- #
# flat-mode layout
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class _FlatLayout:
    """Linearized geometry of a flat-mode component run on a given mesh.

    With the component axis folded into the linearization, a shift by paper
    offset ``(dx, dy[, dz])`` on C-ordered ``C``-component storage is the
    linear delta ``C*(dx + dy*m + dz*m*n)``; ``R`` is the radius-weighted
    bound on any such delta, so every operand of the run fits in the lane
    window ``[R, N-R)`` and the first interior point's component-0 lane is
    exactly ``R``.
    """

    #: element stride of each paper axis (component axis folded in)
    axis_strides: tuple[int, ...]
    #: components per mesh element of the run's lane space
    components: int
    #: lane-window margin (max absolute linear delta)
    R: int
    #: total lanes (mesh points x components)
    N: int
    #: compute-window length ``N - 2R``
    window: int
    #: spatial interior shape/strides in storage order, for the
    #: flat->strided bridge (strides in elements, component axis folded in)
    interior_shape: tuple[int, ...]
    interior_strides: tuple[int, ...]

    def delta(self, offset: tuple[int, ...]) -> int:
        return sum(d * s for d, s in zip(offset, self.axis_strides))


def _flat_layout(
    mesh: MeshSpec, radius: tuple[int, ...], components: int = 1
) -> _FlatLayout:
    shape = mesh.shape  # paper order (m, n[, l])
    strides = []
    acc = components  # paper axis 0 steps over `components` elements
    for extent in shape:
        strides.append(acc)
        acc *= extent
    N = acc
    R = sum(r * s for r, s in zip(radius, strides))
    interior_shape = tuple(
        extent - 2 * r for extent, r in zip(reversed(shape), reversed(radius))
    )
    interior_strides = tuple(reversed(strides))
    return _FlatLayout(
        axis_strides=tuple(strides),
        components=components,
        R=R,
        N=N,
        window=N - 2 * R,
        interior_shape=interior_shape,
        interior_strides=interior_strides,
    )


# --------------------------------------------------------------------------- #
# component-merge templates
# --------------------------------------------------------------------------- #
def _merge_template(e1: Expr, c1: int, e2: Expr, c2: int, dtype, classes: list) -> bool:
    """Whether components ``c1`` and ``c2`` perform identical arithmetic.

    Walks both trees in lockstep (left to right, the evaluation order).
    Mergeable means structurally identical with every field access either
    *varying* (component equals the output component on both sides) or
    *fixed* (same component on both sides — a broadcast operand). The
    per-access classification is appended to ``classes`` in visit order;
    ``c1 != c2`` makes the two cases mutually exclusive. Scalars compare by
    exact bit pattern (``-0.0 != 0.0`` here: the sign of zero is observable
    through multiplication).
    """
    if type(e1) is not type(e2):
        return False
    if isinstance(e1, Const):
        return dtype.type(e1.value).tobytes() == dtype.type(e2.value).tobytes()
    if isinstance(e1, Coef):
        return e1.name == e2.name
    if isinstance(e1, FieldAccess):
        if e1.field != e2.field or e1.offset != e2.offset:
            return False
        if e1.component == c1 and e2.component == c2:
            classes.append("vary")
            return True
        if e1.component == e2.component:
            classes.append(e1.component)
            return True
        return False
    if isinstance(e1, Neg):
        return _merge_template(e1.operand, c1, e2.operand, c2, dtype, classes)
    if isinstance(e1, BinOp):
        return (
            e1.op == e2.op
            and _merge_template(e1.lhs, c1, e2.lhs, c2, dtype, classes)
            and _merge_template(e1.rhs, c1, e2.rhs, c2, dtype, classes)
        )
    raise SimulationError(f"unknown expression node {type(e1).__name__}")


# --------------------------------------------------------------------------- #
# lowering
# --------------------------------------------------------------------------- #
class _RegisterPool:
    """Shape-keyed scratch pool with free-list reuse (liveness = tape order).

    Pools are keyed by ``(shape, span)``: flat lane-window registers (which
    a batch-major executor sizes differently) never share storage with a
    same-shaped canonical register.
    """

    def __init__(self):
        self.high_water: dict[tuple, int] = {}
        self._free: dict[tuple, list[int]] = {}

    def alloc(self, shape: tuple[int, ...], span: int = 0) -> Reg:
        key = (shape, span)
        free = self._free.setdefault(key, [])
        if free:
            return Reg(shape, free.pop(), span)
        idx = self.high_water.get(key, 0)
        self.high_water[key] = idx + 1
        return Reg(shape, idx, span)

    def release(self, ref) -> None:
        if isinstance(ref, Reg):
            self._free[(ref.shape, ref.span)].append(ref.idx)

    def reset(self) -> None:
        """Restore every free list to canonical order (lowest index first).

        Registers never carry values across iterations, but the free-list
        order after an iteration depends on its release history; resetting
        at each iteration boundary makes register assignment a pure function
        of tape structure, which the steady-tape periodicity check requires.
        """
        for key, count in self.high_water.items():
            self._free[key] = list(range(count - 1, -1, -1))


class _Lowerer:
    """Lowers one program against a concrete mesh and coefficient binding."""

    def __init__(
        self,
        program: StencilProgram,
        mesh: MeshSpec,
        input_specs: Mapping[str, MeshSpec],
        coefficients: Mapping[str, float] | None,
    ):
        self.program = program
        self.mesh = mesh
        self.dtype = mesh.dtype
        self.overrides = dict(coefficients or {})
        self.buffers: dict[str, tuple[int, ...]] = {}
        #: "inx:" slot -> (input field, fixed component) broadcast expansions
        self.expansions: dict[str, tuple[str, int]] = {}
        self.registers = _RegisterPool()
        self.produced_specs: dict[str, MeshSpec] = {}
        #: per-(field, storage shape) write counter driving ping-pong rotation
        self._rot: dict[tuple[str, tuple[int, ...]], int] = {}
        #: field -> slot currently holding its latest value
        self.env: dict[str, str] = {}
        #: field -> spec of the value currently bound (inputs and outputs)
        self.specs: dict[str, MeshSpec] = {}
        self.inputs = program.required_inputs
        for name in self.inputs:
            spec = input_specs[name]
            slot = f"in:{name}"
            self.buffers[slot] = spec.storage_shape
            self.env[name] = slot
            self.specs[name] = spec

    # -- plan entry ---------------------------------------------------------
    def lower(self) -> ProgramPlan:
        # boundary rings settle once the longest init_from chain has
        # drained; warm-up tapes (boundary ops included) must cover every
        # iteration through that point so both rotation buffers hold final
        # rings before the steady pair takes over. settle=None keeps
        # boundary ops in the steady tapes too.
        settle, refused = _boundary_settle(self.program)
        warm_count = max(2, (settle if settle is not None else 1) + 1)
        steady_boundary = settle is None
        envs: list[dict[str, str]] = []
        warm: list[tuple[TapeOp, ...]] = []
        for _ in range(warm_count):
            warm.append(tuple(self._lower_iteration()))
            envs.append(dict(self.env))
        steady_a = tuple(self._lower_iteration(emit_boundary=steady_boundary))
        envs.append(dict(self.env))
        steady_b = tuple(self._lower_iteration(emit_boundary=steady_boundary))
        envs.append(dict(self.env))
        # rotation is periodic with period two: two iterations further on,
        # the tape and environment must repeat or the steady pair is invalid
        check = tuple(self._lower_iteration(emit_boundary=steady_boundary))
        env_check = dict(self.env)
        if not _tapes_equal(check, steady_a) or env_check != envs[-2]:  # pragma: no cover
            raise SimulationError("buffer rotation is not periodic; plan is invalid")
        # env after any iteration >= 1 depends only on parity; warm_count >= 2
        # guarantees envs[1]/envs[2] exist (iterations 1 and 2)
        env_odd = envs[1]
        env_even = envs[2]
        produced = {f: s for f, s in envs[0].items() if s.startswith("st:")}
        return ProgramPlan(
            mesh=self.mesh,
            buffers=dict(self.buffers),
            registers=dict(self.registers.high_water),
            warm=tuple(warm),
            steady=(steady_a, steady_b),
            env_after_prologue={f: envs[0][f] for f in produced},
            env_after_odd={f: env_odd[f] for f in produced},
            env_after_even={f: env_even[f] for f in produced},
            produced_specs=dict(self.produced_specs),
            inputs=self.inputs,
            expansions=dict(self.expansions),
            settle=settle,
            settle_refused=refused,
        )

    def _lower_iteration(self, emit_boundary: bool = True) -> list[TapeOp]:
        self.registers.reset()
        tape: list[TapeOp] = []
        for group in self.program.groups:
            for loop in group.loops:
                self._lower_kernel(loop.kernel, tape, emit_boundary)
        return tape

    # -- kernel lowering ----------------------------------------------------
    def _lower_kernel(
        self, kernel: StencilKernel, tape: list[TapeOp], emit_boundary: bool
    ) -> None:
        for fname in kernel.read_fields():
            if fname not in self.env:
                raise ValidationError(f"kernel '{kernel.name}' needs field '{fname}'")
        radius = kernel.radius
        if len(radius) != self.mesh.ndim:
            raise ValidationError(
                f"radius {radius} does not match mesh rank {self.mesh.ndim}"
            )
        interior = self.mesh.interior_slices(radius)
        coeffs = dict(kernel.coefficients)
        coeffs.update(self.overrides)
        # init_from resolves against the environment at kernel entry, while
        # expression reads see earlier outputs fresh — exactly apply_kernel
        start_env = dict(self.env)
        for out in kernel.outputs:
            out_spec = MeshSpec(self.mesh.shape, out.components, self.dtype)
            dest = self._alloc_output_slot(out.field, out_spec)
            if emit_boundary:
                self._lower_boundary(out, out_spec, dest, interior, start_env, tape)
            self._lower_components(out, dest, interior, radius, coeffs, tape)
            self.env[out.field] = dest
            self.specs[out.field] = out_spec
            self.produced_specs[out.field] = out_spec

    def _classify(self, access: FieldAccess, comp: int, components: int):
        """Unmerged-run analogue of the merge-template classification.

        ``"vary"`` when the access component tracks the output component
        over a field in the run's lane space (same component count); the
        fixed component index otherwise — exactly what a width-1 template
        walk would have produced.
        """
        spec = self.specs.get(access.field)
        if (
            spec is not None
            and spec.components == components
            and access.component == comp
        ):
            return "vary"
        return access.component

    def _flat_run(
        self,
        out,
        expr: Expr,
        comp: int,
        comp_sel,
        classes: list | None,
        radius: tuple[int, ...],
    ) -> _FlatLayout | None:
        """The flat layout for one component run, or ``None`` for interior mode.

        Flat mode evaluates every inner op on contiguous 1-D lane windows of
        the full arrays, the component axis folded into the linearization
        (edge lanes compute discarded ghost values from wrapped neighbours;
        lanes outside the run's component band compute ghost components);
        only the root op touches the strided interior. Requirements:

        * every *varying* access reads a field in the run's own lane space —
          same component count as the output, on the mesh shape — so a shift
          is one constant linear delta for every lane;
        * every *fixed-component* access reads a pure **input** field (an
          ``in:`` slot) on the mesh shape, which the executor pre-expands at
          load time into an ``inx:`` broadcast buffer with the run's element
          stride (produced fields would need re-expansion every iteration);
        * no division, whose ghost lanes could raise spurious divide
          warnings — ghost-lane add/sub/mul overflow/invalid warnings are
          suppressed via the ``flat=True`` op marking;
        * the run covers at least half the output's components — narrower
          runs would burn more ghost-component lanes than the contiguous
          inner loop wins back.

        Ghost values never reach a buffer: outputs are written through
        strided interior views only.
        """
        components = out.components
        width = 1 if isinstance(comp_sel, int) else comp_sel.stop - comp_sel.start
        if 2 * width < components:
            return None
        cls_iter = iter(classes) if classes is not None else None
        for node in walk(expr):
            if isinstance(node, BinOp) and node.op == "/":
                return None
            if not isinstance(node, FieldAccess):
                continue
            spec = self.specs.get(node.field)
            if spec is None or spec.shape != self.mesh.shape:
                return None
            cls = (
                next(cls_iter)
                if cls_iter is not None
                else self._classify(node, comp, components)
            )
            if cls == "vary":
                if spec.components != components:
                    return None
            else:
                slot = self.env.get(node.field)
                if slot is None or not slot.startswith("in:"):
                    return None
                if cls >= spec.components:
                    return None
        layout = _flat_layout(self.mesh, radius, components)
        if layout.window < 1:
            return None
        return layout

    def _alloc_output_slot(self, field: str, spec: MeshSpec) -> str:
        shape = spec.storage_shape
        key = (field, shape)
        k = self._rot.get(key, 0)
        self._rot[key] = k + 1
        # the shape is part of the slot name: a field re-produced with a
        # different component count within one program must not overwrite
        # (or alias) the other shape's rotation buffers
        dims = "x".join(map(str, shape))
        slot = f"st:{field}:{dims}:{k % 2}"
        self.buffers[slot] = shape
        return slot

    def _lower_boundary(
        self,
        out,
        out_spec: MeshSpec,
        dest: str,
        interior: tuple[slice, ...],
        start_env: Mapping[str, str],
        tape: list[TapeOp],
    ) -> None:
        """Pre-fill the boundary ring: zero, or carried from ``init_from``.

        The interpreter copies/zeroes the whole output array and then
        overwrites the interior; writing only the complement of the interior
        produces the same array without touching interior cells twice.
        """
        slabs = _boundary_slabs(out_spec.storage_shape, interior)
        if out.init_from is None:
            zero = self.dtype.type(0.0)
            for slab in slabs:
                tape.append(TapeOp("fill", (zero,), View(dest, slab)))
            return
        src = start_env.get(out.init_from)
        if src is None:
            raise ValidationError(
                f"kernel: init_from field '{out.init_from}' missing"
            )
        src_spec = self.specs[out.init_from]
        if src_spec != out_spec:
            raise ValidationError(
                f"init_from '{out.init_from}' spec {src_spec} does not match "
                f"output spec {out_spec}"
            )
        for slab in slabs:
            tape.append(TapeOp("copy", (View(src, slab),), View(dest, slab)))

    # -- component lowering (with merging) ----------------------------------
    def _lower_components(
        self,
        out,
        dest: str,
        interior: tuple[slice, ...],
        radius: tuple[int, ...],
        coeffs: Mapping[str, float],
        tape: list[TapeOp],
    ) -> None:
        exprs = out.exprs
        comp = 0
        while comp < len(exprs):
            end = comp + 1
            template: list | None = None
            while end < len(exprs):
                candidate: list = []
                if not _merge_template(
                    exprs[comp], comp, exprs[end], end, self.dtype, candidate
                ):
                    break
                if template is not None and candidate != template:
                    break
                template = candidate
                end += 1
            if end == comp + 1:
                comp_sel: object = comp
            else:
                comp_sel = slice(comp, end)
            dest_view = View(dest, interior + (comp_sel,))
            layout = self._flat_run(out, exprs[comp], comp, comp_sel, template, radius)
            if layout is not None:
                self._lower_flat_root(
                    exprs[comp], layout, dest_view, comp, comp_sel, radius,
                    coeffs, tape, template,
                )
            else:
                self._lower_expr_root(
                    exprs[comp], comp, comp_sel, dest_view, radius, coeffs,
                    tape, iter(template) if template is not None else None,
                )
            comp = end

    # -- flat-mode lowering --------------------------------------------------
    def _lower_flat_root(
        self,
        expr: Expr,
        layout: _FlatLayout,
        dest: View,
        comp: int,
        comp_sel,
        radius: tuple[int, ...],
        coeffs: Mapping[str, float],
        tape: list[TapeOp],
        classes: list | None,
    ) -> None:
        """Finish a flat-mode tree: compute on lanes, bridge to the interior.

        The whole expression runs on contiguous lane windows (every op on
        the SIMD fast path); one final ``copyto`` maps the run's result
        lanes back to the strided interior view — measurably cheaper than
        computing the ops on strided operands directly.
        """
        cls_iter = iter(classes) if classes is not None else None
        ref = self._lower_flat(
            expr, layout, comp, comp_sel, radius, coeffs, tape, cls_iter
        )
        if isinstance(ref, np.generic):
            tape.append(TapeOp("fill", (ref,), dest))
        elif isinstance(ref, FlatView):
            tape.append(TapeOp("copy", (View(ref.slot, ref.index),), dest))
        else:
            tape.append(TapeOp("copy", (self._reg_window(ref, layout, comp_sel),), dest))
            self.registers.release(ref)

    def _reg_window(self, reg: Reg, layout: _FlatLayout, comp_sel) -> RegWindow:
        """Interior-shaped window over a flat register, for the run's lanes.

        The first interior point's component-0 lane sits at window offset 0,
        so the run's band starts at its first component; a merged run keeps
        a trailing component axis of unit stride.
        """
        if isinstance(comp_sel, int):
            return RegWindow(
                reg, comp_sel, layout.interior_shape, layout.interior_strides
            )
        return RegWindow(
            reg,
            comp_sel.start,
            layout.interior_shape + (comp_sel.stop - comp_sel.start,),
            layout.interior_strides + (1,),
        )

    def _lower_flat(
        self,
        expr: Expr,
        layout: _FlatLayout,
        comp: int,
        comp_sel,
        radius: tuple[int, ...],
        coeffs: Mapping[str, float],
        tape: list[TapeOp],
        classes,
    ):
        if isinstance(expr, Const):
            return self.dtype.type(expr.value)
        if isinstance(expr, Coef):
            try:
                return self.dtype.type(coeffs[expr.name])
            except KeyError:
                raise SimulationError(
                    f"coefficient '{expr.name}' has no value"
                ) from None
        if isinstance(expr, FieldAccess):
            cls = (
                next(classes)
                if classes is not None
                else self._classify(expr, comp, layout.components)
            )
            if cls == "vary":
                slot = self.env.get(expr.field)
                if slot is None:
                    raise SimulationError(f"field '{expr.field}' is not bound")
            else:
                slot = self._expanded_slot(expr.field, cls, layout.components)
            d = layout.delta(expr.offset)
            return FlatView(
                slot,
                layout.R + d,
                layout.N - layout.R + d,
                _shifted_index(expr.offset, radius, self.mesh.shape, comp_sel),
            )
        if isinstance(expr, Neg):
            operand = self._lower_flat(
                expr.operand, layout, comp, comp_sel, radius, coeffs, tape, classes
            )
            if isinstance(operand, np.generic):
                return -operand
            self.registers.release(operand)
            dest = self.registers.alloc((layout.window,), span=layout.N)
            tape.append(TapeOp("neg", (operand,), dest, flat=True))
            return dest
        if isinstance(expr, BinOp):
            lhs = self._lower_flat(
                expr.lhs, layout, comp, comp_sel, radius, coeffs, tape, classes
            )
            rhs = self._lower_flat(
                expr.rhs, layout, comp, comp_sel, radius, coeffs, tape, classes
            )
            if isinstance(lhs, np.generic) and isinstance(rhs, np.generic):
                return self._fold(expr.op, lhs, rhs)
            self.registers.release(lhs)
            self.registers.release(rhs)
            dest = self.registers.alloc((layout.window,), span=layout.N)
            tape.append(TapeOp(_BINOP_NAMES[expr.op], (lhs, rhs), dest, flat=True))
            return dest
        raise SimulationError(f"unknown expression node {type(expr).__name__}")

    def _expanded_slot(self, field: str, comp: int, components: int) -> str:
        """The ``inx:`` broadcast-expansion slot for one fixed-component read.

        Holds component ``comp`` of the input field splatted across
        ``components`` lanes per mesh point; filled by the executor at load
        time (the key carries both, so e.g. a scalar coefficient mesh read
        by 3- and 6-component runs gets one buffer per element stride).
        """
        slot = f"inx:{field}:{comp}x{components}"
        if slot not in self.buffers:
            self.buffers[slot] = tuple(reversed(self.mesh.shape)) + (components,)
            self.expansions[slot] = (field, comp)
        return slot

    @staticmethod
    def _fold(op: str, lhs: np.generic, rhs: np.generic) -> np.generic:
        if op == "+":
            return lhs + rhs
        if op == "-":
            return lhs - rhs
        if op == "*":
            return lhs * rhs
        return lhs / rhs

    def _lower_expr_root(
        self,
        expr: Expr,
        comp: int,
        comp_sel,
        dest: View,
        radius: tuple[int, ...],
        coeffs: Mapping[str, float],
        tape: list[TapeOp],
        classes=None,
    ) -> None:
        ref = self._lower_expr(expr, comp, comp_sel, radius, coeffs, tape, dest, classes)
        if ref is dest:
            return  # root op already wrote into the output view
        if isinstance(ref, np.generic):
            tape.append(TapeOp("fill", (ref,), dest))
        else:
            tape.append(TapeOp("copy", (ref,), dest))
            self.registers.release(ref)

    def _lower_expr(
        self,
        expr: Expr,
        comp: int,
        comp_sel,
        radius: tuple[int, ...],
        coeffs: Mapping[str, float],
        tape: list[TapeOp],
        dest_hint: View | None = None,
        classes=None,
    ):
        """Lower one expression; returns a scalar, View, Reg, or ``dest_hint``.

        ``dest_hint`` is only consumed by the root op of a tree (in-place
        write into the output view); inner nodes allocate registers. For a
        merged component run, ``classes`` yields the per-access vary/fixed
        classification in visit order (left to right, matching the template
        walk).
        """
        if isinstance(expr, Const):
            return self.dtype.type(expr.value)
        if isinstance(expr, Coef):
            try:
                return self.dtype.type(coeffs[expr.name])
            except KeyError:
                raise SimulationError(
                    f"coefficient '{expr.name}' has no value"
                ) from None
        if isinstance(expr, FieldAccess):
            return self._lower_access(expr, comp_sel, radius, classes)
        if isinstance(expr, Neg):
            operand = self._lower_expr(
                expr.operand, comp, comp_sel, radius, coeffs, tape, None, classes
            )
            if isinstance(operand, np.generic):
                return -operand
            dest = dest_hint if dest_hint is not None else self._alloc_like(operand)
            tape.append(TapeOp("neg", (operand,), dest))
            self.registers.release(operand)
            return dest
        if isinstance(expr, BinOp):
            lhs = self._lower_expr(
                expr.lhs, comp, comp_sel, radius, coeffs, tape, None, classes
            )
            rhs = self._lower_expr(
                expr.rhs, comp, comp_sel, radius, coeffs, tape, None, classes
            )
            if isinstance(lhs, np.generic) and isinstance(rhs, np.generic):
                # fold in the mesh dtype: identical scalar arithmetic to the
                # interpreter's node-by-node evaluation
                return self._fold(expr.op, lhs, rhs)
            # release before allocating the dest so `a = a + b` reuses a's
            # register in place (safe: same-shape elementwise ufunc)
            self.registers.release(lhs)
            self.registers.release(rhs)
            if dest_hint is not None:
                dest = dest_hint
            else:
                dest = self._alloc_for(lhs, rhs)
            tape.append(TapeOp(_BINOP_NAMES[expr.op], (lhs, rhs), dest))
            return dest
        raise SimulationError(f"unknown expression node {type(expr).__name__}")

    def _lower_access(
        self, access: FieldAccess, comp_sel, radius: tuple[int, ...], classes
    ) -> View:
        slot = self.env.get(access.field)
        if slot is None:
            raise SimulationError(f"field '{access.field}' is not bound")
        spec = self.specs[access.field]
        if access.component >= spec.components:
            raise SimulationError(
                f"component {access.component} out of range for field "
                f"'{access.field}' with {spec.components} components"
            )
        if classes is None:
            # unmerged: plain single-component access
            sel: object = access.component
        else:
            cls = next(classes)
            # varying accesses ride the merged component slice; fixed ones
            # keep their axis as a width-1 broadcast against the run
            sel = comp_sel if cls == "vary" else slice(cls, cls + 1)
        return View(slot, _shifted_index(access.offset, radius, spec.shape, sel))

    # -- register shapes ----------------------------------------------------
    def _view_shape(self, ref) -> tuple[int, ...]:
        if isinstance(ref, Reg):
            return ref.shape
        return _index_shape(ref.index, self.buffers[ref.slot])

    def _alloc_like(self, ref) -> Reg:
        return self.registers.alloc(self._view_shape(ref))

    def _alloc_for(self, lhs, rhs) -> Reg:
        """Register for a binary result: the broadcast of the array operands."""
        shapes = [
            self._view_shape(r) for r in (lhs, rhs) if not isinstance(r, np.generic)
        ]
        if len(shapes) == 1:
            return self.registers.alloc(shapes[0])
        return self.registers.alloc(np.broadcast_shapes(*shapes))


def lower_program(
    program: StencilProgram,
    mesh: MeshSpec,
    input_specs: Mapping[str, MeshSpec],
    coefficients: Mapping[str, float] | None = None,
) -> ProgramPlan:
    """Lower ``program`` against a concrete mesh/coefficient binding.

    ``input_specs`` gives the spec of every externally bound field (state
    fields carry the mesh element type; constant fields may be scalar).
    """
    for name in program.required_inputs:
        if name not in input_specs:
            raise ValidationError(
                f"program '{program.name}' needs field '{name}' bound"
            )
    return _Lowerer(program, mesh, input_specs, coefficients).lower()


# --------------------------------------------------------------------------- #
# program identity tokens (cache keys)
# --------------------------------------------------------------------------- #
class _HashedKey:
    """A structural key with its hash computed once.

    Kernel coefficient tables are plain dicts, so programs themselves are
    not hashable; this wraps the canonical tuple form. Equality takes the
    identity fast path first — tokens are interned, so repeated lookups for
    equal programs compare by ``is``.
    """

    __slots__ = ("value", "_hash", "__weakref__")

    def __init__(self, value):
        self.value = value
        self._hash = hash(value)

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if not isinstance(other, _HashedKey):
            return NotImplemented
        return self._hash == other._hash and self.value == other.value


def _structural_key(program: StencilProgram) -> _HashedKey:
    kernels = []
    for group in program.groups:
        for kernel in group.kernels:
            kernels.append(
                (
                    kernel.name,
                    tuple(
                        (o.field, o.exprs, o.init_from) for o in kernel.outputs
                    ),
                    tuple(sorted(kernel.coefficients.items())),
                )
            )
        kernels.append(("|group",))
    return _HashedKey(
        (
            program.name,
            program.state_fields,
            program.constant_fields,
            tuple(kernels),
        )
    )


#: id(program) -> (liveness guard, token); pruned when the program dies
_TOKENS: dict[int, tuple] = {}
#: canonical token instances, interned so equal programs share one object;
#: entries are refcounted by the live programs using them and pruned when
#: the last one dies, so the table cannot accumulate one retained
#: expression tree per structure ever tokenized
_INTERNED: dict[_HashedKey, _HashedKey] = {}
_INTERN_REFS: dict[_HashedKey, int] = {}
#: reentrant: a weakref callback can fire from a GC triggered inside the
#: locked region of the same thread
_TOKEN_LOCK = threading.RLock()


def program_token(program: StencilProgram) -> _HashedKey:
    """A hashable identity token for a program's *execution semantics*.

    Equal-by-structure programs (e.g. two ``app.program_on(shape)`` calls)
    yield the same interned token, so plan caches key on semantics rather
    than object identity. The token is memoized per program object; the
    structural walk runs once per instance. Interning is an optimization:
    after a token is pruned, an equal program re-interns a fresh object and
    cache lookups still hit through structural equality.
    """
    pid = id(program)
    with _TOKEN_LOCK:
        entry = _TOKENS.get(pid)
        if entry is not None and entry[0]() is program:
            return entry[1]
    key = _structural_key(program)
    with _TOKEN_LOCK:
        # a concurrent tokenization of the same object may have won while
        # the structural walk ran; keep the incumbent — overwriting it
        # would discard its weakref (the callback never fires) and leave
        # the intern refcount permanently one too high
        entry = _TOKENS.get(pid)
        if entry is not None and entry[0]() is program:
            return entry[1]
        token = _INTERNED.setdefault(key, key)

        def _drop(_ref, _pid=pid, _token=token):
            with _TOKEN_LOCK:
                _TOKENS.pop(_pid, None)
                remaining = _INTERN_REFS.get(_token, 1) - 1
                if remaining <= 0:
                    _INTERN_REFS.pop(_token, None)
                    _INTERNED.pop(_token, None)
                else:
                    _INTERN_REFS[_token] = remaining

        _TOKENS[pid] = (weakref.ref(program, _drop), token)
        _INTERN_REFS[token] = _INTERN_REFS.get(token, 0) + 1
    return token
