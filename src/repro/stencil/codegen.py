"""Source-level lowering of bound op tapes to fused native kernels.

The compiled engine (:mod:`repro.stencil.compiled`) replays a plan's tapes
as a flat list of ``ufunc(a, b, out)`` calls — allocation-free, but every
op still pays NumPy's fixed dispatch cost and writes its intermediate to a
full scratch register. This module lowers a **bound** tape one level
further, to straight-line source code for the binding's program
structure, and the descriptor that places it on the binding's mesh:

1. :func:`build_ir` walks every bound tape — warm and steady — and
   normalizes each op into a strided-access :class:`Statement`: each
   operand becomes ``(base array, element offset, per-axis element
   strides)`` over the op's loop shape, read straight off the NumPy views
   the executor itself binds (broadcast axes become stride 0), so the IR
   can never drift from the replay semantics. Folded scalars stay literals.
2. One forwarding pass (:func:`_forward`) inlines a register producer into
   its single consumer by *composing affine accesses* and elides the
   store. A consumer reading exactly what the producer wrote substitutes
   the expression as is; a consumer reading any window of a **flat**
   (1-D, unit-stride) producer re-indexes the producer's loads over its
   own loop space — which is how the flat ``(N,)`` lane sums of a stencil
   land directly in the shaped interior of the ping-pong buffer, ghost
   lanes never computed. Only registers no tape reads before writing
   (:func:`_tape_local`) are forwarded, so an elided value can never be
   missed by the partner tape, a warm tape or the next iteration. The
   classic ``mul/mul/add/add.../copy`` chains collapse into **one loop
   nest per kernel** — memory is touched once, exactly the dataflow fusion
   the paper realizes in hardware.
3. :func:`lower_c` renders each distinct **kernel** once — a statement
   with its bases renamed to parameter slots and its extents, offsets and
   outer strides lifted into a descriptor block (:func:`_kernel`), so the
   warm tapes, both steady parities, every stage of a multi-stage update
   and the faces of a boundary ring, which repeat one nest over other
   buffers and offsets, share one function — as a loop nest over pointer
   parameters with one row pointer per stencil row hoisted out of the
   innermost loop, and each tape as a call list passing its bases'
   pointers and its block of the ``int64`` descriptor. Expression trees
   keep the tape's association order and the build disables contraction
   (``-ffp-contract=off``), so results stay **bit-identical** to the tape
   replay — and :mod:`repro.stencil.native` checks that bitwise at bind
   time before trusting the build. A nest whose iterations are
   independent and whose destination is injective (:func:`_parallel_safe`),
   and that has two or more loops, gets ``#pragma omp parallel for
   schedule(static) if(cells >= grain)`` on its outermost loop, ``grain``
   a run-time argument (``_OMP_MIN_CELLS`` in use): the team splits the
   cells, each computed exactly as before, and no value crosses threads.
   That is the **nests** schedule.
4. A stacked binding (``batch >= 2``) whose every base splits by member
   (:func:`member_strides`: each access carries the leading batch axis,
   each base one member stride, each member's footprint inside its own
   stride) gets the **members** schedule instead: ``repro_run`` forks once,
   on the member loop, and each thread carries its members through every
   requested iteration, warm and steady tapes alike, through per-member
   kernels (lead axis dropped, no inner fork) called with base pointers
   offset by ``m`` times the base's member stride. No member reads or writes another's elements,
   and within a member the statements, iterations and cells keep their
   order, so every value is computed exactly as by the nests schedule — no
   halo, and no barrier between iterations.

The generated sources embed only the program's structure — loop depths,
folded constants and association, alias patterns, the relative row and
element shifts of a stencil's accesses, strides and extents within one
mesh element, the warm-tape count — and never a data pointer, a mesh
extent, an offset or an outer stride, nor the member count: those are the
pointer table's, the descriptor's and the call's. So one compiled
artifact is shared by every mesh, block and stacked batch size of one
program structure (on the nests schedule, every batch size past one), it
survives on disk across processes, and a small mesh of the same program
runs the very binary a large one will: :mod:`repro.stencil.native` checks
each build there. :func:`footprints` reads back, from the descriptor
alone, the element range every access of every call reaches.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

#: cap on loads folded into one fused expression — past this the chain is
#: materialized to keep generated statements (and compile times) bounded
_MAX_FUSED_LOADS = 48

#: smallest nest (normalized cell count) that forks an OpenMP team — below
#: it the fork and join cost more than the split saves
_OMP_MIN_CELLS = 1 << 15

#: widest mesh element (components) whose layout the generated code keeps
#: literal: an innermost extent or stride no larger comes from the
#: element's layout, not the mesh's extents, and the vectoriser unrolls or
#: interleaves it; a larger one (a row or plane step) is read from the
#: descriptor
_ELEMENT_SPAN = 8


@dataclass(frozen=True)
class Access:
    """One strided operand: ``base[offset + sum(i_k * strides[k])]``.

    ``base`` indexes :attr:`NativeIR.bases`; ``shape`` is the owning
    statement's loop shape and ``strides`` are element strides per loop
    axis (0 on broadcast axes). Equality is exact — two accesses are
    interchangeable only when they address the very same elements in the
    same order.
    """

    base: int
    offset: int
    shape: tuple[int, ...]
    strides: tuple[int, ...]


@dataclass(frozen=True)
class Load:
    access: Access


@dataclass(frozen=True)
class Const:
    #: ``float.hex`` of the folded scalar: exact for every finite f32/f64,
    #: a valid C literal, and (unlike the float) it tells -0.0 from 0.0,
    #: so equal statements are interchangeable statements
    hex: str


@dataclass(frozen=True)
class OpExpr:
    op: str
    args: tuple


@dataclass(frozen=True)
class Statement:
    """``dest[...] = expr`` over ``dest.shape``, the unit of code emission.

    Every load of ``expr`` ranges over the same loop shape as ``dest``.
    """

    dest: Access
    expr: object


@dataclass
class NativeIR:
    """Forwarded tapes of one bound instance, ready for emission.

    ``bases`` are the instance's live buffer/register arrays in pointer-
    table order; the emitted code addresses them only through the indices
    the accesses carry, so the source itself is instance-independent.
    """

    bases: list[np.ndarray]
    #: one statement list per warm iteration, then the steady pair
    warm: tuple[list[Statement], ...]
    steady: tuple[list[Statement], list[Statement]]
    dtype: np.dtype
    #: indices of ``bases`` that are scratch registers
    registers: frozenset[int]
    #: register stores the forwarding pass elided, over all tapes
    forwarded: int
    #: meshes stacked on the leading axis of every buffer
    batch: int = 1

    @property
    def tapes(self) -> tuple[list[Statement], ...]:
        """Every tape in iteration order: warm, then steady even / odd."""
        return (*self.warm, *self.steady)

    @property
    def referenced(self) -> frozenset[int]:
        """Indices of ``bases`` some statement stores to or loads from: the
        only pointer-table entries the emitted code dereferences."""
        return frozenset(
            base
            for tape in self.tapes
            for stmt in tape
            for base in (stmt.dest.base, *(a.base for a in _expr_loads(stmt.expr)))
        )


def _map_loads(expr, fn):
    """``expr`` with every ``Load(a)`` replaced by the expression ``fn(a)``."""
    if isinstance(expr, Load):
        return fn(expr.access)
    if isinstance(expr, OpExpr):
        return OpExpr(expr.op, tuple(_map_loads(a, fn) for a in expr.args))
    return expr


def _expr_loads(expr) -> list[Access]:
    if isinstance(expr, Load):
        return [expr.access]
    if isinstance(expr, OpExpr):
        return [a for arg in expr.args for a in _expr_loads(arg)]
    return []


def _base_table(compiled) -> tuple[list[np.ndarray], dict[int, int]]:
    bases: list[np.ndarray] = []
    index: dict[int, int] = {}
    for arr in list(compiled._buffers.values()) + list(
        compiled._registers.values()
    ):
        index[id(arr)] = len(bases)
        bases.append(arr)
    return bases, index


def _owner(compiled, ref) -> np.ndarray:
    """The base array owning a tape-op operand reference."""
    from repro.stencil.plan import FlatView, Reg, RegWindow, View

    if isinstance(ref, (View, FlatView)):
        return compiled._buffers[ref.slot]
    if isinstance(ref, Reg):
        return compiled._registers[(ref.shape, ref.span, ref.idx)]
    if isinstance(ref, RegWindow):
        reg = ref.reg
        return compiled._registers[(reg.shape, reg.span, reg.idx)]
    raise TypeError(f"not an array reference: {ref!r}")


def _access_of(
    arr: np.ndarray, base: np.ndarray, base_idx: int, shape: tuple[int, ...]
) -> Access:
    view = np.broadcast_to(arr, shape) if arr.shape != shape else arr
    itemsize = base.itemsize
    offset = (
        view.__array_interface__["data"][0]
        - base.__array_interface__["data"][0]
    )
    if offset % itemsize:
        raise ValueError("operand is not element-aligned with its base")
    strides = tuple(s // itemsize for s in view.strides)
    return Access(base_idx, offset // itemsize, shape, strides)


def build_ir(compiled) -> NativeIR | None:
    """The forwarded IR of a bound instance, or None if unsupported.

    Declines bindings the C backend cannot reproduce bit-exactly:
    non-float32/float64 dtypes and non-finite folded constants. Warm and
    steady tapes are lowered alike, in iteration order.
    """
    dtype = np.dtype(compiled.plan.mesh.dtype)
    if dtype not in (np.dtype(np.float32), np.dtype(np.float64)):
        return None
    bases, base_index = _base_table(compiled)
    plan = compiled.plan
    try:
        raw = [
            [_lower_op(compiled, base_index, op) for op in tape]
            for tape in plan.warm + plan.steady
        ]
    except (ValueError, KeyError, TypeError):
        return None
    registers = frozenset(base_index[id(a)] for a in compiled._registers.values())
    local = _tape_local(raw, registers)
    tapes = [_forward(tape, local) for tape in raw]
    return NativeIR(
        bases=bases,
        warm=tuple(tapes[:-2]),
        steady=(tapes[-2], tapes[-1]),
        dtype=dtype,
        registers=registers,
        forwarded=sum(map(len, raw)) - sum(map(len, tapes)),
        batch=compiled.batch,
    )


def _lower_op(compiled, base_index, op) -> Statement:
    dest_arr = compiled._bind_arg(op.dest)
    dest_base = _owner(compiled, op.dest)
    shape = dest_arr.shape
    dest = _access_of(dest_arr, dest_base, base_index[id(dest_base)], shape)
    args = []
    for a in op.args:
        if isinstance(a, np.generic):
            value = float(a)
            if not math.isfinite(value):
                raise ValueError("non-finite folded constant")
            args.append(Const(value.hex()))
        else:
            arr = compiled._bind_arg(a)
            base = _owner(compiled, a)
            args.append(
                Load(_access_of(arr, base, base_index[id(base)], shape))
            )
    if op.op in ("copy", "fill"):
        return Statement(dest, args[0])
    return Statement(dest, OpExpr(op.op, tuple(args)))


# -- register forwarding ------------------------------------------------------
def _span(a: Access) -> tuple[int, int]:
    """Lowest and highest element index of its base the access touches."""
    lo = hi = a.offset
    for extent, stride in zip(a.shape, a.strides):
        reach = (extent - 1) * stride
        lo, hi = lo + min(reach, 0), hi + max(reach, 0)
    return lo, hi


def _covers(write: Access, read: Access) -> bool:
    """True when ``write`` stores every element ``read`` loads: the same
    access, or a flat (1-D, unit-stride) store whose range contains it."""
    if write == read:
        return True
    if write.base != read.base or write.strides != (1,):
        return False
    lo, hi = _span(read)
    return write.offset <= lo and hi < write.offset + write.shape[0]


def _tape_local(tapes: Sequence[Sequence[Statement]], registers) -> set[int]:
    """The registers no tape, warm or steady, reads before a covering
    write of its own: their values never cross a tape boundary, so eliding
    a store can only be missed by a reader inside the same tape."""
    local = set(registers)
    for tape in tapes:
        written: dict[int, list[Access]] = {}
        for stmt in tape:
            for a in _expr_loads(stmt.expr):
                if a.base in local and not any(
                    _covers(w, a) for w in written.get(a.base, ())
                ):
                    local.discard(a.base)
            written.setdefault(stmt.dest.base, []).append(stmt.dest)
    return local


def _forward(tape: Sequence[Statement], local: set[int]) -> list[Statement]:
    """Inline every forwardable register producer into its consumer.

    Producer ``P`` (a store to a tape-local register) merges into consumer
    ``C`` and its store is elided iff

    * ``C`` holds the only load of the register between ``P`` and the next
      store covering ``P.dest`` (or the end of the tape),
    * no statement between them stores to the register or to a base
      ``P.expr`` reads (the deferred loads still see the stored-time
      values), and ``C``'s own destination is not such a base either
      (fused evaluation interleaves its stores with the deferred loads),
    * ``C`` loads exactly ``P.dest``, or ``P`` is flat and ``C``'s lanes
      lie inside its range (:func:`_reindex`), and
    * the merged statement stays within ``_MAX_FUSED_LOADS``.
    """
    stmts = list(tape)
    k = 0
    while k < len(stmts):
        j = _consumer(stmts, k, local)
        fused = _inline(stmts[k], stmts[j]) if j is not None else None
        if fused is None:
            k += 1
        else:
            stmts[j] = fused
            del stmts[k]
    return stmts


def _consumer(stmts: Sequence[Statement], k: int, local: set[int]) -> int | None:
    """The index of statement ``k``'s unique, hazard-free reader, or None."""
    dest = stmts[k].dest
    if dest.base not in local:
        return None
    reads = {a.base for a in _expr_loads(stmts[k].expr)}
    consumer: int | None = None
    for j in range(k + 1, len(stmts)):
        stmt = stmts[j]
        uses = sum(a.base == dest.base for a in _expr_loads(stmt.expr))
        if uses and (uses > 1 or consumer is not None):
            return None  # second load: the value must exist in memory
        if uses:
            consumer = j
        elif consumer is None and stmt.dest.base in reads | {dest.base}:
            return None  # hazard: a source or the value itself is overwritten
        if _covers(stmt.dest, dest):
            break  # live range closed
    return consumer


def _inline(p: Statement, c: Statement) -> Statement | None:
    """``c`` with its load of ``p.dest``'s register replaced by ``p.expr``."""
    reg = p.dest.base
    if any(a.base == c.dest.base for a in _expr_loads(p.expr)):
        return None
    (use,) = (a for a in _expr_loads(c.expr) if a.base == reg)
    if use == p.dest:
        expr = p.expr
    elif c.dest.base == reg:
        return None
    else:
        expr = _reindex(p, use)
        if expr is None:
            return None
    fused = _map_loads(c.expr, lambda a: expr if a.base == reg else Load(a))
    if len(_expr_loads(fused)) > _MAX_FUSED_LOADS:
        return None
    return Statement(c.dest, fused)


def _reindex(p: Statement, use: Access):
    """Flat ``p.expr`` over the loop space of ``use``, or None.

    ``p`` stores lane ``L`` at ``p.dest.offset + L`` from loads
    ``base[o + s*L]``; ``use`` reads lane ``shift + sum(i_k * c_k)``, so
    each load becomes ``base[o + s*shift + sum(i_k * s*c_k)]``.
    """
    lo, hi = _span(use)
    start = p.dest.offset
    if p.dest.strides != (1,) or lo < start or hi >= start + p.dest.shape[0]:
        return None
    shift = use.offset - start

    def over_use(a: Access) -> Load:
        (s,) = a.strides
        return Load(
            Access(a.base, a.offset + s * shift, use.shape,
                   tuple(s * c for c in use.strides))
        )

    return _map_loads(p.expr, over_use)


# -- loop-shape normalization -------------------------------------------------
def _normalize(stmt: Statement) -> tuple[tuple[int, ...], list[list[int]]]:
    """(loop shape, per-term strides) with unit axes dropped and contiguous
    axes merged — fewer, longer loops vectorise better.

    Term 0 is the destination access; the rest are the loads in
    expression order.
    """
    terms = [stmt.dest] + _expr_loads(stmt.expr)
    shape = list(stmt.dest.shape)
    strides = [list(t.strides) for t in terms]
    # drop extent-1 axes (their stride never multiplies a nonzero index)
    keep = [i for i, extent in enumerate(shape) if extent != 1]
    shape = [shape[i] for i in keep]
    strides = [[s[i] for i in keep] for s in strides]
    # merge axis i into i+1 when every term is contiguous across the pair
    i = len(shape) - 2
    while i >= 0:
        if all(s[i] == shape[i + 1] * s[i + 1] for s in strides):
            shape[i + 1] = shape[i] * shape[i + 1]
            del shape[i]
            for s in strides:
                del s[i]
        i -= 1
    return tuple(shape), strides


# -- C emission ---------------------------------------------------------------
def _c_expr(expr, suffix: str, operand) -> str:
    """``operand(i)`` renders the load of the kernel's ``i``-th access."""
    if isinstance(expr, Const):
        return expr.hex + suffix
    if isinstance(expr, Arg):
        return operand(expr.index)
    sym = {"add": "+", "sub": "-", "mul": "*", "div": "/"}
    if expr.op == "neg":
        return f"(-{_c_expr(expr.args[0], suffix, operand)})"
    lhs, rhs = expr.args
    return (
        f"({_c_expr(lhs, suffix, operand)} {sym[expr.op]} "
        f"{_c_expr(rhs, suffix, operand)})"
    )


def _independent_iterations(stmt: Statement) -> bool:
    """True when no loop iteration can depend on an earlier one's store.

    Base arrays are separate allocations, so a load from a *different*
    base can never alias the destination; a load from the destination's
    own base is only safe when it reads the exact same elements in the
    same order (plain in-place updates). Shifted self-reads — the one
    pattern with a genuine loop-carried dependency — veto the assertion.
    """
    return all(
        a.base != stmt.dest.base or a == stmt.dest
        for a in _expr_loads(stmt.expr)
    )


def _injective(dest: Access) -> bool:
    """True when no two iterations store to one element: with the axes
    sorted by stride, each stride exceeds the reach of the smaller axes."""
    reach = 0
    for stride, extent in sorted(
        (abs(s), e) for e, s in zip(dest.shape, dest.strides) if e != 1
    ):
        if stride <= reach:
            return False
        reach += (extent - 1) * stride
    return True


def _parallel_safe(stmt: Statement) -> bool:
    """True when the nest's iterations may run on any threads in any
    order: none reads another's store, and no two store to one element."""
    return _independent_iterations(stmt) and _injective(stmt.dest)


def member_strides(ir: NativeIR) -> dict[int, int] | None:
    """Base index -> member stride when every base the IR touches splits
    by member, else None (always None below two members or statements).

    A base splits when every access to it, in every tape, has the leading
    batch axis with one positive stride ``S``, and the access's footprint
    with the lead index fixed at 0 lies inside ``[0, S)`` — so member
    ``m`` touches only ``[m*S, (m+1)*S)`` and no two members share an
    element. Stack-extended flat windows whose lanes cross a member seam
    have no batch axis and fail.
    """
    if ir.batch < 2:
        return None
    strides: dict[int, int] = {}
    for tape in ir.tapes:
        for stmt in tape:
            for a in (stmt.dest, *_expr_loads(stmt.expr)):
                if not a.shape or a.shape[0] != ir.batch:
                    return None
                stride = strides.setdefault(a.base, a.strides[0])
                lo, hi = _span(_member_access(a))
                if a.strides[0] != stride or stride <= 0 or lo < 0 or hi >= stride:
                    return None
    return strides or None


def _member_access(a: Access) -> Access:
    """Member 0's part of a batched access: the lead axis dropped."""
    return Access(a.base, a.offset, a.shape[1:], a.strides[1:])


def _member_statement(stmt: Statement) -> Statement:
    return Statement(
        _member_access(stmt.dest),
        _map_loads(stmt.expr, lambda a: Load(_member_access(a))),
    )


@dataclass(frozen=True)
class Arg:
    """A kernel operand: the kernel's ``index``-th distinct access (the
    destination is access 0)."""

    index: int


@dataclass(frozen=True)
class Kernel:
    """A statement with every mesh-dependent number lifted into its
    descriptor block (:func:`_kernel`): the unit of code emission.

    What stays is the nest's structure. Its ``rank`` loops split in two:
    the first ``split`` read their strides from the descriptor, and each
    of the rest steps every access by a stride within ``_ELEMENT_SPAN`` —
    the element's layout, kept literal so the vectoriser sees it (only the
    innermost loop may instead read a stride, None here, from the
    descriptor). Accesses with one base and one set of strides form a
    group (``groups``: the base's parameter slot, bases numbered by first
    appearance, and its inner strides); a group's accesses that differ
    only in which outer row they start on share a row pointer (``rows``:
    the group and the row shift on each outer axis), and each distinct
    access (``operands``) is a row pointer and a literal element shift.
    The innermost ``extent`` stays literal when an outer loop also steps
    within the element: then it runs over part of one element (the
    components), not along the mesh.
    The expression reads :class:`Arg` operands and keeps its constants and
    association, and the ``ivdep`` and ``fork`` verdicts are drawn from
    the statement. Statements that differ only in extents, offsets or
    outer strides — the faces of a boundary ring, one nest on two meshes —
    share one kernel.
    """

    rank: int
    split: int
    extent: int | None
    groups: tuple[tuple[int, tuple[int | None, ...]], ...]
    rows: tuple[tuple[int, tuple[int, ...]], ...]
    operands: tuple[tuple[int, int], ...]
    expr: object
    ivdep: bool
    fork: bool


def _literal(value: int) -> int | None:
    """``value`` when it is the element's layout, kept literal; else None."""
    return value if 0 <= value <= _ELEMENT_SPAN else None


def _row_shift(delta: int, strides: Sequence[int]) -> tuple[tuple[int, ...], int]:
    """``delta`` as whole steps along ``strides`` (outermost first, each to
    the nearest) and the element shift left over."""
    steps = []
    for stride in strides:
        step = round(delta / stride) if stride else 0
        steps.append(step)
        delta -= step * stride
    return tuple(steps), delta


def _kernel(
    stmt: Statement, members: bool = False
) -> tuple[Kernel, tuple[int, ...], tuple[int, ...]]:
    """``stmt``'s kernel, its bases in slot order and its descriptor block.

    Accesses are told apart by the elements they address in loop order,
    so an in-place update reads through the destination's own operand.
    Slots number the bases by first appearance — a bijection, so two
    statements share a kernel only under the same alias pattern (an
    in-place update and a read of another base stay apart), and every
    verdict drawn from base equality (:func:`_independent_iterations`,
    :func:`_parallel_safe`) reads the same on either. A group's first
    access anchors its offset; every other access of it is a whole number
    of outer rows and a literal element shift away (:func:`_row_shift`).
    A nest whose every loop steps within the element (``split`` 0) has
    no rows to shift by: each of its accesses is its own group. A member
    kernel (``members``) never forks: the member loop is the one fork.
    """
    shape, strides = _normalize(stmt)
    rank = len(shape)
    split = rank
    while split and all(_literal(s[split - 1]) is not None for s in strides):
        split -= 1
    split = min(split, max(rank - 1, 0))
    terms = [stmt.dest] + _expr_loads(stmt.expr)
    accesses: dict[tuple, int] = {}
    ids = [
        accesses.setdefault((t.base, t.offset, tuple(s)), len(accesses))
        for t, s in zip(terms, strides)
    ]
    slots: dict[int, int] = {}
    groups: dict[tuple, int] = {}
    anchors: list[tuple[int, int, tuple[int, ...]]] = []
    rows: dict[tuple, int] = {}
    operands = []
    for base, offset, s in accesses:
        slots.setdefault(base, len(slots))
        key = (base, s) if split else (base, s, offset)
        g = groups.setdefault(key, len(groups))
        if g == len(anchors):
            anchors.append((base, offset, s))
        steps, shift = _row_shift(offset - anchors[g][1], s[:split])
        operands.append((rows.setdefault((g, steps), len(rows)), shift))
    loads = iter(ids[1:])
    kernel = Kernel(
        rank=rank,
        split=split,
        extent=_literal(shape[-1]) if split <= rank - 2 else None,
        groups=tuple(
            (slots[base], tuple(_literal(x) for x in s[split:])) for base, _, s in anchors
        ),
        rows=tuple(rows),
        operands=tuple(operands),
        expr=_map_loads(stmt.expr, lambda a: Arg(next(loads))),
        ivdep=_independent_iterations(stmt),
        fork=not members and rank > 1 and _parallel_safe(stmt),
    )
    block = (*shape, *(v for _, off, s in anchors for v in (off, *s)))
    return kernel, tuple(slots), block


def _term(index: str, step: int) -> str:
    if step == 0:
        return index
    return f"({index} {'+' if step > 0 else '-'} {abs(step)})"


def _emit_kernel_c(kernel: Kernel, k: int, suffix: str, lines: list[str]) -> None:
    """Kernel ``k``: one loop nest over its slot pointers ``b0, b1, ...``,
    reading its extents, offsets and outer strides from its descriptor
    block ``d``.

    Each row pointer ``p<j>`` is hoisted out of the loops that step within
    the element, which index it at literal strides and shifts — the
    vectoriser sees the same loop a literal nest gives it, and the
    accesses a row pointer serves are immediate displacements of it. The
    outer loop of a forked nest splits across the team when the nest has
    at least ``grain`` cells (GCC takes one pragma before a ``for``; only
    the innermost loop vectorizes, so only it carries the ivdep).
    """
    r, split, ind = kernel.rank, kernel.split, "  "
    params = ", ".join(
        f"real_t* b{slot}" for slot in range(1 + max(s for s, _ in kernel.groups))
    )
    # a strided store (one component of a vector field, the faces of a
    # ring across rows) vectorizes into gathers and scatters whose
    # compile time outweighs what they save: its loops stay scalar
    dest = kernel.groups[kernel.rows[kernel.operands[0][0]][0]][1]
    scalar = ', optimize("no-tree-loop-vectorize")' if dest and dest[-1] != 1 else ""
    lines.append(
        f"static __attribute__((noinline{scalar})) void s{k}({params}, "
        "const int64_t* d, int64_t grain) {"
    )
    if r:
        extents = [f"d[{a}]" for a in range(r)]
        if kernel.extent is not None:
            extents[-1] = str(kernel.extent)
        lines.append(
            f"{ind}const int64_t "
            + ", ".join(f"n{a} = {e}" for a, e in enumerate(extents)) + ";"
        )

    def loop(a: int) -> None:
        if a == 0 and kernel.fork:
            cells = " * ".join(f"n{x}" for x in range(r))
            lines.append(
                f"{ind}#pragma omp parallel for schedule(static) if({cells} >= grain)"
            )
        if a == r - 1 and kernel.ivdep:
            lines.append(f"{ind * (a + 1)}#pragma GCC ivdep")
        brace = " {" if a == split - 1 else ""
        lines.append(f"{ind * (a + 1)}for (int64_t i{a} = 0; i{a} < n{a}; ++i{a}){brace}")

    for a in range(split):
        loop(a)
    at = lambda g: r + g * (1 + r)  # the group's offset in the block
    for g, (_, inner) in enumerate(kernel.groups):
        if inner and inner[-1] is None:
            lines.append(f"{ind * (split + 1)}const int64_t t{g} = d[{at(g) + r}];")
    for j, (g, steps) in enumerate(kernel.rows):
        terms = [f"b{kernel.groups[g][0]}", f"d[{at(g)}]"] + [
            f"{_term(f'i{a}', step)}*d[{at(g) + 1 + a}]" for a, step in enumerate(steps)
        ]
        lines.append(f"{ind * (split + 1)}real_t* p{j} = {' + '.join(terms)};")
    for a in range(split, r):
        loop(a)

    def operand(i: int) -> str:
        row, shift = kernel.operands[i]
        g = kernel.rows[row][0]
        terms = []
        for a, stride in enumerate(kernel.groups[g][1], split):
            if stride is None:
                terms.append(f"i{a}*t{g}")
            elif stride:
                terms.append(f"i{a}" if stride == 1 else f"i{a}*{stride}")
        index = " + ".join(terms) if terms else ""
        if shift:
            index = f"{index} {'+' if shift > 0 else '-'} {abs(shift)}" if index else str(shift)
        return f"p{row}[{index or 0}]"

    lines.append(
        f"{ind * (r + 1)}{operand(0)} = {_c_expr(kernel.expr, suffix, operand)};"
    )
    if split:
        lines.append(f"{ind * split}}}")
    lines += ["}", ""]


def _numbered(items) -> dict:
    """Each distinct item, numbered by first appearance."""
    return {item: n for n, item in enumerate(dict.fromkeys(items))}


def unique_statements(ir: NativeIR) -> dict[Statement, int]:
    """Each distinct statement of the IR, numbered by first appearance."""
    return _numbered(stmt for tape in ir.tapes for stmt in tape)


@dataclass(frozen=True)
class NativeCode:
    """The generated source of one instance and the descriptor it runs on.

    ``source`` holds no extent, offset or outer stride, so instances of
    one program structure share it (and its artifact); ``descriptor`` is
    the instance's: the member stride of each base (0 on the nests
    schedule), then one block per call. ``calls`` lists each call's
    kernel, its bases in slot order and the start of its block, which is
    what :func:`footprints` reads the descriptor by.
    """

    source: str
    descriptor: np.ndarray
    calls: tuple[tuple[Kernel, tuple[int, ...], int], ...]
    kernels: dict[Kernel, int]
    members: bool


def lower_c(ir: NativeIR) -> NativeCode:
    """C source for every tape of the instance, and its descriptor.

    Each distinct kernel (:class:`Kernel`) is one ``noinline`` function
    holding its loop nest, over pointer parameters ``b0, b1, ...``, its
    descriptor block and the fork grain — warm and steady tapes, both
    parities, the stages of a multi-stage update and the faces of a
    boundary ring repeat the same nests over different buffers and
    offsets, and compiling each nest once keeps the build's time and
    memory near one tape's. A tape is the list of its calls, each passing
    its bases' pointers from the table and its block of the descriptor,
    and ``repro_run(void** P, const int64_t* D, k0, n, batch, grain)``
    executes iterations ``k0 .. k0+n`` by **absolute** index — warm tape
    ``k`` while ``k < len(warm)``, then the steady pair by parity — so a
    whole ``run_iterations`` stretch is one foreign call. ``grain`` is the
    fewest cells a forked nest splits at (0 forks every one);
    ``repro_threads()`` is the team size a forked loop runs on.

    Under the members schedule (:func:`member_strides`) each kernel is one
    member's nest, called with every pointer offset by ``m`` times its
    base's member stride, and ``repro_run`` forks once, on the loop over
    its ``batch`` members around the iteration loop. Otherwise (the nests
    schedule) ``batch`` is unused and large nests fork inside their own
    functions.
    """
    ctype = "float" if ir.dtype == np.dtype(np.float32) else "double"
    suffix = "f" if ir.dtype == np.dtype(np.float32) else ""
    members = member_strides(ir)
    descriptor = [
        members.get(b, 0) if members else 0
        for b in range(max(len(ir.bases), 1 + max(ir.referenced, default=-1)))
    ]
    numbered: dict[Kernel, int] = {}
    tapes = []
    for tape in ir.tapes:
        calls = []
        for stmt in tape:
            if members is not None:
                stmt = _member_statement(stmt)
            kernel, bases, block = _kernel(stmt, members is not None)
            numbered.setdefault(kernel, len(numbered))
            calls.append((kernel, bases, len(descriptor)))
            descriptor += block
        tapes.append(calls)
    lines = [
        "#include <stdint.h>", "#include <omp.h>", "",
        f"typedef {ctype} real_t;", "",
        "int repro_threads(void) { return omp_get_max_threads(); }", "",
    ]
    for kernel, k in numbered.items():
        _emit_kernel_c(kernel, k, suffix, lines)

    def pointer(b: int) -> str:
        return f"(real_t*)P[{b}]" + (f" + m * D[{b}]" if members is not None else "")

    warm = len(ir.warm)
    lines.append(
        "void repro_run(void** P, const int64_t* D, int64_t k0, int64_t n, "
        "int64_t batch, int64_t grain) {"
    )
    if members is not None:
        lines += [
            "  #pragma omp parallel for schedule(static)",
            "  for (int64_t m = 0; m < batch; ++m)",
        ]
    lines += [
        "  for (int64_t k = k0; k < k0 + n; ++k) {",
        f"    switch (k < {warm} ? k : {warm} + ((k - {warm}) & 1)) {{",
    ]
    for t, calls in enumerate(tapes):
        lines.append(f"      case {t}:")
        lines += [
            f"        s{numbered[kernel]}({', '.join(map(pointer, bases))}, "
            f"D + {at}, grain);"
            for kernel, bases, at in calls
        ]
        lines.append("        break;")
    lines += ["    }", "  }", "}", ""]
    return NativeCode(
        source="\n".join(lines),
        descriptor=np.array(descriptor, dtype=np.int64),
        calls=tuple(call for calls in tapes for call in calls),
        kernels=numbered,
        members=members is not None,
    )


def emit_c(ir: NativeIR) -> str:
    """The C source :func:`lower_c` generates for the instance."""
    return lower_c(ir).source


def kernels(ir: NativeIR) -> dict[Kernel, int]:
    """Each distinct kernel of the IR, numbered by first appearance: one
    emitted function each."""
    return lower_c(ir).kernels


def footprints(code: NativeCode, batch: int):
    """``(base, lowest, highest element)`` of every access of every call,
    read from the descriptor the way the generated code reads it, over
    ``batch`` members on the members schedule: what a binding checks
    against its bases before its first call."""
    d = code.descriptor.tolist()
    for kernel, bases, at in code.calls:
        r, split = kernel.rank, kernel.split
        extents = d[at : at + r]
        if r and kernel.extent is not None:
            extents[-1] = kernel.extent
        if any(e <= 0 for e in extents):
            continue  # the nest runs no iteration
        for row, shift in kernel.operands:
            g, steps = kernel.rows[row]
            slot, inner = kernel.groups[g]
            o = at + r + g * (1 + r)
            strides = d[o + 1 : o + 1 + r]
            for a, stride in enumerate(inner, split):
                if stride is not None:
                    strides[a] = stride  # the literal the code reads
            lo = hi = d[o] + shift + sum(q * x for q, x in zip(steps, strides))
            base = bases[slot]
            for extent, stride in zip((*extents, batch), (*strides, d[base])):
                reach = (extent - 1) * stride
                lo, hi = lo + min(reach, 0), hi + max(reach, 0)
            yield base, lo, hi
