"""Source-level lowering of bound op tapes to fused native kernels.

The compiled engine (:mod:`repro.stencil.compiled`) replays a plan's tapes
as a flat list of ``ufunc(a, b, out)`` calls — allocation-free, but every
op still pays NumPy's fixed dispatch cost and writes its intermediate to a
full scratch register. This module lowers a **bound** tape one level
further, to straight-line source code specialized for one
``(plan, batch)`` binding:

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
3. :func:`emit_c` renders each distinct **kernel** once — a statement
   with its bases renamed to parameter slots (:func:`_kernel`), so the
   warm tapes, both steady parities and every stage of a multi-stage
   update that repeat one nest over different buffers share one function
   — as a loop nest over pointer parameters, and each tape as a call list
   passing its bases' pointers. Expression trees keep the tape's
   association order and the build disables contraction
   (``-ffp-contract=off``), so results stay **bit-identical** to the tape
   replay — and :mod:`repro.stencil.native` verifies that bitwise at bind
   time before trusting the build. A nest whose iterations are
   independent and whose destination is injective (:func:`_parallel_safe`),
   and that has two or more loops over at least ``_OMP_MIN_CELLS`` cells,
   gets ``#pragma omp parallel for schedule(static)`` on its outermost
   loop: the team splits the cells, each computed exactly as before, and
   no value crosses threads. That is the **nests** schedule.
4. A stacked binding (``batch >= 2``) whose every base splits by member
   (:func:`member_strides`: each access carries the leading batch axis,
   each base one member stride, each member's footprint inside its own
   stride) gets the **members** schedule instead: ``repro_run`` forks once,
   on the member loop, and each thread carries its members through every
   requested iteration, warm and steady tapes alike, through per-member
   kernels (lead axis dropped, no inner fork) called with base pointers
   offset by ``m * stride``. No member reads or writes another's elements,
   and within a member the statements, iterations and cells keep their
   order, so every value is computed exactly as by the nests schedule — no
   halo, and no barrier between iterations.

The generated sources embed only plan-derived geometry (shapes, strides,
offsets, folded constants) — never data pointers, and under the members
schedule not the member count either — so one compiled artifact is shared
by every instance of the same plan token (and, on the nests schedule, the
same batch), and survives on disk across processes.
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
def _c_index(offset: int, strides: Sequence[int]) -> str:
    parts = [str(offset)] if offset else []
    for axis, stride in enumerate(strides):
        if stride:
            parts.append(f"i{axis}*{stride}" if stride != 1 else f"i{axis}")
    return " + ".join(parts) if parts else "0"


def _c_expr(expr, suffix: str, load_strides) -> str:
    """``load_strides`` yields the normalized strides of each load, in the
    order this renderer visits them (expression order)."""
    if isinstance(expr, Const):
        return expr.hex + suffix
    if isinstance(expr, Load):
        a = expr.access
        return f"b{a.base}[{_c_index(a.offset, next(load_strides))}]"
    sym = {"add": "+", "sub": "-", "mul": "*", "div": "/"}
    if expr.op == "neg":
        return f"(-{_c_expr(expr.args[0], suffix, load_strides)})"
    lhs, rhs = expr.args
    return (
        f"({_c_expr(lhs, suffix, load_strides)} {sym[expr.op]} "
        f"{_c_expr(rhs, suffix, load_strides)})"
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


def _kernel(stmt: Statement) -> tuple[Statement, tuple[int, ...]]:
    """``stmt`` with its bases renamed to parameter slots, and its bases in
    slot order: the unit of code emission.

    Slots number the statement's bases by first appearance — the
    destination, then the loads in expression order — a bijection, so two
    statements share a kernel only when they are the same nest over the
    same alias pattern (an in-place update and a read of another base stay
    apart), and every verdict drawn from base equality
    (:func:`_independent_iterations`, :func:`_parallel_safe`) reads the
    same on the kernel as on the statement.
    """
    slots: dict[int, int] = {}

    def rename(a: Access) -> Access:
        return Access(slots.setdefault(a.base, len(slots)), a.offset, a.shape, a.strides)

    dest = rename(stmt.dest)
    return Statement(dest, _map_loads(stmt.expr, lambda a: Load(rename(a)))), tuple(slots)


def _emit_kernel_c(
    kernel: Statement, dtype: np.dtype, lines: list[str], members: bool
) -> None:
    """One loop nest over the kernel's slot pointers ``b0, b1, ...``; a
    member kernel (``members``, lead axis already dropped) never forks."""
    shape, strides = _normalize(kernel)
    indent = "  "
    ivdep = _independent_iterations(kernel)
    # the outer loop of a large nest forks a team in place of its ivdep
    # (GCC takes one pragma before a `for`; only the innermost loop
    # vectorizes). Flat nests stay serial: forking RTM's lane statements
    # cost the batched mix more than their split saved
    fork = (
        not members
        and len(shape) > 1
        and math.prod(shape) >= _OMP_MIN_CELLS
        and _parallel_safe(kernel)
    )
    for axis, extent in enumerate(shape):
        if fork and axis == 0:
            lines.append(f"{indent}#pragma omp parallel for schedule(static)")
        elif ivdep:
            lines.append(f"{indent * (axis + 1)}#pragma GCC ivdep")
        lines.append(
            f"{indent * (axis + 1)}for (int64_t i{axis} = 0; "
            f"i{axis} < {extent}; ++i{axis})"
        )
    body_indent = indent * (len(shape) + 1)
    dest_idx = _c_index(kernel.dest.offset, strides[0])
    suffix = "f" if dtype == np.dtype(np.float32) else ""
    expr = _c_expr(kernel.expr, suffix, iter(strides[1:]))
    lines.append(f"{body_indent}b{kernel.dest.base}[{dest_idx}] = {expr};")


def _numbered(items) -> dict:
    """Each distinct item, numbered by first appearance."""
    return {item: n for n, item in enumerate(dict.fromkeys(items))}


def unique_statements(ir: NativeIR) -> dict[Statement, int]:
    """Each distinct statement of the IR, numbered by first appearance."""
    return _numbered(stmt for tape in ir.tapes for stmt in tape)


def _kernel_tapes(
    ir: NativeIR, members: dict[int, int] | None
) -> list[list[tuple[Statement, tuple[int, ...]]]]:
    """Per tape, each statement's kernel and bases (:func:`_kernel`) —
    member ``m``'s part of it under the members schedule."""
    return [
        [_kernel(stmt if members is None else _member_statement(stmt)) for stmt in tape]
        for tape in ir.tapes
    ]


def kernels(ir: NativeIR) -> dict[Statement, int]:
    """Each distinct kernel of the IR, numbered by first appearance: one
    emitted function each."""
    tapes = _kernel_tapes(ir, member_strides(ir))
    return _numbered(kernel for tape in tapes for kernel, _ in tape)


def emit_c(ir: NativeIR) -> str:
    """C source for every tape of the instance.

    Each distinct kernel (:func:`_kernel`: a statement with its bases
    renamed to parameter slots) is one ``noinline`` function holding its
    loop nest, over pointer parameters ``b0, b1, ...`` — warm and steady
    tapes, both parities and the stages of a multi-stage update repeat
    the same nests over different buffers, and compiling each nest once
    keeps the build's time and memory near one tape's. A tape is the list
    of its calls, each passing its bases' pointers from the table, and
    ``repro_run(void**, k0, n, batch)`` executes iterations ``k0 .. k0+n``
    by **absolute** index — warm tape ``k`` while ``k < len(warm)``, then
    the steady pair by parity — so a whole ``run_iterations`` stretch is
    one foreign call. ``repro_threads()`` is the team size a forked loop
    runs on.

    Under the members schedule (:func:`member_strides`) each kernel is one
    member's nest, called with every pointer offset by ``m * stride``, and
    ``repro_run`` forks once, on the loop over its ``batch`` members
    around the iteration loop — the member count is an argument, so every
    stacked binding of one plan shares one source. Otherwise (the nests
    schedule) ``batch`` is unused and large nests fork inside their own
    functions.
    """
    ctype = "float" if ir.dtype == np.dtype(np.float32) else "double"
    lines = [
        "#include <stdint.h>", "#include <omp.h>", "",
        f"typedef {ctype} real_t;", "",
        "int repro_threads(void) { return omp_get_max_threads(); }", "",
    ]
    members = member_strides(ir)
    tapes = _kernel_tapes(ir, members)
    numbered = _numbered(kernel for tape in tapes for kernel, _ in tape)
    for kernel, k in numbered.items():
        slots = 1 + max(a.base for a in (kernel.dest, *_expr_loads(kernel.expr)))
        params = ", ".join(f"real_t* b{slot}" for slot in range(slots))
        lines.append(f"static __attribute__((noinline)) void s{k}({params}) {{")
        _emit_kernel_c(kernel, ir.dtype, lines, members is not None)
        lines += ["}", ""]

    def pointer(b: int) -> str:
        shift = f" + m * {members[b]}" if members is not None else ""
        return f"(real_t*)P[{b}]{shift}"

    warm = len(ir.warm)
    lines.append("void repro_run(void** P, int64_t k0, int64_t n, int64_t batch) {")
    if members is not None:
        lines += [
            "  #pragma omp parallel for schedule(static)",
            "  for (int64_t m = 0; m < batch; ++m)",
        ]
    lines += [
        "  for (int64_t k = k0; k < k0 + n; ++k) {",
        f"    switch (k < {warm} ? k : {warm} + ((k - {warm}) & 1)) {{",
    ]
    for t, tape in enumerate(tapes):
        lines.append(f"      case {t}:")
        lines += [
            f"        s{numbered[kernel]}({', '.join(map(pointer, bases))});"
            for kernel, bases in tape
        ]
        lines.append("        break;")
    lines += ["    }", "  }", "}", ""]
    return "\n".join(lines)
