"""Compiled stencil execution: bound plans, plan cache, drop-in runner.

:class:`CompiledProgram` binds a :class:`~repro.stencil.plan.ProgramPlan` to
concrete preallocated NumPy buffers and executes it. All views, scratch
registers and scalar operands are resolved **once** at bind time — scalars
are pre-wrapped as 0-d arrays so the ufunc machinery never allocates a
wrapper per call — and the steady-state iteration loop is a flat sequence of
``ufunc(a, b, out)`` invocations that allocates no arrays (asserted in the
test suite via ``tracemalloc``; the only heap traffic is a few bytes of
errstate bookkeeping around flat-mode runs).

Batches of same-spec meshes execute **batch-major**: :func:`run_program_stacked`
stacks meshes on a true leading axis and replays one tape over each stack,
so every op vectorises across a whole stack in a single NumPy call (the
software analogue of the paper's back-to-back batch streaming, Section IV-B
eq. (15)). Batches whose stacked working set would spill out of cache are
executed in footprint-bounded chunks (:func:`stacked_chunk_sizes`) rather
than falling all the way back to per-mesh replay.

:class:`CompiledPlanCache` memoizes compiled programs by execution
semantics: ``(program structure, bound field specs, coefficient bindings,
batch)``.
Repeated runs — DSE trials, batched meshes, tiled blocks, pipeline passes —
compile once and replay the tape. A module-level :data:`DEFAULT_CACHE` is
shared by every execution path (pipeline, tiler, scheduler, accelerator) so
a program compiled anywhere is warm everywhere.

:func:`run_program_compiled` (one mesh) and :func:`run_program_stacked` (a
batch) are the two entry points that decide how meshes run, on every
engine — the golden interpreter included, which they run mesh by mesh; the
dataflow layers above them make one call and never branch on the engine.

Results are bit-identical (``np.array_equal``) to the tree-walking golden
interpreter in :mod:`repro.stencil.numpy_eval`; the equivalence is asserted
across every registered application and execution path in the test suite.
Bindings the plan model cannot reproduce exactly — inputs whose dtypes are
not uniform, where the interpreter's NumPy promotion rules apply — fall
back to the interpreter inside :func:`run_program_compiled`.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import replace
from typing import Callable, Iterator, Mapping, Sequence

import numpy as np

from repro import observability as obs
from repro.mesh.mesh import Field, MeshSpec
from repro.resilience.cancel import CancelToken
from repro.stencil.plan import (
    FlatView,
    ProgramPlan,
    Reg,
    RegWindow,
    View,
    lower_program,
    program_token,
)
from repro.stencil.program import StencilProgram
from repro.util.errors import ValidationError

#: execution engine names accepted across the dataflow layers. "parallel"
#: shares the compiled plans and is bit-identical to "compiled"; it differs
#: only in *dispatch* — batches fan their stacked chunks across a worker
#: pool (:mod:`repro.parallel`) instead of replaying them back to back.
#: "native" also shares the plans and stays bit-identical; it differs only
#: in *replay* — every tape runs as generated loop nests
#: (:mod:`repro.stencil.native`) instead of per-op Python dispatch
ENGINES = ("compiled", "interpreter", "parallel", "native")

_UFUNCS = {
    "add": np.add,
    "sub": np.subtract,
    "mul": np.multiply,
    "div": np.divide,
    "neg": np.negative,
}

#: a bound tape op: ``fn(*args)`` with the out array included in ``args``
BoundOp = tuple[Callable, tuple]

#: FP-warning suppression for plans with flat-mode ops: their ghost lanes
#: (wrapped neighbours) can hit overflow/invalid values the interpreter
#: never computes
_FLAT_ERRSTATE = {"over": "ignore", "invalid": "ignore", "under": "ignore"}


#: the page an array's start is placed within, and the stagger between the
#: starts of one instance's arrays: five cache lines, so slot ``k`` starts
#: ``(5k mod 64)`` lines into a page and an instance's first 64 arrays all
#: start on distinct lines of it
_PAGE = 4096
_STAGGER = 5 * 64


def _placed_array(
    shape: tuple[int, ...], dtype, slot: int, zeroed: bool = False
) -> np.ndarray:
    """A new array of ``shape`` that starts ``slot * _STAGGER`` bytes (mod
    one page) past a page boundary.

    Where an allocator puts two large arrays is an accident. On glibc's
    heap (``MALLOC_MMAP_MAX_=0``; or, for arrays up to 32 MiB, once its
    dynamic mmap threshold has grown past them) a ping-pong pair can land
    16 B apart mod 4096: the stores to ``dst`` then share their low 12
    address bits with the loads of ``src`` that follow them a few
    elements on, and the core stalls those loads as possible conflicts
    (4K aliasing). Giving each of an instance's arrays its own slot keeps
    every pair a fixed, different number of lines apart whatever the
    allocator does. The array is a view into one over-allocation;
    ``zeroed`` takes that from ``np.zeros``, so pages the code never
    touches stay lazily zeroed, never written here.
    """
    dtype = np.dtype(dtype)
    nbytes = int(np.prod(shape)) * dtype.itemsize
    offset = slot * _STAGGER % _PAGE
    raw = (np.zeros if zeroed else np.empty)(nbytes + _PAGE + offset, dtype=np.uint8)
    start = -raw.ctypes.data % _PAGE + offset
    return raw[start : start + nbytes].view(dtype).reshape(shape)


def check_engine(engine: str) -> str:
    """Validate an engine name; returns it unchanged."""
    if engine not in ENGINES:
        raise ValidationError(
            f"unknown execution engine {engine!r}; expected one of {ENGINES}"
        )
    return engine


class CompiledProgram:
    """A plan bound to concrete buffers, ready to iterate.

    ``batch`` stacks ``B`` same-spec meshes **batch-major**: every buffer
    and register gains a true leading axis of extent ``B`` and every tape
    op's view slices only the spatial axes, so one replay of the tape
    advances all ``B`` meshes at once — a single NumPy call per op, zero
    per-mesh Python dispatch (paper Section IV-B, eq. (15): the pipeline
    fill cost is paid once per batch). Because the stacking axis is a real
    leading dimension rather than a concatenation seam, no stencil shift
    can ever read across it: meshes are isolated structurally, not by
    halo bookkeeping.

    The convenience entry points are :meth:`run` (single mesh) and
    :meth:`run_stacked` (batched), both atomic (an internal lock serializes
    concurrent callers sharing a cached instance). The step-wise API
    (:meth:`load` / :meth:`run_iterations` / :meth:`result` /
    :meth:`result_stacked`) exposes the steady-state loop directly, e.g.
    for allocation profiling — it is **not** thread-safe across callers:
    use a private :class:`CompiledPlanCache` (or external locking) when
    stepping an instance by hand.
    """

    def __init__(self, plan: ProgramPlan, batch: int = 1):
        if batch < 1:
            raise ValidationError(f"batch must be positive, got {batch}")
        self.plan = plan
        self.batch = batch
        #: leading batch axis; empty for single-mesh instances so their
        #: buffer shapes (and plans cached before batching existed) are
        #: unchanged
        self._lead: tuple[int, ...] = (batch,) if batch > 1 else ()
        self._batch_index = (slice(None),) * len(self._lead)
        #: placement slots of the arrays this instance allocates
        self._slots = itertools.count()
        self._buffers: dict[str, np.ndarray] = {
            slot: self._new_array(self._lead + shape, zeroed=True)
            for slot, shape in plan.buffers.items()
        }
        #: per-slot flattened per-mesh element count, for stack-extending
        #: flat lane windows across the batch
        self._slot_elems = {
            slot: int(np.prod(shape)) for slot, shape in plan.buffers.items()
        }
        self._registers: dict[tuple, np.ndarray] = {}
        self._constants: dict[tuple, np.ndarray] = {}
        #: the bound tapes; None while nothing replays them
        self._warm: tuple[tuple[BoundOp, ...], ...] | None = None
        self._steady: tuple[tuple[BoundOp, ...], tuple[BoundOp, ...]] | None = None
        #: plans with flat-mode ops iterate under FP-warning suppression
        self._suppress_fp = any(
            op.flat for tape in plan.warm + plan.steady for op in tape
        )
        self._iterations_done = 0
        self._lock = threading.Lock()
        self._bind_executor()

    def _bind_executor(self) -> None:
        """Make the instance runnable; here, by binding the tape replay."""
        self._bind_tapes()

    def _new_array(self, shape: tuple[int, ...], zeroed: bool = False) -> np.ndarray:
        """An array of the plan's dtype in this instance's next placement
        slot (:func:`_placed_array`): every array the instance streams is
        allocated here."""
        return _placed_array(shape, self.plan.mesh.dtype, next(self._slots), zeroed)

    @property
    def nbytes(self) -> int:
        """Resident bytes of the buffers, registers and constants it owns."""
        arrays = (
            list(self._buffers.values())
            + list(self._registers.values())
            + list(self._constants.values())
        )
        return sum(a.nbytes for a in arrays)

    # -- binding -------------------------------------------------------------
    def _allocate_registers(self) -> None:
        """Allocate every plan register not already owned (uninitialised)."""
        for (shape, span), count in self.plan.registers.items():
            # flat lane-window registers (span > 0) extend across the whole
            # stack — one contiguous 1-D array covering all B meshes — so
            # flat ops never pay NumPy's per-row outer-loop cost; canonical
            # registers gain a true leading batch axis instead
            if span and self.batch > 1:
                alloc_shape = (shape[0] + (self.batch - 1) * span,)
            else:
                alloc_shape = self._lead + shape
            for idx in range(count):
                if (shape, span, idx) not in self._registers:
                    self._registers[(shape, span, idx)] = self._new_array(alloc_shape)

    def _bind_tapes(self) -> None:
        """Bind every tape, allocating the registers and splatted constants
        it reads: everything the replay needs beyond the buffers."""
        self._allocate_registers()
        plan = self.plan
        self._warm = tuple(self._bind(tape) for tape in plan.warm)
        self._steady = (
            self._bind(plan.steady[0]), self._bind(plan.steady[1])
        )

    def _bind_arg(self, ref):
        if isinstance(ref, View):
            return self._buffers[ref.slot][self._batch_index + ref.index]
        if isinstance(ref, Reg):
            return self._registers[(ref.shape, ref.span, ref.idx)]
        if isinstance(ref, FlatView):
            # one contiguous lane window across the whole stack: the lead
            # axis is outermost in C order, so flattening concatenates the
            # meshes and the per-mesh window extends by (B-1) mesh strides.
            # Lanes straddling a mesh seam compute discarded ghost values,
            # exactly like the row-wrap lanes within one mesh.
            stop = ref.stop
            if self.batch > 1:
                stop += (self.batch - 1) * self._slot_elems[ref.slot]
            return self._buffers[ref.slot].reshape(-1)[ref.start : stop]
        if isinstance(ref, RegWindow):
            base = self._registers[(ref.reg.shape, ref.reg.span, ref.reg.idx)]
            itemsize = base.itemsize
            if ref.reg.span and self.batch > 1:
                # stack-extended flat register: mesh b's lanes start one
                # mesh span (N lanes) after mesh b-1's
                lead_shape: tuple[int, ...] = (self.batch,)
                lead_strides: tuple[int, ...] = (ref.reg.span * itemsize,)
            else:
                lead_shape = self._lead
                lead_strides = base.strides[: len(self._lead)]
            return np.lib.stride_tricks.as_strided(
                base[..., ref.offset :],
                shape=lead_shape + ref.shape,
                strides=lead_strides + tuple(s * itemsize for s in ref.strides),
            )
        # folded scalar: pre-wrap as a 0-d array so ufunc calls do not
        # allocate a fresh wrapper every iteration
        return np.asarray(ref)

    def _expand_scalar(self, value: np.generic, shape: tuple[int, ...]) -> np.ndarray:
        """A full constant array for a folded scalar operand.

        The 0-d broadcast path of a ufunc costs ~3x a same-shape operand;
        splatting the constant once at bind time keeps the steady loop on
        the fast path. Elementwise results are unchanged. Arrays are shared
        across ops by (bit pattern, shape); batched instances splat one
        per-mesh array and let the ufunc broadcast it over the cheap
        leading batch axis.
        """
        key = (value.tobytes(), shape)
        arr = self._constants.get(key)
        if arr is None:
            arr = self._constants[key] = self._new_array(shape)
            arr.fill(value)
        return arr

    def _bind(self, tape) -> tuple[BoundOp, ...]:
        bound: list[BoundOp] = []
        for op in tape:
            dest = self._bind_arg(op.dest)
            if op.op in _UFUNCS:
                # canonical dests carry the leading batch axis (constants
                # broadcast over it); stack-extended flat registers do not
                if isinstance(op.dest, Reg) and op.dest.span:
                    const_shape = dest.shape
                else:
                    const_shape = dest.shape[len(self._lead) :]
                args = tuple(
                    self._expand_scalar(a, const_shape)
                    if isinstance(a, np.generic)
                    else self._bind_arg(a)
                    for a in op.args
                ) + (dest,)
                bound.append((_UFUNCS[op.op], args))
            else:  # copy / fill
                bound.append((np.copyto, (dest, self._bind_arg(op.args[0]))))
        return tuple(bound)

    # -- step-wise API --------------------------------------------------------
    def _stacked_view(self, buf: np.ndarray) -> np.ndarray:
        """A ``(B, *per-mesh storage)`` view of a buffer, for any batch."""
        return buf.reshape((self.batch,) + buf.shape[len(self._lead) :])

    def _load_expansions(self, inputs: Mapping[str, np.ndarray]) -> None:
        """Fill the ``inx:`` broadcast buffers from the input arrays
        (``inputs``: input name -> array, wherever the input lives).

        Each expansion splats one fixed component of an input field across
        the consuming run's component axis (flat-mode merged runs need
        every operand at the same element stride); inputs never rotate, so
        load time is the only point the expansions can change.
        """
        for slot, (fname, comp) in self.plan.expansions.items():
            np.copyto(self._buffers[slot], inputs[fname][..., comp : comp + 1])

    def _input_buffer(self, name: str) -> np.ndarray:
        """The ``in:`` buffer input ``name`` is copied into. An instance
        that reads its inputs in place drops these at bind time; the first
        copy that needs one allocates it again."""
        slot = f"in:{name}"
        buf = self._buffers.get(slot)
        if buf is None:
            buf = self._buffers[slot] = self._new_array(
                self._lead + self.plan.buffers[slot]
            )
        return buf

    def _input_arrays(
        self, fields: Mapping[str, Field | np.ndarray]
    ) -> dict[str, np.ndarray]:
        """Input name -> the caller's array, checked against the plan's
        input buffer shape and dtype."""
        arrays = {}
        for name in self.plan.inputs:
            field = fields.get(name)
            if field is None:
                raise ValidationError(f"field '{name}' is not bound")
            data = field.data if isinstance(field, Field) else np.asarray(field)
            shape = self._lead + self.plan.buffers[f"in:{name}"]
            if data.shape != shape:
                raise ValidationError(
                    f"field '{name}' shape {data.shape} does not match "
                    f"the compiled plan's shape {shape}"
                    + (
                        f" (batch-major: {self.batch} meshes stacked on a "
                        f"leading axis)"
                        if self.batch > 1
                        else ""
                    )
                )
            if data.dtype != self.plan.mesh.dtype:
                # a silent cast here would diverge from the interpreter,
                # which computes with NumPy promotion on the native dtypes
                raise ValidationError(
                    f"field '{name}' dtype {data.dtype} does not match "
                    f"the compiled plan's dtype {self.plan.mesh.dtype}; "
                    f"mixed-dtype bindings run on the interpreter"
                )
            arrays[name] = data
        return arrays

    def load(self, fields: Mapping[str, Field | np.ndarray]) -> None:
        """Copy the caller's input fields into the plan's input buffers.

        Values may be :class:`Field` instances (per-mesh storage shape) or
        raw arrays; a batched instance expects batch-major stacks of shape
        ``(B, *storage_shape)`` (see :meth:`load_stacked` for loading from
        a sequence of per-mesh environments directly).
        """
        inputs = {}
        for name, data in self._input_arrays(fields).items():
            inputs[name] = self._input_buffer(name)
            np.copyto(inputs[name], data)
        self._load_expansions(inputs)
        self._iterations_done = 0

    def load_stacked(self, batch_fields: Sequence[Mapping[str, Field]]) -> None:
        """Load ``B`` per-mesh environments into the batch-major buffers.

        Copies each mesh's fields straight into its slab of the stacked
        input buffers — no intermediate stacking allocation.
        """
        if len(batch_fields) != self.batch:
            raise ValidationError(
                f"expected {self.batch} batch members, got {len(batch_fields)}"
            )
        inputs = {name: self._input_buffer(name) for name in self.plan.inputs}
        for name, buf in inputs.items():
            stack = self._stacked_view(buf)
            for b, env in enumerate(batch_fields):
                field = env.get(name)
                if field is None:
                    raise ValidationError(
                        f"batch member {b}: field '{name}' is not bound"
                    )
                if field.data.shape != stack.shape[1:]:
                    raise ValidationError(
                        f"batch member {b}: field '{name}' shape "
                        f"{field.data.shape} does not match the compiled "
                        f"plan's mesh shape {stack.shape[1:]}"
                    )
                if field.data.dtype != stack.dtype:
                    raise ValidationError(
                        f"batch member {b}: field '{name}' dtype "
                        f"{field.data.dtype} does not match the compiled "
                        f"plan's dtype {stack.dtype}; mixed-dtype bindings "
                        f"run on the interpreter"
                    )
                np.copyto(stack[b], field.data)
        self._load_expansions(inputs)
        self._iterations_done = 0

    def run_iterations(self, n: int) -> None:
        """Execute ``n`` further iterations; array-allocation-free after warm-up.

        Plans containing flat-mode ops run under :data:`_FLAT_ERRSTATE` for
        the whole call: flat-mode ghost lanes can hit overflow/invalid
        values the interpreter never computes, and the resulting warnings
        would break callers running with warnings-as-errors or
        ``np.errstate(all='raise')``. Results are unaffected and stay
        bit-identical; the trade-off is that genuine FP warnings the
        program would otherwise emit during these iterations are suppressed
        along with the spurious ghost-lane ones. (One errstate toggle per
        call, not per op — the hot loop stays free of per-iteration
        bookkeeping.)
        """
        if self._suppress_fp:
            with np.errstate(**_FLAT_ERRSTATE):
                self._iterate(n)
        else:
            self._iterate(n)

    def _iterate(self, n: int) -> None:
        # warm prefix and steady ping-pong as two flat loops: the steady
        # path does no per-iteration branch or modulo bookkeeping
        done = self._iterations_done
        end = done + n
        warm, steady = self._warm, self._steady
        warm_count = len(warm)
        i = done
        while i < warm_count and i < end:
            for fn, args in warm[i]:
                fn(*args)
            i += 1
        if i < end:
            first, second = steady
            if (i - warm_count) & 1:
                first, second = second, first
            while i + 1 < end:
                for fn, args in first:
                    fn(*args)
                for fn, args in second:
                    fn(*args)
                i += 2
            if i < end:
                for fn, args in first:
                    fn(*args)
        self._iterations_done = end

    def result(
        self, fields: Mapping[str, Field], copy: bool = True
    ) -> dict[str, Field]:
        """The field environment after the iterations run so far.

        Mirrors the interpreter: the caller's bindings, with every produced
        field replaced by a fresh copy of its final buffer. Batched
        instances materialize per-mesh environments via
        :meth:`result_stacked` instead.

        ``copy=False`` skips the per-buffer copies: produced fields alias
        the live ping-pong buffers. For callers that immediately re-copy
        the data themselves (the tiler's write-back) — the aliases are
        invalidated by the instance's next :meth:`load` or iteration.
        """
        if self.batch > 1:
            raise ValidationError(
                "this compiled program is batch-major; use result_stacked()"
            )
        env: dict[str, Field] = dict(fields)
        for fname, slot in self.plan.final_env(self._iterations_done).items():
            spec = self.plan.produced_specs[fname]
            buf = self._buffers[slot]
            env[fname] = Field(fname, spec, buf.copy() if copy else buf)
        return env

    def result_stacked(
        self, batch_fields: Sequence[Mapping[str, Field]], copy: bool = True
    ) -> list[dict[str, Field]]:
        """Per-mesh field environments after the iterations run so far.

        Element ``b`` mirrors what an independent single-mesh run on
        ``batch_fields[b]`` would have returned. ``copy=False`` returns
        per-mesh *views* of the stacked buffers (same aliasing caveats as
        :meth:`result`).
        """
        if len(batch_fields) != self.batch:
            raise ValidationError(
                f"expected {self.batch} batch members, got {len(batch_fields)}"
            )
        envs: list[dict[str, Field]] = [dict(env) for env in batch_fields]
        for fname, slot in self.plan.final_env(self._iterations_done).items():
            spec = self.plan.produced_specs[fname]
            stack = self._stacked_view(self._buffers[slot])
            for b in range(self.batch):
                mesh = stack[b]
                envs[b][fname] = Field(fname, spec, mesh.copy() if copy else mesh)
        return envs

    def final_arrays(self) -> dict[str, np.ndarray]:
        """Batch-major ``(B, *storage)`` views of every produced field.

        The raw-buffer counterpart of :meth:`result` / :meth:`result_stacked`
        for callers that marshal results themselves (the parallel workers
        copy these into their returned stacks): no Field wrappers, no
        copies — the views alias the live ping-pong buffers, so read them
        before the next :meth:`load`.
        """
        return {
            fname: self._stacked_view(self._buffers[slot])
            for fname, slot in self.plan.final_env(self._iterations_done).items()
        }

    # -- one-call API ---------------------------------------------------------
    def run(
        self, fields: Mapping[str, Field], niter: int, copy: bool = True
    ) -> dict[str, Field]:
        """Run the full solve: load, iterate ``niter`` times, materialize.

        Inputs are bound for the length of the call by
        :meth:`_bound_inputs`: here copied in as :meth:`load` does; a
        ``cc``-bound :class:`~repro.stencil.native.NativeProgram` reads
        eligible ones where they live instead. Either way the caller's
        arrays are never written, and the instance keeps no reference to
        them once the call returns.
        """
        if niter < 0:
            raise ValidationError(f"niter must be non-negative, got {niter}")
        if niter == 0:
            return dict(fields)
        with self._lock, self._bound_inputs(fields):
            self.run_iterations(niter)
            return self.result(fields, copy=copy)

    @contextmanager
    def _bound_inputs(self, fields: Mapping[str, Field]) -> Iterator[None]:
        """The caller's inputs, readable by the iterations of one
        :meth:`run` call: copied into the instance's input buffers."""
        self.load(fields)
        yield

    def run_stacked(
        self,
        batch_fields: Sequence[Mapping[str, Field]],
        niter: int,
        copy: bool = True,
    ) -> list[dict[str, Field]]:
        """Solve ``B`` same-spec meshes in one tape replay over the stack."""
        if niter < 0:
            raise ValidationError(f"niter must be non-negative, got {niter}")
        if len(batch_fields) != self.batch:
            raise ValidationError(
                f"expected {self.batch} batch members, got {len(batch_fields)}"
            )
        if niter == 0:
            return [dict(env) for env in batch_fields]
        with self._lock:
            self.load_stacked(batch_fields)
            self.run_iterations(niter)
            return self.result_stacked(batch_fields, copy=copy)


class CompiledPlanCache:
    """LRU cache of compiled programs, keyed by execution semantics.

    The key is ``(program token, bound field specs, coefficient bindings)``:
    equal-by-structure programs share entries, different mesh shapes / block
    shapes / dtypes / coefficient overrides get their own. Bounded both by
    entry count and by resident buffer bytes — a sweep over many large
    distinct meshes evicts old plans instead of pinning gigabytes of
    ping-pong buffers in a process-wide cache. Thread-safe.
    """

    def __init__(self, capacity: int = 64, max_bytes: int = 512 * 1024 * 1024):
        if capacity < 1:
            raise ValidationError(f"cache capacity must be positive, got {capacity}")
        if max_bytes < 1:
            raise ValidationError(f"cache max_bytes must be positive, got {max_bytes}")
        self.capacity = capacity
        self.max_bytes = max_bytes
        self._entries: OrderedDict[tuple, CompiledProgram] = OrderedDict()
        #: lowered plans memoized separately from bound instances: plans are
        #: batch-independent, so every batch size of one binding shares one
        #: lowering (and the stacked-dispatch heuristic can read a plan's
        #: footprint without binding any buffers). Plans hold no arrays, so
        #: this memo is bounded by entry count only.
        self._plans: OrderedDict[tuple, ProgramPlan] = OrderedDict()
        #: resident bytes charged per entry, refreshed on every hit: a
        #: native instance that reads its inputs in place allocates an
        #: input buffer when a call first has to copy one
        self._charged: dict[tuple, int] = {}
        self._bytes = 0
        self._lock = threading.Lock()
        #: lookups answered from the cache
        self.hits = 0
        #: lookups that compiled a fresh plan
        self.misses = 0

    def __len__(self) -> int:
        return len(self._entries)

    def _specs(
        self, program: StencilProgram, fields: Mapping[str, Field]
    ) -> tuple[MeshSpec, dict[str, MeshSpec]]:
        """The binding's mesh and the spec of every input it must bind."""
        specs = {}
        for name in program.required_inputs:
            field = fields.get(name)
            if field is None:
                raise ValidationError(
                    f"program '{program.name}' needs field '{name}' bound"
                )
            specs[name] = field.spec
        state = program.state_fields[0]
        mesh = fields[state].spec if state in fields else specs[program.required_inputs[0]]
        return mesh, specs

    def _key(
        self,
        program: StencilProgram,
        specs: Mapping[str, MeshSpec],
        coefficients: Mapping[str, float] | None,
    ) -> tuple:
        known = set()
        for kernel in program.kernels():
            known.update(kernel.coefficients)
        overrides = tuple(
            sorted(
                (name, float(value))
                for name, value in (coefficients or {}).items()
                if name in known
            )
        )
        return (program_token(program), tuple(specs.items()), overrides)

    def plan_for(
        self,
        program: StencilProgram,
        fields: Mapping[str, Field],
        coefficients: Mapping[str, float] | None = None,
    ) -> ProgramPlan:
        """The lowered (but unbound) plan for this binding, memoized.

        Plans are batch-independent, so one lowering serves the single-mesh
        instance and every batch-major instance of the same binding; the
        stacked-dispatch heuristic also reads ``plan.nbytes`` from here
        without allocating any buffers.
        """
        return self._plan(program, *self._specs(program, fields), coefficients)

    def _plan(
        self,
        program: StencilProgram,
        mesh: MeshSpec,
        specs: Mapping[str, MeshSpec],
        coefficients: Mapping[str, float] | None,
    ) -> ProgramPlan:
        key = self._key(program, specs, coefficients)
        with self._lock:
            plan = self._plans.get(key)
            if plan is not None:
                self._plans.move_to_end(key)
                return plan
        with obs.span("plan.compile", program=program.name):
            t0 = time.perf_counter()
            plan = lower_program(program, mesh, specs, coefficients)
        if obs.is_enabled():
            seconds = time.perf_counter() - t0
            obs.observe("plan.compile_seconds", seconds)
            obs.emit(
                "plan.compile",
                program=program.name,
                mesh=list(mesh.shape),
                seconds=seconds,
                plan_bytes=plan.nbytes,
                settle=plan.settle,
                refused=plan.settle_refused,
            )
        with self._lock:
            incumbent = self._plans.get(key)  # racing lowering: keep it
            if incumbent is not None:
                return incumbent
            self._plans[key] = plan
            while len(self._plans) > self.capacity:
                self._plans.popitem(last=False)
        return plan

    def _proxy(
        self,
        program: StencilProgram,
        fields: Mapping[str, Field],
        coefficients: Mapping[str, float] | None,
        batch: int,
    ):
        """The small binding a native candidate is checked on
        (:class:`~repro.stencil.native.Proxy`): the program on
        :func:`~repro.stencil.native.proxy_shape` of its mesh, stacked
        ``min(batch, team + 1)`` deep — one member more than a team splits
        evenly. None when the binding is its own proxy, an input is not
        mesh-shaped, or the proxy mesh leaves no interior: the candidate is
        then checked on the binding itself."""
        from repro.stencil.native import Proxy, proxy_shape, team_size

        mesh, specs = self._specs(program, fields)
        shape = proxy_shape(mesh.shape)
        # a team of at least one splits two members evenly
        proxy_batch = batch if batch <= 2 else min(batch, team_size() + 1)
        if (shape, proxy_batch) == (mesh.shape, batch) or any(
            spec.shape != mesh.shape for spec in specs.values()
        ):
            return None
        proxy_specs = {name: replace(spec, shape=shape) for name, spec in specs.items()}
        proxy_mesh = replace(mesh, shape=shape)
        proxy_program = program.with_mesh(proxy_mesh)
        try:
            plan = self._plan(proxy_program, proxy_mesh, proxy_specs, coefficients)
        except ValidationError:
            return None
        return Proxy(plan, proxy_batch)

    def get(
        self,
        program: StencilProgram,
        fields: Mapping[str, Field],
        coefficients: Mapping[str, float] | None = None,
        batch: int = 1,
        native: bool = False,
    ) -> CompiledProgram:
        """The compiled program for this binding, compiling on first use.

        ``batch > 1`` yields a batch-major instance whose buffers stack
        ``batch`` same-spec meshes on a leading axis (``fields`` is one
        representative mesh environment); the plan is shared across batch
        sizes via :meth:`plan_for`, only the bound buffers differ.

        ``native=True`` yields a :class:`~repro.stencil.native.NativeProgram`
        — same plan, same buffers, generated loop nests, checked on the
        binding's proxy (:meth:`_proxy`) — cached under its own key next to
        the plain instance, so the one-time lowering/JIT cost is paid per
        (binding, batch), not per run.
        """
        key = self._key(program, self._specs(program, fields)[1], coefficients) + (
            batch, native,
        )
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
                self._charge(key, entry)
                self.hits += 1
                obs.inc("plan.cache_hits")
                return entry
        plan = self.plan_for(program, fields, coefficients)
        if native:
            from repro.stencil.native import NativeProgram

            compiled = NativeProgram(
                plan, batch, self._proxy(program, fields, coefficients, batch)
            )
        else:
            compiled = CompiledProgram(plan, batch=batch)
        with self._lock:
            if key in self._entries:  # racing compile: keep the incumbent
                self.hits += 1
                obs.inc("plan.cache_hits")
                self._entries.move_to_end(key)
                return self._entries[key]
            self._entries[key] = compiled
            self._charge(key, compiled)
            self.misses += 1
            obs.inc("plan.cache_misses")
            obs.emit(
                "plan.cache_miss",
                program=program.name,
                batch=batch,
                instance_bytes=compiled.nbytes,
            )
            # evict LRU-first past either bound, but always keep the entry
            # just inserted (even one over-budget plan must be usable)
            while len(self._entries) > 1 and (
                len(self._entries) > self.capacity or self._bytes > self.max_bytes
            ):
                evicted, _ = self._entries.popitem(last=False)
                self._bytes -= self._charged.pop(evicted)
        return compiled

    def _charge(self, key: tuple, entry: CompiledProgram) -> None:
        """Charge ``entry``'s resident bytes now; the caller holds the lock."""
        nbytes = entry.nbytes
        self._bytes += nbytes - self._charged.get(key, 0)
        self._charged[key] = nbytes

    def clear(self) -> None:
        """Drop all entries and memoized plans (buffers are freed with them)."""
        with self._lock:
            self._entries.clear()
            self._plans.clear()
            self._charged.clear()
            self._bytes = 0


#: process-wide cache shared by every default execution path
DEFAULT_CACHE = CompiledPlanCache()

#: default ceiling on a stacked chunk's resident bytes (buffers + registers
#: over all meshes in the chunk). Stacking amortizes per-op Python/ufunc
#: launch cost, which dominates while the working set is cache-resident;
#: past roughly the L2 scale the stacked stream spills and smaller chunks
#: (whose working set still fits) are faster — measured crossover on the
#: batched benchmarks sits between ~0.4 and ~4 MB. Batches too large to
#: stack whole are executed in footprint-bounded chunks rather than
#: replayed per mesh (see :func:`stacked_chunk_sizes`). This is the one
#: stacking budget: only the chunk-cutting entry points read it, and their
#: ``max_stack_bytes=`` overrides it for one call.
STACKED_BYTES_LIMIT = 1 << 20


def stacked_chunk_sizes(
    batch: int, per_mesh_bytes: int, max_bytes: float | None = None
) -> list[int]:
    """Footprint-bounded chunk sizes for stacking ``batch`` meshes.

    The chunk capacity is the largest ``C`` whose stacked working set
    ``C * per_mesh_bytes`` stays within ``max_bytes`` (at least 1: even a
    single over-budget mesh must run); it defaults to
    :data:`STACKED_BYTES_LIMIT`, read here at call time, so every chunk
    schedule resolves its budget in this one place. The batch splits into
    full chunks of that capacity plus one remainder, so every full chunk
    reuses **one** compiled batch-major instance — ``[C, C, ..., r]``
    rather than near-equal sizes, minimizing distinct plan bindings in the
    cache.

    Degenerate ends recover the previous all-or-nothing behaviour: a budget
    covering the whole batch yields ``[batch]`` (one stacked dispatch), a
    budget below one mesh yields ``[1] * batch`` (per-mesh replay).
    """
    if batch < 1:
        raise ValidationError(f"batch must be positive, got {batch}")
    if max_bytes is None:
        max_bytes = STACKED_BYTES_LIMIT
    if max_bytes != max_bytes or max_bytes < 0:  # NaN or negative
        raise ValidationError(f"max_bytes must be >= 0, got {max_bytes}")
    if per_mesh_bytes <= 0 or max_bytes == float("inf"):
        cap = batch
    else:
        cap = int(max_bytes // per_mesh_bytes)
    return _cut(batch, cap)


def team_chunk_sizes(
    batch: int, per_mesh_bytes: int, team: int, max_bytes: float | None = None
) -> list[int]:
    """:func:`stacked_chunk_sizes` with the budget read per core.

    The native engine's members schedule gives each of ``team`` cores
    one batch member at a time, so a core's working set is what one
    stack of the per-core capacity ``max(1, budget // per_mesh_bytes)``
    would hold, and a chunk holds ``team`` of those. A team of one cuts
    exactly as :func:`stacked_chunk_sizes`.
    """
    per_core = stacked_chunk_sizes(batch, per_mesh_bytes, max_bytes)[0]
    return _cut(batch, team * per_core)


def _cut(batch: int, cap: int) -> list[int]:
    """Full chunks of ``cap`` (clamped to ``[1, batch]``), then the rest."""
    cap = max(1, min(batch, cap))
    full, rem = divmod(batch, cap)
    return [cap] * full + ([rem] if rem else [])


def run_program_compiled(
    program: StencilProgram,
    fields: Mapping[str, Field],
    niter: int,
    coefficients: Mapping[str, float] | None = None,
    cache: CompiledPlanCache | None = None,
    engine: str = "compiled",
    copy: bool = True,
) -> dict[str, Field]:
    """Drop-in replacement for the interpreter's ``run_program``.

    Compiles (or reuses) the plan for this binding and replays it. Returns
    the same environment shape as the golden interpreter, with bit-identical
    field contents.

    ``engine="native"`` replays through a
    :class:`~repro.stencil.native.NativeProgram` (generated loop nests,
    still bit-identical); ``engine="interpreter"`` walks the golden
    interpreter; every other value uses the plain tape replay.
    ``copy=False`` returns buffer-aliasing results (see
    :meth:`CompiledProgram.result`).

    Plans compute every op in one dtype, while the interpreter applies
    NumPy's promotion rules to the fields' native dtypes — so a binding
    whose inputs do not all share one dtype (e.g. a float64 constant field
    on a float32 mesh) is handed straight to the golden interpreter rather
    than silently cast.
    """
    if niter < 0:
        raise ValidationError(f"niter must be non-negative, got {niter}")
    for name in program.required_inputs:
        if name not in fields:
            raise ValidationError(
                f"program '{program.name}' needs field '{name}' bound"
            )
    if niter == 0:
        # nothing to run: do not compile (and cache) a plan for it
        return dict(fields)
    dtypes = {
        fields[name].spec.dtype for name in program.required_inputs
    }
    if engine == "interpreter" or len(dtypes) > 1:
        from repro.stencil.numpy_eval import run_program

        return run_program(program, fields, niter, coefficients, engine="interpreter")
    cache = cache if cache is not None else DEFAULT_CACHE
    compiled = cache.get(program, fields, coefficients, native=engine == "native")
    return compiled.run(fields, niter, copy=copy)


def check_stacked_batch(
    program: StencilProgram, batch_fields: Sequence[Mapping[str, Field]]
) -> tuple[tuple[str, ...], Mapping[str, Field]]:
    """Validate a batch for stacked execution; shared with the parallel path.

    Every member must bind all required inputs and all members must share
    one spec per field (stacking is structural — one plan, one buffer
    shape). Returns ``(required input names, representative environment)``.
    """
    if not batch_fields:
        raise ValidationError("batch must contain at least one mesh")
    required = program.required_inputs
    first = batch_fields[0]
    for b, env in enumerate(batch_fields):
        for name in required:
            if name not in env:
                raise ValidationError(
                    f"batch member {b}: program '{program.name}' needs field "
                    f"'{name}' bound"
                )
            if env[name].spec != first[name].spec:
                raise ValidationError(
                    f"all meshes in a batch must share the same spec: field "
                    f"'{name}' has {env[name].spec} in member {b} vs "
                    f"{first[name].spec} in member 0"
                )
    return required, first


def record_dispatch_stats(
    stats: dict | None,
    chunks: Sequence[int],
    backend: str | None = None,
    workers: int | None = None,
    engine: str = "compiled",
) -> None:
    """Write the dispatch-accounting keys and mirror them to the registry.

    The ``stats=`` dict is the per-call **view** — its key contract
    (``chunks``/``dispatches``/``stacked_meshes``, plus
    ``backend``/``workers`` on the parallel paths) is stable and shared by
    the serial and parallel engines. The same quantities feed the
    process-wide :mod:`repro.observability` registry when it is enabled,
    labelled by the dispatching backend (``engine`` on the serial paths,
    which report no backend), so aggregate counters and the per-call dicts
    can never drift apart.
    """
    if stats is not None:
        stats["chunks"] = list(chunks)
        stats["dispatches"] = len(chunks)
        stats["stacked_meshes"] = sum(c for c in chunks if c > 1)
        if backend is not None:
            stats["backend"] = backend
        if workers is not None:
            stats["workers"] = workers
    if obs.is_enabled():
        label = backend if backend is not None else engine
        obs.inc("exec.dispatches", len(chunks), backend=label)
        obs.inc("exec.meshes", sum(chunks), backend=label)
        obs.inc(
            "exec.stacked_meshes",
            sum(c for c in chunks if c > 1),
            backend=label,
        )


def run_program_stacked(
    program: StencilProgram,
    batch_fields: Sequence[Mapping[str, Field]],
    niter: int,
    coefficients: Mapping[str, float] | None = None,
    cache: CompiledPlanCache | None = None,
    max_stack_bytes: float | None = None,
    stats: dict | None = None,
    cancel: CancelToken | None = None,
    engine: str = "compiled",
) -> list[dict[str, Field]]:
    """Solve ``B`` independent same-spec meshes in stacked tape dispatches.

    ``engine="native"`` runs every chunk through generated loop nests
    (:class:`~repro.stencil.native.NativeProgram`); results stay
    bit-identical either way.

    The batch members are stacked batch-major — a true leading axis, so
    meshes can never couple across the stacking boundary — and every tape
    op vectorises over a whole stack in a single NumPy call (paper Section
    IV-B: the pipeline fill latency, and here the whole per-mesh Python
    dispatch, is paid once per stack). Element ``b`` of the returned list
    is bit-identical to ``run_program_compiled(program, batch_fields[b],
    niter)`` — and therefore to the golden interpreter.

    ``max_stack_bytes`` bounds each stack's working set (default
    :data:`STACKED_BYTES_LIMIT`): a batch whose ``B`` meshes exceed it is
    executed in footprint-bounded **chunks** (:func:`stacked_chunk_sizes`)
    — full chunks share one compiled batch-major instance, so a
    large-working-set batch still pays one tape dispatch per chunk instead
    of one per mesh, while each chunk's stream stays cache-resident. A
    budget below one mesh footprint degrades to per-mesh replay; pass
    ``float("inf")`` to force one whole-batch stack (the benchmarks do, to
    measure the mechanism itself). ``engine="native"`` reads the budget
    per core (:func:`team_chunk_sizes` over the OpenMP team), since its
    members schedule gives each core one mesh of a chunk at a time.

    Other per-mesh paths: a single-member batch routes through the
    single-mesh path (sharing its cached plan), and ``engine="interpreter"``
    or bindings with non-uniform input dtypes run each mesh on the golden
    interpreter exactly as :func:`run_program_compiled` would — one
    dispatch per mesh, with ``cancel`` polled between meshes.

    ``stats``, when given, receives the dispatch accounting of the call:
    ``chunks`` (the chunk-size list), ``dispatches`` (tape dispatches
    actually issued — ``len(chunks)``), ``stacked_meshes`` (meshes that
    rode a stack of size > 1) and ``chunk_seconds`` (per-chunk wall-clock
    times, in chunk order — the raw samples behind the mix layer's
    latency percentiles).

    ``cancel``, when given, is polled at every chunk boundary: a set token
    raises :class:`~repro.resilience.ExecutionCancelled` before the next
    chunk dispatches (a chunk already replaying always finishes — tape
    replays are bounded and never torn down mid-flight).
    """
    required, first = check_stacked_batch(program, batch_fields)
    if niter < 0:
        raise ValidationError(f"niter must be non-negative, got {niter}")
    if cancel is not None:
        cancel.raise_if_set("stacked dispatch")

    def _account(chunks: list[int]) -> None:
        record_dispatch_stats(stats, chunks, engine=engine)

    def _timed(chunk_seconds: list[float], index: int, size: int, fn):
        if cancel is not None:
            cancel.raise_if_set(f"stacked chunk {index}")
        with obs.span("exec.chunk", index=index, size=size):
            t0 = time.perf_counter()
            out = fn()
            chunk_seconds.append(time.perf_counter() - t0)
        obs.observe("exec.chunk_seconds", chunk_seconds[-1], backend=engine)
        return out

    chunk_seconds: list[float] = []
    if stats is not None:
        stats["chunk_seconds"] = chunk_seconds

    if niter == 0:
        _account([])
        return [dict(env) for env in batch_fields]
    dtypes = {first[name].spec.dtype for name in required}
    if engine == "interpreter" or len(dtypes) > 1:
        from repro.stencil.numpy_eval import run_program

        _account([1] * len(batch_fields))
        return [
            _timed(
                chunk_seconds, b, 1,
                lambda env=env: run_program(
                    program, env, niter, coefficients, engine="interpreter"
                ),
            )
            for b, env in enumerate(batch_fields)
        ]
    cache = cache if cache is not None else DEFAULT_CACHE
    if len(batch_fields) == 1:
        _account([1])
        return [
            _timed(
                chunk_seconds, 0, 1,
                lambda: run_program_compiled(
                    program, first, niter, coefficients, cache, engine=engine
                ),
            )
        ]
    with obs.span(
        "exec.stacked",
        program=program.name,
        batch=len(batch_fields),
        niter=niter,
        engine=engine,
    ):
        plan = cache.plan_for(program, first, coefficients)
        if engine == "native":
            from repro.stencil.native import team_size

            chunks = team_chunk_sizes(
                len(batch_fields), plan.nbytes, team_size(), max_stack_bytes
            )
        else:
            chunks = stacked_chunk_sizes(
                len(batch_fields), plan.nbytes, max_stack_bytes
            )
        _account(chunks)
        obs.emit(
            "exec.dispatch",
            program=program.name,
            backend=engine,
            chunks=list(chunks),
            niter=niter,
        )
        results: list[dict[str, Field]] = []
        start = 0
        for index, size in enumerate(chunks):
            members = batch_fields[start : start + size]
            start += size
            if size == 1:
                results.append(
                    _timed(
                        chunk_seconds, index, 1,
                        lambda m=members[0]: run_program_compiled(
                            program, m, niter, coefficients, cache, engine=engine
                        ),
                    )
                )
            else:
                compiled = cache.get(
                    program, first, coefficients, batch=size,
                    native=engine == "native",
                )
                results.extend(
                    _timed(
                        chunk_seconds, index, size,
                        lambda c=compiled, m=members: c.run_stacked(m, niter),
                    )
                )
    return results
