"""Stencil kernels: one fused loop body over the mesh.

A :class:`StencilKernel` is the unit the FPGA workflow maps to one pipeline
stage: it reads some fields through window buffers and produces one or more
output fields (the paper's RTM implementation fuses e.g. ``K1 = fpml(...)``
and ``T = Y + K1/2`` into a single loop — that is one kernel with two
outputs here). Later outputs may reference earlier outputs of the same
kernel *at the centre point only* (they are wires in the datapath, not
buffered streams).

Kernels are frozen and their expression trees never change, so everything
derived from the trees — accesses, rank, spec, order, radius, op counts —
is a :func:`functools.cached_property`: computed on first read, once per
instance. The cache sits in the instance ``__dict__`` beside the dataclass
fields, so ``==``, ``repr`` and ``dataclasses.replace`` never see it.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from functools import cached_property
from typing import Mapping, Sequence

from repro.stencil.expr import Coef, Expr, FieldAccess, OpCounts, count_ops, walk
from repro.stencil.spec import AccessPattern, StencilSpec
from repro.util.errors import ValidationError


@dataclass(frozen=True)
class KernelOutput:
    """One output field of a kernel: an expression per component.

    ``init_from`` names the input field whose values pre-fill the output
    array; mesh points not updated by the kernel (the boundary ring of width
    ``radius``) then retain that field's values. For fresh intermediates
    (``init_from=None``) the boundary is zero.
    """

    field: str
    exprs: tuple[Expr, ...]
    init_from: str | None = None

    def __post_init__(self):
        if not self.field:
            raise ValidationError("output field name must be non-empty")
        if not self.exprs:
            raise ValidationError(f"output '{self.field}' has no component expressions")
        for e in self.exprs:
            if not isinstance(e, Expr):
                raise ValidationError(
                    f"output '{self.field}' component expression must be Expr, got {type(e).__name__}"
                )

    @property
    def components(self) -> int:
        """Number of vector components produced."""
        return len(self.exprs)


@dataclass(frozen=True)
class StencilKernel:
    """A named stencil loop body with ordered outputs.

    Parameters
    ----------
    name:
        Kernel name (also used by the HLS code generator).
    outputs:
        Ordered outputs; later outputs may read earlier ones at offset 0.
    coefficients:
        Default values for the named scalar coefficients.
    """

    name: str
    outputs: tuple[KernelOutput, ...]
    coefficients: Mapping[str, float] = dc_field(default_factory=dict)

    def __post_init__(self):
        if not self.name:
            raise ValidationError("kernel name must be non-empty")
        if not self.outputs:
            raise ValidationError(f"kernel '{self.name}' has no outputs")
        object.__setattr__(self, "outputs", tuple(self.outputs))
        object.__setattr__(self, "coefficients", dict(self.coefficients))
        self._validate_local_refs()
        missing = self.coefficient_names() - set(self.coefficients)
        if missing:
            raise ValidationError(
                f"kernel '{self.name}' references coefficients without defaults: {sorted(missing)}"
            )

    @cached_property
    def _leaves(self) -> tuple[tuple[tuple[FieldAccess, ...], ...], frozenset[str]]:
        """The one walk over every tree: each output's field accesses, in
        traversal order, and the names of all coefficients referenced."""
        coefficients: set[str] = set()
        per_output = []
        for out in self.outputs:
            accesses = []
            for expr in out.exprs:
                for node in walk(expr):
                    if isinstance(node, FieldAccess):
                        accesses.append(node)
                    elif isinstance(node, Coef):
                        coefficients.add(node.name)
            per_output.append(tuple(accesses))
        return tuple(per_output), frozenset(coefficients)

    def _validate_local_refs(self) -> None:
        """Outputs may read earlier same-kernel outputs only at the centre point."""
        produced: set[str] = set()
        ndim = self.ndim
        for out, accesses in zip(self.outputs, self._leaves[0]):
            for access in accesses:
                if len(access.offset) != ndim:
                    raise ValidationError(
                        f"kernel '{self.name}': access {access} has rank "
                        f"{len(access.offset)}, kernel is {ndim}D"
                    )
                # Reading a field that an *earlier* output of this kernel
                # produced refers to the freshly computed value, which is
                # a wire in the datapath: centre-point access only.
                # Reading the *current* output's own name refers to the
                # input (previous-iteration) version — the usual
                # ping-pong update U = f(U) — and is unrestricted.
                if access.field in produced and any(access.offset):
                    raise ValidationError(
                        f"kernel '{self.name}': output '{out.field}' reads "
                        f"same-kernel output '{access.field}' at non-zero "
                        f"offset {access.offset}; only centre-point reads of "
                        "earlier outputs are allowed"
                    )
            produced.add(out.field)

    # -- shape properties ---------------------------------------------------------
    @cached_property
    def ndim(self) -> int:
        """Spatial rank, inferred from the first field access."""
        for accesses in self._leaves[0]:
            for access in accesses:
                return len(access.offset)
        raise ValidationError(f"kernel '{self.name}' accesses no fields")

    @property
    def output_fields(self) -> tuple[str, ...]:
        """Names of produced fields, in production order."""
        return tuple(o.field for o in self.outputs)

    def output(self, field: str) -> KernelOutput:
        """The output producing ``field``."""
        for o in self.outputs:
            if o.field == field:
                return o
        raise ValidationError(f"kernel '{self.name}' does not produce '{field}'")

    @cached_property
    def _external_accesses(self) -> tuple[FieldAccess, ...]:
        """Accesses that read kernel *inputs* (not earlier same-kernel outputs).

        A read of a field produced by an earlier output of this kernel is a
        local wire. A read of the current output's own name is the input
        (previous-iteration) version and therefore external.
        """
        produced: set[str] = set()
        external: list[FieldAccess] = []
        for out, accesses in zip(self.outputs, self._leaves[0]):
            external.extend(a for a in accesses if a.field not in produced)
            produced.add(out.field)
        return tuple(external)

    def read_fields(self) -> tuple[str, ...]:
        """External fields read, sorted by name."""
        return tuple(sorted({a.field for a in self._external_accesses}))

    @cached_property
    def _spec(self) -> StencilSpec:
        by_field: dict[str, set[tuple[int, ...]]] = {}
        for access in self._external_accesses:
            by_field.setdefault(access.field, set()).add(access.offset)
        if not by_field:
            raise ValidationError(f"kernel '{self.name}' reads no external fields")
        patterns = tuple(
            AccessPattern(field, tuple(sorted(offsets)))
            for field, offsets in sorted(by_field.items())
        )
        return StencilSpec(patterns)

    def spec(self) -> StencilSpec:
        """Access pattern over external read fields only."""
        return self._spec

    @property
    def order(self) -> int:
        """Stencil order ``D`` of the kernel."""
        return self._spec.order

    @property
    def radius(self) -> tuple[int, ...]:
        """Per-axis stencil radius (paper order)."""
        return self._spec.radius

    # -- cost properties ----------------------------------------------------------
    @cached_property
    def _op_counts(self) -> OpCounts:
        total = OpCounts()
        for out in self.outputs:
            for expr in out.exprs:
                total = total + count_ops(expr)
        return total

    def op_counts(self) -> OpCounts:
        """Total floating-point ops of one mesh-point update (all outputs)."""
        return self._op_counts

    def coefficient_names(self) -> set[str]:
        """All coefficient names referenced by any output expression."""
        return set(self._leaves[1])

    def with_coefficients(self, **values: float) -> "StencilKernel":
        """A copy of the kernel with some coefficient defaults replaced."""
        unknown = set(values) - self.coefficient_names()
        if unknown:
            raise ValidationError(
                f"kernel '{self.name}' has no coefficients {sorted(unknown)}"
            )
        coeffs = dict(self.coefficients)
        coeffs.update(values)
        return StencilKernel(self.name, self.outputs, coeffs)


def single_output_kernel(
    name: str,
    field: str,
    exprs: Sequence[Expr] | Expr,
    coefficients: Mapping[str, float] | None = None,
    init_from: str | None = None,
) -> StencilKernel:
    """Convenience constructor for the common one-output case.

    ``init_from`` defaults to the output field itself when the kernel also
    reads it (the usual ping-pong update ``U = f(U)``).
    """
    if isinstance(exprs, Expr):
        exprs = (exprs,)
    out = KernelOutput(field, tuple(exprs), init_from)
    kernel = StencilKernel(name, (out,), coefficients or {})
    if init_from is None and field in kernel.read_fields():
        out = KernelOutput(field, tuple(exprs), field)
        kernel = StencilKernel(name, (out,), coefficients or {})
    return kernel
