"""Stencil programs: the iterative loop structure around stencil kernels.

A :class:`StencilProgram` is what the workflow maps onto the FPGA: a time
(iterative) loop whose body executes one or more fused groups of stencil
loops in sequence. For the simple solvers (Poisson, Jacobi) the body is a
single one-kernel group. For RTM the body is one group of four fused-loop
kernels chained through on-chip FIFOs (paper Section V-C).

The program also declares its *external* data contract — which fields cross
the memory boundary each outer pass — because memory traffic, not arithmetic,
bounds most designs.

Groups and programs are frozen, so what they derive from their kernels
(orders, the external and on-chip byte counts, required inputs) is cached
per instance the same way the kernels cache their own analysis (see
:mod:`repro.stencil.kernel`); ``with_mesh`` builds a new instance that
answers for its own mesh.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from functools import cached_property
from typing import Iterator, Mapping, Sequence

from repro.mesh.mesh import MeshSpec
from repro.stencil.kernel import StencilKernel
from repro.util.errors import ValidationError


@dataclass(frozen=True)
class StencilLoop:
    """One stencil loop: a kernel applied over the whole mesh interior."""

    kernel: StencilKernel

    @property
    def name(self) -> str:
        """The kernel's name."""
        return self.kernel.name


@dataclass(frozen=True)
class FusedGroup:
    """Stencil loops fused into one dataflow pipeline pass.

    Within a group, loop ``i+1`` consumes loop ``i``'s outputs through
    on-chip FIFOs and window buffers — intermediate fields never return to
    external memory. Loops execute in list order.
    """

    loops: tuple[StencilLoop, ...]

    def __post_init__(self):
        if not self.loops:
            raise ValidationError("a fused group must contain at least one loop")
        object.__setattr__(self, "loops", tuple(self.loops))

    @cached_property
    def kernels(self) -> tuple[StencilKernel, ...]:
        """Kernels in execution order."""
        return tuple(loop.kernel for loop in self.loops)

    @cached_property
    def order(self) -> int:
        """Max stencil order ``D`` over the group's kernels."""
        return max(k.order for k in self.kernels)

    @cached_property
    def stage_orders(self) -> tuple[int, ...]:
        """Stencil order of each fused stage (used for pipeline fill latency)."""
        return tuple(k.order for k in self.kernels)

    def produced_fields(self) -> tuple[str, ...]:
        """All fields produced by the group, in production order."""
        fields: list[str] = []
        for k in self.kernels:
            for f in k.output_fields:
                if f not in fields:
                    fields.append(f)
        return tuple(fields)


@dataclass(frozen=True)
class StencilProgram:
    """An explicit iterative solver: ``for t in range(niter): run groups``.

    Parameters
    ----------
    name:
        Program name used in reports and generated code.
    mesh:
        The mesh spec the program is defined on (shape may be re-bound at
        run time; rank and components are fixed).
    groups:
        Fused groups executed in order once per time iteration.
    state_fields:
        Fields carried from one iteration to the next (read at the start of
        the body and updated by it), e.g. ``("U",)`` or ``("Y",)``.
    constant_fields:
        Read-only coefficient meshes (e.g. RTM's rho, mu).
    """

    name: str
    mesh: MeshSpec
    groups: tuple[FusedGroup, ...]
    state_fields: tuple[str, ...]
    constant_fields: tuple[str, ...] = ()
    description: str = ""

    def __post_init__(self):
        if not self.groups:
            raise ValidationError(f"program '{self.name}' has no groups")
        object.__setattr__(self, "groups", tuple(self.groups))
        object.__setattr__(self, "state_fields", tuple(self.state_fields))
        object.__setattr__(self, "constant_fields", tuple(self.constant_fields))
        if not self.state_fields:
            raise ValidationError(f"program '{self.name}' declares no state fields")
        produced = set()
        for group in self.groups:
            produced |= set(group.produced_fields())
        for f in self.state_fields:
            if f not in produced:
                raise ValidationError(
                    f"program '{self.name}': state field '{f}' is never produced"
                )
        for f in self.constant_fields:
            if f in produced:
                raise ValidationError(
                    f"program '{self.name}': constant field '{f}' is written by a kernel"
                )
        for kernel in self.kernels():
            if kernel.ndim != self.mesh.ndim:
                raise ValidationError(
                    f"program '{self.name}': kernel '{kernel.name}' rank "
                    f"{kernel.ndim} does not match mesh rank {self.mesh.ndim}"
                )

    # -- structure ------------------------------------------------------------
    def kernels(self) -> Iterator[StencilKernel]:
        """All kernels over all groups, in execution order."""
        for group in self.groups:
            yield from group.kernels

    @property
    def num_stencil_loops(self) -> int:
        """Total fused stencil loops per iteration."""
        return sum(len(g.loops) for g in self.groups)

    @cached_property
    def order(self) -> int:
        """Program stencil order ``D``: max over all kernels."""
        return max(k.order for k in self.kernels())

    @cached_property
    def fused_stage_orders(self) -> tuple[int, ...]:
        """Orders of every fused stage in one iteration, in execution order.

        The iterative pipeline's fill latency per unrolled iteration is the
        sum of each stage's ``D/2`` rows/planes (not just the max), because
        the stages are chained back to back.
        """
        orders: list[int] = []
        for group in self.groups:
            orders.extend(group.stage_orders)
        return tuple(orders)

    # -- external memory contract ----------------------------------------------
    def external_reads(self) -> tuple[str, ...]:
        """Fields streamed in from external memory each pass: state + constants."""
        return tuple(self.state_fields) + tuple(self.constant_fields)

    def external_writes(self) -> tuple[str, ...]:
        """Fields streamed back to external memory each pass: the state."""
        return tuple(self.state_fields)

    @cached_property
    def _external_bytes_per_cell(self) -> int:
        streamed = self.external_reads() + self.external_writes()
        return sum(self._stream_bytes(f) for f in streamed)

    def bytes_per_cell_pass(self) -> int:
        """External bytes moved per mesh point per outer pass (read + write)."""
        return self._external_bytes_per_cell

    def _field_components(self, field: str) -> int:
        """Components of a constant field (assumed scalar unless a kernel says otherwise)."""
        return 1

    def _stream_bytes(self, field: str) -> int:
        """Bytes of one element of ``field`` as it streams through the pipeline."""
        if field in self.constant_fields:
            return self.mesh.dtype.itemsize * self._field_components(field)
        return self.mesh.elem_bytes

    # -- on-chip buffering ------------------------------------------------------
    @cached_property
    def window_lines(self) -> int:
        """Rows (2D) or planes (3D) one compute module holds in window buffers.

        The paper's rule (Section III): a stage buffers ``D_f`` lines of every
        input it reads as a stencil; self-stencil inputs stream straight through.
        """
        return sum(
            p.order for k in self.kernels() for p in k.spec().buffered_fields()
        )

    @cached_property
    def module_line_bytes(self) -> int:
        """On-chip bytes of ONE compute module per mesh point of a buffered line.

        Per fused stage: its window buffers, each as wide as the field's
        streamed element. Fields that bypass a stage to feed later stages
        (constants and the carried state in RTM) are delayed by the stage's
        ``D/2`` latency in FIFOs of the same width. Times the points of one
        row (2D) or plane (3D) this is the module's buffer footprint — for a
        one-kernel scalar program exactly the paper's ``k * D`` of eq. (7).
        """
        kernels = tuple(self.kernels())
        bypass = sum(
            self._stream_bytes(f) for f in self.constant_fields + self.state_fields
        )
        total = 0
        for kernel in kernels:
            for pattern in kernel.spec().buffered_fields():
                total += pattern.order * self._stream_bytes(pattern.field)
        for kernel in kernels[:-1]:
            total += max(1, kernel.order // 2) * bypass
        return total

    @cached_property
    def required_inputs(self) -> tuple[str, ...]:
        """Fields the program reads before (or without) producing them.

        The interpreter resolves reads against whatever the caller bound, not
        just the declared external contract, so a plan must bind the same
        set: every kernel read and ``init_from`` source that no earlier output
        satisfies.
        """
        produced: set[str] = set()
        required: list[str] = []

        def need(name: str) -> None:
            if name not in produced and name not in required:
                required.append(name)

        for kernel in self.kernels():
            for name in kernel.read_fields():
                need(name)
            # init_from resolves against the environment at *kernel entry*
            # (exactly apply_kernel): an earlier output of the same kernel
            # does not satisfy it, so defer marking this kernel's outputs
            # as produced until all of them have been scanned
            for out in kernel.outputs:
                if out.init_from is not None:
                    need(out.init_from)
            for out in kernel.outputs:
                produced.add(out.field)
        return tuple(required)

    def intermediate_fields(self) -> tuple[str, ...]:
        """Fields produced but not part of the external contract (on-chip only)."""
        produced: list[str] = []
        for group in self.groups:
            for f in group.produced_fields():
                if f not in produced:
                    produced.append(f)
        external = set(self.external_writes())
        return tuple(f for f in produced if f not in external)

    def coefficient_values(self) -> Mapping[str, float]:
        """Merged coefficient defaults over all kernels."""
        merged: dict[str, float] = {}
        for kernel in self.kernels():
            for name, value in kernel.coefficients.items():
                if name in merged and merged[name] != value:
                    raise ValidationError(
                        f"program '{self.name}': conflicting defaults for coefficient '{name}'"
                    )
                merged[name] = value
        return merged

    def with_mesh(self, mesh: MeshSpec) -> "StencilProgram":
        """Re-bind the program to a different mesh shape (same rank/components)."""
        if mesh.ndim != self.mesh.ndim:
            raise ValidationError(
                f"cannot re-bind {self.mesh.ndim}D program to {mesh.ndim}D mesh"
            )
        return StencilProgram(
            self.name,
            mesh,
            self.groups,
            self.state_fields,
            self.constant_fields,
            self.description,
        )


def single_kernel_program(
    name: str,
    mesh: MeshSpec,
    kernel: StencilKernel,
    description: str = "",
) -> StencilProgram:
    """Wrap one ping-pong kernel into a program (Poisson/Jacobi shape)."""
    if len(kernel.output_fields) != 1:
        raise ValidationError(
            "single_kernel_program expects a one-output kernel; "
            f"'{kernel.name}' produces {kernel.output_fields}"
        )
    group = FusedGroup((StencilLoop(kernel),))
    return StencilProgram(
        name, mesh, (group,), kernel.output_fields, (), description
    )
