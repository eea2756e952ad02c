"""Declarative parameter spaces for design-space exploration.

A :class:`ParameterSpace` is an ordered set of named, discrete axes.  A
*configuration* is a plain ``dict`` assigning one value per axis — JSON-safe
by construction, so studies can persist and replay them.  The space offers
the primitives every search strategy is built from: full-grid enumeration,
uniform sampling, single-axis neighbour moves and a mixed-radix
index <-> config bijection.

:func:`model_space` binds the generic machinery to the paper's analytic
model: axes for external memory target, vectorization factor ``V``,
iterative unroll ``p``, spatial blocking and (optionally) multi-FPGA board
count.  The ``p`` axis is densified near each per-(memory, V) feasibility
cap, where the optimum designs live (Section V-A).
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from functools import cached_property
from typing import Any, Iterator, Mapping, Sequence

from repro.arch.device import FPGADevice
from repro.model.design import Workload, _p_sweep, v_sweep
from repro.model.resources import gdsp_program, max_unroll, module_mem_bytes
from repro.stencil.program import StencilProgram
from repro.util.errors import ValidationError
from repro.util.units import MHZ
from repro.util.validation import check_positive

#: a configuration: one value per axis, JSON-scalar values only
Config = dict[str, Any]
#: hashable canonical form of a configuration
ConfigKey = tuple[tuple[str, Any], ...]


def config_key(config: Mapping[str, Any]) -> ConfigKey:
    """A hashable, order-independent key for a configuration."""
    return tuple(sorted(config.items()))


@dataclass(frozen=True)
class Parameter:
    """One discrete axis of the design space."""

    name: str
    values: tuple[Any, ...]

    def __post_init__(self):
        if not self.name:
            raise ValidationError("parameter needs a name")
        if not self.values:
            raise ValidationError(f"parameter {self.name!r} has no values")
        if len(set(self.values)) != len(self.values):
            raise ValidationError(f"parameter {self.name!r} has duplicate values")

    @cached_property
    def _positions(self) -> dict[Any, int]:
        """Value -> position on this axis (built on first lookup)."""
        return {value: i for i, value in enumerate(self.values)}

    def index_of(self, value: Any) -> int:
        """Position of ``value`` on this axis."""
        try:
            return self._positions[value]
        except (KeyError, TypeError):  # TypeError: an unhashable value
            raise ValidationError(
                f"{value!r} is not a value of parameter {self.name!r}"
            ) from None


class ParameterSpace:
    """An ordered collection of :class:`Parameter` axes."""

    def __init__(self, parameters: Sequence[Parameter]):
        if not parameters:
            raise ValidationError("a ParameterSpace needs at least one parameter")
        names = [p.name for p in parameters]
        if len(set(names)) != len(names):
            raise ValidationError(f"duplicate parameter names: {names}")
        self.parameters: tuple[Parameter, ...] = tuple(parameters)
        self._by_name = {p.name: p for p in self.parameters}
        #: axis names, in declaration order
        self.names: tuple[str, ...] = tuple(names)

    # -- introspection ------------------------------------------------------------
    def __getitem__(self, name: str) -> Parameter:
        try:
            return self._by_name[name]
        except KeyError:
            raise ValidationError(
                f"no parameter {name!r}; axes: {list(self.names)}"
            ) from None

    def __contains__(self, name: str) -> bool:
        return name in self._by_name

    @property
    def size(self) -> int:
        """Number of configurations on the full grid."""
        n = 1
        for p in self.parameters:
            n *= len(p.values)
        return n

    def validate(self, config: Mapping[str, Any]) -> None:
        """Raise :class:`ValidationError` unless ``config`` lies on the grid."""
        self._digits(config)

    def _digits(self, config: Mapping[str, Any]) -> list[int]:
        """Each axis's position of ``config``'s value; validates ``config``."""
        if config.keys() != self._by_name.keys():
            raise ValidationError(
                f"config axes {sorted(config)} do not match space axes "
                f"{sorted(self.names)}"
            )
        return [p.index_of(config[p.name]) for p in self.parameters]

    # -- enumeration / sampling ---------------------------------------------------
    def grid(self) -> Iterator[Config]:
        """Every configuration, last axis fastest (mixed-radix order)."""
        names = self.names
        for values in itertools.product(*(p.values for p in self.parameters)):
            yield dict(zip(names, values))

    def config_at(self, index: int) -> Config:
        """The configuration at a mixed-radix ``index`` (inverse of :meth:`index_of`)."""
        if not 0 <= index < self.size:
            raise ValidationError(f"index {index} outside grid of size {self.size}")
        config: Config = {}
        for p in reversed(self.parameters):
            index, digit = divmod(index, len(p.values))
            config[p.name] = p.values[digit]
        return {name: config[name] for name in self.names}

    def index_of(self, config: Mapping[str, Any]) -> int:
        """The mixed-radix index of a configuration."""
        index = 0
        for p, digit in zip(self.parameters, self._digits(config)):
            index = index * len(p.values) + digit
        return index

    def sample(self, rng: random.Random) -> Config:
        """One uniformly random configuration."""
        return {p.name: rng.choice(p.values) for p in self.parameters}

    def neighbor(self, config: Mapping[str, Any], rng: random.Random) -> Config:
        """A one-axis, one-step move from ``config`` (clamped at axis ends).

        Axes with a single value never move; if every axis is singular the
        configuration is returned unchanged.
        """
        movable = [
            (p, i)
            for p, i in zip(self.parameters, self._digits(config))
            if len(p.values) > 1
        ]
        if not movable:
            return dict(config)
        p, i = rng.choice(movable)
        step = rng.choice((-1, 1))
        j = min(len(p.values) - 1, max(0, i + step))
        if j == i:  # clamped at an end: step the other way
            j = min(len(p.values) - 1, max(0, i - step))
        out = dict(config)
        out[p.name] = p.values[j]
        return out

    # -- derived spaces -----------------------------------------------------------
    def with_parameter(self, parameter: Parameter) -> "ParameterSpace":
        """A new space with one extra axis appended."""
        return ParameterSpace(self.parameters + (parameter,))

    def fixed(self, **values: Any) -> "ParameterSpace":
        """A new space with the named axes pinned to single values."""
        out = []
        for p in self.parameters:
            if p.name in values:
                p.index_of(values[p.name])  # validates membership
                out.append(Parameter(p.name, (values[p.name],)))
            else:
                out.append(p)
        unknown = set(values) - set(self.names)
        if unknown:
            raise ValidationError(f"cannot fix unknown axes {sorted(unknown)}")
        return ParameterSpace(out)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        axes = ", ".join(f"{p.name}[{len(p.values)}]" for p in self.parameters)
        return f"ParameterSpace({axes}, size={self.size})"


# --------------------------------------------------------------------------- #
# model-bound space construction
# --------------------------------------------------------------------------- #
def model_space(
    program: StencilProgram,
    device: FPGADevice,
    workload: Workload,
    tiled: bool | Sequence[bool] = False,
    boards: Sequence[int] = (1,),
    memories: Sequence[str] | None = None,
    batches: Sequence[int] = (1,),
) -> ParameterSpace:
    """The feasibility-aware design space of the analytic model.

    Axes: ``memory`` (external memory target), ``V`` (powers of two up to
    the bandwidth bound, eq. (4)), ``p`` (densified near the per-(memory, V)
    caps from eqs. (6)/(7)), ``tiled`` (spatial blocking on/off), ``boards``
    (multi-FPGA spatial scaling) and ``batch`` (how many same-shaped meshes
    are streamed back to back per solve, eq. (15) — a *workload* axis: one
    design must serve every batch size well, and the functional path behind
    it is the stacked tape of
    :meth:`~repro.dataflow.accelerator.FPGAAccelerator.run_batch` on the
    design :meth:`repro.dse.evaluate.Evaluator.design_for` returns).  The grid is
    deliberately rectangular — combinations outside a particular
    (memory, V) cap simply evaluate as infeasible, which keeps
    configurations declarative and resumable.
    """
    memories = tuple(memories or device.memory_targets)
    for memory in memories:
        device.memory(memory)  # validates the target exists
    gdsp = gdsp_program(program)
    clock_hz = device.default_clock_mhz * MHZ
    module_bytes = module_mem_bytes(program, workload.mesh.shape)

    v_values: set[int] = {1}
    for memory in memories:
        v_values.update(v_sweep(program, device, memory, clock_hz))
    p_values: set[int] = {1}
    # feasibility checks admit up to the full line-buffer budget (eq. 7)
    hard_mem_p = max(1, device.usable_on_chip_bytes() // module_bytes)
    for V in sorted(v_values):
        # planning caps: DSP at 90% (eq. 6) and line buffers (eq. 7) ...
        p_values.update(_p_sweep(max_unroll(device, V, gdsp, module_bytes)))
        # ... plus the hard-DSP caps the checks actually enforce — the paper's
        # Jacobi synthesized at p=29 against a planning bound of 28, and the
        # optimum regularly sits in that gap, so cover it contiguously
        hard_dsp_p = max(1, device.dsp_blocks // (V * gdsp))
        p_values.update(_dense_cap(min(hard_dsp_p, hard_mem_p)))
        # tiled designs trade buffer for redundancy: DSP bound only
        if _wants_tiling(tiled):
            p_values.update(_p_sweep(max(1, device.usable_dsp() // (V * gdsp))))
            p_values.update(_dense_cap(hard_dsp_p))

    tiled_axis = tuple(tiled) if isinstance(tiled, (tuple, list)) else (bool(tiled),)
    parameters = [
        Parameter("memory", memories),
        Parameter("V", tuple(sorted(v_values))),
        Parameter("p", tuple(sorted(p_values))),
        Parameter("tiled", tiled_axis),
    ]
    _append_scale_axes(parameters, boards, batches)
    return ParameterSpace(parameters)


def _append_scale_axes(
    parameters: list[Parameter], boards: Sequence[int], batches: Sequence[int]
) -> None:
    """Append the optional ``boards``/``batch`` axes (omitted when trivial)."""
    boards_axis = tuple(boards)
    if boards_axis != (1,):
        parameters.append(Parameter("boards", boards_axis))
    batches_axis = tuple(batches)
    if batches_axis != (1,):
        for batch in batches_axis:
            check_positive("batch", batch)
        parameters.append(Parameter("batch", batches_axis))


def mix_space(
    mix,
    device: FPGADevice,
    tiled: bool | Sequence[bool] = False,
    boards: Sequence[int] = (1,),
    memories: Sequence[str] | None = None,
    batches: Sequence[int] = (1,),
    program: StencilProgram | None = None,
) -> ParameterSpace:
    """The union design space of every distinct program in a workload mix.

    A mix-scored study needs one grid that covers each member's sweet spot:
    an RTM member's huge ``G_dsp`` caps feasible unrolls near the bottom of
    a Jacobi member's axis, so a space built from either program alone is
    blind to the other's optimum. This unions the per-program ``V``/``p``
    axes of :func:`model_space` across the mix's distinct specs — the grid
    stays rectangular and declarative; combinations infeasible for *any*
    member simply evaluate as infeasible (the evaluator checks every spec).

    Specs carrying app names resolve their programs through the registry;
    app-less specs rebind ``program`` to their mesh, exactly as
    :class:`~repro.dse.evaluate.Evaluator` does with ``workloads=``.
    """
    from repro.workload import as_mix  # lazy: workload layer is model-free

    mix = as_mix(mix)
    v_values: set[int] = set()
    p_values: set[int] = set()
    tiled_axis: tuple[bool, ...] | None = None
    mems: tuple[str, ...] | None = None
    for spec in mix.group_by_spec():
        if spec.app is None:
            if program is None:
                raise ValidationError(
                    f"workload {spec} names no application; pass program= "
                    f"so app-less specs can be bound"
                )
            prog = program.with_mesh(spec.mesh)
        else:
            prog = spec.program()
        space = model_space(
            prog, device, spec,
            tiled=tiled, boards=(1,), memories=memories, batches=(1,),
        )
        v_values.update(space["V"].values)
        p_values.update(space["p"].values)
        mems = space["memory"].values
        tiled_axis = space["tiled"].values
    parameters = [
        Parameter("memory", mems),
        Parameter("V", tuple(sorted(v_values))),
        Parameter("p", tuple(sorted(p_values))),
        Parameter("tiled", tiled_axis),
    ]
    _append_scale_axes(parameters, boards, batches)
    return ParameterSpace(parameters)


def _dense_cap(cap: int) -> set[int]:
    """The cap's sweep plus every unroll within 8 of it (no gaps at the top)."""
    return set(_p_sweep(cap)) | set(range(max(1, cap - 8), cap + 1))


def _wants_tiling(tiled: bool | Sequence[bool]) -> bool:
    if isinstance(tiled, (tuple, list)):
        return any(tiled)
    return bool(tiled)
