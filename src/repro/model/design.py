"""Design points and design-space exploration.

A :class:`DesignPoint` fixes everything the workflow must choose before
synthesis: vectorization factor ``V``, iterative unroll depth ``p``, target
clock, external memory system and (optionally) a spatial-blocking tile.
:func:`explore_designs` enumerates feasible points for a program/workload on
a device and ranks them by predicted runtime — the "model significantly
narrows the design space" step of the paper (Section V-A).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.arch.clocking import DEFAULT_CLOCK_MODEL, ClockModel
from repro.arch.device import FPGADevice
from repro.mesh.mesh import MeshSpec
from repro.model.bandwidth import feasible_vectorization
from repro.model.resources import (
    DEFAULT_DSP_COSTS,
    DSPCostModel,
    ResourceReport,
    gdsp_program,
    max_unroll,
    module_mem_bytes,
    resource_report,
)
from repro.model.tiling import TileDesign, optimal_tile_m, p_max_for_tile
from repro.stencil.program import StencilProgram
from repro.util.errors import InfeasibleDesignError, ValidationError
from repro.util.units import MHZ
from repro.util.validation import check_one_of, check_positive
from repro.workload.spec import WorkloadSpec


@dataclass(frozen=True)
class DesignPoint:
    """A fully specified accelerator configuration.

    ``initiation_interval`` is the sustained cycles per vector of output once
    the pipeline is full. The simple scalar designs achieve II=1; the RTM
    design's wide (6-float) element struct contends for HBM channel slots
    and sustains II ~ 1.6 (calibrated from the paper's Fig. 5 runtimes).
    """

    V: int
    p: int
    clock_mhz: float
    memory: str = "HBM"
    tile: TileDesign | None = None
    initiation_interval: float = 1.0

    def __post_init__(self):
        check_positive("V", self.V)
        check_positive("p", self.p)
        check_positive("clock_mhz", self.clock_mhz)
        check_one_of("memory", self.memory, ("HBM", "DDR4"))
        if self.initiation_interval < 1.0:
            raise ValidationError(
                f"initiation_interval must be >= 1, got {self.initiation_interval}"
            )

    @property
    def clock_hz(self) -> float:
        """Clock in Hz."""
        return self.clock_mhz * MHZ

    @property
    def is_tiled(self) -> bool:
        """True for spatially blocked designs."""
        return self.tile is not None

    def with_clock(self, clock_mhz: float) -> "DesignPoint":
        """The same design at a different clock."""
        return DesignPoint(
            self.V, self.p, clock_mhz, self.memory, self.tile,
            self.initiation_interval,
        )


#: compatibility alias: the workload layer's frozen spec subsumed this
#: module's original ``Workload`` dataclass (same fields, same positional
#: construction — ``Workload(mesh, niter, batch)`` — plus an optional app
#: name, string grammar and JSON round-trips; see :mod:`repro.workload`)
Workload = WorkloadSpec


class DesignSpace:
    """Feasibility-pruned enumeration of design points for one program."""

    def __init__(
        self,
        program: StencilProgram,
        device: FPGADevice,
        clock_model: ClockModel = DEFAULT_CLOCK_MODEL,
        costs: DSPCostModel = DEFAULT_DSP_COSTS,
    ):
        self.program = program
        self.device = device
        self.clock_model = clock_model
        self.costs = costs
        self.gdsp = gdsp_program(program, costs)
        self._external_fields = len(
            set(program.external_reads()) | set(program.external_writes())
        )

    # -- feasibility ------------------------------------------------------------
    def check(self, design: DesignPoint, workload: Workload) -> None:
        """Raise :class:`InfeasibleDesignError` if the design cannot be built.

        Checks, in order: external capacity, line-buffer capacity (eq. (7)),
        DSP capacity (eq. (6)) and memory-bandwidth feasibility (eq. (4)).
        """
        self.check_resources(design, workload)
        self.check_bandwidth(design)

    def check_resources(self, design: DesignPoint, workload: Workload) -> None:
        """The checks that do not read the clock: capacity, eq. (7), eq. (6).

        A search can run them on the default-clock design and estimate the
        clock (a resource report and a floorplan) only for the survivors.
        """
        bank = self.device.memory(design.memory)
        # all external fields resident, +1 for the ping-pong copy
        resident = workload.footprint_bytes * (self._external_fields + 1)
        if resident > bank.capacity_bytes:
            raise capacity_error(resident, design.memory, bank.capacity_bytes)
        shape = self._buffer_shape(design, workload)
        module_bytes = module_mem_bytes(self.program, shape)
        budget = self.device.usable_on_chip_bytes()
        if design.p * module_bytes > budget:
            raise buffer_error(design.p, module_bytes, budget)
        # feasibility uses the hard device limit; eq. (6)'s 90% budget is a
        # planning guide the synthesized designs may slightly exceed (the
        # paper's Jacobi landed at p=29 against a model bound of 28)
        if design.V * design.p * self.gdsp > self.device.dsp_blocks:
            raise dsp_error(design.V, design.p, self.gdsp, self.device)

    def check_bandwidth(self, design: DesignPoint) -> None:
        """Eq. (4) at the design's clock: can the memory system feed ``V``?"""
        v_max = feasible_vectorization(
            self.program, self.device, design.memory, design.clock_hz
        )
        if design.V > v_max:
            raise bandwidth_error(design.V, design.memory, v_max)

    def is_feasible(self, design: DesignPoint, workload: Workload) -> bool:
        """True when :meth:`check` passes."""
        try:
            self.check(design, workload)
            return True
        except InfeasibleDesignError:
            return False

    def _buffer_shape(self, design: DesignPoint, workload: Workload) -> tuple[int, ...]:
        """The shape whose rows/planes the window buffers must hold."""
        shape = workload.mesh.shape
        if design.tile is None:
            return shape
        if len(shape) == 2:
            return (design.tile.M, shape[1])
        if design.tile.N is None:
            raise ValidationError("3D tiled designs need an (M, N) tile")
        return (design.tile.M, design.tile.N, shape[2])

    # -- enumeration --------------------------------------------------------------
    def candidates(
        self,
        workload: Workload,
        memories: Sequence[str] | None = None,
        v_values: Sequence[int] | None = None,
        tiled: bool = False,
    ) -> Iterable[DesignPoint]:
        """Yield feasible design points (clock from the clock model)."""
        memories = memories or self.device.memory_targets
        for memory in memories:
            vs = v_values or self._default_v_sweep(memory)
            for V in vs:
                if tiled:
                    yield from self._tiled_candidates(workload, memory, V)
                else:
                    yield from self._baseline_candidates(workload, memory, V)

    def _default_v_sweep(self, memory: str) -> list[int]:
        return v_sweep(
            self.program, self.device, memory, self.device.default_clock_mhz * MHZ
        )

    def _baseline_candidates(
        self, workload: Workload, memory: str, V: int
    ) -> Iterable[DesignPoint]:
        module_bytes = module_mem_bytes(self.program, workload.mesh.shape)
        p_cap = max_unroll(self.device, V, self.gdsp, module_bytes)
        for p in _p_sweep(p_cap):
            design = DesignPoint(V, p, self.device.default_clock_mhz, memory)
            design, _ = self.estimate_clock(design, workload)
            if self.is_feasible(design, workload):
                yield design

    def _tiled_candidates(
        self, workload: Workload, memory: str, V: int
    ) -> Iterable[DesignPoint]:
        D = self.program.order
        p_cap = max(1, self.device.usable_dsp() // (V * self.gdsp))
        for p in _p_sweep(p_cap):
            tile = tile_for_unroll(self.program, self.device, workload.mesh, p)
            if min(tile.tile) <= p * D:
                continue
            design = DesignPoint(V, p, self.device.default_clock_mhz, memory, tile)
            design, _ = self.estimate_clock(design, workload)
            if self.is_feasible(design, workload):
                yield design

    def estimate_clock(
        self, design: DesignPoint, workload: Workload
    ) -> tuple[DesignPoint, ResourceReport]:
        """The design at the clock its utilization and SLR span allow.

        Returned with the resource report that set the clock: it depends on
        ``(V, p, buffer shape)`` only, so it is also the report of the clocked
        design and :meth:`RuntimePredictor.predict` need not rebuild it.
        """
        from repro.arch.floorplan import SLRFloorplan

        shape = self._buffer_shape(design, workload)
        report = resource_report(
            self.program, self.device, design.V, design.p, shape, self.costs
        )
        plan = SLRFloorplan(
            self.device,
            design.p,
            design.V * self.gdsp,
            module_mem_bytes(self.program, shape),
        )
        mhz = self.clock_model.estimate_mhz(
            min(1.0, report.binding_utilization), plan.slr_crossings
        )
        return design.with_clock(mhz), report


def capacity_error(resident: int, memory: str, capacity: int) -> InfeasibleDesignError:
    """The external-capacity rejection: ``resident`` bytes exceed the bank."""
    return InfeasibleDesignError(
        f"workload needs {resident} bytes resident, {memory} has {capacity}",
        check="capacity",
    )


def buffer_error(p: int, module_bytes: int, budget: int) -> InfeasibleDesignError:
    """The eq. (7) rejection: ``p`` modules' line buffers exceed the budget."""
    return InfeasibleDesignError(
        f"p={p} needs {p * module_bytes} on-chip bytes, budget is {budget} "
        f"(eq. 7 bound: p_mem={budget // module_bytes})",
        check="buffer",
    )


def dsp_error(V: int, p: int, gdsp: int, device: FPGADevice) -> InfeasibleDesignError:
    """The eq. (6) rejection: ``V * p * G_dsp`` exceeds the DSP inventory."""
    return InfeasibleDesignError(
        f"V*p*Gdsp = {V * p * gdsp} DSPs exceeds the device's "
        f"{device.dsp_blocks} (eq. 6 planning bound: "
        f"p_dsp={device.usable_dsp() // (V * gdsp)})",
        check="dsp",
    )


def bandwidth_error(V: int, memory: str, v_max: int) -> InfeasibleDesignError:
    """The eq. (4) rejection: ``memory`` cannot feed ``V`` at the design's clock."""
    return InfeasibleDesignError(
        f"V={V} needs more bandwidth than {memory} supplies "
        f"(eq. 4 bound: V<={v_max})",
        check="bandwidth",
    )


def tile_for_unroll(
    program: StencilProgram, device: FPGADevice, mesh: MeshSpec, p: int
) -> TileDesign:
    """The largest buffer-feasible tile at unroll ``p`` (Section IV-A).

    3D meshes get square ``M x M`` transverse blocks from eq. (11); 2D
    meshes get ``M x n`` row blocks whose ``D`` buffered rows fill the
    budget.  Callers must still reject tiles consumed by the ``p * D``
    halo (``min(tile) <= p * D``).
    """
    mem_budget = device.usable_on_chip_bytes()
    k = mesh.elem_bytes
    D = program.order
    if mesh.ndim == 3:
        M = optimal_tile_m(mem_budget // p, k, 1, D)
        return TileDesign((M, M))
    return TileDesign((max(mem_budget // (p * k * D), 1),))


def v_sweep(
    program: StencilProgram, device: FPGADevice, memory: str, clock_hz: float
) -> list[int]:
    """Power-of-two vectorization factors up to the bandwidth bound (eq. 4)."""
    v_max = feasible_vectorization(program, device, memory, clock_hz)
    vs = []
    v = 1
    while v <= v_max:
        vs.append(v)
        v *= 2
    return vs or [1]


def _p_sweep(p_cap: int) -> list[int]:
    """A dense-at-the-top sweep of unroll factors up to ``p_cap``."""
    if p_cap < 1:
        return []
    values = {1, p_cap}
    v = 2
    while v < p_cap:
        values.add(v)
        v *= 2
    # densify near the cap, where the optimum usually lives
    for delta in (1, 2, 4, 8):
        if p_cap - delta >= 1:
            values.add(p_cap - delta)
    return sorted(values)


def explore_designs(
    program: StencilProgram,
    device: FPGADevice,
    workload: Workload,
    tiled: bool = False,
    top_k: int = 5,
    clock_model: ClockModel = DEFAULT_CLOCK_MODEL,
) -> list[tuple[DesignPoint, "object"]]:
    """Enumerate feasible designs and rank by predicted runtime.

    Returns ``[(design, PredictedMetrics), ...]`` sorted fastest first.
    """
    from repro.model.runtime import RuntimePredictor

    space = DesignSpace(program, device, clock_model)
    ranked = []
    for design in space.candidates(workload, tiled=tiled):
        predictor = RuntimePredictor(program, device, design)
        metrics = predictor.predict(workload)
        ranked.append((design, metrics))
    ranked.sort(key=lambda pair: pair[1].seconds)
    return ranked[:top_k]
