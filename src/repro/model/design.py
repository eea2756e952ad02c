"""Design points and design-space exploration.

A :class:`DesignPoint` fixes everything the workflow must choose before
synthesis: vectorization factor ``V``, iterative unroll depth ``p``, target
clock, external memory system and (optionally) a spatial-blocking tile.
:class:`DesignSpace` checks a point's feasibility on a device (eqs. (4),
(6), (7)) and estimates the clock it closes at; :mod:`repro.dse` searches
and ranks the points — the "model significantly narrows the design space"
step of the paper (Section V-A).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.arch.clocking import DEFAULT_CLOCK_MODEL
from repro.arch.device import FPGADevice
from repro.mesh.mesh import MeshSpec
from repro.model.bandwidth import feasible_vectorization
from repro.model.resources import (
    ResourceReport,
    gdsp_program,
    module_mem_bytes,
    resource_report,
)
from repro.model.tiling import TileDesign, optimal_tile_m
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
    """Feasibility checks and clock estimates of design points for one program."""

    def __init__(self, program: StencilProgram, device: FPGADevice):
        self.program = program
        self.device = device
        self.gdsp = gdsp_program(program)
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
        report = resource_report(self.program, self.device, design.V, design.p, shape)
        plan = SLRFloorplan(
            self.device,
            design.p,
            design.V * self.gdsp,
            module_mem_bytes(self.program, shape),
        )
        mhz = DEFAULT_CLOCK_MODEL.estimate_mhz(
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
