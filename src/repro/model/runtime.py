"""Runtime, bandwidth and energy prediction for a design point.

This produces the paper's "FPGA - Pred" series: pure-model estimates with no
measurement in the loop. Cycle counts come from eqs. (2)/(3)/(15) (baseline,
batched) or eqs. (8)/(9) (tiled); tiled designs additionally take a
memory-boundedness correction from the AXI burst model, because short
strided runs cannot reach raw DRAM bandwidth (the effect the paper calls out
on Jacobi, Fig. 4(c)).

Bandwidth convention: the paper reports *logical* traffic — "the total
number of bytes transferred during the execution of the stencil loop
(looking at the mesh data accessed)" divided by loop runtime — so a p-deep
pipeline reports roughly p times the physical DRAM traffic. Both numbers
are exposed here.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.arch.device import FPGADevice
from repro.arch.memory import AXIPort, strided_transfer_efficiency
from repro.mesh.padding import aligned_row_bytes
from repro.model.cycles import pipeline_cycles
from repro.model.design import DesignPoint, Workload
from repro.model.energy import DEFAULT_FPGA_POWER
from repro.model.resources import ResourceReport, resource_report
from repro.model.tiling import TileDesign, plan_blocks, valid_ratio
from repro.stencil.program import StencilProgram
from repro.util.errors import ValidationError
from repro.util.rounding import ceil_div


@dataclass(frozen=True)
class PredictedMetrics:
    """Model outputs for one (design, workload) pair."""

    cycles: float
    seconds: float
    clock_hz: float
    logical_bytes: float
    physical_bytes: float
    power_w: float
    energy_j: float
    resources: ResourceReport
    memory_bound: bool = False

    @property
    def logical_bandwidth(self) -> float:
        """Paper-convention bandwidth: logical bytes / runtime."""
        return self.logical_bytes / self.seconds

    @property
    def physical_bandwidth(self) -> float:
        """Actual external-memory traffic / runtime."""
        return self.physical_bytes / self.seconds


class RuntimePredictor:
    """Predicts runtime/bandwidth/energy of a design on a workload."""

    def __init__(
        self,
        program: StencilProgram,
        device: FPGADevice,
        design: DesignPoint,
        *,
        logical_bytes_per_cell_iter: float | None = None,
    ):
        self.program = program
        self.device = device
        self.design = design
        #: logical (paper-convention) traffic per mesh point per iteration;
        #: defaults to the program's external contract (read+write of state
        #: plus constant reads), which matches the paper for all three apps
        #: except RTM where the full unfused loop-chain traffic is counted.
        self.logical_bytes_per_cell_iter = (
            logical_bytes_per_cell_iter
            if logical_bytes_per_cell_iter is not None
            else float(program.bytes_per_cell_pass())
        )

    # -- cycle models -----------------------------------------------------------
    def compute_cycles(self, workload: Workload) -> float:
        """Pipeline cycles from the analytic model (no memory stalls)."""
        design = self.design
        if design.tile is None:
            return float(
                pipeline_cycles(
                    workload.mesh.shape,
                    workload.niter,
                    design.V,
                    design.p,
                    self.program.fused_stage_orders,
                    workload.batch,
                    design.initiation_interval,
                )
            )
        return self._tiled_cycles(workload) * design.initiation_interval

    def _tiled_cycles(self, workload: Workload) -> float:
        """Plan-based generalization of eq. (9): variable-size edge blocks.

        Eq. (9) assumes every block is full-size; the implemented designs
        shrink edge blocks ("variable sized tiling"), which this sums
        exactly. For meshes that are a multiple of the valid block extent
        the two coincide.
        """
        design = self.design
        tile: TileDesign = design.tile
        D = self.program.order
        shape = workload.mesh.shape
        passes = ceil_div(workload.niter, design.p)
        halo = design.p * D // 2
        fill = design.p * sum(d // 2 for d in self.program.fused_stage_orders)
        plans_m = plan_blocks(shape[0], min(tile.M, shape[0]), halo)
        vectors = sum(ceil_div(b.extent, design.V) for b in plans_m)
        if len(shape) == 2:
            per_pass = vectors * (shape[1] + fill)
        else:
            plans_n = plan_blocks(shape[1], min(tile.N, shape[1]), halo)
            rows = sum(b.extent for b in plans_n)
            per_pass = vectors * rows * (shape[2] + fill)
        return passes * per_pass * workload.batch

    def memory_cycles(self, workload: Workload) -> float:
        """Cycles needed to move the physical traffic through the memory system."""
        physical = self.physical_bytes(workload)
        bank = self.device.memory(self.design.memory)
        port = AXIPort(bus_bits=self.device.axi_bus_bits)
        if self.design.tile is not None:
            run = self.design.tile.M * workload.mesh.elem_bytes
            efficiency = strided_transfer_efficiency(port, run)
        else:
            efficiency = 1.0
        usable = bank.total_bandwidth * efficiency
        seconds = physical / usable
        return seconds * self.design.clock_hz

    # -- traffic ------------------------------------------------------------------
    def physical_bytes(self, workload: Workload) -> float:
        """External bytes actually moved over the whole solve."""
        passes = ceil_div(workload.niter, self.design.p)
        per_cell = self.program.bytes_per_cell_pass()
        cells = workload.total_points
        if self.design.tile is None:
            m = workload.mesh.shape[0]
            pad = aligned_row_bytes(m, workload.mesh.elem_bytes) / (
                m * workload.mesh.elem_bytes
            )
            return passes * per_cell * cells * pad
        # tiled: overlapping blocks re-read the halo; writes are valid-only
        D = self.program.order
        tile = self.design.tile
        if len(workload.mesh.shape) == 2:
            ratio = valid_ratio(tile.M, None, self.design.p, D)
        else:
            ratio = valid_ratio(tile.M, tile.N, self.design.p, D)
        redundancy = 1.0 / ratio
        read_cells = cells * redundancy
        write_cells = cells
        reads = sum(
            workload.mesh.elem_bytes
            if f in self.program.state_fields
            else workload.mesh.dtype.itemsize
            for f in self.program.external_reads()
        )
        writes = workload.mesh.elem_bytes * len(self.program.external_writes())
        # 512-bit alignment at block edges adds one bus word per row run
        run_bytes = tile.M * workload.mesh.elem_bytes
        align_overhead = aligned_row_bytes(tile.M, workload.mesh.elem_bytes) / run_bytes
        return passes * (reads * read_cells + writes * write_cells) * align_overhead

    def logical_bytes(self, workload: Workload) -> float:
        """Paper-convention logical traffic over the whole solve."""
        return (
            self.logical_bytes_per_cell_iter * workload.total_points * workload.niter
        )

    # -- prediction ---------------------------------------------------------------
    def predict(
        self, workload: Workload, resources: ResourceReport | None = None
    ) -> PredictedMetrics:
        """Full model prediction for the workload.

        ``resources`` is the design's :func:`resource_report` on the
        workload's buffer shape when the caller already built it (the clock
        estimate does); it is computed here otherwise.
        """
        if workload.mesh.ndim != self.program.mesh.ndim:
            raise ValidationError(
                f"workload mesh rank {workload.mesh.ndim} does not match program "
                f"rank {self.program.mesh.ndim}"
            )
        compute = self.compute_cycles(workload)
        memory = self.memory_cycles(workload)
        cycles = max(compute, memory)
        seconds = cycles / self.design.clock_hz
        if resources is None:
            shape = workload.mesh.shape
            if self.design.tile is not None:
                if len(shape) == 2:
                    shape = (self.design.tile.M, shape[1])
                else:
                    shape = (self.design.tile.M, self.design.tile.N, shape[2])
            resources = resource_report(
                self.program, self.device, self.design.V, self.design.p, shape
            )
        power = DEFAULT_FPGA_POWER.watts(
            self.device,
            dsp_used=resources.dsp_used,
            mem_used_bytes=resources.mem_used_bytes,
            clock_hz=self.design.clock_hz,
            channels_active=2,
        )
        return PredictedMetrics(
            cycles=cycles,
            seconds=seconds,
            clock_hz=self.design.clock_hz,
            logical_bytes=self.logical_bytes(workload),
            physical_bytes=self.physical_bytes(workload),
            power_w=power,
            energy_j=power * seconds,
            resources=resources,
            memory_bound=memory > compute,
        )
