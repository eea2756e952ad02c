"""Top-level simulated FPGA accelerator.

:class:`FPGAAccelerator` plays the role of the synthesized bitstream plus
host runtime: configure it with a program and a design point, hand it host
data, and it returns results (bit-identical to the golden model) together
with a :class:`SimReport` of structural cycles, runtime, bandwidth, power
and energy. The report corresponds to the paper's *measured* series, while
:class:`~repro.model.runtime.RuntimePredictor` produces the *predicted*
series; the test suite asserts the two agree within the paper's +-15%.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from repro.arch.device import ALVEO_U280, FPGADevice
from repro.dataflow.datamover import DataMover
from repro.dataflow.pipeline import IterativePipeline
from repro.dataflow.tiler import SpatialTiler
from repro.mesh.mesh import Field
from repro.model.design import DesignPoint, Workload
from repro.model.energy import DEFAULT_FPGA_POWER
from repro.model.resources import resource_report
from repro.stencil.program import StencilProgram
from repro.util.errors import ValidationError
from repro.util.validation import check_positive


@dataclass(frozen=True)
class HostModel:
    """Host-side overheads around the kernel execution.

    ``invocation_s`` is the fixed cost of launching the accelerator kernel
    (XRT setup, ~10 ms observed on the paper's baseline runs);
    ``per_pass_s`` is the marginal control cost per pipeline pass.
    """

    invocation_s: float = 0.010
    per_pass_s: float = 1.0e-6


@dataclass(frozen=True)
class SimReport:
    """Measured-equivalent execution report of a simulated run."""

    cycles: float
    clock_hz: float
    passes: int
    kernel_seconds: float
    host_seconds: float
    logical_bytes: float
    physical_bytes: float
    power_w: float

    @property
    def seconds(self) -> float:
        """End-to-end runtime (kernel + host overheads)."""
        return self.kernel_seconds + self.host_seconds

    @property
    def energy_j(self) -> float:
        """Board energy over the run."""
        return self.power_w * self.seconds

    @property
    def logical_bandwidth(self) -> float:
        """Paper-convention bandwidth (logical bytes / runtime)."""
        return self.logical_bytes / self.seconds

    @property
    def physical_bandwidth(self) -> float:
        """External-memory traffic / runtime."""
        return self.physical_bytes / self.seconds


class FPGAAccelerator:
    """A configured accelerator: program + design point + device."""

    def __init__(
        self,
        program: StencilProgram,
        design: DesignPoint,
        device: FPGADevice = ALVEO_U280,
        *,
        host: HostModel = HostModel(),
        logical_bytes_per_cell_iter: float | None = None,
        engine: str = "compiled",
        plan_cache=None,
    ):
        self.program = program
        self.design = design
        self.device = device
        self.host = host
        self.logical_bytes_per_cell_iter = (
            logical_bytes_per_cell_iter
            if logical_bytes_per_cell_iter is not None
            else float(program.bytes_per_cell_pass())
        )
        if design.tile is not None:
            # tiled designs run tile-by-tile through the spatial tiler
            self.tiler: SpatialTiler | None = SpatialTiler(
                program, design, device, engine, plan_cache
            )
            self.pipeline = self.tiler.pipeline
        else:
            self.tiler = None
            self.pipeline = IterativePipeline(
                program, design.V, design.p, engine, plan_cache
            )
        # resources and power depend only on the resource shape (and fixed
        # design/device inputs), not on niter/batch: memoize them so DSE
        # search loops hammering estimate() pay the model walk once
        self._resource_cache: dict[tuple[int, ...], tuple] = {}
        self._channels_active = self._channels()

    # -- functional entry points ----------------------------------------------
    def run(
        self, fields: Mapping[str, Field], niter: int
    ) -> tuple[dict[str, Field], SimReport]:
        """Solve one mesh; returns (final fields, execution report)."""
        check_positive("niter", niter)
        if self.tiler is not None:
            result = self.tiler.run(fields, niter)
        else:
            result = self.pipeline.run(fields, niter)
        mesh = fields[self.program.state_fields[0]].spec
        report = self._report(mesh.shape, niter, batch=1, mesh=mesh)
        return result, report

    def run_batch(
        self, batch_fields: Sequence[Mapping[str, Field]], niter: int
    ) -> tuple[list[dict[str, Field]], SimReport]:
        """Solve a batch of independent same-shaped meshes.

        The batch executes batch-major in footprint-bounded stacked chunks
        (Section IV-B, eq. (15)) through
        :meth:`IterativePipeline.run_batch`, bit-identical per mesh to
        :meth:`run`; the report uses the batched stream's cycle
        accounting. Workload mixes run through
        :class:`~repro.dataflow.scheduler.MixScheduler`.
        """
        if self.tiler is not None:
            raise ValidationError("batched execution is not supported on tiled designs")
        results = self.pipeline.run_batch(batch_fields, niter)
        mesh = batch_fields[0][self.program.state_fields[0]].spec
        report = self._report(mesh.shape, niter, batch=len(batch_fields), mesh=mesh)
        return results, report

    # -- reporting ---------------------------------------------------------------
    def estimate(self, workload: Workload) -> SimReport:
        """Execution report without running the numerics (paper-scale runs)."""
        return self._report(workload.mesh.shape, workload.niter, workload.batch, workload.mesh)

    def _report(
        self, mesh_shape: tuple[int, ...], niter: int, batch: int, mesh
    ) -> SimReport:
        design = self.design
        passes = -(-niter // design.p)
        clock_hz = design.clock_hz
        if self.tiler is not None:
            cycles = self.tiler.total_cycles(mesh, niter, clock_hz)
        else:
            compute = self.pipeline.total_cycles(
                mesh_shape, passes * design.p, batch, design.initiation_interval
            )
            mover = DataMover(self.device, design.memory, clock_hz)
            per_pass_bytes = (
                self.program.bytes_per_cell_pass()
                * mesh.num_points
                * batch
            )
            memory = passes * mover.channel_limited_cycles(
                per_pass_bytes, channels=self._channels_active
            )
            cycles = max(compute, memory)
        kernel_seconds = cycles / clock_hz
        host_seconds = self.host.invocation_s + passes * self.host.per_pass_s
        logical = (
            self.logical_bytes_per_cell_iter * mesh.num_points * batch * niter
        )
        physical = (
            passes * self.program.bytes_per_cell_pass() * mesh.num_points * batch
        )
        shape_for_resources = mesh_shape
        if design.tile is not None:
            if len(mesh_shape) == 2:
                shape_for_resources = (design.tile.M, mesh_shape[1])
            else:
                shape_for_resources = (design.tile.M, design.tile.N, mesh_shape[2])
        resources, power = self._resources_and_power(shape_for_resources)
        return SimReport(
            cycles=cycles,
            clock_hz=clock_hz,
            passes=passes,
            kernel_seconds=kernel_seconds,
            host_seconds=host_seconds,
            logical_bytes=logical,
            physical_bytes=physical,
            power_w=power,
        )

    def _resources_and_power(self, shape: tuple[int, ...]) -> tuple:
        """Memoized (resource report, board power) for a resource shape.

        Both are shape/batch-independent beyond the resource shape itself
        and were previously recomputed — a full program walk — on every
        ``estimate()`` call inside DSE search loops.
        """
        cached = self._resource_cache.get(shape)
        if cached is not None:
            return cached
        resources = resource_report(
            self.program, self.device, self.design.V, self.design.p, shape
        )
        power = DEFAULT_FPGA_POWER.watts(
            self.device,
            dsp_used=resources.dsp_used,
            mem_used_bytes=resources.mem_used_bytes,
            clock_hz=self.design.clock_hz,
            channels_active=self._channels_active,
        )
        self._resource_cache[shape] = (resources, power)
        return resources, power

    def _channels(self) -> int:
        """Active memory channels: one per external stream, at least two."""
        streams = len(self.program.external_reads()) + len(
            self.program.external_writes()
        )
        return max(2, streams)
