"""The analytic model over NumPy columns of untiled single-board designs.

:class:`DesignColumns` runs many ``(memory, V, p, batch)`` rows of one
program, device and workload through the model in one array pass, in the
order :class:`~repro.dse.evaluate.Evaluator` runs one of them: external
capacity, eq. (7) buffers, eq. (6) DSPs, the clock estimate (resource
report, SLR floorplan, clock model), eq. (4) bandwidth at that clock, and
the cycle, runtime and power predictor.

Every column is the scalar model's own arithmetic — ``+ - * /``,
``min``/``max`` and integer ``ceil_div``, associated as the scalar code
associates them — so each float is bit-identical to what
:class:`~repro.model.design.DesignSpace` and
:class:`~repro.model.runtime.RuntimePredictor` compute for the same design,
and each rejected row carries the same first failing check and message.
Integer columns are exact ``int64``: :meth:`DesignColumns.admits` keeps
rows whose products could leave its range on the scalar path.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.arch.clocking import DEFAULT_CLOCK_MODEL
from repro.arch.device import URAM_BLOCK_BITS, URAM_WIDTH_BITS
from repro.mesh.padding import aligned_row_bytes
from repro.model.design import (
    DesignPoint,
    DesignSpace,
    Workload,
    bandwidth_error,
    buffer_error,
    capacity_error,
    dsp_error,
)
from repro.model.energy import DEFAULT_FPGA_POWER
from repro.model.resources import ResourceReport, _line_points, module_mem_bytes
from repro.model.runtime import PredictedMetrics
from repro.util.errors import InfeasibleDesignError
from repro.util.units import MHZ

#: products of admitted rows stay below this (``int64`` with headroom)
_INT_LIMIT = 1 << 62
#: widest vectorization / deepest unroll a row may carry into the arrays
AXIS_LIMIT = 1 << 20


class DesignColumns:
    """One program, device and workload's model, evaluated row-parallel."""

    def __init__(
        self, space: DesignSpace, workload: Workload, traffic: float | None = None
    ):
        program, device, mesh = space.program, space.device, workload.mesh
        self.space = space
        self.workload = workload
        banks = [device.memory(name) for name in device.memory_targets]
        #: memory target -> row into the per-bank columns below
        self._bank_row = {name: i for i, name in enumerate(device.memory_targets)}
        self._capacity = np.array([bank.capacity_bytes for bank in banks])
        # eq. (4)'s budget and the memory floor's bandwidth, as the scalar
        # model forms them
        self._supply = np.array([bank.channel_bandwidth * bank.channels for bank in banks])
        self._bandwidth = np.array([bank.total_bandwidth for bank in banks])
        self._gdsp = space.gdsp
        self._module_bytes = module_mem_bytes(program, mesh.shape)
        self._per_cell = program.bytes_per_cell_pass()
        # the predictor's default: the program's external contract
        self._traffic = traffic if traffic is not None else float(self._per_cell)
        orders = program.fused_stage_orders
        #: False when the scalar model would refuse or loop on every row
        #: (rank mismatch, odd stage order, no external traffic), or when
        #: its constants leave no int64 headroom: no row is admitted then
        self.in_domain = (
            mesh.ndim == program.mesh.ndim
            and mesh.ndim in (2, 3)
            and bool(orders)
            and all(D > 0 and D % 2 == 0 for D in orders)
            and self._per_cell > 0
            and self._gdsp < AXIS_LIMIT
            and self._module_bytes < _INT_LIMIT // AXIS_LIMIT
        )
        if not self.in_domain:
            return
        self._fill = sum(D // 2 for D in orders)
        self._line_points = _line_points(mesh.shape)
        self._elem_bits = program.mesh.elem_bytes * 8
        self._window_lines = program.window_lines
        self._resident_fields = space._external_fields + 1
        m = mesh.shape[0]
        self._pad = aligned_row_bytes(m, mesh.elem_bytes) / (m * mesh.elem_bytes)
        largest = max(
            mesh.footprint_bytes * self._resident_fields,
            workload.niter * self._per_cell * mesh.num_points,
            1,
        )
        #: deepest batch whose byte and cycle counts stay exact in int64
        self.batch_cap = _INT_LIMIT // largest

    def admits(self, memory, V, p, batch) -> bool:
        """True when the row's values lie where the arrays match the scalar model.

        Plain ``int`` V, p and batch within the caps and a memory target the
        device has; anything else (floats, bools, NumPy scalars, unknown
        targets, non-positive values) belongs to the scalar path, which
        validates and rejects it.
        """
        return (
            self.in_domain
            and type(memory) is str
            and memory in self._bank_row
            and type(V) is int
            and type(p) is int
            and type(batch) is int
            and 0 < V <= AXIS_LIMIT
            and 0 < p <= AXIS_LIMIT
            and 0 < batch <= self.batch_cap
        )

    def predict(
        self,
        memory: Sequence[str],
        V: Sequence[int],
        p: Sequence[int],
        batch: Sequence[int],
    ) -> list[tuple[DesignPoint, PredictedMetrics] | InfeasibleDesignError]:
        """Per admitted row: its clocked design and prediction, or the first failing check."""
        space, device = self.space, self.space.device
        bank = np.array([self._bank_row[name] for name in memory])
        V = np.array(V, dtype=np.int64)
        p = np.array(p, dtype=np.int64)
        b = np.array(batch, dtype=np.int64)

        # the clock-independent checks: capacity, eq. (7), eq. (6)
        resident = self.workload.mesh.footprint_bytes * b * self._resident_fields
        capacity = self._capacity[bank]
        module_bytes = self._module_bytes
        mem_used = p * module_bytes
        dsp_used = V * p * self._gdsp

        # the clock: resource report, SLR floorplan, clock model
        line_vectors = -(-self._line_points // V)
        columns = -(-(self._elem_bits * V) // URAM_WIDTH_BITS)
        depth_blocks = -(-line_vectors // (URAM_BLOCK_BITS // URAM_WIDTH_BITS))
        uram = p * (self._window_lines * (columns * depth_blocks))
        utilization = np.minimum(
            1.0,
            np.maximum(dsp_used / device.dsp_blocks, mem_used / device.on_chip_bytes),
        )
        by_dsp = device.dsp_per_slr // (V * self._gdsp) if self._gdsp else p
        by_mem = device.on_chip_bytes_per_slr // module_bytes if module_bytes else p
        per_slr = np.minimum(by_dsp, by_mem)
        slrs = np.minimum(-(-p // np.maximum(per_slr, 1)), device.slr_count)
        crossings = np.where(per_slr >= 1, np.maximum(0, slrs - 1), p)
        clock = DEFAULT_CLOCK_MODEL
        over = np.maximum(0.0, utilization - clock.utilization_knee)
        mhz = clock.target_mhz * (1.0 - clock.derate * over)
        mhz = mhz - clock.slr_penalty_mhz * crossings
        mhz = np.minimum(clock.target_mhz, np.maximum(clock.floor_mhz, mhz))
        clock_hz = mhz * MHZ

        # eq. (4) at the clocked design: the widest power of two fed. The
        # scalar loop's test grows with v, so a row that fails it at one
        # width fails it at every wider one
        supply = self._supply[bank]
        v_max = np.ones_like(V)
        v = 1
        while True:
            wider = self._per_cell * (v * 2) * clock_hz <= supply
            if not wider.any():
                break
            v *= 2
            v_max[wider] = v

        # eqs. (2)/(3)/(15) at the draft design's initiation interval (1.0)
        # against the memory floor; board power at two active channels
        shape, niter = self.workload.mesh.shape, self.workload.niter
        passes = -(-niter // p)
        fill = p * self._fill
        if len(shape) == 2:
            m, n = shape
            compute = passes * -(-m // V) * (n * b * 1.0 + fill)
        else:
            m, n, l = shape
            compute = passes * -(-m // V) * n * (l * b * 1.0 + fill)
        cells = self.workload.mesh.num_points * b
        physical = passes * self._per_cell * cells * self._pad
        memory_cycles = physical / self._bandwidth[bank] * clock_hz
        cycles = np.maximum(compute, memory_cycles)
        seconds = cycles / clock_hz
        power = DEFAULT_FPGA_POWER
        watts = np.minimum(
            power.max_watts,
            power.static_watts
            + power.dsp_coef * dsp_used * clock_hz
            + power.mem_coef * mem_used * clock_hz
            + power.channel_watts * 2,
        )
        logical = self._traffic * cells * niter

        # the first failing check, in the scalar order: 1 capacity, 2 eq. (7),
        # 3 eq. (6), 4 eq. (4); 0 feasible
        budget = device.usable_on_chip_bytes()
        failed = np.where(V > v_max, 4, 0)
        failed = np.where(dsp_used > device.dsp_blocks, 3, failed)
        failed = np.where(mem_used > budget, 2, failed)
        failed = np.where(resident > capacity, 1, failed)
        V, p, mhz, clock_hz = V.tolist(), p.tolist(), mhz.tolist(), clock_hz.tolist()
        resident, capacity, v_max = resident.tolist(), capacity.tolist(), v_max.tolist()
        cycles, seconds, watts = cycles.tolist(), seconds.tolist(), watts.tolist()
        logical, physical = logical.tolist(), physical.tolist()
        dsp_used, mem_used, uram = dsp_used.tolist(), mem_used.tolist(), uram.tolist()
        memory_bound = (memory_cycles > compute).tolist()
        dsp_blocks, on_chip = device.dsp_blocks, device.on_chip_bytes
        out: list = []
        for i, fail in enumerate(failed.tolist()):
            if fail == 1:
                out.append(capacity_error(resident[i], memory[i], capacity[i]))
            elif fail == 2:
                out.append(buffer_error(p[i], module_bytes, budget))
            elif fail == 3:
                out.append(dsp_error(V[i], p[i], self._gdsp, device))
            elif fail == 4:
                out.append(bandwidth_error(V[i], memory[i], v_max[i]))
            else:
                resources = ResourceReport(
                    dsp_used[i], dsp_blocks, mem_used[i], on_chip, uram[i], 0
                )
                metrics = PredictedMetrics(
                    cycles[i], seconds[i], clock_hz[i], logical[i], physical[i],
                    watts[i], watts[i] * seconds[i], resources, memory_bound[i],
                )
                out.append((DesignPoint(V[i], p[i], mhz[i], memory[i]), metrics))
        return out
