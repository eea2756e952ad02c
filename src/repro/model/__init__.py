"""The paper's predictive analytic model.

Implements every numbered performance equation of the paper — baseline cycle
counts (eqs. 2, 3, 5), the bandwidth-limited vectorization bound (eq. 4),
resource-limited unroll factors (eqs. 6, 7), the spatial-blocking throughput
theory (eqs. 8–14) and batching (eq. 15) — plus the design-space
feasibility checks and the runtime, bandwidth and energy predictors used to
reproduce the paper's tables and figures (the search over designs lives in
:mod:`repro.dse`).
"""

from repro.model.cycles import (
    baseline_cycles_2d,
    baseline_cycles_3d,
    batched_cycles_2d,
    batched_cycles_3d,
    batched_cycles_per_mesh_2d,
    cycles_per_cell_2d,
    pipeline_cycles,
    pipeline_fill_rows,
)
from repro.model.resources import (
    DSPCostModel,
    DEFAULT_DSP_COSTS,
    gdsp_kernel,
    gdsp_program,
    p_dsp,
    p_mem,
    max_unroll,
    module_mem_bytes,
    ResourceReport,
    resource_report,
)
from repro.model.bandwidth import (
    max_vectorization,
    channels_required,
    bandwidth_required,
    feasible_vectorization,
)
from repro.model.tiling import (
    block_valid_points,
    block_cycles,
    tile_throughput,
    optimal_tile_m,
    p_max_for_tile,
    throughput_full_dsp_2d,
    throughput_full_dsp_3d,
    valid_ratio,
    TileDesign,
)
from repro.model.design import DesignPoint, Workload, DesignSpace
from repro.model.runtime import PredictedMetrics, RuntimePredictor
from repro.model.energy import FPGAPowerModel, DEFAULT_FPGA_POWER
from repro.model.precision import (
    PrecisionSpec,
    ALL_PRECISIONS,
    HALF,
    FLOAT,
    DOUBLE,
    FIXED16,
    FIXED32,
    precision_by_name,
    gdsp_at_precision,
    precision_error,
)
from repro.model.multifpga import (
    MultiFPGAConfig,
    temporal_scaling_seconds,
    spatial_scaling_seconds,
    scaling_efficiency,
)

__all__ = [
    "baseline_cycles_2d",
    "baseline_cycles_3d",
    "batched_cycles_2d",
    "batched_cycles_3d",
    "batched_cycles_per_mesh_2d",
    "cycles_per_cell_2d",
    "pipeline_cycles",
    "pipeline_fill_rows",
    "DSPCostModel",
    "DEFAULT_DSP_COSTS",
    "gdsp_kernel",
    "gdsp_program",
    "p_dsp",
    "p_mem",
    "max_unroll",
    "module_mem_bytes",
    "ResourceReport",
    "resource_report",
    "max_vectorization",
    "channels_required",
    "bandwidth_required",
    "feasible_vectorization",
    "block_valid_points",
    "block_cycles",
    "tile_throughput",
    "optimal_tile_m",
    "p_max_for_tile",
    "throughput_full_dsp_2d",
    "throughput_full_dsp_3d",
    "valid_ratio",
    "TileDesign",
    "DesignPoint",
    "Workload",
    "DesignSpace",
    "PredictedMetrics",
    "RuntimePredictor",
    "FPGAPowerModel",
    "DEFAULT_FPGA_POWER",
    "PrecisionSpec",
    "ALL_PRECISIONS",
    "HALF",
    "FLOAT",
    "DOUBLE",
    "FIXED16",
    "FIXED32",
    "precision_by_name",
    "gdsp_at_precision",
    "precision_error",
    "MultiFPGAConfig",
    "temporal_scaling_seconds",
    "spatial_scaling_seconds",
    "scaling_efficiency",
]
