"""Cycle-approximate dataflow simulator of the paper's accelerator template.

The simulator plays the role the Alveo U280 board plays in the paper: it
stands in for the architecture the workflow designs — window buffers feeding
compute units, ``p`` chained compute modules, overlapped spatial tiles,
batched streams — and reports structural cycle counts (fill, drain, burst
quantization, padding) that the closed-form model idealizes away.

The classes model structure and cost; they do not carry an execution
stack of their own. Every functional run — a mesh, a pass, a batch, a tile —
is one call into :func:`repro.stencil.compiled.run_program_compiled` or
:func:`~repro.stencil.compiled.run_program_stacked`, which pick the per-mesh
or stacked path for the engine, so numerics are bit-identical (float32) to
the NumPy golden model on every path. The hardware-equivalent streaming
path (:mod:`repro.dataflow.window`) is validated against the golden model
in the test suite. :class:`~repro.dataflow.scheduler.MixScheduler` is the
one runner of workload mixes.
"""

from repro.dataflow.window import LineBufferStream, stream_iterate_2d, stream_iterate_3d
from repro.dataflow.compute import ComputeUnit
from repro.dataflow.module import StencilModule
from repro.dataflow.pipeline import IterativePipeline
from repro.dataflow.datamover import DataMover, TransferStats
from repro.dataflow.tiler import SpatialTiler, plan_blocks, BlockPlan
from repro.dataflow.scheduler import GroupRun, MixRunResult, MixScheduler
from repro.dataflow.accelerator import FPGAAccelerator, SimReport, HostModel

__all__ = [
    "GroupRun",
    "MixRunResult",
    "MixScheduler",
    "LineBufferStream",
    "stream_iterate_2d",
    "stream_iterate_3d",
    "ComputeUnit",
    "StencilModule",
    "IterativePipeline",
    "DataMover",
    "TransferStats",
    "SpatialTiler",
    "plan_blocks",
    "BlockPlan",
    "FPGAAccelerator",
    "SimReport",
    "HostModel",
]
