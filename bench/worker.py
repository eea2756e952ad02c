"""The measured process: a cold set-up, the timed window, the correctness gate.

Started by ``run.py`` with a hermetic environment. It reports the wall-clock
instant the workload was ready for its first timed operation (the parent
times set-up from process start), the seconds of each operation it ran, and
the golden-reference gate's verdict. A traced run repeats the window twice —
once with recording off, once with it on — and then derives the per-layer
numbers. With ``--setup-only`` it stops once it is ready: ``run.py`` uses that
to time a second cold set-up.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))
# the checkout's own sources, ahead of any installed copy of the program
sys.path.insert(0, str(BENCH_DIR.parent / "src"))


def peak_rss_mb(who: int) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0  # Linux reports KiB


def measure(wl) -> dict:
    """Untraced: one timed window, raw, then the gate."""
    window = wl.run_window(wl.ops)
    rss_self = peak_rss_mb(resource.RUSAGE_SELF)  # before the gate's interpreter runs
    gate_attempted, gate_failed = wl.gate()
    return {
        "latencies": window.latencies,
        "latency_s": window.latency_s,
        "work_per_s": window.work_per_s,
        "rss_self_mb": rss_self,
        "attempted": window.attempted + gate_attempted,
        "failed": window.failed + gate_failed,
    }


def measure_traced(wl, contract: dict, out_dir: Path) -> dict:
    """Traced: the window with recording off, again with it on, then the layers."""
    from benchlib import cache_sizes, stream_gbs

    tracer = wl.tracer
    tracer.active = False
    plain = wl.run_window(wl.ops)
    tracer.active = True
    cache = getattr(wl, "cache", None)
    hits = cache.hits if cache is not None else 0
    window = wl.run_window(wl.ops)
    metrics = {m["name"]: 0.0 for m in contract["per_layer"]}
    if cache is not None:
        metrics["stencil.plan_cache_hits"] = (cache.hits - hits) / wl.ops
        metrics["stencil.plan_cache_misses"] = cache.misses
    metrics.update(wl.layer_metrics(window))
    metrics["host.stream_gbs"] = stream_gbs(wl.array_bytes)
    metrics["host.llc_bytes"] = cache_sizes()["L3"]
    metrics["host.nproc"] = os.cpu_count() or 1
    metrics["stencil.bw_frac"] = metrics["stencil.bw_gbs"] / metrics["host.stream_gbs"]
    metrics["trace.coverage"] = tracer.coverage()
    metrics["trace.overhead_frac"] = window.latency_s / plain.latency_s - 1.0
    tracer.op = "gate"
    gate_attempted, gate_failed = wl.gate()
    tracer.dump(out_dir / "trace.json", workload=wl.name, seed=wl.seed, info=wl.info)
    return {
        "metrics": {name: float(value) for name, value in metrics.items()},
        "latencies": window.latencies,
        "rss_self_mb": peak_rss_mb(resource.RUSAGE_SELF),
        "attempted": plain.attempted + window.attempted + gate_attempted,
        "failed": plain.failed + window.failed + gate_failed,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--result", type=Path, required=True)
    args = parser.parse_args()

    from benchlib import Tracer, host_info, load_contract
    from workloads import WORKLOADS

    contract = load_contract()
    tracer = Tracer() if args.trace else None
    if tracer is not None:
        tracer.op = "setup"
    wl = WORKLOADS[args.workload](
        args.seed, args.seconds / contract["run_seconds"], args.smoke, tracer
    )
    wl.setup()
    # the kernel's seconds so far are almost all first-touch page faults; what
    # one costs on this kind of VM depends on whether the host still backs the
    # page (see README.md), so the parent takes them out of ``setup_s``
    result: dict = {
        "ready_at": time.time(),
        "kernel_s": resource.getrusage(resource.RUSAGE_SELF).ru_stime,
    }
    try:
        if args.setup_only:
            pass  # ready is all the parent wants to know
        elif tracer is not None:
            result.update(measure_traced(wl, contract, args.result.parent))
        else:
            result.update(measure(wl))
    finally:
        wl.teardown()  # pools are waited out: their peak shows in RUSAGE_CHILDREN
    if not args.setup_only:
        result["peak_rss_mb"] = result["rss_self_mb"] + peak_rss_mb(resource.RUSAGE_CHILDREN)
        result["info"] = {**host_info(), **wl.info, "ops": wl.ops, "work_unit": wl.work_unit}
    args.result.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
