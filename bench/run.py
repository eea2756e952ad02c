#!/usr/bin/env python3
"""The repository's benchmark: one command, one workload, one measured process.

    python3 bench/run.py --workload NAME --seed S [--seconds N] [--trace 0|1]

runs one workload, checks its outputs against the golden interpreter,
prints every metric by name with its unit, and ends with one JSON line
(``correct``, ``attempted``, ``failed``, ``metrics``). With ``--trace 0``
the metrics are the end-to-end ones; with ``--trace 1`` the same operations
run under spans and the metrics are the per-layer ones (the spans go to
``bench/out/<workload>-<seed>/trace.json``). See ``bench/README.md``.

This parent process measures nothing but set-up. It starts the measured
worker process (``worker.py``) in a hermetic environment — every ``REPRO_*``
knob cleared, the native artifact cache and the calibration cache in a fresh
directory — and times its set-up from process start, so ``setup_s`` is always
the cold path and one commit's run can never warm another's caches. When the
worker has ended it starts a second one, just as cold, that only sets up:
``setup_s`` is the faster of the two, which are a window and a gate apart, so
a busy spell of the host's neighbours has to last the whole run to show in it.
Spells that long happen: before it starts a worker, the parent times a fixed
pure-Python loop and, while the loop reads much slower than the fastest this
checkout has seen, waits (``wait_for_quiet``).
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from benchlib import BENCH_DIR, ROOT, hermetic_env, load_contract  # noqa: E402

#: seconds one whole run may take, waiting, set-up and gate included, before
#: its worker counts as stuck and is stopped (the driver allows 180 s a run)
RUN_BUDGET_S = 170
#: the host counts as busy while the probe reads this many times the fastest
#: probe the checkout has seen: above what the neighbours' ordinary spells do
#: to it (1.1-1.4), below the half-speed spells that last minutes (2.0)
BUSY_RATIO = 1.5
#: seconds one run waits for a busy host at most, and all runs of a checkout
#: together: waiting must not eat the time the driver allows the runs
WAIT_RUN_S = 90
WAIT_CHECKOUT_S = 400


def probe_s() -> float:
    """The fastest of 20 fixed pure-Python loops, in seconds (half a second in all)."""

    def loop() -> float:
        start, x = time.perf_counter(), 0
        for i in range(400_000):
            x += i * i
        return time.perf_counter() - start

    return min(loop() for _ in range(20))


def wait_for_quiet(state_path: Path) -> dict:
    """Wait while the host is much slower than this checkout has seen it.

    The only state a run leaves for the next: the fastest probe so far and
    the seconds waited so far, in ``state_path``. Nothing of the program.
    """
    state = {"fastest_probe_s": float("inf"), "waited_s": 0.0}
    if state_path.exists():
        state.update(json.loads(state_path.read_text()))
    allowed = min(WAIT_RUN_S, WAIT_CHECKOUT_S - state["waited_s"])
    probe = probe_s()
    start = time.monotonic()
    while probe > BUSY_RATIO * state["fastest_probe_s"] and time.monotonic() - start < allowed:
        time.sleep(2.0)
        probe = probe_s()
    waited = time.monotonic() - start
    state_path.write_text(json.dumps({
        "fastest_probe_s": min(probe, state["fastest_probe_s"]),
        "waited_s": state["waited_s"] + waited,
    }))
    return {"host_probe_ms": probe * 1e3, "host_waited_s": waited}


def run_worker(args, out_dir: Path, deadline: float, setup_only: bool = False) -> dict:
    """Run a worker to its end in a fresh scratch directory.

    Its result, with ``setup_s``: process start to ready, less the seconds the
    kernel worked for the worker in that span.
    """
    result_path = out_dir / f"worker-trace{args.trace}.json"
    command = [
        sys.executable, str(BENCH_DIR / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--result", str(result_path),
    ]
    if args.smoke:
        command.append("--smoke")
    if setup_only:
        command.append("--setup-only")
    scratch = Path(tempfile.mkdtemp(prefix="scratch-", dir=out_dir))
    started = time.time()
    # its own session, so a stuck worker can be stopped together with any
    # pool processes it started
    proc = subprocess.Popen(
        command, env=hermetic_env(os.environ, scratch), cwd=ROOT, start_new_session=True
    )
    try:
        proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise SystemExit(f"bench: run stopped after {RUN_BUDGET_S} s")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    if proc.returncode != 0 or not result_path.exists():
        raise SystemExit(f"bench: worker exited with code {proc.returncode}")
    result = json.loads(result_path.read_text())
    result_path.unlink()
    result["setup_wall_s"] = result["ready_at"] - started
    result["setup_s"] = result["setup_wall_s"] - result["kernel_s"]
    return result


def main() -> int:
    contract = load_contract()
    names = [w["name"] for w in contract["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=names)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=contract["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--smoke", action="store_true",
        help="toy sizes for the harness tests; the output is stamped and is not a record",
    )
    args = parser.parse_args()
    deadline = time.monotonic() + RUN_BUDGET_S
    if not (ROOT / "src" / "repro" / "__init__.py").exists():
        print(f"bench: no program to measure: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2

    out_dir = BENCH_DIR / "out" / f"{args.workload}-{args.seed}"
    out_dir.mkdir(parents=True, exist_ok=True)
    # bytecode first, untimed: the first run in a fresh checkout must not
    # pay compilation inside setup_s when every later run does not
    for tree in (ROOT / "src", BENCH_DIR):
        compileall.compile_dir(str(tree), quiet=2, workers=1)
    # not at smoke size: the harness tests start ten runs side by side
    host = {} if args.smoke else wait_for_quiet(BENCH_DIR / "out" / "host.json")
    result = run_worker(args, out_dir, deadline)
    setups = [result]
    if not args.trace:  # a traced run reports no set-up time
        setups.append(run_worker(args, out_dir, deadline, setup_only=True))

    if args.trace:
        metrics = result["metrics"]
    else:
        metrics = {
            "setup_s": min(s["setup_s"] for s in setups),
            "work_per_s": result["work_per_s"],
            "latency_ms": result["latency_s"] * 1e3,
            "peak_rss_mb": result["peak_rss_mb"],
        }
    group = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in contract[group]}
    missing = sorted(set(units) - set(metrics))
    if missing:
        raise SystemExit(f"bench: worker reported no value for {missing}")

    info = {**result["info"], **host}
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}"
          f"  latency samples {len(result['latencies'])}"
          f"  their median {statistics.median(result['latencies']) * 1e3:.6g} ms")
    for key, value in info.items():
        print(f"info {key} = {value}")
    for name in units:
        print(f"metric {name} = {metrics[name]:.6g} {units[name]}")
    print(f"ops_attempted {result['attempted']}  ops_failed {result['failed']}")

    line = {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {n: {"value": metrics[n], "unit": units[n]} for n in units},
    }
    if args.smoke:
        line["smoke"] = True
    (out_dir / f"result-trace{args.trace}.json").write_text(
        json.dumps(
            {**line, "info": info,
             "setups": [[s["setup_wall_s"], s["kernel_s"]] for s in setups],
             "latencies_ms": [round(s * 1e3, 4) for s in result["latencies"]]},
            indent=1,
        )
    )
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
