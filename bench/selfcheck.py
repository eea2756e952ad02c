#!/usr/bin/env python3
"""Does the benchmark agree with itself? Two sets of runs of the same checkout.

    python3 bench/selfcheck.py [--runs 10]

Runs every workload ``--runs`` times for set A and as often for set B,
alternating which set goes first, each run on its own seed (both sets use
the same seeds). For every end-to-end metric × workload pair it prints each
set's median and quartile spread (Q3 − Q1 as a share of the median), and how
much worse B's median reads than A's, against the metric's bound in
``BENCHMARK.json``. It exits non-zero when any pair is

* ``VIOLATION``: B's median is worse than A's by more than the bound — on
  identical code — or
* ``unresolved``: a set's spread exceeds the bound, so ten runs cannot tell a
  change of the bound's size from no change. ``setup_s`` is judged on its
  medians only: a run has two samples of it, not a window of them.

A spread above a third of its bound is flagged ``wide`` and passes.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from benchlib import BENCH_DIR, ROOT, load_contract, quartile_spread  # noqa: E402


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True,
    )
    if proc.returncode != 0:
        raise SystemExit(
            f"selfcheck: {workload} seed {seed} exited {proc.returncode}\n"
            f"{proc.stdout[-2000:]}\n{proc.stderr[-2000:]}"
        )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def worsening(metric: dict, a: float, b: float) -> float:
    """How much worse ``b`` reads than ``a``, as a share of ``a`` (negative: better)."""
    return (b - a) / a if metric["better"] == "lower" else (a - b) / a


def main() -> int:
    contract = load_contract()
    names = [w["name"] for w in contract["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10, help="runs per set (at least 5)")
    args = parser.parse_args()
    if args.runs < 5:
        parser.error("--runs must be at least 5")

    values: dict[tuple[str, str, str], list[float]] = {}
    for i in range(args.runs):
        for side in ("AB", "BA")[i % 2]:
            for workload in names:
                line = run_once(workload, 1 + i, contract["run_seconds"])
                if not line["correct"]:
                    raise SystemExit(f"selfcheck: {workload} reported failed operations")
                for name, entry in line["metrics"].items():
                    values.setdefault((workload, name, side), []).append(entry["value"])
                print(f"run {i + 1}/{args.runs} set {side} {workload} " + " ".join(
                    f"{name}={entry['value']:.6g}" for name, entry in line["metrics"].items()
                ), flush=True)

    print(f"\n{'workload':<16} {'metric':<12} {'median A':>12} {'median B':>12} "
          f"{'spread A':>9} {'spread B':>9} {'B worse':>8} {'bound':>6}  verdict")
    failing = 0
    for workload in names:
        for metric in contract["end_to_end"]:
            a = values[(workload, metric["name"], "A")]
            b = values[(workload, metric["name"], "B")]
            med_a, med_b = statistics.median(a), statistics.median(b)
            spread_a, spread_b = quartile_spread(a), quartile_spread(b)
            worse = worsening(metric, med_a, med_b)
            spread = max(spread_a, spread_b)
            bound = metric["bound"]
            if worse > bound:
                verdict = "VIOLATION"
            elif spread > bound and metric["name"] != "setup_s":
                verdict = "unresolved"
            elif spread > bound / 3:
                verdict = "wide"
            else:
                verdict = "ok"
            failing += verdict in ("VIOLATION", "unresolved")
            print(f"{workload:<16} {metric['name']:<12} {med_a:>12.6g} {med_b:>12.6g} "
                  f"{spread_a:>9.4f} {spread_b:>9.4f} {worse:>+8.4f} "
                  f"{bound:>6.2f}  {verdict}")
    print(f"\n{failing} failing pair(s)")
    return 1 if failing else 0


if __name__ == "__main__":
    sys.exit(main())
