"""Shared pieces of the benchmark: the contract file, statistics, the span
recorder used by traced runs, and host probes.

Nothing here imports ``repro``: ``run.py`` (the parent process) and the
harness tests use it without the program on the path.
"""

from __future__ import annotations

import json
import os
import re
import statistics
import time
from contextlib import contextmanager
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def load_contract() -> dict:
    """``BENCHMARK.json``: the metric and workload names are the contract."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def hermetic_env(base: dict, scratch: Path) -> dict:
    """The environment of one worker: no inherited knobs, caches in ``scratch``.

    Every ``REPRO_*`` variable is dropped (``REPRO_FAULT_PLAN``,
    ``REPRO_NATIVE_JIT``, ``REPRO_NO_NUMBA``, ``REPRO_PARALLEL_NATIVE``,
    ``REPRO_STACKED_BYTES_LIMIT``, ...), so a developer's shell cannot leak
    into a measurement.

    ``scratch`` is fresh per worker, so the native artifact cache and the
    calibration cache always start empty: ``setup_s`` is the cold path and
    one commit's run can never warm another's.
    """
    env = {k: v for k, v in base.items() if not k.startswith("REPRO_")}
    env["REPRO_NATIVE_CACHE_DIR"] = str(scratch / "native")
    env["REPRO_CALIBRATION_CACHE"] = str(scratch / "calibration.json")
    env["XDG_CACHE_HOME"] = str(scratch / "xdg")
    env["TMPDIR"] = str(scratch)
    env["PYTHONPATH"] = str(ROOT / "src")
    # str hashes seed the native bind-time verify inputs; pin them so every
    # run verifies on the same values
    env["PYTHONHASHSEED"] = "0"
    # glibc keeps freed memory in the process (no mmap'd chunks, no trimming).
    # On this kind of VM, memory returned to the kernel is handed back to the
    # host within seconds (balloon free-page reporting), and touching it again
    # costs host page faults: ~0.5 s per 125 MB result array, on every other
    # operation. That is the host's cost, not the program's; see README.md.
    env["MALLOC_MMAP_MAX_"] = "0"
    env["MALLOC_TRIM_THRESHOLD_"] = str(1 << 40)
    return env


# --------------------------------------------------------------------------- #
# statistics
# --------------------------------------------------------------------------- #
def median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def geomean(values) -> float:
    return float(statistics.geometric_mean(values)) if values else 0.0


def quartile_spread(values) -> float:
    """Distance between the first and third quartile as a share of the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


# --------------------------------------------------------------------------- #
# spans
# --------------------------------------------------------------------------- #
class Tracer:
    """In-memory span recorder: name, start, end, parent, operation id.

    Spans are recorded from the benchmark's own files, around calls into the
    program's public functions. ``span()`` nests through a stack and serves
    straight-line code; ``add()`` records a span whose ends were clocked by
    the caller, for coroutines that overlap on one thread. ``active`` turns
    recording off without removing the wrappers, which is how a traced run
    measures its own overhead.
    """

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.active = True
        self.op: object = None
        self._stack: list[int] = []

    def add(self, name, start, end, parent=None, op=None, **attrs) -> int:
        self.spans.append(
            {
                "id": len(self.spans),
                "name": name,
                "start": start,
                "end": end,
                "parent": parent,
                "op": self.op if op is None else op,
                **attrs,
            }
        )
        return len(self.spans) - 1

    @contextmanager
    def span(self, name: str, **attrs):
        if not self.active:
            yield None
            return
        parent = self._stack[-1] if self._stack else None
        sid = self.add(name, time.perf_counter(), None, parent, **attrs)
        self._stack.append(sid)
        try:
            yield sid
        finally:
            self._stack.pop()
            self.spans[sid]["end"] = time.perf_counter()

    def wrap(self, name: str, fn):
        """``fn`` timed under a span; a pass-through while recording is off."""

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    # -- arithmetic ---------------------------------------------------------------
    def self_times(self) -> dict[int, float]:
        """Span id -> duration minus the part of it its child spans cover.

        Children may overlap each other (concurrent jobs), so the covered
        part is the union of their intervals clipped to the parent.
        """
        children: dict[int, list[tuple[float, float]]] = {}
        for s in self.spans:
            if s["parent"] is not None:
                children.setdefault(s["parent"], []).append((s["start"], s["end"]))
        out = {}
        for s in self.spans:
            lo, hi = s["start"], s["end"]
            covered, cursor = 0.0, lo
            for a, b in sorted(children.get(s["id"], ())):
                a, b = max(a, cursor), min(b, hi)
                if b > a:
                    covered += b - a
                    cursor = b
            out[s["id"]] = (hi - lo) - covered
        return out

    def coverage(self, root_name: str = "op") -> float:
        """Share of the traced operations' wall clock that named layer spans own.

        The self time of every span below a root, over the roots' total
        duration: what is left is time between the calls the benchmark
        wraps, which no layer metric explains.
        """
        selfs = self.self_times()
        roots = [s for s in self.spans if s["name"] == root_name]
        wall = sum(s["end"] - s["start"] for s in roots)
        if wall <= 0:
            return 0.0
        return 1.0 - sum(selfs[s["id"]] for s in roots) / wall

    def per_op(self, name: str, root_name: str = "op") -> list[float]:
        """Total seconds under spans called ``name``, one value per operation."""
        totals = {s["op"]: 0.0 for s in self.spans if s["name"] == root_name}
        for s in self.spans:
            if s["name"] == name and s["op"] in totals:
                totals[s["op"]] += s["end"] - s["start"]
        return list(totals.values())

    def total(self, name: str, op=None) -> float:
        return sum(
            s["end"] - s["start"]
            for s in self.spans
            if s["name"] == name and (op is None or s["op"] == op)
        )

    def count(self, name: str, op=None) -> int:
        return sum(
            1 for s in self.spans if s["name"] == name and (op is None or s["op"] == op)
        )

    def dump(self, path: Path, **header) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({**header, "spans": self.spans}))


# --------------------------------------------------------------------------- #
# host
# --------------------------------------------------------------------------- #
def cache_sizes() -> dict[str, int]:
    """``{"L2": bytes, "L3": bytes}`` of cpu0 from sysfs (0 when unreadable)."""
    sizes = {"L2": 0, "L3": 0}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            text = (index / "size").read_text().strip()
        except OSError:
            continue
        scale = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}.get(text[-1:], 1)
        digits = text[:-1] if text[-1:] in "KMG" else text
        if f"L{level}" in sizes and digits.isdigit():
            sizes[f"L{level}"] = int(digits) * scale
    return sizes


def stream_gbs(nbytes: int, repeats: int = 5) -> float:
    """Sustainable copy bandwidth (read + write) on arrays of ``nbytes``, GB/s.

    The yardstick for ``stencil.bw_frac``: measured in the same run, on
    arrays the size of the workload's mesh array, by the same NumPy the
    program computes with.
    """
    import numpy as np

    n = max(1, nbytes // 4)
    src = np.ones(n, dtype=np.float32)
    dst = np.empty_like(src)
    np.copyto(dst, src)
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        np.copyto(dst, src)
        times.append(time.perf_counter() - t0)
    return 2 * src.nbytes / median(times) / 1e9


def host_info() -> dict:
    import platform
    import shutil
    import subprocess

    import numpy as np

    cc = shutil.which(os.environ.get("CC") or "cc")
    cc_version = ""
    if cc:
        proc = subprocess.run([cc, "--version"], capture_output=True, text=True)
        cc_version = proc.stdout.splitlines()[0] if proc.stdout else ""
    rev = ""
    if shutil.which("git"):
        git = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        )
        rev = git.stdout.strip() if git.returncode == 0 else ""
    sizes = cache_sizes()
    return {
        "git_rev": rev or "not a git checkout",
        "nproc": os.cpu_count(),
        "l2_bytes": sizes["L2"],
        "l3_bytes": sizes["L3"],
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cc": cc_version,
    }
