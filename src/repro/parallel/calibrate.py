"""Per-host calibration of the stacked-dispatch footprint budget.

The chunked stacked scheduler bounds each stack's working set by a byte
budget (:data:`repro.stencil.compiled.STACKED_BYTES_LIMIT`): too small and
per-mesh Python dispatch dominates, too large and the stacked stream
falls out of cache. The right crossover is a property of the *host* —
cache sizes, core count, allocator — not of the code, so a hardcoded
1 MiB is only ever approximately right.

:func:`calibrated_bytes_limit` replaces the constant with a measured one:
a one-shot probe times the chunked stacked engine over a ladder of
candidate budgets on a small Jacobi-3D workload (the cheapest registry
app with a realistic tape) and keeps the fastest. The result is cached on
disk keyed by ``host : cpu count : dtype``, so every later process on the
same host pays a file read, not a probe. ``REPRO_STACKED_BYTES_LIMIT``
overrides the whole mechanism (CI uses it for determinism), and
``REPRO_CALIBRATION_CACHE`` relocates the cache file (tests point it at a
tmp dir).
"""

from __future__ import annotations

import json
import os
import platform
import tempfile
import time
from pathlib import Path

import numpy as np

from repro.stencil.compiled import (
    STACKED_BYTES_LIMIT,
    CompiledPlanCache,
    run_program_stacked,
)

#: candidate budgets, bytes; 0 means "per-mesh replay" (no stacking) and
#: anchors the low end so a host where stacking never pays is representable
DEFAULT_BUDGETS = (0, 1 << 17, 1 << 18, 1 << 19, 1 << 20, 1 << 21, 1 << 22)

#: probe workload: small enough to finish in well under a second, large
#: enough that the budget actually changes the chunk schedule
_PROBE_SHAPE = (24, 24, 16)
_PROBE_BATCH = 48
_PROBE_NITER = 4
_PROBE_REPEATS = 3

#: cache-format version; bump to invalidate stale entries on upgrade
_VERSION = 1

ENV_OVERRIDE = "REPRO_STACKED_BYTES_LIMIT"
ENV_CACHE = "REPRO_CALIBRATION_CACHE"

#: per-process memo so repeated calls do not re-read the file
_MEMO: dict[str, int] = {}


def cache_path() -> Path:
    """The calibration cache file for this user (env-relocatable)."""
    override = os.environ.get(ENV_CACHE)
    if override:
        return Path(override)
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(
        os.path.expanduser("~"), ".cache"
    )
    return Path(base) / "repro" / "calibration.json"


def host_key(dtype=np.float32) -> str:
    """The cache key: one entry per (host, core count, element type)."""
    return f"{platform.node()}:{os.cpu_count() or 1}:{np.dtype(dtype).str}"


def _probe_envs(dtype):
    from repro.apps.registry import app_by_name
    from repro.mesh.mesh import Field, MeshSpec

    app = app_by_name("jacobi3d")
    spec = MeshSpec(
        _PROBE_SHAPE, app.program.mesh.components, np.dtype(dtype)
    )
    program = app.program.with_mesh(spec)
    envs = [
        {
            name: Field.random(name, spec, seed=b)
            for name in program.required_inputs
        }
        for b in range(_PROBE_BATCH)
    ]
    return program, envs


def run_probe(dtype=np.float32, budgets=DEFAULT_BUDGETS) -> dict:
    """Time the chunked engine per candidate budget; return the ladder.

    Returns ``{"best": bytes, "timings": {str(budget): seconds}}`` where
    each timing is best-of-:data:`_PROBE_REPEATS` wall clock for the full
    probe batch. A private plan cache keeps the probe from evicting the
    caller's warm plans.
    """
    program, envs = _probe_envs(dtype)
    cache = CompiledPlanCache()
    timings: dict[str, float] = {}
    # warm the plan (and the allocator) outside the timed region
    run_program_stacked(program, envs, _PROBE_NITER, cache=cache)
    for budget in budgets:
        best = float("inf")
        for _ in range(_PROBE_REPEATS):
            t0 = time.perf_counter()
            run_program_stacked(
                program, envs, _PROBE_NITER, cache=cache,
                max_stack_bytes=float(budget),
            )
            best = min(best, time.perf_counter() - t0)
        timings[str(budget)] = best
    best_budget = min(budgets, key=lambda b: timings[str(b)])
    return {"best": int(best_budget), "timings": timings}


def _load_cache(path: Path) -> dict:
    try:
        data = json.loads(path.read_text())
    except (OSError, ValueError):
        return {}
    if not isinstance(data, dict) or data.get("version") != _VERSION:
        return {}
    entries = data.get("entries")
    return entries if isinstance(entries, dict) else {}


def _store_cache(path: Path, entries: dict) -> None:
    """Write the cache atomically: temp file in the same directory + rename.

    A process killed mid-write (or two concurrent probes racing) must
    never leave a truncated ``calibration.json`` behind — readers would
    survive it (:func:`_load_cache` treats corrupt JSON as empty) but
    every later process would silently re-probe.
    """
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(
            prefix=path.name + ".", suffix=".tmp", dir=path.parent
        )
        try:
            with os.fdopen(fd, "w") as fh:
                json.dump({"version": _VERSION, "entries": entries}, fh, indent=2)
            os.replace(tmp, path)
        except BaseException:
            os.unlink(tmp)
            raise
    except OSError:  # read-only home: calibration still works, just re-probes
        pass


def calibrated_bytes_limit(dtype=np.float32, force: bool = False) -> int:
    """The measured stacking budget for this host and element type.

    Resolution order: the :data:`ENV_OVERRIDE` environment variable, the
    in-process memo, the on-disk cache, and finally a fresh probe (whose
    result is written back for every later process). ``force=True`` skips
    memo and disk and re-probes. Falls back to the static
    :data:`STACKED_BYTES_LIMIT` if the probe itself fails.
    """
    override = os.environ.get(ENV_OVERRIDE)
    if override:
        return int(float(override))
    key = host_key(dtype)
    if not force:
        memo = _MEMO.get(key)
        if memo is not None:
            return memo
        entries = _load_cache(cache_path())
        entry = entries.get(key)
        if isinstance(entry, dict) and isinstance(
            entry.get("stacked_bytes_limit"), int
        ):
            _MEMO[key] = entry["stacked_bytes_limit"]
            return _MEMO[key]
    try:
        probe = run_probe(dtype)
    except Exception:  # pragma: no cover - probe is best-effort by design
        return STACKED_BYTES_LIMIT
    path = cache_path()
    entries = _load_cache(path)
    entries[key] = {
        "stacked_bytes_limit": probe["best"],
        "timings": probe["timings"],
        "probed_at": time.strftime("%Y-%m-%dT%H:%M:%S"),
    }
    _store_cache(path, entries)
    _MEMO[key] = probe["best"]
    return probe["best"]


def cached_entry(dtype=np.float32) -> dict | None:
    """The stored calibration record for this host, if any (for reporting)."""
    return _load_cache(cache_path()).get(host_key(dtype))


def forget_memo() -> None:
    """Drop the in-process memo (tests re-point the cache file)."""
    _MEMO.clear()
