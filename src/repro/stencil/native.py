"""``engine="native"``: shape-generic loop nests, checked on a proxy mesh.

:class:`NativeProgram` is a drop-in :class:`~repro.stencil.compiled.CompiledProgram`
whose iterations — warm and steady alike — run generated code instead of
the per-op tape replay. At bind time it lowers the bound tapes through
:mod:`repro.stencil.codegen` into C that keeps the program's structure but
no extent, offset or outer stride — those travel in an ``int64``
descriptor beside the pointer table — and builds it once with the system
compiler (``-O3 -march=native -ffp-contract=off -fopenmp``) into a shared
object loaded via ``ctypes``; one foreign call covers a whole
``run_iterations`` stretch, by **absolute** iteration index
(``runner(k0, n)``), and inside it the work forks on libgomp's default
team (the CPUs the process may use, unless ``OMP_NUM_THREADS`` sets it)
by one of two schedules (:mod:`repro.stencil.codegen`): ``"members"``, for
a stacked binding whose every base splits by member, runs each batch
member through all of its iterations on one thread; ``"nests"``
otherwise runs every nest of at least ``_OMP_MIN_CELLS`` cells as its own
OpenMP worksharing loop. ``native_stats["schedule"]`` names which one
bound, and :func:`team_size` is the team, known before any binding.
Artifacts are content-addressed on disk (``~/.cache/repro/native``), so
bindings of one program structure — across meshes, instances, threads,
processes and, on the members schedule, stacked batch sizes — reuse one
build, which one binder at a time runs; an artifact that does not load is
deleted and rebuilt once (``native.cache_corrupt``).

The candidate is **checked on a proxy** before it binds: the same program
on a small mesh (:func:`proxy_shape`, lowered by
:meth:`~repro.stencil.compiled.CompiledPlanCache.get`) whose source has
the same sha — so the same loaded library — runs ``warm + 4`` iterations
from iteration 0 on seeded pseudo-random inputs, once with every
parallel-safe nest forked (grain 0) and once at ``_OMP_MIN_CELLS``, and
every buffer is compared bitwise with the tape replay of the proxy. The full
binding then differs from what was checked only in its pointer table and
descriptor, and before its first call every footprint the descriptor
gives is checked to lie inside its base (``native.out_of_bounds``). A
proxy whose source differs (``native.proxy_mismatch``) and a binding built
with no proxy are checked the same way on their own mesh, releasing the
tape before the reference copy is taken. An unsupported dtype,
a missing compiler, a failed build, an out-of-bounds descriptor or a
mismatch leaves the instance on the inherited tape replay — so
``engine="native"`` can never return anything the interpreter would not.
A bound candidate never binds the tape: the instance owns only the
buffers and the registers the generated code reads.
"""

from __future__ import annotations

import _ctypes
import ctypes
import hashlib
import os
import struct
import subprocess
import tempfile
import threading
import time
import zlib
from pathlib import Path
from typing import NamedTuple

import numpy as np

from repro import observability as obs
from repro.stencil.codegen import (
    _OMP_MIN_CELLS,
    NativeCode,
    NativeIR,
    build_ir,
    emit_c,
    footprints,
    lower_c,
    unique_statements,
)
from repro.stencil.compiled import _FLAT_ERRSTATE, CompiledProgram
from repro.stencil.plan import ProgramPlan

#: overrides the on-disk artifact cache directory
CACHE_DIR_ENV = "REPRO_NATIVE_CACHE_DIR"

#: compile flags shared by every cc build. -ffp-contract=off is load-
#: bearing: a contracted mul+add rounds once where NumPy rounds twice,
#: which would break bit-identity with the interpreter. -march=native is
#: safe for the same reason the bind-time check exists: artifacts
#: are per-host (content-addressed under ~/.cache) and every artifact is
#: bitwise-checked before use. -fopenmp is safe on the same terms: a forked
#: nest splits cells across threads, never a cell's arithmetic, no
#: reduction crosses threads, and the check runs every forkable nest forked.
#: A compiler without OpenMP fails the build, and the tape replay runs.
_CC_FLAGS = (
    "-O3", "-march=native", "-ffp-contract=off", "-fopenmp", "-fPIC", "-shared",
)

_lock = threading.Lock()
#: source sha -> loaded shared library (or None after a failed build)
_libs: dict[str, ctypes.CDLL | None] = {}
#: source sha -> the lock its builder holds while later callers wait
_gates: dict[str, threading.Lock] = {}
#: memoized "the system compiler is unusable" verdict
_cc_broken = False

#: proxy extents per axis, in paper order (m, n, l)
_PROXY_EXTENTS = (23, 21, 19)


def proxy_shape(shape: tuple[int, ...]) -> tuple[int, ...]:
    """The mesh a candidate for ``shape`` is checked on: per axis the
    largest odd extent at most the full one and :data:`_PROXY_EXTENTS`'s,
    and unlike every other axis's — so no vector width divides a row and a
    swapped pair of axes cannot pass unseen."""
    out: list[int] = []
    for full, want in zip(shape, _PROXY_EXTENTS):
        extent = min(full, want)
        extent -= 1 - extent % 2
        while extent in out:
            extent -= 2
        out.append(max(extent, 1))
    return tuple(out)


class Proxy(NamedTuple):
    """The binding a candidate is checked on."""

    plan: ProgramPlan
    batch: int


def _cache_dir() -> Path:
    root = os.environ.get(CACHE_DIR_ENV)
    if root:
        path = Path(root)
    else:
        path = Path.home() / ".cache" / "repro" / "native"
    path.mkdir(parents=True, exist_ok=True)
    return path


def _find_cc() -> str | None:
    from shutil import which

    for cand in (os.environ.get("CC"), "cc", "gcc", "clang"):
        if cand and which(cand):
            return cand
    return None


def _sha(source: str) -> str:
    """The artifact key: a digest of the source and the build flags."""
    return hashlib.sha256(
        (source + "\x00" + " ".join(_CC_FLAGS)).encode()
    ).hexdigest()[:32]


def _truncated(so_path: Path) -> bool:
    """True when an ELF64 artifact ends before the bytes its headers place
    in the file: the loader would fault on the missing pages, not raise."""
    data = so_path.read_bytes()
    if data[:6] != b"\x7fELF\x02\x01" or len(data) < 64:
        return False  # not little-endian ELF64: the loader's checks decide
    *_, phoff, shoff, _, _, phentsize, phnum, shentsize, shnum, _ = (
        struct.unpack_from("<16sHHIQQQIHHHHHH", data)
    )
    ends = [phoff + phentsize * phnum, shoff + shentsize * shnum]
    if phentsize >= 56 and ends[0] <= len(data):
        for at in range(phoff, ends[0], phentsize):
            _, _, offset, _, _, filesz, _, _ = struct.unpack_from("<IIQQQQQQ", data, at)
            ends.append(offset + filesz)
    return max(ends) > len(data)


def _load(so_path: Path) -> ctypes.CDLL:
    """Open one artifact and type its two entry points."""
    if _truncated(so_path):
        raise OSError(f"{so_path.name} is shorter than its ELF headers")
    lib = ctypes.CDLL(str(so_path))
    try:
        lib.repro_run.argtypes = [
            ctypes.c_void_p, ctypes.c_void_p, ctypes.c_int64, ctypes.c_int64,
            ctypes.c_int64, ctypes.c_int64,
        ]
        lib.repro_threads.restype = ctypes.c_int
    except AttributeError:
        # a foreign library: close it, or reopening the rebuilt file at the
        # same path would hand back this handle
        _ctypes.dlclose(lib._handle)
        raise
    lib.repro_run.restype = None
    return lib


def _compiled_lib(source: str) -> tuple[ctypes.CDLL | None, float]:
    """Build (or reuse) the shared object for one generated C source, and
    the compiler seconds this call spent (0.0 on a memo or disk hit).

    Content-addressed: the key is the sha of source + flags, so equal
    sources across instances, threads and processes share one artifact.
    Within a process the build is single-flight — the first caller of a
    sha builds under that sha's lock and later callers wait for its
    result — and concurrent processes race benignly through atomic
    renames. An artifact that does not load as one (truncated, foreign) is
    deleted and rebuilt once, with a ``native.cache_corrupt`` event.
    """
    sha = _sha(source)
    with _lock:
        gate = _gates.setdefault(sha, threading.Lock())
    with gate:
        with _lock:  # built, or found no compiler, by an earlier caller
            if sha in _libs:
                return _libs[sha], 0.0
            if _cc_broken:
                return None, 0.0
        lib, build_s = _build(sha, source)
        with _lock:
            if not _cc_broken:
                _libs[sha] = lib
    return lib, build_s


def _build(sha: str, source: str) -> tuple[ctypes.CDLL | None, float]:
    """Load the artifact of ``sha`` from disk, or compile ``source`` into
    it: the library (None when nothing builds) and the compiler seconds."""
    global _cc_broken
    lib: ctypes.CDLL | None = None
    build_s = 0.0
    try:
        so_path = _cache_dir() / f"{sha}.so"
        if so_path.exists():
            try:
                lib = _load(so_path)
            except (OSError, AttributeError) as exc:
                obs.emit("native.cache_corrupt", path=str(so_path), error=repr(exc))
                so_path.unlink(missing_ok=True)
        if lib is None:
            cc = _find_cc()
            if cc is None:
                with _lock:
                    _cc_broken = True
                return None, 0.0
            with tempfile.TemporaryDirectory(dir=so_path.parent) as tmp:
                c_path = Path(tmp) / f"{sha}.c"
                c_path.write_text(source)
                out = Path(tmp) / f"{sha}.so"
                start = time.perf_counter()
                proc = subprocess.run(
                    [cc, *_CC_FLAGS, "-o", str(out), str(c_path)],
                    capture_output=True,
                    timeout=120,
                )
                build_s = time.perf_counter() - start
                if proc.returncode != 0:
                    raise OSError(
                        f"native build failed: {proc.stderr.decode(errors='replace')[:500]}"
                    )
                os.replace(out, so_path)
            lib = _load(so_path)
    except Exception as exc:  # noqa: BLE001 - any build problem means fallback
        obs.emit("native.cc_build_failed", error=repr(exc))
        lib = None
    return lib, build_s


def team_size() -> int:
    """The OpenMP team a forked loop of a generated artifact runs on — what
    a bound runner reports as ``threads`` — or 1 when nothing builds.

    Read from a statement-free artifact, built once and cached like any
    other, so the answer exists before any binding does.
    """
    probe = NativeIR(
        bases=[], warm=(), steady=([], []), dtype=np.dtype(np.float64),
        registers=frozenset(), forwarded=0,
    )
    lib, _ = _compiled_lib(emit_c(probe))
    return lib.repro_threads() if lib is not None else 1


def _bits(arr: np.ndarray) -> np.ndarray:
    """The array's bit patterns: an unsigned-integer view (NaN == NaN)."""
    return arr.view(np.dtype(f"u{arr.itemsize}"))


class _Runner:
    """One loaded artifact bound to one instance's bases and descriptor.

    ``runner(k0, n)`` runs iterations ``k0 .. k0+n`` forking nests of at
    least ``_OMP_MIN_CELLS`` cells; ``grain=`` overrides that for the check. It
    reports the ``sha`` of its source, the ``kernels`` it emits, the
    ``threads`` its forked loops run on, the ``schedule`` emitted and the
    compiler seconds its build took (``build_s``, 0.0 when the artifact
    was memoized or on disk)."""

    def __init__(
        self, lib: ctypes.CDLL, sha: str, build_s: float, ir: NativeIR, code: NativeCode
    ):
        # the pointer table and descriptor are per instance (same source,
        # different buffers and extents); base data pointers are stable for
        # the instance's lifetime. Bases no statement references get a null
        # entry the emitted code never dereferences, so the instance need
        # not keep them
        used = ir.referenced
        self._ptrs = np.array(
            [
                b.__array_interface__["data"][0] if i in used else 0
                for i, b in enumerate(ir.bases)
            ],
            dtype=np.uint64,
        )
        self._descriptor = code.descriptor
        self._args = (self._ptrs.ctypes.data, self._descriptor.ctypes.data)
        self._run = lib.repro_run
        self._batch = ir.batch
        self.kernels = len(code.kernels)
        self.sha = sha
        self.build_s = build_s
        self.threads = lib.repro_threads()
        self.schedule = "members" if code.members else "nests"

    def __call__(self, k0: int, n: int, grain: int = _OMP_MIN_CELLS) -> None:
        self._run(*self._args, k0, n, self._batch, grain)


def _bind_cc(ir: NativeIR, code: NativeCode | None = None) -> _Runner | None:
    """A runner over the instance's bases (``code``: the IR's lowering,
    when the caller has it), or None when nothing builds or a footprint
    its descriptor gives reaches outside its base — checked before the
    runner exists, so such a runner never runs."""
    code = code or lower_c(ir)
    lib, build_s = _compiled_lib(code.source)
    if lib is None:
        return None
    for base, lo, hi in footprints(code, ir.batch):
        if lo < 0 or hi >= ir.bases[base].size:
            obs.emit(
                "native.out_of_bounds", base=base, lo=lo, hi=hi,
                size=ir.bases[base].size,
            )
            return None
    return _Runner(lib, _sha(code.source), build_s, ir, code)


def _verify_seeds(inst: CompiledProgram) -> dict[str, int]:
    """Input slot -> RNG seed of the check. A CRC of the slot name and
    shape, not ``hash()``: str hashes are salted per process, and a
    rejected candidate must be replayable."""
    return {
        slot: zlib.crc32(f"{slot}:{inst._buffers[slot].shape}".encode())
        for slot in (f"in:{name}" for name in inst.plan.inputs)
    }


def _seed_inputs(inst: CompiledProgram) -> None:
    """The state every run of the check starts from: zeroed buffers, NaN
    in every register, seeded inputs."""
    # identical starts, so a candidate that skips a store — or reads a
    # register whose store was elided — cannot pass on what the
    # reference left behind
    for buf in inst._buffers.values():
        buf.fill(0)
    for reg in inst._registers.values():
        reg.fill(np.nan)
    for slot, seed in _verify_seeds(inst).items():
        buf = inst._buffers[slot]
        # values in [0.5, 1.0): safely away from zero so division ops
        # cannot manufacture infs the replay would also see
        np.random.default_rng(seed).random(dtype=buf.dtype, out=buf)
        buf *= 0.5
        buf += 0.5
    inst._load_expansions()
    inst._iterations_done = 0


def _check(inst: CompiledProgram, candidate: _Runner, keep: frozenset) -> bool:
    """Bitwise check of ``candidate``, bound to ``inst``'s bases, against
    ``inst``'s own tape replay.

    The replay runs ``warm + 4`` iterations (every warm tape, both steady
    parities twice) from seeded inputs; the candidate then runs them twice
    from the same inputs, every register it reads NaN-poisoned: at grain
    0, every parallel-safe nest forked, and at ``_OMP_MIN_CELLS``, the
    serial nests ``inst``'s size gives. Every buffer must match the replay
    bit for bit both times.

    It owns the tape's lifetime, so the reference copy never overlaps what
    only the replay reads: bind the tapes, replay, drop the tapes, their
    constants and every register not in ``keep`` (keys of the registers
    the candidate reads), then copy the buffers. On the full mesh the
    peak is the replay's or two copies of the buffers, never both.
    """
    iters = len(inst.plan.warm) + 4
    if inst._warm is None:
        inst._bind_tapes()
    _seed_inputs(inst)
    with np.errstate(**_FLAT_ERRSTATE):
        CompiledProgram._iterate(inst, iters)
    inst._warm = inst._steady = None
    inst._constants = {}
    inst._registers = {key: reg for key, reg in inst._registers.items() if key in keep}
    reference = {slot: buf.copy() for slot, buf in inst._buffers.items()}
    for grain in (0, _OMP_MIN_CELLS):
        _seed_inputs(inst)
        with np.errstate(**_FLAT_ERRSTATE):
            candidate(0, iters, grain)
        if not all(
            np.array_equal(_bits(inst._buffers[slot]), _bits(ref))
            for slot, ref in reference.items()
        ):
            obs.emit(
                "native.verify_failed", backend="cc", grain=grain,
                mesh=list(inst.plan.mesh.shape), batch=inst.batch,
                seeds=_verify_seeds(inst),
            )
            return False
    return True


def _read_registers(inst: CompiledProgram, ir: NativeIR) -> frozenset:
    """Keys of ``inst``'s registers that ``ir``'s statements read."""
    used = {id(ir.bases[i]) for i in ir.referenced}
    return frozenset(key for key, reg in inst._registers.items() if id(reg) in used)


def _check_on_proxy(runner: _Runner, proxy: Proxy) -> bool | str:
    """:func:`_check` of ``runner``'s artifact on a fresh instance of
    ``proxy``, or the sha of the proxy's own source when it is not
    ``runner``'s."""
    inst = CompiledProgram(proxy.plan, batch=proxy.batch)
    ir = build_ir(inst)
    code = lower_c(ir) if ir is not None else None
    sha = _sha(code.source) if code is not None else ""
    if sha != runner.sha:
        return sha
    candidate = _bind_cc(ir, code)
    if candidate is None:
        return False
    keep = _read_registers(inst, ir)
    del ir, code
    return _check(inst, candidate, keep)


class NativeProgram(CompiledProgram):
    """A compiled program whose iterations run generated native code.

    Identical public surface and bit-identical results; only
    :meth:`_iterate` differs. :attr:`native_backend` names what actually
    runs the tapes: ``"cc"`` (the generated C) or ``"tape"`` (the
    inherited replay, when nothing bound).

    ``proxy`` is the binding the candidate is checked on
    (:meth:`~repro.stencil.compiled.CompiledPlanCache.get` passes one);
    without it the instance's own plan and batch are. A ``cc``-bound
    instance owns only what its generated code reads: the buffers and the
    registers a statement references. It never binds the tape.
    """

    def __init__(self, plan, batch: int = 1, proxy: Proxy | None = None):
        self.native_backend = "tape"
        self._runner: _Runner | None = None
        self._proxy = proxy
        self._stats: dict = {}
        super().__init__(plan, batch)

    @property
    def native_stats(self) -> dict:
        """What the bound rung executes: ``statements`` per tape (warm,
        then the steady pair), ``forwarded`` register stores elided,
        ``unique_statements``, the ``kernels`` emitted (one function
        each; on the tape, one per raw op like ``unique_statements``), the
        ``threads`` a forked loop runs
        on (1 on the tape), the ``schedule`` — ``"members"`` when each
        thread carries whole batch members through every iteration,
        ``"nests"`` when large nests fork one by one (and on the tape) —
        and the ``bytes`` the instance owns (a copy; the ``native.bound``
        event carries the same, plus the binding's ``mesh``, the ``sha``
        of the candidate's artifact, the ``build_s`` compiler seconds and
        ``verify_s`` check seconds the bind spent, 0.0 where it built or
        checked nothing, and the ``verify_mesh`` and ``verify_batch`` of
        the binding whose check licenses the candidate — None where no
        candidate built)."""
        return dict(self._stats)

    # -- backend selection -----------------------------------------------------
    def _bind_executor(self) -> None:
        # uninitialised registers give build_ir its base table; the tapes
        # are bound only when no candidate passes
        self._allocate_registers()
        raw = [len(t) for t in self.plan.warm + self.plan.steady]
        stats = {
            "statements": raw, "forwarded": 0, "unique_statements": sum(raw),
            "kernels": sum(raw), "threads": 1, "schedule": "nests",
        }
        bound = {
            "sha": None, "build_s": 0.0, "verify_s": 0.0,
            "verify_mesh": None, "verify_batch": None,
        }
        ir = build_ir(self)
        runner = _bind_cc(ir) if ir is not None else None
        if runner is not None:
            keep = _read_registers(self, ir)
            cc_stats = {
                "statements": [len(t) for t in ir.tapes],
                "forwarded": ir.forwarded,
                "unique_statements": len(unique_statements(ir)),
                "kernels": runner.kernels,
                "threads": runner.threads,
                "schedule": runner.schedule,
            }
            del ir  # it holds every register: let a full-mesh check free them
            start = time.perf_counter()
            verified, checked = self._verify(runner, keep)
            bound = {
                "sha": runner.sha,
                "build_s": runner.build_s,
                "verify_s": time.perf_counter() - start,
                "verify_mesh": list(checked.plan.mesh.shape),
                "verify_batch": checked.batch,
            }
            if verified:
                self.native_backend = "cc"
                self._runner = runner
                self._registers = {
                    key: reg for key, reg in self._registers.items() if key in keep
                }
                stats = cc_stats
        if self._runner is None:
            # unsupported dtype, no compiler, failed build, out-of-bounds
            # descriptor or vetoed candidate: the inherited tape replay runs
            self._bind_tapes()
        self._stats = {**stats, "bytes": self.nbytes}
        obs.emit(
            "native.bound", backend=self.native_backend,
            mesh=list(self.plan.mesh.shape), batch=self.batch,
            tapes=len(stats["statements"]), **self._stats, **bound,
        )

    def _verify(self, runner: _Runner, keep: frozenset) -> tuple[bool, Proxy]:
        """The check's verdict on ``runner`` and the binding it ran on: the
        proxy (:func:`_check_on_proxy`) or, when the proxy's source differs
        or there is none, this instance itself (:func:`_check`, ``keep``
        the registers ``runner`` reads), whose buffers are zeroed after."""
        proxy = self._proxy
        try:
            if proxy is not None:
                verdict = _check_on_proxy(runner, proxy)
                if isinstance(verdict, bool):
                    return verdict, proxy
                obs.emit(
                    "native.proxy_mismatch", sha=runner.sha, proxy_sha=verdict,
                    mesh=list(self.plan.mesh.shape), batch=self.batch,
                    proxy_mesh=list(proxy.plan.mesh.shape), proxy_batch=proxy.batch,
                )
                proxy = None
            try:
                return _check(self, runner, keep), Proxy(self.plan, self.batch)
            finally:
                for buf in self._buffers.values():
                    buf.fill(0)
                self._iterations_done = 0
        except Exception as exc:  # noqa: BLE001 - a crashing candidate is a veto
            obs.emit("native.verify_error", error=repr(exc))
            return False, proxy or Proxy(self.plan, self.batch)

    # -- execution -------------------------------------------------------------
    def _iterate(self, n: int) -> None:
        if self._runner is None:
            super()._iterate(n)
            return
        self._runner(self._iterations_done, n)
        self._iterations_done += n
