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
deleted and rebuilt once (``native.cache_corrupt``). A run about to bind
several structures starts their builds ahead, side by side
(:func:`build_ahead`, from each binding's proxy, whose source has the
binding's sha); each binder then waits only for its own. Every compiler
run emits a ``native.build`` event.

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

At batch 1 a bound candidate reads its inputs **where they live**. Each
input no statement stores into (checked on the IR at bind time) loses
its ``in:`` buffer, and for the length of one :meth:`NativeProgram.run`
its pointer-table entry addresses the caller's array instead. That holds
when the array has the buffer's shape and dtype, is aligned, has the
buffer's inner and component strides and positive outer ones, and shares
no memory with an array the instance writes. A C-contiguous array runs on
the binding's own descriptor. One laid out at other outer strides — a
tiler block, a view of a wider mesh — runs on a descriptor re-derived
from the bound IR's statements (:func:`~repro.stencil.codegen.restride`,
then :func:`~repro.stencil.codegen.lower_c`), memoized per layout, and
only when every access stays inside the array on every axis, the
re-lowered source has the bound artifact's sha (so the proxy check
covers it) and every footprint lies inside the array. Any other array is
copied into an ``in:`` buffer, allocated the first time a copy needs it,
as :meth:`~repro.stencil.compiled.CompiledProgram.load` always does, and
a ``native.copy_in`` event names the input and why (``layout``, ``wrap``,
``sha`` or ``shares_memory``), once per instance, reason and layout. The
``inx:`` expansions are filled from wherever the input lives, and the
pointers and descriptor are reset before ``run`` returns.

A run given destinations (``into=``: per state field, the output array's
view over the mesh and the valid window of it, as a tiler pass passes
them) stores the window there **from its last iteration**, on the same
artifact. That iteration runs on a second descriptor, re-derived from
the IR the run reads on: the last tape's stores into the field's buffer
are clipped to the window (:func:`~repro.stencil.codegen.clip_stores`; a
store with none in it runs over no cell) and moved to the destination's
strides (:func:`~repro.stencil.codegen.restride`), and the buffer's
pointer-table entry addresses the destination for that one call. The
window's cells the last tape never stores (a settled boundary ring) are
copied from the buffer after it. Memoized per input layout, last tape
and destination layout, and used only when the re-lowered source keeps
the bound artifact's sha and every footprint lies inside its array. A
destination that cannot be served has its window copied out of the
final buffer after the run, and a ``native.copy_out`` event names the
field and why (``tape``, ``layout``, ``shares_memory``, ``reads``,
``window``, ``wrap`` or ``sha``), once per instance, reason and layout.
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
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

import numpy as np

from repro import observability as obs
from repro.mesh.mesh import Field
from repro.stencil.codegen import (
    _OMP_MIN_CELLS,
    Access,
    NativeCode,
    NativeIR,
    build_ir,
    clip_stores,
    dense_strides,
    emit_c,
    footprints,
    lower_c,
    restride,
    unique_statements,
)
from repro.stencil.compiled import _FLAT_ERRSTATE, CompiledProgram, Into
from repro.stencil.plan import ProgramPlan
from repro.util.errors import ValidationError

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
    #: its instance, IR and lowering (:func:`_emitted`), when emitted
    #: ahead of the bind (:func:`prepare`); the check consumes them
    emitted: tuple | None = None


def _emitted(
    proxy: Proxy,
) -> tuple[CompiledProgram, NativeIR | None, NativeCode | None]:
    """A fresh instance of ``proxy``, its IR and the IR's lowering (None
    where no IR builds)."""
    inst = CompiledProgram(proxy.plan, batch=proxy.batch)
    ir = build_ir(inst)
    return inst, ir, lower_c(ir) if ir is not None else None


def prepare(proxy: Proxy) -> tuple[Proxy, str | None]:
    """``proxy`` with its check binding emitted, and the sha whose compiler
    run this started (:func:`build_ahead`), if one did: the full binding's
    source has the proxy's sha, so its bind takes the run up."""
    emitted = _emitted(proxy)
    code = emitted[2]
    sha = build_ahead(code.source) if code is not None else None
    return proxy._replace(emitted=emitted), sha


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


def _compiled_lib(source: str) -> tuple[ctypes.CDLL | None, float, float]:
    """Build (or reuse) the shared object for one generated C source: the
    library, the compiler seconds of the run that built it for this call
    (0.0 on a memo or disk hit) and the seconds this call waited on a run
    already going — another binder's, or one started by
    :func:`build_ahead`.

    Content-addressed: the key is the sha of source + flags, so equal
    sources across instances, threads and processes share one artifact.
    Within a process the build is single-flight — the first caller of a
    sha builds under that sha's lock and later callers wait for its
    result — and concurrent processes race benignly through atomic
    renames. An artifact that does not load as one (truncated, foreign) is
    deleted and rebuilt once, with a ``native.cache_corrupt`` event.
    """
    sha = _sha(source)
    start = time.perf_counter()
    with _lock:
        gate = _gates.setdefault(sha, threading.Lock())
    with gate:
        waited = time.perf_counter() - start
        with _lock:  # built, or found no compiler, by an earlier caller
            if sha in _libs:
                return _libs[sha], 0.0, waited
            if _cc_broken:
                return None, 0.0, 0.0
        lib, build_s, wait_s = _build(sha, source)
        with _lock:
            if not _cc_broken:
                _libs[sha] = lib
    return lib, build_s, waited + wait_s


class _Build:
    """One compiler run of a source into its artifact, in a temporary
    directory beside the cache. The run is a child process; a thread
    notes when it ends and does nothing else, so what the run cost is
    known whenever its result is taken up."""

    def __init__(self, cc: str, sha: str, source: str):
        self.sha = sha
        self._tmp = tempfile.TemporaryDirectory(dir=_cache_dir())
        try:
            tmp = Path(self._tmp.name)
            c_path = tmp / f"{sha}.c"
            c_path.write_text(source)
            self._out = tmp / f"{sha}.so"
            self._err = tmp / "stderr"
            #: the start on the event clock, and the run's wall seconds
            self.start = time.time()
            self.seconds = 0.0
            self._t0 = time.perf_counter()
            with self._err.open("wb") as err:
                self._proc = subprocess.Popen(
                    [cc, *_CC_FLAGS, "-o", str(self._out), str(c_path)],
                    stdout=subprocess.DEVNULL,
                    stderr=err,
                )
        except BaseException:
            self._tmp.cleanup()
            raise
        self._reaper = threading.Thread(
            target=self._reap, name=f"repro-cc-{sha[:8]}", daemon=True
        )
        self._reaper.start()

    def _reap(self) -> None:
        # no timeout: a timed wait polls, and notes the end up to 50 ms late
        self._proc.wait()
        self.seconds = time.perf_counter() - self._t0

    def _report(self, ok: bool) -> None:
        """The run's ``native.build`` event; its thread has ended."""
        obs.emit(
            "native.build", sha=self.sha, start=self.start, seconds=self.seconds, ok=ok
        )

    def finish(self, so_path: Path) -> float:
        """Wait for the run and move its artifact to ``so_path``; the run's
        seconds. OSError when it built nothing."""
        try:
            self._reaper.join(timeout=self._t0 + 120 - time.perf_counter())
            if self._reaper.is_alive():  # stuck for two minutes: stop it
                self._proc.kill()
                self._reaper.join()
            ok = self._proc.returncode == 0
            self._report(ok)
            if not ok:
                error = self._err.read_bytes().decode(errors="replace")
                raise OSError(f"native build failed: {error[:500]}")
            os.replace(self._out, so_path)
            return self.seconds
        finally:
            self._tmp.cleanup()

    def cancel(self) -> None:
        """Stop the run and drop what it wrote."""
        self._proc.kill()
        self._reaper.join()
        self._report(False)
        self._tmp.cleanup()


#: source sha -> its compiler run started by :func:`build_ahead`, until a
#: binder takes it up (:func:`_build`) or :func:`cancel_builds` stops it
_pending: dict[str, _Build] = {}


def _build(sha: str, source: str) -> tuple[ctypes.CDLL | None, float, float]:
    """Load the artifact of ``sha`` from disk, or finish the compiler run
    :func:`build_ahead` started for it, or compile ``source`` into it: the
    library (None when nothing builds), the compiler seconds and the
    seconds spent waiting on a run started ahead."""
    global _cc_broken
    lib: ctypes.CDLL | None = None
    build_s = wait_s = 0.0
    with _lock:
        build = _pending.pop(sha, None)
    try:
        so_path = _cache_dir() / f"{sha}.so"
        if build is None and so_path.exists():
            try:
                lib = _load(so_path)
            except (OSError, AttributeError) as exc:
                obs.emit("native.cache_corrupt", path=str(so_path), error=repr(exc))
                so_path.unlink(missing_ok=True)
        if lib is None:
            if build is None:
                cc = _find_cc()
                if cc is None:
                    with _lock:
                        _cc_broken = True
                    return None, 0.0, 0.0
                build_s = _Build(cc, sha, source).finish(so_path)
            else:
                start = time.perf_counter()
                build_s = build.finish(so_path)
                wait_s = time.perf_counter() - start
            lib = _load(so_path)
    except Exception as exc:  # noqa: BLE001 - any build problem means fallback
        obs.emit("native.cc_build_failed", error=repr(exc))
        lib = None
    return lib, build_s, wait_s


def build_ahead(source: str) -> str | None:
    """Start the compiler run of ``source`` now, for a later binder of its
    sha to take up (:func:`_build`) — the sha, or None when no run started:
    the artifact is memoized, on disk or being built, no compiler exists,
    or a binder of the sha holds its gate. Only the child process and the
    thread that notes its end run beside the caller."""
    sha = _sha(source)
    with _lock:
        gate = _gates.setdefault(sha, threading.Lock())
    if not gate.acquire(blocking=False):
        return None
    try:
        with _lock:
            if sha in _libs or sha in _pending or _cc_broken:
                return None
        cc = _find_cc()
        if cc is None or (_cache_dir() / f"{sha}.so").exists():
            return None
        build = _Build(cc, sha, source)
        with _lock:
            _pending[sha] = build
        return sha
    except OSError:  # the binder builds it, and reports why not
        return None
    finally:
        gate.release()


def cancel_builds(shas: Iterable[str]) -> None:
    """Stop each run :func:`build_ahead` started for ``shas`` that no binder
    has taken up, and join its thread."""
    with _lock:
        builds = [_pending.pop(sha) for sha in shas if sha in _pending]
    for build in builds:
        build.cancel()


def probe_source() -> str:
    """The source of the statement-free artifact :func:`team_size` reads."""
    probe = NativeIR(
        bases=[], warm=(), steady=([], []), dtype=np.dtype(np.float64),
        registers=frozenset(), forwarded=0,
    )
    return emit_c(probe)


def team_size() -> int:
    """The OpenMP team a forked loop of a generated artifact runs on — what
    a bound runner reports as ``threads`` — or 1 when nothing builds.

    Read from a statement-free artifact (:func:`probe_source`), built once
    and cached like any other, so the answer exists before any binding
    does.
    """
    lib, _, _ = _compiled_lib(probe_source())
    return lib.repro_threads() if lib is not None else 1


def _bits(arr: np.ndarray) -> np.ndarray:
    """The array's bit patterns: an unsigned-integer view (NaN == NaN)."""
    return arr.view(np.dtype(f"u{arr.itemsize}"))


class _Runner:
    """One loaded artifact bound to one instance's bases and descriptor.

    ``runner(k0, n)`` runs iterations ``k0 .. k0+n`` forking nests of at
    least ``_OMP_MIN_CELLS`` cells; ``grain=`` overrides that for the check. It
    reports the ``sha`` of its source, the ``kernels`` it emits, the
    ``threads`` its forked loops run on, the ``schedule`` emitted, the
    compiler seconds its build took (``build_s``, 0.0 when the artifact
    was memoized or on disk) and the seconds the bind waited on a build
    already going (``wait_s``)."""

    def __init__(
        self, lib: ctypes.CDLL, sha: str, build_s: float, wait_s: float,
        ir: NativeIR, code: NativeCode,
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
        self.describe()
        self._run = lib.repro_run
        self._batch = ir.batch
        self.kernels = len(code.kernels)
        self.sha = sha
        self.build_s = build_s
        self.wait_s = wait_s
        self.threads = lib.repro_threads()
        self.schedule = "members" if code.members else "nests"

    def __call__(self, k0: int, n: int, grain: int = _OMP_MIN_CELLS) -> None:
        self._run(*self._args, k0, n, self._batch, grain)

    def describe(self, descriptor: np.ndarray | None = None) -> None:
        """Run on ``descriptor`` (held here while in use), or on the
        binding's own."""
        self._active = self._descriptor if descriptor is None else descriptor
        self._args = (self._ptrs.ctypes.data, self._active.ctypes.data)

    def point(self, base: int, arr: np.ndarray | None = None) -> None:
        """Address ``base`` at ``arr``'s data, or at nothing."""
        self._ptrs[base] = 0 if arr is None else arr.__array_interface__["data"][0]

    def run_on(
        self, descriptor: np.ndarray, arrays: Mapping[int, np.ndarray],
        restore: Mapping[int, np.ndarray], k0: int, n: int,
    ) -> None:
        """Iterations ``k0 .. k0+n`` on ``descriptor`` with each base of
        ``arrays`` addressed at its array; then the descriptor in use
        before and each base of ``restore`` at its array again."""
        active = self._active
        self.describe(descriptor)
        for base, arr in arrays.items():
            self.point(base, arr)
        try:
            self(k0, n)
        finally:
            self.describe(active)
            for base, arr in restore.items():
                self.point(base, arr)

    def pointed(self, bases) -> bool:
        """True when every base of ``bases`` addresses an array."""
        return all(self._ptrs[base] for base in bases)


def _outside(
    code: NativeCode, batch: int, sizes: Sequence[int]
) -> tuple[int, int, int] | None:
    """The first ``(base, lowest, highest element)`` footprint of ``code``
    that reaches outside its base (``sizes``: elements per base), or None."""
    return next(
        (
            (base, lo, hi)
            for base, lo, hi in footprints(code, batch)
            if lo < 0 or hi >= sizes[base]
        ),
        None,
    )


def _bind_cc(ir: NativeIR, code: NativeCode | None = None) -> _Runner | None:
    """A runner over the instance's bases (``code``: the IR's lowering,
    when the caller has it), or None when nothing builds or a footprint
    its descriptor gives reaches outside its base — checked before the
    runner exists, so such a runner never runs."""
    code = code or lower_c(ir)
    lib, build_s, wait_s = _compiled_lib(code.source)
    if lib is None:
        return None
    sizes = [b.size for b in ir.bases]
    outside = _outside(code, ir.batch, sizes)
    if outside is not None:
        base, lo, hi = outside
        obs.emit("native.out_of_bounds", base=base, lo=lo, hi=hi, size=sizes[base])
        return None
    return _Runner(lib, _sha(code.source), build_s, wait_s, ir, code)


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
    inst._load_expansions(
        {name: inst._buffers[f"in:{name}"] for name in inst.plan.inputs}
    )
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


def _in_place_inputs(inst: CompiledProgram, ir: NativeIR) -> dict[str, int]:
    """Input name -> base of every input ``ir``'s code may read where the
    caller's array lives: at batch 1, each input whose buffer no statement
    stores into; none on a stacked binding, which copies its members in."""
    if inst.batch > 1:
        return {}
    index = {id(base): i for i, base in enumerate(ir.bases)}
    stored = {stmt.dest.base for tape in ir.tapes for stmt in tape}
    bases = {name: index[id(inst._buffers[f"in:{name}"])] for name in inst.plan.inputs}
    return {name: base for name, base in bases.items() if base not in stored}


def _in_place_layout(data: np.ndarray, owned) -> tuple[int, ...] | str:
    """The element strides at which generated code may read ``data`` where
    it lives, or why it is copied instead: ``"layout"`` unless it is
    aligned, its inner and component strides are the input buffer's (unit
    per element) and its outer strides are positive; ``"shares_memory"``
    when it overlaps an array of ``owned``, which the instance writes. The
    stride of an axis of extent 1 never moves an index: it reads as the
    buffer's."""
    dense = dense_strides(data.shape)
    strides = tuple(
        d if n == 1 else s // data.itemsize
        for n, s, d in zip(data.shape, data.strides, dense)
    )
    if not data.flags.aligned or strides[-2:] != dense[-2:] or min(strides) <= 0:
        return "layout"
    if any(np.shares_memory(data, arr) for arr in owned):
        return "shares_memory"
    return strides


def _read_registers(inst: CompiledProgram, ir: NativeIR) -> frozenset:
    """Keys of ``inst``'s registers that ``ir``'s statements read."""
    used = {id(ir.bases[i]) for i in ir.referenced}
    return frozenset(key for key, reg in inst._registers.items() if id(reg) in used)


def _check_on_proxy(runner: _Runner, proxy: Proxy) -> bool | str:
    """:func:`_check` of ``runner``'s artifact on a fresh instance of
    ``proxy``, or the sha of the proxy's own source when it is not
    ``runner``'s."""
    inst, ir, code = proxy.emitted or _emitted(proxy)
    sha = _sha(code.source) if code is not None else ""
    if sha != runner.sha:
        return sha
    candidate = _bind_cc(ir, code)
    if candidate is None:
        return False
    keep = _read_registers(inst, ir)
    del ir, code
    return _check(inst, candidate, keep)


def _reach(shape: Sequence[int], strides: Sequence[int]) -> int:
    """Elements an array of ``shape`` at element ``strides`` spans."""
    return 1 + sum((n - 1) * s for n, s in zip(shape, strides))


def _unstored(
    shape: tuple[int, ...], window: tuple[slice, ...], stores: Sequence[Access]
) -> list[tuple[slice, ...]] | None:
    """Boxes covering the cells of ``window``, in a C-contiguous array of
    ``shape``, that no access of ``stores`` reaches; None when one reaches
    a cell outside the window (a neighbouring block's)."""
    mask = np.zeros(shape, dtype=bool)
    mask[window] = True
    flat = mask.reshape(-1)
    views = []
    for a in stores:
        spans = [(n - 1) * s for n, s in zip(a.shape, a.strides)]
        low = a.offset + sum(min(d, 0) for d in spans)
        if low < 0 or a.offset + sum(max(d, 0) for d in spans) >= flat.size:
            return None
        view = np.lib.stride_tricks.as_strided(flat[a.offset :], a.shape, a.strides)
        views.append(view)
    if not all(view.all() for view in views):
        return None
    for view in views:
        view[...] = False
    return _boxes(mask)


def _boxes(mask: np.ndarray) -> list[tuple[slice, ...]]:
    """Boxes covering the true cells of ``mask``: the runs of equal slices
    along its first axis, each split the same way along the rest."""
    if not mask.any():
        return []
    if mask.ndim == 0:
        return [()]
    rows = mask.reshape(len(mask), -1)
    cuts = [0, *(np.flatnonzero((rows[1:] != rows[:-1]).any(axis=1)) + 1), len(mask)]
    return [
        (slice(lo, hi), *box)
        for lo, hi in zip(cuts, cuts[1:])
        for box in _boxes(mask[lo])
    ]


class _Layout(NamedTuple):
    """How a run reads its inputs (:meth:`NativeProgram._restrided`)."""

    #: the memo key: name -> element strides of each input read restrided
    key: tuple
    #: the descriptor the run reads on; None for the binding's own
    descriptor: np.ndarray | None
    #: inputs copied in instead, each with why
    refused: dict[str, str]
    #: the IR the descriptor is lowered from, and its bases' sizes
    ir: NativeIR
    sizes: list[int]


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
    registers a statement references. It never binds the tape. At batch 1
    it owns no input buffer either: :meth:`run` points the code at the
    caller's arrays for the length of the call — a tiler block's too, on
    a descriptor re-derived for its strides — and an input buffer is
    allocated only when a copy first needs it (:meth:`load`, an array
    that cannot be read in place). Its last iteration stores into the
    destinations a run is given, where it can (:meth:`_redirected`).
    """

    def __init__(self, plan, batch: int = 1, proxy: Proxy | None = None):
        self.native_backend = "tape"
        self._runner: _Runner | None = None
        self._proxy = proxy
        self._stats: dict = {}
        #: input name -> base of each input a run reads where it lives
        self._in_place: dict[str, int] = {}
        #: buffer slot -> its base in the pointer table
        self._bases: dict[str, int] = {}
        #: the bound IR's statements (no arrays) and its bases' sizes, from
        #: which a descriptor for arrays laid out otherwise is re-derived;
        #: kept by a ``cc`` binding at batch 1
        self._ir: NativeIR | None = None
        self._sizes: list[int] = []
        #: input layouts (name -> element strides) -> :meth:`_restrided`
        self._layouts: dict[tuple, _Layout] = {}
        #: (input layout, tape, destinations) -> :meth:`_redirected`
        self._stores: dict[tuple, tuple[np.ndarray | None, dict, dict]] = {}
        #: the last iteration of the run in flight: its descriptor and,
        #: per redirected base, (destination, buffer, boxes to copy)
        self._final: tuple[np.ndarray, dict[int, tuple]] | None = None
        #: (kind, field, reason, strides) of each copy a ``native.copy_in``
        #: or ``native.copy_out`` reported
        self._copies: set[tuple] = set()
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
        of the candidate's artifact, the ``build_s`` compiler seconds,
        ``wait_s`` seconds waited on a build already going and
        ``verify_s`` check seconds the bind spent, 0.0 where it built,
        waited on or checked nothing, the ``verify_mesh`` and ``verify_batch`` of
        the binding whose check licenses the candidate — None where no
        candidate built — and ``in_place``, the inputs :meth:`run` reads
        where they live: ``[]`` on the tape and when stacked)."""
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
            "sha": None, "build_s": 0.0, "wait_s": 0.0, "verify_s": 0.0,
            "verify_mesh": None, "verify_batch": None,
        }
        ir = build_ir(self)
        runner = _bind_cc(ir) if ir is not None else None
        if runner is not None:
            keep = _read_registers(self, ir)
            in_place = _in_place_inputs(self, ir)
            index = {id(base): i for i, base in enumerate(ir.bases)}
            bases = {slot: index[id(buf)] for slot, buf in self._buffers.items()}
            # the emission reads only how many bases there are: keep no array
            sizes = [b.size for b in ir.bases]
            statements = replace(ir, bases=[None] * len(sizes))
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
                "wait_s": runner.wait_s,
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
                self._in_place, self._bases = in_place, bases
                if self.batch == 1:
                    self._ir, self._sizes = statements, sizes
                for name, base in in_place.items():
                    del self._buffers[f"in:{name}"]
                    runner.point(base)
                stats = cc_stats
        if self._runner is None:
            # unsupported dtype, no compiler, failed build, out-of-bounds
            # descriptor or vetoed candidate: the inherited tape replay runs
            self._bind_tapes()
        self._proxy = None  # bound: keep none of the check's arrays
        self._stats = {**stats, "bytes": self.nbytes}
        obs.emit(
            "native.bound", backend=self.native_backend,
            mesh=list(self.plan.mesh.shape), batch=self.batch,
            tapes=len(stats["statements"]), **self._stats, **bound,
            in_place=list(self._in_place),
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

    # -- inputs ------------------------------------------------------------------
    def _input_buffer(self, name: str) -> np.ndarray:
        buf = super()._input_buffer(name)
        if name in self._in_place:  # the copy is what the code reads now
            self._runner.point(self._in_place[name], buf)
        return buf

    @contextmanager
    def _bound_inputs(
        self, fields: Mapping[str, Field], niter: int, into: Into | None
    ) -> Iterator[Into]:
        """Point the code at each in-place input the caller's array can
        stand in for (:func:`_in_place_layout`, then :meth:`_restrided`
        for one laid out at other outer strides) and copy the rest, for
        the length of one :meth:`run`; the caller holds the instance lock.
        When no array qualifies, every input is copied in by :meth:`load`.

        Each destination of ``into`` the last iteration can store into
        (:meth:`_redirected`) is stored there; the destinations it cannot
        are yielded, for :meth:`run` to copy the window into. On the way
        out every pointer and descriptor set here is reset, so the
        instance keeps nothing of the caller's."""
        arrays = self._input_arrays(fields) if self._in_place or into else {}
        owned = [*self._buffers.values(), *self._registers.values()]
        layouts = {name: _in_place_layout(arrays[name], owned) for name in self._in_place}
        layout = self._restrided(
            {
                name: strides for name, strides in layouts.items()
                if isinstance(strides, tuple)
                and strides != dense_strides(arrays[name].shape)
            }
        )
        reasons = {
            name: reason for name, reason in layouts.items() if isinstance(reason, str)
        } | layout.refused
        for name, reason in reasons.items():
            self._report("native.copy_in", "input", name, reason, arrays[name])
        pointed = {name: arrays[name] for name in layouts if name not in reasons}
        final, copied = None, {}
        if into:
            final, refused = self._redirected(
                layout, niter, into, [*owned, *arrays.values()]
            )
            for name, reason in refused.items():
                self._report("native.copy_out", "output", name, reason, into[name][0])
            copied = {name: into[name] for name in refused}
        try:
            if pointed:
                self._runner.describe(layout.descriptor)
                inputs: dict[str, np.ndarray] = {}
                for name, data in arrays.items():
                    if name in pointed:
                        self._runner.point(self._in_place[name], data)
                        inputs[name] = data
                    else:
                        inputs[name] = self._input_buffer(name)
                        np.copyto(inputs[name], data)
                self._load_expansions(inputs)
                self._iterations_done = 0
            else:
                self.load(fields)
            self._final = final
            yield copied
        finally:
            self._final = None
            if pointed:
                self._runner.describe()
                for name in pointed:
                    self._runner.point(self._in_place[name])

    def _report(
        self, kind: str, role: str, name: str, reason: str, data: np.ndarray
    ) -> None:
        """One ``kind`` event per field, reason and layout."""
        copy = (kind, name, reason, data.strides)
        if obs.is_enabled() and copy not in self._copies:
            self._copies.add(copy)
            obs.emit(
                kind, **{role: name}, reason=reason, strides=list(data.strides),
                mesh=list(self.plan.mesh.shape),
            )

    def _restrided(self, strided: Mapping[str, tuple[int, ...]]) -> _Layout:
        """The descriptor on which the bound code reads each input of
        ``strided`` (name -> element strides other than its buffer's)
        where it lives — None for the binding's own — and the inputs it
        cannot serve, each with why: ``"wrap"`` when an access
        (:func:`~repro.stencil.codegen.restride`) or a footprint leaves
        the array, ``"sha"`` when the re-lowered source is not the bound
        artifact's, so the proxy check would not cover it. Memoized per
        layout; only the descriptor differs from the checked binding's."""
        key = tuple(sorted(strided.items()))
        if key in self._layouts:
            return self._layouts[key]
        ir, sizes, refused = self._ir, list(self._sizes), {}
        for name, strides in strided.items():
            base, shape = self._in_place[name], self.plan.buffers[f"in:{name}"]
            moved = restride(ir, base, shape, strides)
            if moved is None:
                refused[name] = "wrap"
                continue
            ir = moved
            sizes[base] = _reach(shape, strides)
        kept = [name for name in strided if name not in refused]
        layout = _Layout(key, None, refused, self._ir, self._sizes)
        if kept:
            code = lower_c(ir)
            if _sha(code.source) != self._runner.sha:
                refused.update(dict.fromkeys(kept, "sha"))
            elif _outside(code, 1, sizes) is not None:
                refused.update(dict.fromkeys(kept, "wrap"))
            else:
                layout = _Layout(key, code.descriptor, refused, ir, sizes)
        self._layouts[key] = layout
        return layout

    def _redirected(
        self, layout: _Layout, niter: int, into: Into, others: Sequence[np.ndarray]
    ) -> tuple[tuple[np.ndarray, dict[int, tuple]] | None, dict[str, str]]:
        """How the last of ``niter`` iterations, read on ``layout``, stores
        each state field of ``into`` into its destination: the descriptor
        it runs on and, per base it stores elsewhere, the destination, the
        buffer and the boxes of the window to copy from that buffer (the
        cells the last tape never stores, a settled boundary ring) — None
        when no field qualifies; and the fields it does not, each with
        why. ``"tape"`` on the tape replay; ``"layout"`` and
        ``"shares_memory"`` as for an input (:func:`_in_place_layout`,
        ``others`` the arrays the run reads or writes); ``"reads"`` when
        the last tape also reads the field's buffer, ``"window"`` when a
        store cannot be clipped to the window
        (:func:`~repro.stencil.codegen.clip_stores`) or a clipped one
        reaches a cell outside it (:func:`_unstored`), and ``"wrap"`` and
        ``"sha"`` as in :meth:`_restrided`. The descriptor is memoized per
        input layout, last tape and destination layout."""
        if self._ir is None:
            return None, dict.fromkeys(into, "tape")
        tape = self.plan.tape_index(niter - 1)
        slots = self.plan.final_env(niter)
        wanted, refused = {}, {}
        for name, (dest, window) in into.items():
            strides = _in_place_layout(dest, others)
            if isinstance(strides, str):
                refused[name] = strides
            else:
                bounds = tuple(sl.indices(n) for sl, n in zip(window, dest.shape))
                wanted[name] = (slots[name], strides, bounds)
        key = (layout.key, tape, tuple(sorted(wanted.items())))
        if key not in self._stores:
            self._stores[key] = self._derive_final(layout, tape, wanted)
        descriptor, boxes, reasons = self._stores[key]
        refused.update(reasons)
        if descriptor is None:
            return None, refused
        stored = {
            self._bases[slots[name]]: (
                into[name][0], self._buffers[slots[name]], boxes[name]
            )
            for name in boxes
        }
        return (descriptor, stored), refused

    def _derive_final(
        self, layout: _Layout, tape: int, wanted: Mapping[str, tuple]
    ) -> tuple[np.ndarray | None, dict[str, list], dict[str, str]]:
        """:meth:`_redirected`'s derivation for ``wanted`` (name -> buffer
        slot, element strides, window bounds): the descriptor, the boxes to
        copy per field stored, and the fields refused with why."""
        ir, sizes = layout.ir, list(layout.sizes)
        boxes: dict[str, list] = {}
        refused: dict[str, str] = {}
        emptied: list[int] = []
        for name, (slot, strides, bounds) in wanted.items():
            base, shape = self._bases[slot], self.plan.buffers[slot]
            window = tuple(slice(*b) for b in bounds)
            clipped = clip_stores(ir, tape, base, shape, window)
            if isinstance(clipped, str):
                refused[name] = clipped
                continue
            clip, stores, empty = clipped
            unstored = _unstored(shape, window, stores)
            moved = restride(clip, base, shape, strides, tape)
            if unstored is None or moved is None:
                refused[name] = "window" if unstored is None else "wrap"
                continue
            ir = moved
            sizes[base] = _reach(shape, strides)
            boxes[name] = unstored
            emptied += empty
        if not boxes:
            return None, boxes, refused
        code = lower_c(ir)
        first = sum(len(t) for t in ir.tapes[:tape])
        reason = None
        if _sha(code.source) != self._runner.sha:
            reason = "sha"
        elif any(code.calls[first + j][0].rank == 0 for j in emptied):
            reason = "window"
        else:
            for j in emptied:  # a nest with no store in the window runs none
                code.descriptor[code.calls[first + j][2]] = 0
            last = code.calls[first : first + len(ir.tapes[tape])]
            if _outside(replace(code, calls=last), 1, sizes) is not None:
                reason = "wrap"
        if reason is not None:
            return None, {}, refused | dict.fromkeys(boxes, reason)
        return code.descriptor, boxes, refused

    # -- execution -------------------------------------------------------------
    def _iterate(self, n: int) -> None:
        if self._runner is None:
            super()._iterate(n)
            return
        if not self._runner.pointed(self._in_place.values()):
            # bound, or last run, on the caller's arrays: nothing to read
            raise ValidationError(
                "no inputs loaded: load() them before run_iterations()"
            )
        k0 = self._iterations_done
        if self._final is None:
            self._runner(k0, n)
        else:
            # the stretch ends on the run's last iteration, which stores
            # into the destinations; then the cells it never stores there
            descriptor, stored = self._final
            if n > 1:
                self._runner(k0, n - 1)
            self._runner.run_on(
                descriptor,
                {base: dest for base, (dest, _, _) in stored.items()},
                {base: buf for base, (_, buf, _) in stored.items()},
                k0 + n - 1, 1,
            )
            for dest, buf, boxes in stored.values():
                for box in boxes:
                    np.copyto(dest[box], buf[box])
        self._iterations_done += n
