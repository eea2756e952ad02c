"""``engine="native"``: generated loop nests with a verified fallback.

:class:`NativeProgram` is a drop-in :class:`~repro.stencil.compiled.CompiledProgram`
whose iterations — warm and steady alike — run generated code instead of
the per-op tape replay. At bind time it lowers the bound tapes through
:mod:`repro.stencil.codegen` and builds the generated C once with the
system compiler (``-O3 -march=native -ffp-contract=off -fopenmp``) into a
shared object loaded via ``ctypes``; one foreign call covers a whole
``run_iterations`` stretch, by **absolute** iteration index
(``runner(k0, n)``), and inside it the work forks on libgomp's default
team (the CPUs the process may use, unless ``OMP_NUM_THREADS`` sets it)
by one of two schedules (:mod:`repro.stencil.codegen`): ``"members"``, for
a stacked binding whose every base splits by member, runs each batch
member through all of its iterations on one thread; ``"nests"``
otherwise runs every large independent nest as its own OpenMP
worksharing loop. ``native_stats["schedule"]`` names which one bound, and
:func:`team_size` is the team, known before any binding. Artifacts are
content-addressed on disk (``~/.cache/repro/native``), so equal
``(plan, batch)`` bindings — across instances and processes — reuse one
build; an artifact that does not load is deleted and rebuilt once
(``native.cache_corrupt``).

The candidate is **verified at bind time**: the instance runs ``warm + 4``
iterations from iteration 0 on seeded pseudo-random inputs through both
the tape replay and the candidate and compares every buffer bitwise. An
unsupported dtype, a missing compiler, a failed build or a mismatch leaves
the instance on the inherited tape replay — so ``engine="native"`` can
never return anything the interpreter would not. A bound candidate
leaves the instance owning only the buffers and the registers the
generated code reads; the tapes and their constants live only while the
verify replays them.
``REPRO_NATIVE_VERIFY=0`` skips the bind-time check (trusted repeat binds).
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
import zlib
from pathlib import Path
from typing import Callable

import numpy as np

from repro import observability as obs
from repro.stencil.codegen import (
    NativeIR,
    build_ir,
    emit_c,
    member_strides,
    unique_statements,
)
from repro.stencil.compiled import _FLAT_ERRSTATE, CompiledProgram

#: "0" skips the bind-time bitwise self-check
VERIFY_ENV = "REPRO_NATIVE_VERIFY"
#: overrides the on-disk artifact cache directory
CACHE_DIR_ENV = "REPRO_NATIVE_CACHE_DIR"

#: compile flags shared by every cc build. -ffp-contract=off is load-
#: bearing: a contracted mul+add rounds once where NumPy rounds twice,
#: which would break bit-identity with the interpreter. -march=native is
#: safe for the same reason the bind-time verify gate exists: artifacts
#: are per-host (content-addressed under ~/.cache) and every bind is
#: bitwise-checked before use. -fopenmp is safe on the same terms: a forked
#: nest splits cells across threads, never a cell's arithmetic, no
#: reduction crosses threads, and the verify runs the threaded build. A
#: compiler without OpenMP fails the build, and the tape replay runs.
_CC_FLAGS = (
    "-O3", "-march=native", "-ffp-contract=off", "-fopenmp", "-fPIC", "-shared",
)

_lock = threading.Lock()
#: source sha -> loaded shared library (or None after a failed build)
_libs: dict[str, ctypes.CDLL | None] = {}
#: memoized "the system compiler is unusable" verdict
_cc_broken = False


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
            ctypes.c_void_p, ctypes.c_int64, ctypes.c_int64,
        ]
        lib.repro_threads.restype = ctypes.c_int
    except AttributeError:
        # a foreign library: close it, or reopening the rebuilt file at the
        # same path would hand back this handle
        _ctypes.dlclose(lib._handle)
        raise
    lib.repro_run.restype = None
    return lib


def _compiled_lib(source: str) -> ctypes.CDLL | None:
    """Build (or reuse) the shared object for one generated C source.

    Content-addressed: the key is the sha of source + flags, so equal
    bindings across instances, threads and processes share one
    artifact; concurrent builders race benignly through atomic renames.
    An artifact that does not load as one (truncated, foreign) is deleted
    and rebuilt once, with a ``native.cache_corrupt`` event.
    """
    global _cc_broken
    sha = _sha(source)
    with _lock:
        if sha in _libs:
            return _libs[sha]
        if _cc_broken:
            return None
    lib: ctypes.CDLL | None = None
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
                return None
            with tempfile.TemporaryDirectory(dir=so_path.parent) as tmp:
                c_path = Path(tmp) / f"{sha}.c"
                c_path.write_text(source)
                out = Path(tmp) / f"{sha}.so"
                proc = subprocess.run(
                    [cc, *_CC_FLAGS, "-o", str(out), str(c_path)],
                    capture_output=True,
                    timeout=120,
                )
                if proc.returncode != 0:
                    raise OSError(
                        f"native build failed: {proc.stderr.decode(errors='replace')[:500]}"
                    )
                os.replace(out, so_path)
            lib = _load(so_path)
    except Exception as exc:  # noqa: BLE001 - any build problem means fallback
        obs.emit("native.cc_build_failed", error=repr(exc))
        lib = None
    with _lock:
        _libs[sha] = lib
    return lib


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
    lib = _compiled_lib(emit_c(probe))
    return lib.repro_threads() if lib is not None else 1


def _bits(arr: np.ndarray) -> np.ndarray:
    """The array's bit patterns: an unsigned-integer view (NaN == NaN)."""
    return arr.view(np.dtype(f"u{arr.itemsize}"))


def _bind_cc(ir: NativeIR) -> Callable[[int, int], None] | None:
    lib = _compiled_lib(emit_c(ir))
    if lib is None:
        return None
    # the pointer table is rebuilt per instance (same source, different
    # buffers); base data pointers are stable for the instance's lifetime.
    # Bases no statement references get a null entry the emitted code
    # never dereferences, so the instance need not keep them
    used = ir.referenced
    ptrs = np.array(
        [
            b.__array_interface__["data"][0] if i in used else 0
            for i, b in enumerate(ir.bases)
        ],
        dtype=np.uint64,
    )
    addr = ptrs.ctypes.data
    run = lib.repro_run

    def runner(k0: int, n: int, _run=run, _addr=addr, _keep=ptrs) -> None:
        _run(_addr, k0, n)

    runner.threads = lib.repro_threads()
    runner.schedule = "nests" if member_strides(ir) is None else "members"
    return runner


class NativeProgram(CompiledProgram):
    """A compiled program whose iterations run generated native code.

    Identical public surface and bit-identical results; only
    :meth:`_iterate` differs. :attr:`native_backend` names what actually
    runs the tapes: ``"cc"`` (the generated C) or ``"tape"`` (the
    inherited replay, when nothing bound).

    A ``cc``-bound instance owns only what its generated code reads: the
    buffers and the registers a statement references. The bound tapes,
    their splatted constants and every other register exist only while
    the bind-time verify replays the tape.
    """

    def __init__(self, plan, batch: int = 1):
        self.native_backend = "tape"
        self._runner: Callable[[int, int], None] | None = None
        #: keys of the registers the runner reads: all a bound runner keeps
        self._runner_registers: frozenset[tuple] = frozenset()
        self._stats: dict = {}
        super().__init__(plan, batch)

    @property
    def native_stats(self) -> dict:
        """What the bound rung executes: ``statements`` per tape (warm,
        then the steady pair), ``forwarded`` register stores elided,
        ``unique_statements`` emitted, the ``threads`` a forked loop runs
        on (1 on the tape), the ``schedule`` — ``"members"`` when each
        thread carries whole batch members through every iteration,
        ``"nests"`` when large nests fork one by one (and on the tape) —
        and the ``bytes`` the instance owns (a copy; the ``native.bound``
        event carries the same)."""
        return dict(self._stats)

    # -- backend selection -----------------------------------------------------
    def _bind_executor(self) -> None:
        # uninitialised registers give build_ir its base table; the tapes
        # are bound only where something replays them
        self._allocate_registers()
        raw = [len(t) for t in self.plan.warm + self.plan.steady]
        stats = {
            "statements": raw, "forwarded": 0, "unique_statements": sum(raw),
            "threads": 1, "schedule": "nests",
        }
        ir = build_ir(self)
        runner = _bind_cc(ir) if ir is not None else None
        if runner is not None:
            used = {id(ir.bases[i]) for i in ir.referenced}
            self._runner_registers = frozenset(
                key for key, reg in self._registers.items() if id(reg) in used
            )
            cc_stats = {
                "statements": [len(t) for t in ir.tapes],
                "forwarded": ir.forwarded,
                "unique_statements": len(unique_statements(ir)),
            }
            del ir  # it holds every register: let verify free the unread ones
            self._runner = runner
            if self._verify(runner):
                self.native_backend = "cc"
                stats = {
                    **cc_stats, "threads": runner.threads,
                    "schedule": runner.schedule,
                }
            else:
                obs.emit(
                    "native.verify_failed", backend="cc",
                    seeds=self._verify_seeds(),
                )
                self._runner = None
        # otherwise (unsupported dtype, no compiler, failed build or vetoed
        # candidate) the inherited tape replay runs
        self._settle()
        self._stats = {**stats, "bytes": self.nbytes}
        obs.emit(
            "native.bound", backend=self.native_backend, batch=self.batch,
            tapes=len(stats["statements"]), **self._stats,
        )

    def _release_tapes(self) -> None:
        """Drop what only the replay reads: the bound tapes, their
        constants and every register the runner does not read."""
        self._warm = self._steady = None
        self._constants = {}
        self._registers = {
            key: reg
            for key, reg in self._registers.items()
            if key in self._runner_registers
        }

    def _settle(self) -> None:
        """Own what runs: the tape replay when no runner is bound, else
        only the runner's registers."""
        if self._runner is None:
            self._bind_tapes()
        else:
            self._release_tapes()

    def _verify_seeds(self) -> dict[str, int]:
        """Input slot -> RNG seed of the bind-time check. A CRC of the
        slot name and shape, not ``hash()``: str hashes are salted per
        process, and a rejected candidate must be replayable."""
        return {
            slot: zlib.crc32(f"{slot}:{self._buffers[slot].shape}".encode())
            for slot in (f"in:{name}" for name in self.plan.inputs)
        }

    def _seed_inputs(self) -> None:
        """The state both verify runs start from: zeroed buffers, NaN in
        every register owned, seeded inputs."""
        # identical starts, so a candidate that skips a store — or reads a
        # register whose store was elided — cannot pass on what the
        # reference left behind
        for buf in self._buffers.values():
            buf.fill(0)
        for reg in self._registers.values():
            reg.fill(np.nan)
        for slot, seed in self._verify_seeds().items():
            buf = self._buffers[slot]
            # values in [0.5, 1.0): safely away from zero so division ops
            # cannot manufacture infs the replay would also see; drawn
            # in place, so seeding allocates nothing
            np.random.default_rng(seed).random(dtype=buf.dtype, out=buf)
            buf *= 0.5
            buf += 0.5
        self._load_expansions()
        self._iterations_done = 0

    def _verify(self, runner: Callable[[int, int], None]) -> bool:
        """Bitwise self-check: candidate vs tape replay on seeded inputs.

        Runs ``warm + 4`` iterations (every warm tape, both steady
        parities twice) from iteration 0, twice over identical
        pseudo-random inputs — once through the inherited replay, once
        through the candidate — and compares every buffer bit for bit.

        It owns the tape's lifetime, so the copy of the reference never
        overlaps what only the replay reads: bind the tapes, seed the
        inputs in place, replay, release the tapes, their constants and
        every register the runner does not read (:meth:`_release_tapes`),
        copy the buffers, re-seed (the kept registers NaN-poisoned) and
        run the candidate. Buffers are zeroed after, and the instance
        again owns what runs (:meth:`_settle`), so a fresh instance is
        indistinguishable from an unverified one.
        """
        if os.environ.get(VERIFY_ENV) == "0":
            return True
        iters = len(self.plan.warm) + 4
        try:
            self._bind_tapes()
            self._seed_inputs()
            with np.errstate(**_FLAT_ERRSTATE):
                CompiledProgram._iterate(self, iters)
            self._release_tapes()
            reference = {
                slot: buf.copy() for slot, buf in self._buffers.items()
            }
            self._seed_inputs()
            with np.errstate(**_FLAT_ERRSTATE):
                runner(0, iters)
            ok = all(
                np.array_equal(_bits(self._buffers[slot]), _bits(ref))
                for slot, ref in reference.items()
            )
        except Exception as exc:  # noqa: BLE001 - a crashing candidate is a veto
            obs.emit("native.verify_error", error=repr(exc))
            ok = False
        finally:
            for buf in self._buffers.values():
                buf.fill(0)
            self._iterations_done = 0
            self._settle()
        return ok

    # -- execution -------------------------------------------------------------
    def _iterate(self, n: int) -> None:
        if self._runner is None:
            super()._iterate(n)
            return
        self._runner(self._iterations_done, n)
        self._iterations_done += n
