"""``engine="native"``: generated loop nests with a verified fallback.

:class:`NativeProgram` is a drop-in :class:`~repro.stencil.compiled.CompiledProgram`
whose iterations — warm and steady alike — run generated code instead of
the per-op tape replay. At bind time it lowers the bound tapes through
:mod:`repro.stencil.codegen` and builds the generated C once with the
system compiler (``-O3 -march=native -ffp-contract=off``) into a shared
object loaded via ``ctypes``; one foreign call covers a whole
``run_iterations`` stretch, by **absolute** iteration index
(``runner(k0, n)``). Artifacts are content-addressed on disk
(``~/.cache/repro/native``), so equal ``(plan, batch)`` bindings — across
instances and processes — reuse one build.

The candidate is **verified at bind time**: the instance runs ``warm + 4``
iterations from iteration 0 on seeded pseudo-random inputs through both
the tape replay and the candidate and compares every buffer bitwise. An
unsupported dtype, a missing compiler, a failed build or a mismatch leaves
the instance on the inherited tape replay — so ``engine="native"`` can
never return anything the interpreter would not.
``REPRO_NATIVE_VERIFY=0`` skips the bind-time check (trusted repeat binds).
"""

from __future__ import annotations

import ctypes
import hashlib
import os
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
#: bitwise-checked before use.
_CC_FLAGS = ("-O3", "-march=native", "-ffp-contract=off", "-fPIC", "-shared")

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


def _compiled_lib(source: str) -> ctypes.CDLL | None:
    """Build (or reuse) the shared object for one generated C source.

    Content-addressed: the key is the sha of source + flags, so equal
    bindings across instances, threads and processes share one
    artifact; concurrent builders race benignly through atomic renames.
    """
    global _cc_broken
    sha = hashlib.sha256(
        (source + "\x00" + " ".join(_CC_FLAGS)).encode()
    ).hexdigest()[:32]
    with _lock:
        if sha in _libs:
            return _libs[sha]
        if _cc_broken:
            return None
    lib: ctypes.CDLL | None = None
    try:
        so_path = _cache_dir() / f"{sha}.so"
        if not so_path.exists():
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
        lib = ctypes.CDLL(str(so_path))
        lib.repro_run.argtypes = [
            ctypes.c_void_p, ctypes.c_int64, ctypes.c_int64,
        ]
        lib.repro_run.restype = None
    except Exception as exc:  # noqa: BLE001 - any build problem means fallback
        obs.emit("native.cc_build_failed", error=repr(exc))
        lib = None
    with _lock:
        _libs[sha] = lib
    return lib


def _bind_cc(ir: NativeIR) -> Callable[[int, int], None] | None:
    lib = _compiled_lib(emit_c(ir))
    if lib is None:
        return None
    # the pointer table is rebuilt per instance (same source, different
    # buffers); base data pointers are stable for the instance's lifetime
    ptrs = np.array(
        [b.__array_interface__["data"][0] for b in ir.bases], dtype=np.uint64
    )
    addr = ptrs.ctypes.data
    run = lib.repro_run

    def runner(k0: int, n: int, _run=run, _addr=addr, _keep=ptrs) -> None:
        _run(_addr, k0, n)

    return runner


class NativeProgram(CompiledProgram):
    """A compiled program whose iterations run generated native code.

    Identical public surface and bit-identical results; only
    :meth:`_iterate` differs. :attr:`native_backend` names what actually
    runs the tapes: ``"cc"`` (the generated C) or ``"tape"`` (the
    inherited replay, when nothing bound).
    """

    def __init__(self, plan, batch: int = 1):
        super().__init__(plan, batch)
        self.native_backend = "tape"
        self._runner: Callable[[int, int], None] | None = None
        self._stats: dict = {}
        self._bind_native()

    @property
    def native_stats(self) -> dict:
        """What the bound rung executes: ``statements`` per tape (warm,
        then the steady pair), ``forwarded`` register stores elided and
        ``unique_statements`` emitted (a copy; the ``native.bound`` event
        carries the same)."""
        return dict(self._stats)

    # -- backend selection -----------------------------------------------------
    def _bind_native(self) -> None:
        ir = build_ir(self)
        runner = _bind_cc(ir) if ir is not None else None
        if runner is not None and not self._verify(runner):
            obs.emit(
                "native.verify_failed", backend="cc", seeds=self._verify_seeds()
            )
            runner = None
        if runner is not None:
            tapes, forwarded = ir.tapes, ir.forwarded
            unique = len(unique_statements(ir))
            self.native_backend = "cc"
        else:
            # unsupported dtype, no compiler, failed build or vetoed
            # candidate: the inherited tape replay runs (``_runner`` is None)
            tapes, forwarded = self._warm + self._steady, 0
            unique = sum(map(len, tapes))
        self._runner = runner
        self._stats = {
            "statements": [len(t) for t in tapes],
            "forwarded": forwarded,
            "unique_statements": unique,
        }
        obs.emit(
            "native.bound", backend=self.native_backend, batch=self.batch,
            tapes=len(tapes), **self._stats,
        )

    def _verify_seeds(self) -> dict[str, int]:
        """Input slot -> RNG seed of the bind-time check. A CRC of the
        slot name and shape, not ``hash()``: str hashes are salted per
        process, and a rejected candidate must be replayable."""
        return {
            slot: zlib.crc32(f"{slot}:{self._buffers[slot].shape}".encode())
            for slot in (f"in:{name}" for name in self.plan.inputs)
        }

    def _verify(self, runner: Callable[[int, int], None]) -> bool:
        """Bitwise self-check: candidate vs tape replay on seeded inputs.

        Runs ``warm + 4`` iterations (every warm tape, both steady
        parities twice) from iteration 0, twice over identical
        pseudo-random inputs — once through the inherited replay, once
        through the candidate — and compares every buffer bit for bit.
        Buffers are zeroed after, so a fresh instance is indistinguishable
        from an unverified one.
        """
        if os.environ.get(VERIFY_ENV) == "0":
            return True
        iters = len(self._warm) + 4

        def _seed_inputs() -> None:
            # both runs start from the same state, so a candidate that
            # skips a store — or reads a register whose store was elided —
            # cannot pass on what the reference left behind
            for buf in self._buffers.values():
                buf.fill(0)
            for reg in self._registers.values():
                reg.fill(np.nan)
            for slot, seed in self._verify_seeds().items():
                buf = self._buffers[slot]
                # values in [0.5, 1.5): safely away from zero so division
                # ops cannot manufacture infs the replay would also see
                buf[...] = (
                    np.random.default_rng(seed).random(buf.shape).astype(buf.dtype)
                    * 0.5 + 0.5
                )
            self._load_expansions()
            self._iterations_done = 0

        try:
            _seed_inputs()
            with np.errstate(**_FLAT_ERRSTATE):
                CompiledProgram._iterate(self, iters)
            reference = {
                slot: buf.copy() for slot, buf in self._buffers.items()
            }
            _seed_inputs()
            with np.errstate(**_FLAT_ERRSTATE):
                runner(0, iters)
            ok = all(
                self._buffers[slot].tobytes() == ref.tobytes()
                for slot, ref in reference.items()
            )
        except Exception as exc:  # noqa: BLE001 - a crashing candidate is a veto
            obs.emit("native.verify_error", error=repr(exc))
            ok = False
        finally:
            for buf in self._buffers.values():
                buf.fill(0)
            self._iterations_done = 0
        return ok

    # -- execution -------------------------------------------------------------
    def _iterate(self, n: int) -> None:
        if self._runner is None:
            super()._iterate(n)
            return
        self._runner(self._iterations_done, n)
        self._iterations_done += n
