"""``engine="native"``: bit-identity, backend ladder, caching, copy fast path.

The contract mirrors the compiled engine's: what runs (the cc build, or
the tape replay when nothing bound) must be bit-identical (``tobytes``
equality, no tolerance) to the golden interpreter on every registered
application and on generated programs (a differential fuzzer; its long
profile runs under ``-m fuzz``) — across niter, batch, dtype, meshes on
both sides of the proxy's and of the fork grain, the mixed-radius
``init_from`` and flat-mode lowering corners, OpenMP teams of one and
three threads, and with no working compiler (the tape fallback). The
forwarding pass, the fork decision, the member split and the descriptor
emission are also driven directly, on hand-built statements, to pin what
they must refuse; the proxy check must reject wrong runners and
out-of-bounds descriptors; damaged artifacts in the on-disk cache must
rebuild.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import os
import subprocess
import sys
import zlib

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro import observability as obs
from repro.apps.registry import all_apps, app_by_name
from repro.dataflow.tiler import SpatialTiler
from repro.mesh.mesh import Field, MeshSpec
from repro.model.design import DesignPoint
from repro.model.tiling import TileDesign
from repro.stencil import codegen, native
from repro.stencil.builders import box_offsets, star_offsets
from repro.stencil.compiled import (
    CompiledPlanCache,
    CompiledProgram,
    run_program_compiled,
    run_program_stacked,
)
from repro.stencil.expr import Const, FieldAccess
from repro.stencil.kernel import KernelOutput, StencilKernel
from repro.stencil.native import NativeProgram, _find_cc
from repro.stencil.numpy_eval import run_program
from repro.stencil.program import FusedGroup, StencilLoop, StencilProgram
from repro.util.errors import ValidationError

#: small-but-representative functional meshes per registered app
APP_MESHES = {
    "poisson2d": (24, 18),
    "jacobi3d": (16, 14, 8),
    "rtm": (12, 12, 10),
}

#: module-local cache so native instances built here never collide with
#: (or warm) the process-wide DEFAULT_CACHE other test modules rely on
CACHE = CompiledPlanCache()


def _cc_works() -> bool:
    """A C compiler that runs (``CC=false`` names one that does not)."""
    cc = _find_cc()
    return cc is not None and subprocess.run(
        [cc, "--version"], capture_output=True
    ).returncode == 0


needs_cc = pytest.mark.skipif(not _cc_works(), reason="no working C compiler")


def _assert_env_equal(gold, got):
    assert set(gold) == set(got)
    for name in gold:
        assert gold[name].data.tobytes() == got[name].data.tobytes(), name


def _cast_env(env, dtype):
    dt = np.dtype(dtype)
    return {
        name: Field(
            name, MeshSpec(f.spec.shape, f.spec.components, dt),
            f.data.astype(dt),
        )
        for name, f in env.items()
    }


# --------------------------------------------------------------------------- #
# property: native == interpreter on every app x niter x batch x dtype
# --------------------------------------------------------------------------- #
@st.composite
def native_case(draw):
    name = draw(st.sampled_from(sorted(APP_MESHES)))
    grow = draw(st.integers(min_value=0, max_value=2))
    mesh = tuple(d + grow for d in APP_MESHES[name])
    niter = draw(st.integers(min_value=1, max_value=8))
    batch = draw(st.integers(min_value=1, max_value=3))
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    seed = draw(st.integers(min_value=0, max_value=999))
    return name, mesh, niter, batch, dtype, seed


@given(native_case())
@settings(max_examples=25, deadline=None)
def test_native_bit_identical_to_interpreter(case):
    name, mesh, niter, batch, dtype, seed = case
    app = app_by_name(name)
    dt = np.dtype(dtype)
    program = app.program.with_mesh(
        MeshSpec(mesh, app.program.mesh.components, dt)
    )
    envs = [
        _cast_env(app.fields(mesh, seed=seed + b), dt) for b in range(batch)
    ]
    gold = [
        run_program(program, env, niter, engine="interpreter") for env in envs
    ]
    # the stacked entry covers both the single-mesh path (batch == 1) and
    # the batch-major NativeProgram binding
    got = run_program_stacked(program, envs, niter, cache=CACHE, engine="native")
    for g, o in zip(gold, got):
        _assert_env_equal(g, o)


def test_native_chunked_stacked_dispatch():
    """A stack budget below the batch footprint still runs native chunks."""
    app = app_by_name("jacobi3d")
    mesh = APP_MESHES["jacobi3d"]
    program = app.program_on(mesh)
    envs = [app.fields(mesh, seed=s) for s in range(5)]
    stats: dict = {}
    plan = CACHE.plan_for(program, envs[0])
    got = run_program_stacked(
        program, envs, 4, cache=CACHE, engine="native",
        max_stack_bytes=plan.nbytes * 2, stats=stats,
    )
    assert stats["dispatches"] > 1  # genuinely chunked
    for env, o in zip(envs, got):
        _assert_env_equal(run_program(program, env, 4, engine="interpreter"), o)


# --------------------------------------------------------------------------- #
# lowering corners that bit PR 3: mixed-radius init_from, flat mode
# --------------------------------------------------------------------------- #
def _mixed_radius_program():
    mesh = MeshSpec((12, 10))
    U = lambda dx, dy: FieldAccess("U", (dx, dy))
    G = lambda dx, dy: FieldAccess("G", (dx, dy))
    k1 = StencilKernel(
        "mk_g",
        (
            KernelOutput(
                "G", (Const(0.25) * (U(-1, 0) + U(1, 0) + U(0, -1) + U(0, 1)),)
            ),
        ),
    )
    k2 = StencilKernel(
        "mk_u",
        (
            KernelOutput(
                "U",
                (Const(0.25) * (G(-2, 0) + G(2, 0) + G(0, -2) + G(0, 2)),),
                init_from="G",
            ),
        ),
    )
    return StencilProgram(
        "mixed_radius",
        mesh,
        (FusedGroup((StencilLoop(k1), StencilLoop(k2))),),
        state_fields=("U",),
    )


def test_mixed_radius_init_from_native_bit_identical():
    """The never-settling boundary ring survives the native lowering."""
    program = _mixed_radius_program()
    fields = {"U": Field.random("U", program.mesh, seed=1)}
    for niter in range(1, 10):
        gold = run_program(program, fields, niter, engine="interpreter")
        got = run_program_compiled(
            program, fields, niter, cache=CACHE, engine="native"
        )
        _assert_env_equal(gold, got)


def test_flat_mode_vector_kernel_native_bit_identical():
    """Multi-component flat-mode lanes (RTM-style lowering) stay identical."""
    mesh = MeshSpec((14, 12), components=3)

    def stencil(c):
        U = lambda dx, dy: FieldAccess("U", (dx, dy), c)
        return (
            Const(0.2) * (U(-1, 0) + U(1, 0) + U(0, -1) + U(0, 1))
            + Const(0.1) * U(0, 0)
        ) * FieldAccess("G", (0, 0), 0)

    kernel = StencilKernel(
        "vec_smooth",
        (
            KernelOutput("W", tuple(stencil(c) for c in range(3))),
            KernelOutput(
                "U",
                tuple(
                    FieldAccess("U", (0, 0), c)
                    + Const(0.5) * FieldAccess("W", (0, 0), c)
                    for c in range(3)
                ),
                init_from="U",
            ),
        ),
    )
    program = StencilProgram(
        "vec_smooth",
        mesh,
        (FusedGroup((StencilLoop(kernel),)),),
        state_fields=("U",),
        constant_fields=("G",),
    )
    fields = {
        "U": Field.random("U", mesh, seed=4, lo=-1.0, hi=1.0),
        "G": Field.random("G", MeshSpec(mesh.shape, 1), seed=5),
    }
    for niter in (1, 2, 5, 6):
        gold = run_program(program, fields, niter, engine="interpreter")
        got = run_program_compiled(
            program, fields, niter, cache=CACHE, engine="native"
        )
        _assert_env_equal(gold, got)


# --------------------------------------------------------------------------- #
# backend ladder: cc, then the tape replay
# --------------------------------------------------------------------------- #
def _fresh_instance(batch=1):
    app = app_by_name("jacobi3d")
    mesh = (10, 10, 6)
    program = app.program_on(mesh)
    env = app.fields(mesh, seed=0)
    plan = CACHE.plan_for(program, env)
    return NativeProgram(plan, batch=batch), program, env


@pytest.fixture
def failed_build(monkeypatch):
    """Every cc build fails: binds fall back to the tape replay."""
    monkeypatch.setattr(native, "_bind_cc", lambda ir, code=None: None)


def test_tape_fallback_run_is_fully_supported(failed_build):
    """With no cc build the inherited replay runs and stays bit-identical,
    batched and across the warm/steady boundary included."""
    inst, program, env = _fresh_instance(batch=2)
    assert inst.native_backend == "tape"
    app = app_by_name("jacobi3d")
    envs = [app.fields((10, 10, 6), seed=s) for s in range(2)]
    for niter in (1, len(inst.plan.warm), len(inst.plan.warm) + 3):
        for e, got in zip(envs, inst.run_stacked(envs, niter)):
            _assert_env_equal(
                run_program(program, e, niter, engine="interpreter"), got
            )


def test_failed_build_falls_back_to_tape(failed_build):
    inst, program, env = _fresh_instance()
    assert inst.native_backend == "tape"
    assert inst._runner is None
    gold = run_program(program, env, 7, engine="interpreter")
    _assert_env_equal(gold, inst.run(env, 7))


def test_missing_compiler_binds_the_tape(monkeypatch, tmp_path):
    """No compiler at all: nothing is built and the tape replay runs."""
    monkeypatch.setenv(native.CACHE_DIR_ENV, str(tmp_path))
    monkeypatch.setattr(native, "_libs", {})
    monkeypatch.setattr(native, "_cc_broken", False)
    monkeypatch.setattr(native, "_find_cc", lambda: None)
    inst, program, env = _fresh_instance()
    assert inst.native_backend == "tape"
    assert not any(tmp_path.iterdir())
    gold = run_program(program, env, 7, engine="interpreter")
    _assert_env_equal(gold, inst.run(env, 7))


@pytest.mark.parametrize("damage", ["garbage", "truncated", "foreign"])
def test_corrupt_cache_entry_is_rebuilt(damage, monkeypatch, tmp_path, events):
    """An artifact that does not load as one is deleted and rebuilt once:
    later processes must not silently run the tape on it."""
    if not _cc_works():
        pytest.skip("no working C compiler")
    monkeypatch.setenv(native.CACHE_DIR_ENV, str(tmp_path))
    monkeypatch.setattr(native, "_libs", {})
    app = app_by_name("jacobi3d")  # the binding _fresh_instance makes
    program = app.program_on((10, 10, 6))
    plan = CACHE.plan_for(program, app.fields((10, 10, 6), seed=0))
    source = codegen.emit_c(codegen.build_ir(CompiledProgram(plan)))
    so_path = tmp_path / f"{native._sha(source)}.so"
    # written, never loaded here: the loader would hand back a loaded
    # library for its path whatever the file holds now
    if damage == "garbage":
        so_path.write_bytes(b"not a shared object" * 64)
    else:
        c_path = tmp_path / "lib.c"
        c_path.write_text(
            source if damage == "truncated" else "int foreign(void) { return 1; }\n"
        )
        subprocess.run(
            [_find_cc(), *native._CC_FLAGS, "-o", str(so_path), str(c_path)],
            check=True,
        )
        if damage == "truncated":
            so_path.write_bytes(so_path.read_bytes()[:4096])
    inst, program, env = _fresh_instance()
    assert inst.native_backend == "cc"
    (corrupt,) = events.of_kind("native.cache_corrupt")
    assert corrupt["path"] == str(so_path)
    assert events.of_kind("native.cc_build_failed") == []
    assert so_path.read_bytes()[:4] == b"\x7fELF"
    _assert_env_equal(run_program(program, env, 5, engine="interpreter"), inst.run(env, 5))


class _Sabotaged:
    """A real runner that computes nothing on the calls ``skip(grain)``
    picks; otherwise what it wraps."""

    def __init__(self, runner, skip):
        self.runner, self.skip = runner, skip
        self.sha, self.build_s, self.kernels = runner.sha, runner.build_s, runner.kernels
        self.threads, self.schedule = runner.threads, runner.schedule

    def __call__(self, k0, n, grain=codegen._OMP_MIN_CELLS):
        if not self.skip(grain):
            self.runner(k0, n, grain)


@pytest.fixture
def sabotage(monkeypatch):
    """``sabotage(skip)``: every runner a bind makes is :class:`_Sabotaged`
    by ``skip``."""
    real = native._bind_cc

    def arm(skip):
        def bind(ir, code=None):
            runner = real(ir, code)
            return None if runner is None else _Sabotaged(runner, skip)

        monkeypatch.setattr(native, "_bind_cc", bind)

    return arm


#: a Jacobi mesh past its proxy on every axis
PROXIED = (40, 36, 30)


@needs_cc
@pytest.mark.parametrize(
    "grain", [0, codegen._OMP_MIN_CELLS], ids=["wrong-when-forked", "wrong-when-serial"]
)
def test_proxy_rejects_a_wrong_runner(grain, sabotage, events):
    """A runner wrong only when its nests fork, or only when they do not,
    fails the check on the proxy — whose nests fork only at grain 0 — and
    the instance keeps computing right on the tape."""
    sabotage(lambda g: g == grain)
    app = app_by_name("jacobi3d")
    program, env = app.program_on(PROXIED), app.fields(PROXIED, seed=0)
    inst = CompiledPlanCache().get(program, env, native=True)
    assert inst.native_backend == "tape"
    proxy = list(native.proxy_shape(PROXIED))
    (veto,) = events.of_kind("native.verify_failed")
    assert veto["grain"] == grain and veto["mesh"] == proxy
    (bound,) = events.of_kind("native.bound")
    assert bound["verify_mesh"] == proxy and bound["verify_batch"] == 1
    _assert_env_equal(run_program(program, env, 5, engine="interpreter"), inst.run(env, 5))


def test_unsupported_dtype_degrades_to_tape():
    """Non-float dtypes decline lowering but still run via tape replay."""
    mesh = MeshSpec((8, 8), dtype=np.dtype(np.int32))
    U = lambda dx, dy: FieldAccess("U", (dx, dy))
    kernel = StencilKernel(
        "intsum",
        (KernelOutput("U", (U(-1, 0) + U(1, 0) + U(0, 0),), init_from="U"),),
    )
    program = StencilProgram(
        "intsum", mesh, (FusedGroup((StencilLoop(kernel),)),),
        state_fields=("U",),
    )
    env = {
        "U": Field(
            "U", mesh,
            np.arange(64, dtype=np.int32).reshape(8, 8) % 7,
        )
    }
    plan = CACHE.plan_for(program, env)
    inst = NativeProgram(plan)
    assert inst.native_backend == "tape"
    gold = run_program(program, env, 4, engine="interpreter")
    _assert_env_equal(gold, inst.run(env, 4))


def test_iterations_split_across_calls_keeps_parity():
    """run_iterations in ragged chunks matches a one-shot run exactly."""
    inst, program, env = _fresh_instance()
    one_shot = inst.run(env, 7)
    inst.load(env)
    for step in (1, 2, 3, 1):
        inst.run_iterations(step)
    _assert_env_equal(one_shot, inst.result(env))


# --------------------------------------------------------------------------- #
# cache keying and the copy fast path
# --------------------------------------------------------------------------- #
def test_cache_keys_native_separately():
    cache = CompiledPlanCache()
    app = app_by_name("poisson2d")
    mesh = (12, 10)
    program = app.program_on(mesh)
    env = app.fields(mesh, seed=0)
    plain = cache.get(program, env)
    native = cache.get(program, env, native=True)
    assert type(plain) is CompiledProgram
    assert isinstance(native, NativeProgram)
    assert plain is not native
    # repeat gets are cache hits, not new bindings
    assert cache.get(program, env, native=True) is native
    assert cache.get(program, env) is plain


def test_result_copy_false_aliases_buffers():
    inst, program, env = _fresh_instance()
    inst.load(env)
    inst.run_iterations(3)
    copied = inst.result(env)
    aliased = inst.result(env, copy=False)
    _assert_env_equal(copied, aliased)
    # aliased results share memory with the live buffers; copies do not
    for name, slot in inst.plan.final_env(inst._iterations_done).items():
        buf = inst._buffers[slot]
        assert aliased[name].data is buf
        assert copied[name].data is not buf


def test_result_stacked_copy_false_views():
    inst, program, _ = _fresh_instance(batch=2)
    app = app_by_name("jacobi3d")
    envs = [app.fields((10, 10, 6), seed=s) for s in range(2)]
    inst.load_stacked(envs)
    inst.run_iterations(3)
    copied = inst.result_stacked(envs)
    aliased = inst.result_stacked(envs, copy=False)
    for c, a in zip(copied, aliased):
        _assert_env_equal(c, a)
    for name in inst.plan.final_env(inst._iterations_done):
        assert aliased[0][name].data.base is not None  # a view, not a copy


def test_run_copy_false_matches_copy_true():
    inst, program, env = _fresh_instance()
    gold = inst.run(env, 5)
    fast = inst.run(env, 5, copy=False)
    _assert_env_equal(gold, fast)


# --------------------------------------------------------------------------- #
# every registered app through the one-call native entry
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("name", sorted(all_apps()))
def test_every_app_native_entry(name):
    app = app_by_name(name)
    mesh = APP_MESHES[name]
    program = app.program_on(mesh)
    env = app.fields(mesh, seed=11)
    gold = run_program(program, env, 5, engine="interpreter")
    got = run_program(program, env, 5, engine="native")
    _assert_env_equal(gold, got)


# --------------------------------------------------------------------------- #
# the cc rung binds everywhere: a verify veto silently demotes to the tape
# replay and would otherwise only show as a slow benchmark
# --------------------------------------------------------------------------- #
def _plan(name, mesh=None):
    app = app_by_name(name)
    mesh = mesh or APP_MESHES[name]
    return CACHE.plan_for(app.program_on(mesh), app.fields(mesh, seed=0))


@needs_cc
@pytest.mark.parametrize("batch", [1, 4])
@pytest.mark.parametrize("name", sorted(all_apps()))
def test_every_app_binds_cc(name, batch):
    inst = NativeProgram(_plan(name), batch=batch)
    assert inst.native_backend == "cc"
    stats = inst.native_stats
    assert len(stats["statements"]) == len(inst.plan.warm) + 2
    assert stats["forwarded"] > 0
    assert 0 < stats["unique_statements"] <= sum(stats["statements"])
    assert stats["threads"] >= 1


# --------------------------------------------------------------------------- #
# what a cc-bound instance owns: only what its generated code reads
# --------------------------------------------------------------------------- #
def _buffer_bytes(inst):
    return sum(buf.nbytes for buf in inst._buffers.values())


def _plan_buffer_bytes(plan):
    return sum(int(np.prod(s)) for s in plan.buffers.values()) * plan.mesh.dtype.itemsize


@needs_cc
@pytest.mark.parametrize("batch", [1, 3])
@pytest.mark.parametrize("name", ["jacobi3d", "poisson2d"])
def test_cc_instance_owns_only_its_buffers(name, batch):
    inst = NativeProgram(_plan(name), batch=batch)
    assert inst.native_backend == "cc"
    assert inst._constants == {} and inst._registers == {}
    assert inst._warm is None and inst._steady is None
    assert inst.nbytes == inst.native_stats["bytes"] == _buffer_bytes(inst)
    assert inst.nbytes < CompiledProgram(inst.plan, batch=batch).nbytes


@needs_cc
def test_cc_instance_keeps_exactly_the_registers_the_ir_references():
    plan = _plan("rtm")
    inst = NativeProgram(plan)
    assert inst.native_backend == "cc"
    plain = CompiledProgram(plan)
    ir = codegen.build_ir(plain)
    used = [ir.bases[i] for i in ir.referenced]
    want = {k for k, reg in plain._registers.items() if any(reg is u for u in used)}
    assert set(inst._registers) == want
    assert inst._constants == {}
    kept = sum(reg.nbytes for reg in inst._registers.values())
    assert inst.nbytes == inst.native_stats["bytes"] == _buffer_bytes(inst) + kept


@needs_cc
def test_full_size_cc_bind_never_touches_the_tape(monkeypatch):
    """The full-size instance of a proxied bind never binds its tape,
    splats a tape constant, keeps an unread register or copies a buffer:
    its bind's peak is what its plan allocates (every register
    uninitialised, for the IR's base table) plus the proxy's check, and
    only the proxy ever replays the tape."""
    import tracemalloc

    app = app_by_name("jacobi3d")
    mesh = (64, 64, 64)
    program, env = app.program_on(mesh), app.fields(mesh, seed=0)
    cache = CompiledPlanCache()
    cache.get(program, env, native=True)  # builds and checks outside the trace
    splats = []
    expand = CompiledProgram._expand_scalar
    monkeypatch.setattr(
        CompiledProgram, "_expand_scalar",
        lambda self, value, shape: splats.append(self.plan.mesh.shape)
        or expand(self, value, shape),
    )
    plan, proxy = cache.plan_for(program, env), cache._proxy(program, env, None, 1)
    tracemalloc.start()
    try:
        inst = NativeProgram(plan, proxy=proxy)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert inst.native_backend == "cc"
    assert inst._warm is None and inst._steady is None and inst._constants == {}
    assert set(splats) == {proxy.plan.mesh.shape}
    # the proxy check: its replay, and a copy of its buffers
    check = CompiledProgram(proxy.plan).nbytes + _plan_buffer_bytes(proxy.plan)
    assert peak <= plan.nbytes + check + (256 << 10)
    _assert_env_equal(run_program(program, env, 5, engine="interpreter"), inst.run(env, 5))


@needs_cc
def test_a_full_mesh_check_holds_one_copy_of_the_buffers(monkeypatch, events):
    """A binding checked on its own mesh (here after a proxy mismatch)
    peaks at what the tape replay reads or at the buffers plus their
    reference copy, never both: the tape, its constants and the unread
    registers are dropped before the copy is taken."""
    import tracemalloc

    monkeypatch.setattr(native, "_PROXY_EXTENTS", (7, 5, 3))
    app = app_by_name("jacobi3d")
    mesh = (64, 64, 64)
    program, env = app.program_on(mesh), app.fields(mesh, seed=0)
    cache = CompiledPlanCache()
    cache.get(program, env, native=True)  # builds both artifacts outside the trace
    plan, proxy = cache.plan_for(program, env), cache._proxy(program, env, None, 1)
    replay = CompiledProgram(plan).nbytes  # buffers + registers + constants
    tracemalloc.start()
    try:
        inst = NativeProgram(plan, proxy=proxy)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert inst.native_backend == "cc"
    assert events.of_kind("native.bound")[-1]["verify_mesh"] == list(mesh)
    assert peak <= replay + _plan_buffer_bytes(plan) + (256 << 10)
    _assert_env_equal(run_program(program, env, 5, engine="interpreter"), inst.run(env, 5))


def test_cache_bytes_track_what_the_entries_own():
    app = app_by_name("poisson2d")
    cache = CompiledPlanCache(capacity=3)
    for mesh in ((12, 10), (14, 10), (16, 10)):
        program = app.program_on(mesh)
        env = app.fields(mesh, seed=0)
        cache.get(program, env)
        cache.get(program, env, native=True)
        assert cache._bytes == sum(e.nbytes for e in cache._entries.values())
    assert len(cache) == 3  # inserts evicted older entries
    cache.max_bytes = 1
    cache.get(program, env, batch=2, native=True)  # evicts all but itself
    assert len(cache) == 1
    assert cache._bytes == sum(e.nbytes for e in cache._entries.values())


@needs_cc
def test_cache_sized_for_two_cc_instances_keeps_both():
    app = app_by_name("jacobi3d")
    bindings = [
        (app.program_on(mesh), app.fields(mesh, seed=0))
        for mesh in ((16, 14, 8), (18, 14, 8))
    ]
    plans = [CACHE.plan_for(p, e) for p, e in bindings]
    sizes = [NativeProgram(plan).nbytes for plan in plans]
    # at the size a bound plan used to be, the second insert would evict
    assert sum(sizes) < CompiledProgram(plans[1]).nbytes + min(sizes)
    cache = CompiledPlanCache(max_bytes=sum(sizes))
    first = cache.get(*bindings[0], native=True)
    cache.get(*bindings[1], native=True)
    assert len(cache) == 2 and cache._bytes == sum(sizes)
    assert cache.get(*bindings[0], native=True) is first


# --------------------------------------------------------------------------- #
# inputs read where they live: a batch-1 cc run points its code at the
# caller's arrays for the length of the call, and copies only what it must
# --------------------------------------------------------------------------- #
def _app_binding(name, seed=0):
    app = app_by_name(name)
    mesh = APP_MESHES[name]
    return app.program_on(mesh), app.fields(mesh, seed=seed)


def _input_bytes(plan, names):
    cells = sum(int(np.prod(plan.buffers[f"in:{name}"])) for name in names)
    return cells * plan.mesh.dtype.itemsize


@needs_cc
@pytest.mark.parametrize("name", sorted(APP_MESHES))
def test_run_reads_every_input_in_place(name, events):
    """Bit-identical to the interpreter with every input read where it
    lives (RTM's ``rho`` and ``mu`` on every iteration), and the instance
    neither owns nor counts an input buffer."""
    program, env = _app_binding(name)
    inst = CompiledPlanCache().get(program, env, native=True)
    assert inst.native_backend == "cc"
    (bound,) = events.of_kind("native.bound")
    assert bound["in_place"] == list(inst.plan.inputs)
    registers = sum(reg.nbytes for reg in inst._registers.values())
    want = _plan_buffer_bytes(inst.plan) - _input_bytes(inst.plan, bound["in_place"])
    assert bound["bytes"] == inst.nbytes == want + registers
    for niter in (1, len(inst.plan.warm) + 3):
        gold = run_program(program, env, niter, engine="interpreter")
        _assert_env_equal(gold, inst.run(env, niter))
    assert not [slot for slot in inst._buffers if slot.startswith("in:")]


def test_an_input_a_statement_stores_into_is_copied():
    """Whether an input may be read in place is read off the IR's store
    destinations, not assumed from the plan."""
    inst = CompiledProgram(_plan("jacobi3d"))
    ir = codegen.build_ir(inst)
    base = list(inst._buffers).index("in:U")
    assert native._in_place_inputs(inst, ir) == {"U": base}
    stmt = ir.steady[0][0]
    store = dataclasses.replace(stmt.dest, base=base)
    ir.steady[0].append(codegen.Statement(store, stmt.expr))
    assert native._in_place_inputs(inst, ir) == {}
    assert native._in_place_inputs(CompiledProgram(_plan("jacobi3d"), batch=2), ir) == {}


@needs_cc
def test_run_keeps_nothing_of_the_callers_arrays():
    """Once ``run`` returns, no pointer addresses the caller's arrays and
    no reference pins them; the step-wise API then needs a ``load()``."""
    import gc
    import weakref

    program, env = _app_binding("rtm")
    inst = CompiledPlanCache().get(program, env, native=True)
    refs = [weakref.ref(field.data) for field in env.values()]
    out = inst.run(env, 3)
    assert not any(inst._runner._ptrs[base] for base in inst._in_place.values())
    with pytest.raises(ValidationError, match="load"):
        inst.run_iterations(1)
    del env, out
    gc.collect()
    assert all(ref() is None for ref in refs)


@needs_cc
def test_a_result_alias_fed_back_is_copied():
    """``result(copy=False)`` aliases a buffer the code writes: fed back to
    ``run``, it is copied in, not read in place."""
    program, env = _app_binding("jacobi3d")
    inst = CompiledPlanCache().get(program, env, native=True)
    aliased = inst.run(env, 3, copy=False)
    final = inst._buffers[inst.plan.final_env(3)["U"]]
    assert np.shares_memory(aliased["U"].data, final)
    gold = run_program(
        program, run_program(program, env, 3, engine="interpreter"), 4,
        engine="interpreter",
    )
    obs.enable()
    try:
        sink = obs.ring_sink()
        _assert_env_equal(gold, inst.run(aliased, 4))
    finally:
        obs.disable()
    assert "in:U" in inst._buffers
    (copy,) = sink.of_kind("native.copy_in")
    assert (copy["input"], copy["reason"]) == ("U", "shares_memory")


def _tiler_block(data, layout):
    """``data``'s values in another layout: a block of a mesh twice as
    wide (``"block"``; a 3-D one is also twice as tall, an (M, N) block),
    every other cell of one (``"strided"``), or with its outer rows
    reversed (``"reversed"``)."""
    outer, m, c = data.shape[:-2], *data.shape[-2:]
    tall = outer[:1] + tuple(2 * e for e in outer[1:])
    backing = np.zeros((*tall, 2 * m, c), dtype=data.dtype)
    view = {
        "block": backing[tuple(slice(e) for e in data.shape[:-1])],
        "strided": backing[..., ::2, :],
        "reversed": backing[::-1, ..., :m, :],
    }[layout]
    view[...] = data
    assert not view.flags.c_contiguous
    return view


def test_restride_moves_accesses_that_stay_inside_every_axis():
    """On a (4, 5, 1) input buffer an interior window — rows 1-2, cells
    1-3 — moves to the same cells at a row stride of 10; a flat window
    over cells 3-6 of row 0 runs into row 1, so no per-axis split exists
    and the IR cannot be re-addressed."""
    shape = (4, 5, 1)

    def ir_reading(access):
        dest = codegen.Access(1, 0, access.shape, codegen.dense_strides(access.shape))
        tape = [codegen.Statement(dest, codegen.Load(access))]
        return codegen.NativeIR(
            bases=[None, None], warm=(tape,), steady=(tape, tape),
            dtype=np.dtype(np.float32), registers=frozenset(), forwarded=0,
        )

    interior = codegen.Access(0, 6, (2, 3, 1), (5, 1, 1))
    moved = codegen.restride(ir_reading(interior), 0, shape, (10, 1, 1))
    for tape in moved.tapes:
        (stmt,) = tape
        assert stmt.expr == codegen.Load(codegen.Access(0, 11, (2, 3, 1), (10, 1, 1)))
        assert stmt.dest.base == 1  # other bases are left as they were
    flat = codegen.Access(0, 3, (4,), (1,))
    assert codegen.restride(ir_reading(flat), 0, shape, (10, 1, 1)) is None


@needs_cc
def test_a_tiler_block_is_read_where_it_lives(events):
    """A 2-D tiler block — a view of a wider mesh: unit inner and
    component strides, the mesh's row stride — is read in place on a
    descriptor re-derived for its strides: no input buffer, ``nbytes``
    unchanged, no ``native.copy_in``; the next run on a contiguous array
    runs on the binding's own descriptor again."""
    program, env = _app_binding("poisson2d")
    inst = CompiledPlanCache().get(program, env, native=True)
    nbytes = inst.nbytes
    view = _tiler_block(env["U"].data, "block")
    gold = run_program(program, env, 5, engine="interpreter")
    _assert_env_equal(gold, inst.run({"U": Field("U", env["U"].spec, view)}, 5))
    assert "in:U" not in inst._buffers and inst.nbytes == nbytes
    assert events.of_kind("native.copy_in") == []
    assert inst._runner._active is inst._runner._descriptor
    _assert_env_equal(gold, inst.run(env, 5))
    assert "in:U" not in inst._buffers


@needs_cc
@pytest.mark.parametrize(
    "name, layout, reason",
    [
        ("poisson2d", "strided", "layout"),
        ("poisson2d", "reversed", "layout"),
        # Jacobi's boundary ring copies whole planes: one loop over the
        # contiguous buffer, two over a block's rows, so the re-lowered
        # source is not the artifact the proxy checked
        ("jacobi3d", "block", "sha"),
    ],
)
def test_an_input_not_read_in_place_is_copied(name, layout, reason, events):
    """Every other cell (no unit inner stride), reversed rows (a negative
    outer stride) and a 3-D (M, N) block whose re-derived source differs
    are copied into an input buffer, allocated on first use, and each is
    reported once as a ``native.copy_in`` with its reason."""
    program, env = _app_binding(name)
    inst = CompiledPlanCache().get(program, env, native=True)
    data = env["U"].data
    view = _tiler_block(data, layout)
    gold = run_program(program, env, 5, engine="interpreter")
    for _ in range(2):
        _assert_env_equal(gold, inst.run({"U": Field("U", env["U"].spec, view)}, 5))
    assert np.array_equal(inst._buffers["in:U"], data)
    assert inst.nbytes == inst.native_stats["bytes"] + data.nbytes
    (copy,) = events.of_kind("native.copy_in")
    assert (copy["input"], copy["reason"]) == ("U", reason)


@needs_cc
def test_stepwise_load_copies_the_inputs():
    """``load()`` keeps its copy semantics: editing the caller's array
    before ``run_iterations()`` does not change the result."""
    program, env = _app_binding("rtm")
    inst = CompiledPlanCache().get(program, env, native=True)
    gold = run_program(program, env, 4, engine="interpreter")
    mine = {name: field.copy() for name, field in env.items()}
    inst.load(mine)
    for field in mine.values():
        field.data[...] = 0
    inst.run_iterations(4)
    _assert_env_equal(gold, inst.result(env))


@pytest.mark.parametrize("batch", [1, 2])
def test_tape_fallback_and_stacked_bindings_copy(failed_build, events, batch):
    """The tape replay, and a stacked binding, copy every input in and own
    every input buffer from the bind on."""
    program, env = _app_binding("jacobi3d")
    inst = CompiledPlanCache().get(program, env, batch=batch, native=True)
    assert inst.native_backend == "tape"
    assert events.of_kind("native.bound")[-1]["in_place"] == []
    assert inst.nbytes == CompiledProgram(inst.plan, batch=batch).nbytes
    gold = run_program(program, env, 3, engine="interpreter")
    if batch == 1:
        _assert_env_equal(gold, inst.run(env, 3))
        assert np.array_equal(inst._buffers["in:U"], env["U"].data)
    else:
        for got in inst.run_stacked([env, env], 3):
            _assert_env_equal(gold, got)


@needs_cc
def test_stacked_cc_binding_copies(events):
    program, env = _app_binding("jacobi3d")
    inst = CompiledPlanCache().get(program, env, batch=2, native=True)
    assert inst.native_backend == "cc"
    assert events.of_kind("native.bound")[-1]["in_place"] == []
    assert inst.native_stats["bytes"] == 2 * _plan_buffer_bytes(inst.plan)


# --------------------------------------------------------------------------- #
# IR shape: one loop nest per kernel, warm tapes included
# --------------------------------------------------------------------------- #
def _stmt_bases(stmt):
    return {stmt.dest.base} | {a.base for a in codegen._expr_loads(stmt.expr)}


@pytest.mark.parametrize("batch", [1, 3])
@pytest.mark.parametrize("name", ["jacobi3d", "poisson2d"])
def test_ir_one_statement_per_steady_tape(name, batch):
    inst = CompiledProgram(_plan(name), batch=batch)
    ir = codegen.build_ir(inst)
    assert len(ir.warm) == len(inst.plan.warm) > 0
    for tape in ir.steady:
        (stmt,) = tape  # the whole kernel is one nest ...
        assert not _stmt_bases(stmt) & ir.registers  # ... buffer to buffer
    raw = sum(len(t) for t in inst.plan.warm + inst.plan.steady)
    assert ir.forwarded == raw - sum(len(t) for t in ir.tapes)
    # warm tapes forward too: boundary copies plus the one interior nest
    for warm, raw_tape in zip(ir.warm, inst.plan.warm):
        assert len(warm) < len(raw_tape)
        assert not any(_stmt_bases(s) & ir.registers for s in warm)


def test_ir_rtm_statement_budget():
    inst = CompiledProgram(_plan("rtm"))
    ir = codegen.build_ir(inst)
    assert len(ir.warm) == len(inst.plan.warm)
    assert all(len(tape) <= 62 for tape in ir.tapes)
    # every ring settles at iteration 1: the steady pair replays the
    # interior nests alone, a fifth of a warm tape
    assert all(len(tape) <= 12 for tape in ir.tapes[len(ir.warm):])
    # the same nests over different buffers share one function
    source = codegen.emit_c(ir)
    assert source.count("noinline") == len(codegen.kernels(ir)) <= 11
    assert len(codegen.kernels(ir)) < len(codegen.unique_statements(ir))


def test_constants_keep_the_sign_of_zero():
    """0.0 == -0.0 as floats; statements differing only there must not merge."""
    a = codegen.Const((0.0).hex())
    b = codegen.Const((-0.0).hex())
    assert a != b and hash(a) != hash(b)


# --------------------------------------------------------------------------- #
# the forwarding pass on hand-built tapes: what it composes, what it refuses
# --------------------------------------------------------------------------- #
REG, SRC, DST = 0, 1, 2  # base indices: one register, two buffers


def _flat(base, offset=0, n=100):
    return codegen.Access(base, offset, (n,), (1,))


def _window(base, offset=11, shape=(8, 8), strides=(10, 1)):
    return codegen.Access(base, offset, shape, strides)


def _sum(*accesses):
    expr = codegen.Load(accesses[0])
    for a in accesses[1:]:
        expr = codegen.OpExpr("add", (expr, codegen.Load(a)))
    return expr


def _forward_all(*tapes):
    local = codegen._tape_local(tapes, {REG})
    return [codegen._forward(t, local) for t in tapes]


#: REG[0:100] = SRC[0:100] + SRC[1:101], a flat lane sum ...
PRODUCER = codegen.Statement(_flat(REG), _sum(_flat(SRC), _flat(SRC, 1)))
#: ... and DST[8x8 interior] = REG[8x8 window of the lanes]
CONSUMER = codegen.Statement(_window(DST), _sum(_window(REG)))


def test_forward_composes_flat_producer_into_shaped_consumer():
    ((stmt,),) = _forward_all([PRODUCER, CONSUMER])
    assert stmt == codegen.Statement(
        _window(DST), _sum(_window(SRC, 11), _window(SRC, 12))
    )


def test_forward_scales_by_the_producer_load_stride():
    """Broadcast (stride 0) and strided producer loads compose too."""
    producer = codegen.Statement(
        _flat(REG, 5, 90),
        _sum(codegen.Access(SRC, 7, (90,), (0,)), codegen.Access(SRC, 3, (90,), (2,))),
    )
    ((stmt,),) = _forward_all([producer, CONSUMER])
    # lane L of the register is SRC[7] + SRC[3 + 2L]; the window starts at
    # lane 11 - 5 = 6
    assert stmt.expr == _sum(
        _window(SRC, 7, strides=(0, 0)), _window(SRC, 15, strides=(20, 2))
    )


def test_forward_identity_chain_and_reuse_after_covering_write():
    inplace = codegen.Statement(_flat(REG), _sum(_flat(REG), _flat(SRC, 2)))
    tape = [PRODUCER, inplace, CONSUMER, PRODUCER, CONSUMER]
    ((first, second),) = _forward_all(tape)
    assert _stmt_bases(first) == _stmt_bases(second) == {SRC, DST}
    assert len(codegen._expr_loads(first.expr)) == 3


def _assert_refused(tape, *other_tapes, local=None):
    if local is None:
        got = _forward_all(tape, *other_tapes)[0]
    else:
        got = codegen._forward(tape, local)
    assert got == list(tape)


def test_forward_refuses_register_read_before_write_in_another_tape():
    reader = codegen.Statement(_flat(DST), _sum(_flat(REG)))
    # as the steady partner (after) or as a warm tape (before): either way
    # the elided store would be missed
    _assert_refused([PRODUCER, CONSUMER], [reader])
    assert _forward_all([reader], [PRODUCER, CONSUMER])[1] == [PRODUCER, CONSUMER]
    # a partial in-tape write does not cover the read
    partial = codegen.Statement(_flat(REG, 0, 50), _sum(_flat(SRC, 0, 50)))
    _assert_refused([PRODUCER, CONSUMER], [partial, reader])


def test_forward_refuses_two_readers():
    again = codegen.Statement(_window(DST, 12), _sum(_window(REG)))
    _assert_refused([PRODUCER, CONSUMER, again])
    twice = codegen.Statement(_window(DST), _sum(_window(REG), _window(REG)))
    _assert_refused([PRODUCER, twice])


def test_forward_refuses_hazard_write_between_producer_and_consumer():
    clobber_source = codegen.Statement(_flat(SRC, 40, 10), _sum(_flat(DST, 0, 10)))
    _assert_refused([PRODUCER, clobber_source, CONSUMER])
    clobber_value = codegen.Statement(_flat(REG, 40, 10), _sum(_flat(DST, 0, 10)))
    _assert_refused([PRODUCER, clobber_value, CONSUMER])


def test_forward_refuses_consumer_dest_read_by_producer():
    into_source = codegen.Statement(_window(SRC), _sum(_window(REG)))
    _assert_refused([PRODUCER, into_source])
    # a shifted window of the register itself as destination is refused too
    into_register = codegen.Statement(_window(REG, 12), _sum(_window(REG)))
    _assert_refused([PRODUCER, into_register], local={REG})


def test_forward_refuses_lanes_outside_the_flat_producer():
    short = codegen.Statement(_flat(REG, 0, 88), _sum(_flat(SRC, 0, 88)))
    # the window's last lane is 11 + 7*10 + 7 = 88: one past the producer
    _assert_refused([short, CONSUMER])
    _assert_refused([short, CONSUMER], local={REG})
    late = codegen.Statement(_flat(REG, 12, 88), _sum(_flat(SRC, 0, 88)))
    _assert_refused([late, CONSUMER], local={REG})


def test_forward_refuses_non_flat_producer_and_respects_the_load_cap():
    shaped = codegen.Statement(_window(REG), _sum(_window(SRC)))
    shifted = codegen.Statement(_window(DST), _sum(_window(REG, 12, (7, 7))))
    _assert_refused([shaped, shifted], local={REG})
    wide = codegen.Statement(
        _flat(REG), _sum(*[_flat(SRC, k) for k in range(codegen._MAX_FUSED_LOADS)])
    )
    two = codegen.Statement(_window(DST), _sum(_window(REG), _window(SRC)))
    _assert_refused([wide, two])


# --------------------------------------------------------------------------- #
# OpenMP worksharing: which nests fork a team, and bit-identity across teams
# --------------------------------------------------------------------------- #
OMP = "#pragma omp parallel for schedule(static)"


def _ir(*stmts, dtype=np.float32, batch=1):
    return codegen.NativeIR(
        bases=[], warm=(), steady=(list(stmts), list(stmts)),
        dtype=np.dtype(dtype), registers=frozenset(), forwarded=0, batch=batch,
    )


def _emitted(*stmts, dtype=np.float32, batch=1):
    return codegen.emit_c(_ir(*stmts, dtype=dtype, batch=batch))


def _copy_into(dest, src_base=SRC):
    return codegen.Statement(
        dest, _sum(codegen.Access(src_base, 0, dest.shape, (dest.shape[1], 1)))
    )


#: a 256 x 256 interior: twice the fork grain
BIG = (256, 256)


def test_injective_destination_forks_one_team():
    source = _emitted(_copy_into(_window(DST, 0, BIG, (300, 1))))
    assert source.count(OMP) == 1
    assert "int repro_threads(void)" in source


def test_zero_stride_destination_never_forks():
    stmt = _copy_into(_window(DST, 0, BIG, (0, 1)))
    assert not codegen._injective(stmt.dest)
    assert "#pragma omp" not in _emitted(stmt)


def test_overlapping_destination_never_forks():
    assert not codegen._injective(_window(DST, 0, (2, 2), (1, 1)))
    # rows 255 apart overlap a 256-wide row: the last cell of one is the
    # first of the next
    stmt = _copy_into(_window(DST, 0, BIG, (255, 1)))
    assert not codegen._parallel_safe(stmt)
    assert OMP not in _emitted(stmt)


def test_shifted_self_read_never_forks():
    stmt = codegen.Statement(
        _window(DST, 301, BIG, (300, 1)), _sum(_window(DST, 302, BIG, (300, 1)))
    )
    assert codegen._injective(stmt.dest) and not codegen._parallel_safe(stmt)
    assert OMP not in _emitted(stmt)


def test_the_fork_grain_is_a_run_time_clause():
    """A nest below the grain and one at it are one source: the fork
    compares the nest's cells with the ``grain`` argument of the call."""
    rows = codegen._OMP_MIN_CELLS // 256
    small = _copy_into(_window(DST, 0, (rows - 1, 256), (300, 1)))
    at_grain = _copy_into(_window(DST, 0, (rows, 256), (300, 1)))
    assert codegen._parallel_safe(small)
    assert _emitted(small) == _emitted(at_grain)
    assert _emitted(small).count(f"{OMP} if(n0 * n1 >= grain)") == 1


def test_flat_nest_never_forks():
    n = 4 * codegen._OMP_MIN_CELLS
    flat = codegen.Statement(_flat(DST, 0, n), _sum(_flat(SRC, 1, n)))
    assert codegen._parallel_safe(flat)
    assert OMP not in _emitted(flat)


@pytest.mark.parametrize(
    "name, mesh", [("jacobi3d", (40, 40, 40)), ("poisson2d", (256, 200))]
)
def test_interior_nest_forks_exactly_one_team(name, mesh):
    ir = codegen.build_ir(CompiledProgram(_plan(name, mesh)))
    for tape in ir.steady:
        (stmt,) = tape
        assert codegen._parallel_safe(stmt)
        assert _emitted(stmt).count(OMP) == 1


# --------------------------------------------------------------------------- #
# the members schedule: which stacked bindings split by member
# --------------------------------------------------------------------------- #
MEMBER_LOOP = "for (int64_t m = 0;"


def _members(shape=(2, 8, 8), stride=100, offset=11, base=DST, rows=10):
    """Each of ``shape[0]`` members: an interior window of its own slab."""
    return codegen.Access(base, offset, shape, (stride, rows, 1))


def _member_copy(dest=None, src=None):
    """``dest = src + src shifted one cell``; ``src`` defaults to the
    destination's own window of SRC."""
    dest = dest if dest is not None else _members()
    if src is None:
        src = codegen.Access(SRC, dest.offset, dest.shape, dest.strides)
    shifted = codegen.Access(src.base, src.offset + 1, src.shape, src.strides)
    return codegen.Statement(dest, _sum(src, shifted))


def test_members_split_a_stack_of_disjoint_slabs():
    stmt = _member_copy()
    assert codegen.member_strides(_ir(stmt, batch=2)) == {DST: 100, SRC: 100}
    source = _emitted(stmt, batch=2)
    # one fork, on the member loop; each member's bases offset by its
    # slab where the kernel is called, the member count an argument
    assert source.count(OMP) == 1
    assert f"{OMP}\n  {MEMBER_LOOP} m < batch; ++m)" in source
    assert f"s0((real_t*)P[{DST}] + m * D[{DST}], (real_t*)P[{SRC}] + m * D[{SRC}], D + " in source
    code = codegen.lower_c(_ir(stmt, batch=2))
    assert code.descriptor[DST] == code.descriptor[SRC] == 100
    # without the lead axis the member nest is the 8 x 8 interior
    (_, _, at), _ = code.calls
    assert list(code.descriptor[at : at + 2]) == [8, 8] and "i2" not in source


def test_member_nests_never_fork_inside():
    big = _members((3, *BIG), stride=300 * 300, rows=300)
    stmt = _member_copy(big)
    assert codegen.member_strides(_ir(stmt, batch=3)) is not None
    # past the fork grain per member, yet the member loop is the one fork
    assert _emitted(stmt, batch=3).count(OMP) == 1


def test_one_member_never_splits():
    stmt = _member_copy(_members((1, 8, 8)))
    assert codegen.member_strides(_ir(stmt, batch=1)) is None
    assert MEMBER_LOOP not in _emitted(stmt, batch=1)


@pytest.mark.parametrize(
    "stmts",
    [
        # a stack-extended flat lane window: no batch axis, and its lanes
        # run across the seam between the two slabs
        [
            codegen.Statement(_flat(REG, 0, 190), _sum(_flat(SRC, 0, 190))),
            codegen.Statement(_members(), _sum(_members(base=REG))),
        ],
        # a per-member window wider than the member stride: member 0's
        # lanes reach into member 1's slab
        [_member_copy(src=codegen.Access(SRC, 30, (2, 8, 8), (100, 12, 1)))],
        # a written base with lead stride 0: every member stores one slab
        [_member_copy(codegen.Access(DST, 11, (2, 8, 8), (0, 10, 1)))],
        # a statement with no batch axis beside a member-split one
        [_member_copy(), _copy_into(_window(DST, 0, (8, 8), (10, 1)))],
        # one base seen at two member strides
        [_member_copy(), _member_copy(src=_members(base=SRC, stride=120, offset=0))],
    ],
    ids=["flat-seam", "wide-window", "zero-lead-stride", "no-batch-axis", "two-strides"],
)
def test_statements_that_keep_the_nest_schedule(stmts):
    assert codegen.member_strides(_ir(*stmts, batch=2)) is None
    source = _emitted(*stmts, batch=2)
    assert MEMBER_LOOP not in source and "int64_t m" not in source


@pytest.mark.parametrize("name", sorted(all_apps()))
def test_every_app_stack_splits_by_member(name):
    for batch in (2, 5):
        ir = codegen.build_ir(CompiledProgram(_plan(name), batch=batch))
        strides = codegen.member_strides(ir)
        # every base a statement touches splits at its per-member size
        assert strides is not None and set(strides) == ir.referenced
        for i, stride in strides.items():
            assert stride == ir.bases[i][0].size
    assert codegen.member_strides(codegen.build_ir(CompiledProgram(_plan(name)))) is None


#: sha256 prefixes of the batch-1 sources the shape-generic emitter
#: produces for the registry apps (at APP_MESHES, and at any mesh whose
#: proxy keeps their structure). A single mesh has no member to split, so
#: these artifacts — and the single-mesh contract workloads' — must not
#: change with the members schedule. Update deliberately.
NESTS_SOURCES = {
    "poisson2d": "583f9654e478d7e5",
    "jacobi3d": "be64c426dba078bf",
    "rtm": "8f598824c1439f25",
}


@pytest.mark.parametrize("name", sorted(NESTS_SOURCES))
def test_single_mesh_sources_keep_the_nest_emission(name):
    source = codegen.emit_c(codegen.build_ir(CompiledProgram(_plan(name))))
    assert MEMBER_LOOP not in source and "int64_t m" not in source
    assert hashlib.sha256(source.encode()).hexdigest()[:16] == NESTS_SOURCES[name]


#: a larger mesh per registered app: its bench mesh where the bench runs it
LARGER_MESHES = {
    "poisson2d": (300, 150),
    "jacobi3d": (256, 256, 256),
    "rtm": (32, 32, 32),
}


@pytest.mark.parametrize("batch", [1, 3])
@pytest.mark.parametrize("name", sorted(LARGER_MESHES))
def test_registry_sources_are_shape_generic(name, batch):
    """The source holds no extent, offset or outer stride: each app emits
    one source at APP_MESHES, at its proxy and at a larger mesh — one
    artifact, and the proxy's check is the larger mesh's."""
    meshes = (
        APP_MESHES[name], native.proxy_shape(LARGER_MESHES[name]), LARGER_MESHES[name]
    )
    sources = set()
    for mesh in meshes:
        ir = codegen.build_ir(CompiledProgram(_plan(name, mesh), batch=batch))
        sources.add(codegen.emit_c(ir))
        del ir  # the 256**3 instance: one at a time
    assert len(sources) == 1


@needs_cc
def test_two_poisson_meshes_bind_with_one_build(counted_builds, events):
    """Two meshes of one program are one artifact, and one proxy check."""
    app = app_by_name("poisson2d")
    cache = CompiledPlanCache()
    for mesh in ((60, 40), (90, 70)):
        program, env = app.program_on(mesh), app.fields(mesh, seed=1)
        inst = cache.get(program, env, native=True)
        assert inst.native_backend == "cc"
        _assert_env_equal(run_program(program, env, 7, engine="interpreter"), inst.run(env, 7))
    assert len(counted_builds) == 1
    built, shared = events.of_kind("native.bound")
    assert built["build_s"] > 0 and shared["build_s"] == 0.0
    assert built["verify_mesh"] == shared["verify_mesh"] == [23, 21]


@needs_cc
@pytest.mark.parametrize("batch", [1, 5])
def test_bound_event_names_the_binding_that_was_checked(batch, events):
    app = app_by_name("jacobi3d")
    envs = [app.fields(PROXIED, seed=s) for s in range(batch)]
    program = app.program_on(PROXIED)
    inst = CompiledPlanCache().get(program, envs[0], batch=batch, native=True)
    assert inst.native_backend == "cc"
    (bound,) = events.of_kind("native.bound")
    assert bound["verify_mesh"] == list(native.proxy_shape(PROXIED)) == [23, 21, 19]
    assert bound["verify_batch"] == min(batch, native.team_size() + 1)
    assert bound["verify_s"] < 1.0
    for env, got in zip(envs, inst.run_stacked(envs, 6)):
        _assert_env_equal(run_program(program, env, 6, engine="interpreter"), got)


@needs_cc
def test_a_mismatching_proxy_checks_the_full_mesh(monkeypatch, events):
    """A proxy too small to keep the program's structure emits another
    source: the bind says so and checks the binding's own mesh."""
    monkeypatch.setattr(native, "_PROXY_EXTENTS", (7, 5, 3))
    app = app_by_name("jacobi3d")
    mesh = (16, 14, 8)
    program, env = app.program_on(mesh), app.fields(mesh, seed=4)
    inst = CompiledPlanCache().get(program, env, native=True)
    assert inst.native_backend == "cc"
    (mismatch,) = events.of_kind("native.proxy_mismatch")
    assert mismatch["mesh"] == list(mesh) and mismatch["proxy_mesh"] == [7, 5, 3]
    assert mismatch["sha"] != mismatch["proxy_sha"]
    (bound,) = events.of_kind("native.bound")
    assert bound["verify_mesh"] == list(mesh) and bound["verify_batch"] == 1
    gold = run_program(program, env, 6, engine="interpreter")
    got = inst.run(env, 6)
    for name in gold:
        assert np.array_equal(gold[name].data, got[name].data), name


@needs_cc
def test_an_out_of_bounds_descriptor_binds_the_tape_and_never_runs(monkeypatch, events):
    lower = native.lower_c

    def stretched(ir):
        code = lower(ir)
        _, _, at = code.calls[-1]
        code.descriptor[at] *= 3  # three times the planes of the interior
        return code

    runs = []
    monkeypatch.setattr(native, "lower_c", stretched)
    monkeypatch.setattr(native._Runner, "__call__", lambda self, *args: runs.append(args))
    app = app_by_name("jacobi3d")
    program, env = app.program_on(PROXIED), app.fields(PROXIED, seed=0)
    inst = CompiledPlanCache().get(program, env, native=True)
    assert inst.native_backend == "tape" and runs == []
    (oob,) = events.of_kind("native.out_of_bounds")
    assert oob["hi"] >= oob["size"]
    _assert_env_equal(run_program(program, env, 5, engine="interpreter"), inst.run(env, 5))


@needs_cc
@pytest.mark.parametrize("batch", [1, 2])
def test_bound_schedule_names_the_emission(batch, events):
    inst = NativeProgram(_plan("rtm"), batch=batch)
    assert inst.native_backend == "cc"
    want = "members" if batch > 1 else "nests"
    assert inst.native_stats["schedule"] == want
    (bound,) = events.of_kind("native.bound")
    assert bound["schedule"] == want and bound["batch"] == batch


# --------------------------------------------------------------------------- #
# one function per kernel: a statement with its bases renamed to slots
# --------------------------------------------------------------------------- #
OTHER = 3  # a fourth base: another buffer


def _kernel_functions(source):
    return source.count("noinline")


@pytest.mark.parametrize("shift", [0, 1], ids=["in-place", "shifted"])
def test_self_read_and_other_base_read_are_two_kernels(shift):
    """Slots keep the alias pattern: reading the destination's own base
    and reading another base at the same offsets are different kernels,
    each with the statement's own ivdep and fork verdicts."""
    dest = _window(DST, 301, BIG, (300, 1))
    read = lambda base: _window(base, 301 + shift, BIG, (300, 1))
    own = codegen.Statement(dest, _sum(read(DST), read(SRC)))
    other = codegen.Statement(dest, _sum(read(OTHER), read(SRC)))
    (k_own, bases_own, _), (k_other, bases_other, _) = map(codegen._kernel, (own, other))
    assert bases_own == (DST, SRC) and bases_other == (DST, OTHER, SRC)
    assert k_own != k_other
    assert len(codegen.kernels(_ir(own, other))) == 2
    for stmt, kernel in ((own, k_own), (other, k_other)):
        assert kernel.ivdep == codegen._independent_iterations(stmt)
        assert kernel.fork == codegen._parallel_safe(stmt)
    # a shifted self-read carries a dependency: no ivdep, no fork
    assert k_own.fork == (shift == 0)
    assert k_other.fork
    source = _emitted(own, other)
    assert _kernel_functions(source) == 2
    assert source.count(OMP) == (2 if shift == 0 else 1)
    s_own = source[source.index("void s0("):source.index("void s1(")]
    assert ("ivdep" in s_own) == (shift == 0) and (OMP in s_own) == (shift == 0)


def test_the_same_nest_over_other_bases_is_one_kernel():
    one = _copy_into(_window(DST, 0, (8, 8), (10, 1)))
    two = _copy_into(_window(OTHER, 0, (8, 8), (10, 1)), src_base=REG)
    assert codegen._kernel(one)[0] == codegen._kernel(two)[0]
    source = _emitted(one, two)
    assert _kernel_functions(source) == 1
    assert f"s0((real_t*)P[{DST}], (real_t*)P[{SRC}], D + " in source
    assert f"s0((real_t*)P[{OTHER}], (real_t*)P[{REG}], D + " in source


def test_kernels_differing_in_an_offset_merge_and_a_zero_sign_stays_apart():
    """An offset, an extent or an outer stride is the descriptor's; a
    constant, a relative shift or an alias pattern is the source's."""
    dest = _window(DST, 11)
    base = codegen.Statement(dest, _sum(_window(SRC, 11)))
    shifted = codegen.Statement(dest, _sum(_window(SRC, 12)))
    wider = codegen.Statement(
        _window(DST, 0, (8, 12), (20, 1)), _sum(_window(SRC, 3, (8, 12), (30, 1)))
    )
    apart = codegen.Statement(dest, _sum(_window(SRC, 11), _window(SRC, 12)))
    scaled = lambda zero: codegen.Statement(
        dest, codegen.OpExpr("mul", (codegen.Const(zero.hex()), codegen.Load(_window(SRC))))
    )
    stmts = [base, shifted, wider, apart, scaled(0.0), scaled(-0.0)]
    assert len({codegen._kernel(s)[0] for s in stmts}) == 4
    assert _kernel_functions(_emitted(*stmts)) == 4


@pytest.mark.parametrize("batch", [1, 2])
def test_rtm_emits_few_kernels(batch):
    """RTM's warm tapes, steady parities and stages repeat a handful of
    nests over different buffers: ~130 statements, at most 20 functions."""
    ir = codegen.build_ir(CompiledProgram(_plan("rtm"), batch=batch))
    assert len(codegen.unique_statements(ir)) > 100
    assert _kernel_functions(codegen.emit_c(ir)) == len(codegen.kernels(ir)) <= 20


@pytest.fixture
def counted_builds(monkeypatch, tmp_path):
    """A fresh artifact cache and memo; the list of compiler runs."""
    monkeypatch.setenv(native.CACHE_DIR_ENV, str(tmp_path))
    monkeypatch.setattr(native, "_libs", {})
    calls = []
    run = subprocess.run

    def counting(*args, **kwargs):
        calls.append(args[0])
        return run(*args, **kwargs)

    monkeypatch.setattr(native.subprocess, "run", counting)
    return calls


@needs_cc
def test_stacked_batch_sizes_share_one_build(counted_builds):
    """On the members schedule the member count is a runner argument: RTM
    stacked two and three deep is one source and one compiler run, and
    each binding still verifies and computes the interpreter's answer."""
    plan = _plan("rtm")
    sources = {
        codegen.emit_c(codegen.build_ir(CompiledProgram(plan, batch=batch)))
        for batch in (2, 3)
    }
    assert len(sources) == 1
    app = app_by_name("rtm")
    program = app.program_on(APP_MESHES["rtm"])
    niter = len(plan.warm) + 3
    for batch in (2, 3):
        inst = NativeProgram(plan, batch=batch)
        assert inst.native_backend == "cc"
        assert inst.native_stats["schedule"] == "members"
        envs = [app.fields(APP_MESHES["rtm"], seed=s) for s in range(batch)]
        for env, got in zip(envs, inst.run_stacked(envs, niter)):
            _assert_env_equal(run_program(program, env, niter, engine="interpreter"), got)
    assert len(counted_builds) == 1


@needs_cc
def test_concurrent_binders_of_one_plan_build_once(counted_builds, monkeypatch):
    """More binders of one plan than cores, at once, each checked on the
    same proxy: one runs the compiler, the others wait for its artifact,
    and all of them bind it."""
    import threading

    app = app_by_name("rtm")
    mesh = (28, 26, 24)
    program, env = app.program_on(mesh), app.fields(mesh, seed=0)
    cache = CompiledPlanCache()
    plan, proxy = cache.plan_for(program, env), cache._proxy(program, env, None, 1)
    assert proxy.plan.mesh.shape == native.proxy_shape(mesh)
    binders = 4
    start = threading.Barrier(binders)
    bound = []

    def bind():
        start.wait()
        bound.append(NativeProgram(plan, proxy=proxy).native_backend)

    threads = [threading.Thread(target=bind) for _ in range(binders)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert bound == ["cc"] * binders
    assert len(counted_builds) == 1


@needs_cc
def test_bound_event_times_the_build_and_the_verify(counted_builds, events):
    plan = _plan("jacobi3d")
    first, again = NativeProgram(plan), NativeProgram(plan)
    assert first.native_backend == again.native_backend == "cc"
    built, memo = events.of_kind("native.bound")
    assert built["build_s"] > 0 and memo["build_s"] == 0.0  # one compiler run
    assert built["verify_s"] > 0 and memo["verify_s"] > 0  # every bind checks
    assert built["kernels"] == first.native_stats["kernels"] < built["unique_statements"]
    assert len(counted_builds) == 1


#: runs in a fresh interpreter per team size, since libgomp reads
#: OMP_NUM_THREADS once, at load; runs each case's whole stack on one
#: instance, saves every native output to an .npz and prints each
#: binding's rung, team size and schedule
TEAM_SCRIPT = """
import json, sys
import numpy as np
from repro.apps.registry import app_by_name
from repro.stencil.compiled import CompiledPlanCache

cases, out = json.loads(sys.argv[1]), sys.argv[2]
cache = CompiledPlanCache()
arrays, bound = {}, {}
for name, mesh, batch, niter in cases:
    app = app_by_name(name)
    program = app.program_on(tuple(mesh))
    envs = [app.fields(tuple(mesh), seed=b) for b in range(batch)]
    inst = cache.get(program, envs[0], batch=batch, native=True)
    got = inst.run_stacked(envs, niter)
    stats = inst.native_stats
    bound[f"{name}-{batch}"] = [
        inst.native_backend, stats["threads"], stats["schedule"]
    ]
    for b, fields in enumerate(got):
        for fname, field in fields.items():
            arrays[f"{name}-{batch}-{b}-{fname}"] = field.data
np.savez(out, **arrays)
print(json.dumps(bound))
"""

#: odd and prime extents, every one with a nest past the fork grain
TEAM_MESHES = {
    "poisson2d": (257, 211),
    "jacobi3d": (37, 41, 43),
    "rtm": (31, 29, 37),
}


@needs_cc
def test_teams_of_one_and_three_threads_match_the_interpreter(tmp_path):
    """Three threads on a two-core host split the outer axis of a nest, or
    two and five members, unevenly; one thread is the serial loop. Both
    must equal the golden interpreter."""
    niter = 5
    cases = [
        (name, mesh, batch, niter)
        for name, mesh in TEAM_MESHES.items() for batch in (1, 2, 3, 5)
    ]
    for name, mesh, batch, _ in cases:
        source = codegen.emit_c(
            codegen.build_ir(CompiledProgram(_plan(name, mesh), batch=batch))
        )
        assert OMP in source, (name, batch)
        assert (MEMBER_LOOP in source) == (batch > 1), (name, batch)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    for threads in (1, 3):
        out = tmp_path / f"team{threads}.npz"
        proc = subprocess.run(
            [sys.executable, "-c", TEAM_SCRIPT, json.dumps(cases), str(out)],
            env={**env, "OMP_NUM_THREADS": str(threads)},
            capture_output=True, text=True, check=True,
        )
        bound = json.loads(proc.stdout.strip().splitlines()[-1])
        for key, rung in bound.items():
            schedule = "nests" if key.endswith("-1") else "members"
            assert tuple(rung) == ("cc", threads, schedule), key
        with np.load(out) as got:
            for name, mesh, batch, _ in cases:
                app = app_by_name(name)
                program = app.program_on(mesh)
                for b in range(batch):
                    gold = run_program(
                        program, app.fields(mesh, seed=b), niter,
                        engine="interpreter",
                    )
                    for fname, field in gold.items():
                        key = f"{name}-{batch}-{b}-{fname}"
                        assert np.array_equal(got[key], field.data), (key, threads)


# --------------------------------------------------------------------------- #
# one runner protocol: absolute iteration index, warm tapes included
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("rung", ["cc", "tape"])
@pytest.mark.parametrize("batch", [1, 2])
def test_single_steps_cross_the_warm_steady_boundary(rung, batch, monkeypatch):
    if rung == "cc" and not _cc_works():
        pytest.skip("no working C compiler")
    if rung == "tape":
        monkeypatch.setattr(native, "_bind_cc", lambda ir, code=None: None)
    inst, program, _ = _fresh_instance(batch=batch)
    assert inst.native_backend == rung
    app = app_by_name("jacobi3d")
    envs = [app.fields((10, 10, 6), seed=s) for s in range(batch)]
    total = len(inst.plan.warm) + 3
    one_shot = inst.run_stacked(envs, total)
    for env, got in zip(envs, one_shot):
        _assert_env_equal(run_program(program, env, total, engine="interpreter"), got)
    for _ in range(2):  # a second load() restarts at warm tape 0
        inst.load_stacked(envs)
        for _ in range(total):
            inst.run_iterations(1)
        for want, got in zip(one_shot, inst.result_stacked(envs)):
            _assert_env_equal(want, got)


# --------------------------------------------------------------------------- #
# beyond the registry: a differential fuzzer over generated programs
# --------------------------------------------------------------------------- #
#: odd and prime extents on both sides of the proxy mesh's: no axis is a
#: multiple of a vector width
EXTENTS = (7, 9, 11, 13, 17, 19, 23, 29, 31)
#: meshes whose interior nests straddle the fork grain (2**15 cells)
LARGE_MESHES = {2: (199, 181), 3: (41, 37, 31)}
#: coefficients a stage may carry in place of one of its weights
SPECIALS = (None, None, None, "nan", "inf", "-inf", "-0", "denormal")


@st.composite
def generated_case(draw):
    """A chain of one to three kernels over a 1-3 component state ``U``:
    star or box stencils of radius 1-3, each stage's output seeded from
    its source, from ``U`` (a boundary ring) or not, one coefficient per
    stage maybe NaN, an infinity, -0.0 or a denormal; a middle stage may
    re-write an earlier stage's intermediate (RK-style: a field produced
    twice an iteration, each time with its own ring and radius) — and,
    when the mesh admits one, a tile of one or two iterations a pass for
    the tiled leg (None when no block narrower than a split axis leaves a
    quarter of it valid)."""
    ndim = draw(st.sampled_from([2, 3]))
    boxes = draw(st.lists(st.booleans(), min_size=1, max_size=3))
    stages = tuple(
        (
            box,
            # a 3-D box past radius 1 is hundreds of points: slow to compile
            draw(st.integers(1, 1 if box and ndim == 3 else 3)),
            # init_from its source, from U, or none: a boundary ring
            draw(st.sampled_from([False, True, "U"])),
            draw(st.sampled_from(SPECIALS)),
            # the intermediate it writes: its own, or an earlier stage's
            draw(st.integers(0, s)) if 0 < s < len(boxes) - 1 else s,
        )
        for s, box in enumerate(boxes)
    )
    reach = max(radius for _, radius, *_ in stages)
    if draw(st.sampled_from([False, False, False, True])):
        shape, batches = LARGE_MESHES[ndim], [1, 2]
    else:
        shape = tuple(
            draw(st.sampled_from([e for e in EXTENTS if e > 2 * reach]))
            for _ in range(ndim)
        )
        batches = [1, 2, 3, 5]
    niter = draw(st.integers(2, 8))
    p = draw(st.integers(1, 2))
    halo = p * sum(radius for _, radius, *_ in stages)
    # blocks at least a quarter of the axis valid: a handful per pass
    widths = [
        range(2 * halo + max(1, extent // 4), extent)
        for extent in shape[:2][: ndim - 1]
    ]
    tile = (
        (p, tuple(draw(st.sampled_from(w)) for w in widths))
        if all(widths) else None
    )
    return (
        ndim,
        draw(st.integers(1, 3)),                    # components
        stages,
        shape,
        draw(st.sampled_from([np.float32, np.float64])),
        draw(st.sampled_from(batches)),
        niter,
        draw(st.sampled_from(range(1, niter, 2))),  # odd split point k0
        draw(st.integers(0, 999)),                  # seed
        tile,                                       # (p, tile) or None
    )


def _bit_pattern(arr):
    """``arr``'s bit patterns with every NaN one pattern: IEEE 754 leaves
    the sign and payload of a NaN result open, and NumPy's vector loops and
    their scalar tails already differ on it. Every other value, -0.0, the
    infinities and denormals included, compares bit for bit."""
    bits = np.ascontiguousarray(arr).view(f"u{arr.itemsize}").copy()
    bits[np.isnan(arr)] = np.array(np.nan, arr.dtype).view(bits.dtype)
    return bits


def _special(name, dtype):
    if name == "denormal":
        return float(np.finfo(dtype).smallest_subnormal) * 3
    return {"nan": math.nan, "inf": math.inf, "-inf": -math.inf, "-0": -0.0}[name]


def _generated_program(ndim, comps, stages, shape, dtype, seed):
    """Stage ``s`` reads the previous stage's output (``U`` first) and, past
    the first, the state at its centre; it writes ``A<target>`` and the
    last stage writes ``U``."""
    origin = (0,) * ndim
    loops = []
    src = "U"
    for s, (box, radius, ring, special, target) in enumerate(stages):
        offsets = (box_offsets if box else star_offsets)(ndim, radius)
        rng = np.random.default_rng(seed + s)
        weights = [float(w) for w in rng.uniform(-1.0, 1.0, len(offsets) + 2) / len(offsets)]
        if special is not None:  # on a term every component reads
            slot = seed % (len(offsets) + 1)
            weights[slot if slot < len(offsets) else -2] = _special(special, dtype)
        exprs = []
        for c in range(comps):
            expr = Const(weights[-2]) * FieldAccess(src, origin, (c + 1) % comps)
            for w, off in zip(weights, offsets):
                expr = expr + Const(w) * FieldAccess(src, off, c)
            if s:
                expr = expr + Const(weights[-1]) * FieldAccess("U", origin, c)
            exprs.append(expr)
        out = "U" if s == len(stages) - 1 else f"A{target}"
        init_from = "U" if ring == "U" else src if ring else None
        kernel = StencilKernel(
            f"stage{s}", (KernelOutput(out, tuple(exprs), init_from=init_from),)
        )
        loops.append(StencilLoop(kernel))
        src = out
    return StencilProgram(
        "generated", MeshSpec(shape, comps, np.dtype(dtype)),
        (FusedGroup(tuple(loops)),), state_fields=("U",),
    )


def _check_generated(case):
    """Interpreter and native agree over two ``run_iterations`` stretches
    split at an odd ``k0`` — NaNs as one class, every other value bit for
    bit (:func:`_bit_pattern`): under the
    members schedule each member resumes mid-warm or on the other steady
    parity by absolute index, exactly as the whole stack does."""
    ndim, comps, stages, shape, dtype, batch, niter, k0, seed, tile = case
    program = _generated_program(ndim, comps, stages, shape, dtype, seed)
    envs = [
        {"U": Field.random("U", program.mesh, seed=seed + b, lo=-1.0, hi=1.0)}
        for b in range(batch)
    ]
    inst = CACHE.get(program, envs[0], batch=batch, native=True)
    inst.load_stacked(envs)
    inst.run_iterations(k0)
    inst.run_iterations(niter - k0)
    for env, out in zip(envs, inst.result_stacked(envs)):
        gold = run_program(program, env, niter, engine="interpreter")
        assert np.array_equal(_bit_pattern(gold["U"].data), _bit_pattern(out["U"].data))
    # and it ran on cc wherever a compiler works and every folded constant
    # is finite, not a silent demotion
    finite = all(special in (None, "-0", "denormal") for _, _, _, special, _ in stages)
    assert inst.native_backend == ("cc" if _cc_works() and finite else "tape")
    schedule = inst.native_stats["schedule"]
    if batch == 1:
        assert schedule == "nests"
    elif inst.native_backend == "cc" and len(stages) == 1 and comps == 1 and not stages[0][2]:
        # one kernel, no ring, one component: a stack splits by member once
        # every flat lane sum forwards into the shaped interior (a sum past
        # the load cap stays a stack-wide window)
        box, radius, *_ = stages[0]
        points = len((box_offsets if box else star_offsets)(ndim, radius))
        assert schedule == ("members" if points <= codegen._MAX_FUSED_LOADS else "nests")
    if tile is not None:
        # the tiled leg: overlapped blocks, read where they live when they
        # can be, each pass written back valid-only
        p, extents = tile
        design = DesignPoint(V=2, p=p, clock_mhz=250.0, tile=TileDesign(extents))
        tiler = SpatialTiler(program, design, engine="native", plan_cache=CACHE)
        niter -= niter % p
        gold = run_program(program, envs[0], niter, engine="interpreter")
        got = tiler.run(envs[0], niter)
        assert np.array_equal(_bit_pattern(gold["U"].data), _bit_pattern(got["U"].data))


@given(generated_case())
@settings(max_examples=20, deadline=None)
# NaN lanes whose sign differs between the interpreter and the tape replay
@example((2, 1, ((False, 2, False, "nan", 0), (False, 1, False, "inf", 1)),
          (199, 181), np.float32, 1, 2, 1, 0, None))
# a stack that splits by member, and one whose lane sum passes the load cap
@example((3, 1, ((False, 2, False, None, 0),), (11, 9, 13), np.float64, 3, 5, 3, 7, None))
@example((2, 1, ((True, 3, False, None, 0),), (9, 13), np.float32, 2, 4, 1, 5, None))
# 2-D blocks read in place with a ring; 3-D (M, N) blocks over a chain
@example((2, 2, ((False, 1, True, None, 0),), (199, 181), np.float32, 1, 4, 1, 3,
          (2, (40,))))
@example((3, 1, ((False, 1, True, None, 0), (True, 1, False, None, 1)), (41, 37, 31),
          np.float64, 2, 4, 3, 11, (1, (9, 12))))
# RK-style: A0 written twice an iteration from U's ring, both at radius 1
# (the rings settle), and once more at radius 2 (they are kept)
@example((2, 2, ((False, 1, "U", None, 0), (False, 1, "U", None, 0), (False, 1, True, None, 2)),
          (13, 11), np.float32, 2, 6, 3, 4, None))
@example((3, 1, ((False, 1, "U", None, 0), (False, 2, True, None, 0), (False, 1, "U", None, 2)),
          (11, 9, 13), np.float64, 1, 5, 1, 6, None))
def test_generated_programs_native_bit_identical(case):
    _check_generated(case)


@pytest.mark.fuzz
@given(generated_case())
@settings(max_examples=400, deadline=None)
def test_generated_programs_fuzz(case):
    """The long profile of the same property: ``pytest -m fuzz``."""
    _check_generated(case)


# --------------------------------------------------------------------------- #
# observability: what bound, what it executes, replayable verify inputs
# --------------------------------------------------------------------------- #
@pytest.fixture
def events():
    obs.enable()
    try:
        yield obs.ring_sink()
    finally:
        obs.disable()


def test_bound_event_carries_native_stats(events):
    inst, _, _ = _fresh_instance()
    (bound,) = events.of_kind("native.bound")
    stats = inst.native_stats
    assert {k: bound[k] for k in stats} == stats
    assert bound["backend"] == inst.native_backend
    assert bound["tapes"] == len(stats["statements"]) == len(inst.plan.warm) + 2
    assert bound["bytes"] == stats["bytes"] == inst.nbytes
    json.dumps(bound)  # the event log is JSONL
    # a copy: callers cannot edit what the instance reports
    stats["forwarded"] = -1
    assert inst.native_stats["forwarded"] != -1


def test_tape_fallback_reports_the_raw_tapes(failed_build):
    inst, _, _ = _fresh_instance()
    raw = [len(t) for t in inst.plan.warm + inst.plan.steady]
    assert inst.native_stats == {
        "statements": raw, "forwarded": 0, "unique_statements": sum(raw),
        "kernels": sum(raw), "threads": 1, "schedule": "nests",
        "bytes": inst.nbytes,
    }
    # the replay owns every register and constant it reads
    assert inst.nbytes == CompiledProgram(inst.plan).nbytes


@needs_cc
def test_verify_veto_is_replayable(events, sabotage):
    """A rejected candidate names its input seeds, and they do not depend
    on the process (``hash()`` of a str is salted; a CRC is not)."""
    sabotage(lambda grain: True)
    inst, program, env = _fresh_instance()
    assert inst.native_backend == "tape"
    (veto,) = events.of_kind("native.verify_failed")
    assert veto["backend"] == "cc"
    assert veto["seeds"] == {"in:U": zlib.crc32(b"in:U:(6, 10, 10, 1)")}
    assert veto["seeds"] == native._verify_seeds(inst)
    # the demoted instance still computes the right thing
    _assert_env_equal(run_program(program, env, 5, engine="interpreter"), inst.run(env, 5))


@needs_cc
def test_the_proxy_check_poisons_registers_between_its_runs(monkeypatch):
    """A candidate that never stores an iteration-invariant register value
    (here ``0.5 * G``, a function of a constant field only) would find it
    where the reference run left it; the check on the proxy must not pass
    on that."""
    mesh = MeshSpec((40, 30))
    U = lambda dx, dy: FieldAccess("U", (dx, dy))
    # operand order matters: the product reuses its right operand's
    # register, so 0.5 * G is the last value its own register sees
    update = (Const(0.5) * FieldAccess("G", (0, 0))) * (U(-1, 0) + U(1, 0))
    kernel = StencilKernel("inv", (KernelOutput("U", (update,), init_from="U"),))
    program = StencilProgram(
        "inv", mesh, (FusedGroup((StencilLoop(kernel),)),),
        state_fields=("U",), constant_fields=("G",),
    )
    env = {"U": Field.random("U", mesh, seed=2), "G": Field.random("G", mesh, seed=3)}
    # the check's tape-bound proxy instance, and a candidate that replays
    # its tapes without the invariant stores
    proxies = []

    class Capturing(CompiledProgram):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            proxies.append(self)

    def invariant_store(inst, op):
        fn, args = op
        if fn is np.copyto:
            return False
        *sources, dest = args
        g = inst._buffers["in:G"]
        constants = list(inst._constants.values())
        return any(np.shares_memory(dest, r) for r in inst._registers.values()) and all(
            np.shares_memory(x, g) or any(x is c for c in constants) for x in sources
        )

    class WithoutInvariantStores(_Sabotaged):
        def __init__(self, runner, inst):
            super().__init__(runner, None)
            # the tapes as bound now: the check drops them, and their
            # constants, before the candidate runs
            tapes = inst._warm + inst._steady
            self.warm = len(inst.plan.warm)
            self.tapes = [[op for op in t if not invariant_store(inst, op)] for t in tapes]
            assert sum(map(len, self.tapes)) < sum(map(len, tapes))

        def __call__(self, k0, n, grain=codegen._OMP_MIN_CELLS):
            warm = self.warm
            for k in range(k0, k0 + n):
                for fn, args in self.tapes[k if k < warm else warm + ((k - warm) & 1)]:
                    fn(*args)

    real = native._bind_cc

    def bind(ir, code=None):
        runner = real(ir, code)
        checking = proxies and any(b is buf for b in ir.bases for buf in proxies[-1]._buffers.values())
        return WithoutInvariantStores(runner, proxies[-1]) if checking else runner

    monkeypatch.setattr(native, "CompiledProgram", Capturing)
    monkeypatch.setattr(native, "_bind_cc", bind)
    # this candidate reads every register the tapes use: the check must
    # poison each
    monkeypatch.setattr(native, "_read_registers", lambda inst, ir: frozenset(inst._registers))
    inst = CompiledPlanCache().get(program, env, native=True)
    assert [p.plan.mesh.shape for p in proxies] == [native.proxy_shape(mesh.shape)]
    assert inst.native_backend == "tape"
    _assert_env_equal(run_program(program, env, 5, engine="interpreter"), inst.run(env, 5))
