"""Unit tests: spatial tiling is functionally exact and counts cycles sanely."""

import numpy as np
import pytest

from repro import observability as obs
from repro.arch.device import ALVEO_U280
from repro.dataflow.tiler import SpatialTiler
from repro.mesh.mesh import Field, MeshSpec
from repro.model.design import DesignPoint
from repro.model.tiling import TileDesign
from repro.stencil.builders import jacobi2d_5pt, jacobi3d_7pt
from repro.stencil.codegen import _ELEMENT_SPAN
from repro.stencil.compiled import CompiledPlanCache
from repro.stencil.numpy_eval import run_program
from repro.stencil.program import single_kernel_program
from repro.util.errors import ValidationError


def _tiled_design(tile, p=2, V=2, memory="DDR4"):
    return DesignPoint(V=V, p=p, clock_mhz=250.0, memory=memory, tile=TileDesign(tile))


def _special_field(spec, seed):
    """A random field with a NaN inside, -0.0 along its first boundary row
    and one +0.0 cell."""
    f = Field.random("U", spec, seed=seed)
    middle = tuple(n // 2 for n in f.data.shape)
    f.data[middle] = np.nan
    f.data[0] = -0.0
    f.data[(1,) * (f.data.ndim - 1)] = 0.0
    return f


def _assert_same(ours, gold):
    """Bit-identical up to a NaN's sign and payload, which IEEE 754 leaves
    open: NaN where the interpreter has NaN, and -0.0 told from 0.0."""
    nan = np.isnan(gold)
    assert np.array_equal(ours, gold, equal_nan=True)
    assert np.array_equal(np.signbit(ours) & ~nan, np.signbit(gold) & ~nan)


def _traced(run):
    """``run()``'s result, the reason and block mesh of each
    ``native.copy_out`` event it logged, and the backends of the native
    bindings it made."""
    obs.enable()
    try:
        sink = obs.ring_sink()
        out = run()
    finally:
        obs.disable()
    copies = [(e["reason"], tuple(e["mesh"])) for e in sink.of_kind("native.copy_out")]
    return out, copies, {e["backend"] for e in sink.of_kind("native.bound")}


def _check_copy_out(copies, backends, engine, ndim, p):
    """Every block a pass copied its window out of is one whose last
    iteration has no nest in the bound artifact for the clipped stores
    (``sha``): a block no wider than a mesh element's literal span, whose
    row stride the code keeps literal while the output's is not; or, in
    3-D, a block whose last iteration is a warm tape (iterations 0 and 1),
    which stores each ring plane whole, a contiguous run the window splits
    into rows. Every other native block stores in place."""
    if "tape" in backends:  # no working compiler: the tape copies every window
        assert {reason for reason, _ in copies} <= {"tape"}
        return
    for reason, mesh in copies:
        assert (engine, reason) == ("native", "sha")
        assert mesh[0] <= _ELEMENT_SPAN or (ndim == 3 and p <= 2), mesh


class TestTiler2D:
    @pytest.mark.parametrize("engine", ["compiled", "native"])
    @pytest.mark.parametrize("p", [1, 2, 3, 4])
    @pytest.mark.parametrize(
        "shape, tile",
        # tiles that do not divide the mesh, with blocks no wider than a
        # mesh element's literal span at some p ((37, 9), (64, 12)); one
        # wider than the mesh, whose one block's window is the whole mesh,
        # boundary included
        [((60, 9), (24,)), ((37, 9), (17,)), ((64, 12), (20,)), ((16, 12), (64,))],
    )
    def test_matches_untiled_golden(self, shape, tile, p, engine):
        spec = MeshSpec(shape)
        prog = single_kernel_program("p", spec, jacobi2d_5pt())
        f = _special_field(spec, seed=31)
        tiler = SpatialTiler(
            prog, _tiled_design(tile, p=p), ALVEO_U280, engine=engine,
            plan_cache=CompiledPlanCache(),
        )
        ours, copies, backends = _traced(lambda: tiler.run({"U": f}, 2 * p))
        gold = run_program(prog, {"U": f}, 2 * p, engine="interpreter")
        _assert_same(ours["U"].data, gold["U"].data)
        _check_copy_out(copies, backends, engine, 2, p)

    def test_tile_not_dividing_mesh(self):
        spec = MeshSpec((37, 9))
        prog = single_kernel_program("p", spec, jacobi2d_5pt())
        f = Field.random("U", spec, seed=32)
        tiler = SpatialTiler(prog, _tiled_design((17,)), ALVEO_U280)
        ours = tiler.run({"U": f}, 4)
        gold = run_program(prog, {"U": f}, 4, engine="interpreter")
        assert np.array_equal(ours["U"].data, gold["U"].data)

    def test_tile_larger_than_mesh(self):
        spec = MeshSpec((16, 8))
        prog = single_kernel_program("p", spec, jacobi2d_5pt())
        f = Field.random("U", spec, seed=33)
        tiler = SpatialTiler(prog, _tiled_design((64,)), ALVEO_U280)
        ours = tiler.run({"U": f}, 2)
        gold = run_program(prog, {"U": f}, 2, engine="interpreter")
        assert np.array_equal(ours["U"].data, gold["U"].data)

    def test_requires_tiled_design(self, poisson_program):
        with pytest.raises(ValidationError):
            SpatialTiler(poisson_program, DesignPoint(2, 2, 250.0), ALVEO_U280)

    def test_niter_multiple_of_p(self):
        spec = MeshSpec((32, 8))
        prog = single_kernel_program("p", spec, jacobi2d_5pt())
        f = Field.random("U", spec, seed=34)
        tiler = SpatialTiler(prog, _tiled_design((16,), p=4), ALVEO_U280)
        with pytest.raises(ValidationError, match="multiple"):
            tiler.run({"U": f}, 6)


class TestTiler3D:
    @pytest.mark.parametrize("engine", ["compiled", "native"])
    @pytest.mark.parametrize("p", [1, 2, 3, 4])
    @pytest.mark.parametrize(
        "shape, tile",
        [((24, 20, 6), (16, 12)), ((24, 20, 6), (10, 12)), ((12, 10, 5), (16, 16))],
    )
    def test_matches_untiled_golden(self, shape, tile, p, engine):
        spec = MeshSpec(shape)
        prog = single_kernel_program("j", spec, jacobi3d_7pt())
        f = _special_field(spec, seed=35)
        tiler = SpatialTiler(
            prog, _tiled_design(tile, p=p), ALVEO_U280, engine=engine,
            plan_cache=CompiledPlanCache(),
        )
        ours, copies, backends = _traced(lambda: tiler.run({"U": f}, 2 * p))
        gold = run_program(prog, {"U": f}, 2 * p, engine="interpreter")
        _assert_same(ours["U"].data, gold["U"].data)
        _check_copy_out(copies, backends, engine, 3, p)

    def test_3d_requires_mn_tile(self):
        spec = MeshSpec((24, 20, 6))
        prog = single_kernel_program("j", spec, jacobi3d_7pt())
        f = Field.random("U", spec, seed=36)
        tiler = SpatialTiler(prog, _tiled_design((10,)), ALVEO_U280)
        with pytest.raises(ValidationError, match="(M, N)"):
            tiler.run({"U": f}, 2)

    def test_halo_per_axis(self):
        spec = MeshSpec((24, 20, 6))
        prog = single_kernel_program("j", spec, jacobi3d_7pt())
        tiler = SpatialTiler(prog, _tiled_design((10, 12), p=3), ALVEO_U280)
        assert tiler.halo(0) == 3
        assert tiler.halo(1) == 3


class TestTilerAliasing:
    """Blocks are extracted as views of the pass's state, so nothing an
    engine does may write through its inputs."""

    @pytest.mark.parametrize(
        "engine", ["interpreter", "compiled", "parallel", "native"]
    )
    @pytest.mark.parametrize("p", [1, 2, 3, 4])
    @pytest.mark.parametrize(
        "shape, kernel, tile",
        [
            ((60, 9), jacobi2d_5pt, (24,)),
            ((37, 9), jacobi2d_5pt, (17,)),
            ((24, 20, 6), jacobi3d_7pt, (16, 12)),
            ((24, 20, 6), jacobi3d_7pt, (10, 12)),
        ],
    )
    def test_callers_fields_unchanged(self, engine, p, shape, kernel, tile):
        spec = MeshSpec(shape)
        prog = single_kernel_program("p", spec, kernel())
        f = Field.random("U", spec, seed=37)
        before = f.data.tobytes()
        tiler = SpatialTiler(
            prog, _tiled_design(tile, p=p), ALVEO_U280, engine=engine,
            plan_cache=CompiledPlanCache(),
        )
        ours, copies, backends = _traced(lambda: tiler.run({"U": f}, 2 * p))
        assert f.data.tobytes() == before
        assert not np.shares_memory(ours["U"].data, f.data)
        gold = run_program(prog, {"U": f}, 2 * p, engine="interpreter")
        assert np.array_equal(ours["U"].data, gold["U"].data)
        _check_copy_out(copies, backends, engine, len(shape), p)


class TestTilerReuse:
    """A run writes each pass into one of two arrays per state field, so
    the third pass writes over the first's output; a cell a pass left
    unwritten would show the data of another pass or run."""

    @pytest.mark.parametrize("engine", ["compiled", "native"])
    @pytest.mark.parametrize("p", [1, 2, 3, 4])
    @pytest.mark.parametrize(
        "shape, kernel, tile",
        [
            ((60, 9), jacobi2d_5pt, (24,)),
            ((37, 9), jacobi2d_5pt, (17,)),
            ((24, 20, 6), jacobi3d_7pt, (16, 12)),
            ((24, 20, 6), jacobi3d_7pt, (10, 12)),
        ],
    )
    def test_two_inputs_back_to_back(self, engine, p, shape, kernel, tile):
        spec = MeshSpec(shape)
        prog = single_kernel_program("p", spec, kernel())
        tiler = SpatialTiler(
            prog, _tiled_design(tile, p=p), ALVEO_U280, engine=engine,
            plan_cache=CompiledPlanCache(),
        )
        for seed in (41, 42):
            f = Field.random("U", spec, seed=seed)
            before = f.data.tobytes()
            ours, copies, backends = _traced(lambda: tiler.run({"U": f}, 3 * p))
            assert f.data.tobytes() == before
            gold = run_program(prog, {"U": f}, 3 * p, engine="interpreter")
            assert np.array_equal(ours["U"].data, gold["U"].data)
            _check_copy_out(copies, backends, engine, len(shape), p)


class TestRefusedDestination:
    """A destination the last iteration cannot store into gets its window
    copied out: the result stays bit-identical, and the reason is logged
    once per instance, reason and layout."""

    @pytest.mark.parametrize("reason", ["layout", "shares_memory"])
    def test_window_copied_with_its_reason(self, reason):
        spec = MeshSpec((60, 9))
        prog = single_kernel_program("p", spec, jacobi2d_5pt())
        f = Field.random("U", spec, seed=43)
        tiler = SpatialTiler(
            prog, _tiled_design((24,), p=2), ALVEO_U280, engine="native",
            plan_cache=CompiledPlanCache(),
        )
        block, shape, window = tiler._block(spec, (tiler._axis_plans(spec)[0][1],))
        gold = run_program(
            prog, {"U": Field("U", MeshSpec(shape), f.data[block])}, 2,
            engine="interpreter",
        )["U"].data
        # every other element of a wider array
        strided = np.zeros((gold.shape[0], 2 * gold.shape[1], 1), np.float32)[:, ::2]
        logged = []
        for _ in range(2):
            data = f.data[block].copy()
            dest = strided if reason == "layout" else data  # the input itself
            env = {"U": Field("U", MeshSpec(shape), data)}
            _, copies, backends = _traced(
                lambda: tiler.pipeline.run_pass(env, into={"U": (dest, window)})
            )
            if "tape" in backends:
                pytest.skip("no working C compiler: the tape copies every window")
            assert np.array_equal(dest[window], gold[window])
            logged += [reason for reason, _ in copies]
        assert logged == [reason]


class TestTilerCycles:
    def test_pass_cycles_positive_and_scaling(self):
        spec = MeshSpec((15000, 15000))
        prog = single_kernel_program("p", spec, jacobi2d_5pt())
        design_small = DesignPoint(8, 60, 250.0, "DDR4", TileDesign((512,)))
        design_big = DesignPoint(8, 60, 250.0, "DDR4", TileDesign((8000,)))
        small = SpatialTiler(prog, design_small, ALVEO_U280).pass_cycles(spec, 250e6)
        big = SpatialTiler(prog, design_big, ALVEO_U280).pass_cycles(spec, 250e6)
        assert big < small  # less redundant compute with larger tiles

    def test_total_cycles_proportional_to_passes(self):
        spec = MeshSpec((15000, 15000))
        prog = single_kernel_program("p", spec, jacobi2d_5pt())
        design = DesignPoint(8, 60, 250.0, "DDR4", TileDesign((4096,)))
        tiler = SpatialTiler(prog, design, ALVEO_U280)
        one = tiler.total_cycles(spec, 60, 250e6)
        ten = tiler.total_cycles(spec, 600, 250e6)
        assert ten == pytest.approx(10 * one)
