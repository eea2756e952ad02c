"""Unit tests: spatial tiling is functionally exact and counts cycles sanely."""

import numpy as np
import pytest

from repro.arch.device import ALVEO_U280
from repro.dataflow.tiler import SpatialTiler
from repro.mesh.mesh import Field, MeshSpec
from repro.model.design import DesignPoint
from repro.model.tiling import TileDesign
from repro.stencil.builders import jacobi2d_5pt, jacobi3d_7pt
from repro.stencil.numpy_eval import run_program
from repro.stencil.program import single_kernel_program
from repro.util.errors import ValidationError


def _tiled_design(tile, p=2, V=2, memory="DDR4"):
    return DesignPoint(V=V, p=p, clock_mhz=250.0, memory=memory, tile=TileDesign(tile))


class TestTiler2D:
    def test_matches_untiled_golden(self):
        spec = MeshSpec((64, 12))
        prog = single_kernel_program("p", spec, jacobi2d_5pt())
        f = Field.random("U", spec, seed=31)
        tiler = SpatialTiler(prog, _tiled_design((20,)), ALVEO_U280)
        ours = tiler.run({"U": f}, 6)
        gold = run_program(prog, {"U": f}, 6, engine="interpreter")
        assert np.array_equal(ours["U"].data, gold["U"].data)

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
    def test_matches_untiled_golden(self):
        spec = MeshSpec((24, 20, 6))
        prog = single_kernel_program("j", spec, jacobi3d_7pt())
        f = Field.random("U", spec, seed=35)
        tiler = SpatialTiler(prog, _tiled_design((10, 12)), ALVEO_U280)
        ours = tiler.run({"U": f}, 4)
        gold = run_program(prog, {"U": f}, 4, engine="interpreter")
        assert np.array_equal(ours["U"].data, gold["U"].data)

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
    @pytest.mark.parametrize(
        "shape, kernel, tile",
        [((37, 9), jacobi2d_5pt, (17,)), ((24, 20, 6), jacobi3d_7pt, (10, 12))],
    )
    def test_callers_fields_unchanged(self, engine, shape, kernel, tile):
        spec = MeshSpec(shape)
        prog = single_kernel_program("p", spec, kernel())
        f = Field.random("U", spec, seed=37)
        before = f.data.tobytes()
        tiler = SpatialTiler(prog, _tiled_design(tile), ALVEO_U280, engine=engine)
        ours = tiler.run({"U": f}, 4)
        assert f.data.tobytes() == before
        assert not np.shares_memory(ours["U"].data, f.data)
        gold = run_program(prog, {"U": f}, 4, engine="interpreter")
        assert np.array_equal(ours["U"].data, gold["U"].data)


class TestTilerReuse:
    """A run writes each pass into one of two arrays per state field, so
    the third pass writes over the first's output; a cell a pass left
    unwritten would show the data of another pass or run."""

    @pytest.mark.parametrize("engine", ["compiled", "native"])
    @pytest.mark.parametrize(
        "shape, kernel, tile",
        [((37, 9), jacobi2d_5pt, (17,)), ((24, 20, 6), jacobi3d_7pt, (10, 12))],
    )
    def test_two_inputs_back_to_back(self, engine, shape, kernel, tile):
        spec = MeshSpec(shape)
        prog = single_kernel_program("p", spec, kernel())
        tiler = SpatialTiler(prog, _tiled_design(tile), ALVEO_U280, engine=engine)
        for seed in (41, 42):
            f = Field.random("U", spec, seed=seed)
            before = f.data.tobytes()
            ours = tiler.run({"U": f}, 6)
            assert f.data.tobytes() == before
            gold = run_program(prog, {"U": f}, 6, engine="interpreter")
            assert np.array_equal(ours["U"].data, gold["U"].data)


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
