"""Unit tests for Field storage and views."""

import numpy as np
import pytest

from repro.mesh.mesh import _RANDOM_CHUNK, Field, MeshSpec
from repro.util.errors import ValidationError


class TestConstruction:
    def test_zeros_default(self, spec2d):
        f = Field.zeros("U", spec2d)
        assert f.data.shape == spec2d.storage_shape
        assert not f.data.any()

    def test_full(self, spec2d):
        f = Field.full("U", spec2d, 2.5)
        assert np.all(f.data == np.float32(2.5))

    def test_random_reproducible(self, spec2d):
        a = Field.random("U", spec2d, seed=3)
        b = Field.random("U", spec2d, seed=3)
        assert np.array_equal(a.data, b.data)

    def test_random_seed_changes(self, spec2d):
        a = Field.random("U", spec2d, seed=3)
        b = Field.random("U", spec2d, seed=4)
        assert not np.array_equal(a.data, b.data)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize(
        "rows, components",
        [
            (7, 1),
            (_RANDOM_CHUNK // 64, 1),
            (_RANDOM_CHUNK // 64 + 3, 1),
            (_RANDOM_CHUNK // 96, 3),
        ],
    )
    def test_random_is_one_draw_cast(self, rows, components, dtype):
        """Drawn chunk by chunk (below, at and across one chunk, and a
        vector field), the values are those of one draw cast at once."""
        spec = MeshSpec((64, rows), components, np.dtype(dtype))
        want = np.random.default_rng(5).uniform(-1.0, 2.0, size=spec.storage_shape)
        got = Field.random("U", spec, seed=5, lo=-1.0, hi=2.0).data
        assert got.tobytes() == want.astype(dtype).tobytes()

    def test_random_draws_no_full_size_float64_copy(self):
        import tracemalloc

        spec = MeshSpec((1024, 1024))  # 4 MB of float32; a float64 copy is 8 MB
        tracemalloc.start()
        try:
            f = Field.random("U", spec, seed=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= f.data.nbytes + _RANDOM_CHUNK * 8 + (64 << 10)

    def test_scalar_array_promoted_to_component_axis(self, spec2d):
        raw = np.ones(tuple(reversed(spec2d.shape)), dtype=np.float32)
        f = Field("U", spec2d, raw)
        assert f.data.shape == spec2d.storage_shape

    def test_rejects_wrong_shape(self, spec2d):
        with pytest.raises(ValidationError):
            Field("U", spec2d, np.ones((3, 3, 1), dtype=np.float32))

    def test_dtype_cast(self, spec2d):
        raw = np.ones(spec2d.storage_shape, dtype=np.float64)
        f = Field("U", spec2d, raw)
        assert f.data.dtype == np.float32


class TestFromFunction:
    def test_coordinates_in_paper_order(self):
        spec = MeshSpec((4, 3))
        f = Field.from_function("U", spec, lambda x, y: x + 10 * y)
        # paper point (x=2, y=1) -> storage [y=1, x=2]
        assert f.at(2, 1) == 12.0

    def test_3d(self):
        spec = MeshSpec((3, 4, 5))
        f = Field.from_function("U", spec, lambda x, y, z: x + 10 * y + 100 * z)
        assert f.at(1, 2, 3) == 321.0


class TestViews:
    def test_values_squeezes_scalar(self, field2d):
        assert field2d.values().ndim == 2

    def test_values_keeps_vector(self):
        spec = MeshSpec((4, 4), components=6)
        f = Field.zeros("Y", spec)
        assert f.values().ndim == 3

    def test_interior_shape(self, field2d):
        inner = field2d.interior((1, 1))
        n, m, _ = field2d.spec.storage_shape
        assert inner.shape == (n - 2, m - 2, 1)

    def test_at_component(self):
        spec = MeshSpec((4, 4), components=2)
        f = Field.zeros("Y", spec)
        f.data[1, 2, 1] = 7.0
        assert f.at(2, 1, component=1) == 7.0

    def test_at_rejects_wrong_rank(self, field2d):
        with pytest.raises(ValidationError):
            field2d.at(1, 2, 3)

    def test_rows_streaming_order(self):
        spec = MeshSpec((3, 2))
        f = Field.from_function("U", spec, lambda x, y: x + 10 * y)
        rows = list(f.rows())
        assert len(rows) == 2
        assert rows[0][:, 0].tolist() == [0.0, 1.0, 2.0]
        assert rows[1][:, 0].tolist() == [10.0, 11.0, 12.0]


class TestCopyCompare:
    def test_copy_is_deep(self, field2d):
        c = field2d.copy()
        c.data[0, 0, 0] += 1.0
        assert field2d.data[0, 0, 0] != c.data[0, 0, 0]

    def test_copy_rename(self, field2d):
        assert field2d.copy("V").name == "V"

    def test_allclose_exact_default(self, field2d):
        c = field2d.copy()
        assert field2d.allclose(c)
        c.data[0, 0, 0] += 1e-3
        assert not field2d.allclose(c)

    def test_allclose_different_spec(self, field2d, field3d):
        assert not field2d.allclose(field3d)
