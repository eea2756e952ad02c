"""Mesh specification and field storage.

A :class:`MeshSpec` describes the rectangular iteration space of a
structured-mesh solver (paper Section II): spatial extents in the paper's
``(m, n[, l])`` order, the number of components per mesh element (1 for the
scalar Poisson/Jacobi solvers, 6 for the RTM vector fields) and the element
scalar type (single-precision float throughout the paper).

A :class:`Field` is a named NumPy array bound to a spec. Data is stored
C-ordered as ``arr[z, y, x, component]`` so the ``m`` dimension is contiguous,
matching both the FPGA streaming order and CPU cache behaviour.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import Iterator, Sequence

import numpy as np

from repro.util.errors import ValidationError
from repro.util.validation import check_positive, check_shape

#: values :meth:`Field.random` draws per call: its float64 temporary
#: stays at 512 KiB whatever the field's size
_RANDOM_CHUNK = 1 << 16


@dataclass(frozen=True)
class MeshSpec:
    """Shape and element type of a structured mesh.

    Parameters
    ----------
    shape:
        Spatial extents in paper order ``(m, n)`` or ``(m, n, l)``.
    components:
        Number of scalar components per mesh element (vector meshes).
    dtype:
        Element scalar type; the paper uses single precision throughout.
    """

    shape: tuple[int, ...]
    components: int = 1
    dtype: np.dtype = np.dtype(np.float32)

    def __post_init__(self):
        object.__setattr__(self, "shape", check_shape("shape", self.shape))
        if len(self.shape) not in (2, 3):
            raise ValidationError(
                f"only 2D and 3D meshes are supported, got shape {self.shape}"
            )
        check_positive("components", self.components)
        object.__setattr__(self, "dtype", np.dtype(self.dtype))

    # -- paper-notation accessors -------------------------------------------------
    @property
    def ndim(self) -> int:
        """Number of spatial dimensions (2 or 3)."""
        return len(self.shape)

    @property
    def m(self) -> int:
        """Innermost (contiguous, vectorized) extent."""
        return self.shape[0]

    @property
    def n(self) -> int:
        """Second extent (rows in 2D, rows-per-plane in 3D)."""
        return self.shape[1]

    @property
    def l(self) -> int:
        """Outermost extent of a 3D mesh (number of planes)."""
        if self.ndim != 3:
            raise ValidationError(f"mesh {self.shape} is not 3D; 'l' is undefined")
        return self.shape[2]

    # -- sizes --------------------------------------------------------------------
    @property
    def num_points(self) -> int:
        """Total number of mesh points."""
        count = 1
        for s in self.shape:
            count *= s
        return count

    @property
    def elem_bytes(self) -> int:
        """Size of one mesh element in bytes (``k`` in eq. (7))."""
        return self.components * self.dtype.itemsize

    @property
    def footprint_bytes(self) -> int:
        """Total bytes of one field on this mesh."""
        return self.num_points * self.elem_bytes

    @property
    def storage_shape(self) -> tuple[int, ...]:
        """NumPy storage shape ``(l, n, m, components)`` / ``(n, m, components)``."""
        return tuple(reversed(self.shape)) + (self.components,)

    @property
    def row_length(self) -> int:
        """Alias for ``m``: the length of a streamed row."""
        return self.m

    @property
    def plane_points(self) -> int:
        """Points per plane: ``m*n`` (3D) or ``m`` (2D row)."""
        return self.m * self.n if self.ndim == 3 else self.m

    def with_shape(self, shape: Sequence[int]) -> "MeshSpec":
        """Return a copy of this spec with a different spatial shape."""
        return MeshSpec(tuple(shape), self.components, self.dtype)

    def interior_slices(self, radius: Sequence[int] | int) -> tuple[slice, ...]:
        """Slices (in storage order, excluding the component axis) selecting
        the interior at the given per-axis stencil radius.

        ``radius`` is given in paper axis order ``(rm, rn[, rl])``.
        """
        if isinstance(radius, int):
            radius = (radius,) * self.ndim
        radius = tuple(int(r) for r in radius)
        if len(radius) != self.ndim:
            raise ValidationError(
                f"radius {radius} does not match mesh rank {self.ndim}"
            )
        for r, s in zip(radius, self.shape):
            if r < 0:
                raise ValidationError(f"radius must be non-negative, got {radius}")
            if 2 * r >= s:
                raise ValidationError(
                    f"radius {r} leaves no interior on extent {s} (shape {self.shape})"
                )
        # storage order is reversed paper order
        return tuple(slice(r, s - r) for r, s in zip(reversed(radius), reversed(self.shape)))

    def __str__(self) -> str:
        dims = "x".join(str(s) for s in self.shape)
        comp = f", {self.components} comp" if self.components != 1 else ""
        return f"Mesh({dims}{comp}, {self.dtype.name})"


@dataclass
class Field:
    """A named field (solution variable or coefficient mesh) on a mesh.

    The underlying array is always ``spec.storage_shape``; use
    :meth:`values` for a component-squeezed view of scalar fields.
    """

    name: str
    spec: MeshSpec
    data: np.ndarray = dc_field(repr=False, default=None)

    def __post_init__(self):
        if self.data is None:
            self.data = np.zeros(self.spec.storage_shape, dtype=self.spec.dtype)
        else:
            self.data = np.asarray(self.data, dtype=self.spec.dtype)
            if self.data.shape == self.spec.storage_shape[:-1] and self.spec.components == 1:
                self.data = self.data[..., np.newaxis]
            if self.data.shape != self.spec.storage_shape:
                raise ValidationError(
                    f"field '{self.name}' data shape {self.data.shape} does not match "
                    f"storage shape {self.spec.storage_shape}"
                )

    # -- constructors -------------------------------------------------------------
    @classmethod
    def zeros(cls, name: str, spec: MeshSpec) -> "Field":
        """A zero-initialized field."""
        return cls(name, spec)

    @classmethod
    def full(cls, name: str, spec: MeshSpec, value: float) -> "Field":
        """A constant-initialized field."""
        return cls(name, spec, np.full(spec.storage_shape, value, dtype=spec.dtype))

    @classmethod
    def random(cls, name: str, spec: MeshSpec, seed: int = 0, lo: float = 0.0, hi: float = 1.0) -> "Field":
        """A reproducibly random field (uniform in ``[lo, hi)``).

        Drawn into the field's array :data:`_RANDOM_CHUNK` values at a
        time: the generator consumes one ``uint64`` per ``float64`` in
        order, so the values are those of one ``uniform(...)`` call cast
        to the field's dtype, and no full-size ``float64`` copy exists.
        """
        rng = np.random.default_rng(seed)
        data = np.empty(spec.storage_shape, dtype=spec.dtype)
        flat = data.reshape(-1)
        for start in range(0, flat.size, _RANDOM_CHUNK):
            chunk = flat[start : start + _RANDOM_CHUNK]
            np.copyto(chunk, rng.uniform(lo, hi, chunk.size), casting="unsafe")
        return cls(name, spec, data)

    @classmethod
    def from_function(cls, name: str, spec: MeshSpec, fn) -> "Field":
        """Initialize from ``fn(x, y[, z]) -> value`` evaluated on integer coordinates.

        ``fn`` receives broadcast coordinate arrays in paper order.
        """
        coords = np.meshgrid(*[np.arange(s) for s in spec.shape], indexing="ij")
        values = np.asarray(fn(*coords), dtype=spec.dtype)
        if values.shape == spec.shape:
            values = values[..., np.newaxis]
            values = np.broadcast_to(values, spec.shape + (spec.components,))
        # transpose paper order (m, n, l, c) -> storage order (l, n, m, c)
        axes = tuple(reversed(range(spec.ndim))) + (spec.ndim,)
        data = np.ascontiguousarray(values.transpose(axes))
        return cls(name, spec, data)

    # -- views & copies -----------------------------------------------------------
    def copy(self, name: str | None = None) -> "Field":
        """A deep copy, optionally renamed."""
        return Field(name or self.name, self.spec, self.data.copy())

    def values(self) -> np.ndarray:
        """The storage array, squeezing the component axis for scalar fields."""
        if self.spec.components == 1:
            return self.data[..., 0]
        return self.data

    def interior(self, radius) -> np.ndarray:
        """View of the interior region at the given stencil radius."""
        return self.data[self.spec.interior_slices(radius)]

    def at(self, *point: int, component: int = 0) -> float:
        """Value at a point given in paper coordinates ``(x, y[, z])``."""
        if len(point) != self.spec.ndim:
            raise ValidationError(
                f"point {point} does not match mesh rank {self.spec.ndim}"
            )
        return float(self.data[tuple(reversed(point)) + (component,)])

    def allclose(self, other: "Field", rtol: float = 0.0, atol: float = 0.0) -> bool:
        """Exact (default) or tolerant comparison with another field."""
        return self.spec == other.spec and np.allclose(
            self.data, other.data, rtol=rtol, atol=atol
        )

    def rows(self) -> Iterator[np.ndarray]:
        """Iterate over rows in streaming order (the order the FPGA reads them)."""
        flat = self.data.reshape(-1, self.spec.m, self.spec.components)
        yield from flat
