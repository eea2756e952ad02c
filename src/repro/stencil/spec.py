"""Stencil access-pattern analysis.

From an expression tree we derive, per read field, the set of relative
offsets touched. These determine the window-buffer geometry (paper Fig. 1):
a 2D stencil of order ``D`` needs ``D`` rows buffered; a 3D stencil needs
``D`` planes (Section III). The paper defines the order ``D`` as twice the
stencil radius (5-point star: D=2; the RTM 25-point 8th-order star: D=8).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping

from repro.stencil.expr import Expr, FieldAccess, field_accesses
from repro.util.errors import ValidationError


@dataclass(frozen=True)
class AccessPattern:
    """The set of relative offsets with which one field is read."""

    field: str
    offsets: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if not self.offsets:
            raise ValidationError(f"access pattern for '{self.field}' has no offsets")
        ndim = len(self.offsets[0])
        for off in self.offsets:
            if len(off) != ndim:
                raise ValidationError(
                    f"mixed offset ranks in access pattern for '{self.field}'"
                )
        # canonical: sorted unique offsets
        object.__setattr__(self, "offsets", tuple(sorted(set(self.offsets))))

    @property
    def ndim(self) -> int:
        """Spatial rank of the accesses."""
        return len(self.offsets[0])

    @property
    def points(self) -> int:
        """Number of distinct stencil points."""
        return len(self.offsets)

    @cached_property
    def radius(self) -> tuple[int, ...]:
        """Maximum absolute offset per axis (paper order)."""
        return tuple(
            max(abs(off[axis]) for off in self.offsets) for axis in range(self.ndim)
        )

    @cached_property
    def order(self) -> int:
        """Stencil order ``D`` = 2 x max radius over all axes (0 for self-stencils)."""
        return 2 * max(self.radius)

    @cached_property
    def is_self_stencil(self) -> bool:
        """True when only the centre point is accessed (zeroth-order)."""
        return self.offsets == ((0,) * self.ndim,)

    def span_elements(self, mesh_shape: tuple[int, ...]) -> int:
        """Mesh elements between the earliest and latest accessed stream positions.

        This is the paper's window-buffer size rule: "the total number of mesh
        elements needed to be buffered is the maximum number of mesh elements
        between any two stencil points" (Section III), measured in streaming
        order (x fastest).
        """
        if len(mesh_shape) != self.ndim:
            raise ValidationError(
                f"mesh shape {mesh_shape} does not match access rank {self.ndim}"
            )
        strides = [1]
        for extent in mesh_shape[:-1]:
            strides.append(strides[-1] * extent)
        positions = [
            sum(o * s for o, s in zip(off, strides)) for off in self.offsets
        ]
        return max(positions) - min(positions)


@dataclass(frozen=True)
class StencilSpec:
    """Access patterns of a kernel over all fields it reads."""

    patterns: tuple[AccessPattern, ...]

    @classmethod
    def from_exprs(cls, exprs: Iterable[Expr]) -> "StencilSpec":
        """Derive the spec from one or more expressions."""
        by_field: dict[str, set[tuple[int, ...]]] = {}
        for expr in exprs:
            for access in field_accesses(expr):
                by_field.setdefault(access.field, set()).add(access.offset)
        if not by_field:
            raise ValidationError("expressions access no fields")
        patterns = tuple(
            AccessPattern(field, tuple(sorted(offsets)))
            for field, offsets in sorted(by_field.items())
        )
        return cls(patterns)

    @property
    def ndim(self) -> int:
        """Spatial rank of the stencil."""
        return self.patterns[0].ndim

    @property
    def fields(self) -> tuple[str, ...]:
        """All fields read, sorted by name."""
        return tuple(p.field for p in self.patterns)

    @cached_property
    def order(self) -> int:
        """The kernel's stencil order ``D``: max over all read fields."""
        return max(p.order for p in self.patterns)

    @cached_property
    def radius(self) -> tuple[int, ...]:
        """Per-axis radius: elementwise max over all read fields (paper order)."""
        ndim = self.ndim
        return tuple(
            max(p.radius[axis] for p in self.patterns) for axis in range(ndim)
        )

    @property
    def points(self) -> int:
        """Total distinct stencil points over all fields."""
        return sum(p.points for p in self.patterns)

    def pattern(self, field: str) -> AccessPattern:
        """The access pattern of a given field."""
        for p in self.patterns:
            if p.field == field:
                return p
        raise ValidationError(f"field '{field}' is not read by this stencil")

    def buffered_fields(self) -> tuple[AccessPattern, ...]:
        """Patterns that need a window buffer (non-self stencils)."""
        return tuple(p for p in self.patterns if not p.is_self_stencil)

    def window_elements(self, mesh_shape: tuple[int, ...]) -> Mapping[str, int]:
        """Window-buffer size in mesh elements, per buffered field."""
        return {
            p.field: p.span_elements(mesh_shape) for p in self.buffered_fields()
        }
