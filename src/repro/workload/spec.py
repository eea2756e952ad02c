"""Workload specifications: what a solver run *is*, as a value.

A :class:`WorkloadSpec` pins down one job shape — which application, on what
mesh, for how many iterations, how many independent meshes per solve — as a
frozen, hashable, JSON-serializable value. It subsumes the original
``repro.model.design.Workload`` scalar-parameter bag (that name remains as a
compatibility alias) and adds what every higher layer needs to *describe*
work rather than merely parameterize it: a stable string grammar
(``app:MESH:NITERxBATCH``), dict/JSON round-trips for journals and studies,
and lazy resolution of the concrete :class:`~repro.stencil.program.StencilProgram`
through the application registry.

The spec string grammar (also accepted by ``repro dse --workloads``)::

    jacobi3d:96x96x96:100x4      # app jacobi3d, 96^3 mesh, 100 iters, batch 4
    rtm:64x64x64:36x2            # app rtm, 64^3 mesh, 36 iters, batch 2
    poisson2d:200x100:500        # batch defaults to 1

Mesh components and dtype are resolved from the application's element type;
specs without an app name bind those from an explicit :class:`MeshSpec`
instead (the pre-existing ``Workload(mesh, niter, batch)`` construction).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Mapping, Sequence

import numpy as np

from repro.mesh.mesh import MeshSpec
from repro.util.errors import ValidationError
from repro.util.validation import check_positive


@dataclass(frozen=True)
class WorkloadSpec:
    """One job shape: a mesh (possibly batched) solved for ``niter`` iterations.

    ``app`` optionally names the registered application this workload runs
    (resolving its program via :meth:`program`); specs constructed without
    one carry all execution-relevant information in ``mesh`` alone and are
    exactly the original ``model.design.Workload``.
    """

    mesh: MeshSpec
    niter: int
    batch: int = 1
    app: str | None = None

    def __post_init__(self):
        check_positive("niter", self.niter)
        check_positive("batch", self.batch)
        if self.app is not None and (not self.app or ":" in self.app or "," in self.app):
            raise ValidationError(f"invalid app name {self.app!r}")

    # -- construction -----------------------------------------------------------
    @classmethod
    def of(
        cls,
        app: str,
        shape: Sequence[int],
        niter: int,
        batch: int = 1,
    ) -> "WorkloadSpec":
        """A spec for a registered application on a concrete mesh shape.

        Components and dtype come from the application's element type, so
        the spec is fully determined by ``(app, shape, niter, batch)``.
        """
        from repro.apps.registry import app_by_name  # lazy: apps import us

        template = app_by_name(app).program.mesh
        mesh = MeshSpec(tuple(shape), template.components, template.dtype)
        return cls(mesh, niter, batch, app)

    @classmethod
    def parse(cls, text: str) -> "WorkloadSpec":
        """Parse the ``app:MESH:NITER[xBATCH]`` spec grammar."""
        parts = text.strip().split(":")
        if len(parts) != 3:
            raise ValidationError(
                f"cannot parse workload {text!r}; expected app:MESH:NITER[xBATCH] "
                f"(e.g. jacobi3d:96x96x96:100x4)"
            )
        app, mesh_text, iters_text = (p.strip() for p in parts)
        try:
            shape = tuple(int(p) for p in mesh_text.lower().split("x"))
        except ValueError:
            raise ValidationError(
                f"cannot parse mesh {mesh_text!r} in workload {text!r}"
            ) from None
        if len(shape) not in (2, 3):
            raise ValidationError(
                f"workload mesh must be 2D or 3D, got {mesh_text!r}"
            )
        iter_parts = iters_text.lower().split("x")
        if len(iter_parts) not in (1, 2):
            raise ValidationError(
                f"cannot parse iterations {iters_text!r} in workload {text!r}; "
                f"expected NITER or NITERxBATCH"
            )
        try:
            niter = int(iter_parts[0])
            batch = int(iter_parts[1]) if len(iter_parts) == 2 else 1
        except ValueError:
            raise ValidationError(
                f"cannot parse iterations {iters_text!r} in workload {text!r}"
            ) from None
        return cls.of(app, shape, niter, batch)

    # -- identity ----------------------------------------------------------------
    @property
    def job_key(self) -> tuple:
        """Execution-grouping identity: everything but the batch count.

        Two specs with equal job keys solve the *same problem shape* — same
        app, mesh, dtype and iteration count — so their meshes can ride one
        compiled plan in one (chunked) stacked dispatch group.
        """
        return (self.app, self.mesh, self.niter)

    def solo(self) -> "WorkloadSpec":
        """This spec for a single mesh (``batch=1``)."""
        return replace(self, batch=1) if self.batch != 1 else self

    def with_batch(self, batch: int) -> "WorkloadSpec":
        """This spec with a different batch count."""
        return replace(self, batch=batch)

    # -- sizes --------------------------------------------------------------------
    @property
    def dtype(self) -> np.dtype:
        """Element scalar type of the workload's meshes."""
        return self.mesh.dtype

    @property
    def total_points(self) -> int:
        """Mesh points over the whole batch."""
        return self.mesh.num_points * self.batch

    @property
    def footprint_bytes(self) -> int:
        """Bytes of one state field over the whole batch."""
        return self.mesh.footprint_bytes * self.batch

    @property
    def cells(self) -> int:
        """Alias of :attr:`total_points`: mesh cells in flight."""
        return self.total_points

    @property
    def cell_iterations(self) -> int:
        """Total cell updates of the solve: ``points * batch * niter``."""
        return self.total_points * self.niter

    # -- resolution / serialization ------------------------------------------------
    def program(self):
        """The concrete :class:`StencilProgram` this spec runs (via the registry).

        Equal specs return the same (memoized) program object.
        """
        from repro.apps.registry import registry_program  # lazy: apps import us

        if self.app is None:
            raise ValidationError(
                f"workload {self} names no application; bind a program explicitly"
            )
        return registry_program(self.app, self.mesh.shape)

    def fields(self, seed: int = 0):
        """Reproducible initial conditions for one mesh of this spec."""
        from repro.apps.registry import app_by_name  # lazy: apps import us

        if self.app is None:
            raise ValidationError(
                f"workload {self} names no application; supply fields explicitly"
            )
        return app_by_name(self.app).fields(self.mesh.shape, seed=seed)

    def describe(self) -> str:
        """The canonical spec string (inverse of :meth:`parse` for app specs)."""
        mesh = "x".join(str(s) for s in self.mesh.shape)
        iters = f"{self.niter}x{self.batch}" if self.batch != 1 else str(self.niter)
        return f"{self.app or '?'}:{mesh}:{iters}"

    def to_dict(self) -> dict[str, Any]:
        """A JSON-safe dict representation (see :meth:`from_dict`)."""
        return {
            "app": self.app,
            "mesh": list(self.mesh.shape),
            "components": self.mesh.components,
            "dtype": self.mesh.dtype.name,
            "niter": self.niter,
            "batch": self.batch,
        }

    @classmethod
    def from_dict(cls, obj: Mapping[str, Any]) -> "WorkloadSpec":
        """Rebuild a spec from :meth:`to_dict` output."""
        try:
            mesh = MeshSpec(
                tuple(int(s) for s in obj["mesh"]),
                int(obj.get("components", 1)),
                np.dtype(obj.get("dtype", "float32")),
            )
            return cls(
                mesh,
                int(obj["niter"]),
                int(obj.get("batch", 1)),
                obj.get("app"),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ValidationError(f"invalid workload dict {obj!r}: {exc}") from None

    def __str__(self) -> str:
        if self.app is not None:
            return self.describe()
        return f"Workload({self.mesh}, niter={self.niter}, batch={self.batch})"
