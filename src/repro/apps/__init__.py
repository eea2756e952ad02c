"""The paper's three representative applications.

* :mod:`repro.apps.poisson2d` — Poisson-5pt-2D (eq. 16): 2D, low order,
  single stencil loop.
* :mod:`repro.apps.jacobi3d` — Jacobi-7pt-3D (eq. 18): 3D, low order,
  single stencil loop.
* :mod:`repro.apps.rtm` — Reverse Time Migration forward pass (Algorithm 1):
  3D, 8th order, 25-point stencil over 6-component vector elements, four
  fused stencil loops per RK4 time iteration.
"""

from repro.apps.base import StencilApp
from repro.apps.poisson2d import poisson2d_app
from repro.apps.jacobi3d import jacobi3d_app
from repro.apps.rtm import rtm_app, build_rtm_program
from repro.apps.registry import all_apps, app_by_name, registry_program

__all__ = [
    "StencilApp",
    "poisson2d_app",
    "jacobi3d_app",
    "rtm_app",
    "build_rtm_program",
    "all_apps",
    "app_by_name",
    "registry_program",
]
