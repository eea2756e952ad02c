"""Application registry used by the harness and examples.

Each registry application is built once per process, and each (name, mesh
shape) program once while it stays among the :data:`PROGRAM_MEMO_SIZE` most
recently used: every caller resolving the same name and shape gets the same
frozen object, so the plan cache finds its token by identity instead of
re-walking and comparing the program's expression trees.
"""

from __future__ import annotations

import threading
from functools import lru_cache
from typing import Callable, Sequence

from repro.apps.base import StencilApp
from repro.apps.jacobi3d import jacobi3d_app
from repro.apps.poisson2d import poisson2d_app
from repro.apps.rtm import rtm_app
from repro.stencil.program import StencilProgram
from repro.util.errors import ValidationError

_FACTORIES: dict[str, Callable[[], StencilApp]] = {
    "poisson2d": poisson2d_app,
    "jacobi3d": jacobi3d_app,
    "rtm": rtm_app,
}

#: distinct (name, shape) programs kept; the plan cache's default capacity
PROGRAM_MEMO_SIZE = 64

#: one resolution at a time: racing callers must get the same object, which
#: ``lru_cache`` alone does not promise (each racer keeps what it built)
_LOCK = threading.Lock()


@lru_cache(maxsize=None)
def _app(name: str) -> StencilApp:
    try:
        factory = _FACTORIES[name]
    except KeyError:
        raise ValidationError(
            f"unknown app {name!r}; available: {sorted(_FACTORIES)}"
        ) from None
    return factory()


@lru_cache(maxsize=PROGRAM_MEMO_SIZE)
def _program(name: str, shape: tuple[int, ...]) -> StencilProgram:
    return _app(name).program_on(shape)


def all_apps() -> dict[str, StencilApp]:
    """All three paper applications with their default meshes."""
    return {name: app_by_name(name) for name in _FACTORIES}


def app_by_name(name: str) -> StencilApp:
    """One application by registry name (built on first use)."""
    with _LOCK:
        return _app(name)


def registry_program(name: str, shape: Sequence[int]) -> StencilProgram:
    """Application ``name``'s program on a mesh of ``shape``, memoized."""
    with _LOCK:
        return _program(name, tuple(int(s) for s in shape))
