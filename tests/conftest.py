"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest

from repro.apps.jacobi3d import jacobi3d_app
from repro.apps.poisson2d import poisson2d_app
from repro.apps.rtm import rtm_app
from repro.mesh.mesh import Field, MeshSpec
from repro.stencil.builders import jacobi2d_5pt, jacobi3d_7pt
from repro.stencil.program import single_kernel_program


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "fuzz: long differential-fuzzing profiles; run with -m fuzz"
    )


def pytest_collection_modifyitems(config, items):
    """Fuzz profiles run only when ``-m`` selects them."""
    if "fuzz" in (config.getoption("markexpr") or ""):
        return
    skip = pytest.mark.skip(reason="long fuzz profile; run with -m fuzz")
    for item in items:
        if "fuzz" in item.keywords:
            item.add_marker(skip)


@pytest.fixture
def spec2d() -> MeshSpec:
    return MeshSpec((12, 10))


@pytest.fixture
def spec3d() -> MeshSpec:
    return MeshSpec((8, 7, 6))


@pytest.fixture
def field2d(spec2d) -> Field:
    return Field.random("U", spec2d, seed=11)


@pytest.fixture
def field3d(spec3d) -> Field:
    return Field.random("U", spec3d, seed=12)


@pytest.fixture
def poisson_kernel():
    return jacobi2d_5pt()


@pytest.fixture
def jacobi_kernel():
    return jacobi3d_7pt()


@pytest.fixture
def poisson_program(spec2d, poisson_kernel):
    return single_kernel_program("poisson", spec2d, poisson_kernel)


@pytest.fixture
def jacobi_program(spec3d, jacobi_kernel):
    return single_kernel_program("jacobi", spec3d, jacobi_kernel)


@pytest.fixture
def poisson_app():
    return poisson2d_app()


@pytest.fixture
def jacobi_app():
    return jacobi3d_app()


@pytest.fixture
def rtm_small_app():
    return rtm_app((12, 12, 10))


@pytest.fixture
def spy_on_tree_walks(monkeypatch):
    """Call it to start recording expression-tree walks; returns the record."""

    def start() -> list:
        from repro.stencil import expr, kernel

        walks: list = []

        def counting_walk(node, _walk=expr.walk):
            walks.append(node)
            return _walk(node)

        monkeypatch.setattr(expr, "walk", counting_walk)
        monkeypatch.setattr(kernel, "walk", counting_walk)  # imported by name
        return walks

    return start


@pytest.fixture
def poisoned_chunks(monkeypatch):
    """Make every parallel chunk attempt raise, on every ladder rung.

    The thread workers and the terminal serial rung both run chunks
    through ``repro.parallel.executor.run_chunk_fields``; replacing it
    fails each attempt deterministically, so a dispatch exhausts its
    whole retry ladder.
    """

    def crash(*args, **kwargs):
        raise RuntimeError("poisoned chunk")

    monkeypatch.setattr("repro.parallel.executor.run_chunk_fields", crash)
