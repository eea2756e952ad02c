"""Shared fixtures for the test suite."""

from __future__ import annotations

import dataclasses
import threading

import pytest

from repro.apps.jacobi3d import jacobi3d_app
from repro.apps.poisson2d import poisson2d_app
from repro.apps.rtm import rtm_app
from repro.mesh.mesh import Field, MeshSpec
from repro.stencil.builders import jacobi2d_5pt, jacobi3d_7pt
from repro.stencil.program import FusedGroup, StencilLoop, single_kernel_program


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
def with_coefficients():
    """Call it as ``with_coefficients(program, k1=0.5)``: the program with
    those coefficient defaults replaced in every kernel that names them
    (:meth:`~repro.stencil.kernel.StencilKernel.with_coefficients`)."""

    def rebuild(program, **values):
        unknown = set(values) - set(program.coefficient_values())
        assert not unknown, f"no kernel of {program.name} names {sorted(unknown)}"

        def loop(kernel):
            own = {n: v for n, v in values.items() if n in kernel.coefficient_names()}
            return StencilLoop(kernel.with_coefficients(**own))

        groups = tuple(
            FusedGroup(tuple(loop(l.kernel) for l in group.loops))
            for group in program.groups
        )
        return dataclasses.replace(program, groups=groups)

    return rebuild


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
    """Make every parallel chunk raise; returns the calls it received.

    The thread workers run chunks through
    ``repro.parallel.executor.run_chunk_fields``; replacing it fails each
    chunk deterministically. Each call's positional arguments
    ``(token, plan, size, niter, envs, trace)`` are appended to the
    returned list, so a test can count how often each chunk ran.
    """
    calls: list = []

    def crash(*args, **kwargs):
        calls.append(args)
        raise RuntimeError("poisoned chunk")

    monkeypatch.setattr("repro.parallel.executor.run_chunk_fields", crash)
    return calls


@pytest.fixture
def flaky_chunks(monkeypatch):
    """Call it with ``n``: the first ``n`` parallel chunk calls raise.

    Later calls run the real ``run_chunk_fields``. Returns the list of
    plan tokens the failed calls carried, one entry per failure.
    """
    from repro.parallel import executor

    def arm(n: int) -> list:
        real = executor.run_chunk_fields
        failed: list = []
        lock = threading.Lock()

        def flaky(*args, **kwargs):
            with lock:
                fail = len(failed) < n
                if fail:
                    failed.append(args[0])
            if fail:
                raise RuntimeError("flaky chunk")
            return real(*args, **kwargs)

        monkeypatch.setattr(executor, "run_chunk_fields", flaky)
        return failed

    return arm
