"""Registry resolution: one program object per (app, mesh shape).

Specs, the mix scheduler and the evaluator resolve registry programs through
one bounded memo, so equal specs share a program object and the plan cache
finds its token by identity instead of comparing expression trees.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.apps import registry
from repro.apps.registry import PROGRAM_MEMO_SIZE, app_by_name, registry_program
from repro.dataflow.scheduler import MixScheduler
from repro.stencil import plan as plan_module
from repro.stencil.compiled import CompiledPlanCache
from repro.util.errors import ValidationError
from repro.workload import WorkloadSpec


def test_equal_specs_share_one_program():
    a = WorkloadSpec.parse("rtm:16x16x12:6x2")
    b = WorkloadSpec.of("rtm", (16, 16, 12), niter=3)
    assert a.program() is b.program() is registry_program("rtm", [16, 16, 12])
    assert MixScheduler()._program(a) is a.program()
    assert a.program().mesh == a.mesh
    assert WorkloadSpec.parse("rtm:16x16x14:6").program() is not a.program()


def test_each_app_is_built_once():
    assert app_by_name("rtm") is app_by_name("rtm")
    assert registry.all_apps()["jacobi3d"] is app_by_name("jacobi3d")


def test_the_memo_keeps_the_plan_caches_capacity():
    assert PROGRAM_MEMO_SIZE == CompiledPlanCache().capacity == 64
    shapes = [(10 + i, 9) for i in range(PROGRAM_MEMO_SIZE + 1)]
    held = [registry_program("poisson2d", shape) for shape in shapes]
    # the 65th distinct shape evicted the oldest, and only it
    assert registry._program.cache_info().currsize == PROGRAM_MEMO_SIZE
    assert registry_program("poisson2d", shapes[-1]) is held[-1]
    assert registry_program("poisson2d", shapes[1]) is held[1]
    assert registry_program("poisson2d", shapes[0]) is not held[0]


def test_racing_resolutions_get_one_object():
    shape = (23, 21, 7)
    with ThreadPoolExecutor(4) as pool:
        got = list(pool.map(lambda _: registry_program("jacobi3d", shape), range(16)))
    assert all(program is got[0] for program in got)


def test_a_re_resolved_spec_hits_the_plan_cache_by_identity(monkeypatch):
    cache = CompiledPlanCache()
    spec = WorkloadSpec.parse("jacobi3d:12x10x8:3")
    cache.get(spec.program(), spec.fields(seed=0))
    compares = []
    original = plan_module._HashedKey.__eq__

    def counting(self, other):
        compares.append(self is other)
        return original(self, other)

    monkeypatch.setattr(plan_module._HashedKey, "__eq__", counting)
    again = WorkloadSpec.parse("jacobi3d:12x10x8:3")
    cache.get(again.program(), again.fields(seed=1))
    assert (cache.hits, cache.misses) == (1, 1)
    assert compares == []


def test_an_unknown_app_raises_and_is_not_cached():
    apps, programs = (
        registry._app.cache_info().currsize,
        registry._program.cache_info().currsize,
    )
    for _ in range(2):
        with pytest.raises(ValidationError, match="unknown app 'nope'"):
            WorkloadSpec.parse("nope:10x10:5")
        with pytest.raises(ValidationError, match="unknown app 'nope'"):
            registry_program("nope", (10, 10))
    assert registry._app.cache_info().currsize == apps
    assert registry._program.cache_info().currsize == programs
