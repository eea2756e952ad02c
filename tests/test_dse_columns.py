"""The DSE's array pass against the scalar model it replaces.

``Evaluator.evaluate_many`` runs the untiled single-board rows of a batch
through :class:`repro.model.columns.DesignColumns` as NumPy arrays; every
other row (tiled, ``boards > 1``, values outside the model's domain) goes
through ``_evaluate_uncached``. The reference below evaluates every
configuration alone — one ``evaluate`` per configuration never stages a
batch — so each comparison is array path (mixed with fallback rows) against
the scalar model, row by row to the last bit of every float, with the
evaluators' counters and the instrumentation they emit.

The Tier-1 profile draws a fixed set of cases; ``pytest -m fuzz`` draws a
larger random one.
"""

from __future__ import annotations

import functools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import observability as obs
from repro.apps import jacobi3d_app, poisson2d_app, rtm_app
from repro.arch.device import ALVEO_U280
from repro.dse import (
    BANDWIDTH,
    DSP_HEADROOM,
    ENERGY,
    MEM_HEADROOM,
    POWER,
    RUNTIME,
    Evaluator,
    ExhaustiveSearch,
    Study,
    model_space,
)
from repro.dse.objectives import (
    compute_bound_only,
    max_dsp_utilization,
    max_power,
    weighted_sum,
)
from repro.dse.space import config_key
from repro.harness import paper_data as paper
from repro.model import columns
from repro.model.columns import AXIS_LIMIT

from test_dse_golden import _canon

#: (app factory, [(mesh, niter), ...]): the bench meshes, then small ones
PROBLEMS = {
    "poisson": (
        poisson2d_app,
        [((400, 400), paper.POISSON_BASE_ITERS), ((48, 32), 60), ((17, 9), 7)],
    ),
    "jacobi": (
        jacobi3d_app,
        [((200, 200, 200), paper.JACOBI_BASE_ITERS), ((24, 20, 16), 30)],
    ),
    "rtm": (rtm_app, [((50, 50, 50), paper.RTM_BASE_ITERS), ((12, 12, 10), 6)]),
}
OBJECTIVES = (RUNTIME, ENERGY, POWER, BANDWIDTH, DSP_HEADROOM, MEM_HEADROOM)
CONSTRAINTS = (
    max_power(75.0),
    max_dsp_utilization(0.6),
    compute_bound_only(),
)
#: configurations off the grid: the array path admits the first (a
#: non-power-of-two V), the rest go to the scalar model, which rejects
#: most of them as invalid or reads them as it always has
ODD = (
    {"memory": "HBM", "V": 3, "p": 5, "tiled": False},
    {"memory": "HBM", "V": 8, "p": True, "tiled": False},
    {"memory": "DDR4", "V": 2, "p": 2.0, "tiled": False},
    {"memory": "GDDR", "V": 1, "p": 1, "tiled": False},
    {"memory": "HBM", "V": 1, "p": 0, "tiled": False},
    {"memory": "HBM", "V": -4, "p": 2, "tiled": False},
    {"memory": "HBM", "V": 1, "p": AXIS_LIMIT + 1, "tiled": False},
    {"memory": "HBM", "V": 2, "p": 3, "tiled": 0},
    {"memory": "DDR4", "V": 1, "p": 1, "tiled": False, "batch": 0},
    {"memory": "HBM", "V": 4, "p": 4, "tiled": False, "boards": 1.0},
    {"memory": "HBM", "V": np.int64(4), "p": 4, "tiled": False},
    {"V": 4, "p": 4},
)


@functools.lru_cache(maxsize=None)
def _problem(app: str, index: int):
    factory, meshes = PROBLEMS[app]
    mesh, niter = meshes[index]
    program = factory(mesh).program_on(mesh)
    workload = factory(mesh).workload(mesh, niter)
    space = model_space(
        program, ALVEO_U280, workload,
        tiled=(False, True), boards=(1, 2), batches=(1, 4),
    )
    return program, workload, space


@st.composite
def cases(draw):
    """A problem, a scoring set-up and batches of configurations."""
    app = draw(st.sampled_from(sorted(PROBLEMS)))
    index = draw(st.integers(0, len(PROBLEMS[app][1]) - 1))
    _, _, space = _problem(app, index)
    objectives = draw(
        st.lists(
            st.sampled_from(OBJECTIVES), min_size=1, max_size=3,
            unique_by=lambda o: o.name,
        )
    )
    if draw(st.booleans()):
        weights = draw(
            st.lists(
                st.floats(-2.0, 2.0, allow_nan=False),
                min_size=len(objectives), max_size=len(objectives),
            )
        )
        objectives = [weighted_sum(objectives, weights)] + objectives
    constraints = draw(
        st.lists(st.sampled_from(CONSTRAINTS), max_size=2, unique_by=lambda c: c.name)
    )
    if draw(st.booleans()):
        # ExhaustiveSearch over the first trials of the grid, whose fastest
        # axes (tiled, boards, batch) mix fallback rows into every batch
        plan = ("exhaustive", draw(st.integers(1, 70)), draw(st.integers(1, 160)))
    else:
        indices = st.integers(0, space.size - 1).map(space.config_at)
        configs = draw(
            st.lists(st.one_of(indices, st.sampled_from(ODD)), min_size=1, max_size=120)
        )
        cuts = sorted(draw(st.lists(st.integers(0, len(configs)), max_size=4)))
        bounds = [0] + cuts + [len(configs)]
        plan = ("batches", [configs[a:b] for a, b in zip(bounds, bounds[1:])])
    return app, index, tuple(objectives), tuple(constraints), plan


def _evaluators(app, index, objectives, constraints):
    program, workload, _ = _problem(app, index)
    return [
        Evaluator(
            program, ALVEO_U280, workload,
            objectives=objectives, constraints=constraints,
        )
        for _ in range(2)
    ]


def _reference(evaluator, batches):
    """Each batch's distinct configurations, one ``evaluate`` each."""
    out = []
    for batch in batches:
        unique = {config_key(c): c for c in reversed(batch)}
        for key in dict.fromkeys(config_key(c) for c in batch):
            evaluator.evaluate(unique[key], key)
        out.append([evaluator.cached(c) for c in batch])
    return out


def _counters(evaluator):
    return evaluator.evaluations, evaluator.cache_hits, dict(evaluator.infeasible)


def _rows(results):
    return [[_canon(r) for r in batch] for batch in results]


def _check_case(case, monkeypatch):
    app, index, objectives, constraints, plan = case
    arrays, scalar = _evaluators(app, index, objectives, constraints)
    passed = []
    predict = columns.DesignColumns.predict

    def counting(self, memory, V, p, batch):
        passed.append(len(V))
        return predict(self, memory, V, p, batch)

    monkeypatch.setattr(columns.DesignColumns, "predict", counting)
    if plan[0] == "exhaustive":
        _, k, trials = plan
        space = _problem(app, index)[2]
        study = Study(space, arrays).run(ExhaustiveSearch(batch=k), trials)
        configs = [t.config for t in study.trials]
        batches = [configs[i : i + k] for i in range(0, len(configs), k)]
        got = [[t.result for t in study.trials[i : i + k]] for i in range(0, len(configs), k)]
    else:
        batches = plan[1]
        got = [arrays.evaluate_many(batch) for batch in batches]
    monkeypatch.setattr(columns.DesignColumns, "predict", predict)
    want = _reference(scalar, batches)
    assert _rows(got) == _rows(want)
    assert _counters(arrays) == _counters(scalar)
    return sum(passed)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(case=cases())
def test_array_pass_matches_the_scalar_model(case):
    with pytest.MonkeyPatch.context() as monkeypatch:
        _check_case(case, monkeypatch)


@pytest.mark.fuzz
@settings(max_examples=1000, deadline=None)
@given(case=cases())
def test_array_pass_matches_the_scalar_model_fuzz(case):
    """The long profile of the same property: ``pytest -m fuzz``."""
    with pytest.MonkeyPatch.context() as monkeypatch:
        _check_case(case, monkeypatch)


@pytest.mark.parametrize("k", [1, 2, 5, 64, 4096])
def test_exhaustive_batches_take_the_array_path(k, monkeypatch):
    """Every batch of two or more untiled single-board rows is one array
    pass; a batch of one, and every other row, stays scalar."""
    trials = 400
    rows = _check_case(
        ("poisson", 1, (RUNTIME, ENERGY), (max_power(75.0),), ("exhaustive", k, trials)),
        monkeypatch,
    )
    _, _, space = _problem("poisson", 1)
    grid = list(space.grid())[:trials]
    eligible = [
        sum(1 for c in grid[i : i + k] if not c["tiled"] and c["boards"] == 1)
        for i in range(0, len(grid), k)
    ]
    expected = sum(n for n in eligible if n >= 2)
    assert rows == expected
    assert expected > 0 or k == 1


def test_array_built_results_carry_plain_python_types():
    program, workload, space = _problem("jacobi", 1)
    evaluator = Evaluator(
        program, ALVEO_U280, workload,
        objectives=(weighted_sum((RUNTIME, ENERGY), (1.0, 0.5)),) + OBJECTIVES,
    )
    study = Study(space.fixed(tiled=False, boards=1), evaluator).run(ExhaustiveSearch())
    assert study.feasible_trials() and len(study.trials) > len(study.feasible_trials())
    plain = (int, float, str, bool)
    for trial in study.trials:
        result = trial.result
        assert all(type(v) in plain for v in result.config.values())
        assert type(result.feasible) is bool and type(result.memory_bound) is bool
        assert type(result.score) is float and type(result.reason) is str
        assert all(type(v) is float for v in result.values.values())
        design = result.design
        if design is not None:
            assert design.tile is None
            for value in (design.V, design.p, design.clock_mhz, design.memory,
                          design.initiation_interval):
                assert type(value) in plain


def test_journalled_array_trials_resume_identically(tmp_path):
    program, workload, space = _problem("poisson", 1)
    space = space.fixed(tiled=False, boards=1)
    path = tmp_path / "study.jsonl"

    def evaluator():
        return Evaluator(program, ALVEO_U280, workload, objectives=(RUNTIME, POWER))

    first = Study(space, evaluator(), path=path).run(ExhaustiveSearch())
    again = evaluator()
    resumed = Study(space, again, path=path, resume=True)
    assert resumed.replayed == len(first.trials)
    assert [_canon(t.result) for t in resumed.trials] == [
        _canon(t.result) for t in first.trials
    ]
    resumed.run(ExhaustiveSearch())
    assert again.evaluations == 0 and resumed.evaluated == 0


def _instrumented(run):
    obs.enable()
    try:
        run()
        events = [
            {k: e[k] for k in ("config", "feasible", "score", "reason")}
            for e in obs.ring_sink().of_kind("dse.trial")
        ]
        counters = sorted(
            (labels, metric.value)
            for name, labels, metric in obs.metrics_registry().items()
            if name == "dse.trials"
        )
        spans = sum(
            1 for e in obs.ring_sink().of_kind("span") if e["name"] == "dse.trial"
        )
    finally:
        obs.disable()
    return events, counters, spans


def test_array_path_emits_the_scalar_paths_trial_events(monkeypatch):
    _, _, space = _problem("poisson", 1)
    configs = [space.config_at(i) for i in range(0, space.size, 3)][:150]
    configs += [dict(c) for c in ODD]
    batches = [configs[i : i + 40] for i in range(0, len(configs), 40)]
    arrays, scalar = _evaluators("poisson", 1, (RUNTIME,), (max_power(75.0),))
    passes = []
    predict = columns.DesignColumns.predict

    def counting(self, *args):
        passes.append(len(args[0]))
        return predict(self, *args)

    monkeypatch.setattr(columns.DesignColumns, "predict", counting)
    got = _instrumented(lambda: [arrays.evaluate_many(b) for b in batches])
    monkeypatch.setattr(columns.DesignColumns, "predict", predict)
    want = _instrumented(lambda: _reference(scalar, batches))
    assert passes and got == want
    events, counters, spans = got
    assert spans == len(events) == arrays.evaluations
    assert {e["feasible"] for e in events} == {False, True}
    assert sum(value for _, value in counters) == arrays.evaluations


def test_the_array_pass_runs_inside_an_evaluate_call(monkeypatch):
    """The contract benchmark times ``evaluate``: the array pass must run
    inside the first staged configuration's call, not before it."""
    _, _, space = _problem("poisson", 1)
    evaluator = _evaluators("poisson", 1, (RUNTIME,), ())[0]
    depth = []
    inside = []
    inner = evaluator.evaluate

    def wrapped(config, *args, **kwargs):
        depth.append(1)
        try:
            return inner(config, *args, **kwargs)
        finally:
            depth.pop()

    predict = columns.DesignColumns.predict

    def spy(self, *args):
        inside.append(bool(depth))
        return predict(self, *args)

    monkeypatch.setattr(columns.DesignColumns, "predict", spy)
    evaluator.evaluate = wrapped
    Study(space, evaluator).run(ExhaustiveSearch(batch=32), 200)
    assert inside and all(inside)
