"""Golden answers for the analytic model and the search around it.

Every ``TrialResult`` of four groups of studies was dumped at commit
``c7e02c3`` (before the per-program analysis caches and the reordered
evaluation landed) in the canonical form of :func:`_canon` — floats as
``float.hex`` so the last bit counts, reasons as text — and one sha256 per
group is pinned below.  A change to the model's *speed* must reproduce
each digest; a change to its *answers* re-pins them on purpose and says so.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.apps import jacobi3d_app, poisson2d_app, rtm_app
from repro.arch.device import ALVEO_U280
from repro.dse import (
    ENERGY,
    RUNTIME,
    Evaluator,
    ExhaustiveSearch,
    Study,
    model_space,
    strategy_by_name,
)
from repro.dse.objectives import MEM_HEADROOM, max_dsp_utilization
from repro.dse.space import mix_space
from repro.harness import paper_data as paper
from repro.workload import WorkloadMix

#: the three `dse_sweep` problems of the contract benchmark
PROBLEMS = {
    "poisson": (poisson2d_app, (400, 400), paper.POISSON_BASE_ITERS),
    "jacobi": (jacobi3d_app, (200, 200, 200), paper.JACOBI_BASE_ITERS),
    "rtm": (rtm_app, (50, 50, 50), paper.RTM_BASE_ITERS),
}
MIX = "poisson2d:200x100:60x4@2,jacobi3d:50x50x50:29,rtm:32x32x32:6"

GOLDEN = {
    "sweep": "4e1ef4baaeae553462cf6515cc277ad864ed4bb28ece2ea14dc10e83148d0d1d",
    "axes": "f9780dc6d7dddbb79c00eddc04d99a26addc8a28382ed3522e197b7943a55a6e",
    "annealing": "2ec1c9cb6b64d03d527bd960505bcaf5c0f850b59b560798e78b00c826228535",
    "mix": "4f8e103d2f027996c9528d1ce8df8c1725e34b4a8ac07f62774cdc7b53107280",
}


def _canon(result) -> list:
    d = result.design
    design = None
    if d is not None:
        tile = list(d.tile.tile) if d.tile else None
        design = [
            d.V, d.p, d.clock_mhz.hex(), d.memory, tile, d.initiation_interval.hex()
        ]
    return [
        sorted(result.config.items()),
        result.feasible,
        result.reason,
        design,
        {name: value.hex() for name, value in sorted(result.values.items())},
        result.score.hex(),
        result.memory_bound,
    ]


def _digest(studies) -> str:
    rows = [[_canon(t.result) for t in study.trials] for study in studies]
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()


def _problem(key):
    factory, mesh, niter = PROBLEMS[key]
    app = factory(mesh)
    return app.program_on(mesh), app.workload(mesh, niter)


def _sweep():
    """(a) the benchmark's three exhaustive ``model_space`` sweeps."""
    for key in PROBLEMS:
        program, workload = _problem(key)
        space = model_space(program, ALVEO_U280, workload)
        yield Study(space, Evaluator(program, ALVEO_U280, workload)).run(
            ExhaustiveSearch()
        )


def _axes():
    """(b) tiled x boards x batch: tile derivation, eq. 15, spatial scaling."""
    for key in ("poisson", "jacobi"):
        program, workload = _problem(key)
        space = model_space(
            program, ALVEO_U280, workload,
            tiled=(False, True), boards=(1, 2), batches=(1, 4),
        )
        evaluator = Evaluator(
            program, ALVEO_U280, workload,
            objectives=(RUNTIME, ENERGY, MEM_HEADROOM),
        )
        yield Study(space, evaluator).run(ExhaustiveSearch())


def _annealing():
    """(c) a seeded 150-trial walk per app, energy-ranked under a DSP ceiling."""
    for seed, key in enumerate(PROBLEMS, start=1):
        program, workload = _problem(key)
        space = model_space(program, ALVEO_U280, workload, tiled=(False, True))
        evaluator = Evaluator(
            program, ALVEO_U280, workload,
            objectives=(ENERGY, RUNTIME),
            constraints=(max_dsp_utilization(0.8),),
        )
        yield Study(space, evaluator).run(
            strategy_by_name("annealing", seed=seed), 150
        )


def _mix():
    """(d) one design scored against a three-app workload mix."""
    mix = WorkloadMix.parse(MIX)
    space = mix_space(mix, ALVEO_U280, boards=(1, 2), batches=(1, 4))
    evaluator = Evaluator(
        mix.heaviest().program(), ALVEO_U280, workloads=mix,
        objectives=(RUNTIME, ENERGY),
    )
    yield Study(space, evaluator).run(ExhaustiveSearch())


GROUPS = {"sweep": _sweep, "axes": _axes, "annealing": _annealing, "mix": _mix}


@pytest.mark.parametrize("group", sorted(GROUPS))
def test_trial_results_match_the_pinned_digest(group):
    assert _digest(GROUPS[group]()) == GOLDEN[group]
