"""Pluggable search strategies over a :class:`~repro.dse.study.Study`.

Every strategy proposes configurations through ``study.ask`` /
``study.ask_many`` and stops when the study's budget is exhausted (the
study raises :class:`~repro.dse.study.BudgetExhausted`, which ``Study.run``
treats as normal termination).  Strategies are deterministic given their
seed, so studies are reproducible and resumable.

Implemented strategies:

* ``exhaustive`` — the full grid, in mixed-radix order (the reference
  optimum for the convergence experiments);
* ``random`` — uniform sampling without replacement;
* ``annealing`` — simulated annealing over single-axis neighbour moves
  with a relative-delta Metropolis rule;
* ``greedy`` — model-guided descent that exploits the structure of the
  analytic model: the memory-cycle floor depends only on the unroll ``p``
  (eq. (5)), so once a deep-unroll design is memory-bound, no shallower
  unroll on that memory can beat it and the region is pruned early.
"""

from __future__ import annotations

import itertools
import math
import random
from typing import TYPE_CHECKING

from repro.util.errors import ValidationError

if TYPE_CHECKING:  # pragma: no cover
    from repro.dse.study import Study


class SearchStrategy:
    """Base class: a named proposal policy over one study."""

    name = "base"

    def run(self, study: "Study") -> None:
        """Propose trials until done or the budget is exhausted."""
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}()"


class ExhaustiveSearch(SearchStrategy):
    """Every configuration on the grid, in batches of ``batch`` (one array pass each)."""

    name = "exhaustive"

    def __init__(self, batch: int = 64):
        if batch < 1:
            raise ValidationError(f"batch must be >= 1, got {batch}")
        self.batch = batch

    def run(self, study: "Study") -> None:
        pending = []
        for config in study.space.grid():
            pending.append(config)
            if len(pending) >= self.batch:
                study.ask_many(pending)
                pending = []
                if study.exhausted:
                    return
        if pending:
            study.ask_many(pending)


class RandomSearch(SearchStrategy):
    """Uniform sampling of the grid without replacement."""

    name = "random"

    def __init__(self, seed: int = 0, batch: int = 16):
        if batch < 1:
            raise ValidationError(f"batch must be >= 1, got {batch}")
        self.seed = seed
        self.batch = batch

    def run(self, study: "Study") -> None:
        rng = random.Random(self.seed)
        indices = list(range(study.space.size))
        rng.shuffle(indices)
        for start in range(0, len(indices), self.batch):
            study.ask_many(
                [study.space.config_at(i) for i in indices[start : start + self.batch]]
            )
            if study.exhausted:
                return


def _cap_corners(study: "Study") -> list[dict]:
    """Model-guided starting points: the widest-V / deepest-p grid corners.

    Empty when the space lacks the model axes (memory, V, p) — generic
    spaces fall back to purely random seeding.
    """
    space = study.space
    evaluator = study.evaluator
    if not {"memory", "V", "p"} <= set(space.names):
        return []
    template = {
        name: space[name].values[0]
        for name in space.names
        if name not in ("memory", "V", "p")
    }
    tiled = bool(template.get("tiled", False))
    corners = []
    for memory in space["memory"].values:
        v_cap = evaluator.vector_cap(memory)
        vs = [v for v in space["V"].values if v <= v_cap]
        for V in sorted(vs, reverse=True)[:2]:
            p_cap = evaluator.unroll_cap(V, tiled)
            ps = [p for p in space["p"].values if p <= p_cap]
            if ps:
                corners.append(dict(template, memory=memory, V=V, p=max(ps)))
    return corners


class SimulatedAnnealing(SearchStrategy):
    """Metropolis walk over single-axis neighbour moves.

    The walk starts from the best of a few random probes, accepts uphill
    moves with probability ``exp(-rel_delta / T)`` (``rel_delta`` is the
    score increase relative to the incumbent, making the schedule
    scale-free across objectives) and restarts from the best-so-far point
    whenever it wanders into an infeasible region.
    """

    name = "annealing"

    def __init__(
        self,
        seed: int = 0,
        initial_temperature: float = 0.25,
        cooling: float = 0.93,
        probes: int = 8,
        restart_after: int = 8,
        max_proposals: int | None = None,
    ):
        if not 0.0 < cooling < 1.0:
            raise ValidationError(f"cooling must be in (0, 1), got {cooling}")
        if initial_temperature <= 0.0:
            raise ValidationError(
                f"initial_temperature must be > 0, got {initial_temperature}"
            )
        if restart_after < 1:
            raise ValidationError(f"restart_after must be >= 1, got {restart_after}")
        self.seed = seed
        self.initial_temperature = initial_temperature
        self.cooling = cooling
        self.probes = probes
        self.restart_after = restart_after
        self.max_proposals = max_proposals

    def run(self, study: "Study") -> None:
        rng = random.Random(self.seed)
        space = study.space
        # duplicate proposals are budget-free, so a converged walk on an
        # unbounded study needs its own stopping rule
        proposals_left = self.max_proposals
        if proposals_left is None:
            proposals_left = 40 * (study.remaining if study.remaining is not None else 25)
        # seed the walk: every model-guided corner probe (the optimum usually
        # sits at a vectorization/unroll cap) plus `probes` random draws
        current = None
        current_score = math.inf
        probes = _cap_corners(study) + [
            space.sample(rng) for _ in range(max(1, self.probes))
        ]
        for config in probes:
            result = study.ask(config)
            if result.score < current_score:
                current, current_score = config, result.score
        if current is None:
            current = space.sample(rng)
        best, best_score = current, current_score
        temperature = self.initial_temperature
        stale = 0
        while proposals_left > 0:
            proposals_left -= 1
            if stale >= self.restart_after:
                # converged (or trapped): alternate between re-heating around
                # the best point and a fresh random probe; duplicate asks are
                # budget-free, so restarts cost only genuinely new trials
                if rng.random() < 0.5:
                    current, current_score = best, best_score
                else:
                    current = space.sample(rng)
                    result = study.ask(current)
                    current_score = result.score
                    if result.score < best_score:
                        best, best_score = current, result.score
                temperature = max(temperature, self.initial_temperature / 2)
                stale = 0
                continue
            candidate = space.neighbor(current, rng)
            result = study.ask(candidate)
            temperature *= self.cooling
            if not result.feasible:
                stale += 1
                continue
            delta = result.score - current_score
            scale = abs(current_score) if math.isfinite(current_score) else 1.0
            rel = delta / scale if scale > 0 else delta
            if delta <= 0 or rng.random() < math.exp(-rel / max(temperature, 1e-9)):
                if delta == 0:
                    stale += 1  # revisiting a plateau still counts toward restart
                else:
                    stale = 0
                current, current_score = candidate, result.score
            else:
                stale += 1
            if result.score < best_score:
                best, best_score = candidate, result.score


class ModelGuidedGreedy(SearchStrategy):
    """Descend the unroll axis, pruning memory-bound regions early.

    For each memory target the strategy walks ``p`` from the deepest unroll
    downward.  The model's memory-cycle term (seconds to stream the physical
    traffic) falls with ``p`` — deeper unrolls make fewer passes — so as
    soon as a memory-bound trial is no faster than the incumbent best, every
    shallower unroll on that memory is provably worse and the region is
    pruned.  Within one unroll depth, ``V`` is scanned from widest down and
    abandoned once a trial goes memory-bound (wider vectorization cannot
    lower the memory floor).
    """

    name = "greedy"

    def __init__(self, max_v_steps: int = 3):
        if max_v_steps < 1:
            raise ValidationError(f"max_v_steps must be >= 1, got {max_v_steps}")
        self.max_v_steps = max_v_steps

    def run(self, study: "Study") -> None:
        space = study.space
        evaluator = study.evaluator
        # the memory-floor argument below is about *runtime*; with any other
        # primary objective (e.g. energy) the pruning would be unsound, so
        # fall back to the cap-guided scan without memory-bound cuts
        prune_memory_bound = evaluator.primary.name == "runtime"
        aux_names = [n for n in space.names if n not in ("memory", "V", "p")]
        aux_grids = [[(n, v) for v in space[n].values] for n in aux_names]
        for aux in itertools.product(*aux_grids):
            template = dict(aux)
            tiled = bool(template.get("tiled", False))
            # tiled blocks re-read less halo at shallower unrolls, so the
            # "floor only rises as p shrinks" argument holds untiled only
            can_prune = prune_memory_bound and not tiled
            best_score = math.inf
            for memory in space["memory"].values:
                for p in sorted(space["p"].values, reverse=True):
                    # the model bounds V for free: skip provably infeasible combos
                    v_cap = evaluator.vector_cap(memory, p)
                    vs = [v for v in space["V"].values if v <= v_cap]
                    if not vs:
                        continue
                    prune = False
                    for V in sorted(vs, reverse=True)[: self.max_v_steps]:
                        if p > evaluator.unroll_cap(V, tiled):
                            continue
                        config = dict(template, memory=memory, V=V, p=p)
                        result = study.ask(config)
                        if not result.feasible:
                            continue
                        was_best = result.score < best_score
                        best_score = min(best_score, result.score)
                        if result.memory_bound and can_prune:
                            # this score IS the memory floor for unroll p; the
                            # floor only rises as p shrinks, so once it stops
                            # improving, every shallower unroll is ruled out
                            if not was_best:
                                prune = True
                            break  # narrower V keeps the floor, loses compute
                    if prune:
                        break


#: strategy registry: name -> factory accepting (seed=..., **options)
def _make_exhaustive(seed: int = 0, **options) -> SearchStrategy:
    return ExhaustiveSearch(**options)


def _make_random(seed: int = 0, **options) -> SearchStrategy:
    return RandomSearch(seed=seed, **options)


def _make_annealing(seed: int = 0, **options) -> SearchStrategy:
    return SimulatedAnnealing(seed=seed, **options)


def _make_greedy(seed: int = 0, **options) -> SearchStrategy:
    return ModelGuidedGreedy(**options)


STRATEGIES = {
    "exhaustive": _make_exhaustive,
    "random": _make_random,
    "annealing": _make_annealing,
    "greedy": _make_greedy,
}


def strategy_by_name(name: str, seed: int = 0, **options) -> SearchStrategy:
    """Instantiate a registered strategy (e.g. ``"annealing"``)."""
    try:
        factory = STRATEGIES[name]
    except KeyError:
        raise ValidationError(
            f"unknown strategy {name!r}; available: {sorted(STRATEGIES)}"
        ) from None
    return factory(seed=seed, **options)
