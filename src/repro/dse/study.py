"""Persistent, resumable exploration studies.

A :class:`Study` is the ledger of one exploration: every trial a strategy
proposes is evaluated (through the study's memoizing
:class:`~repro.dse.evaluate.Evaluator`), appended to an in-memory trial
list and — when the study has a path — journalled as one JSON line.  A
killed study resumes by replaying its journal into the evaluator's memo
table, so already-persisted trials are never evaluated again; the budget of
a resumed run is spent exclusively on new configurations.

Budgets count *new model evaluations*: replayed or duplicate proposals are
free, which is what makes ``--resume`` append useful work instead of
burning the budget re-proving old trials.
"""

from __future__ import annotations

import json
import math
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterator, Mapping, Sequence, TextIO

from repro.dse.evaluate import Evaluator, TrialResult
from repro.dse.pareto import ParetoFront
from repro.dse.space import ConfigKey, ParameterSpace, config_key
from repro.model.design import DesignPoint
from repro.model.tiling import TileDesign
from repro.util.errors import ReproError, ValidationError


class BudgetExhausted(ReproError):
    """Raised by :meth:`Study.ask` when the trial budget is spent."""


@dataclass(frozen=True)
class Trial:
    """One journalled evaluation."""

    number: int
    result: TrialResult
    replayed: bool = False

    @property
    def config(self) -> dict[str, Any]:
        return self.result.config

    @property
    def feasible(self) -> bool:
        return self.result.feasible

    @property
    def score(self) -> float:
        return self.result.score

    def value(self, name: str) -> float:
        """One raw objective value of this trial."""
        return self.result.value(name)


class Study:
    """A (possibly journalled) sequence of evaluated trials."""

    def __init__(
        self,
        space: ParameterSpace,
        evaluator: Evaluator,
        path: str | Path | None = None,
        resume: bool = False,
    ):
        self.space = space
        self.evaluator = evaluator
        self.path = Path(path) if path is not None else None
        self.trials: list[Trial] = []
        self._seen: dict[ConfigKey, Trial] = {}
        #: the feasible trials and the best of them, kept as trials arrive
        self._feasible: list[Trial] = []
        self._best: Trial | None = None
        #: trials replayed from the journal on resume
        self.replayed = 0
        self._budget: int | None = None
        self._spent = 0
        #: wall-clock seconds this process has spent inside :meth:`run`
        self.seconds = 0.0
        if self.path is not None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            if resume and self.path.exists():
                self._load()
            elif self.path.exists():
                # a fresh (non-resumed) study restarts its journal, but the
                # old trials may be hours of work: rotate, don't destroy
                self.path.replace(self.path.with_name(self.path.name + ".bak"))

    # -- budget -------------------------------------------------------------------
    @property
    def remaining(self) -> int | None:
        """New evaluations left in the current run (None: unbounded)."""
        if self._budget is None:
            return None
        return max(0, self._budget - self._spent)

    @property
    def exhausted(self) -> bool:
        """True when the current run's budget is spent."""
        return self.remaining == 0

    # -- evaluation ---------------------------------------------------------------
    def ask(self, config: Mapping[str, Any]) -> TrialResult:
        """Evaluate one configuration, recording it if new.

        Already-seen configurations are answered from the ledger for free;
        a new configuration raises :class:`BudgetExhausted` once the run's
        budget is spent.
        """
        key = config_key(config)
        seen = self._seen.get(key)
        if seen is not None:
            return seen.result
        if self.exhausted:
            raise BudgetExhausted(f"trial budget of {self._budget} is spent")
        result = self.evaluator.evaluate(config, key)
        with self._journal() as journal:
            self._record(result, key, journal)
        return result

    def ask_many(self, configs: Sequence[Mapping[str, Any]]) -> list[TrialResult]:
        """Evaluate a batch, spending budget only on new configs.

        The batch's new configurations go to the evaluator together (one
        :meth:`~repro.dse.evaluate.Evaluator.evaluate_many`, whose array
        pass covers its untiled single-board rows).

        Returns results for the configurations that were admitted (seen ones
        included); proposals beyond the remaining budget are dropped. The
        batch's new trials reach the journal through one handle, flushed when
        the batch ends.
        """
        admitted: list[ConfigKey] = []
        fresh: dict[ConfigKey, Mapping[str, Any]] = {}
        remaining = self.remaining
        for config in configs:
            key = config_key(config)
            if key not in self._seen and key not in fresh:
                if remaining is not None and len(fresh) >= remaining:
                    continue
                fresh[key] = config
            admitted.append(key)
        if fresh:
            results = self.evaluator.evaluate_many(list(fresh.values()), list(fresh))
            with self._journal() as journal:
                for key, result in zip(fresh, results):
                    self._record(result, key, journal)
        return [self._seen[key].result for key in admitted]

    def run(self, strategy: "SearchStrategy", trials: int | None = None) -> "Study":
        """Drive a strategy until it finishes or the budget is spent."""
        self._budget = trials
        self._spent = 0
        started = time.perf_counter()
        try:
            strategy.run(self)
        except BudgetExhausted:
            pass
        finally:
            self.seconds += time.perf_counter() - started
        return self

    # -- queries ------------------------------------------------------------------
    @property
    def evaluated(self) -> int:
        """Trials recorded by this process (excludes replayed ones)."""
        return len(self.trials) - self.replayed

    def feasible_trials(self) -> list[Trial]:
        """All feasible trials, in evaluation order."""
        return list(self._feasible)

    def best(self) -> Trial | None:
        """The feasible trial with the best primary-objective score (the
        first such trial on a tie)."""
        return self._best

    def top(self, n: int) -> list[Trial]:
        """The ``n`` best feasible trials by primary objective."""
        return sorted(self.feasible_trials(), key=lambda t: t.score)[: max(n, 0)]

    def pareto_front(self, objectives: Sequence | None = None) -> ParetoFront:
        """The Pareto front of all feasible trials (payload: the Trial).

        Defaults to the evaluator's full objective set; pass a subset to
        project the front onto fewer axes.
        """
        front = ParetoFront(objectives or self.evaluator.objectives)
        for trial in self.feasible_trials():
            front.add(trial.result.values, payload=trial)
        return front

    # -- journal ------------------------------------------------------------------
    def fingerprint(self) -> dict[str, Any]:
        """What this study evaluates; recorded in (and checked against) the journal.

        Replaying a journal recorded for a different program, mesh, device
        or objective set would silently rank stale numbers against fresh
        ones, so resume refuses on a mismatch.
        """
        ev = self.evaluator
        fp = {
            "program": ev.program.name,
            "mesh": list(ev.workload.mesh.shape),
            "niter": ev.workload.niter,
            "batch": ev.workload.batch,
            "device": ev.device.name,
            "objectives": [o.name for o in ev.objectives],
            "constraints": [c.name for c in ev.constraints],
            "traffic": ev.logical_bytes_per_cell_iter,
            "space": {p.name: list(p.values) for p in self.space.parameters},
        }
        # mix-scored studies additionally pin the whole workload population;
        # single-workload fingerprints are unchanged, so pre-mix journals
        # keep resuming
        if getattr(ev, "mix", None) is not None:
            fp["workloads"] = ev.mix.token()
        return fp

    @contextmanager
    def _journal(self) -> Iterator[TextIO | None]:
        """The journal opened for appending (None for an in-memory study).

        A new or empty journal gets the study header first. Closing the
        handle flushes it, so whoever holds it decides the durability grain:
        :meth:`ask` one trial, :meth:`ask_many` one batch.
        """
        if self.path is None:
            yield None
            return
        with self.path.open("a", encoding="utf-8") as fh:
            if fh.tell() == 0:
                fh.write(json.dumps({"study": self.fingerprint()}) + "\n")
            yield fh

    def _record(
        self, result: TrialResult, key: ConfigKey, journal: TextIO | None
    ) -> Trial:
        trial = Trial(len(self.trials), result)
        self._append(trial, key)
        self._spent += 1
        if journal is not None:
            journal.write(json.dumps(_trial_to_json(trial)) + "\n")
        return trial

    def _append(self, trial: Trial, key: ConfigKey) -> None:
        self.trials.append(trial)
        self._seen[key] = trial
        result = trial.result
        if result.feasible:
            self._feasible.append(trial)
            # strict, as min() is: the first of tied trials stays best
            if self._best is None or result.score < self._best.result.score:
                self._best = trial

    def _load(self) -> None:
        text = self.path.read_text(encoding="utf-8")
        if text and not text.endswith("\n"):
            # a run killed mid-write left a torn last line: end it, or the
            # next trial appended would be glued to it and lost as well
            with self.path.open("a", encoding="utf-8") as fh:
                fh.write("\n")
        for line in text.splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except ValueError:
                continue  # tolerate a line truncated by a killed run
            if isinstance(obj, dict) and "study" in obj:
                ours, theirs = self.fingerprint(), obj["study"]
                if theirs != ours:
                    diff = sorted(
                        k
                        for k in set(ours) | set(theirs)
                        if ours.get(k) != theirs.get(k)
                    )
                    raise ValidationError(
                        f"journal {self.path} was recorded for a different study "
                        f"(mismatched: {', '.join(diff)}); e.g. journal has "
                        f"{diff[0]}={theirs.get(diff[0])!r}, this study has "
                        f"{diff[0]}={ours.get(diff[0])!r}. Point --study at a "
                        "fresh path or drop --resume."
                    )
                continue
            try:
                result = _result_from_json(obj)
            except (ValueError, KeyError, TypeError):
                continue
            key = config_key(result.config)
            if key in self._seen:
                continue
            self._append(Trial(len(self.trials), result, replayed=True), key)
            self.replayed += 1
            self.evaluator.seed(result)


# --------------------------------------------------------------------------- #
# journal (de)serialization
# --------------------------------------------------------------------------- #
def _design_to_json(design: DesignPoint | None) -> dict | None:
    if design is None:
        return None
    return {
        "V": design.V,
        "p": design.p,
        "clock_mhz": design.clock_mhz,
        "memory": design.memory,
        "tile": list(design.tile.tile) if design.tile else None,
        "initiation_interval": design.initiation_interval,
    }


def _design_from_json(obj: dict | None) -> DesignPoint | None:
    if obj is None:
        return None
    tile = TileDesign(tuple(obj["tile"])) if obj.get("tile") else None
    return DesignPoint(
        V=obj["V"],
        p=obj["p"],
        clock_mhz=obj["clock_mhz"],
        memory=obj["memory"],
        tile=tile,
        initiation_interval=obj.get("initiation_interval", 1.0),
    )


def _trial_to_json(trial: Trial) -> dict:
    r = trial.result
    return {
        "number": trial.number,
        "config": r.config,
        "feasible": r.feasible,
        "values": r.values,
        "score": None if math.isinf(r.score) else r.score,
        "reason": r.reason,
        "memory_bound": r.memory_bound,
        "design": _design_to_json(r.design),
    }


def _result_from_json(obj: dict) -> TrialResult:
    score = obj.get("score")
    return TrialResult(
        config=dict(obj["config"]),
        feasible=bool(obj["feasible"]),
        design=_design_from_json(obj.get("design")),
        values={k: float(v) for k, v in obj.get("values", {}).items()},
        score=math.inf if score is None else float(score),
        reason=obj.get("reason", ""),
        memory_bound=bool(obj.get("memory_bound", False)),
    )
