"""Unit tests for study persistence, budgets and resume."""

import json

import pytest

from repro.arch.device import ALVEO_U280
from repro.dse.evaluate import Evaluator
from repro.dse.objectives import ENERGY, RUNTIME
from repro.dse.space import model_space
from repro.dse.strategies import ExhaustiveSearch, RandomSearch
from repro.dse.study import BudgetExhausted, Study
from repro.model.design import Workload


@pytest.fixture
def problem(jacobi_app):
    program = jacobi_app.program_on((64, 64, 64))
    workload = Workload(program.mesh, 100)
    space = model_space(program, ALVEO_U280, workload)

    def evaluator():
        return Evaluator(
            program, ALVEO_U280, workload, objectives=(RUNTIME, ENERGY)
        )

    return space, evaluator


class TestBudget:
    def test_ask_raises_when_spent(self, problem):
        space, evaluator = problem
        study = Study(space, evaluator())
        study._budget = 1
        study.ask(space.config_at(0))
        with pytest.raises(BudgetExhausted):
            study.ask(space.config_at(1))

    def test_seen_configs_are_free(self, problem):
        space, evaluator = problem
        study = Study(space, evaluator())
        study._budget = 1
        config = space.config_at(0)
        study.ask(config)
        study.ask(config)  # duplicate: no BudgetExhausted
        assert len(study.trials) == 1

    def test_ask_many_truncates_to_budget(self, problem):
        space, evaluator = problem
        study = Study(space, evaluator())
        study._budget = 3
        study.ask_many([space.config_at(i) for i in range(10)])
        assert len(study.trials) == 3


class TestQueries:
    def test_best_and_top_ordering(self, problem):
        space, evaluator = problem
        study = Study(space, evaluator()).run(RandomSearch(seed=0), trials=30)
        top = study.top(5)
        assert top[0].number == study.best().number
        scores = [t.score for t in top]
        assert scores == sorted(scores)

    def test_pareto_front_payloads_are_trials(self, problem):
        space, evaluator = problem
        study = Study(space, evaluator()).run(RandomSearch(seed=0), trials=30)
        front = study.pareto_front()
        assert len(front) >= 1
        for member in front:
            assert member.payload in study.trials

    def test_empty_study(self, problem):
        space, evaluator = problem
        study = Study(space, evaluator())
        assert study.best() is None
        assert study.top(3) == []
        assert len(study.pareto_front()) == 0


class TestJournal:
    def test_every_trial_is_one_json_line(self, problem, tmp_path):
        space, evaluator = problem
        path = tmp_path / "study.jsonl"
        study = Study(space, evaluator(), path=path)
        study.run(RandomSearch(seed=2), trials=12)
        header, *lines = path.read_text().splitlines()
        assert json.loads(header)["study"] == study.fingerprint()
        assert len(lines) == 12
        for line in lines:
            obj = json.loads(line)
            assert {"number", "config", "feasible", "values", "design"} <= set(obj)

    def test_resume_replays_without_reevaluating(self, problem, tmp_path):
        space, evaluator = problem
        path = tmp_path / "study.jsonl"
        Study(space, evaluator(), path=path).run(ExhaustiveSearch(), trials=25)

        ev = evaluator()
        resumed = Study(space, ev, path=path, resume=True)
        assert resumed.replayed == 25
        resumed.run(ExhaustiveSearch(), trials=25)
        # the exhaustive replay revisits the same grid prefix: all free
        assert ev.evaluations == 25  # only the NEW trials hit the model
        assert len(resumed.trials) == 50
        assert len(path.read_text().splitlines()) == 51  # header + 50 trials

    def test_resumed_scores_match_fresh_evaluation(self, problem, tmp_path):
        space, evaluator = problem
        path = tmp_path / "study.jsonl"
        first = Study(space, evaluator(), path=path)
        first.run(RandomSearch(seed=3), trials=10)

        resumed = Study(space, evaluator(), path=path, resume=True)
        fresh = Study(space, evaluator())
        for trial in resumed.trials:
            again = fresh.ask(trial.config)
            assert again.feasible == trial.feasible
            if trial.feasible:
                assert again.values == pytest.approx(trial.result.values)
                assert again.design == trial.result.design

    def test_fresh_study_rotates_stale_journal(self, problem, tmp_path):
        space, evaluator = problem
        path = tmp_path / "study.jsonl"
        Study(space, evaluator(), path=path).run(RandomSearch(seed=1), trials=5)
        old_contents = path.read_text()
        study = Study(space, evaluator(), path=path)  # resume NOT requested
        assert study.trials == []
        assert not path.exists()
        # the old trials are preserved, not destroyed
        assert (tmp_path / "study.jsonl.bak").read_text() == old_contents

    def test_journal_in_new_directory_is_created(self, problem, tmp_path):
        space, evaluator = problem
        path = tmp_path / "a" / "b" / "study.jsonl"
        study = Study(space, evaluator(), path=path)
        study.run(RandomSearch(seed=1), trials=2)
        assert len(path.read_text().splitlines()) == 3  # header + 2 trials

    def test_truncated_last_line_is_tolerated(self, problem, tmp_path):
        space, evaluator = problem
        path = tmp_path / "study.jsonl"
        Study(space, evaluator(), path=path).run(RandomSearch(seed=1), trials=5)
        with path.open("a") as fh:
            fh.write('{"number": 5, "config": {"mem')  # killed mid-write
        resumed = Study(space, evaluator(), path=path, resume=True)
        assert resumed.replayed == 5

    def test_a_batch_appends_through_one_handle(self, problem, tmp_path, monkeypatch):
        from pathlib import Path

        space, evaluator = problem
        opens = []
        real_open = Path.open

        def counting_open(self, *args, **kwargs):
            opens.append(self.name)
            return real_open(self, *args, **kwargs)

        monkeypatch.setattr(Path, "open", counting_open)
        path = tmp_path / "study.jsonl"
        study = Study(space, evaluator(), path=path)
        study.ask(space.config_at(space.size - 1))  # ask: durable per trial
        assert opens == ["study.jsonl"]
        study.run(ExhaustiveSearch(batch=16), trials=40)  # batches of 16, 16, 8
        assert opens == ["study.jsonl"] * 4
        assert len(real_open(path).read().splitlines()) == 42  # header + 41

    def test_killed_mid_batch_then_resumed(self, problem, tmp_path):
        """A process killed while a batch is being journalled loses that
        batch's unflushed lines and may tear one; resume keeps every whole
        line and the finished journal replays in full."""
        import os
        import subprocess
        import sys

        space, evaluator = problem
        path = tmp_path / "study.jsonl"
        child = f"""
import os
from repro.apps import jacobi3d_app
from repro.arch.device import ALVEO_U280
from repro.dse import ENERGY, RUNTIME, Evaluator, ExhaustiveSearch, Study, model_space
from repro.model.design import Workload

program = jacobi3d_app().program_on((64, 64, 64))
workload = Workload(program.mesh, 100)
space = model_space(program, ALVEO_U280, workload)
study = Study(
    space, Evaluator(program, ALVEO_U280, workload, objectives=(RUNTIME, ENERGY)),
    path={str(path)!r},
)
record = study._record

def killed_in_the_second_batch(result, key, journal):
    if len(study.trials) == 40:
        journal.write('{{"number": 40, "config": {{"mem')
        journal.flush()
        os._exit(9)
    return record(result, key, journal)

study._record = killed_in_the_second_batch
study.run(ExhaustiveSearch(batch=32))
"""
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        assert subprocess.run([sys.executable, "-c", child], env=env).returncode == 9
        assert not path.read_text().endswith("\n")  # torn mid-line

        resumed = Study(space, evaluator(), path=path, resume=True)
        assert resumed.replayed == 40  # batch one whole, eight flushed lines of batch two
        resumed.run(ExhaustiveSearch(batch=32))
        straight = Study(space, evaluator()).run(ExhaustiveSearch())
        assert [t.result for t in resumed.trials] == [t.result for t in straight.trials]
        # the torn line was ended, not glued to the next trial: nothing is lost twice
        again = Study(space, evaluator(), path=path, resume=True)
        assert again.replayed == len(straight.trials)

    def test_missing_journal_resume_starts_empty(self, problem, tmp_path):
        space, evaluator = problem
        study = Study(space, evaluator(), path=tmp_path / "nope.jsonl", resume=True)
        assert study.trials == []

    def test_resume_refuses_a_different_workload(self, problem, tmp_path, jacobi_app):
        from repro.util.errors import ValidationError

        space, evaluator = problem
        path = tmp_path / "study.jsonl"
        Study(space, evaluator(), path=path).run(RandomSearch(seed=1), trials=3)

        program = jacobi_app.program_on((32, 32, 32))  # not the journal's mesh
        other = Workload(program.mesh, 10)
        other_eval = Evaluator(program, ALVEO_U280, other, objectives=(RUNTIME, ENERGY))
        other_space = model_space(program, ALVEO_U280, other)
        with pytest.raises(ValidationError):
            Study(other_space, other_eval, path=path, resume=True)
