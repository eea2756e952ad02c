"""The benchmark harness checks itself: names, determinism, span arithmetic, output shape.

Runs at ``--smoke`` sizes only; nothing here asserts on a time.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH_DIR))

import benchlib  # noqa: E402
import openloop  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

CONTRACT = benchlib.load_contract()
END_TO_END = {"setup_s": "s", "work_per_s": "1/s", "latency_ms": "ms", "peak_rss_mb": "MB"}


@pytest.fixture(scope="module")
def smoke():
    """Every workload at smoke size, untraced and traced, all started side by side.

    ``{(workload, trace): last stdout line}``; the traced runs use their own
    seed so the two runs of a workload never share an output directory.
    """
    procs = {
        (name, trace): subprocess.Popen(
            [sys.executable, str(BENCH_DIR / "run.py"), "--workload", name,
             "--seed", str(7 + trace), "--smoke", "--trace", str(trace)],
            cwd=benchlib.ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        for name in workloads.WORKLOADS
        for trace in (0, 1)
    }
    lines = {}
    for key, proc in procs.items():
        out, err = proc.communicate(timeout=300)
        assert proc.returncode == 0, f"{key}: exit {proc.returncode}\n{out}\n{err}"
        lines[key] = json.loads(out.strip().splitlines()[-1])
    return lines


def test_names_match_the_contract():
    assert [w["name"] for w in CONTRACT["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in CONTRACT["end_to_end"]} == END_TO_END
    assert CONTRACT["paths"] == ["bench"]
    names = [m["name"] for group in ("workloads", "end_to_end", "per_layer")
             for m in CONTRACT[group]]
    assert len(names) == len(set(names))
    for name in names:
        assert benchlib.NAME_RE.match(name), name
    bounds = {m["name"]: m["bound"] for m in CONTRACT["end_to_end"]}
    assert all(0 < bound <= 0.25 for bound in bounds.values()), bounds
    assert bounds["setup_s"] == max(bounds.values())


def test_same_seed_same_arrival_schedule():
    population = workloads.ServeOpen.POPULATION
    rate = workloads.ServeOpen.RATE
    first = openloop.arrival_schedule(5, 100, rate, population)
    assert first == openloop.arrival_schedule(5, 100, rate, population)
    assert first != openloop.arrival_schedule(6, 100, rate, population)
    dues = [due for due, _ in first]
    assert dues == sorted(dues) and dues[0] > 0
    # every seed offers the same rate over the same span, and the same jobs
    assert dues[-1] == pytest.approx(100 / rate)
    specs = sorted(spec for _, spec in first)
    assert specs == sorted(population[i % len(population)] for i in range(100))


def test_same_seed_same_inputs(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_NATIVE_CACHE_DIR", str(tmp_path))

    def fields(seed):
        wl = workloads.StreamJacobi3D(seed, smoke=True)
        wl.setup()
        return wl.fields["U"].data

    assert np.array_equal(fields(3), fields(3))
    assert not np.array_equal(fields(3), fields(4))


def test_span_self_time_arithmetic():
    tracer = benchlib.Tracer()
    root = tracer.add("op", 0.0, 10.0, op=0)
    a = tracer.add("layer.a", 1.0, 3.0, parent=root, op=0)
    tracer.add("layer.b", 2.0, 5.0, parent=root, op=0)     # overlaps a: union is [1, 5]
    tracer.add("layer.c", 7.0, 12.0, parent=root, op=0)    # clipped to the parent: [7, 10]
    tracer.add("layer.a.inner", 1.5, 2.0, parent=a, op=0)
    selfs = tracer.self_times()
    assert selfs[root] == pytest.approx(10.0 - 4.0 - 3.0)
    assert selfs[a] == pytest.approx(2.0 - 0.5)
    assert tracer.coverage() == pytest.approx(0.7)
    assert tracer.per_op("layer.a") == [pytest.approx(2.0)]

    nested = benchlib.Tracer()
    nested.op = 0
    with nested.span("op"):
        with nested.span("inner"):
            pass
    assert [s["parent"] for s in nested.spans] == [None, 0]
    nested.active = False
    with nested.span("ignored") as sid:
        assert sid is None
    assert len(nested.spans) == 2


def test_a_run_waits_out_a_busy_host(monkeypatch, tmp_path):
    readings = iter([0.020, 0.050, 0.045, 0.021, 0.050])
    monkeypatch.setattr(run, "probe_s", lambda: next(readings))
    monkeypatch.setattr(run.time, "sleep", lambda seconds: None)
    state = tmp_path / "host.json"
    # nothing to compare the first probe with: no wait
    assert run.wait_for_quiet(state)["host_probe_ms"] == pytest.approx(20.0)
    # 2.5 and 2.25 times the fastest seen is busy, 1.05 times is not
    assert run.wait_for_quiet(state)["host_probe_ms"] == pytest.approx(21.0)
    assert json.loads(state.read_text())["fastest_probe_s"] == 0.020
    # the checkout's waiting allowance is spent: a busy host is measured as it is
    monkeypatch.setattr(run, "WAIT_CHECKOUT_S", 0)
    assert run.wait_for_quiet(state)["host_probe_ms"] == pytest.approx(50.0)


def test_every_workload_prints_every_end_to_end_metric(smoke):
    for name in workloads.WORKLOADS:
        line = smoke[name, 0]
        assert line["smoke"] is True, name  # can never be read as a record
        assert line["correct"] is True and line["failed"] == 0, name
        assert line["attempted"] >= 1, name
        assert {k: v["unit"] for k, v in line["metrics"].items()} == END_TO_END, name
        assert all(v["value"] > 0 for v in line["metrics"].values()), name


def test_traced_run_prints_every_per_layer_metric(smoke):
    want = {m["name"]: m["unit"] for m in CONTRACT["per_layer"]}
    for name in workloads.WORKLOADS:
        line = smoke[name, 1]
        assert line["smoke"] is True and line["correct"] is True, name
        assert {k: v["unit"] for k, v in line["metrics"].items()} == want, name
        trace = json.loads(
            (BENCH_DIR / "out" / f"{name}-8" / "trace.json").read_text()
        )
        assert trace["workload"] == name and trace["spans"], name
