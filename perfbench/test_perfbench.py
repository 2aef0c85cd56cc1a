"""Tests of the benchmark's tracer, layer wrappers and workloads."""

import argparse
import json
import os
import types

import pytest

from perfbench import layers, run
from perfbench.rep import _oracle, measure
from perfbench.tracer import PROBE, Tracer
from perfbench.workloads import WORKLOADS, Workload

BENCHMARK_JSON = os.path.join(os.path.dirname(os.path.dirname(__file__)), "BENCHMARK.json")


class FakeClock:
    """A clock the test advances by hand."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


def test_self_time_is_span_time_minus_child_spans():
    clock = FakeClock()
    tracer = Tracer(clock)
    with tracer.span("body"):
        clock.advance(1.0)
        with tracer.span("engine:evaluate_many"):
            clock.advance(2.0)
            with tracer.span("gpu.launch:launch"):
                clock.advance(4.0)
            with tracer.span("gpu.launch:launch"):
                clock.advance(8.0)
            clock.advance(16.0)
        with tracer.span("gevo.breed:maybe_mutate"):
            clock.advance(32.0)
    totals = tracer.totals("body")
    assert totals["body"] == {"calls": 1, "seconds": 63.0, "self_seconds": 1.0}
    assert totals["engine:evaluate_many"] == {"calls": 1, "seconds": 30.0,
                                              "self_seconds": 18.0}
    assert totals["gpu.launch:launch"] == {"calls": 2, "seconds": 12.0,
                                           "self_seconds": 12.0}
    assert totals["gevo.breed:maybe_mutate"]["self_seconds"] == 32.0
    assert sum(entry["self_seconds"] for entry in totals.values()) == 63.0
    assert layers.layer_table(tracer)["gpu.launch"]["self_seconds"] == 12.0


def test_wrappers_record_nesting_probes_and_restore_originals():
    clock = FakeClock()
    tracer = Tracer(clock)
    module = types.ModuleType("fake")

    def leaf(value):
        clock.advance(3.0)
        return value * 2

    class Device:
        def launch(self, value):
            clock.advance(1.0)
            return module.leaf(value)

    module.leaf = leaf
    originals = (leaf, vars(Device)["launch"])
    seen = []
    tracer.wrap(module, "leaf", "gpu.decode:leaf",
                lambda args, kwargs, result, index: seen.append(result))
    tracer.wrap(Device, "launch", "gpu.launch:launch")
    tracer.wrap(Device, "absent", "gpu.launch:absent")
    with tracer.span("body"):
        assert Device().launch(5) == 10
    assert seen == [10]
    assert tracer.missing == ["Device.absent"]
    totals = tracer.totals("body")
    assert totals["gpu.launch:launch"]["self_seconds"] == 1.0
    assert totals["gpu.decode:leaf"]["self_seconds"] == 3.0
    assert PROBE in totals
    tracer.restore()
    assert (module.leaf, vars(Device)["launch"]) == originals
    assert module.leaf is originals[0] and vars(Device)["launch"] is originals[1]
    assert not tracer.patched()


def test_install_restores_every_layer_attribute():
    tracer = Tracer()
    layers.install(tracer)
    patched = tracer.patched()
    assert len(patched) > 30 and not tracer.missing
    assert all(vars(owner)[attribute] is not original
               for owner, attribute, original in patched)
    tracer.restore()
    assert all(vars(owner)[attribute] is original
               for owner, attribute, original in patched)


def _benchmark_metric_names():
    with open(BENCHMARK_JSON, "r", encoding="utf-8") as handle:
        benchmark = json.load(handle)
    return ([metric["name"] for metric in benchmark["end_to_end"]],
            [metric["name"] for metric in benchmark["per_layer"]])


@pytest.mark.parametrize("name", [
    "gevo-adept",
    "gevo-simcov",
    pytest.param("figure7", marks=pytest.mark.slow),
])
def test_smoke_run_emits_every_benchmark_metric(name, tmp_path):
    assert name in WORKLOADS
    # The smallest budget at which GEVO seed 0 simulates new variants.
    smoke = {"population": 6, "generations": 2}
    reports = {}
    for traced in (False, True):
        scratch = tmp_path / str(traced)
        scratch.mkdir()
        reports[traced] = measure(Workload(name, 0, str(scratch), budget=smoke),
                                  traced=traced)
        reports[traced]["seed"] = 0
    plain, traced = [reports[False]], [reports[True]]
    assert traced[0]["restored"] and not traced[0]["missing"]
    for field in run.OUTCOME_FIELDS:
        assert plain[0]["outcome"][field] == traced[0]["outcome"][field]
    end_to_end = run._end_to_end(plain)
    per_layer = run._per_layer(plain, traced)
    end_to_end_names, per_layer_names = _benchmark_metric_names()
    assert set(end_to_end_names) == set(end_to_end)
    assert set(per_layer_names) == set(per_layer)
    assert per_layer["trace.coverage_share"] >= 0.9
    assert per_layer["engine.fresh"] == plain[0]["outcome"]["fresh"] > 0
    outcomes = tmp_path / "outcomes.json"
    outcomes.write_text(json.dumps([plain[0]["outcome"]]))
    # For figure7 this also regenerates the whole figure on the oracle tier.
    checked = _oracle(argparse.Namespace(workload=name, check=str(outcomes)))
    assert checked["checked"] >= 2 and checked["mismatches"] == []


def test_oracle_check_reports_a_differing_figure(tmp_path, monkeypatch):
    import repro.experiments.figure7 as figure7_module

    def tiny_figure(adapter):
        return types.SimpleNamespace(rows=[{"stage": "oracle"}])

    monkeypatch.setattr(figure7_module, "figure7", tiny_figure)
    outcome = {"samples": [], "table": json.dumps([{"stage": "reported"}])}
    outcomes = tmp_path / "outcomes.json"
    outcomes.write_text(json.dumps([outcome]))
    checked = _oracle(argparse.Namespace(workload="figure7", check=str(outcomes)))
    assert checked["checked"] == 1
    assert [mismatch["oracle"] for mismatch in checked["mismatches"]] == [[{"stage": "oracle"}]]
