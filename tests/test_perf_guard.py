"""The run-over-run perf-regression guard reads the trajectory correctly."""

import json
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "tools"))

from check_perf_regression import main  # noqa: E402

#: Host facts an entry must record for the guard to compare it.
HOST = {"nproc": 2, "python": "3.11.7"}


def write_trajectory(path, speedups, gate="jit"):
    runs = [{**HOST, "gate": gate, "timestamp": f"t{i}",
             "hot_loop": {"speedup": value}}
            for i, value in enumerate(speedups)]
    path.write_text(json.dumps({"benchmark": "simulator_fast_path",
                                "runs": runs}))


def test_passes_with_fewer_than_two_runs(tmp_path, capsys):
    path = tmp_path / "bench.json"
    write_trajectory(path, [10.0])
    assert main([str(path)]) == 0
    assert "nothing to compare" in capsys.readouterr().out


def test_passes_when_within_threshold(tmp_path):
    path = tmp_path / "bench.json"
    write_trajectory(path, [10.0, 9.0])  # -10% < 20% threshold
    assert main([str(path)]) == 0


def test_fails_on_regression(tmp_path, capsys):
    path = tmp_path / "bench.json"
    write_trajectory(path, [10.0, 7.0])  # -30% > 20% threshold
    assert main([str(path)]) == 1
    assert "REGRESSION" in capsys.readouterr().out


def test_ignores_other_gates_and_improvements(tmp_path):
    path = tmp_path / "bench.json"
    runs = [
        {**HOST, "gate": "jit", "hot_loop": {"speedup": 10.0}},
        {**HOST, "gate": "dispatch", "hot_loop": {"speedup": 1.0}},  # not compared
        {**HOST, "gate": "jit", "hot_loop": {"speedup": 12.0}},      # improvement
    ]
    path.write_text(json.dumps({"runs": runs}))
    assert main([str(path)]) == 0


def test_missing_or_corrupt_file_is_not_an_error(tmp_path):
    assert main([str(tmp_path / "absent.json")]) == 0
    corrupt = tmp_path / "corrupt.json"
    corrupt.write_text("{nope")
    assert main([str(corrupt)]) == 0


def test_run_id_tagged_entries_are_compared_and_surfaced(tmp_path, capsys):
    # Entries written since the telemetry subsystem carry a run_id; the
    # guard must keep comparing them and name the run in its output.
    path = tmp_path / "bench.json"
    runs = [
        {**HOST, "gate": "jit", "timestamp": "t0", "hot_loop": {"speedup": 10.0}},
        {**HOST, "gate": "jit", "timestamp": "t1", "run_id": "20260808T000000-abcd1234",
         "hot_loop": {"speedup": 9.5}},
    ]
    path.write_text(json.dumps({"runs": runs}))
    assert main([str(path)]) == 0
    out = capsys.readouterr().out
    assert "run 20260808T000000-abcd1234" in out


def test_gate_is_unaffected_by_tracing_state(tmp_path):
    # The acceptance bar for the observability PR: a run measured with
    # tracing off must sit inside the same 20% guard band as before the
    # telemetry layer existed -- identical speedups trivially pass, and a
    # trace-induced slowdown beyond the band would fail.
    path = tmp_path / "bench.json"
    write_trajectory(path, [10.0, 10.0])
    assert main([str(path)]) == 0


def test_multi_check_compares_each_pair(tmp_path, capsys):
    path = tmp_path / "bench.json"
    runs = [
        {**HOST, "gate": "jit", "hot_loop": {"speedup": 10.0}},
        {**HOST, "gate": "memory_pricing", "mem_loop": {"speedup": 8.0}},
        {**HOST, "gate": "jit", "hot_loop": {"speedup": 9.5}},
        {**HOST, "gate": "memory_pricing", "mem_loop": {"speedup": 7.8}},
    ]
    path.write_text(json.dumps({"runs": runs}))
    assert main([str(path), "--check", "jit:hot_loop",
                 "--check", "memory_pricing:mem_loop"]) == 0
    out = capsys.readouterr().out
    assert "jit hot_loop" in out and "memory_pricing mem_loop" in out


def test_multi_check_fails_when_any_pair_regresses(tmp_path, capsys):
    path = tmp_path / "bench.json"
    runs = [
        {**HOST, "gate": "jit", "hot_loop": {"speedup": 10.0}},
        {**HOST, "gate": "memory_pricing", "mem_loop": {"speedup": 8.0}},
        {**HOST, "gate": "jit", "hot_loop": {"speedup": 10.0}},       # flat
        {**HOST, "gate": "memory_pricing", "mem_loop": {"speedup": 4.0}},  # -50%
    ]
    path.write_text(json.dumps({"runs": runs}))
    assert main([str(path), "--check", "jit:hot_loop",
                 "--check", "memory_pricing:mem_loop"]) == 1
    assert "REGRESSION: memory_pricing mem_loop" in capsys.readouterr().out


def test_empty_document_and_missing_runs_key_exit_cleanly(tmp_path, capsys):
    # An empty JSON object or a document without a "runs" list is a fresh
    # trajectory, not an error -- the guard must not traceback on it.
    empty = tmp_path / "empty.json"
    empty.write_text("{}")
    assert main([str(empty), "--check", "memory_pricing:mem_loop"]) == 0
    assert "nothing to compare" in capsys.readouterr().out
    no_runs = tmp_path / "no_runs.json"
    no_runs.write_text(json.dumps({"benchmark": "simulator_fast_path"}))
    assert main([str(no_runs)]) == 0
    empty_runs = tmp_path / "empty_runs.json"
    empty_runs.write_text(json.dumps({"runs": []}))
    assert main([str(empty_runs)]) == 0


@pytest.mark.parametrize("previous, latest", [
    (HOST, {**HOST, "nproc": 4}),                  # another core count
    (HOST, {**HOST, "python": "3.12.1"}),          # another Python
    ({"python": "3.11.7"}, HOST),                  # older entry without nproc
    (HOST, {"nproc": 2}),                          # entry without python
])
def test_entries_from_different_hosts_are_not_comparable(tmp_path, capsys,
                                                         previous, latest):
    # A 50% drop between entries that do not provably share a host is
    # reported, not failed: wall-clock ratios across hosts mean nothing.
    path = tmp_path / "bench.json"
    runs = [{**previous, "gate": "jit", "hot_loop": {"speedup": 10.0}},
            {**latest, "gate": "jit", "hot_loop": {"speedup": 5.0}}]
    path.write_text(json.dumps({"runs": runs}))
    assert main([str(path)]) == 0
    out = capsys.readouterr().out
    assert "not comparable" in out
    assert "REGRESSION" not in out
