#!/usr/bin/env python3
"""Fail when the JIT hot-loop speedup regresses run-over-run.

Reads the ``BENCH_simulator.json`` trajectory that
``benchmarks/test_simulator_microbench.py`` appends to (CI restores the
previous run's file from the actions cache before the gate runs, so the
trajectory spans runs), picks the last two ``"gate": "jit"`` entries and
exits non-zero when the newest hot-loop speedup dropped by more than the
threshold relative to the previous one.

Intended for a *non-blocking* CI job: a regression reports loudly on the
run without gating merges (wall-clock measurements on shared runners are
too noisy to block on), while the absolute floors inside the pytest gate
still protect the headline numbers.

Usage::

    python tools/check_perf_regression.py [BENCH_simulator.json]
        [--threshold 0.2] [--gate jit] [--metric hot_loop]
        [--check GATE:METRIC ...]

``--check`` compares several gate/metric pairs in one invocation (e.g.
``--check jit:hot_loop --check memory_pricing:mem_loop``); the exit code
is non-zero when *any* pair regressed.  A missing file, an empty
document, or a trajectory without ``runs`` is never an error -- there is
simply nothing to compare yet.  Neither is a pair taken on different
hosts: when the two entries differ in, or lack, their core count
(``nproc``) or Python version, the pair is reported "not comparable" and
passes.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

#: Entry fields two runs must share (and record) to be compared.
HOST_FIELDS = ("nproc", "python")


def load_runs(path: Path) -> list:
    try:
        document = json.loads(path.read_text())
    except FileNotFoundError:
        return []
    except (ValueError, OSError) as error:
        print(f"warning: could not read {path}: {error}")
        return []
    runs = document.get("runs") if isinstance(document, dict) else None
    return runs if isinstance(runs, list) else []


def speedups(runs: list, gate: str, metric: str) -> list:
    values = []
    for run in runs:
        if not isinstance(run, dict) or run.get("gate") != gate:
            continue
        section = run.get(metric)
        if isinstance(section, dict) and isinstance(
                section.get("speedup"), (int, float)):
            # Newer entries carry the telemetry run id that ties a
            # measurement to its trace; older ones predate it.
            stamp = run.get("timestamp", "?")
            if run.get("run_id"):
                stamp = f"{stamp} run {run['run_id']}"
            host = tuple(run.get(field) for field in HOST_FIELDS)
            values.append((stamp, float(section["speedup"]), host))
    return values


def check_pair(runs: list, gate: str, metric: str, threshold: float) -> int:
    """Compare the last two entries of one gate/metric pair; 0 = fine."""
    values = speedups(runs, gate, metric)
    if len(values) < 2:
        print(f"{len(values)} {gate!r} run(s) in trajectory; "
              "nothing to compare yet")
        return 0
    (previous_stamp, previous, previous_host), (latest_stamp, latest, latest_host) = (
        values[-2], values[-1])
    if None in previous_host or previous_host != latest_host:
        print(f"{gate} {metric}: not comparable -- {'/'.join(HOST_FIELDS)} "
              f"{previous_host} ({previous_stamp}) vs {latest_host} ({latest_stamp})")
        return 0
    drop = (previous - latest) / previous if previous > 0 else 0.0
    print(f"{gate} {metric} speedup: "
          f"{previous:.2f}x ({previous_stamp}) -> {latest:.2f}x ({latest_stamp}) "
          f"[{-drop:+.1%}]")
    if drop > threshold:
        print(f"REGRESSION: {gate} {metric} speedup dropped {drop:.1%} "
              f"(> {threshold:.0%} threshold)")
        return 1
    print("within threshold")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="run-over-run perf regression check for the simulator "
                    "benchmark trajectory")
    parser.add_argument("trajectory", nargs="?", default="BENCH_simulator.json",
                        help="path to BENCH_simulator.json (default: ./)")
    parser.add_argument("--threshold", type=float, default=0.2, metavar="FRAC",
                        help="maximum tolerated fractional drop between the "
                             "last two runs (default: 0.2 = 20%%)")
    parser.add_argument("--gate", default="jit",
                        help="which gate's entries to compare (default: jit)")
    parser.add_argument("--metric", default="hot_loop",
                        help="which section's speedup to compare "
                             "(default: hot_loop)")
    parser.add_argument("--check", action="append", default=None,
                        metavar="GATE:METRIC",
                        help="compare this gate/metric pair; repeatable, "
                             "overrides --gate/--metric; non-zero exit when "
                             "any pair regressed")
    arguments = parser.parse_args(argv)

    pairs = []
    for item in arguments.check or []:
        gate, separator, metric = item.partition(":")
        if not separator or not gate or not metric:
            parser.error(f"--check expects GATE:METRIC, got {item!r}")
        pairs.append((gate, metric))
    if not pairs:
        pairs = [(arguments.gate, arguments.metric)]

    runs = load_runs(Path(arguments.trajectory))
    status = 0
    for gate, metric in pairs:
        status |= check_pair(runs, gate, metric, arguments.threshold)
    return status


if __name__ == "__main__":
    sys.exit(main())
