"""Shared helpers for the benchmark harness.

Every benchmark regenerates one of the paper's tables or figures through
:mod:`repro.experiments` and prints the resulting table, so running::

    pytest benchmarks/ -m slow -s

reproduces the full evaluation section (at the scaled sizes each
experiment module documents; the experiment regenerations carry the
``slow`` marker, which the tier-1 default in ``pytest.ini`` deselects).  Heavy experiments
run exactly once per benchmark (``rounds=1``); the micro-benchmarks of
the simulator itself use normal pytest-benchmark statistics and stay in
tier-1, including the JIT's regression gates.
"""

from __future__ import annotations

import pytest


def run_once(benchmark, function, *args, **kwargs):
    """Run *function* exactly once under pytest-benchmark and return its result."""
    return benchmark.pedantic(function, args=args, kwargs=kwargs, rounds=1, iterations=1)


@pytest.fixture
def report():
    """Print an ExperimentResult table after the benchmark (visible with -s)."""

    def _print(result):
        print()
        print(result.to_table())
        return result

    return _print
