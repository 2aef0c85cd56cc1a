"""A discarded variant is freed by reference counting alone.

Evaluating a variant and dropping it must leave nothing for the cyclic
collector: not its program, and -- for a variant that traps -- not the
trap's traceback, whose frames hold the launch's warp executors, warp
state and register arrays.  Until a full collection runs, such cycles
keep the dead programs of a long search alive.
"""

import gc
import math
import random

import pytest

from repro.gevo import EditGenerator, apply_edits
from repro.workloads import ToyWorkloadAdapter

VARIANTS = 16


@pytest.fixture(scope="module")
def toy_adapter():
    return ToyWorkloadAdapter(elements=64)


@pytest.mark.parametrize("workload", ["toy_adapter", "adept_v1_adapter",
                                      "simcov_adapter"])
def test_evaluated_variants_leave_no_cyclic_garbage(workload, request):
    adapter = request.getfixturevalue(workload)
    original = adapter.original_module()
    generator = EditGenerator(original, random.Random(0))
    variants = []
    while len(variants) < VARIANTS:
        edit = generator.random_edit()
        if edit is not None:
            variants.append([edit])
    adapter.evaluate(original)  # fills the caches that outlive every variant
    gc.collect()
    gc.disable()
    try:
        runtimes = [adapter.evaluate(apply_edits(original, edits).module).runtime_ms
                    for edits in variants]
        garbage = gc.collect()
    finally:
        gc.enable()
    assert any(math.isinf(runtime) for runtime in runtimes), "no variant trapped"
    assert garbage == 0
