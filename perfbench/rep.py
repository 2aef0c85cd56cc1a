"""One repetition of one workload, in a fresh process.

    python -m perfbench.rep --workload W --seed N --mode plain|traced --scratch DIR
    python -m perfbench.rep --workload W --seed N --mode oracle --scratch DIR --check FILE

``plain`` times set-up and body untraced; ``traced`` does the same with
the layer wrappers of ``layers.py`` installed (and removed again before
the process reports).  ``oracle`` re-evaluates the sampled variants of
*FILE* -- a JSON list of ``plain`` repetitions' outcomes -- on the oracle
interpreter tier, regenerates the figure there for ``figure7``, and
reports every mismatch.  The report is one JSON
object on the last line of standard output.  Run from the repository
root with ``src`` on ``PYTHONPATH``.
"""

import time

_START = time.perf_counter()

import argparse  # noqa: E402 - the clock starts before any import
import dataclasses  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402


def measure(workload, *, traced: bool) -> dict:
    """Set up and run *workload*; report timings and deterministic outputs.

    Set-up time counts from this module's import.
    """
    tracer = None
    if traced:
        from perfbench.layers import install
        from perfbench.tracer import Tracer

        tracer = Tracer()
        install(tracer)
    if tracer is None:
        workload.setup()
        body_start = time.perf_counter()
        workload.body()
        body_end = time.perf_counter()
    else:
        with tracer.span("setup"):
            workload.setup()
        with tracer.span("body") as body:
            workload.body()
        body_start, body_end = tracer.spans[body].start, tracer.spans[body].end
    report = {
        "setup_s": body_start - _START,
        "run_s": body_end - body_start,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        patched = tracer.patched()
        tracer.restore()
        report["restored"] = all(vars(owner)[attribute] is original
                                 for owner, attribute, original in patched)
        report["missing"] = tracer.missing
    outcome = workload.outcome()
    report["outcome"] = dataclasses.asdict(outcome)
    if tracer is not None:
        from perfbench.layers import layer_metrics

        report["layers"] = layer_metrics(tracer, outcome.fresh, outcome.invalid_share)
    return report


def _oracle(arguments) -> dict:
    """Re-run the reported variants (and, for ``figure7``, the whole
    figure) on the oracle tier; list the mismatches."""
    from perfbench.workloads import figure_table, finite_or_none, workload_adapter
    from repro.gevo.edits import edit_from_dict
    from repro.gevo.genome import apply_edits

    with open(arguments.check, "r", encoding="utf-8") as handle:
        outcomes = json.load(handle)
    mismatches = []
    adapter = workload_adapter(arguments.workload, interpreter_tier="oracle")
    original = adapter.original_module()
    samples = {json.dumps(sample, sort_keys=True): sample
               for outcome in outcomes for sample in outcome["samples"]}
    for sample in samples.values():
        edits = [edit_from_dict(data) for data in sample["edits"]]
        result = adapter.evaluate(apply_edits(original, edits).module)
        runtime = finite_or_none(result.runtime_ms)
        if result.valid != sample["valid"] or runtime != sample["runtime_ms"]:
            mismatches.append({"edits": len(edits), "reported": sample,
                               "oracle": {"valid": result.valid, "runtime_ms": runtime}})
    checked = len(samples)
    if arguments.workload == "figure7":
        from repro.experiments.figure7 import figure7

        table = figure_table(figure7(adapter=adapter))
        checked += 1
        if any(outcome["table"] != table for outcome in outcomes):
            mismatches.append({"figure": "rows differ from the oracle-tier regeneration",
                               "oracle": json.loads(table)})
    return {"checked": checked, "mismatches": mismatches}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("plain", "traced", "oracle"), required=True)
    parser.add_argument("--scratch", required=True)
    parser.add_argument("--check", default=None)
    arguments = parser.parse_args(argv)
    if arguments.mode == "oracle":
        report = _oracle(arguments)
    else:
        from perfbench.workloads import Workload

        report = measure(Workload(arguments.workload, arguments.seed, arguments.scratch),
                         traced=arguments.mode == "traced")
    sys.stdout.write(json.dumps(report) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
