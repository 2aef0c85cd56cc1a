"""Command-line interface for the reproduction.

Sub-commands::

    python -m repro.cli list                     # show available experiments
    python -m repro.cli run figure5              # regenerate one table / figure
    python -m repro.cli run figure5 --arch P100  # restrict to one GPU where supported
    python -m repro.cli search toy --generations 8   # run a small live GEVO search
    python -m repro.cli baseline random toy          # run a search baseline
    python -m repro.cli baseline hill toy --steps 40
    python -m repro.cli sweep --arch P100,V100 --workload toy --runs 3

Searches, baselines and sweeps run through the evaluation runtime
(:mod:`repro.runtime`); the shared runtime flags (``--jobs``,
``--cache``, ``--resume``, ``--checkpoint-every``,
``--interpreter-tier``, ...) are documented in the README's CLI
reference and in ``docs/runtime.md``.

The experiment identifiers match the benchmark harness, so the CLI is
simply another front end over :mod:`repro.experiments`.
"""

from __future__ import annotations

import argparse
import inspect
import json
import os
import sys
from typing import List, Optional

from .errors import ReproError
from .experiments import available_experiments, get_experiment
from .gevo import GevoConfig
from .gpu import EVALUATION_ORDER, available_archs, parse_arch_list
from .runtime import FitnessCache
from .runtime.console import ConsoleReporter, configure_console, console_logger
from .runtime.sweep import (
    METHOD_CHOICES,
    WORKLOAD_CHOICES,
    SweepSpec,
    make_adapter,
    resolve_workload,
    run_search,
    run_sweep,
)
from .runtime.telemetry import Telemetry
from .runtime.trace_format import summarize_trace

#: The line a search or baseline command opens with, per algorithm,
#: rendered from the ``search.start`` event (which carries the budget
#: the search actually runs, a resumed hill climb's included).
_START_LINES = {
    "gevo": "searching {workload}: population={population_size}, "
            "generations={generations}, executor={executor}",
    "random_search": "random search on {workload}: budget={budget}, executor={executor}",
    "hill_climber": "hill climbing on {workload}: budget={budget}, executor={executor}",
}

_log = console_logger("cli")


def _render_start_line(event) -> None:
    """Telemetry sink: print a search's opening line from ``search.start``."""
    if event.name == "search.start":
        _log.info(_START_LINES[event.fields["algorithm"]].format(**event.fields))


def _add_engine_arguments(parser: argparse.ArgumentParser) -> None:
    """Flags shared by every subcommand that evaluates fitness."""
    parser.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="evaluate each generation across N worker processes (0 = all "
             "cores); 1 (the default) evaluates serially in-process")
    parser.add_argument(
        "--cache", default=None, metavar="PATH",
        help="persist the fitness cache to the SQLite file PATH (a JSON "
             "cache document there is imported once); re-runs hit the "
             "warm cache")
    parser.add_argument(
        "--interpreter-tier", choices=["auto", "jit", "oracle"],
        default="auto",
        help="which of the two bit-for-bit-equivalent simulator tiers to "
             "evaluate on: the exec-compiled segment JIT (the default) or "
             "the tree-walking reference oracle (several times slower; for "
             "checking the JIT)")
    batching = parser.add_mutually_exclusive_group()
    batching.add_argument(
        "--batch-launches", dest="batch_launches", action="store_true",
        default=None,
        help="stack co-batchable candidates (same structural JIT key) of a "
             "generation into one (N, lanes) NumPy launch; bit-for-bit "
             "equivalent to per-candidate launches (default: on for serial "
             "execution, off when --jobs fans out to a process pool)")
    batching.add_argument(
        "--no-batch-launches", dest="batch_launches", action="store_false",
        help="force per-candidate launches even under serial execution")
    parser.add_argument(
        "--trace", default=None, metavar="DIR",
        help="record a structured telemetry trace under DIR: events.jsonl "
             "(engine batches, executor dispatch/faults, per-generation "
             "search progress) plus metrics.json; inspect with "
             "'repro trace summarize DIR'")
    parser.add_argument(
        "--metrics", action="store_true",
        help="print the metrics snapshot (counters/gauges/histograms) as "
             "JSON when the command finishes")
    parser.add_argument(
        "--quiet", action="store_true",
        help="suppress progress lines; only warnings and errors")
    parser.add_argument(
        "--verbose", action="store_true",
        help="also show per-generation / per-step search progress")


def _add_runtime_arguments(parser: argparse.ArgumentParser) -> None:
    """Engine flags plus single-search checkpoint/resume."""
    _add_engine_arguments(parser)
    parser.add_argument(
        "--resume", default=None, metavar="PATH",
        help="checkpoint the search to PATH; if PATH exists, resume from it "
             "instead of starting over")
    parser.add_argument(
        "--checkpoint-every", type=int, default=None, metavar="G",
        help="with --resume, write the checkpoint every G rounds (default: "
             "every generation/sampling wave; for the hill climber, whose "
             "rounds are single evaluations, every population-size steps)")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Understanding the Power of Evolutionary Computation "
                    "for GPU Code Optimization' (IISWC 2022)",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    subparsers.add_parser("list", help="list the available experiments")

    run_parser = subparsers.add_parser("run", help="run one experiment and print its table")
    run_parser.add_argument("experiment", help="experiment identifier (see 'list')")
    run_parser.add_argument("--arch", choices=list(EVALUATION_ORDER), default=None,
                            help="restrict architecture-sweep experiments to one GPU")

    search_parser = subparsers.add_parser(
        "search", help="run a scaled-down live GEVO search on one workload")
    search_parser.add_argument("workload", choices=WORKLOAD_CHOICES)
    search_parser.add_argument("--arch", choices=list(available_archs()), default="P100")
    search_parser.add_argument("--population", type=int, default=12)
    search_parser.add_argument("--generations", type=int, default=8)
    search_parser.add_argument("--seed", type=int, default=0)
    _add_runtime_arguments(search_parser)

    baseline_parser = subparsers.add_parser(
        "baseline", help="run a non-evolutionary search baseline on one workload")
    baseline_parser.add_argument("method",
                                 choices=[m for m in METHOD_CHOICES if m != "gevo"],
                                 help="random sampling or first-improvement hill climbing")
    baseline_parser.add_argument("workload", choices=WORKLOAD_CHOICES)
    baseline_parser.add_argument("--arch", choices=list(available_archs()), default="P100")
    baseline_parser.add_argument("--population", type=int, default=12,
                                 help="budget factor (budget = population x generations)")
    baseline_parser.add_argument("--generations", type=int, default=8)
    baseline_parser.add_argument("--seed", type=int, default=0)
    baseline_parser.add_argument(
        "--steps", type=int, default=None, metavar="N",
        help="hill climber only: climb for exactly N steps instead of the "
             "population x generations budget")
    _add_runtime_arguments(baseline_parser)

    sweep_parser = subparsers.add_parser(
        "sweep", help="run a search grid (architectures x workloads x seeds) "
                      "and aggregate one report")
    sweep_parser.add_argument(
        "--arch", default=",".join(EVALUATION_ORDER), metavar="A,B,...",
        help="comma-separated architecture list (default: all paper GPUs)")
    sweep_parser.add_argument(
        "--workload", default="toy", metavar="W,X,...",
        help="comma-separated workload list (toy, adept[-v1], simcov)")
    sweep_parser.add_argument(
        "--seeds", default=None, metavar="S,T,...",
        help="comma-separated seed list (overrides --runs)")
    sweep_parser.add_argument(
        "--runs", type=int, default=1, metavar="N",
        help="run seeds 0..N-1 per (arch, workload) cell (default: 1)")
    sweep_parser.add_argument(
        "--method", choices=list(METHOD_CHOICES), default="gevo",
        help="search to run per leg: GEVO or a baseline (default: gevo)")
    sweep_parser.add_argument("--population", type=int, default=12)
    sweep_parser.add_argument("--generations", type=int, default=8)
    sweep_parser.add_argument(
        "--sweep-dir", default="sweep-out", metavar="DIR",
        help="directory holding per-leg checkpoints/results, the shared "
             "cache and the aggregated report (default: sweep-out)")
    sweep_parser.add_argument(
        "--resume", action="store_true",
        help="skip legs already completed in --sweep-dir and continue "
             "unfinished legs from their checkpoints (zero re-evaluations)")
    sweep_parser.add_argument(
        "--checkpoint-every", type=int, default=None, metavar="G",
        help="checkpoint each leg every G rounds (default: every round; "
             "the hill climber defaults to every population-size steps)")
    _add_engine_arguments(sweep_parser)

    trace_parser = subparsers.add_parser(
        "trace", help="inspect a telemetry trace directory recorded with --trace")
    trace_subparsers = trace_parser.add_subparsers(dest="trace_command",
                                                   required=True)
    summarize_parser = trace_subparsers.add_parser(
        "summarize", help="render phase timing, cache hit rate, evals/sec, "
                          "executor utilization and profiler hotspots")
    summarize_parser.add_argument(
        "trace_dir", metavar="DIR",
        help="trace directory (holds events.jsonl and metrics.json)")
    return parser


def _resolve_interpreter_tier(arguments: argparse.Namespace) -> Optional[str]:
    """The interpreter tier the flags select, or ``None`` for the default."""
    return None if arguments.interpreter_tier == "auto" else arguments.interpreter_tier


def _resolve_batch_launches(arguments: argparse.Namespace) -> Optional[bool]:
    """The population-batching switch, or ``None`` for the serial-only default.

    Batched launches run through the segment-JIT tier's stacked factories,
    so forcing them together with a slower per-candidate tier is a
    contradiction: rejected loudly (silently preferring one flag would make
    a debugging run measure the wrong interpreter).
    """
    batch = getattr(arguments, "batch_launches", None)
    if batch:
        tier = _resolve_interpreter_tier(arguments)
        if tier == "oracle":
            raise ReproError(
                f"--batch-launches stacks candidates through the segment-JIT "
                f"tier but --interpreter-tier {tier} pins per-candidate "
                "interpretation; drop one of the two flags")
    return batch


def _make_telemetry(arguments: argparse.Namespace) -> Telemetry:
    """The command's telemetry handle, with the console reporter attached.

    Always enabled for CLI runs: the console reporter renders progress
    from the event stream, so the events must flow even without
    ``--trace`` (no trace dir means no files are written -- and pool
    workers fall back to :data:`~repro.runtime.telemetry.NULL_TELEMETRY`,
    keeping the evaluation path un-instrumented).
    """
    configure_console(quiet=arguments.quiet, verbose=arguments.verbose)
    telemetry = Telemetry(arguments.trace, enabled=True)
    telemetry.add_sink(ConsoleReporter())
    return telemetry


def _finish_telemetry(arguments: argparse.Namespace, telemetry: Telemetry) -> None:
    """Merge/flush the trace and honour ``--metrics``."""
    telemetry.close()
    if arguments.metrics:
        print(json.dumps(telemetry.metrics_snapshot(), indent=2, sort_keys=True))
    if arguments.trace:
        _log.info(f"trace: {arguments.trace} (events.jsonl + metrics.json, "
                  f"run {telemetry.run_id})")


def _resume_from(arguments: argparse.Namespace) -> Optional[str]:
    """The --resume checkpoint to continue from: its path, if the file exists.

    The search validates it (algorithm, workload, --arch, configuration)
    and refuses a mismatch with a :class:`~repro.errors.SearchError`
    naming what differs.
    """
    if arguments.resume is not None and os.path.exists(arguments.resume):
        return arguments.resume
    return None


def _command_list() -> int:
    print("available experiments:")
    for name in available_experiments():
        print(f"  {name}")
    return 0


def _arch_arguments(experiment, arch: str) -> dict:
    """The keyword arguments that restrict *experiment* to the GPU *arch*.

    Architecture-sweep experiments take an ``architectures`` list, the
    single-GPU analyses an ``arch_name``; the rest run on no particular
    GPU and take neither.
    """
    parameters = inspect.signature(experiment).parameters
    if "architectures" in parameters:
        return {"architectures": [arch]}
    if "arch_name" in parameters:
        return {"arch_name": arch}
    return {}


def _command_run(arguments: argparse.Namespace) -> int:
    try:
        experiment = get_experiment(arguments.experiment)
    except KeyError as error:
        print(error, file=sys.stderr)
        return 2
    kwargs = {}
    if arguments.arch is not None:
        kwargs = _arch_arguments(experiment, arguments.arch)
    result = experiment(**kwargs)
    print(result.to_table())
    return 0


def _command_search(arguments: argparse.Namespace) -> int:
    """``repro search`` (GEVO) and ``repro baseline`` (random or hill)."""
    method = getattr(arguments, "method", "gevo")
    if method == "random" and arguments.steps is not None:
        print("error: --steps applies to the hill climber only; random search "
              "spends population x generations", file=sys.stderr)
        return 2
    telemetry = _make_telemetry(arguments)
    telemetry.add_sink(_render_start_line)
    adapter = make_adapter(arguments.workload, arguments.arch,
                           interpreter_tier=_resolve_interpreter_tier(arguments))
    config = GevoConfig.quick(seed=arguments.seed,
                              population_size=arguments.population,
                              generations=arguments.generations)
    if method == "gevo":
        options, label = {"validate_best": True}, f"search-{arguments.workload}"
    else:
        options = {"steps": arguments.steps} if method == "hill" else {}
        label = f"baseline-{method}-{arguments.workload}"
    cache = FitnessCache(arguments.cache)
    try:
        result, engine = run_search(
            method, adapter, config, cache, label=label, jobs=arguments.jobs,
            telemetry=telemetry, batch_launches=_resolve_batch_launches(arguments),
            checkpoint_path=arguments.resume,
            checkpoint_every=arguments.checkpoint_every,
            resume_from=_resume_from(arguments), **options)
        engine.record_stats_metrics()
    finally:
        cache.close()
    tallies = (f"{result.accepted_edits} accepted / {result.rejected_edits} rejected, "
               if method == "hill" else "")
    _log.info(f"best speedup: {result.speedup:.3f}x with {len(result.best_edits())} edits "
              f"({tallies}{result.evaluations} evaluations, "
              f"{result.wall_clock_seconds:.1f}s)")
    _log.info(f"runtime: {engine.stats().summary()}")
    if result.validation is not None:
        _log.info(f"held-out validation: {'pass' if result.validation.valid else 'FAIL'}")
    if method == "gevo":
        for edit in result.best_edits():
            _log.info(f"  - {edit.describe(adapter.original_module())}")
    _finish_telemetry(arguments, telemetry)
    return 0


def _command_sweep(arguments: argparse.Namespace) -> int:
    telemetry = _make_telemetry(arguments)
    interpreter_tier = _resolve_interpreter_tier(arguments)
    batch_launches = _resolve_batch_launches(arguments)
    try:
        archs = parse_arch_list(arguments.arch)
        workloads = [resolve_workload(name.strip())
                     for name in arguments.workload.split(",") if name.strip()]
        if arguments.seeds is not None:
            seeds = [int(seed) for seed in arguments.seeds.split(",") if seed.strip()]
        else:
            seeds = list(range(max(1, arguments.runs)))
    except KeyError as error:
        print(f"error: {error.args[0]}", file=sys.stderr)
        return 2
    except ValueError as error:
        print(f"error: --seeds expects a comma-separated integer list ({error})",
              file=sys.stderr)
        return 2
    spec = SweepSpec(archs=archs, workloads=workloads, seeds=seeds,
                     method=arguments.method,
                     population=arguments.population,
                     generations=arguments.generations)
    _log.info(f"sweep: {len(spec.legs())} legs "
              f"({len(workloads)} workloads x {len(archs)} archs x {len(seeds)} seeds), "
              f"method={arguments.method}, jobs={arguments.jobs}"
              + (", resuming" if arguments.resume else ""))

    # Per-leg progress lines come from the console reporter rendering the
    # orchestrator's ``sweep.leg`` telemetry events -- no separate
    # narration callback to drift out of sync with the trace.
    report = run_sweep(
        spec, arguments.sweep_dir,
        resume=arguments.resume,
        jobs=arguments.jobs,
        cache_path=arguments.cache if arguments.cache else "auto",
        checkpoint_every=arguments.checkpoint_every,
        interpreter_tier=interpreter_tier,
        batch_launches=batch_launches,
        telemetry=telemetry,
    )
    _log.info("")
    _log.info(report.to_table())
    totals = report.totals()
    _log.info(f"\ntotals: {totals['completed']} legs run, {totals['skipped']} skipped, "
              f"{totals['fresh_evaluations']} fresh evaluations")
    json_path = os.path.join(arguments.sweep_dir, "report.json")
    _log.info(f"report: {json_path} (+ report.csv)")
    _finish_telemetry(arguments, telemetry)
    return 0


def _command_trace(arguments: argparse.Namespace) -> int:
    trace_dir = arguments.trace_dir
    if not os.path.isdir(trace_dir):
        print(f"error: {trace_dir} is not a directory", file=sys.stderr)
        return 2
    summary = summarize_trace(trace_dir)
    if not summary.event_count:
        print(f"error: no trace events under {trace_dir} "
              "(expected events.jsonl or events-*.jsonl)", file=sys.stderr)
        return 2
    print(summary.render())
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point used by ``python -m repro.cli``."""
    arguments = _build_parser().parse_args(argv)
    if arguments.command == "list":
        return _command_list()
    if arguments.command == "run":
        return _command_run(arguments)
    if arguments.command == "trace":
        return _command_trace(arguments)
    try:
        if arguments.command == "sweep":
            return _command_sweep(arguments)
        return _command_search(arguments)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
