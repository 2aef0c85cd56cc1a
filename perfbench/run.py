"""End-to-end benchmark of the GEVO reproduction.

    python3 perfbench/run.py --workload gevo-adept --seed 0 --seconds 25 --trace 0

Runs one workload (``gevo-adept``, ``gevo-simcov`` or ``figure7``, see
``workloads.py``; ``all`` runs the three in turn) for ``--seconds``
seconds as repeated fresh processes,
so every repetition starts on cold decode/JIT caches as one CLI
invocation does.  Repetitions run one after another.  With ``--trace 0``
they cycle through the GEVO seeds the benchmark seed selects and the
run reports the end-to-end metrics, timed on each seed's fastest
repetition; with ``--trace 1`` they alternate untraced and traced
repetitions of the first of those seeds and the run reports the
per-layer metrics of ``layers.py``.  Each seed (and mode) runs at least
``MIN_ROUNDS`` times, however short the window.  After the timed window
it checks the outputs: each GEVO seed's repetitions must agree on the
deterministic results, and the baseline, the best variant and a seeded
sample of evaluated variants (and, for ``figure7``, the whole figure)
must come out identical on the oracle interpreter tier.

Every metric is printed with its unit, followed by a stamp (command,
seed, commit, cores, Python/NumPy versions, run id) and, as the last
line, one JSON object ``{"correct", "attempted", "failed", "metrics"}``.
Results taken on different core counts are not comparable.  The exit
status is non-zero when a check fails or the repository is missing.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import uuid
from collections import defaultdict

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)

from perfbench.layers import DETERMINISTIC, METRICS as LAYER_METRICS  # noqa: E402
from perfbench.workloads import WORKLOADS, gevo_seeds  # noqa: E402

#: End-to-end metrics and units (``failed_share`` is the result's
#: ``failed``/``attempted`` pair).
END_TO_END = (("setup_s", "s"), ("run_s", "s"), ("evals_per_s", "1/s"),
              ("best_speedup", "x"), ("peak_rss_mb", "MB"))

#: Outputs every repetition of one GEVO seed must reproduce exactly.
OUTCOME_FIELDS = ("evaluations", "fresh", "best_speedup", "invalid_share",
                  "runaway", "digest", "table")

#: Times every entry of a run's plan runs, however short ``--seconds``
#: is: the determinism check compares repetitions of one GEVO seed.
MIN_ROUNDS = 2
#: Wall seconds past ``--seconds`` one invocation may take: the last
#: repetition started in the window and the oracle-tier checks.  A
#: repetition still running when they are up is stopped and counts as
#: failed.
CHECK_MARGIN_S = 100
SCRATCH = ".perfbench-tmp"


def run_child(workload: str, seed: int, mode: str, scratch: str, timeout: float,
              extra=()) -> dict:
    """One ``rep.py`` process; returns its report or raises RuntimeError."""
    command = [sys.executable, "-m", "perfbench.rep",
               "--workload", workload, "--seed", str(seed),
               "--mode", mode, "--scratch", scratch, *extra]
    environment = dict(os.environ)
    environment["PYTHONPATH"] = os.pathsep.join([os.path.join(ROOT, "src"), ROOT])
    try:
        process = subprocess.run(command, cwd=ROOT, env=environment,
                                 capture_output=True, text=True,
                                 timeout=max(1.0, timeout))
    except subprocess.TimeoutExpired as error:
        raise RuntimeError(f"{mode} repetition stopped after {error.timeout:.0f}s") from error
    lines = process.stdout.strip().splitlines()
    if process.returncode != 0 or not lines:
        tail = "\n".join(process.stderr.strip().splitlines()[-8:])
        raise RuntimeError(f"{mode} repetition exited {process.returncode}:\n{tail}")
    try:
        report = json.loads(lines[-1])
    except ValueError as error:
        raise RuntimeError(f"{mode} repetition printed no report: {lines[-1]!r}") from error
    report["seed"] = seed
    return report


def _fastest_per_seed(reports) -> list:
    """Each GEVO seed's fastest repetition (smallest ``run_s``).

    Other processes on the machine only ever slow a repetition down, in
    bursts of seconds, so the fastest of a seed's repetitions is the one
    they disturbed least.
    """
    by_seed = defaultdict(list)
    for report in reports:
        by_seed[report["seed"]].append(report)
    return [min(group, key=lambda report: report["run_s"]) for group in by_seed.values()]


def _source_digest() -> str:
    digest = hashlib.sha256()
    source = os.path.join(ROOT, "src", "repro")
    for directory, subdirectories, files in sorted(os.walk(source)):
        subdirectories.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(directory, name)
                digest.update(os.path.relpath(path, source).encode("utf-8"))
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()[:16]


def _git_commit():
    """HEAD of the checkout, or None outside a git work tree (never a
    repository further up the directory tree)."""
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None
    try:
        process = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                 capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return process.stdout.strip() if process.returncode == 0 else None


def _stamp(arguments, seeds, run_id: str) -> dict:
    import numpy

    return {
        "command": [os.path.basename(sys.executable)] + sys.argv,
        "workload": arguments.workload,
        "seed": arguments.seed,
        "gevo_seeds": seeds,
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
        "nproc": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "run_id": run_id,
    }


class Checks:
    """Attempted/failed accounting of one invocation."""

    def __init__(self, deadline: float):
        self.deadline = deadline
        self.attempted = 0
        self.failures = []

    def fail(self, message: str) -> None:
        self.failures.append(message)

    def remaining(self) -> float:
        return self.deadline - time.monotonic()


def _timed_window(arguments, seeds, scratch: str, checks: Checks):
    """Repetitions until the window closes; returns ``(plain, traced)``."""
    plan = ([(seeds[0], "plain"), (seeds[0], "traced")] if arguments.trace
            else [(seed, "plain") for seed in seeds])
    plain, traced = [], []
    window_end = time.monotonic() + arguments.seconds
    index = 0
    while time.monotonic() < window_end or index < MIN_ROUNDS * len(plan):
        seed, mode = plan[index % len(plan)]
        index += 1
        try:
            report = run_child(arguments.workload, seed, mode,
                               tempfile.mkdtemp(dir=scratch), checks.remaining())
        except RuntimeError as error:
            checks.attempted += 1
            checks.fail(str(error))
            break
        checks.attempted += report["outcome"]["evaluations"]
        (plain if mode == "plain" else traced).append(report)
    return plain, traced


def _check_determinism(reports, traced, checks: Checks) -> None:
    first = {}
    for report in reports:
        reference = first.setdefault(report["seed"], report["outcome"])
        differing = [name for name in OUTCOME_FIELDS
                     if report["outcome"][name] != reference[name]]
        if differing:
            checks.fail(f"GEVO seed {report['seed']}: repetitions disagree on "
                        f"{', '.join(differing)}")
    for report in traced:
        if not report["restored"]:
            checks.fail("a wrapped attribute was not restored after the traced run")
        if report["missing"]:
            checks.fail(f"layer functions not found: {', '.join(report['missing'])}")
        differing = [name for name in DETERMINISTIC
                     if report["layers"][name] != traced[0]["layers"][name]]
        if differing:
            checks.fail(f"traced repetitions disagree on {', '.join(differing)}")


def _check_oracle(arguments, reports, scratch: str, checks: Checks) -> None:
    """Re-run each GEVO seed's sampled variants (and the figure) on the oracle tier."""
    outcomes = {}
    for report in reports:
        outcomes.setdefault(report["seed"], report["outcome"])
    path = os.path.join(scratch, "outcomes.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(list(outcomes.values()), handle)
    try:
        report = run_child(arguments.workload, arguments.seed, "oracle", scratch,
                           checks.remaining(), ("--check", path))
    except RuntimeError as error:
        checks.attempted += 1
        checks.fail(str(error))
        return
    checks.attempted += report["checked"]
    for mismatch in report["mismatches"]:
        checks.fail(f"oracle tier disagrees: {json.dumps(mismatch)}")


def _end_to_end(plain) -> dict:
    """Times of each GEVO seed's fastest repetition, averaged over the
    seeds (their work differs, so each counts once)."""
    fastest = _fastest_per_seed(plain)
    run_s = statistics.fmean(report["run_s"] for report in fastest)
    return {
        # Set-up does the same work for every GEVO seed.
        "setup_s": min(report["setup_s"] for report in plain),
        "run_s": run_s,
        "evals_per_s": statistics.fmean(
            report["outcome"]["evaluations"] for report in fastest) / run_s,
        "best_speedup": statistics.fmean(
            report["outcome"]["best_speedup"] for report in fastest),
        "peak_rss_mb": statistics.median(report["peak_rss_mb"] for report in plain),
    }


def _per_layer(plain, traced) -> dict:
    """Medians over the traced repetitions (all of one GEVO seed)."""
    metrics = {name: statistics.median(report["layers"][name] for report in traced)
               for name, _ in LAYER_METRICS if name != "trace.overhead_share"}
    metrics["trace.overhead_share"] = _run_s(traced) / _run_s(plain) - 1.0
    return metrics


def _run_s(reports) -> float:
    return statistics.median(report["run_s"] for report in reports)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True,
                        help="one workload, or all of them one after another")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    arguments = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"error: no repro package under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    names = WORKLOADS if arguments.workload == "all" else (arguments.workload,)
    return max(benchmark(argparse.Namespace(**{**vars(arguments), "workload": name}))
               for name in names)


def benchmark(arguments) -> int:
    """Run one workload, print its metrics and result; the exit status."""
    seeds = gevo_seeds(arguments.workload, arguments.seed)
    run_id = uuid.uuid4().hex[:12]
    scratch = os.path.join(ROOT, SCRATCH, run_id)
    os.makedirs(scratch)
    checks = Checks(time.monotonic() + arguments.seconds + CHECK_MARGIN_S)
    try:
        plain, traced = _timed_window(arguments, seeds, scratch, checks)
        if plain:
            _check_determinism(plain + traced, traced, checks)
            _check_oracle(arguments, plain, scratch, checks)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            os.rmdir(os.path.join(ROOT, SCRATCH))
        except OSError:
            pass

    if not plain or (arguments.trace and not traced):
        for message in checks.failures:
            print(f"FAILED: {message}", file=sys.stderr)
        return 1
    units = dict(LAYER_METRICS) if arguments.trace else dict(END_TO_END)
    values = _per_layer(plain, traced) if arguments.trace else _end_to_end(plain)
    failed = len(checks.failures)
    attempted = max(1, checks.attempted)
    print(f"{arguments.workload} seed {arguments.seed} (GEVO seeds "
          f"{', '.join(map(str, sorted(set(report['seed'] for report in plain))))}): "
          f"{len(plain)} untraced" + (f" + {len(traced)} traced" if arguments.trace else "")
          + " repetitions")
    traced_s = _run_s(traced) if traced else 0.0
    if traced_s:
        print(f"  {'(traced run_s)':32s} {traced_s:14.6g} s")
    for name, value in values.items():
        share = (f"  {value / traced_s:7.2%} of traced run_s"
                 if traced_s and units[name] == "s" and not name.startswith("setup.") else "")
        print(f"  {name:32s} {value:14.6g} {units[name]}{share}")
    print(f"  {'failed_share':32s} {failed / attempted:14.6g} share")
    for message in checks.failures:
        print(f"FAILED: {message}")
    print("stamp: " + json.dumps(_stamp(arguments, seeds, run_id), sort_keys=True))
    result = {
        "correct": not checks.failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }
    print(json.dumps(result))
    return 0 if not checks.failures else 1


if __name__ == "__main__":
    raise SystemExit(main())
