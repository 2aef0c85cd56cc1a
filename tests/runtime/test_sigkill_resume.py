"""SIGKILL-mid-run resume is bit-for-bit (strict; formerly a pinned xfail).

Historically this file held an ``xfail(strict=False)`` repro of the
known divergence: a hard SIGKILL could land between the persistent
cache's mid-round flush and the round's checkpoint, and the resumed run
then undercounted evaluations.  The fix (a search counts the distinct
edit sets it submitted, restored on resume from the checkpoint's
``results``, plus round-boundary checkpoints; see docs/known-issues.md)
makes resume exact from *every* crash point, so these are now strict
equivalence tests.

Two variants:

* **Deterministic** (tier-1): the child process arms
  ``REPRO_KILL_POINT`` and sends itself a real, uncatchable SIGKILL at a
  named point -- including ``engine.batch.cached``, the exact window of
  the original bug.  Complements the in-process battery in
  ``test_crash_resume.py`` with a whole-process, CLI-level check.
* **Nondeterministic** (slow tier): the original timer-based kill at
  whatever round the poll happens to land on, kept as a fuzzing
  backstop for windows nobody thought to name.
"""

import json
import os
import re
import signal
import subprocess
import sys
import time

import pytest

from repro.runtime.faultpoints import ENV_VAR

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
SRC = os.path.join(REPO_ROOT, "src")


def _command(checkpoint, cache, *, generations=10):
    return [sys.executable, "-m", "repro.cli", "search", "toy",
            "--population", "6", "--generations", str(generations),
            "--seed", "5", "--cache", cache, "--resume", checkpoint]


def _environment(kill_point=None):
    env = os.environ.copy()
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    env.pop(ENV_VAR, None)
    if kill_point is not None:
        env[ENV_VAR] = kill_point
    return env


def _outcome(stdout: str):
    match = re.search(r"best speedup: ([0-9.]+)x with (\d+) edits "
                      r"\((\d+) evaluations", stdout)
    assert match, f"unparseable search output:\n{stdout}"
    return float(match.group(1)), int(match.group(2)), int(match.group(3))


def _reference(tmp_path, *, generations=10):
    result = subprocess.run(
        _command(str(tmp_path / "reference-ckpt.json"),
                 str(tmp_path / "reference-cache.sqlite"),
                 generations=generations),
        capture_output=True, text=True, env=_environment(),
        cwd=REPO_ROOT, timeout=600)
    assert result.returncode == 0, result.stderr
    return _outcome(result.stdout)


# The three windows that matter: mid-round after scoring, right after the
# persistent cache flushed a batch the checkpoint has not seen yet (the
# root cause of the original divergence), and mid-checkpoint-write.
KILL_POINTS = ["search.round.scored:7", "engine.batch.cached:5",
               "checkpoint.save:3"]


def test_deterministic_sigkill_resume_matches_uninterrupted_run(tmp_path):
    expected = _reference(tmp_path)

    for kill_point in KILL_POINTS:
        label = kill_point.replace(":", "-").replace(".", "-")
        checkpoint = str(tmp_path / f"{label}-ckpt.json")
        cache = str(tmp_path / f"{label}-cache.sqlite")

        victim = subprocess.run(
            _command(checkpoint, cache), capture_output=True, text=True,
            env=_environment(kill_point), cwd=REPO_ROOT, timeout=600)
        assert victim.returncode == -signal.SIGKILL, (
            f"the run armed with {kill_point} was not SIGKILLed: "
            f"rc={victim.returncode}\n{victim.stderr}")

        resumed = subprocess.run(
            _command(checkpoint, cache), capture_output=True, text=True,
            env=_environment(), cwd=REPO_ROOT, timeout=600)
        assert resumed.returncode == 0, resumed.stderr
        assert "resuming from" in resumed.stdout
        assert _outcome(resumed.stdout) == expected, (
            f"resume diverged after SIGKILL at {kill_point}")


def _wait_for_generation(checkpoint: str, generation: int, timeout: float) -> bool:
    """Poll the checkpoint until its round counter reaches *generation*."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        try:
            with open(checkpoint, "r", encoding="utf-8") as handle:
                completed = json.load(handle).get("round", 0)
            if int(completed) >= generation:
                return True
        except (OSError, ValueError):
            pass
        time.sleep(0.05)
    return False


@pytest.mark.slow
def test_sigkill_mid_run_resume_matches_uninterrupted_run(tmp_path):
    expected = _reference(tmp_path, generations=300)

    checkpoint = str(tmp_path / "killed-ckpt.json")
    cache = str(tmp_path / "killed-cache.sqlite")
    victim = subprocess.Popen(
        _command(checkpoint, cache, generations=300),
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        env=_environment(), cwd=REPO_ROOT)
    try:
        # Let the run get well past the warm-up, then kill it hard,
        # mid-round with overwhelming probability.
        mid_run = _wait_for_generation(checkpoint, 60, timeout=240)
        if victim.poll() is None:
            victim.send_signal(signal.SIGKILL)
        victim.wait(timeout=60)
        assert mid_run, "the run never reached generation 60 before the timeout"
        assert victim.returncode != 0, "the run finished before it could be killed"
    finally:
        if victim.poll() is None:
            victim.kill()
            victim.wait(timeout=60)

    resumed = subprocess.run(
        _command(checkpoint, cache, generations=300),
        capture_output=True, text=True, env=_environment(),
        cwd=REPO_ROOT, timeout=600)
    assert resumed.returncode == 0, resumed.stderr
    assert "resuming from" in resumed.stdout
    assert _outcome(resumed.stdout) == expected
