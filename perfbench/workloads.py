"""The benchmark's workloads: set-up and body through the public entry points.

* ``gevo-adept`` -- ``repro search adept-v1`` with an in-memory cache;
* ``gevo-simcov`` -- ``repro search simcov --cache <fresh>.sqlite
  --resume <fresh>.ckpt``;
* ``figure7`` -- ``repro run figure7``.

Each workload splits into :func:`setup` (imports, adapter and CPU
reference results, opening the cache, a baseline evaluation on cold
decode/JIT caches) and :func:`body` (the search plus held-out validation
of its best variant, or the figure).  Both run in one fresh process per
repetition (see ``rep.py``).  The searches are built the way the CLI
builds them, with its telemetry handle and quiet console reporter.
Nothing in this module imports :mod:`repro` at import time.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional

WORKLOADS = ("gevo-adept", "gevo-simcov", "figure7")

#: Pinned search budgets (GEVO population x generations, the CLI's quick
#: configuration otherwise).  Changing them changes every number.
BUDGETS = {
    "gevo-adept": {"population": 12, "generations": 8},
    "gevo-simcov": {"population": 12, "generations": 8},
}

#: Simulated GPU every workload runs on.
ARCH = "P100"

#: Trap message of a variant stopped by the per-warp instruction budget.
RUNAWAY_MESSAGE = "instruction budget exceeded"

#: Evaluated variants that the correctness check re-runs on the oracle
#: tier besides the baseline (and, for a search, its best variant).
#: ``figure7`` draws its sample from every edit set the figure submitted.
ORACLE_SAMPLE = {"gevo-adept": 1, "gevo-simcov": 1, "figure7": 4}

#: GEVO seeds one untraced benchmark run cycles through (see ``gevo_seeds``).
SEEDS_PER_RUN = 4

_CLI_WORKLOAD = {"gevo-adept": "adept-v1", "gevo-simcov": "simcov"}

#: GEVO seeds the benchmark seed selects from, per search workload.  At
#: the pinned budget, trajectories differ in size by more than 10x across
#: GEVO seeds (one runaway-loop ADEPT variant simulates a million
#: instructions per warp and costs seconds), so a run's time would mostly
#: measure which seed it drew.  ``screen.py`` keeps the seeds whose
#: simulated work -- variants simulated, launches and simulated
#: instructions -- lies close to the median of a candidate range, which
#: makes one seed's run comparable with another's.
SEED_POOL: Dict[str, List[int]] = {
    # 34 of screen.py's 60 candidate seeds had no runaway variant; the
    # kept ones lie within 12% of the median work.  The other 26 (43 %)
    # are left out, so this workload never times the instruction-budget
    # trap path that real ``repro search adept-v1`` runs often take.
    "gevo-adept": [9, 13, 16, 18, 19, 22, 23, 33, 34, 35, 37, 39, 43, 44, 55, 59],
    # None of the 60 candidates had a runaway variant; the kept seeds lie
    # within 10% of the median work.
    "gevo-simcov": [1, 7, 8, 11, 15, 16, 17, 20, 21, 27, 30, 38, 40, 45, 51, 59],
}


def gevo_seeds(workload: str, seed: int) -> List[int]:
    """The GEVO seeds benchmark seed *seed* selects: ``SEEDS_PER_RUN``
    consecutive pool entries, starting at entry ``seed`` (wrapping around).

    The pool seeds still differ in work by about 15 %; averaging a run
    over several trajectories keeps that out of its times.  ``figure7``
    has no GEVO seed; its single entry is the benchmark seed itself.
    """
    pool = SEED_POOL.get(workload)
    if not pool:
        return [seed]
    return [pool[(seed + offset) % len(pool)] for offset in range(SEEDS_PER_RUN)]


@dataclass
class Outcome:
    """What one body produced: the deterministic outputs and the check inputs."""

    #: Distinct edit sets answered (the ``EvaluationLedger`` unit).
    evaluations: int
    #: Edit sets simulated by the engine (its cache misses).
    fresh: int
    best_speedup: float
    #: Share of the simulated edit sets that were invalid (GEVO outcome).
    invalid_share: float
    #: Simulated edit sets stopped by the per-warp instruction budget.
    runaway: int
    #: Digest of every (edit-set key, valid, runtime) the engine cached.
    digest: str
    #: Edit lists (``Edit.to_dict`` form) with the results the run reported.
    samples: List[Dict[str, object]] = field(default_factory=list)
    #: Figure rows (``figure7`` only), JSON-encoded.
    table: Optional[str] = None


class Workload:
    """One workload's state between :meth:`setup` and :meth:`body`."""

    def __init__(self, name: str, seed: int, scratch: str,
                 budget: Optional[Dict[str, int]] = None):
        if name not in WORKLOADS:
            raise ValueError(f"unknown workload {name!r}; expected one of {WORKLOADS}")
        self.name = name
        self.seed = seed
        self.scratch = scratch
        self.budget = dict(budget or BUDGETS.get(name, {}))
        self._state: Dict[str, object] = {}

    # -- set-up ----------------------------------------------------------------------
    def setup(self) -> None:
        if self.name == "figure7":
            self._setup_figure7()
        else:
            self._setup_search()

    def _setup_search(self) -> None:
        from repro.gevo import GevoConfig
        from repro.runtime import EvaluationEngine, FitnessCache, make_executor
        from repro.runtime.console import ConsoleReporter, configure_console
        from repro.runtime.telemetry import Telemetry

        configure_console(quiet=True)
        telemetry = Telemetry(None, enabled=True)
        telemetry.add_sink(ConsoleReporter())
        adapter = workload_adapter(self.name)
        config = GevoConfig.quick(seed=self.seed,
                                  population_size=self.budget["population"],
                                  generations=self.budget["generations"])
        cache_path = checkpoint_path = None
        if self.name == "gevo-simcov":
            cache_path = os.path.join(self.scratch, "fitness.sqlite")
            checkpoint_path = os.path.join(self.scratch, "search.ckpt")
        engine = EvaluationEngine(adapter, executor=make_executor(1, "auto"),
                                  cache=FitnessCache(cache_path),
                                  telemetry=telemetry)
        baseline = engine.baseline()
        self._state.update(adapter=adapter, config=config, engine=engine,
                           telemetry=telemetry, baseline=baseline,
                           checkpoint_path=checkpoint_path,
                           fresh_before=engine.evaluations)

    def _setup_figure7(self) -> None:
        import repro.experiments.figure7 as figure7_module

        adapter = workload_adapter(self.name)
        adapter.evaluate(adapter.original_module())
        self._state.update(adapter=adapter, module=figure7_module)

    # -- body ------------------------------------------------------------------------
    def body(self) -> None:
        if self.name == "figure7":
            self._body_figure7()
        else:
            self._body_search()

    def _body_search(self) -> None:
        from repro.gevo import GevoSearch

        state = self._state
        engine = state["engine"]
        search = GevoSearch(state["adapter"], state["config"], engine=engine)
        try:
            state["result"] = search.run(validate_best=True,
                                         checkpoint_path=state["checkpoint_path"],
                                         checkpoint_every=1)
        finally:
            engine.close()
        state["search"] = search

    def _body_figure7(self) -> None:
        state = self._state
        module = state["module"]
        engines = []
        submitted: Dict[str, list] = {}
        engine_class = module.EvaluationEngine

        class RecordingEngine(engine_class):
            """The figure's own engine, kept so its accounting and the edit
            sets submitted to it can be read after the figure."""

            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                engines.append(self)

            def evaluate_many(self, edit_sets):
                for edits in edit_sets:
                    submitted.setdefault(self.cache_key(edits).to_string(), list(edits))
                return super().evaluate_many(edit_sets)

        module.EvaluationEngine = RecordingEngine
        try:
            state["result"] = module.figure7(adapter=state["adapter"])
        finally:
            module.EvaluationEngine = engine_class
        state["engines"] = engines
        state["submitted"] = submitted

    # -- outputs (outside the timed window) ------------------------------------------
    def outcome(self) -> Outcome:
        if self.name == "figure7":
            return self._figure7_outcome()
        return self._search_outcome()

    def _search_outcome(self) -> Outcome:
        state = self._state
        engine, result = state["engine"], state["result"]
        baseline = state["baseline"]
        entries = engine.cache.export_entries()
        baseline_key = engine.cache_key([]).to_string()
        simulated = [payload for key, payload in entries.items() if key != baseline_key]
        invalid = sum(1 for payload in simulated if not payload["valid"])
        runaway = sum(1 for payload in simulated
                      if any(RUNAWAY_MESSAGE in case["message"] for case in payload["cases"]))
        samples = [_sample([], baseline)]
        if result.best is not None:
            samples.append(_sample(result.best.edits, engine.cache.peek(
                engine.cache_key(result.best.edits))))
        seen = {engine.cache_key(sample_edits).to_string()
                for sample_edits in ([], result.best_edits())}
        candidates = []
        # The last generation, through the search's checkpoint contract.
        for individual in state["search"].capture_checkpoint().restore_population():
            key = engine.cache_key(individual.edits).to_string()
            if key not in seen:
                seen.add(key)
                candidates.append(individual.edits)
        samples += _draw(engine, candidates, ORACLE_SAMPLE[self.name], self.seed)
        return Outcome(
            evaluations=result.evaluations,
            fresh=engine.evaluations - state["fresh_before"],
            best_speedup=result.speedup,
            invalid_share=invalid / len(simulated) if simulated else 0.0,
            runaway=runaway,
            digest=_digest(entries),
            samples=samples)

    def _figure7_outcome(self) -> Outcome:
        state = self._state
        engine = state["engines"][0]
        result = state["result"]
        graph = next(row for row in result.rows if row["stage"] == "dependency graph")
        baseline_key = engine.cache_key([]).to_string()
        others = [edits for key, edits in state["submitted"].items() if key != baseline_key]
        return Outcome(
            evaluations=len(engine.cache),
            fresh=engine.evaluations,
            best_speedup=1.0 / (1.0 - graph["best_improvement"]),
            invalid_share=0.0,
            runaway=0,
            digest=_digest(engine.cache.export_entries()),
            samples=[_sample([], engine.cache.peek(engine.cache_key([])))]
            + _draw(engine, others, ORACLE_SAMPLE[self.name], self.seed),
            table=figure_table(result))


def workload_adapter(workload: str, interpreter_tier: Optional[str] = None):
    """The adapter ``repro search`` (or ``repro run figure7``) builds."""
    from repro.gpu import get_arch
    from repro.runtime.sweep import make_adapter
    from repro.workloads.adept import AdeptWorkloadAdapter

    if workload == "figure7":
        arch = get_arch(ARCH)
        if interpreter_tier is not None:
            arch = arch.with_overrides(fast_path=interpreter_tier)
        return AdeptWorkloadAdapter("v1", arch)
    return make_adapter(_CLI_WORKLOAD[workload], ARCH, interpreter_tier=interpreter_tier)


def finite_or_none(value: float):
    """JSON has no infinity; invalid variants report ``None`` runtimes."""
    return value if math.isfinite(value) else None


def _sample(edits, fitness) -> Dict[str, object]:
    return {"edits": [edit.to_dict() for edit in edits],
            "valid": bool(fitness.valid),
            "runtime_ms": finite_or_none(fitness.runtime_ms)}


def _draw(engine, edit_sets, count: int, seed: int) -> List[Dict[str, object]]:
    """A *seed*-determined sample of *count* of *edit_sets*, with the
    results *engine* cached for them."""
    chosen = random.Random(seed).sample(edit_sets, min(count, len(edit_sets)))
    return [_sample(edits, engine.cache.peek(engine.cache_key(edits))) for edits in chosen]


def _digest(entries: Dict[str, Dict[str, object]]) -> str:
    summary = sorted((key, bool(payload["valid"]), finite_or_none(payload["runtime_ms"]))
                     for key, payload in entries.items())
    return hashlib.sha256(json.dumps(summary).encode("utf-8")).hexdigest()[:16]


def figure_table(result) -> str:
    """The figure's rows in a canonical JSON form (compared across tiers)."""
    return json.dumps(result.rows, sort_keys=True)
