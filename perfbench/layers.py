"""The layer table of the traced run: what it wraps and what it derives.

Every span is named ``<layer>:<function>``.  A layer's self time is the
sum of its spans' self times, so the layers of one run partition its
wall time; whatever no layer claims stays with the ``body`` root span
(the search loop's own bookkeeping, the figure's table building).
Layer names follow ROADMAP aim 1's list.  The probes read results the
wrapped functions return -- launch results for simulated counts,
``format_module``/``format_function`` text for the duplicate-work shares
-- and run inside the tracer's own probe spans.
"""

from __future__ import annotations

import hashlib
import weakref
from collections import defaultdict
from typing import Dict, Tuple

from .tracer import PROBE, Tracer

#: Per-layer metrics and their units, in report order.
METRICS: Tuple[Tuple[str, str], ...] = (
    ("gevo.breed_s", "s"),
    ("gevo.invalid_share", "share"),
    ("apply.s", "s"),
    ("apply.calls_per_eval", "calls/eval"),
    ("apply.skipped_share", "share"),
    ("engine.waves", "count"),
    ("engine.hit_share", "share"),
    ("engine.fresh", "count"),
    ("engine.self_s", "s"),
    ("engine.plan_s", "s"),
    ("engine.grouped_share", "share"),
    ("engine.duplicate_program_share", "share"),
    ("cache.s", "s"),
    ("cache.flush_s", "s"),
    ("checkpoint.s", "s"),
    ("gpu.decode_s", "s"),
    ("gpu.decodes_per_eval", "decodes/eval"),
    ("gpu.decode_redundant_share", "share"),
    ("gpu.compile_s", "s"),
    ("gpu.launches", "count"),
    ("gpu.launch_self_s", "s"),
    ("gpu.sim_instructions", "count"),
    ("gpu.sim_cycles", "cycles"),
    ("gpu.host_ns_per_sim_inst", "ns"),
    ("batch.rows", "count"),
    ("batch.stacked_share", "share"),
    ("batch.s", "s"),
    ("workload.host_s", "s"),
    ("workload.validate_s", "s"),
    ("workload.heldout_s", "s"),
    ("setup.reference_s", "s"),
    ("analysis.minimize_s", "s"),
    ("analysis.separate_s", "s"),
    ("analysis.subsets_s", "s"),
    ("trace.overhead_share", "share"),
    ("trace.coverage_share", "share"),
)

#: Metrics that must read the same in every traced run of one seed.
DETERMINISTIC = ("engine.fresh", "gevo.invalid_share", "gpu.sim_instructions",
                 "gpu.sim_cycles", "gpu.launches", "batch.rows",
                 "engine.duplicate_program_share", "gpu.decodes_per_eval")

_ADAPTER_SPANS = ("workload.host:evaluate", "workload.host:evaluate_batched")
_LAUNCH_SPAN = "gpu.launch:launch"


def _text_hash(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class Probes:
    """Result inspection for one traced run."""

    def __init__(self, tracer: Tracer):
        from repro.ir.printer import format_function, format_module

        self.tracer = tracer
        self._format_function = format_function
        self._format_module = format_module
        #: Last decoding handed out per function; a different object
        #: means the call decoded afresh.
        self._last_decoding: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()
        self._decoded_texts = set()
        self._program_texts = set()

    def applied(self, args, kwargs, genome, index) -> None:
        self.tracer.count("apply.edits", len(genome.applied) + len(genome.skipped))
        self.tracer.count("apply.skipped", len(genome.skipped))

    def planned(self, args, kwargs, plan, index) -> None:
        groups, singles = plan
        self.tracer.count("plan.grouped", sum(len(group) for group in groups))

    def looked_up(self, args, kwargs, result, index) -> None:
        self.tracer.count("cache.misses" if result is None else "cache.hits")

    def decoded(self, args, kwargs, decoding, index) -> None:
        function = args[0]
        if self._last_decoding.get(function) is decoding:
            return
        self._last_decoding[function] = decoding
        self.tracer.count("decode.fresh")
        text = _text_hash(self._format_function(function))
        if text in self._decoded_texts:
            self.tracer.count("decode.redundant")
        self._decoded_texts.add(text)

    def launched(self, args, kwargs, result, index) -> None:
        self.tracer.count("sim.instructions", result.instructions_executed)
        self.tracer.count("sim.cycles", result.cycles)

    def launched_batch(self, args, kwargs, results, index) -> None:
        rows = len(results)
        solo = self.tracer.children(index, _LAUNCH_SPAN)
        self.tracer.count("batch.rows", rows)
        self.tracer.count("batch.stacked", max(0, rows - solo))
        if solo:
            return  # the nested solo launches counted themselves
        for result in results:
            if not isinstance(result, Exception):
                self.launched(args, kwargs, result, index)

    def simulated(self, args, kwargs, result, index) -> None:
        if not self._nested_in_adapter(index):
            self._note_program(args[1])

    def simulated_batch(self, args, kwargs, results, index) -> None:
        if not self._nested_in_adapter(index):
            for module in args[1]:
                self._note_program(module)

    def _note_program(self, module) -> None:
        self.tracer.count("programs")
        text = _text_hash(self._format_module(module))
        if text in self._program_texts:
            self.tracer.count("programs.duplicate")
        self._program_texts.add(text)

    def _nested_in_adapter(self, index: int) -> bool:
        spans = self.tracer.spans
        parent = spans[index].parent
        while parent is not None:
            if spans[parent].name in _ADAPTER_SPANS:
                return True
            parent = spans[parent].parent
        return False


def install(tracer: Tracer) -> Probes:
    """Wrap every layer's public functions; undo with ``tracer.restore()``."""
    import repro.experiments.figure7 as figure7
    import repro.gevo.search as search
    import repro.gpu.batched as batched
    import repro.gpu.jitted as jitted
    import repro.gpu.simulator as simulator
    import repro.runtime.engine as engine
    import repro.workloads.adept.driver as adept_driver
    import repro.workloads.simcov.driver as simcov_driver
    from repro.runtime.cache import FitnessCache
    from repro.runtime.checkpoint import SearchCheckpoint

    probes = Probes(tracer)
    wrap = tracer.wrap
    for name in ("select_elites", "select_parents", "maybe_crossover", "maybe_mutate"):
        wrap(search, name, f"gevo.breed:{name}")
    wrap(engine, "apply_edits", "apply:engine", probes.applied)
    wrap(search, "apply_edits", "apply:search", probes.applied)
    wrap(engine.EvaluationEngine, "evaluate_many", "engine:evaluate_many")
    wrap(engine.BatchPlanner, "plan", "engine.plan:plan", probes.planned)
    wrap(FitnessCache, "get", "cache:get", probes.looked_up)
    wrap(FitnessCache, "put", "cache:put")
    wrap(FitnessCache, "maybe_save", "cache:maybe_save")
    wrap(FitnessCache, "save", "cache.flush:save")
    wrap(SearchCheckpoint, "save", "checkpoint:save")
    wrap(search.GevoSearch, "capture_checkpoint", "checkpoint:capture")
    wrap(jitted, "decode_function", "gpu.decode:jitted", probes.decoded)
    wrap(batched, "decode_function", "gpu.decode:batched", probes.decoded)
    wrap(jitted, "compile_segment", "gpu.compile:compile_segment")
    wrap(simulator, "jit_function", "gpu.compile:jit_function")
    wrap(simulator.GpuDevice, "launch", _LAUNCH_SPAN, probes.launched)
    wrap(simulator.GpuDevice, "launch_batched", "batch:launch_batched",
         probes.launched_batch)
    wrap(adept_driver.AdeptDriver, "run", "workload.host:adept_run")
    wrap(simcov_driver.SimCovDriver, "run", "workload.host:simcov_run")
    wrap(simcov_driver.SimCovDriver, "run_batched", "workload.host:simcov_run_batched")
    wrap(simcov_driver, "states_close", "workload.validate:states_close")
    for adapter in (adept_driver.AdeptWorkloadAdapter, simcov_driver.SimCovWorkloadAdapter):
        wrap(adapter, "evaluate", "workload.host:evaluate", probes.simulated)
        wrap(adapter, "validate", "workload.heldout:validate")
    wrap(simcov_driver.SimCovWorkloadAdapter, "evaluate_batched",
         "workload.host:evaluate_batched", probes.simulated_batch)
    wrap(figure7, "identify_weak_edits", "analysis.minimize:identify_weak_edits")
    wrap(figure7, "separate_edits", "analysis.separate:separate_edits")
    wrap(figure7, "exhaustive_subset_analysis", "analysis.subsets:exhaustive_subset_analysis")
    wrap(adept_driver, "batch_alignment_scores", "setup.reference:batch_alignment_scores")
    wrap(simcov_driver, "run_reference", "setup.reference:run_reference")
    return probes


def _share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def layer_table(tracer: Tracer, root: str = "body") -> Dict[str, Dict[str, float]]:
    """Per layer under *root*: ``calls``, ``seconds`` (inclusive) and ``self_seconds``."""
    layers: Dict[str, Dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "seconds": 0.0, "self_seconds": 0.0})
    for name, entry in tracer.totals(root).items():
        layer = layers[name.split(":")[0]]
        for field in layer:
            layer[field] += entry[field]
    return dict(layers)


def layer_metrics(tracer: Tracer, fresh: int, invalid_share: float) -> Dict[str, float]:
    """The per-layer metrics of one traced run, except ``trace.overhead_share``.

    *fresh* and *invalid_share* come from the workload's own outcome (they
    are deterministic and read the same untraced).  ``*_s`` metrics are
    layer self times, except ``workload.heldout_s`` and ``analysis.*_s``,
    which time their whole stage including the layers it calls.
    """
    spans = tracer.totals("body")
    layers = layer_table(tracer)
    setup = layer_table(tracer, "setup")
    counts = tracer.counters["body"]

    def self_s(layer: str) -> float:
        return layers.get(layer, {}).get("self_seconds", 0.0)

    def total_s(layer: str) -> float:
        return layers.get(layer, {}).get("seconds", 0.0)

    def calls(layer: str) -> float:
        return layers.get(layer, {}).get("calls", 0)

    body = layers["body"]
    probe_s = self_s(PROBE)
    traced_s = body["seconds"] - probe_s
    interpret_s = self_s("gpu.launch") + self_s("batch")
    breeding = calls("gevo.breed") > 0
    return {
        "gevo.breed_s": self_s("gevo.breed"),
        "gevo.invalid_share": invalid_share if breeding else 0.0,
        "apply.s": self_s("apply"),
        "apply.calls_per_eval": _share(calls("apply"), fresh),
        "apply.skipped_share": _share(counts["apply.skipped"], counts["apply.edits"]),
        "engine.waves": spans.get("engine:evaluate_many", {}).get("calls", 0),
        "engine.hit_share": _share(counts["cache.hits"],
                                   counts["cache.hits"] + counts["cache.misses"]),
        "engine.fresh": fresh,
        "engine.self_s": self_s("engine"),
        "engine.plan_s": self_s("engine.plan"),
        "engine.grouped_share": _share(counts["plan.grouped"], fresh),
        "engine.duplicate_program_share": _share(counts["programs.duplicate"],
                                                 counts["programs"]),
        "cache.s": self_s("cache"),
        "cache.flush_s": self_s("cache.flush"),
        "checkpoint.s": self_s("checkpoint"),
        "gpu.decode_s": self_s("gpu.decode"),
        "gpu.decodes_per_eval": _share(counts["decode.fresh"], fresh),
        "gpu.decode_redundant_share": _share(counts["decode.redundant"],
                                             counts["decode.fresh"]),
        "gpu.compile_s": self_s("gpu.compile"),
        "gpu.launches": calls("gpu.launch"),
        "gpu.launch_self_s": self_s("gpu.launch"),
        "gpu.sim_instructions": counts["sim.instructions"],
        "gpu.sim_cycles": counts["sim.cycles"],
        "gpu.host_ns_per_sim_inst": _share(interpret_s * 1e9, counts["sim.instructions"]),
        "batch.rows": counts["batch.rows"],
        "batch.stacked_share": _share(counts["batch.stacked"], counts["batch.rows"]),
        "batch.s": self_s("batch"),
        "workload.host_s": self_s("workload.host"),
        "workload.validate_s": self_s("workload.validate"),
        "workload.heldout_s": total_s("workload.heldout"),
        "setup.reference_s": setup.get("setup.reference", {}).get("seconds", 0.0),
        "analysis.minimize_s": total_s("analysis.minimize"),
        "analysis.separate_s": total_s("analysis.separate"),
        "analysis.subsets_s": total_s("analysis.subsets"),
        "trace.coverage_share": _share(traced_s - body["self_seconds"], traced_s),
    }
