"""Tests for mutation, crossover, selection, fitness harness and the search loop."""

import math
import random

import pytest

from repro.errors import SearchError
from repro.gevo import (
    EditGenerator,
    GevoConfig,
    GevoSearch,
    Individual,
    best_individual,
    maybe_crossover,
    maybe_mutate,
    mutate,
    one_point_crossover,
    rank_population,
    run_repeated_searches,
    seed_population,
    select_elites,
    tournament_select,
    uniform_crossover,
)
from repro.gevo.fitness import EditSetEvaluator
from repro.runtime import EvaluationEngine
from repro.workloads import ToyWorkloadAdapter, build_toy_kernel, toy_discovered_edits


@pytest.fixture(scope="module")
def toy_adapter():
    return ToyWorkloadAdapter(elements=128)


@pytest.fixture
def generator():
    kernel = build_toy_kernel()
    return EditGenerator(kernel.module, random.Random(1))


class TestConfig:
    def test_paper_presets(self):
        adept = GevoConfig.paper_adept()
        assert adept.population_size == 256 and adept.generations == 300
        simcov = GevoConfig.paper_simcov()
        assert simcov.generations == 130
        assert simcov.crossover_probability == 0.8
        assert simcov.mutation_probability == 0.3
        assert simcov.elitism == 4

    def test_invalid_configs_rejected(self):
        with pytest.raises(SearchError):
            GevoConfig(population_size=1)
        with pytest.raises(SearchError):
            GevoConfig(crossover_probability=1.5)
        with pytest.raises(SearchError):
            GevoConfig(elitism=1000)

    def test_with_returns_modified_copy(self):
        config = GevoConfig.quick(seed=1)
        other = config.with_(generations=3)
        assert other.generations == 3 and config.generations != 3


class TestMutation:
    def test_random_edit_generation(self, generator):
        edits = [generator.random_edit() for _ in range(50)]
        kinds = {edit.kind for edit in edits if edit is not None}
        assert len(kinds) >= 3  # several operator types get exercised

    def test_candidate_bias(self):
        kernel = build_toy_kernel()
        candidates = toy_discovered_edits(kernel)
        biased = EditGenerator(kernel.module, random.Random(2),
                               candidate_edits=candidates, candidate_probability=1.0)
        assert all(biased.random_edit() in candidates for _ in range(10))

    def test_mutate_grows_or_changes_genome(self, generator):
        config = GevoConfig.quick(seed=3)
        individual = Individual()
        child = mutate(individual, generator, config, random.Random(3))
        assert len(child.edits) >= 1
        assert individual.edits == []  # parent untouched

    def test_maybe_mutate_respects_probability(self, generator):
        config = GevoConfig.quick(seed=4).with_(mutation_probability=0.0)
        individual = Individual()
        child = maybe_mutate(individual, generator, config, random.Random(4))
        assert child.edits == []

    def test_max_edits_cap(self, generator):
        config = GevoConfig.quick(seed=5).with_(max_edits_per_individual=2)
        individual = Individual(edits=[generator.random_edit() for _ in range(4)])
        child = mutate(individual, generator, config, random.Random(5))
        assert len(child.edits) <= 2


class TestCrossover:
    def test_one_point_preserves_edit_multiset_size(self, generator):
        rng = random.Random(6)
        parent_a = Individual(edits=[generator.random_edit() for _ in range(4)])
        parent_b = Individual(edits=[generator.random_edit() for _ in range(3)])
        child_one, child_two = one_point_crossover(parent_a, parent_b, rng)
        assert len(child_one.edits) + len(child_two.edits) == 7

    def test_uniform_crossover_draws_from_union(self, generator):
        rng = random.Random(7)
        parent_a = Individual(edits=[generator.random_edit() for _ in range(3)])
        parent_b = Individual(edits=[generator.random_edit() for _ in range(3)])
        child_one, child_two = uniform_crossover(parent_a, parent_b, rng)
        union_keys = {e.key() for e in parent_a.edits + parent_b.edits}
        assert all(e.key() in union_keys for e in child_one.edits + child_two.edits)

    def test_maybe_crossover_can_be_disabled(self, generator):
        config = GevoConfig.quick(seed=8).with_(crossover_probability=0.0)
        parent_a = Individual(edits=[generator.random_edit()])
        parent_b = Individual(edits=[generator.random_edit()])
        child_one, child_two = maybe_crossover(parent_a, parent_b, config, random.Random(8))
        assert child_one.edit_keys() == parent_a.edit_keys()
        assert child_two.edit_keys() == parent_b.edit_keys()


class TestSelection:
    def _population(self):
        individuals = []
        for index, fitness in enumerate([3.0, 1.0, 2.0, None]):
            individual = Individual()
            if fitness is None:
                individual.mark_evaluated(None, False)
            else:
                individual.mark_evaluated(fitness, True)
            individuals.append(individual)
        return individuals

    def test_best_individual_ignores_invalid(self):
        population = self._population()
        assert best_individual(population).fitness == 1.0

    def test_rank_population_puts_invalid_last(self):
        ranked = rank_population(self._population())
        assert ranked[0].fitness == 1.0
        assert ranked[-1].valid is False

    def test_select_elites_copies(self):
        elites = select_elites(self._population(), 2)
        assert [e.fitness for e in elites] == [1.0, 2.0]

    def test_tournament_prefers_fitter(self):
        population = self._population()
        rng = random.Random(0)
        winners = [tournament_select(population, 4, rng).fitness for _ in range(10)]
        assert all(fitness == 1.0 for fitness in winners)


class TestFitnessHarness:
    def test_baseline_is_valid(self, toy_adapter):
        baseline = toy_adapter.baseline()
        assert baseline.valid
        assert math.isfinite(baseline.runtime_ms)

    def test_broken_variant_is_invalid(self, toy_adapter):
        from repro.gevo import InstructionDelete

        kernel = toy_adapter.kernel
        store_uid = next(inst.uid for inst in kernel.module.instructions()
                         if inst.opcode == "store")
        result = EvaluationEngine(toy_adapter).evaluate([InstructionDelete(store_uid)])
        assert not result.valid

    def test_edit_set_evaluator_fitness_and_failure(self, toy_adapter):
        edits = toy_discovered_edits(toy_adapter.kernel)
        evaluator = EditSetEvaluator(toy_adapter, edits)
        assert evaluator.fitness(edits) < evaluator.baseline_fitness()
        assert not evaluator.fails(edits)
        # cached: evaluating again must not re-run
        before = evaluator.evaluations
        evaluator.fitness(edits)
        assert evaluator.evaluations == before


class TestSearchLoop:
    def test_seed_population_is_unmodified_program(self):
        population = seed_population(4)
        assert all(len(individual.edits) == 0 for individual in population)

    def test_search_finds_toy_improvements(self, toy_adapter):
        config = GevoConfig.quick(seed=11, population_size=10, generations=6)
        result = GevoSearch(toy_adapter, config).run(validate_best=True)
        assert result.best is not None and result.best.valid
        assert result.speedup > 1.0
        assert result.history.generations() == 6
        assert result.validation is not None and result.validation.valid

    def test_history_records_discoveries(self, toy_adapter):
        config = GevoConfig.quick(seed=12, population_size=8, generations=5)
        candidates = toy_discovered_edits(toy_adapter.kernel)
        search = GevoSearch(toy_adapter, config, candidate_edits=candidates,
                            candidate_probability=0.8)
        result = search.run()
        discovered = [key for key in result.history.first_seen_in_best
                      if key in {edit.key() for edit in candidates}]
        assert discovered, "at least one recorded edit should enter the best individual"

    def test_repeated_searches_vary_by_seed(self, toy_adapter):
        config = GevoConfig.quick(seed=0, population_size=6, generations=3)
        results = run_repeated_searches(toy_adapter, config, runs=2, base_seed=40)
        assert len(results) == 2
        assert all(result.baseline.valid for result in results)

    def test_stagnation_limit_stops_early(self, toy_adapter):
        config = GevoConfig.quick(seed=13, population_size=6, generations=30).with_(
            stagnation_limit=2, mutation_probability=0.0, crossover_probability=0.0)
        result = GevoSearch(toy_adapter, config).run()
        assert result.history.generations() < 30
