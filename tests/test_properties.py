"""Property-based tests (hypothesis) on core data structures and invariants."""

import json
import math
import random

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.errors import EditError
from repro.gevo import EditGenerator, apply_edits
from repro.gevo.edits import InstructionDelete, OperandReplace, edit_from_dict
from repro.gpu import bank_conflicts, coalesced_transactions
from repro.gpu.rng import counter_uniform
from repro.ir import Const, Reg, as_value
from repro.ir.parser import parse_instruction
from repro.ir.printer import format_instruction, format_module
from repro.ir.verifier import verify_module
from repro.workloads import build_toy_kernel
from repro.workloads.adept import (
    ScoringScheme,
    alignment_score,
    build_adept_v1,
    wavefront_alignment_score,
)
from repro.workloads.simcov import build_simcov_kernels

# --------------------------------------------------------------------------- strategies
dna = st.text(alphabet="ACGT", min_size=1, max_size=16)
small_ints = st.integers(min_value=-1000, max_value=1000)


class TestRngProperties:
    @given(seed=small_ints, step=small_ints, salt=small_ints)
    def test_uniform_in_range_and_deterministic(self, seed, step, salt):
        first = counter_uniform(seed, step, salt)
        second = counter_uniform(seed, step, salt)
        assert 0.0 <= float(first) < 1.0
        assert float(first) == float(second)

    @given(seed=small_ints, step=small_ints)
    def test_different_salts_give_different_streams(self, seed, step):
        values = counter_uniform(seed, step, np.arange(64))
        assert len(np.unique(values)) > 32  # effectively no collisions


class TestSmithWatermanProperties:
    @given(a=dna, b=dna)
    @settings(max_examples=30, deadline=None)
    def test_score_bounds(self, a, b):
        score = alignment_score(a, b)
        assert 0 <= score <= 2 * min(len(a), len(b))

    @given(a=dna, b=dna)
    @settings(max_examples=20, deadline=None)
    def test_symmetry(self, a, b):
        assert alignment_score(a, b) == alignment_score(b, a)

    @given(a=dna, b=dna)
    @settings(max_examples=20, deadline=None)
    def test_wavefront_equivalence(self, a, b):
        assert wavefront_alignment_score(a, b) == alignment_score(a, b)

    @given(a=dna)
    @settings(max_examples=20, deadline=None)
    def test_self_alignment_is_perfect(self, a):
        assert alignment_score(a, a) == ScoringScheme().match * len(a)

    @given(a=dna, b=dna, extra=dna)
    @settings(max_examples=20, deadline=None)
    def test_extending_a_sequence_never_lowers_the_score(self, a, b, extra):
        assert alignment_score(a + extra, b) >= alignment_score(a, b)


class TestMemoryModelProperties:
    @given(st.lists(st.integers(min_value=0, max_value=10_000), min_size=1, max_size=32))
    def test_transactions_bounded_by_lanes(self, indices):
        transactions = coalesced_transactions(np.array(indices))
        assert 1 <= transactions <= len(indices)

    @given(st.lists(st.integers(min_value=0, max_value=10_000), min_size=1, max_size=32))
    def test_bank_conflicts_bounded(self, indices):
        conflicts = bank_conflicts(np.array(indices))
        assert 1 <= conflicts <= len(indices)

    @given(st.integers(min_value=0, max_value=2 ** 20))
    def test_single_access_is_one_transaction(self, index):
        assert coalesced_transactions(np.array([index])) == 1


class TestIrProperties:
    @given(st.integers() | st.floats(allow_nan=False, allow_infinity=False)
           | st.booleans() | st.text(alphabet="abcxyz", min_size=1, max_size=6))
    def test_as_value_total_on_supported_inputs(self, raw):
        value = as_value(raw)
        assert isinstance(value, (Reg, Const))

    @given(opcode=st.sampled_from(["add", "sub", "mul", "min", "max"]),
           lhs=small_ints, rhs=small_ints)
    def test_instruction_text_roundtrip(self, opcode, lhs, rhs):
        from repro.ir import Instruction

        inst = Instruction(opcode, dest="r", operands=[Const(lhs), Const(rhs)])
        assert parse_instruction(format_instruction(inst)).operands == inst.operands


class TestCanonicalKeyProperties:
    """The cache key is a pure function of the edit *multiset*.

    Algorithms 1 and 2 treat an edit collection as a multiset, so every
    permutation of an edit list must hash identically, while duplicating
    an edit (applying ``copy`` twice) must change the hash.
    """

    @staticmethod
    def _random_edits(seed, count):
        kernel = build_toy_kernel()
        generator = EditGenerator(kernel.module, random.Random(seed))
        return [edit for edit in (generator.random_edit() for _ in range(count))
                if edit is not None]

    @given(seed=st.integers(min_value=0, max_value=10_000),
           count=st.integers(min_value=1, max_value=12),
           shuffle_seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=30, deadline=None)
    def test_every_permutation_hashes_identically(self, seed, count, shuffle_seed):
        from repro.runtime import canonical_edit_hash, canonical_edit_key

        edits = self._random_edits(seed, count)
        permuted = list(edits)
        random.Random(shuffle_seed).shuffle(permuted)
        assert canonical_edit_key(permuted) == canonical_edit_key(edits)
        assert canonical_edit_hash(permuted) == canonical_edit_hash(edits)

    @given(seed=st.integers(min_value=0, max_value=10_000),
           count=st.integers(min_value=1, max_value=8),
           pick=st.integers(min_value=0, max_value=7))
    @settings(max_examples=30, deadline=None)
    def test_duplicating_an_edit_changes_the_hash(self, seed, count, pick):
        from repro.runtime import canonical_edit_hash

        edits = self._random_edits(seed, count)
        if not edits:
            return
        duplicated = edits + [edits[pick % len(edits)]]
        assert canonical_edit_hash(duplicated) != canonical_edit_hash(edits)

    @given(seed=st.integers(min_value=0, max_value=10_000),
           count=st.integers(min_value=1, max_value=10))
    @settings(max_examples=30, deadline=None)
    def test_hash_depends_only_on_edit_keys(self, seed, count):
        # Serialising and re-materialising the same edits gives the same
        # hash: nothing identity- or memory-address-dependent leaks in.
        from repro.gevo.edits import edit_from_dict
        from repro.runtime import canonical_edit_hash

        edits = self._random_edits(seed, count)
        rebuilt = [edit_from_dict(edit.to_dict()) for edit in edits]
        assert canonical_edit_hash(rebuilt) == canonical_edit_hash(edits)

    def test_json_and_sqlite_tiers_agree_on_keys(self, tmp_path):
        # A permuted edit list stored in a JSON cache document is found
        # under the SQLite tier after migration: both index by the same
        # canonical key.
        from repro.gevo.fitness import CaseResult, FitnessResult
        from repro.runtime import (
            CacheKey, FitnessCache, canonical_edit_hash, result_to_dict)
        from repro.runtime.cache import CACHE_FORMAT_VERSION

        edit_lists = [self._random_edits(seed, 6) for seed in range(8)]
        path = str(tmp_path / "cache.json")
        entries = {}
        for index, edits in enumerate(edit_lists):
            key = CacheKey("toy", "P100", canonical_edit_hash(edits))
            entries[key.to_string()] = result_to_dict(FitnessResult.from_cases(
                [CaseResult("c", True, float(index))]))
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"version": CACHE_FORMAT_VERSION, "entries": entries}, handle)

        sqlite_tier = FitnessCache(path)
        for index, edits in enumerate(edit_lists):
            permuted = list(edits)
            random.Random(index + 99).shuffle(permuted)
            key = CacheKey("toy", "P100", canonical_edit_hash(permuted))
            assert sqlite_tier.peek(key).runtime_ms == float(index)
        sqlite_tier.close()


class TestEditRobustness:
    """Random edit lists never corrupt the module's structural invariants.

    This mirrors the paper's observation that GEVO variants remain
    *executable* (they may be semantically wrong and fail tests, but the
    program structure survives thousands of mutations).
    """

    @given(seed=st.integers(min_value=0, max_value=10_000),
           count=st.integers(min_value=1, max_value=25))
    @settings(max_examples=25, deadline=None)
    def test_random_edit_lists_preserve_structure(self, seed, count):
        kernel = build_toy_kernel()
        generator = EditGenerator(kernel.module, random.Random(seed))
        edits = [edit for edit in (generator.random_edit() for _ in range(count))
                 if edit is not None]
        applied = apply_edits(kernel.module, edits)
        report = verify_module(applied.module, raise_on_error=False)
        assert not report.errors
        # Terminators are pinned: every block still ends with one.
        for function in applied.module.functions.values():
            for block in function.blocks.values():
                assert block.instructions, "blocks never become empty"
                assert block.instructions[-1].is_terminator

    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=15, deadline=None)
    def test_edit_application_is_reproducible(self, seed):
        kernel = build_toy_kernel()
        generator = EditGenerator(kernel.module, random.Random(seed))
        edits = [edit for edit in (generator.random_edit() for _ in range(10))
                 if edit is not None]
        first = apply_edits(kernel.module, edits)
        second = apply_edits(kernel.module, edits)
        first_ops = [inst.opcode for inst in first.module.instructions()]
        second_ops = [inst.opcode for inst in second.module.instructions()]
        assert first_ops == second_ops


#: Originals the forked-apply property runs on: one kernel (toy), two
#: (ADEPT-V1: main + reduce) and eight (SimCov), so cross-kernel moves
#: and swaps occur.
FORK_ORIGINALS = {
    "toy": lambda: build_toy_kernel().module,
    "adept-v1": lambda: build_adept_v1(32, 24).module,
    "simcov": lambda: build_simcov_kernels().module,
}

#: The uid fields whose instruction's function an edit writes.
WRITTEN_UIDS = {
    "delete": ("target_uid",),
    "copy": ("before_uid",),
    "move": ("source_uid", "before_uid"),
    "replace": ("target_uid",),
    "swap": ("first_uid", "second_uid"),
    "operand": ("target_uid",),
}


@st.composite
def edit_lists(draw):
    """An original module and an edit list from its ``EditGenerator``,
    mixed with edits that cannot apply: repeats of earlier edits (a repeated
    delete has lost its target), edits with one uid pointing nowhere (the
    other uid still locates, so a cross-kernel move or swap fails midway),
    deletes of pinned terminators and out-of-range operand indices."""
    name = draw(st.sampled_from(sorted(FORK_ORIGINALS)))
    module = FORK_ORIGINALS[name]()
    generator = EditGenerator(module, random.Random(draw(st.integers(0, 2 ** 32 - 1))))
    pinned = [inst.uid for inst in module.instructions() if inst.info.pinned]
    edits = []
    for _ in range(draw(st.integers(min_value=1, max_value=12))):
        roll = draw(st.integers(min_value=0, max_value=7))
        edit = generator.random_edit()
        if roll == 0 and edits:
            edit = draw(st.sampled_from(edits))
        elif roll in (1, 2) and edit is not None:
            data = edit.to_dict()
            data[draw(st.sampled_from(sorted(k for k in data if k.endswith("_uid"))))] = -1
            edit = edit_from_dict(data)
        elif roll == 3:
            edit = InstructionDelete(draw(st.sampled_from(pinned)))
        elif roll == 4 and edit is not None and edit.kind == "operand":
            edit = OperandReplace(edit.target_uid, 99, edit.new_value)
        if edit is not None:
            edits.append(edit)
    return module, edits


def replay(module, edits):
    """Apply *edits* one by one to *module* and return the applied edits,
    the skipped ones with their messages, and the functions the applied
    ones wrote.  Every skipped edit must leave *module* as it found it:
    same text and, for a fork, the same borrowed functions."""
    applied, skipped, written = [], [], set()
    for edit in edits:
        functions, text = dict(module.functions), format_module(module)
        hits = (module.find_instruction(getattr(edit, field))
                for field in WRITTEN_UIDS[edit.kind])
        targets = {hit[0].name for hit in hits if hit is not None}
        try:
            edit.apply(module)
        except EditError as error:
            skipped.append((edit, str(error)))
            assert module.functions == functions
            assert format_module(module) == text
        else:
            applied.append(edit)
            written |= targets
    return applied, skipped, written


class TestForkedApplyProperties:
    """``apply_edits`` forks the original copy-on-write: the variant equals
    a replay on a deep clone, the original never changes, skipped edits
    leave a fork as they found it, and every kernel no applied edit wrote
    is still the original's object."""

    @given(case=edit_lists())
    @settings(max_examples=80, deadline=None)
    def test_fork_matches_deep_clone_replay(self, case):
        original, edits = case
        before = format_module(original)
        variant = apply_edits(original, edits)
        assert format_module(original) == before

        replayed = original.clone()
        applied, skipped, written = replay(replayed, edits)
        assert format_module(variant.module) == format_module(replayed)
        assert variant.applied == applied
        assert variant.skipped == skipped

        borrowed = {name for name, function in variant.module.functions.items()
                    if function is original.functions[name]}
        assert borrowed == set(original.functions) - written
        replay(original.fork(), edits)
        for edit in edits:  # alone, too: an earlier write hides a stray clone
            replay(original.fork(), [edit])
