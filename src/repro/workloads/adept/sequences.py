"""Synthetic DNA datasets for the ADEPT workload.

The paper evaluates on 30,000 DNA pairs from the ADEPT repository for
fitness and 4.6 million held-out pairs for final validation.  Neither
dataset is available offline, so this module generates synthetic pairs
with a seeded RNG: a random reference sequence plus a query derived from a
window of the reference with point mutations and indels (which gives the
realistic mix of high- and low-scoring local alignments the kernels see in
practice).  The scaling to far fewer / shorter pairs is recorded in
EXPERIMENTS.md.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

import numpy as np

#: DNA alphabet and its integer encoding used by the GPU kernels.
ALPHABET = "ACGT"
ENCODING: Dict[str, int] = {base: index for index, base in enumerate(ALPHABET)}


@dataclass(frozen=True)
class SequencePair:
    """One (reference, query) pair to align."""

    reference: str
    query: str

    def __post_init__(self):
        for sequence in (self.reference, self.query):
            if not sequence or any(base not in ENCODING for base in sequence):
                raise ValueError(f"sequence {sequence!r} is empty or not over {ALPHABET!r}")


def random_sequence(length: int, rng: np.random.Generator) -> str:
    """A uniformly random DNA sequence of the given length."""
    if length <= 0:
        raise ValueError("sequence length must be positive")
    indices = rng.integers(0, len(ALPHABET), size=length)
    return "".join(ALPHABET[i] for i in indices)


def mutate_sequence(sequence: str, rng: np.random.Generator,
                    substitution_rate: float = 0.1, indel_rate: float = 0.05) -> str:
    """Apply random substitutions and indels -- produces a related query."""
    output: List[str] = []
    for base in sequence:
        roll = rng.random()
        if roll < indel_rate / 2:
            continue  # deletion
        if roll < indel_rate:
            output.append(ALPHABET[rng.integers(0, 4)])  # insertion
        if rng.random() < substitution_rate:
            output.append(ALPHABET[rng.integers(0, 4)])
        else:
            output.append(base)
    if not output:
        output.append(sequence[0])
    return "".join(output)


def generate_pairs(count: int, reference_length: int, query_length: int,
                   seed: int = 0, related_fraction: float = 0.8) -> List[SequencePair]:
    """Generate *count* synthetic pairs.

    ``related_fraction`` of the queries are mutated windows of their
    reference (high alignment scores); the rest are unrelated random
    sequences (low scores), so validation exercises both regimes.
    """
    if count <= 0:
        raise ValueError("pair count must be positive")
    rng = np.random.default_rng(seed)
    pairs: List[SequencePair] = []
    for index in range(count):
        reference = random_sequence(reference_length, rng)
        if rng.random() < related_fraction:
            window = min(query_length + 4, reference_length)
            start = int(rng.integers(0, max(1, reference_length - window + 1)))
            query = mutate_sequence(reference[start:start + window], rng)
        else:
            query = random_sequence(query_length, rng)
        query = query[:query_length]
        if not query:
            query = random_sequence(query_length, rng)
        pairs.append(SequencePair(reference=reference, query=query))
    return pairs


def encode_sequence(sequence: str) -> np.ndarray:
    """Encode a DNA string as an int64 numpy array (A=0, C=1, G=2, T=3)."""
    return np.array([ENCODING[base] for base in sequence], dtype=np.int64)


@dataclass
class EncodedBatch:
    """Flattened device-friendly representation of a batch of pairs.

    Mirrors how ADEPT ships batches to the GPU: two concatenated character
    arrays plus per-pair offsets and lengths.
    """

    seq_a: np.ndarray
    seq_b: np.ndarray
    offsets_a: np.ndarray
    offsets_b: np.ndarray
    lengths_a: np.ndarray
    lengths_b: np.ndarray

    @property
    def pair_count(self) -> int:
        return int(self.lengths_a.shape[0])

    @property
    def max_query_length(self) -> int:
        return int(self.lengths_b.max())

    @property
    def max_reference_length(self) -> int:
        return int(self.lengths_a.max())


def encode_batch(pairs: Sequence[SequencePair]) -> EncodedBatch:
    """Flatten a batch of pairs into the device buffer layout."""
    if not pairs:
        raise ValueError("cannot encode an empty batch")
    seq_a_parts = [encode_sequence(pair.reference) for pair in pairs]
    seq_b_parts = [encode_sequence(pair.query) for pair in pairs]
    lengths_a = np.array([len(pair.reference) for pair in pairs], dtype=np.int64)
    lengths_b = np.array([len(pair.query) for pair in pairs], dtype=np.int64)
    offsets_a = np.concatenate([[0], np.cumsum(lengths_a)[:-1]]).astype(np.int64)
    offsets_b = np.concatenate([[0], np.cumsum(lengths_b)[:-1]]).astype(np.int64)
    return EncodedBatch(
        seq_a=np.concatenate(seq_a_parts),
        seq_b=np.concatenate(seq_b_parts),
        offsets_a=offsets_a,
        offsets_b=offsets_b,
        lengths_a=lengths_a,
        lengths_b=lengths_b,
    )


def fitness_pairs(seed: int = 11) -> List[SequencePair]:
    """The scaled-down stand-in for ADEPT's 30,000-pair fitness set.

    Two length regimes are included on purpose: single-warp pairs (queries
    shorter than 32) and multi-warp pairs (queries spanning three warps),
    because several of the paper's discovered edits are only exercised --
    and their failure modes only exposed -- when a block spans more than
    one warp.
    """
    short = generate_pairs(2, reference_length=40, query_length=24, seed=seed)
    long = generate_pairs(2, reference_length=88, query_length=72, seed=seed + 1)
    return short + long


def search_pairs(seed: int = 23) -> List[SequencePair]:
    """An even smaller fitness set used by live (scaled-down) GEVO searches.

    Kept to two pairs -- one single-warp, one two-warp -- so that a search
    over hundreds of variants completes in seconds on the simulator while
    still exposing the multi-warp failure modes.
    """
    short = generate_pairs(1, reference_length=36, query_length=22, seed=seed)
    long = generate_pairs(1, reference_length=56, query_length=44, seed=seed + 1)
    return short + long


def heldout_pairs(seed: int = 97, count: int = 16) -> List[SequencePair]:
    """The scaled-down stand-in for the 4.6M-pair held-out validation set."""
    half = count // 2
    short = generate_pairs(half, reference_length=48, query_length=28, seed=seed)
    long = generate_pairs(count - half, reference_length=96, query_length=72, seed=seed + 1)
    return short + long


__all__ = [
    "ALPHABET",
    "ENCODING",
    "EncodedBatch",
    "SequencePair",
    "encode_batch",
    "encode_sequence",
    "fitness_pairs",
    "generate_pairs",
    "heldout_pairs",
    "mutate_sequence",
    "random_sequence",
    "search_pairs",
]
