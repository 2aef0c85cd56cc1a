"""Individuals (genomes) and edit-list application.

An :class:`Individual` is an ordered list of :class:`~repro.gevo.edits.Edit`
objects plus cached evaluation results.  Applying a genome forks the
original module and replays the edits in order; edits that no longer apply
(for example, a later edit references an instruction an earlier edit
removed) are skipped by default, matching GEVO's tolerant behaviour, and
the skipped edits are reported so analyses can account for them.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from ..errors import EditError
from ..ir.function import Module
from .edits import Edit

_individual_ids = itertools.count(1)


@dataclass
class AppliedGenome:
    """Result of replaying an edit list onto a fork of the original module."""

    module: Module
    applied: List[Edit]
    skipped: List[Tuple[Edit, str]]

    @property
    def all_applied(self) -> bool:
        return not self.skipped


def apply_edits(original: Module, edits: Sequence[Edit], *, strict: bool = False) -> AppliedGenome:
    """Fork *original* and apply *edits* in order.

    The variant is a copy-on-write :meth:`~repro.ir.function.Module.fork`:
    every kernel no applied edit writes stays the original's object, with
    its cached decoding and compiled segments, and the original never
    changes.  Mutate a variant only through :meth:`Edit.apply`, which
    clones a kernel before its first write.

    With ``strict=False`` (the default, GEVO's behaviour) inapplicable edits
    are skipped and recorded; with ``strict=True`` the first failure raises.
    """
    module = original.fork()
    applied: List[Edit] = []
    skipped: List[Tuple[Edit, str]] = []
    for edit in edits:
        try:
            edit.apply(module)
            applied.append(edit)
        except EditError as exc:
            if strict:
                raise
            skipped.append((edit, str(exc)))
    return AppliedGenome(module=module, applied=applied, skipped=skipped)


@dataclass
class Individual:
    """One member of the GEVO population."""

    edits: List[Edit] = field(default_factory=list)
    #: Mean kernel runtime (ms) over the fitness test cases; ``None`` until evaluated.
    fitness: Optional[float] = None
    #: Whether every test case passed; ``None`` until evaluated.
    valid: Optional[bool] = None
    identifier: int = field(default_factory=lambda: next(_individual_ids))

    def copy(self) -> "Individual":
        """A fresh (unevaluated) copy with the same edit list."""
        return Individual(edits=list(self.edits))

    def edit_keys(self) -> Tuple[Tuple, ...]:
        return tuple(edit.key() for edit in self.edits)

    def with_additional_edit(self, edit: Edit) -> "Individual":
        child = self.copy()
        child.edits.append(edit)
        return child

    def needs_evaluation(self) -> bool:
        return self.fitness is None or self.valid is None

    def mark_evaluated(self, fitness: Optional[float], valid: bool) -> None:
        self.fitness = fitness
        self.valid = valid

    def __len__(self) -> int:
        return len(self.edits)

    def __repr__(self) -> str:
        status = "unevaluated" if self.needs_evaluation() else (
            f"fitness={self.fitness:.4f} valid={self.valid}")
        return f"<Individual #{self.identifier} edits={len(self.edits)} {status}>"


def seed_population(size: int) -> List[Individual]:
    """The initial population: *size* copies of the unmodified program."""
    return [Individual() for _ in range(size)]

