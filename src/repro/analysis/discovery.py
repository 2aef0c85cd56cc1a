"""Discovery-sequence analysis (Figure 8).

Given the recorded history of a GEVO run and a set of edits of interest,
report the generation at which each edit was first assembled into the best
individual and the fitness trajectory around those events -- the paper's
"edit 6 first, edit 8 at generation 47, edit 10 at 213, edit 5 at 221"
narrative.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..gevo.edits import Edit
from ..gevo.history import SearchHistory


@dataclass
class DiscoveryEvent:
    """First appearance of one edit of interest in the best individual."""

    label: str
    generation: Optional[int]
    speedup_at_discovery: Optional[float]


@dataclass
class DiscoverySequence:
    """Ordered discovery events plus the full speedup trajectory."""

    events: List[DiscoveryEvent]
    speedup_series: List[Optional[float]]

    def discovered(self) -> List[DiscoveryEvent]:
        return [event for event in self.events if event.generation is not None]

    def as_rows(self) -> List[Dict[str, object]]:
        return [
            {"edit": event.label, "generation": event.generation,
             "speedup": event.speedup_at_discovery}
            for event in self.events
        ]


def discovery_sequence(history: SearchHistory,
                       edits_of_interest: Dict[str, Edit]) -> DiscoverySequence:
    """Extract the Figure-8 data for *edits_of_interest* from *history*."""
    speedups = history.speedup_series()
    events: List[DiscoveryEvent] = []
    for label, edit in edits_of_interest.items():
        generation = history.discovery_generation(edit.key())
        speedup = None
        if generation is not None and 1 <= generation <= len(speedups):
            speedup = speedups[generation - 1]
        events.append(DiscoveryEvent(label=label, generation=generation,
                                     speedup_at_discovery=speedup))
    events.sort(key=lambda event: (event.generation is None, event.generation or 0))
    return DiscoverySequence(events=events, speedup_series=speedups)


def cumulative_discovery_table(history: SearchHistory,
                               edits_of_interest: Dict[str, Edit]) -> List[Tuple[int, Tuple[str, ...]]]:
    """Per-generation cumulative set of discovered edits (the boxes of Figure 8)."""
    sequence = discovery_sequence(history, edits_of_interest)
    table: List[Tuple[int, Tuple[str, ...]]] = []
    discovered: List[str] = []
    for event in sequence.events:
        if event.generation is None:
            continue
        discovered.append(event.label)
        table.append((event.generation, tuple(discovered)))
    return table
