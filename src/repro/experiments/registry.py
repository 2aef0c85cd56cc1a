"""Common experiment result container and the experiment registry.

Every paper table / figure has one experiment function that returns an
:class:`ExperimentResult`: a name, a list of row dictionaries (the series
the paper plots or tabulates) and free-form notes.  The registry maps each
experiment identifier (``repro list``) to its function, so benches,
examples and the command line can all run the same code.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Sequence


@dataclass
class ExperimentResult:
    """Structured output of one experiment."""

    experiment: str
    description: str
    rows: List[Dict[str, object]] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)

    def add_row(self, **values) -> None:
        self.rows.append(dict(values))

    def add_note(self, note: str) -> None:
        self.notes.append(note)

    def column_names(self) -> List[str]:
        names: List[str] = []
        for row in self.rows:
            for key in row:
                if key not in names:
                    names.append(key)
        return names

    def to_table(self) -> str:
        """Render the rows as a fixed-width text table (what the benches print)."""
        columns = self.column_names()
        if not columns:
            return f"{self.experiment}: (no rows)"

        def _format(value) -> str:
            if isinstance(value, float):
                return f"{value:.4g}"
            return str(value)

        widths = {column: len(column) for column in columns}
        rendered_rows = []
        for row in self.rows:
            rendered = {column: _format(row.get(column, "")) for column in columns}
            rendered_rows.append(rendered)
            for column in columns:
                widths[column] = max(widths[column], len(rendered[column]))
        header = " | ".join(column.ljust(widths[column]) for column in columns)
        separator = "-+-".join("-" * widths[column] for column in columns)
        body = [" | ".join(rendered[column].ljust(widths[column]) for column in columns)
                for rendered in rendered_rows]
        lines = [f"== {self.experiment}: {self.description} ==", header, separator] + body
        for note in self.notes:
            lines.append(f"note: {note}")
        return "\n".join(lines)


ExperimentFunction = Callable[..., ExperimentResult]

_REGISTRY: Dict[str, ExperimentFunction] = {}


def register(identifier: str) -> Callable[[ExperimentFunction], ExperimentFunction]:
    """Decorator registering an experiment function under *identifier*."""

    def decorator(function: ExperimentFunction) -> ExperimentFunction:
        _REGISTRY[identifier] = function
        return function

    return decorator


def get_experiment(identifier: str) -> ExperimentFunction:
    try:
        return _REGISTRY[identifier]
    except KeyError:
        raise KeyError(
            f"unknown experiment {identifier!r}; available: {sorted(_REGISTRY)}") from None


def available_experiments() -> Sequence[str]:
    return tuple(sorted(_REGISTRY))
