"""Mapping IR-level edits back to source locations (Section VI).

The paper instruments Clang to carry debug information into LLVM-IR so
that discovered edits can be traced back to CUDA source lines (the red
annotations of Figure 9).  Our builder attaches
:class:`~repro.ir.instructions.SourceLoc` records to every emitted
instruction, so the same mapping is a lookup.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from ..gevo.edits import Edit
from ..ir.function import Module


@dataclass
class EditSourceRecord:
    """One edit annotated with the source context it touches."""

    edit: Edit
    kind: str
    location: Optional[str]
    opcode: Optional[str]
    description: str


def _primary_uid(edit: Edit) -> Optional[int]:
    """The uid of the instruction an edit primarily modifies."""
    key = edit.key()
    if len(key) > 1 and isinstance(key[1], int):
        return key[1]
    return None


def locate_edit(module: Module, edit: Edit) -> EditSourceRecord:
    """Annotate one edit with the source location of its target instruction."""
    uid = _primary_uid(edit)
    location = None
    opcode = None
    if uid is not None:
        found = module.find_instruction(uid)
        if found is not None:
            _, block, index = found
            instruction = block.instructions[index]
            opcode = instruction.opcode
            location = str(instruction.loc) if instruction.loc is not None else None
    return EditSourceRecord(
        edit=edit,
        kind=edit.kind,
        location=location,
        opcode=opcode,
        description=edit.describe(module),
    )


def map_edits_to_source(module: Module, edits: Sequence[Edit]) -> List[EditSourceRecord]:
    """Annotate every edit in *edits* against *module* (the unmodified program)."""
    return [locate_edit(module, edit) for edit in edits]


def edits_by_source_line(module: Module, edits: Sequence[Edit]) -> Dict[str, List[EditSourceRecord]]:
    """Group the annotated edits by source line, for Figure-9-style reports."""
    grouped: Dict[str, List[EditSourceRecord]] = {}
    for record in map_edits_to_source(module, edits):
        key = record.location or "<unknown>"
        grouped.setdefault(key, []).append(record)
    return grouped


def format_source_report(module: Module, edits: Sequence[Edit]) -> str:
    """Human-readable report of where a set of edits lands in the source."""
    lines = []
    for location, records in sorted(edits_by_source_line(module, edits).items()):
        lines.append(f"{location}:")
        for record in records:
            lines.append(f"  - {record.kind} on {record.opcode or '<missing>'}"
                         f" ({record.description})")
    return "\n".join(lines)
