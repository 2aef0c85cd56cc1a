"""Control-flow and data-flow analyses over mini-IR functions.

The GPU simulator needs immediate post-dominators to drive its SIMT
reconvergence stack (a divergent warp re-converges at the immediate
post-dominator of the branching block, the same policy GPGPU-class
hardware models use).  The GEVO mutation operators need to know which
values are available in a function so operand-replacement edits draw from
a sensible pool.  Both analyses live here, built on ``networkx``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

import networkx as nx

from .function import Function
from .values import Const, Reg

#: Virtual exit node label used when computing post-dominators.
VIRTUAL_EXIT = "__exit__"


def build_cfg(func: Function) -> "nx.DiGraph":
    """Build the control-flow graph of *func* (nodes are block labels)."""
    graph = nx.DiGraph()
    for label in func.block_order():
        graph.add_node(label)
    for label in func.block_order():
        for successor in func.blocks[label].successors():
            graph.add_edge(label, successor)
    return graph


def reachable_blocks(func: Function) -> Set[str]:
    """Labels of blocks reachable from the entry block."""
    graph = build_cfg(func)
    return set(nx.descendants(graph, func.entry_label)) | {func.entry_label}


def exit_blocks(func: Function) -> Tuple[str, ...]:
    """Blocks that terminate the kernel (end in ``ret`` or have no successors)."""
    exits: List[str] = []
    for label in func.block_order():
        block = func.blocks[label]
        term = block.terminator
        if term is None or term.opcode == "ret" or not block.successors():
            exits.append(label)
    return tuple(exits)


def immediate_postdominators(func: Function) -> Dict[str, Optional[str]]:
    """Map each reachable block label to its immediate post-dominator.

    The analysis adds a virtual exit node fed by every exit block and runs
    the standard immediate-dominator algorithm on the reversed CFG.  Blocks
    whose only post-dominator is the virtual exit map to ``None`` (the warp
    re-converges only when the kernel finishes).
    """
    graph = build_cfg(func)
    exits = exit_blocks(func)
    if not exits:
        # A function that never returns (e.g. after a hostile mutation):
        # treat every block as post-dominated only by the virtual exit.
        return {label: None for label in func.block_order()}
    graph.add_node(VIRTUAL_EXIT)
    for label in exits:
        graph.add_edge(label, VIRTUAL_EXIT)
    reversed_graph = graph.reverse(copy=False)
    idom = nx.immediate_dominators(reversed_graph, VIRTUAL_EXIT)
    result: Dict[str, Optional[str]] = {}
    for label in func.block_order():
        if label not in idom:
            # Unreachable backwards from the exit (infinite loop region).
            result[label] = None
            continue
        parent = idom[label]
        result[label] = None if parent in (VIRTUAL_EXIT, label) else parent
    return result


def collect_registers(func: Function) -> Tuple[str, ...]:
    """Every register name that appears (as dest or operand) in *func*."""
    names: List[str] = []
    seen: Set[str] = set()

    def _add(name: str) -> None:
        if name not in seen:
            seen.add(name)
            names.append(name)

    for param in func.param_names():
        _add(param)
    for shared in func.shared_names():
        _add(shared)
    for inst in func.instructions():
        if inst.dest is not None:
            _add(inst.dest)
        for op in inst.operands:
            if isinstance(op, Reg):
                _add(op.name)
    return tuple(names)


def collect_constants(func: Function) -> Tuple[Const, ...]:
    """Every constant operand that appears in *func* (deduplicated, ordered)."""
    constants: List[Const] = []
    seen: Set[object] = set()
    for inst in func.instructions():
        for op in inst.operands:
            if isinstance(op, Const):
                key = (type(op.value), op.value)
                if key not in seen:
                    seen.add(key)
                    constants.append(op)
    return tuple(constants)


def collect_operand_pool(func: Function) -> Tuple[object, ...]:
    """The pool of values operand-replacement edits may draw from.

    Mirrors GEVO's behaviour of replacing an operand with another value
    already present in the kernel: existing registers (including parameters
    and shared-array handles) plus existing constants.
    """
    pool: List[object] = [Reg(name) for name in collect_registers(func)]
    pool.extend(collect_constants(func))
    return tuple(pool)


def static_instruction_mix(func: Function) -> Dict[str, int]:
    """Histogram of opcode categories -- used by the boundary-check analysis

    (the paper reports that 31% of the SIMCoV diffusion kernel's instructions
    are boundary-comparison logic)."""
    mix: Dict[str, int] = {}
    for inst in func.instructions():
        mix[inst.info.category] = mix.get(inst.info.category, 0) + 1
    return mix
