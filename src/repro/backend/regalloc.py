"""Linear-scan register allocation: virtual registers → ``R0..R254``,
virtual predicates → ``P0..P6``.

``R1`` is reserved as the ABI stack pointer (the launch machinery
initializes it to the top of the thread's local-memory stack, and SASSI's
injected call sequences adjust it exactly as the paper's Figure 2 shows).

Liveness is computed on the lowered linear code over the CFG of
:func:`repro.isa.analysis.successors` (including conservative
``SYNC``/``BRK`` resume edges and the fall-through of a predicated
``EXIT``/``RET``), with no-kill predicated definitions.  An interval per
*unit* (a single virtual register, or an even-aligned pair for 64-bit
values) spans from the first position where the unit is live or defined
to the last.  Pairs receive even-aligned physical pairs.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Sequence, Set, Tuple, Union

from repro.backend.lowering import LoweredKernel
from repro.backend.virtual import VirtGPR, VirtPred
from repro.isa.analysis import solve_liveness
from repro.isa.instruction import Instruction, MemRef, PredGuard
from repro.isa.program import SassKernel
from repro.isa.registers import GPR, NUM_PREDS, Pred


class AllocationError(Exception):
    """Register pressure exceeds the physical register file."""


#: Physical GPR reserved as the stack pointer.
STACK_POINTER = GPR(1)


def _virt_gprs_in(instr: Instruction, operand, written: bool) -> List[int]:
    regs: List[int] = []
    if isinstance(operand, VirtGPR):
        count = max(1, instr.mem_width // 4) if instr.is_memory else 1
        regs.extend(operand.index + i for i in range(count))
    elif isinstance(operand, MemRef) and isinstance(operand.base, VirtGPR):
        base = operand.base.index
        from repro.isa.instruction import MemSpace

        if operand.space in (MemSpace.SHARED, MemSpace.LOCAL):
            regs.append(base)
        else:
            regs.extend((base, base + 1))
    return regs


def virt_uses(instr: Instruction) -> List[int]:
    regs: List[int] = []
    for operand in instr.srcs:
        regs.extend(_virt_gprs_in(instr, operand, written=False))
    return regs


def virt_defs(instr: Instruction) -> List[int]:
    regs: List[int] = []
    for operand in instr.dsts:
        if isinstance(operand, VirtGPR):
            count = max(1, instr.mem_width // 4) if instr.is_mem_read else 1
            regs.extend(operand.index + i for i in range(count))
    return regs


def vpred_uses(instr: Instruction) -> List[int]:
    preds = [p.index for p in instr.srcs if isinstance(p, VirtPred)]
    if isinstance(instr.guard.pred, VirtPred):
        preds.append(instr.guard.pred.index)
    return preds


def vpred_defs(instr: Instruction) -> List[int]:
    return [p.index for p in instr.dsts if isinstance(p, VirtPred)]


@dataclass
class _Interval:
    unit: int          # root virtual index (even for GPR units)
    start: int
    end: int
    paired: bool = False


def _build_intervals(instructions: Sequence[Instruction],
                     live_in: List[Set[int]],
                     defs_fn, uses_fn,
                     unit_of, paired_units: Set[int]) -> List[_Interval]:
    spans: Dict[int, Tuple[int, int]] = {}

    def touch(unit: int, position: int) -> None:
        if unit in spans:
            lo, hi = spans[unit]
            spans[unit] = (min(lo, position), max(hi, position))
        else:
            spans[unit] = (position, position)

    for position, instr in enumerate(instructions):
        for reg in live_in[position]:
            touch(unit_of(reg), position)
        for reg in uses_fn(instr):
            touch(unit_of(reg), position)
        for reg in defs_fn(instr):
            touch(unit_of(reg), position)
    return sorted(
        (_Interval(unit, lo, hi, paired=unit in paired_units)
         for unit, (lo, hi) in spans.items()),
        key=lambda iv: (iv.start, iv.unit),
    )


class _GPRPool:
    """Free pool of physical GPRs supporting aligned-pair allocation."""

    def __init__(self, reserved: Set[int]):
        self._free = [i for i in range(255) if i not in reserved]
        self._free_set = set(self._free)

    def take_single(self) -> int:
        for reg in self._free:
            self._free.remove(reg)
            self._free_set.remove(reg)
            return reg
        raise AllocationError("out of general-purpose registers")

    def take_pair(self) -> int:
        for reg in self._free:
            if reg % 2 == 0 and reg + 1 in self._free_set:
                self._free.remove(reg)
                self._free.remove(reg + 1)
                self._free_set -= {reg, reg + 1}
                return reg
        raise AllocationError("out of aligned register pairs")

    def release(self, reg: int) -> None:
        if reg not in self._free_set:
            self._free_set.add(reg)
            self._free.append(reg)
            self._free.sort()


def allocate(lowered: LoweredKernel) -> Tuple[List[Union[str, Instruction]], int]:
    """Allocate physical registers; returns rewritten items and the
    register footprint (highest GPR index used + 1)."""
    instructions: List[Instruction] = []
    labels: Dict[str, int] = {}
    for item in lowered.items:
        if isinstance(item, str):
            labels[item] = len(instructions)
        else:
            instructions.append(item)

    kernel = SassKernel(name="", instructions=tuple(instructions),
                        labels=labels)
    gpr_map = _allocate_gprs(kernel, lowered.paired_roots)
    pred_map = _allocate_preds(kernel)

    label_positions: Dict[int, List[str]] = {}
    for label, position in labels.items():
        label_positions.setdefault(position, []).append(label)
    output: List[Union[str, Instruction]] = []
    for position, instr in enumerate(instructions):
        for label in label_positions.get(position, ()):
            output.append(label)
        output.append(_rewrite(instr, gpr_map, pred_map))
    for label in label_positions.get(len(instructions), ()):
        output.append(label)

    max_reg = max(gpr_map.values(), default=0)
    max_reg = max(max_reg, STACK_POINTER.index)
    return output, max_reg + 1


def _allocate_gprs(kernel: SassKernel, paired_roots) -> Dict[int, int]:
    live_in, _ = solve_liveness(kernel, virt_uses, virt_defs)

    def unit_of(index: int) -> int:
        root = index & ~1
        return root if root in paired_roots else index

    intervals = _build_intervals(kernel.instructions, live_in, virt_defs,
                                 virt_uses, unit_of, paired_roots)
    pool = _GPRPool(reserved={STACK_POINTER.index})
    active: List[Tuple[int, _Interval, int]] = []  # (end, interval, phys)
    assignment: Dict[int, int] = {}
    for interval in intervals:
        for end, done, phys in list(active):
            if end < interval.start:
                active.remove((end, done, phys))
                pool.release(phys)
                if done.paired:
                    pool.release(phys + 1)
        phys = pool.take_pair() if interval.paired else pool.take_single()
        assignment[interval.unit] = phys
        active.append((interval.end, interval, phys))

    result: Dict[int, int] = {}
    for unit, phys in assignment.items():
        result[unit] = phys
        if unit in paired_roots:
            result[unit + 1] = phys + 1
    return result


def _allocate_preds(kernel: SassKernel) -> Dict[int, int]:
    live_in, _ = solve_liveness(kernel, vpred_uses, vpred_defs)
    intervals = _build_intervals(kernel.instructions, live_in, vpred_defs,
                                 vpred_uses, lambda i: i, set())
    free = [i for i in range(NUM_PREDS - 1)]
    active: List[Tuple[int, int, int]] = []
    assignment: Dict[int, int] = {}
    for interval in intervals:
        for end, unit, phys in list(active):
            if end < interval.start:
                active.remove((end, unit, phys))
                free.append(phys)
                free.sort()
        if not free:
            raise AllocationError("out of predicate registers")
        phys = free.pop(0)
        assignment[interval.unit] = phys
        active.append((interval.end, interval.unit, phys))
    return assignment


def _map_operand(operand, gpr_map: Dict[int, int], pred_map: Dict[int, int]):
    if isinstance(operand, VirtGPR):
        return GPR(gpr_map[operand.index])
    if isinstance(operand, VirtPred):
        return Pred(pred_map[operand.index])
    if isinstance(operand, MemRef) and isinstance(operand.base, VirtGPR):
        return MemRef(operand.space, GPR(gpr_map[operand.base.index]),
                      operand.offset)
    return operand


def _rewrite(instr: Instruction, gpr_map: Dict[int, int],
             pred_map: Dict[int, int]) -> Instruction:
    dsts = tuple(_map_operand(op, gpr_map, pred_map) for op in instr.dsts)
    srcs = tuple(_map_operand(op, gpr_map, pred_map) for op in instr.srcs)
    guard = instr.guard
    if isinstance(guard.pred, VirtPred):
        guard = PredGuard(Pred(pred_map[guard.pred.index]), guard.negated)
    return replace(instr, dsts=dsts, srcs=srcs, guard=guard)
