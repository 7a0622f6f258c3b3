"""Control-flow and liveness analysis on SASS kernels.

The SASSI injector needs, at every instrumentation site, the set of live
general-purpose and predicate registers: those are what the ABI-compliant
call sequence must spill and restore (paper Figure 2, steps 2 and 8).

Liveness here is *per-lane* liveness.  In the SIMT model a handler call
only reads/writes registers of lanes active at the site, and an active
lane's future register uses are exactly the uses along its dynamic control
path.  The CFG therefore includes the dynamic edges taken by the
divergence-stack ``SYNC`` instruction (a lane executing ``SYNC`` may resume
at the fall-through of any divergent branch), and predicated definitions do
not kill (guard-false lanes keep the old value along the same path).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Set, Tuple

from repro.isa.instruction import Instruction, LabelRef
from repro.isa.opcodes import Opcode
from repro.isa.program import SassKernel
from repro.isa.registers import GPR, NUM_PREDS, Pred


def successors(kernel: SassKernel, index: int) -> Tuple[int, ...]:
    """Static successor instruction indices of the instruction at *index*.

    An unconditional ``EXIT`` or ``RET`` has none, a predicated one falls
    through for its guard-false lanes; calls fall through (the callee returns);
    ``SYNC`` may resume at the fall-through of any divergent branch in the
    kernel (a sound over-approximation of the divergence stack).
    """
    instr = kernel.instructions[index]
    limit = len(kernel.instructions)
    next_index = index + 1

    def fallthrough() -> Tuple[int, ...]:
        return (next_index,) if next_index < limit else ()

    if instr.opcode in (Opcode.EXIT, Opcode.RET):
        return () if instr.guard.is_unconditional else fallthrough()
    if instr.opcode == Opcode.BRA:
        target = kernel.resolve_target(_branch_target(instr))
        if instr.guard.is_unconditional:
            return (target,)
        return tuple({target, *fallthrough()})
    if instr.opcode == Opcode.SYNC:
        resume: Set[int] = set(fallthrough())
        for other_index, other in enumerate(kernel.instructions):
            if (other.opcode == Opcode.BRA
                    and not other.guard.is_unconditional
                    and other_index + 1 < limit):
                resume.add(other_index + 1)
        return tuple(sorted(resume))
    if instr.opcode == Opcode.BRK:
        # Breaking lanes resume at a PBK target; guard-false lanes fall
        # through.  Conservatively include every PBK target in the kernel.
        resume = set(fallthrough())
        for other in kernel.instructions:
            if other.opcode == Opcode.PBK:
                resume.add(kernel.resolve_target(_branch_target(other)))
        return tuple(sorted(resume))
    return fallthrough()


def _branch_target(instr: Instruction) -> LabelRef:
    for operand in instr.srcs:
        if isinstance(operand, LabelRef):
            return operand
    raise ValueError(f"branch without label target: {instr!r}")


@dataclass
class LivenessResult:
    """Per-instruction live-in register sets and live-out GPR sets."""

    gpr_in: List[FrozenSet[int]]
    gpr_out: List[FrozenSet[int]]
    pred_in: List[FrozenSet[int]]

    def live_gprs_at(self, index: int) -> Tuple[GPR, ...]:
        """GPRs live *across* the site before instruction *index* — i.e.
        live-in of the instruction (what a call inserted there must
        preserve)."""
        return tuple(GPR(i) for i in sorted(self.gpr_in[index]))

    def live_preds_at(self, index: int) -> Tuple[Pred, ...]:
        return tuple(Pred(i) for i in sorted(self.pred_in[index]))

    def live_gprs_after(self, index: int) -> Tuple[GPR, ...]:
        return tuple(GPR(i) for i in sorted(self.gpr_out[index]))


def _uses_defs(instr: Instruction) -> Tuple[Set[int], Set[int], Set[int], Set[int]]:
    gpr_uses = {r.index for r in instr.gpr_uses()}
    pred_uses = {p.index for p in instr.pred_uses()}
    if instr.opcode == Opcode.P2R:
        pred_uses.update(range(NUM_PREDS - 1))  # reads the predicate file
    gpr_defs: Set[int] = set()
    pred_defs: Set[int] = set()
    # Predicated definitions do not kill: guard-false lanes keep the value.
    if instr.guard.is_unconditional:
        gpr_defs = {r.index for r in instr.gpr_defs()}
        pred_defs = {p.index for p in instr.pred_defs()}
        # R2P writes predicates under an immediate mask; conservatively
        # treat it as defining nothing (no kill) but it produces all preds.
    return gpr_uses, gpr_defs, pred_uses, pred_defs


def compute_liveness(kernel: SassKernel) -> LivenessResult:
    """Backward may-analysis over the kernel's instruction-level CFG."""
    count = len(kernel.instructions)
    succs = [successors(kernel, i) for i in range(count)]
    use_def = [_uses_defs(instr) for instr in kernel.instructions]

    gpr_in: List[Set[int]] = [set() for _ in range(count)]
    pred_in: List[Set[int]] = [set() for _ in range(count)]
    changed = True
    while changed:
        changed = False
        for index in range(count - 1, -1, -1):
            gpr_uses, gpr_defs, pred_uses, pred_defs = use_def[index]
            gout: Set[int] = set()
            pout: Set[int] = set()
            for succ in succs[index]:
                gout |= gpr_in[succ]
                pout |= pred_in[succ]
            gin = gpr_uses | (gout - gpr_defs)
            pin = pred_uses | (pout - pred_defs)
            if gin != gpr_in[index] or pin != pred_in[index]:
                gpr_in[index] = gin
                pred_in[index] = pin
                changed = True

    gpr_out: List[FrozenSet[int]] = []
    for index in range(count):
        gout: Set[int] = set()
        for succ in succs[index]:
            gout |= gpr_in[succ]
        gpr_out.append(frozenset(gout))
    return LivenessResult(
        gpr_in=[frozenset(s) for s in gpr_in],
        gpr_out=gpr_out,
        pred_in=[frozenset(s) for s in pred_in],
    )


@dataclass
class BasicBlock:
    """A maximal straight-line region ``[start, end)`` of the kernel."""

    start: int
    end: int
    succ: Tuple[int, ...] = ()

    def __contains__(self, index: int) -> bool:
        return self.start <= index < self.end


def basic_blocks(kernel: SassKernel) -> List[BasicBlock]:
    """Partition the kernel into basic blocks (by leader analysis)."""
    count = len(kernel.instructions)
    if count == 0:
        return []
    leaders: Set[int] = {0}
    for index, instr in enumerate(kernel.instructions):
        if instr.is_control_xfer or instr.opcode == Opcode.SSY:
            if index + 1 < count:
                leaders.add(index + 1)
            for target in successors(kernel, index):
                leaders.add(target)
    ordered = sorted(leaders)
    blocks: List[BasicBlock] = []
    starts: Dict[int, int] = {}
    for position, start in enumerate(ordered):
        end = ordered[position + 1] if position + 1 < len(ordered) else count
        starts[start] = len(blocks)
        blocks.append(BasicBlock(start=start, end=end))
    for block in blocks:
        if block.end == block.start:
            continue
        last = block.end - 1
        block.succ = tuple(sorted({starts[s] for s in successors(kernel, last)
                                   if s in starts}))
    return blocks
