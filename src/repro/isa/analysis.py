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
from typing import Callable, Dict, FrozenSet, Iterable, List, Set, Tuple

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


#: Predicate ``Pi`` is number ``PRED_BASE + i`` in :func:`compute_liveness`'s
#: one register-number space (GPRs keep their indices, ``RZ`` < 256).
PRED_BASE = 256


def _uses(instr: Instruction) -> Set[int]:
    regs = {r.index for r in instr.gpr_uses()}
    regs.update(PRED_BASE + p.index for p in instr.pred_uses())
    if instr.opcode == Opcode.P2R:  # reads the predicate file
        regs.update(range(PRED_BASE, PRED_BASE + NUM_PREDS - 1))
    return regs


def _defs(instr: Instruction) -> Set[int]:
    # R2P writes predicates under an immediate mask; conservatively
    # treat it as defining nothing (no kill) but it produces all preds.
    regs = {r.index for r in instr.gpr_defs()}
    regs.update(PRED_BASE + p.index for p in instr.pred_defs())
    return regs


def solve_liveness(kernel: SassKernel,
                   uses_fn: Callable[[Instruction], Iterable[int]],
                   defs_fn: Callable[[Instruction], Iterable[int]]
                   ) -> Tuple[List[Set[int]], List[Set[int]]]:
    """The backward may-analysis over the kernel's instruction-level CFG
    (:func:`successors`): per-instruction ``(live_in, live_out)`` sets
    of the register numbers *uses_fn* and *defs_fn* name.  Predicated
    definitions do not kill: guard-false lanes keep the value."""
    instructions = kernel.instructions
    count = len(instructions)
    succs = [successors(kernel, i) for i in range(count)]
    uses = [set(uses_fn(instr)) for instr in instructions]
    kills = [set(defs_fn(instr)) if instr.guard.is_unconditional else set()
             for instr in instructions]
    live_in: List[Set[int]] = [set() for _ in range(count)]
    live_out: List[Set[int]] = [set() for _ in range(count)]
    changed = True
    while changed:
        changed = False
        for index in range(count - 1, -1, -1):
            out: Set[int] = set()
            for succ in succs[index]:
                out |= live_in[succ]
            live_out[index] = out
            new = uses[index] | (out - kills[index])
            if new != live_in[index]:
                live_in[index] = new
                changed = True
    return live_in, live_out


def compute_liveness(kernel: SassKernel) -> LivenessResult:
    """GPR and predicate liveness, solved together in one register-number
    space (see :data:`PRED_BASE`)."""
    live_in, live_out = solve_liveness(kernel, _uses, _defs)
    return LivenessResult(
        gpr_in=[frozenset(r for r in regs if r < PRED_BASE)
                for regs in live_in],
        gpr_out=[frozenset(r for r in regs if r < PRED_BASE)
                 for regs in live_out],
        pred_in=[frozenset(r - PRED_BASE for r in regs if r >= PRED_BASE)
                 for regs in live_in],
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
