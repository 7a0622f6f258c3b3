"""ABI-compliant call-sequence generation (the paper's Figure 2).

For each instrumentation site the injector emits, in order:

1. stack allocation (``IADD R1, R1, -frame``);
2. spills of live caller-saved GPRs into ``bp.GPRSpill`` (slot = register
   number), the predicate file via ``P2R``/``STL``, and the carry flag
   (read with ``IADD.X R2, RZ, RZ``);
3. initialization of the ``SASSIBeforeParams`` fields (site id, fnAddr,
   insOffset, insEncoding, per-thread ``instrWillExecute`` computed with
   the guarded ``@P IADD R4, RZ, 0x1 / @!P IADD R4, RZ, 0x0`` pair exactly
   as in Figure 2);
4. marshaling of the requested extra parameter objects (memory address
   pair + properties/width/domain; branch direction; destination-register
   numbers and values);
5. the generic-pointer arguments: ``LOP.OR R4, R1, c[0x0][0x24]`` /
   ``IADD R5, RZ, 0x0`` for ``bp`` and the same plus ``+0x60`` in
   ``R6/R7`` for the extra object, per the compute ABI;
6. ``JCAL <handler>``;
7. restores (predicates, carry, spilled GPRs, optional register
   write-back) and stack release.

Every emitted instruction carries ``tag="sassi"`` so it is never itself
instrumented and so the simulator can attribute overhead precisely.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.isa.instruction import (
    ConstRef,
    Imm,
    Instruction,
    MemRef,
    MemSpace,
    PredGuard,
)
from repro.isa.opcodes import Opcode
from repro.isa.program import STACK_BASE_OFFSET
from repro.isa.registers import GPR, PT, RZ, Pred
from repro.sassi import params as P
from repro.sassi.spec import InstrumentationSpec, What, Where
from repro.sim.costmodel import block_issue_cycles
from repro.sim.memory import SHARED_BASE
from repro.telemetry.classify import SAVE_RESTORE_KEYS, block_dispatch_counts

#: Caller-saved registers a ≤16-register handler may clobber (R1 is the
#: stack pointer and is callee-preserved by construction).
CALLER_SAVED = frozenset(r for r in range(16) if r != 1)

#: Branch-target offsets are patched after the whole kernel is rebuilt;
#: until then they are encoded as PATCH_TARGET_BASE + original index.
PATCH_TARGET_BASE = 0x7E000000


@dataclass(frozen=True)
class SiteRequest:
    """Everything the sequence generator needs for one site."""

    instr: Instruction
    site_id: int
    where: Where
    fn_addr: int
    encoding_low: int
    live_gprs: Tuple[int, ...]        # live register numbers at the site
    handler_addr: int
    spec: InstrumentationSpec
    original_target_index: Optional[int] = None  # for branch sites
    already_spilled: frozenset = frozenset()


def _sassi(opcode, dsts=(), srcs=(), mods=(), guard=PredGuard()):
    return Instruction(opcode=opcode, dsts=tuple(dsts), srcs=tuple(srcs),
                       mods=tuple(mods), guard=guard, tag="sassi")


def _stl(offset: int, reg: GPR, wide: bool = False) -> Instruction:
    mods = ("64",) if wide else ()
    return _sassi(Opcode.STL, (),
                  (MemRef(MemSpace.LOCAL, GPR(1), offset), reg), mods)


def _ldl(reg: GPR, offset: int) -> Instruction:
    return _sassi(Opcode.LDL, (reg,),
                  (MemRef(MemSpace.LOCAL, GPR(1), offset),))


def _mov_imm(reg: GPR, value: int) -> Instruction:
    value &= 0xFFFFFFFF
    if value >= 1 << 31:
        value -= 1 << 32
    if -(1 << 19) < value < (1 << 19):
        return _sassi(Opcode.IADD, (reg,), (RZ, Imm(value)))
    return _sassi(Opcode.MOV32I, (reg,), (Imm(value),))


def memory_properties(instr: Instruction) -> int:
    bits = 0
    if instr.is_mem_read:
        bits |= P.PROP_IS_LOAD
    if instr.is_mem_write:
        bits |= P.PROP_IS_STORE
    if instr.is_atomic:
        bits |= P.PROP_IS_ATOMIC
    return bits


def frame_parts(spec: InstrumentationSpec, instr: Instruction, where: Where):
    """Which extra parameter objects this site marshals, and the frame."""
    with_memory = What.MEMORY in spec.what and instr.is_memory \
        and instr.mem_ref is not None
    with_branch = What.COND_BRANCH in spec.what and instr.is_cond_control_xfer
    with_regs = What.REGISTERS in spec.what and (
        bool(instr.gpr_defs()) or where is Where.AFTER)
    return P.frame_layout(with_memory, with_branch, with_regs), \
        with_memory, with_branch, with_regs


def _site_registers(instr: Instruction, with_memory: bool,
                    with_regs: bool) -> frozenset:
    """Registers whose *original* values the marshaling code must read."""
    regs = set()
    if with_regs:
        regs.update(_dst_regs(instr))
    if with_memory and instr.mem_ref is not None \
            and not instr.mem_ref.base.is_zero:
        base = instr.mem_ref.base.index
        regs.add(base)
        if instr.mem_ref.space in (MemSpace.GLOBAL, MemSpace.TEXTURE,
                                   MemSpace.GENERIC):
            regs.add(base + 1)
    return frozenset(regs)


def _pick_scratch(forbidden: frozenset, preferred: Sequence[int]) -> int:
    for reg in preferred:
        if reg not in forbidden:
            return reg
    raise AssertionError("no scratch register available")


def build_call_sequence(request: SiteRequest) -> List[Instruction]:
    """The full injected sequence for one site.

    Ordering constraint: everything that reads *original* architectural
    state (register-value captures, the memory-address pair, predicate
    and carry spills, the guard-dependent fields) is emitted before the
    scratch registers it would clobber are reused, and the carry flag is
    saved before the address computation's ``IADD.CC`` destroys it.
    """
    spec = request.spec
    instr = request.instr
    (memory_at, branch_at, regs_at, frame), with_memory, with_branch, \
        with_regs = frame_parts(spec, instr, request.where)

    site_regs = _site_registers(instr, with_memory, with_regs)
    pred_scratch = GPR(_pick_scratch(site_regs, (3, 0, 2, 9, 11, 13, 15)))
    cc_scratch = GPR(_pick_scratch(site_regs | {pred_scratch.index},
                                   (2, 0, 3, 9, 11, 13, 15)))

    seq: List[Instruction] = []
    emit = seq.append

    # (1) stack allocation
    emit(_sassi(Opcode.IADD, (GPR(1),), (GPR(1), Imm(-frame))))

    # (2) spills of live caller-saved registers
    spill_set = sorted(r for r in request.live_gprs if r in CALLER_SAVED)
    stored = [r for r in spill_set if r not in request.already_spilled]
    for reg in stored:
        emit(_stl(P.BP_GPR_SPILL + 4 * reg, GPR(reg)))

    # (2b) capture destination-register values while still intact
    if with_regs:
        for index, reg in enumerate(_dst_regs(instr)):
            emit(_stl(regs_at + P.RP_VALUES + 4 * index, GPR(reg)))

    # (2c) predicate and carry spills (carry before any IADD.CC below)
    emit(_sassi(Opcode.P2R, (pred_scratch,), (Imm(0x7F),)))
    emit(_stl(P.BP_PR_SPILL, pred_scratch))
    emit(_sassi(Opcode.IADD, (cc_scratch,), (RZ, RZ), mods=("X",)))
    emit(_stl(P.BP_CC_SPILL, cc_scratch))

    # (2d) the memory operand's effective address (may use IADD.CC)
    if with_memory:
        _emit_memory_address(seq, instr, memory_at)

    # (3) SASSIBeforeParams fields
    emit(_mov_imm(GPR(4), request.site_id))
    emit(_stl(P.BP_ID, GPR(4)))
    emit(_mov_imm(GPR(5), request.fn_addr))
    emit(_stl(P.BP_FN_ADDR, GPR(5)))
    emit(_mov_imm(GPR(4), 0))          # insOffset patched by the injector
    seq[-1] = _offset_placeholder(seq[-1], request.where)
    emit(_stl(P.BP_INS_OFFSET, GPR(4)))
    emit(_mov_imm(GPR(5), request.encoding_low))
    emit(_stl(P.BP_INS_ENCODING, GPR(5)))
    _emit_guard_flag(seq, instr.guard, GPR(4))
    emit(_stl(P.BP_WILL_EXECUTE, GPR(4)))

    # (4) remaining extra-parameter fields (immediates only)
    if with_memory:
        _emit_memory_static_fields(seq, instr, memory_at)
    if with_branch:
        _emit_branch_params(seq, instr, branch_at, request)
    if with_regs:
        _emit_register_metadata(seq, instr, regs_at)

    # (5) argument pointers per the ABI
    emit(_sassi(Opcode.LOP, (GPR(4),),
                (GPR(1), ConstRef(0, STACK_BASE_OFFSET)), mods=("OR",)))
    emit(_sassi(Opcode.IADD, (GPR(5),), (RZ, Imm(0))))
    if with_memory or with_branch or with_regs:
        emit(_sassi(Opcode.LOP, (GPR(6),),
                    (GPR(1), ConstRef(0, STACK_BASE_OFFSET)), mods=("OR",)))
        emit(_sassi(Opcode.IADD, (GPR(6),), (GPR(6), Imm(P.BP_SIZE))))
        emit(_sassi(Opcode.IADD, (GPR(7),), (RZ, Imm(0))))

    # (6) the call
    emit(_sassi(Opcode.JCAL, (), (Imm(request.handler_addr),)))

    # (7) restores
    emit(_ldl(GPR(3), P.BP_PR_SPILL))
    emit(_sassi(Opcode.R2P, (), (GPR(3), Imm(0x7F))))
    emit(_ldl(GPR(2), P.BP_CC_SPILL))
    emit(_sassi(Opcode.IADD, (RZ,), (GPR(2), Imm(-1)), mods=("CC",)))
    for reg in reversed(spill_set):
        emit(_ldl(GPR(reg), P.BP_GPR_SPILL + 4 * reg))
    if with_regs and spec.writeback_registers \
            and request.where is Where.AFTER:
        for index, reg in enumerate(_dst_regs(instr)):
            emit(_ldl(GPR(reg), P.RP_VALUES + regs_at + 4 * index))
    emit(_sassi(Opcode.IADD, (GPR(1),), (GPR(1), Imm(frame))))
    return seq


def _offset_placeholder(instruction: Instruction,
                        where: Where) -> Instruction:
    """Mark the insOffset immediate for post-assembly patching.

    ``PATCH_TARGET_BASE - 1`` resolves to the next original instruction
    (before-sites); ``- 2`` to the previous one (after-sites).
    """
    from dataclasses import replace

    sentinel = PATCH_TARGET_BASE - (1 if where is Where.BEFORE else 2)
    return replace(instruction, srcs=(RZ, Imm(sentinel)))


def _emit_guard_flag(seq: List[Instruction], guard: PredGuard,
                     reg: GPR) -> None:
    """``reg = 1`` iff the original instruction's guard passes — the
    Figure 2 ``@P0 IADD R4, RZ, 0x1 / @!P0 IADD R4, RZ, 0x0`` pair."""
    if guard.is_unconditional:
        seq.append(_sassi(Opcode.IADD, (reg,), (RZ, Imm(1))))
        return
    seq.append(_sassi(Opcode.IADD, (reg,), (RZ, Imm(1)),
                      guard=PredGuard(guard.pred, guard.negated)))
    seq.append(_sassi(Opcode.IADD, (reg,), (RZ, Imm(0)),
                      guard=PredGuard(guard.pred, not guard.negated)))


def _emit_memory_address(seq: List[Instruction], instr: Instruction,
                         base: int) -> None:
    """Compute the effective address into R6/R7 and store it (the
    Figure 2 ``IADD R6.CC, R10, 0x0 / IADD.X R7, R11, RZ / STL.64``)."""
    ref = instr.mem_ref
    emit = seq.append
    if ref.base.is_zero:
        emit(_mov_imm(GPR(6), ref.offset))
        emit(_sassi(Opcode.IADD, (GPR(7),), (RZ, Imm(0))))
    elif ref.space in (MemSpace.GLOBAL, MemSpace.TEXTURE, MemSpace.GENERIC):
        emit(_sassi(Opcode.IADD, (GPR(6),),
                    (GPR(ref.base.index), Imm(ref.offset)), mods=("CC",)))
        emit(_sassi(Opcode.IADD, (GPR(7),),
                    (GPR(ref.base.index + 1), RZ), mods=("X",)))
    elif ref.space is MemSpace.SHARED:
        emit(_sassi(Opcode.IADD, (GPR(6),),
                    (GPR(ref.base.index), Imm(ref.offset))))
        emit(_sassi(Opcode.LOP32I, (GPR(6),),
                    (GPR(6), Imm(SHARED_BASE)), mods=("OR",)))
        emit(_sassi(Opcode.IADD, (GPR(7),), (RZ, Imm(0))))
    else:  # LOCAL / CONST: form the generic local-window address
        emit(_sassi(Opcode.IADD, (GPR(6),),
                    (GPR(ref.base.index), Imm(ref.offset))))
        emit(_sassi(Opcode.LOP, (GPR(6),),
                    (GPR(6), ConstRef(0, STACK_BASE_OFFSET)), mods=("OR",)))
        emit(_sassi(Opcode.IADD, (GPR(7),), (RZ, Imm(0))))
    emit(_stl(base + P.MP_ADDRESS, GPR(6), wide=True))


def _emit_memory_static_fields(seq: List[Instruction], instr: Instruction,
                               base: int) -> None:
    emit = seq.append
    emit(_mov_imm(GPR(6), memory_properties(instr)))
    emit(_stl(base + P.MP_PROPERTIES, GPR(6)))
    emit(_mov_imm(GPR(6), instr.mem_width))
    emit(_stl(base + P.MP_WIDTH, GPR(6)))
    space = instr.mem_space or MemSpace.GENERIC
    emit(_mov_imm(GPR(6), space.value))
    emit(_stl(base + P.MP_DOMAIN, GPR(6)))


def _emit_branch_params(seq: List[Instruction], instr: Instruction,
                        base: int, request: SiteRequest) -> None:
    emit = seq.append
    _emit_guard_flag(seq, instr.guard, GPR(6))
    emit(_stl(base + P.BRP_DIRECTION, GPR(6)))
    if request.original_target_index is not None:
        emit(_mov_imm(GPR(6),
                      PATCH_TARGET_BASE + request.original_target_index))
    else:
        emit(_mov_imm(GPR(6), 0xFFFFFFFF))
    emit(_stl(base + P.BRP_TAKEN_OFFSET, GPR(6)))
    flags = P.BRP_FLAG_IS_BREAK if instr.opcode is Opcode.BRK else 0
    emit(_mov_imm(GPR(6), flags))
    emit(_stl(base + P.BRP_FLAGS, GPR(6)))


def _dst_regs(instr: Instruction) -> List[int]:
    regs = [r.index for r in instr.gpr_defs()]
    return regs[:P.MAX_REG_DSTS]


def _emit_register_metadata(seq: List[Instruction], instr: Instruction,
                            base: int) -> None:
    """Destination count and register numbers (the values themselves were
    captured earlier, before any scratch register was clobbered)."""
    emit = seq.append
    dsts = _dst_regs(instr)
    emit(_mov_imm(GPR(6), len(dsts)))
    emit(_stl(base + P.RP_NUM_DSTS, GPR(6)))
    for index, reg in enumerate(dsts):
        emit(_mov_imm(GPR(6), reg))
        emit(_stl(base + P.RP_REG_NUMS + 4 * index, GPR(6)))


# ---------------------------------------------------------------------
# batched site execution: one array-op replay of a whole call sequence
# ---------------------------------------------------------------------
#
# The injected sequences above are rigid by construction: straight-line
# spills, immediate field initializers, one address computation, one
# JCAL, and the mirrored restores.  ``compile_site_plan`` pattern-matches
# a decoded instruction run back into that shape at decode time: the
# frame image's static bytes, the byte columns every STL touches and
# every LDL reads, the op lists, and the per-site stats/telemetry cost
# splits (spill / fill / save_restore / param_marshal — identical to
# per-record ``sassi_key`` classification, which tests enforce).  On
# its first execution the plan lowers the op lists into a
# ``_SiteProgram``, a fixed dataflow program with one gather, one
# scatter and one write-back per phase, so a visit no longer walks the
# sequence op by op.
#
# Anything that does not match — predicated original sites beyond the
# Figure 2 guard-flag pair, exotic register indices, out-of-frame stack
# pointers at run time — falls back to the per-instruction path, which
# stays authoritative.


def _gpr_index(operand) -> Optional[int]:
    """Register index of a non-RZ GPR operand (None otherwise)."""
    if isinstance(operand, GPR) and not operand.is_zero:
        return operand.index
    return None


def _is_rz(operand) -> bool:
    return isinstance(operand, GPR) and operand.is_zero


def _local_ref(operand) -> Optional[MemRef]:
    """The ``[R1 + offset]`` local reference of an injected STL/LDL."""
    if isinstance(operand, MemRef) and operand.space is MemSpace.LOCAL \
            and isinstance(operand.base, GPR) and not operand.base.is_zero \
            and operand.base.index == 1 and operand.offset >= 0:
        return operand
    return None


class SiteSequencePlan:
    """One instrumentation site's call sequence, compiled to array ops.

    ``execute`` replays the whole sequence for the active lanes and
    invokes the handler binding exactly as ``JCAL`` would.  It returns
    the number of ``divergence.partial_dispatch`` telemetry increments
    the per-record path would have made (guard-flag pairs at predicated
    sites), or ``None`` when a run-time precondition fails and the
    caller must fall back to per-instruction execution *before any
    state changed*.

    The matched op lists (``ops``/``post_ops``) are lowered once, on the
    plan's first execution, into a :class:`_SiteProgram`; a visit then
    costs a fixed few dozen array operations however many spills,
    fields and fills the sequence has.
    """

    __slots__ = ("start", "records", "frame", "jcal_addr", "jcal_index",
                 "ops", "post_ops", "template", "store_cols", "fill_cols",
                 "max_touch", "max_reg", "length", "n_pairs",
                 "thread_weight", "opcode_counts", "issue_cycles",
                 "telemetry_counts", "site_id", "_program", "_seeds")

    def __init__(self, start, records, frame, jcal_addr, jcal_index, ops,
                 post_ops, template, store_cols, fill_cols, max_reg,
                 n_pairs, site_id=None):
        self.start = start
        #: the injector's stable site id (the original instruction index,
        #: recovered from the ``bp.id`` constant baked into the frame
        #: template); None when the sequence carried no recognizable id.
        self.site_id = site_id
        self.records = records
        self.frame = frame
        self.jcal_addr = jcal_addr
        self.jcal_index = jcal_index
        self.ops = ops
        self.post_ops = post_ops
        self.template = template
        self.store_cols = store_cols
        self.fill_cols = fill_cols
        touch = [int(store_cols.max()) + 1] if store_cols.size else [0]
        if fill_cols.size:
            touch.append(int(fill_cols.max()) + 1)
        self.max_touch = max(touch)
        self.max_reg = max_reg
        self.length = len(records)
        self.n_pairs = n_pairs
        # --- once-per-site cost accounting (stats + telemetry) -------
        # A guard-flag pair's two complementary records together touch
        # each active lane exactly once, so per-thread counts collapse
        # to (length - n_pairs) * active_lanes.
        self.thread_weight = self.length - n_pairs
        counts: dict = {}
        for dec in records:
            counts[dec.opcode] = counts.get(dec.opcode, 0) + 1
        self.opcode_counts = counts
        self.issue_cycles = block_issue_cycles(dec.opcode for dec in records)
        self.telemetry_counts = block_dispatch_counts(records)
        self._program: Optional[_SiteProgram] = None
        self._seeds: dict = {}

    def sassi_cost_split(self) -> dict:
        """The site's injected-overhead split by telemetry bucket."""
        return {key: value for key, value in self.telemetry_counts.items()
                if key.startswith("sassi.")}

    @property
    def save_restore_instructions(self) -> int:
        return sum(self.telemetry_counts.get(key, 0)
                   for key in SAVE_RESTORE_KEYS)

    def program(self) -> "_SiteProgram":
        """The lowered dataflow program (built on first use)."""
        if self._program is None:
            self._program = _SiteProgram(self)
        return self._program

    def static_fields(self, base: int) -> dict:
        """The frame's compile-time constant words seen from a parameter
        view at frame offset *base*, keyed like the view's static-read
        cache: ``{(offset - base, 4): value}``.

        While the handler this plan calls runs, the frame holds exactly
        these values (the image was just scattered), so a view seeded
        with them never has to read them back from local memory.
        """
        seed = self._seeds.get(base)
        if seed is None:
            seed = {(offset - base, 4): value
                    for offset, value in self.program().statics.items()
                    if offset >= base}
            self._seeds[base] = seed
        return seed

    # ----------------------------------------------------------- replay

    def execute(self, ex, warp, cta, g, g_idx, counter) -> Optional[int]:
        n = g_idx.size
        if n == 0 or self.max_reg >= warp.num_regs \
                or self.jcal_addr not in ex.device.handler_bindings:
            return None
        regs = warp.regs
        r1 = regs[1][g_idx]
        frame = self.frame
        block = cta.local_block()
        width = block.shape[1]
        if int(r1.min()) < frame \
                or int(r1.max()) - frame + self.max_touch > width:
            return None
        prog = self.program()
        # each lane's frame base as an index into the flat local block
        base = warp.lane_thread_ids[g_idx] * width + r1
        base -= frame
        flat = block.reshape(-1)

        # derived values in program order; vals[0] is the lowered R1
        vals = [r1 - np.uint32(frame)]
        append = vals.append
        partial = 0
        preds = warp.preds
        for op in prog.nodes:
            kind = op[0]
            if kind == _LOAD:
                append(regs[op[1]][g_idx])
            elif kind == _ORC:
                append(vals[op[1]] | ex._read(warp, op[2]))
            elif kind == _ADD:
                append(vals[op[1]] + op[2])
            elif kind == _P2R:
                append(_P2R_WEIGHTS.dot(preds[:7])[g_idx] & op[1])
            elif kind == _GUARD:
                row = preds[op[1]][g_idx]
                if op[2]:
                    row = ~row
                passing = int(np.count_nonzero(row))
                partial += (passing < n) + (passing > 0)
                append(np.where(row, op[3], op[4]))
            elif kind == _ADDCC:
                a = vals[op[1]]
                result = a + op[2]
                append(result)
                append(result < a)
            elif kind == _ADDX:
                append(vals[op[1]] + vals[op[2]].astype(np.uint32))
            elif kind == _CARRY:
                append(warp.carry[g_idx])
            elif kind == _ORI:
                append(vals[op[1]] | op[2])
            else:  # _CONST
                append(op[1])

        # the frame image — spilled registers (one gather), derived
        # words, template constants — scattered in one pass
        payload = np.empty((n, prog.n_words), dtype="<u4")
        payload[:, :prog.n_gather] = \
            regs.take(prog.gather_rows, 0).take(g_idx, 1).T
        for column, index in prog.node_words:
            payload[:, column] = vals[index]
        payload[:, prog.const_from:] = prog.const_words
        flat[base[:, None] + prog.store_cols] = payload.view(np.uint8)

        # architectural state at the call: each register's last
        # pre-call value (R1 lowered, argument pointers live)
        regs[prog.env_const_rows, g_idx] = prog.env_const_values
        for reg, index in prog.env_nodes:
            regs[reg][g_idx] = vals[index]
        if prog.carry is not None:
            warp.carry[g_idx] = vals[prog.carry]

        ex.stats.handler_calls += 1
        warp.pc = self.jcal_index
        ex._site_plan = self
        try:
            ex.device.handler_bindings[self.jcal_addr](ex, warp, cta, g)
        finally:
            ex._site_plan = None

        # restores: one gather of every slot still read after the call
        # (the handler may have rewritten the frame — SetRegValue)
        if prog.fill_cols.size:
            filled = flat[base[:, None] + prog.fill_cols].view("<u4")
        for rows, bits, column, reg in prog.r2p:
            value = filled[:, column] if reg is None else regs[reg][g_idx]
            preds[rows, g_idx] = (value & bits) != 0
        if prog.carry_restore is not None:
            column, reg = prog.carry_restore
            value = filled[:, column] if reg is None else regs[reg][g_idx]
            warp.carry[g_idx] = value != 0
        if prog.fill_rows.size:
            regs[prog.fill_rows, g_idx] = filled[:, :prog.fill_rows.size].T
        regs[1][g_idx] = r1
        warp.pc = self.start + self.length
        return partial


# node kinds of a lowered site program
_LOAD, _CARRY, _CONST, _ADD, _ADDCC, _ADDX, _GUARD, _P2R, _ORC, _ORI = (
    "load", "carry", "const", "add", "addcc", "addx", "guard", "p2r",
    "orc", "ori")

#: ``P2R`` packs P0..P6 as bit i = Pi.
_P2R_WEIGHTS = np.uint32(1) << np.arange(7, dtype=np.uint32)

_U32 = 0xFFFFFFFF


class _SiteProgram:
    """A :class:`SiteSequencePlan` lowered to one fixed dataflow program.

    Lowering runs the matched op lists symbolically.  A register holds
    a constant, its original value, or a derived value (``("c", int)``,
    ``("r", reg)``, ``("v", index)``); derived values are *nodes*,
    evaluated per visit in order, whose operands index the visit's
    value list (entry 0 is the lowered R1).  Then:

    * stores of original registers become one register-file gather
      (``gather_rows``) into the frame payload;
    * stores of constants are template words, so an immediate that is
      overwritten before the call costs nothing at run time;
    * only each register's last pre-call value reaches the register
      file — constants in one indexed write, derived values row by row;
    * of the restores, only each register's last fill is written back
      (one indexed write), and besides those only the slots the
      predicate and carry restores read are gathered.

    Payload words are ordered gathered, derived, constant;
    ``store_cols`` maps each payload byte to its frame byte offset.
    """

    __slots__ = ("nodes", "n_words", "n_gather", "gather_rows",
                 "node_words", "const_from", "const_words", "store_cols",
                 "statics", "env_const_rows", "env_const_values",
                 "env_nodes", "carry", "fill_cols", "fill_rows", "r2p",
                 "carry_restore", "_size", "_memo")

    def __init__(self, plan: SiteSequencePlan):
        self.nodes: list = []
        self._size = 1          # vals[0] is the lowered R1
        self._memo: dict = {}
        self._lower_call(plan)
        self._lower_restores(plan)

    def _emit(self, op: tuple, outputs: int = 1, pure: bool = True) -> int:
        """Append node *op*; return the value index of its first output.
        Pure nodes are shared between identical computations."""
        if pure and op in self._memo:
            return self._memo[op]
        index = self._size
        self.nodes.append(op)
        self._size += outputs
        if pure:
            self._memo[op] = index
        return index

    def _value(self, ref) -> int:
        """The value index holding *ref*, emitting a load if needed."""
        kind = ref[0]
        if kind == "v":
            return ref[1]
        if kind == "r":
            return self._emit((_LOAD, ref[1]))
        if kind == "carry":
            return self._emit((_CARRY,))
        value = ref[1]
        return self._emit((_CONST, np.bool_(value) if isinstance(value, bool)
                           else np.uint32(value)))

    def _lower_call(self, plan: SiteSequencePlan) -> None:
        env: dict = {1: ("v", 0)}
        carry = ("carry",)         # the architectural carry, unread yet
        carry_dirty = False
        sources: dict = {}         # payload byte position -> value ref

        def read(reg):
            return env.get(reg, ("r", reg))

        for op in plan.ops:
            kind = op[0]
            if kind == "st":
                sources[op[1]] = read(op[2])
            elif kind == "st64":
                sources[op[1]] = read(op[2])
                sources[op[1] + 4] = read(op[2] + 1)
            elif kind == "imm":
                env[op[1]] = ("c", op[2])
            elif kind == "add":
                _, dst, src, imm = op
                a = read(src)
                env[dst] = ("c", (a[1] + imm) & _U32) if a[0] == "c" \
                    else ("v", self._emit((_ADD, self._value(a),
                                           np.uint32(imm))))
            elif kind == "ori":
                _, dst, src, imm = op
                a = read(src)
                env[dst] = ("c", a[1] | imm) if a[0] == "c" \
                    else ("v", self._emit((_ORI, self._value(a),
                                           np.uint32(imm))))
            elif kind == "orc":
                _, dst, src, cref = op
                env[dst] = ("v", self._emit((_ORC, self._value(read(src)),
                                             cref)))
            elif kind == "addcc":
                _, dst, src, imm = op
                a = read(src) if src is not None else ("c", 0)
                if a[0] == "c":
                    result = (a[1] + imm) & _U32
                    value, carry = ("c", result), ("c", result < a[1])
                else:
                    index = self._emit((_ADDCC, self._value(a),
                                        np.uint32(imm)), outputs=2)
                    value, carry = ("v", index), ("v", index + 1)
                carry_dirty = True
                if dst is not None:
                    env[dst] = value
            elif kind == "addx":
                _, dst, src = op
                a = read(src) if src is not None else ("c", 0)
                if a[0] == "c" and carry[0] == "c":
                    env[dst] = ("c", (a[1] + int(carry[1])) & _U32)
                else:
                    env[dst] = ("v", self._emit(
                        (_ADDX, self._value(a), self._value(carry))))
            elif kind == "guard":
                _, dst, pred, negated, v_pass, v_fail = op
                # never shared: every pair counts its own partial dispatch
                env[dst] = ("v", self._emit(
                    (_GUARD, pred, negated, np.uint32(v_pass),
                     np.uint32(v_fail)), pure=False))
            else:  # "p2r"
                env[op[1]] = ("v", self._emit((_P2R, np.uint32(op[2]))))

        # frame payload words, regrouped gathered / derived / constant
        template = plan.template
        gathered, derived, consts = [], [], []
        for pos in range(0, template.size, 4):
            ref = sources.get(pos)
            if ref is None:
                ref = ("c", int(template[pos:pos + 4].view("<u4")[0]))
            if ref[0] == "r":
                gathered.append((pos, ref))
            elif ref[0] == "c":
                consts.append((pos, ref))
            else:
                derived.append((pos, ref))
        words = gathered + derived + consts
        self.n_words = len(words)
        self.n_gather = len(gathered)
        self.const_from = len(gathered) + len(derived)
        self.gather_rows = np.asarray([ref[1] for _, ref in gathered],
                                      dtype=np.int64)
        self.node_words = tuple(
            (self.n_gather + column, self._value(ref))
            for column, (_, ref) in enumerate(derived))
        self.const_words = np.asarray([ref[1] for _, ref in consts],
                                      dtype=np.uint32)
        self.statics = {int(plan.store_cols[pos]): ref[1]
                        for pos, ref in consts}
        self.store_cols = np.concatenate(
            [plan.store_cols[pos:pos + 4] for pos, _ in words]) \
            if words else np.zeros(0, dtype=np.int64)

        const_env = sorted((reg, ref[1]) for reg, ref in env.items()
                           if ref[0] == "c")
        self.env_const_rows = np.asarray(
            [reg for reg, _ in const_env], dtype=np.int64)[:, None]
        self.env_const_values = np.asarray(
            [value for _, value in const_env], dtype=np.uint32)[:, None]
        self.env_nodes = tuple((reg, self._value(ref))
                               for reg, ref in sorted(env.items())
                               if ref[0] != "c")
        self.carry = self._value(carry) if carry_dirty else None

    def _lower_restores(self, plan: SiteSequencePlan) -> None:
        slot_of: dict = {}          # register -> its latest fill slot
        reads = []                  # (mask, slot or None, register)
        carry_read = None
        for op in plan.post_ops:
            kind = op[0]
            if kind == "fill":
                slot_of[op[1]] = op[2]
            elif kind == "r2p":
                reads.append((op[2], slot_of.get(op[1]), op[1]))
            else:  # "ccres": only the last carry restore is visible
                carry_read = (slot_of.get(op[1]), op[1])

        final = sorted(slot_of.items())
        slots = [slot for _, slot in final]
        extra = [slot for _, slot, _ in reads]
        if carry_read is not None:
            extra.append(carry_read[0])
        for slot in extra:
            if slot is not None and slot not in slots:
                slots.append(slot)
        column = {}
        for index, slot in enumerate(slots):
            column.setdefault(slot, index)
        self.fill_cols = np.concatenate(
            [plan.fill_cols[4 * slot:4 * slot + 4] for slot in slots]) \
            if slots else np.zeros(0, dtype=np.int64)
        self.fill_rows = np.asarray([reg for reg, _ in final],
                                    dtype=np.int64)[:, None]

        def source(slot, reg):
            return (column[slot], None) if slot is not None \
                else (None, reg)

        r2p = []
        for mask, slot, reg in reads:
            rows = [index for index in range(7) if mask >> index & 1]
            if rows:
                r2p.append((np.asarray(rows, dtype=np.int64)[:, None],
                            (np.uint32(1) << np.asarray(
                                rows, dtype=np.uint32))[:, None],
                            *source(slot, reg)))
        self.r2p = tuple(r2p)
        self.carry_restore = source(*carry_read) if carry_read else None


def compile_site_plan(records, start: int, handler_base: int):
    """Compile the injected run beginning at ``records[start]`` into a
    :class:`SiteSequencePlan`, or return None when the run does not
    match the shapes :func:`build_call_sequence` emits (the caller then
    leaves those records on the per-instruction path)."""
    limit = len(records)
    first = records[start]
    frame = _frame_alloc(first)
    if frame is None:
        return None

    ops: list = []
    post_ops: list = []
    template = bytearray()
    store_cols: List[int] = []
    covered: Set[int] = set()
    fill_cols: List[int] = []
    consts: dict = {}
    max_reg = 1
    n_pairs = 0
    jcal_addr = None
    jcal_index = None
    site_id = None
    index = start + 1

    def track(reg):
        nonlocal max_reg
        if reg is not None and reg > max_reg:
            max_reg = reg

    def add_store(offset, width):
        nonlocal template, store_cols
        span = range(offset, offset + width)
        if covered.intersection(span) or offset + width > frame:
            return None
        covered.update(span)
        pos = len(store_cols)
        store_cols.extend(span)
        template.extend(b"\x00" * width)
        return pos

    while index < limit:
        dec = records[index]
        if dec.tag != "sassi":
            return None
        opcode = dec.opcode
        if jcal_index is None:
            # ---------------- pre-call: spills, fields, arguments ----
            if not dec.uncond:
                pair = _match_guard_pair(records, index, limit)
                if pair is None:
                    return None
                dst, pred_index, negated, v_pass, v_fail = pair
                track(dst)
                consts.pop(dst, None)
                ops.append(("guard", dst, pred_index, negated,
                            v_pass, v_fail))
                n_pairs += 1
                index += 2
                continue
            if opcode is Opcode.JCAL:
                target = dec.srcs[0] if dec.srcs else None
                if not isinstance(target, Imm):
                    return None
                address = target.value & 0xFFFFFFFF
                if address < handler_base:
                    return None
                jcal_addr = address
                jcal_index = index
                index += 1
                continue
            if opcode is Opcode.STL:
                ref = _local_ref(dec.srcs[0]) if dec.srcs else None
                data = _gpr_index(dec.srcs[1]) if len(dec.srcs) > 1 else None
                wide = "64" in dec.mods
                if ref is None or data is None \
                        or (dec.mods and dec.mods != ("64",)):
                    return None
                track(data + 1 if wide else data)
                width = 8 if wide else 4
                pos = add_store(ref.offset, width)
                if pos is None:
                    return None
                if not wide and data in consts:
                    template[pos:pos + 4] = \
                        int(consts[data]).to_bytes(4, "little")
                    if ref.offset == P.BP_ID:
                        site_id = consts[data]
                elif wide and data in consts and data + 1 in consts:
                    template[pos:pos + 4] = \
                        int(consts[data]).to_bytes(4, "little")
                    template[pos + 4:pos + 8] = \
                        int(consts[data + 1]).to_bytes(4, "little")
                elif wide:
                    ops.append(("st64", pos, data))
                else:
                    ops.append(("st", pos, data))
            elif opcode in (Opcode.IADD, Opcode.IADD32I):
                op = _match_iadd(dec, consts, track)
                if op is None:
                    return None
                if op[0] != "nop":
                    ops.append(op)
            elif opcode is Opcode.MOV32I:
                dst = _gpr_index(dec.dsts[0]) if dec.dsts else None
                value = dec.srcs[0] if dec.srcs else None
                if dst is None or not isinstance(value, Imm) or dec.mods:
                    return None
                track(dst)
                consts[dst] = value.value & 0xFFFFFFFF
                ops.append(("imm", dst, consts[dst]))
            elif opcode is Opcode.P2R:
                dst = _gpr_index(dec.dsts[0]) if dec.dsts else None
                maskop = dec.srcs[-1] if dec.srcs else None
                if dst is None or not isinstance(maskop, Imm) or dec.mods:
                    return None
                track(dst)
                consts.pop(dst, None)
                ops.append(("p2r", dst, maskop.value & 0xFFFFFFFF))
            elif opcode in (Opcode.LOP, Opcode.LOP32I):
                if dec.mods != ("OR",) or len(dec.srcs) != 2 or not dec.dsts:
                    return None
                dst = _gpr_index(dec.dsts[0])
                src = _gpr_index(dec.srcs[0])
                other = dec.srcs[1]
                if dst is None or src is None or src in consts:
                    return None
                track(dst)
                track(src)
                consts.pop(dst, None)
                if isinstance(other, ConstRef):
                    ops.append(("orc", dst, src, other))
                elif isinstance(other, Imm):
                    ops.append(("ori", dst, src, other.value & 0xFFFFFFFF))
                else:
                    return None
            else:
                return None
        else:
            # ---------------- post-call: restores, stack release -----
            if not dec.uncond:
                return None
            if opcode is Opcode.LDL:
                dst = _gpr_index(dec.dsts[0]) if dec.dsts else None
                ref = _local_ref(dec.srcs[0]) if dec.srcs else None
                if dst is None or ref is None or dec.mods \
                        or ref.offset + 4 > frame:
                    return None
                track(dst)
                slot = len(fill_cols) // 4
                fill_cols.extend(range(ref.offset, ref.offset + 4))
                post_ops.append(("fill", dst, slot))
            elif opcode is Opcode.R2P:
                src = _gpr_index(dec.srcs[0]) if dec.srcs else None
                maskop = dec.srcs[1] if len(dec.srcs) > 1 else None
                if src is None or not isinstance(maskop, Imm) or dec.mods:
                    return None
                track(src)
                post_ops.append(("r2p", src, maskop.value & 0xFFFFFFFF))
            elif opcode in (Opcode.IADD, Opcode.IADD32I):
                dst = dec.dsts[0] if dec.dsts else None
                a = dec.srcs[0] if dec.srcs else None
                b = dec.srcs[1] if len(dec.srcs) > 1 else None
                if dec.mods == ("CC",) and _is_rz(dst) \
                        and _gpr_index(a) is not None \
                        and isinstance(b, Imm) and b.value == -1:
                    track(a.index)
                    post_ops.append(("ccres", a.index))
                elif not dec.mods and isinstance(dst, GPR) \
                        and not dst.is_zero and dst.index == 1 \
                        and _gpr_index(a) == 1 and isinstance(b, Imm) \
                        and b.value == frame:
                    # stack release: the sequence is complete
                    plan_records = records[start:index + 1]
                    if any(not rec.sassi for rec in plan_records):
                        return None
                    return SiteSequencePlan(
                        start, plan_records, frame, jcal_addr,
                        jcal_index, ops, post_ops,
                        np.frombuffer(bytes(template), dtype=np.uint8),
                        np.asarray(store_cols, dtype=np.int64),
                        np.asarray(fill_cols, dtype=np.int64),
                        max_reg, n_pairs, site_id)
                else:
                    return None
            else:
                return None
        index += 1
    return None


def _frame_alloc(dec) -> Optional[int]:
    """The frame size of an opening ``IADD R1, R1, -frame`` (or None)."""
    if dec.tag != "sassi" or not dec.uncond or dec.mods \
            or dec.opcode not in (Opcode.IADD, Opcode.IADD32I):
        return None
    dst = dec.dsts[0] if dec.dsts else None
    a = dec.srcs[0] if dec.srcs else None
    b = dec.srcs[1] if len(dec.srcs) > 1 else None
    if isinstance(dst, GPR) and not dst.is_zero and dst.index == 1 \
            and _gpr_index(a) == 1 and isinstance(b, Imm) and b.value < 0:
        return -b.value
    return None


def _match_guard_pair(records, index: int, limit: int):
    """The Figure 2 ``@P IADD Rd, RZ, 1 / @!P IADD Rd, RZ, 0`` pair."""
    if index + 1 >= limit:
        return None
    first, second = records[index], records[index + 1]
    for dec in (first, second):
        if dec.tag != "sassi" or dec.mods \
                or dec.opcode not in (Opcode.IADD, Opcode.IADD32I) \
                or not dec.dsts or _gpr_index(dec.dsts[0]) is None \
                or len(dec.srcs) != 2 or not _is_rz(dec.srcs[0]) \
                or not isinstance(dec.srcs[1], Imm):
            return None
    dst = first.dsts[0].index
    if second.dsts[0].index != dst:
        return None
    if first.pred_index != second.pred_index \
            or first.negated == second.negated or first.pred_index == 7:
        return None
    return (dst, first.pred_index, first.negated,
            first.srcs[1].value & 0xFFFFFFFF,
            second.srcs[1].value & 0xFFFFFFFF)


def _match_iadd(dec, consts: dict, track):
    """Compile one pre-call IADD form (see :func:`build_call_sequence`).

    Returns an op tuple, ``("nop",)`` for a fully folded constant, or
    None when the form is not one the injector emits.
    """
    dst_op = dec.dsts[0] if dec.dsts else None
    a = dec.srcs[0] if dec.srcs else None
    b = dec.srcs[1] if len(dec.srcs) > 1 else None
    dst = _gpr_index(dst_op)
    mods = dec.mods
    if mods == ("X",):
        # IADD.X d, a, RZ — consume the carry produced just above (or
        # the architectural carry for the save-side RZ,RZ read)
        if not _is_rz(b) or dst is None:
            return None
        src = _gpr_index(a)
        if src is None and not _is_rz(a):
            return None
        if src is not None and src in consts:
            return None
        track(dst)
        track(src)
        consts.pop(dst, None)
        return ("addx", dst, src)
    if mods == ("CC",):
        if not isinstance(b, Imm):
            return None
        src = _gpr_index(a)
        if src is None and not _is_rz(a):
            return None
        if src is not None and src in consts:
            return None
        if dst is None and not _is_rz(dst_op):
            return None
        track(dst)
        track(src)
        if dst is not None:
            consts.pop(dst, None)
        return ("addcc", dst, src, b.value & 0xFFFFFFFF)
    if mods:
        return None
    if dst is None or dst == 1 or not isinstance(b, Imm):
        return None
    track(dst)
    if _is_rz(a):
        consts[dst] = b.value & 0xFFFFFFFF
        return ("imm", dst, consts[dst])
    src = _gpr_index(a)
    if src is None:
        return None
    track(src)
    if src in consts:
        consts[dst] = (consts[src] + b.value) & 0xFFFFFFFF
        return ("imm", dst, consts[dst])
    consts.pop(dst, None)
    return ("add", dst, src, b.value & 0xFFFFFFFF)
