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

import functools
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

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
from repro.isa.registers import GPR, RZ
from repro.sassi import params as P
from repro.sassi.spec import InstrumentationSpec, What, Where
from repro.sim.memory import SHARED_BASE
from repro.sim.warp import WARP_SIZE

#: Caller-saved registers a ≤16-register handler may clobber (R1 is the
#: stack pointer and is callee-preserved by construction).
CALLER_SAVED = frozenset(r for r in range(16) if r != 1)

#: What the handler runtime leaves in the caller-saved registers of the
#: calling lanes after every call, so under-spilling shows at once.
POISON = 0xDEADBEEF

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
# JCAL, and the mirrored restores.  ``compile_site_plan`` matches a
# decoded instruction run back into that shape at decode time and, in
# the same walk, lowers it to the plan's fixed dataflow program: each
# register's state before the call (a constant, its original value or a
# derived node) is tracked as the records are matched, every STL's
# source is keyed by its frame offset, and every LDL, R2P and carry
# restore after the JCAL is resolved both as written and against the
# stored words (the clean-frame proof).  A visit counts once; the
# executor folds the launch's stats and telemetry cost splits (spill /
# fill / save_restore / param_marshal) from the plan's records and
# their ``sassi_key`` when the launch ends.  A visit is then one
# register gather, one scatter of the frame image in whole words, one
# register write at the call and — when the frame comes back as it
# went out — one after it, never a walk of the sequence op by op.
#
# Anything that does not match — predicated original sites beyond the
# Figure 2 guard-flag pair, exotic register indices, out-of-frame stack
# pointers at run time — falls back to the per-instruction path, which
# stays authoritative.  A frame whose base is not word-aligned moves
# byte by byte, and one the handler rewrote is restored as written.


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
    """One instrumentation site's call sequence, lowered to a fixed
    dataflow program.

    ``execute`` replays the whole sequence for the active lanes and
    invokes the handler binding exactly as ``JCAL`` would.  It returns
    the number of ``divergence.partial_dispatch`` telemetry increments
    the per-record path would have made (guard-flag pairs at predicated
    sites), or ``None`` when a run-time precondition fails and the
    caller must fall back to per-instruction execution *before any
    state changed*.  A visit costs a fixed two dozen or so array
    operations however many spills, fields and fills the sequence has.

    :func:`compile_site_plan` builds the program while it matches the
    records.  A register holds a constant, its original value, or a
    derived value (``("c", int)``, ``("r", reg)``, ``("v", index)``);
    derived values are *nodes*, evaluated per visit in order, whose
    operands index the visit's value list (entry 0 is the lowered R1).

    A visit assembles one *value matrix*, a row per value and a column
    per active lane, laid out as:

    * ``[0, n_words)`` — the frame image's words: stored registers
      (filled by one register-file gather, ``take_rows``), derived
      words, then constant words (so an immediate overwritten before
      the call costs nothing at run time);
    * ``const_rows`` — the constant words, plus the constants the
      registers hold at the call and :data:`POISON`, in one block;
    * the original R1 (gathered with the spilled registers), then the
      derived values only the registers at the call hold.

    The frame image goes out in one scatter of whole words
    (``store_words``, frame word offsets; ``store_cols`` maps each image
    byte instead, for a frame whose base is not word-aligned), and the
    registers at the call come from one take of the matrix
    (``env_rows``/``env_src``).

    Each restore is resolved twice as it is matched.  As written
    (``fill_*``, ``r2p``, ``carry_restore``): only each register's last
    fill is written back, and besides those only the slots the predicate
    and carry restores read are gathered.  And for a *clean* frame —
    every stored word still what was stored, which a visit checks with
    one comparison — when each fill reads a stored word, every ``R2P``
    reads back its own ``P2R`` word under a covering mask (an identity:
    the injected code writes no predicate, and a handler changes the
    caller's state only through its frame and the caller-saved
    registers) and the carry restore reads back the carry read before
    the call (an identity unless an ``IADD.CC`` ran): then ``clean`` is
    set, the net effect of the restores and the caller-saved poison is
    one register write from the value matrix (``net``), and
    ``carry_back`` names the value the carry returns to when an
    ``IADD.CC`` dirtied it.
    """

    __slots__ = ("start", "records", "frame", "jcal_addr", "jcal_index",
                 "max_touch", "max_reg", "length", "n_pairs",
                 "thread_weight", "site_id", "nodes", "n_words",
                 "take_rows", "node_rows",
                 "const_rows", "const_col",
                 "store_cols", "store_words", "words", "statics",
                 "env_rows", "env_src", "carry", "fill_cols", "fill_words",
                 "fill_rows", "fill_count", "r2p", "carry_restore", "clean",
                 "carry_back", "_net_fills", "_r1_row", "_poison_row",
                 "_nets", "_seeds")

    def __init__(self, start, records, frame, jcal_addr, jcal_index, *,
                 nodes, stored, env, carry, fills, r2p, carry_read, clean,
                 carry_back, max_touch, max_reg, n_pairs, site_id):
        self.start = start
        #: the injector's stable site id (the original instruction index,
        #: recovered from the ``bp.id`` constant stored into the frame);
        #: None when the sequence carried no recognizable id.
        self.site_id = site_id
        self.records = records
        self.frame = frame
        self.jcal_addr = jcal_addr
        self.jcal_index = jcal_index
        self.max_touch = max_touch
        self.max_reg = max_reg
        self.length = len(records)
        self.n_pairs = n_pairs
        # --- per-visit thread accounting ----------------------------
        # A guard-flag pair's two complementary records together touch
        # each active lane exactly once, so per-thread counts collapse
        # to (length - n_pairs) * active_lanes.
        self.thread_weight = self.length - n_pairs
        self._seeds: dict = {}
        self._nets: dict = {}

        # --- the call: frame words gathered / derived / constant -----
        self.nodes = nodes
        words = sorted(stored.items(),
                       key=lambda word: _WORD_ORDER[word[1][0]])
        offsets = [offset for offset, _ in words]
        refs = [ref for _, ref in words]
        self.n_words = len(words)
        self.statics = {offset: ref[1] for offset, ref in words
                        if ref[0] == "c"}
        self.store_cols = _byte_cols(offsets)
        self.store_words = np.asarray(offsets, dtype=np.int64)[:, None] >> 2

        # the value matrix's rows (see the class docstring)
        first_const = self.n_words - len(self.statics)
        const_refs = refs[first_const:]
        for ref in [ref for _, ref in sorted(env.items()) if ref[0] == "c"] \
                + [("c", POISON)]:
            if ref not in const_refs:
                const_refs.append(ref)
        self.const_rows = slice(first_const,
                                first_const + len(const_refs))
        self.const_col = np.asarray([ref[1] for ref in const_refs],
                                    dtype=np.uint32)[:, None]
        refs[first_const:] = const_refs
        self._r1_row = len(refs)
        refs.append(("r", 1))
        self._poison_row = refs.index(("c", POISON))
        for ref in env.values():
            if ref not in refs:
                refs.append(ref)
        self.take_rows = np.asarray(
            [ref[1] if ref[0] == "r" else 0 for ref in refs],
            dtype=np.int64)
        self.node_rows = tuple((row, ref[1]) for row, ref in enumerate(refs)
                               if ref[0] == "v")
        env_regs = sorted(env)
        self.env_rows = _rows(env_regs)
        self.env_src = np.asarray([refs.index(env[reg]) for reg in env_regs],
                                  dtype=np.int64)
        self.carry = carry

        # --- the restores as written: each register's last fill, then
        # the other slots the predicate and carry restores read -------
        final = sorted(fills.items())
        columns = [offset for _, offset in final]
        reads = [offset for _, offset, _ in r2p]
        if carry_read is not None:
            reads.append(carry_read[0])
        for offset in reads:
            if offset is not None and offset not in columns:
                columns.append(offset)
        self.fill_cols = _byte_cols(columns)
        self.fill_words = np.asarray(columns, dtype=np.int64)[:, None] >> 2
        self.words = all(offset % 4 == 0 for offset in offsets + columns)
        self.fill_rows = _rows(reg for reg, _ in final)
        self.fill_count = len(final)

        def source(offset, reg):
            return (columns.index(offset), None) if offset is not None \
                else (None, reg)

        restores = []
        for mask, offset, reg in r2p:
            rows = [index for index in range(7) if mask >> index & 1]
            if rows:
                restores.append((np.asarray(rows, dtype=np.int64)[:, None],
                                 (np.uint32(1) << np.asarray(
                                     rows, dtype=np.uint32))[:, None],
                                 *source(offset, reg)))
        self.r2p = tuple(restores)
        self.carry_restore = source(*carry_read) if carry_read else None

        # --- the clean-frame write: each fill's stored row -----------
        self.clean = clean
        self.carry_back = carry_back if clean and carry is not None \
            else None
        row_of = {offset: row for row, offset in enumerate(offsets)}
        self._net_fills = {reg: row_of[offset]
                           for reg, offset in final} if clean else {}

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
                    for offset, value in self.statics.items()
                    if offset >= base}
            self._seeds[base] = seed
        return seed

    def net(self, num_regs: int, poisons: bool):
        """``(rows, value rows)`` of a clean visit's one register write:
        each register's last fill, R1, and with *poisons* every other
        caller-saved register the warp has."""
        key = (num_regs, poisons)
        hit = self._nets.get(key)
        if hit is None:
            final = dict(self._net_fills)
            final[1] = self._r1_row
            if poisons:
                for reg in CALLER_SAVED:
                    if reg < num_regs:
                        final.setdefault(reg, self._poison_row)
            regs = sorted(final)
            hit = self._nets[key] = (
                _rows(regs),
                np.asarray([final[reg] for reg in regs], dtype=np.int64))
        return hit

    # ----------------------------------------------------------- replay

    def execute(self, ex, warp, cta, g, g_idx) -> Optional[int]:
        n = g_idx.size
        binding = ex.device.handler_bindings.get(self.jcal_addr)
        if n == 0 or binding is None or self.max_reg >= warp.num_regs:
            return None
        regs = warp.regs
        r1 = regs[1][g_idx]
        frame = self.frame
        block = cta.local_block()
        width = block.shape[1]
        if r1.tobytes() == r1[:1].tobytes() * n:
            # one stack pointer for the whole warp (every real visit)
            shift = int(r1[0]) - frame
            if shift < 0 or shift + self.max_touch > width:
                return None
            words = self.words and not shift & 3
        else:
            if int(r1.min()) < frame \
                    or int(r1.max()) - frame + self.max_touch > width:
                return None
            shift = r1.astype(np.int64) - frame
            words = self.words and not (shift & 3).any()
        # each lane's frame as indices into the flat local block: whole
        # words when the frame is word-aligned, bytes otherwise
        tids = warp.lane_thread_ids[g_idx]
        if words:
            flat = cta.local_words()
            base = tids * (width >> 2) + (shift >> 2)
            index = self.store_words + base
        else:
            flat = block.reshape(-1)
            base = tids * width + shift
            index = base[:, None] + self.store_cols
        lanes = _ALL if n == WARP_SIZE else g_idx

        # derived values in program order; vals[0] is the lowered R1
        vals = [r1 - np.uint32(frame)]
        append = vals.append
        partial = 0
        preds = warp.preds
        for op in self.nodes:
            kind = op[0]
            if kind == _LOAD:
                append(regs[op[1]][g_idx])
            elif kind == _ORC:
                append(vals[op[1]] | ex._read(warp, op[2]))
            elif kind == _ADD:
                append(vals[op[1]] + op[2])
            elif kind == _P2R:
                word = _P2R_WEIGHTS.dot(preds[:7])[g_idx]
                append(word if op[1] == _P2R_ALL else word & op[1])
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
                carry_in = vals[op[2]].astype(np.uint32)
                append(carry_in if op[1] is None else vals[op[1]] + carry_in)
            elif kind == _CARRY:
                append(warp.carry[g_idx])
            elif kind == _ORI:
                append(vals[op[1]] | op[2])
            else:  # _CONST
                append(op[1])

        # the value matrix: one register gather fills the spilled rows
        # (and R1's); derived rows and one constant block complete it
        values = regs.take(self.take_rows, 0)
        if lanes is not _ALL:
            values = values.take(g_idx, 1)
        for row, value in self.node_rows:
            values[row] = vals[value]
        values[self.const_rows] = self.const_col
        # the frame image goes out in one scatter
        image = values[:self.n_words]
        if not words:
            image = np.ascontiguousarray(image.T).view(np.uint8)
        flat[index] = image

        # architectural state at the call: each register's last
        # pre-call value (R1 lowered, argument pointers live)
        _put(regs, self.env_rows, lanes, values.take(self.env_src, 0))
        if self.carry is not None:
            warp.carry[g_idx] = vals[self.carry]

        ex.stats.handler_calls += 1
        warp.pc = self.jcal_index
        poisons = binding.visit(ex, warp, cta, g, g_idx, self)

        if self.clean and flat[index].tobytes() == image.tobytes():
            # the frame still holds what was stored: every fill reloads
            # a known value row, the predicate restores are identities
            # and the carry comes back from its read; one register write
            # lands the fills, the caller-saved poison and R1
            rows, src = self.net(warp.num_regs, poisons)
            _put(regs, rows, lanes, values.take(src, 0))
            if self.carry_back is not None:
                warp.carry[g_idx] = vals[self.carry_back]
        else:
            self._restore(warp, flat, base, words, g_idx, lanes, poisons)
            regs[1][g_idx] = r1
        warp.pc = self.start + self.length
        return partial

    def _restore(self, warp, flat, base, words, g_idx, lanes,
                 poisons) -> None:
        """The restores as written, after a handler that rewrote its
        frame (``SetRegValue``): poison, then one gather of every slot
        still read after the call."""
        regs = warp.regs
        if poisons:
            poison_caller_saved(warp, lanes)
        filled = None
        if self.fill_cols.size:
            if words:
                filled = flat[self.fill_words + base]
            else:
                filled = flat[base[:, None] + self.fill_cols].view("<u4").T
        for rows, bits, column, reg in self.r2p:
            value = filled[column] if reg is None else regs[reg][g_idx]
            warp.preds[rows, g_idx] = (value & bits) != 0
        if self.carry_restore is not None:
            column, reg = self.carry_restore
            value = filled[column] if reg is None else regs[reg][g_idx]
            warp.carry[g_idx] = value != 0
        if self.fill_count:
            _put(regs, self.fill_rows, lanes, filled[:self.fill_count])


#: lane selector of a full-warp visit: whole rows instead of a gather
_ALL = slice(None)

#: frame words in the value matrix: gathered registers, derived values,
#: then constants
_WORD_ORDER = {"r": 0, "v": 1, "c": 2}


def _byte_cols(offsets: List[int]) -> np.ndarray:
    """The byte columns of the words at frame *offsets*, in order."""
    return (np.asarray(offsets, dtype=np.int64)[:, None]
            + np.arange(4)).reshape(-1)


def _rows(regs: Sequence[int]):
    """A register-row selector: a slice when *regs* is one contiguous
    run, else ``(rows, rows as a column)`` for the two indexing forms."""
    regs = list(regs)
    if regs and regs == list(range(regs[0], regs[-1] + 1)):
        return slice(regs[0], regs[-1] + 1)
    rows = np.asarray(regs, dtype=np.int64)
    return rows, rows[:, None]


def _put(regs: np.ndarray, rows, lanes, values) -> None:
    """``regs[rows, lanes] = values`` for a :func:`_rows` selector."""
    if isinstance(rows, slice):
        regs[rows, lanes] = values
    elif lanes is _ALL:
        regs[rows[0]] = values
    else:
        regs[rows[1], lanes] = values


@functools.lru_cache(maxsize=None)
def _poison_rows(num_regs: int):
    """The caller-saved rows of a warp with *num_regs* registers."""
    return _rows(reg for reg in sorted(CALLER_SAVED) if reg < num_regs)


def poison_caller_saved(warp, lanes) -> None:
    """Overwrite the caller-saved registers of *lanes* (active-lane
    indices, or every lane) with :data:`POISON`."""
    _put(warp.regs, _poison_rows(warp.num_regs), lanes, np.uint32(POISON))


# node kinds of a site program
_LOAD, _CARRY, _CONST, _ADD, _ADDCC, _ADDX, _GUARD, _P2R, _ORC, _ORI = (
    "load", "carry", "const", "add", "addcc", "addx", "guard", "p2r",
    "orc", "ori")

#: ``P2R`` packs P0..P6 as bit i = Pi; a mask of all seven is a no-op.
_P2R_WEIGHTS = np.uint32(1) << np.arange(7, dtype=np.uint32)
_P2R_ALL = 0x7F

_U32 = 0xFFFFFFFF


def compile_site_plan(records, start: int, handler_base: int):
    """Match the injected run beginning at ``records[start]`` and lower
    it to a :class:`SiteSequencePlan` in the same walk, or return None
    when the run does not match the shapes :func:`build_call_sequence`
    emits (the caller then leaves those records on the per-instruction
    path)."""
    limit = len(records)
    frame = _frame_alloc(records[start])
    if frame is None:
        return None

    nodes: list = []
    node_at: dict = {}          # value index -> its node
    memo: dict = {}             # pure node -> its value index
    size = 1                    # vals[0] is the lowered R1
    env: dict = {1: ("v", 0)}   # register -> its state before the call
    carry = None                # value index of the last IADD.CC's carry
    stored: dict = {}           # frame offset -> the word stored there
    fills: dict = {}            # register -> frame offset of its last fill
    held: dict = {}             # register -> stored word its fill reloads
    r2p: list = []              # (mask, fill offset or None, register)
    carry_read = None           # (fill offset or None, register)
    clean = True
    carry_back = None
    max_touch = 0
    max_reg = 1
    n_pairs = 0
    jcal_addr = jcal_index = site_id = None

    def emit(node: tuple, outputs: int = 1, pure: bool = True) -> int:
        """Append *node*; return the value index of its first output.
        Pure nodes are shared between identical computations."""
        nonlocal size
        if pure and node in memo:
            return memo[node]
        index = size
        nodes.append(node)
        node_at[index] = node
        size += outputs
        if pure:
            memo[node] = index
        return index

    def value(state) -> int:
        """The value index holding register *state*."""
        if state[0] == "v":
            return state[1]
        if state[0] == "r":
            return emit((_LOAD, state[1]))
        return emit((_CONST, np.uint32(state[1])))

    def read(reg):
        return env.get(reg, ("r", reg))

    def node_of(state):
        return node_at.get(state[1]) if state and state[0] == "v" else None

    def track(*regs):
        nonlocal max_reg
        for reg in regs:
            if reg is not None and reg > max_reg:
                max_reg = reg

    index = start + 1
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
                # never shared: every pair counts its own partial dispatch
                env[dst] = ("v", emit((_GUARD, pred_index, negated,
                                       np.uint32(v_pass),
                                       np.uint32(v_fail)), pure=False))
                n_pairs += 1
                index += 2
                continue
            if opcode is Opcode.JCAL:
                target = dec.srcs[0] if dec.srcs else None
                if not isinstance(target, Imm) \
                        or target.value & _U32 < handler_base:
                    return None
                jcal_addr = target.value & _U32
                jcal_index = index
            elif opcode is Opcode.STL:
                ref = _local_ref(dec.srcs[0]) if dec.srcs else None
                data = _gpr_index(dec.srcs[1]) if len(dec.srcs) > 1 else None
                wide = "64" in dec.mods
                if ref is None or data is None \
                        or (dec.mods and dec.mods != ("64",)):
                    return None
                offset, width = ref.offset, 8 if wide else 4
                if offset + width > frame or any(
                        at in stored
                        for at in range(offset - 3, offset + width)):
                    return None
                track(data + 1 if wide else data)
                stored[offset] = word = read(data)
                if wide:
                    stored[offset + 4] = read(data + 1)
                elif offset == P.BP_ID and word[0] == "c":
                    site_id = word[1]
                max_touch = max(max_touch, offset + width)
            elif opcode in (Opcode.IADD, Opcode.IADD32I):
                dst_op = dec.dsts[0] if dec.dsts else None
                a = dec.srcs[0] if dec.srcs else None
                b = dec.srcs[1] if len(dec.srcs) > 1 else None
                dst, src = _gpr_index(dst_op), _gpr_index(a)
                if src is None and not _is_rz(a):
                    return None
                state = read(src) if src is not None else ("c", 0)
                mods = dec.mods
                if mods in (("X",), ("CC",)) and src is not None \
                        and state[0] == "c":
                    return None
                if mods == ("X",):
                    # IADD.X d, a, RZ — consume the carry produced just
                    # above (or the architectural carry for the
                    # save-side RZ,RZ read); a zero addend adds nothing
                    if not _is_rz(b) or dst is None:
                        return None
                    env[dst] = ("v", emit((
                        _ADDX, None if src is None else value(state),
                        emit((_CARRY,)) if carry is None else carry)))
                elif mods == ("CC",):
                    if not isinstance(b, Imm) \
                            or (dst is None and not _is_rz(dst_op)):
                        return None
                    result = emit((_ADDCC, value(state),
                                   np.uint32(b.value & _U32)), outputs=2)
                    carry = result + 1
                    if dst is not None:
                        env[dst] = ("v", result)
                elif mods or dst is None or dst == 1 \
                        or not isinstance(b, Imm):
                    return None
                elif state[0] == "c":
                    env[dst] = ("c", (state[1] + b.value) & _U32)
                else:
                    env[dst] = ("v", emit((_ADD, value(state),
                                           np.uint32(b.value & _U32))))
                track(dst, src)
            elif opcode is Opcode.MOV32I:
                dst = _gpr_index(dec.dsts[0]) if dec.dsts else None
                imm = dec.srcs[0] if dec.srcs else None
                if dst is None or not isinstance(imm, Imm) or dec.mods:
                    return None
                track(dst)
                env[dst] = ("c", imm.value & _U32)
            elif opcode is Opcode.P2R:
                dst = _gpr_index(dec.dsts[0]) if dec.dsts else None
                maskop = dec.srcs[-1] if dec.srcs else None
                if dst is None or not isinstance(maskop, Imm) or dec.mods:
                    return None
                track(dst)
                env[dst] = ("v", emit((_P2R, np.uint32(maskop.value
                                                       & _U32))))
            elif opcode in (Opcode.LOP, Opcode.LOP32I):
                if dec.mods != ("OR",) or len(dec.srcs) != 2 or not dec.dsts:
                    return None
                dst = _gpr_index(dec.dsts[0])
                src = _gpr_index(dec.srcs[0])
                other = dec.srcs[1]
                if dst is None or src is None or read(src)[0] == "c":
                    return None
                if isinstance(other, ConstRef):
                    node = (_ORC, value(read(src)), other)
                elif isinstance(other, Imm):
                    node = (_ORI, value(read(src)),
                            np.uint32(other.value & _U32))
                else:
                    return None
                track(dst, src)
                env[dst] = ("v", emit(node))
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
                fills[dst] = ref.offset
                held[dst] = stored.get(ref.offset)
                clean = clean and held[dst] is not None
                max_touch = max(max_touch, ref.offset + 4)
            elif opcode is Opcode.R2P:
                src = _gpr_index(dec.srcs[0]) if dec.srcs else None
                maskop = dec.srcs[1] if len(dec.srcs) > 1 else None
                if src is None or not isinstance(maskop, Imm) or dec.mods:
                    return None
                track(src)
                mask = maskop.value & _U32
                r2p.append((mask, fills.get(src), src))
                # clean: the R2P reads back its own P2R word
                node = node_of(held.get(src))
                clean = clean and node is not None and node[0] == _P2R \
                    and not mask & 0x7F & ~int(node[1])
            elif opcode in (Opcode.IADD, Opcode.IADD32I):
                dst = dec.dsts[0] if dec.dsts else None
                a = dec.srcs[0] if dec.srcs else None
                b = dec.srcs[1] if len(dec.srcs) > 1 else None
                if dec.mods == ("CC",) and _is_rz(dst) \
                        and _gpr_index(a) is not None \
                        and isinstance(b, Imm) and b.value == -1:
                    # the carry restore; only the last one is visible
                    track(a.index)
                    carry_read = (fills.get(a.index), a.index)
                    # clean: it reads back the IADD.X spill of the carry
                    node = node_of(held.get(a.index))
                    if node is None or node[0] != _ADDX \
                            or node[1] is not None \
                            or node_at.get(node[2]) != (_CARRY,):
                        clean = False
                    else:
                        carry_back = node[2]
                elif not dec.mods and _gpr_index(dst) == 1 \
                        and _gpr_index(a) == 1 and isinstance(b, Imm) \
                        and b.value == frame:
                    # stack release: the sequence is complete
                    return SiteSequencePlan(
                        start, records[start:index + 1], frame, jcal_addr,
                        jcal_index, nodes=nodes, stored=stored, env=env,
                        carry=carry, fills=fills, r2p=r2p,
                        carry_read=carry_read, clean=clean,
                        carry_back=carry_back, max_touch=max_touch,
                        max_reg=max_reg, n_pairs=n_pairs, site_id=site_id)
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
    if _gpr_index(dst) == 1 and _gpr_index(a) == 1 \
            and isinstance(b, Imm) and b.value < 0:
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
