"""Parameter objects passed to instrumentation handlers.

The injected call sequence stack-allocates these objects in thread-local
memory and passes generic pointers to them per the ABI (paper Figure 2).
This module defines the byte layouts (shared with :mod:`repro.sassi.abi`,
which emits the stores) and accessor *views* used by handlers at run
time — the views read the very bytes the injected ``STL`` instructions
wrote into simulated local memory.

Layouts (byte offsets within the stack frame):

``SASSIBeforeParams`` / ``SASSIAfterParams`` (0x60 bytes at frame+0x00)::

    0x00  id               int32   site index within the kernel
    0x04  instrWillExecute int32   1 iff the guard passes for this thread
    0x08  fnAddr           int32   kernel base address
    0x0c  insOffset        int32   byte offset of the instrumented
                                   instruction within the kernel
    0x10  PRSpill          int32   spilled predicate file
    0x14  CCSpill          int32   spilled carry flag
    0x18  GPRSpill[16]     int32[] caller-saved register spill slots
    0x58  insEncoding      int32   low word of the instruction encoding

``SASSIMemoryParams`` (0x18 bytes at frame+0x60) — address, properties
(read/write/atomic/volatile bits), width in bytes, domain (memory space).

``SASSICondBranchParams`` (0x10 bytes at frame+0x60) — per-thread branch
direction, taken-target offset, flags.

``SASSIRegisterParams`` (0x28 bytes; at frame+0x60, after the memory
params when both are marshaled at +0x78) — destination-register count,
register numbers, and per-thread values (writable for error injection).
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.isa.instruction import MemSpace
from repro.isa.opcodes import Opcode, OpClass, OPCODE_CLASSES
from repro.sim.warp import WARP_SIZE

# ---- SASSIBeforeParams/AfterParams layout ----
BP_ID = 0x00
BP_WILL_EXECUTE = 0x04
BP_FN_ADDR = 0x08
BP_INS_OFFSET = 0x0C
BP_PR_SPILL = 0x10
BP_CC_SPILL = 0x14
BP_GPR_SPILL = 0x18          # 16 slots, 4 bytes each
BP_INS_ENCODING = 0x58
BP_SIZE = 0x60
NUM_SPILL_SLOTS = 16

# ---- SASSIMemoryParams ----
MP_ADDRESS = 0x00            # int64
MP_PROPERTIES = 0x08
MP_WIDTH = 0x0C
MP_DOMAIN = 0x10
MP_SIZE = 0x18

PROP_IS_LOAD = 1 << 0
PROP_IS_STORE = 1 << 1
PROP_IS_ATOMIC = 1 << 2
PROP_IS_UNIFORM = 1 << 3
PROP_IS_VOLATILE = 1 << 4

# ---- SASSICondBranchParams ----
BRP_DIRECTION = 0x00
BRP_TAKEN_OFFSET = 0x04
BRP_FLAGS = 0x08
BRP_SIZE = 0x10

BRP_FLAG_IS_BREAK = 1 << 0   # the branch is a BRK (loop exit)

# ---- SASSIRegisterParams ----
MAX_REG_DSTS = 4
RP_NUM_DSTS = 0x00
RP_REG_NUMS = 0x04           # MAX_REG_DSTS slots
RP_VALUES = 0x14             # MAX_REG_DSTS slots
RP_SIZE = 0x28


def frame_layout(with_memory: bool, with_branch: bool, with_regs: bool):
    """Byte offsets of each parameter object within the frame and the
    total (16-aligned) frame size.  Matches Figure 2's 0x80 frame for
    before+memory instrumentation."""
    offset = BP_SIZE
    memory_at = branch_at = regs_at = None
    if with_memory:
        memory_at = offset
        offset += MP_SIZE
    if with_branch:
        branch_at = offset
        offset += BRP_SIZE
    if with_regs:
        regs_at = offset
        offset += RP_SIZE
    frame = (offset + 0xF) & ~0xF
    return memory_at, branch_at, regs_at, frame


class _View:
    """Base accessor over per-lane objects in simulated local memory.

    Row reads are served with one fancy-index gather over the CTA's
    local byte block (all active lanes at once) and memoized for the
    view's lifetime — a handler that asks for the same field twice pays
    once.  ``vectorized=False`` keeps the original per-lane
    ``Memory.read`` loop as the bit-exact differential reference; the
    gather also falls back to it whenever an access would leave the
    backed local window, so faults carry the per-lane address.
    """

    def __init__(self, executor, warp, cta, mask: np.ndarray, base: int,
                 lanes: Optional[np.ndarray] = None,
                 vectorized: bool = True):
        self._executor = executor
        self._warp = warp
        self._cta = cta
        self.mask = mask
        self._base = base
        if lanes is None:
            lanes = np.nonzero(mask)[0]
        self._lane_idx = lanes
        self._lanes_list: Optional[List[int]] = None
        self._vectorized = vectorized
        self._row_cache: dict = {}

    @property
    def _lanes(self) -> List[int]:
        if self._lanes_list is None:
            self._lanes_list = [int(l) for l in self._lane_idx]
        return self._lanes_list

    def _mem(self, lane: int):
        tid = int(self._warp.lane_thread_ids[lane])
        return self._cta.local_mem(tid)

    def _read_lane(self, lane: int, offset: int, width: int = 4) -> int:
        return self._mem(lane).read(self._base + offset, width)

    def _write_lane(self, lane: int, offset: int, value: int,
                    width: int = 4) -> None:
        self._row_cache.clear()
        self._mem(lane).write(self._base + offset, width, value)

    def seed_statics(self, values: dict) -> None:
        """Pre-load static fields whose bytes are known to be in memory
        right now (``{(offset, width): value}``), as if already read."""
        self._row_cache.update(values)

    def _read_static(self, offset: int, width: int = 4) -> int:
        if self._lane_idx.size == 0:
            return 0
        key = (offset, width)
        value = self._row_cache.get(key)
        if value is None:
            value = self._read_lane(int(self._lane_idx[0]), offset, width)
            self._row_cache[key] = value
        return value

    def _read_row(self, offset: int, width: int = 4,
                  dtype=np.int64) -> np.ndarray:
        key = (offset, width, np.dtype(dtype).str)
        row = self._row_cache.get(key)
        if row is None:
            row = self._read_row_uncached(offset, width, dtype)
            self._row_cache[key] = row
        # handlers may mutate what they get back; the cache keeps its own
        return row.copy()

    def _read_row_uncached(self, offset: int, width: int,
                           dtype) -> np.ndarray:
        row = np.zeros(WARP_SIZE, dtype=dtype)
        idx = self._lane_idx
        if idx.size == 0:
            return row
        start = self._base + offset
        block = self._cta.local_block()
        if not self._vectorized or start < 0 \
                or start + width > block.shape[1]:
            for lane in self._lanes:
                row[lane] = self._read_lane(lane, offset, width)
            return row
        tids = self._warp.lane_thread_ids[idx]
        cols = start + np.arange(width, dtype=np.int64)
        raw = np.ascontiguousarray(block[tids[:, None], cols[None, :]])
        if width == 4:
            words = raw.view("<u4")[:, 0]
        elif width == 8:
            words = raw.view("<u8")[:, 0]
        else:
            words = np.zeros(idx.size, dtype=np.uint64)
            for byte in range(width):
                words |= raw[:, byte].astype(np.uint64) \
                    << np.uint64(8 * byte)
        row[idx] = words.astype(dtype, copy=False)
        return row


class SASSIBeforeParams(_View):
    """Accessor matching the paper's Figure 2(b) C++ class."""

    def GetID(self) -> int:
        return self._read_static(BP_ID)

    def GetFnAddr(self) -> int:
        return self._read_static(BP_FN_ADDR)

    def GetInsOffset(self) -> int:
        return self._read_static(BP_INS_OFFSET)

    def GetInsAddr(self) -> int:
        return self.GetFnAddr() + self.GetInsOffset()

    def GetInsEncoding(self) -> int:
        return self._read_static(BP_INS_ENCODING)

    def GetInstrWillExecute(self) -> np.ndarray:
        """Per-lane booleans (guard outcome of the instrumented
        instruction)."""
        return self._read_row(BP_WILL_EXECUTE).astype(bool)

    def GetOpcode(self) -> Opcode:
        return Opcode(self.GetInsEncoding() & 0x1FF)

    def _classes(self) -> OpClass:
        return OPCODE_CLASSES[self.GetOpcode()]

    def IsMem(self) -> bool:
        return bool(self._classes() & OpClass.MEMORY)

    def IsMemRead(self) -> bool:
        return bool(self._classes() & OpClass.MEM_READ)

    def IsMemWrite(self) -> bool:
        return bool(self._classes() & OpClass.MEM_WRITE)

    def IsSpillOrFill(self) -> bool:
        return self.GetOpcode() in (Opcode.LDL, Opcode.STL)

    def IsSurfaceMemory(self) -> bool:
        return False

    def IsControlXfer(self) -> bool:
        return bool(self._classes() & OpClass.CONTROL)

    def IsCondControlXfer(self) -> bool:
        # guard bits live in the encoding: pred index != 7 or negated
        encoding = self.GetInsEncoding()
        pred = (encoding >> 9) & 0x7
        negated = bool((encoding >> 12) & 1)
        return self.IsControlXfer() and (pred != 7 or negated)

    def IsSync(self) -> bool:
        return bool(self._classes() & OpClass.SYNC)

    def IsNumeric(self) -> bool:
        return bool(self._classes() & OpClass.NUMERIC)

    def IsTexture(self) -> bool:
        return bool(self._classes() & OpClass.TEXTURE)

    # convenience beyond the paper: the compile-time Instruction object
    # (SASSI §9.4, "exploiting compile-time information").  The runtime
    # pre-seeds ``_instruction`` from its per-site cache so repeated
    # invocations skip the program scan entirely.
    def GetInstruction(self):
        cached = self.__dict__.get("_instruction", False)
        if cached is not False:
            return cached
        result = None
        program = self._executor.device.program
        for kernel in program.kernels.values():
            if kernel.base_address == self.GetFnAddr():
                result = kernel.instructions[
                    kernel.index_of_pc(self.GetInsAddr())]
                break
        self._instruction = result
        return result


class SASSIAfterParams(SASSIBeforeParams):
    """After-site accessor (same layout as the before params)."""


class SASSIMemoryParams(_View):
    """Accessor matching the paper's Figure 2(c) C++ class."""

    def GetAddress(self) -> np.ndarray:
        """Per-lane effective addresses (uint64)."""
        return self._read_row(MP_ADDRESS, width=8, dtype=np.uint64)

    def _properties(self) -> int:
        return self._read_static(MP_PROPERTIES)

    def IsLoad(self) -> bool:
        return bool(self._properties() & PROP_IS_LOAD)

    def IsStore(self) -> bool:
        return bool(self._properties() & PROP_IS_STORE)

    def IsAtomic(self) -> bool:
        return bool(self._properties() & PROP_IS_ATOMIC)

    def IsUniform(self) -> bool:
        return bool(self._properties() & PROP_IS_UNIFORM)

    def IsVolatile(self) -> bool:
        return bool(self._properties() & PROP_IS_VOLATILE)

    def GetWidth(self) -> int:
        return self._read_static(MP_WIDTH)

    def GetDomain(self) -> MemSpace:
        return MemSpace(self._read_static(MP_DOMAIN))


class SASSICondBranchParams(_View):
    """Conditional-branch info for Case Study I's handler."""

    def GetDirection(self) -> np.ndarray:
        """Per-lane booleans: will this thread take the branch?"""
        return self._read_row(BRP_DIRECTION).astype(bool)

    def GetTakenOffset(self) -> int:
        return self._read_static(BRP_TAKEN_OFFSET)

    def IsLoopBreak(self) -> bool:
        return bool(self._read_static(BRP_FLAGS) & BRP_FLAG_IS_BREAK)


class SASSIRegisterParams(_View):
    """Destination-register info for value profiling / error injection."""

    def GetNumGPRDsts(self) -> int:
        return self._read_static(RP_NUM_DSTS)

    def GetGPRDst(self, index: int) -> int:
        """Register *number* of destination *index* (the paper's
        SASSIGPRRegInfo collapses to the register number here)."""
        return self._read_static(RP_REG_NUMS + 4 * index)

    GetRegNum = GetGPRDst

    def GetRegValue(self, index: int) -> np.ndarray:
        """Per-lane value written to destination *index* (uint32)."""
        return self._read_row(RP_VALUES + 4 * index,
                              dtype=np.int64).astype(np.uint32)

    def SetRegValue(self, index: int, lane: int, value: int) -> None:
        """Overwrite the value for one lane; with
        ``writeback_registers`` the injected sequence reloads it into the
        architectural register after the handler returns — the paper's
        error-injection mechanism."""
        self._write_lane(lane, RP_VALUES + 4 * index,
                         int(value) & 0xFFFFFFFF)
