"""Opcode set and instruction-class predicates.

The class flags mirror the categories that the paper's
``SASSIBeforeParams`` object can answer queries about (Figure 2b):
memory, control transfer, synchronization, numeric, texture, and so on.
SASSI's *where* specification ("instrument before all memory operations",
"before conditional control transfers", ...) selects sites by these classes.
"""

from __future__ import annotations

import enum

import numpy as np


class OpClass(enum.Flag):
    """Semantic classes an opcode may belong to (an opcode can be in many)."""

    NONE = 0
    MEMORY = enum.auto()
    MEM_READ = enum.auto()
    MEM_WRITE = enum.auto()
    CONTROL = enum.auto()        # any control transfer
    CALL = enum.auto()
    SYNC = enum.auto()           # barriers and membar
    NUMERIC = enum.auto()        # produces an arithmetic result
    FLOAT = enum.auto()
    INTEGER = enum.auto()
    TEXTURE = enum.auto()
    ATOMIC = enum.auto()
    PREDICATE_OUT = enum.auto()  # writes a predicate register
    WARP = enum.auto()           # warp-wide communication (VOTE/SHFL)
    MOVE = enum.auto()
    CONVERT = enum.auto()
    NOP_LIKE = enum.auto()


class Opcode(enum.Enum):
    """All opcodes of the SASS-like ISA.

    The value is a stable small integer used by the binary encoding.
    """

    # Moves / selections / special registers
    MOV = 0
    MOV32I = 1
    SEL = 2
    S2R = 3
    P2R = 4
    R2P = 5
    PSETP = 6

    # Integer arithmetic and logic
    IADD = 10
    IADD32I = 11
    IMUL = 12
    IMAD = 13
    ISCADD = 14
    ISETP = 15
    IMNMX = 16
    LOP = 17          # .AND / .OR / .XOR / .PASS_B (modifier selects)
    LOP32I = 18
    SHL = 19
    SHR = 20
    POPC = 21
    FLO = 22
    BFE = 23
    BFI = 24
    IABS = 25

    # Floating point (fp32)
    FADD = 30
    FMUL = 31
    FFMA = 32
    FSETP = 33
    FMNMX = 34
    MUFU = 35         # .RCP / .SQRT / .RSQ / .LG2 / .EX2 / .SIN / .COS
    F2I = 36
    I2F = 37
    F2F = 38

    # Memory
    LD = 50           # generic load
    ST = 51           # generic store
    LDG = 52          # global load
    STG = 53          # global store
    LDS = 54          # shared load
    STS = 55          # shared store
    LDL = 56          # local (per-thread) load
    STL = 57          # local store
    LDC = 58          # constant-bank load
    ATOM = 59         # global atomic (modifier: ADD/AND/OR/XOR/MIN/MAX/EXCH/INC/DEC)
    ATOMS = 60        # shared atomic
    RED = 61          # reduction (atomic without return)
    TLD = 62          # texture load (modelled as a cached read-only fetch)
    MEMBAR = 63

    # Control flow
    BRA = 70
    JCAL = 71         # absolute call (the SASSI handler call in Figure 2)
    CAL = 72          # relative call
    RET = 73
    EXIT = 74
    SSY = 75          # push reconvergence point
    SYNC = 76         # pop reconvergence point (NOP.S in real SASS)
    BAR = 77          # CTA barrier
    BPT = 78          # breakpoint/trap
    NOP = 79
    PBK = 80          # push break point (loop exit) onto divergence stack
    BRK = 81          # break: park active threads at the break point

    # Warp-wide
    VOTE = 85         # .BALLOT / .ALL / .ANY
    SHFL = 86         # .IDX / .UP / .DOWN / .BFLY


_MEM_RW = OpClass.MEMORY
_I = OpClass.NUMERIC | OpClass.INTEGER
_F = OpClass.NUMERIC | OpClass.FLOAT

#: Class flags for every opcode.
OPCODE_CLASSES: dict[Opcode, OpClass] = {
    Opcode.MOV: OpClass.MOVE,
    Opcode.MOV32I: OpClass.MOVE,
    Opcode.SEL: OpClass.MOVE,
    Opcode.S2R: OpClass.MOVE,
    Opcode.P2R: OpClass.MOVE,
    Opcode.R2P: OpClass.MOVE | OpClass.PREDICATE_OUT,
    Opcode.PSETP: OpClass.PREDICATE_OUT,
    Opcode.IADD: _I,
    Opcode.IADD32I: _I,
    Opcode.IMUL: _I,
    Opcode.IMAD: _I,
    Opcode.ISCADD: _I,
    Opcode.ISETP: _I | OpClass.PREDICATE_OUT,
    Opcode.IMNMX: _I,
    Opcode.LOP: _I,
    Opcode.LOP32I: _I,
    Opcode.SHL: _I,
    Opcode.SHR: _I,
    Opcode.POPC: _I,
    Opcode.FLO: _I,
    Opcode.BFE: _I,
    Opcode.BFI: _I,
    Opcode.IABS: _I,
    Opcode.FADD: _F,
    Opcode.FMUL: _F,
    Opcode.FFMA: _F,
    Opcode.FSETP: _F | OpClass.PREDICATE_OUT,
    Opcode.FMNMX: _F,
    Opcode.MUFU: _F,
    Opcode.F2I: OpClass.CONVERT | _I,
    Opcode.I2F: OpClass.CONVERT | _F,
    Opcode.F2F: OpClass.CONVERT | _F,
    Opcode.LD: _MEM_RW | OpClass.MEM_READ,
    Opcode.ST: _MEM_RW | OpClass.MEM_WRITE,
    Opcode.LDG: _MEM_RW | OpClass.MEM_READ,
    Opcode.STG: _MEM_RW | OpClass.MEM_WRITE,
    Opcode.LDS: _MEM_RW | OpClass.MEM_READ,
    Opcode.STS: _MEM_RW | OpClass.MEM_WRITE,
    Opcode.LDL: _MEM_RW | OpClass.MEM_READ,
    Opcode.STL: _MEM_RW | OpClass.MEM_WRITE,
    Opcode.LDC: _MEM_RW | OpClass.MEM_READ,
    Opcode.ATOM: _MEM_RW | OpClass.MEM_READ | OpClass.MEM_WRITE | OpClass.ATOMIC,
    Opcode.ATOMS: _MEM_RW | OpClass.MEM_READ | OpClass.MEM_WRITE | OpClass.ATOMIC,
    Opcode.RED: _MEM_RW | OpClass.MEM_WRITE | OpClass.ATOMIC,
    Opcode.TLD: _MEM_RW | OpClass.MEM_READ | OpClass.TEXTURE,
    Opcode.MEMBAR: OpClass.SYNC,
    Opcode.BRA: OpClass.CONTROL,
    Opcode.JCAL: OpClass.CONTROL | OpClass.CALL,
    Opcode.CAL: OpClass.CONTROL | OpClass.CALL,
    Opcode.RET: OpClass.CONTROL,
    Opcode.EXIT: OpClass.CONTROL,
    Opcode.SSY: OpClass.NOP_LIKE,
    Opcode.SYNC: OpClass.CONTROL,
    Opcode.BAR: OpClass.SYNC,
    Opcode.BPT: OpClass.NOP_LIKE,
    Opcode.NOP: OpClass.NOP_LIKE,
    Opcode.PBK: OpClass.NOP_LIKE,
    Opcode.BRK: OpClass.CONTROL,
    Opcode.VOTE: OpClass.WARP,
    Opcode.SHFL: OpClass.WARP,
}


#: Opcode id -> its ``OPCODE_CLASSES`` flag bits, for vectorized class
#: tests over arrays of ids; 0 marks an id that names no opcode (every
#: opcode has a class).
OPCODE_CLASS_BITS = np.zeros(max(op.value for op in Opcode) + 1,
                             dtype=np.int64)
for _op, _classes in OPCODE_CLASSES.items():
    OPCODE_CLASS_BITS[_op.value] = _classes.value
OPCODE_CLASS_BITS.flags.writeable = False
assert OPCODE_CLASS_BITS[[op.value for op in Opcode]].all()


def classes_of(opcode: Opcode) -> OpClass:
    """Class flags for *opcode*."""
    return OPCODE_CLASSES[opcode]


#: Modifier vocabulary, used by both the text parser and the encoder.  Order
#: matters: a modifier's encoding index is its position in this tuple.
MODIFIERS = (
    # widths
    "U8", "S8", "U16", "S16", "32", "64", "128",
    # comparisons
    "LT", "LE", "GT", "GE", "EQ", "NE",
    # signedness / logic selectors
    "U32", "S32", "AND", "OR", "XOR", "PASS_B", "NOT_B",
    # MUFU functions
    "RCP", "SQRT", "RSQ", "LG2", "EX2", "SIN", "COS",
    # atomics
    "ADD", "MIN", "MAX", "EXCH", "CAS", "INC", "DEC",
    # votes / shuffles
    "BALLOT", "ALL", "ANY", "IDX", "UP", "DOWN", "BFLY",
    # misc
    "LZ", "HI", "LO", "X", "CC", "S", "E", "SYS", "GL", "CTA",
    "NEGB", "WIDE",
    # float rounding / saturation
    "RN", "RZI", "FLOOR", "CEIL", "TRUNC", "SAT", "FTZ",
    # min/max selector used by IMNMX/FMNMX (predicate chooses) - none extra
)

_MODIFIER_INDEX = {name: i for i, name in enumerate(MODIFIERS)}


def modifier_index(name: str) -> int:
    """Encoding index of a modifier name."""
    try:
        return _MODIFIER_INDEX[name]
    except KeyError:
        raise ValueError(f"unknown modifier: {name!r}") from None


def modifier_from_index(index: int) -> str:
    return MODIFIERS[index]
