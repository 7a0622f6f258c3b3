"""The PTX-like IR: virtual registers, ops, blocks, kernels.

The IR is a conventional three-address, block-structured representation.
It is deliberately *not* SSA: a virtual register may be reassigned, which
lets the structured front-end express loop induction variables directly;
the backend's liveness analysis handles multiply-assigned registers.

Every instruction carries its result type; memory ops carry a space and a
width; comparisons carry a :class:`CmpOp`.  Terminators (``BR``/``CBR``/
``RET``) end each block.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.kernelir.types import Type


class IROp(enum.Enum):
    """IR operation kinds (roughly the PTX instruction menu we need)."""

    MOV = "mov"
    # integer
    ADD = "add"
    SUB = "sub"
    MUL = "mul"          # low 32 bits
    MULWIDE = "mul.wide" # u32 x u32 -> u64
    MAD = "mad"
    MIN = "min"
    MAX = "max"
    AND = "and"
    OR = "or"
    XOR = "xor"
    NOT = "not"
    SHL = "shl"
    SHR = "shr"
    ABS = "abs"
    # float (f32)
    FDIV = "div.approx"
    SQRT = "sqrt.approx"
    RCP = "rcp.approx"
    EX2 = "ex2.approx"
    LG2 = "lg2.approx"
    SIN = "sin.approx"
    COS = "cos.approx"
    FMA = "fma"
    NEG = "neg"
    # predicates / comparisons
    SETP = "setp"
    SELP = "selp"
    PAND = "and.pred"
    POR = "or.pred"
    PNOT = "not.pred"
    # conversions
    CVT = "cvt"
    # memory
    LD = "ld"
    ST = "st"
    ATOM = "atom"
    # misc
    SREG = "sreg"        # read a special register
    BAR = "bar.sync"
    MEMBAR = "membar"
    # terminators
    BR = "bra"
    CBR = "cbra"
    RET = "ret"


class CmpOp(enum.Enum):
    LT = "lt"
    LE = "le"
    GT = "gt"
    GE = "ge"
    EQ = "eq"
    NE = "ne"


#: Memory spaces at the IR level (mapped onto ISA spaces by lowering).
class Space(enum.Enum):
    GLOBAL = "global"
    SHARED = "shared"
    LOCAL = "local"
    CONST = "const"
    TEXTURE = "tex"


class AtomOp(enum.Enum):
    ADD = "add"
    AND = "and"
    OR = "or"
    XOR = "xor"
    MIN = "min"
    MAX = "max"
    EXCH = "exch"


@dataclass(frozen=True)
class VReg:
    """A typed virtual register ``%r<id>``."""

    id: int
    type: Type

    def __repr__(self) -> str:
        prefix = {"pred": "%p", "f32": "%f"}.get(self.type.value, "%r")
        return f"{prefix}{self.id}"


@dataclass(frozen=True)
class Const:
    """A typed immediate value."""

    value: Union[int, float]
    type: Type

    def __repr__(self) -> str:
        return repr(self.value)


Value = Union[VReg, Const]


@dataclass
class IRInstr:
    """One IR instruction."""

    op: IROp
    dst: Optional[VReg] = None
    srcs: Tuple[Value, ...] = ()
    type: Optional[Type] = None          # operation type (PTX-style suffix)
    cmp: Optional[CmpOp] = None          # for SETP
    space: Optional[Space] = None        # for LD/ST/ATOM
    atom: Optional[AtomOp] = None        # for ATOM
    sreg: Optional[str] = None           # for SREG, e.g. "tid.x"
    targets: Tuple[str, ...] = ()        # for BR (1) / CBR (2: taken, not)
    width: Optional[int] = None          # bytes, for LD/ST when != type size

    @property
    def is_terminator(self) -> bool:
        return self.op in (IROp.BR, IROp.CBR, IROp.RET)

    def __repr__(self) -> str:
        parts = [self.op.value]
        if self.space:
            parts[0] += f".{self.space.value}"
        if self.atom:
            parts[0] += f".{self.atom.value}"
        if self.cmp:
            parts[0] += f".{self.cmp.value}"
        if self.type:
            parts[0] += f".{self.type.value}"
        operands: List[str] = []
        if self.dst is not None:
            operands.append(repr(self.dst))
        operands.extend(repr(s) for s in self.srcs)
        if self.sreg:
            operands.append(f"%{self.sreg}")
        operands.extend(self.targets)
        return parts[0] + " " + ", ".join(operands)


@dataclass
class Block:
    """A basic block: label, straight-line body, trailing terminator.

    ``loops`` names the headers of the loops enclosing this block,
    outermost first; the backend uses it to turn branches to a loop's exit
    into ``BRK`` (break-stack) instructions.
    """

    label: str
    instrs: List[IRInstr] = field(default_factory=list)
    loops: Tuple[str, ...] = ()

    @property
    def terminator(self) -> Optional[IRInstr]:
        if self.instrs and self.instrs[-1].is_terminator:
            return self.instrs[-1]
        return None

    def successors(self) -> Tuple[str, ...]:
        term = self.terminator
        if term is None or term.op is IROp.RET:
            return ()
        return term.targets


@dataclass(frozen=True)
class ParamDecl:
    """A kernel parameter declaration."""

    name: str
    type: Type


@dataclass(frozen=True)
class LoopInfo:
    """Structured-loop metadata recorded by the builder.

    * ``header`` — the condition block (the loop's entry test).
    * ``exit`` — the block control reaches when the loop finishes; the
      backend makes it the ``PBK`` (pre-break) target.
    * ``preheader`` — the block whose terminating branch first enters the
      header; ``PBK`` is inserted there.
    """

    header: str
    exit: str
    preheader: str


@dataclass
class KernelIR:
    """A kernel: parameters, blocks in layout order, shared-memory size."""

    name: str
    params: Tuple[ParamDecl, ...]
    blocks: List[Block] = field(default_factory=list)
    shared_bytes: int = 0
    num_vregs: int = 0
    loops: List[LoopInfo] = field(default_factory=list)

    @property
    def entry(self) -> Block:
        return self.blocks[0]

    def block(self, label: str) -> Block:
        for candidate in self.blocks:
            if candidate.label == label:
                return candidate
        raise KeyError(f"kernel {self.name!r} has no block {label!r}")

    def param(self, name: str) -> ParamDecl:
        for param in self.params:
            if param.name == name:
                return param
        raise KeyError(f"kernel {self.name!r} has no param {name!r}")

    def param_offset(self, name: str) -> int:
        """Constant-bank byte offset of a parameter (0x140-based layout,
        8-byte slots for 64-bit params, 4-byte otherwise, naturally
        aligned)."""
        from repro.isa.program import PARAM_BASE_OFFSET

        offset = PARAM_BASE_OFFSET
        for param in self.params:
            size = param.type.bytes
            offset = (offset + size - 1) & ~(size - 1)
            if param.name == name:
                return offset
            offset += size
        raise KeyError(f"kernel {self.name!r} has no param {name!r}")

    def all_instrs(self):
        for block in self.blocks:
            yield from block.instrs
