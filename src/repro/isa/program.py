"""Program containers: :class:`SassKernel` and :class:`SassProgram`.

A kernel is a flat tuple of instructions plus a label table mapping names to
instruction indices.  PCs in this ISA are instruction indices scaled by 8
(each instruction notionally occupies 8 bytes), so tools that report
"instruction addresses" (such as the SASSI branch profiler's hash table
keyed by ``GetInsAddr()``) see realistic-looking byte addresses.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, Optional, Tuple

from repro.isa.instruction import Instruction, LabelRef

#: Byte size of one encoded instruction (PC stride).
INSTRUCTION_BYTES = 8

#: Constant-bank-0 offset where kernel parameters begin (as on Kepler,
#: where params start at c[0x0][0x140]).
PARAM_BASE_OFFSET = 0x140

#: Constant-bank-0 offset holding the 32-bit local-memory (stack) base for
#: the current thread.  The Figure 2 sequence reads it as c[0x0][0x24].
STACK_BASE_OFFSET = 0x24


@dataclass(frozen=True)
class KernelParam:
    """A kernel parameter: name, constant-bank byte offset, and size."""

    name: str
    offset: int
    size: int


@dataclass(frozen=True)
class SassKernel:
    """A compiled kernel: instructions, labels, parameters, frame size."""

    name: str
    instructions: Tuple[Instruction, ...]
    labels: Dict[str, int] = field(default_factory=dict)
    params: Tuple[KernelParam, ...] = ()
    #: Bytes of per-thread local memory the kernel itself uses (spills).
    frame_bytes: int = 0
    #: Highest GPR index used + 1 (register footprint reported to launch).
    num_regs: int = 16
    #: Base byte address assigned when placed into a program image.
    base_address: int = 0

    def label_target(self, name: str) -> int:
        """Instruction index of a label."""
        try:
            return self.labels[name]
        except KeyError:
            raise KeyError(f"kernel {self.name!r} has no label {name!r}") from None

    def resolve_target(self, ref: LabelRef) -> int:
        return self.label_target(ref.name)

    def pc_of(self, index: int) -> int:
        """Byte address of the instruction at *index*."""
        return self.base_address + index * INSTRUCTION_BYTES

    def index_of_pc(self, pc: int) -> int:
        offset = pc - self.base_address
        if offset % INSTRUCTION_BYTES:
            raise ValueError(f"misaligned PC 0x{pc:x}")
        return offset // INSTRUCTION_BYTES

    def param_offset(self, name: str) -> int:
        for param in self.params:
            if param.name == name:
                return param.offset
        raise KeyError(f"kernel {self.name!r} has no param {name!r}")

    def validate(self) -> None:
        """Check that every label target and label reference is in range."""
        limit = len(self.instructions)
        for label, index in self.labels.items():
            if not 0 <= index <= limit:
                raise ValueError(f"label {label!r} out of range: {index}")
        for position, instr in enumerate(self.instructions):
            for operand in (*instr.srcs, *instr.dsts):
                if isinstance(operand, LabelRef) and operand.name not in self.labels:
                    raise ValueError(
                        f"[{position}] {instr}: undefined label {operand.name!r}"
                    )

    def __len__(self) -> int:
        return len(self.instructions)


@dataclass
class SassProgram:
    """A linked image: kernels laid out in one address space plus symbols.

    Handler symbols registered by the "linker" (:mod:`repro.sassi.handlers`)
    get addresses in a reserved high range so that ``JCAL`` targets are
    recognizable as trampoline entries by the executor.
    """

    kernels: Dict[str, SassKernel] = field(default_factory=dict)
    symbols: Dict[str, int] = field(default_factory=dict)
    _next_base: int = 0x1000
    _preassigned: Dict[str, int] = field(default_factory=dict)
    #: Addresses at/above this value are native-handler trampolines.
    HANDLER_BASE = 0x7F000000
    #: Address space reserved per kernel when bases are preassigned.
    KERNEL_SLOT = 0x100000

    def preassign_base(self, name: str) -> int:
        """Reserve a load address for *name* before it is compiled.

        SASSI's injector runs at compile time but stores the kernel's
        load address (``fnAddr``) into every parameter object; reserving
        the address first keeps those fields accurate.
        """
        if name in self._preassigned:
            return self._preassigned[name]
        if name in self.symbols:
            return self.symbols[name]
        base = self._next_base
        self._next_base += self.KERNEL_SLOT
        self._preassigned[name] = base
        return base

    def add_kernel(self, kernel: SassKernel) -> SassKernel:
        if kernel.name in self._preassigned:
            base = self._preassigned.pop(kernel.name)
        else:
            base = self._next_base
            self._next_base += max(
                (len(kernel) * INSTRUCTION_BYTES + 0xFF) & ~0xFF, 0x100)
        placed = replace(kernel, base_address=base)
        placed.validate()
        self.kernels[kernel.name] = placed
        self.symbols[kernel.name] = placed.base_address
        return placed

    def add_handler_symbol(self, name: str) -> int:
        """Assign (or return) the trampoline address for a handler name."""
        if name in self.symbols:
            return self.symbols[name]
        address = self.HANDLER_BASE + 0x100 * sum(
            1 for a in self.symbols.values() if a >= self.HANDLER_BASE
        )
        self.symbols[name] = address
        return address

    def symbol_name(self, address: int) -> Optional[str]:
        for name, addr in self.symbols.items():
            if addr == address:
                return name
        return None
