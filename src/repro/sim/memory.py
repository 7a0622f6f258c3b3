"""Byte-addressed memory spaces and the device address map.

The simulated GPU exposes one 64-bit *generic* address space carved into
windows, as on real hardware:

===================  ==========================  =========================
window               range                        resolves to
===================  ==========================  =========================
global heap          ``[0x1000_0000, +heap)``    the device-wide heap
shared window        ``[0x0100_0000, +48 KiB)``  the executing CTA's SMEM
local window         ``[0x4000_0000, +stack)``   the executing *thread's*
                                                 local memory (thread-
                                                 indexed, like the
                                                 hardware local window)
===================  ==========================  =========================

``LDS/STS`` and ``LDL/STL`` use 32-bit offsets relative to the start of
their space; generic ``LD/ST`` take full generic addresses and dispatch by
window — which is how SASSI's injected code passes stack-allocated
parameter objects to handlers by generic pointer (paper Figure 2, step 4:
``LOP.OR R4, R1, c[0x0][0x24]`` forms a generic pointer from the local
stack pointer).
"""

from __future__ import annotations

import numpy as np

from repro.sim.errors import DeviceFault

#: Generic-window bases (see module docstring).
GLOBAL_BASE = 0x1000_0000
SHARED_BASE = 0x0100_0000
LOCAL_BASE = 0x4000_0000

#: Default sizes.
DEFAULT_HEAP_BYTES = 64 << 20
SHARED_BYTES = 48 << 10
LOCAL_BYTES_PER_THREAD = 16 << 10

#: ``_SPANS[w]``: the byte offsets ``0..w-1`` of one *w*-byte lane access.
_SPANS = [np.arange(width, dtype=np.int64) for width in range(17)]


class Memory:
    """A flat little-endian byte array with typed accessors."""

    def __init__(self, size: int, name: str = "mem"):
        self.size = size
        self.name = name
        self.data = np.zeros(size, dtype=np.uint8)

    @classmethod
    def over(cls, data: np.ndarray, name: str) -> "Memory":
        """A Memory over the existing byte array *data* (no copy)."""
        mem = cls.__new__(cls)
        mem.size = data.size
        mem.name = name
        mem.data = data
        return mem

    def out_of_bounds(self, addr: int, width: int) -> DeviceFault:
        """The fault of a *width*-byte access at *addr* outside this
        memory."""
        return DeviceFault(
            f"{self.name}: access of {width} bytes at 0x{addr:x} "
            f"outside [0, 0x{self.size:x})")

    def _check(self, addr: int, width: int) -> None:
        if addr < 0 or addr + width > self.size:
            raise self.out_of_bounds(addr, width)

    def read(self, addr: int, width: int) -> int:
        """Read *width* bytes as an unsigned little-endian integer."""
        addr = int(addr)
        self._check(addr, width)
        if width == 4 and addr % 4 == 0:
            return int(self.data[addr:addr + 4].view(np.uint32)[0])
        if width == 8 and addr % 8 == 0:
            return int(self.data[addr:addr + 8].view(np.uint64)[0])
        return int.from_bytes(self.data[addr:addr + width].tobytes(),
                              "little")

    def write(self, addr: int, width: int, value: int) -> None:
        addr = int(addr)
        self._check(addr, width)
        value = int(value) & ((1 << (8 * width)) - 1)
        if width == 4 and addr % 4 == 0:
            self.data[addr:addr + 4].view(np.uint32)[0] = value
            return
        if width == 8 and addr % 8 == 0:
            self.data[addr:addr + 8].view(np.uint64)[0] = value
            return
        self.data[addr:addr + width] = np.frombuffer(
            value.to_bytes(width, "little"), dtype=np.uint8)

    # ------------------------------------------------- vectorized lanes

    def read_lanes(self, offsets: np.ndarray, width: int,
                   dtype=np.uint32) -> np.ndarray:
        """Gather *width*-byte accesses at *offsets* (one per lane).

        Returns each access's little-endian bytes viewed as *dtype*: by
        default a ``(len(offsets), width // 4)`` uint32 array of words,
        the shape the executor scatters straight into register rows.
        Callers bounds-check first; the executor classifies every lane
        before it gathers, so faults carry the faulting lane's address.
        """
        index = offsets.reshape(-1, 1) + _SPANS[width]
        return self.data[index].view(dtype)

    def write_lanes(self, offsets: np.ndarray, width: int,
                    words: np.ndarray) -> None:
        """Scatter the low *width* bytes of each lane's uint32 *words*
        (``(len(offsets), n)`` with ``4 * n >= width``, or one row that
        every lane stores).  The lanes' byte ranges must not overlap:
        NumPy leaves the order of repeated fancy-index assignment
        unspecified, so the executor applies overlapping lanes in lane
        order itself (a store writes each byte once, from its last
        lane)."""
        index = offsets.reshape(-1, 1) + _SPANS[width]
        payload = np.ascontiguousarray(words, dtype=np.uint32).view(np.uint8)
        self.data[index] = payload[..., :width]

    def read_bytes(self, addr: int, count: int) -> bytes:
        self._check(addr, count)
        return self.data[addr:addr + count].tobytes()

    def write_bytes(self, addr: int, payload: bytes) -> None:
        self._check(addr, len(payload))
        self.data[addr:addr + len(payload)] = np.frombuffer(
            payload, dtype=np.uint8)


def is_global(addr: int, heap_bytes: int = DEFAULT_HEAP_BYTES) -> bool:
    """The ``__isGlobal`` intrinsic of the paper's Figure 6 handler."""
    return GLOBAL_BASE <= addr < GLOBAL_BASE + heap_bytes


def is_shared(addr: int) -> bool:
    return SHARED_BASE <= addr < SHARED_BASE + SHARED_BYTES


def is_local(addr: int) -> bool:
    return LOCAL_BASE <= addr < LOCAL_BASE + LOCAL_BYTES_PER_THREAD
