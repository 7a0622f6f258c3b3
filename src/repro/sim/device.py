"""The device: memory, program image, handler bindings, kernel launch.

The host-side API mirrors the CUDA runtime shape the paper's tooling
assumes: allocate device memory, copy to/from it, launch kernels with a
grid/block configuration, and register launch/exit callbacks (which the
CUPTI analog in :mod:`repro.sassi.cupti` builds on to marshal
instrumentation counters, paper Section 3.3).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Union

import numpy as np

from repro.isa.program import SassKernel, SassProgram, STACK_BASE_OFFSET
from repro.sim.errors import DeviceFault
from repro.sim.executor import Executor, KernelStats, SimConfig
from repro.sim.launch import Dim3
from repro.sim.memory import (
    DEFAULT_HEAP_BYTES,
    GLOBAL_BASE,
    LOCAL_BASE,
    Memory,
)
from repro.telemetry.collector import span as telemetry_span

#: Size of constant bank 0 (launch configuration + kernel parameters).
CONST_BANK_BYTES = 64 << 10

LaunchCallback = Callable[["Device", SassKernel, Dim3, Dim3], None]
ExitCallback = Callable[["Device", SassKernel, KernelStats], None]


class Device:
    """A simulated GPU with one resident program."""

    def __init__(self, heap_bytes: int = DEFAULT_HEAP_BYTES,
                 config: Optional[SimConfig] = None):
        self.heap_bytes = heap_bytes
        self.global_mem = Memory(heap_bytes, name="global")
        #: the heap's aligned 4- and 8-byte words as typed views that
        #: alias its bytes (handler-side atomics, loads and stores)
        self.heap_words = {
            width: self.global_mem.data[:heap_bytes - heap_bytes % width]
            .view(f"<u{width}") for width in (4, 8)}
        self.const_mem = Memory(CONST_BANK_BYTES, name="const")
        self.program = SassProgram()
        self.handler_bindings: Dict[int, Callable] = {}
        self.config = config or SimConfig()
        self._bump = 0x100  # leave a null page unallocated
        self._launch_callbacks: List[LaunchCallback] = []
        self._exit_callbacks: List[ExitCallback] = []
        self.last_stats: Optional[KernelStats] = None
        #: optional repro.sassi.runtime.AdaptiveController gating
        #: compiled instrumentation sites at launch time
        self.adaptive = None
        # the generic local window base, read by injected code from
        # c[0x0][0x24] exactly as in the paper's Figure 2.
        self.const_mem.write(STACK_BASE_OFFSET, 4, LOCAL_BASE)

    # ----------------------------------------------------------- memory

    def alloc(self, nbytes: int, align: int = 256) -> int:
        """Allocate device-heap memory; returns a generic address."""
        offset = (self._bump + align - 1) & ~(align - 1)
        if offset + nbytes > self.heap_bytes:
            raise DeviceFault(
                f"device OOM: {nbytes} bytes requested, "
                f"{self.heap_bytes - offset} free")
        self._bump = offset + nbytes
        return GLOBAL_BASE + offset

    def alloc_array(self, array: np.ndarray, align: int = 256) -> int:
        """Allocate and copy a numpy array; returns its device address."""
        pointer = self.alloc(array.nbytes, align)
        self.memcpy_htod(pointer, array)
        return pointer

    def _heap_offset(self, pointer: int, nbytes: int) -> int:
        offset = pointer - GLOBAL_BASE
        if offset < 0 or offset + nbytes > self.heap_bytes:
            raise DeviceFault(f"bad device pointer 0x{pointer:x}")
        return offset

    def memcpy_htod(self, pointer: int, data: Union[bytes, np.ndarray]) -> None:
        payload = data.tobytes() if isinstance(data, np.ndarray) else bytes(data)
        self.global_mem.write_bytes(self._heap_offset(pointer, len(payload)),
                                    payload)

    def memcpy_dtoh(self, pointer: int, nbytes: int) -> bytes:
        return self.global_mem.read_bytes(self._heap_offset(pointer, nbytes),
                                          nbytes)

    def read_array(self, pointer: int, count: int, dtype) -> np.ndarray:
        dtype = np.dtype(dtype)
        raw = self.memcpy_dtoh(pointer, count * dtype.itemsize)
        return np.frombuffer(raw, dtype=dtype).copy()

    def memset(self, pointer: int, value: int, nbytes: int) -> None:
        offset = self._heap_offset(pointer, nbytes)
        self.global_mem.data[offset:offset + nbytes] = value & 0xFF

    def const_read(self, bank: int, offset: int) -> int:
        if bank != 0:
            raise DeviceFault(f"only constant bank 0 exists (got {bank})")
        return self.const_mem.read(offset, 4)

    # ---------------------------------------------------------- program

    def load_kernel(self, kernel: SassKernel) -> SassKernel:
        return self.program.add_kernel(kernel)

    # ------------------------------------------------------- callbacks

    def on_kernel_launch(self, callback: LaunchCallback) -> None:
        self._launch_callbacks.append(callback)

    def on_kernel_exit(self, callback: ExitCallback) -> None:
        self._exit_callbacks.append(callback)

    # ----------------------------------------------------------- launch

    def _encode_params(self, kernel: SassKernel, args: Sequence) -> None:
        if len(args) != len(kernel.params):
            raise DeviceFault(
                f"{kernel.name}: expected {len(kernel.params)} args, "
                f"got {len(args)}")
        for param, value in zip(kernel.params, args):
            if isinstance(value, float):
                raw = struct.unpack("<I", struct.pack("<f", value))[0]
            else:
                raw = int(value) & ((1 << (8 * param.size)) - 1)
            self.const_mem.write(param.offset, param.size, raw)

    def launch(self, kernel: Union[str, SassKernel], grid, block,
               args: Sequence = (), shared_bytes: int = 0) -> KernelStats:
        """Launch a kernel synchronously and return its statistics."""
        if isinstance(kernel, str):
            kernel = self.program.kernels[kernel]
        elif kernel.name not in self.program.kernels:
            kernel = self.load_kernel(kernel)
        grid = Dim3.of(grid)
        block = Dim3.of(block)
        self._encode_params(kernel, args)
        for callback in self._launch_callbacks:
            callback(self, kernel, grid, block)
        executor = Executor(self, self.config)
        try:
            with telemetry_span("launch", kernel=kernel.name):
                stats = executor.run(kernel, grid, block, shared_bytes)
        finally:
            self.last_stats = executor.stats
        for callback in self._exit_callbacks:
            callback(self, kernel, stats)
        return stats
