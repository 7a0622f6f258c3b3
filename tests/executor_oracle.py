"""Per-instruction executor, kept as a test oracle.

The production executor fuses straight-line runs into superblocks,
runs whole SASSI call sequences as compiled site plans, and serves
single-space warp memory accesses with one gather/scatter.  The oracle
does none of that: every record goes through the public
``Executor.step`` one at a time, and :func:`oracle_executor` declines
every vector memory plan, so loads, stores and atomics take the
per-lane loops.  The differential suites assert the production path is
architecturally and statistically identical to it.  Nothing here is
imported by ``src/``.
"""

from __future__ import annotations

import contextlib
from unittest import mock

import repro.sim.device as device_mod
import repro.sim.executor as executor_mod
from repro.sim.errors import DeviceFault, HangDetected
from repro.sim.executor import Executor, decode_kernel


class OracleExecutor(Executor):
    """Dispatches each predecoded record through ``step``; no superblock
    or site plan ever runs."""

    def _instruction(self, pc: int):
        return self._decoded.records[pc]

    def _run_warp(self, warp, cta, counter):
        kernel = self._kernel
        self._decoded = decode_kernel(kernel)
        self._targets = self._decoded.targets
        limit = len(self._targets)
        max_warp_instructions = self.config.max_warp_instructions
        while not warp.done and not warp.at_barrier:
            pc = warp.pc
            if not (0 <= pc < limit):
                raise DeviceFault(
                    f"{kernel.name}: PC 0x{kernel.pc_of(pc):x} outside "
                    "kernel body")
            self._watchdog += 1
            if self._watchdog > max_warp_instructions:
                raise HangDetected(
                    f"{kernel.name}: watchdog after {self._watchdog} "
                    "warp instructions")
            self.step(warp, cta, self._instruction(pc), counter)


class StepExecutor(OracleExecutor):
    """Hands ``step`` the raw :class:`Instruction` at each pc, decoded
    afresh on every call — the public single-step API end to end."""

    def _instruction(self, pc: int):
        return self._kernel.instructions[pc]


def _no_vector_plan(*_args):
    return None


@contextlib.contextmanager
def oracle_executor(executor_cls=OracleExecutor):
    """Run every launch inside the block on *executor_cls*, with each
    warp memory access served lane by lane."""
    with mock.patch.object(device_mod, "Executor", executor_cls), \
            mock.patch.object(executor_mod, "_vector_plan",
                              _no_vector_plan):
        yield
