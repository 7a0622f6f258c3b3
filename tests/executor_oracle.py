"""Per-instruction executor with per-lane memory, kept as a test oracle.

The production executor fuses straight-line runs into superblocks, runs
whole SASSI call sequences as compiled site plans, and serves every
warp load, store and atomic through one vector path (lanes on one word
folded by a scan, faults classified for the whole warp).  The oracle does none
of that: every record goes through the public ``Executor.step`` one at
a time, and loads, stores and atomics walk the active lanes one by one
in lane order, resolving each lane's space through
:func:`_resolve_space` and faulting through ``Memory.read``/``write``.
The differential suites assert the production path is architecturally
and statistically identical to it.

The oracle decodes each kernel into records of its own, never the ones
the production executor built, so neither executor leaks into the
other.  Nothing here is imported by ``src/``.
"""

from __future__ import annotations

import contextlib
from unittest import mock

import numpy as np

import repro.sim.device as device_mod
import repro.sim.executor as executor_mod
from repro.isa.instruction import Imm
from repro.isa.opcodes import Opcode
from repro.isa.registers import GPR
from repro.sim.errors import DeviceFault, HangDetected
from repro.sim.executor import Executor, _Decoded, _DecodedKernel
from repro.sim.memory import GLOBAL_BASE, LOCAL_BASE, SHARED_BASE, SHARED_BYTES

_SIGNED_EXT = {"S8": (1, True), "U8": (1, False),
               "S16": (2, True), "U16": (2, False)}

_ATOM_FNS = {
    "ADD": lambda old, val: old + val,
    "AND": lambda old, val: old & val,
    "OR": lambda old, val: old | val,
    "XOR": lambda old, val: old ^ val,
    "EXCH": lambda old, val: val,
    "INC": lambda old, val: old + 1,
    "DEC": lambda old, val: old - 1,
}


def _resolve_space(ex, warp, cta, instr, addr: int, lane: int):
    """Resolve ``(memory, offset)`` for one lane."""
    opcode = instr.opcode
    if opcode in (Opcode.LDG, Opcode.STG, Opcode.ATOM, Opcode.RED,
                  Opcode.TLD):
        return ex.device.global_mem, addr - GLOBAL_BASE
    if opcode in (Opcode.LDS, Opcode.STS, Opcode.ATOMS):
        return cta.shared, addr
    if opcode in (Opcode.LDL, Opcode.STL):
        return cta.local_mem(int(warp.lane_thread_ids[lane])), addr
    if opcode == Opcode.LDC:
        return ex.device.const_mem, addr
    # generic LD/ST: dispatch by window (local window sits above the
    # global heap, so test it first).
    if addr >= LOCAL_BASE:
        tid = int(warp.lane_thread_ids[lane])
        return cta.local_mem(tid), addr - LOCAL_BASE
    if addr >= GLOBAL_BASE:
        return ex.device.global_mem, addr - GLOBAL_BASE
    if SHARED_BASE <= addr < SHARED_BASE + SHARED_BYTES:
        return cta.shared, addr - SHARED_BASE
    raise DeviceFault(f"unmapped generic address 0x{addr:x}")


def _writes_dst(warp, instr, words: int) -> bool:
    """Whether a load or atomic keeps the *words* it returns: ``RZ``
    (or no destination) discards them, and a destination running past
    the warp's registers faults before any access."""
    if not instr.dsts or instr.dsts[0].is_zero:
        return False
    first = instr.dsts[0].index
    for index in range(first, first + words):
        if index >= warp.num_regs:
            raise DeviceFault(f"register R{index} out of range")
    return True


def _op_load(ex, warp, cta, instr, g):
    width = instr.mem_width
    dst = instr.dsts[0]
    narrow = instr.narrow
    keep = _writes_dst(warp, instr, 1 if narrow else width // 4)
    addrs = ex.lane_addresses(warp, instr)
    if instr.opcode in (Opcode.LDG, Opcode.LD, Opcode.TLD):
        ex._account_global(addrs, g, width)
    for lane in np.nonzero(g)[0]:
        lane = int(lane)
        mem, offset = _resolve_space(ex, warp, cta, instr,
                                     int(addrs[lane]), lane)
        if narrow:
            nbytes, signed = _SIGNED_EXT[narrow]
            raw = mem.read(offset, nbytes)
            if signed and raw & (1 << (8 * nbytes - 1)):
                raw -= 1 << (8 * nbytes)
            if keep:
                warp.regs[dst.index, lane] = np.uint32(raw & 0xFFFFFFFF)
        else:
            raw = mem.read(offset, width)
            for word in range(width // 4 if keep else 0):
                warp.regs[dst.index + word, lane] = np.uint32(
                    (raw >> (32 * word)) & 0xFFFFFFFF)
    warp.pc += 1


def _op_store(ex, warp, cta, instr, g):
    width = instr.mem_width
    addrs = ex.lane_addresses(warp, instr)
    if instr.opcode in (Opcode.STG, Opcode.ST):
        ex._account_global(addrs, g, width)
    data = instr.srcs[-1]
    narrow = instr.narrow
    for lane in np.nonzero(g)[0]:
        lane = int(lane)
        mem, offset = _resolve_space(ex, warp, cta, instr,
                                     int(addrs[lane]), lane)
        if isinstance(data, GPR) and not data.is_zero:
            if narrow:
                nbytes, _ = _SIGNED_EXT[narrow]
                mem.write(offset, nbytes,
                          int(warp.regs[data.index, lane]))
                continue
            value = 0
            for word in range(width // 4):
                value |= int(warp.regs[data.index + word, lane]) << (32 * word)
            mem.write(offset, width, value)
        else:
            value = 0 if not isinstance(data, Imm) else data.value
            mem.write(offset, width, value)
    warp.pc += 1


def _op_atom(ex, warp, cta, instr, g):
    keep = _writes_dst(warp, instr, 1)
    addrs = ex.lane_addresses(warp, instr)
    if instr.opcode in (Opcode.ATOM, Opcode.RED):
        ex._account_global(addrs, g, 4)
    op = instr.atom_op
    signed = "S32" in instr.mods
    value_src = instr.srcs[-1]
    for lane in np.nonzero(g)[0]:
        lane = int(lane)
        mem, offset = _resolve_space(ex, warp, cta, instr,
                                     int(addrs[lane]), lane)
        old = mem.read(offset, 4)
        if isinstance(value_src, GPR):
            val = 0 if value_src.is_zero \
                else int(warp.regs[value_src.index, lane])
        else:
            val = int(value_src.value) & 0xFFFFFFFF
        if op in ("MIN", "MAX"):
            def to_signed(x):
                return x - (1 << 32) if signed and x & (1 << 31) else x
            pair = (to_signed(old), to_signed(val))
            new = (min if op == "MIN" else max)(pair)
        else:
            new = _ATOM_FNS[op](old, val)
        mem.write(offset, 4, new & 0xFFFFFFFF)
        if keep:
            warp.regs[instr.dsts[0].index, lane] = np.uint32(old & 0xFFFFFFFF)
    warp.pc += 1


#: production memory handler -> its per-lane loop
_PER_LANE = {executor_mod._op_load: _op_load,
             executor_mod._op_store: _op_store,
             executor_mod._op_atom: _op_atom}


def _per_lane(record: _Decoded) -> _Decoded:
    """Point *record*'s memory handler at its per-lane loop."""
    record.handler = _PER_LANE.get(record.handler, record.handler)
    return record


def _oracle_decoded(kernel) -> _DecodedKernel:
    """The oracle's own decode of *kernel*, memoized beside (never in
    place of) the production cache."""
    decoded = kernel.__dict__.get("_oracle_decoded")
    if decoded is None:
        decoded = _DecodedKernel(kernel)
        for record in decoded.records:
            _per_lane(record)
        object.__setattr__(kernel, "_oracle_decoded", decoded)
    return decoded


_execute = Executor._execute


def _per_lane_execute(self, dec, warp, cta):
    """``Executor._execute`` with any production memory record swapped
    for a fresh per-lane one (records built by ``step`` or walked by a
    test)."""
    if dec.handler in _PER_LANE:
        dec = _per_lane(_Decoded(dec.instr, dec.target))
    _execute(self, dec, warp, cta)


class OracleExecutor(Executor):
    """Dispatches each of the oracle's own records through ``step``; no
    superblock or site plan ever runs."""

    def _instruction(self, pc: int):
        return self._oracle.records[pc]

    def _run_warp(self, warp, cta):
        kernel = self._kernel
        self._oracle = _oracle_decoded(kernel)
        self._targets = self._oracle.targets
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
            self.step(warp, cta, self._instruction(pc))


class StepExecutor(OracleExecutor):
    """Hands ``step`` the raw :class:`Instruction` at each pc, decoded
    afresh on every call — the public single-step API end to end."""

    def _instruction(self, pc: int):
        return self._kernel.instructions[pc]


@contextlib.contextmanager
def oracle_executor(executor_cls=OracleExecutor):
    """Run every launch inside the block on *executor_cls*, with each
    warp memory access served lane by lane — also for records a test
    walks through ``Executor._execute`` itself."""
    with mock.patch.object(device_mod, "Executor", executor_cls), \
            mock.patch.object(Executor, "_execute", _per_lane_execute):
        yield
