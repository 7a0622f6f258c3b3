"""Warp memory accesses: the vector path against the per-lane oracle.

Every load, store and atomic the executor runs goes through one vector
path: lanes classified for the whole warp, one gather/scatter per space,
lanes sharing a word folded by one scan (atomics) or won by the last
lane (stores), partially overlapping lanes served in rounds, and faults
raised after the lanes before the first faulting lane.  Here one memory
instruction at a time runs from one Hypothesis-drawn state on twin
warps — once through ``Executor.step``, once under
:func:`tests.executor_oracle.oracle_executor`, whose loops walk the
active lanes one by one — and everything must match: global, shared
and local memory, registers, ``pc``, :class:`KernelStats`, the flat
cycle count folded from them and the exact :class:`DeviceFault` text.

The draws aim at what the per-lane loops used to be kept for: every
atomic operation with lanes sharing words, unaligned and partially
overlapping atomics, overlapping 4, 8 and 16 B stores, narrow loads and
stores, immediate and ``RZ`` stores, loads and atomics into ``RZ`` or
past the last register, generic warps spanning the local, shared and
global windows, unmapped and out-of-bounds lanes in the middle of a
warp, and addresses at or above 2**63.
"""

from __future__ import annotations

import contextlib

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.sim.executor as executor_mod
from repro.isa.instruction import Imm, Instruction, MemRef, MemSpace
from repro.isa.opcodes import Opcode
from repro.isa.registers import GPR, RZ
from repro.sim import Device, DeviceFault
from repro.sim.executor import LOCAL_PHYS_BYTES, CTAContext, Executor
from repro.sim.memory import (GLOBAL_BASE, LOCAL_BASE, SHARED_BASE,
                              SHARED_BYTES)
from repro.sim.scheduler import flat_cycles
from repro.sim.warp import WARP_SIZE, Warp
from tests.executor_oracle import oracle_executor

pytestmark = pytest.mark.noskip

HEAP = 64 << 10
NUM_REGS = 32
BASE, DATA, VALUE, DST = 2, 8, 12, 16

_SPACE = {
    Opcode.LDG: MemSpace.GLOBAL, Opcode.STG: MemSpace.GLOBAL,
    Opcode.ATOM: MemSpace.GLOBAL, Opcode.RED: MemSpace.GLOBAL,
    Opcode.LDS: MemSpace.SHARED, Opcode.STS: MemSpace.SHARED,
    Opcode.ATOMS: MemSpace.SHARED, Opcode.LDL: MemSpace.LOCAL,
    Opcode.STL: MemSpace.LOCAL, Opcode.LDC: MemSpace.CONST,
    Opcode.LD: MemSpace.GENERIC, Opcode.ST: MemSpace.GENERIC,
}

#: address anchors per space: in bounds, at the end of the space, past
#: it, unmapped, and at or above 2**63 (64-bit) or wrapping (32-bit)
_HUGE = [1 << 63, (1 << 64) - 12]
_ANCHORS = {
    MemSpace.GLOBAL: [GLOBAL_BASE + 0x100, GLOBAL_BASE + 0x2000,
                      GLOBAL_BASE + HEAP - 12, GLOBAL_BASE - 8] + _HUGE,
    MemSpace.SHARED: [0x40, 0x800, SHARED_BYTES - 12, 0xFFFFFFF8],
    MemSpace.LOCAL: [0x10, 0x200, LOCAL_PHYS_BYTES - 12, 0xFFFFFFF8],
    MemSpace.CONST: [0x100, 0x3000, (64 << 10) - 12],
    MemSpace.GENERIC: [GLOBAL_BASE + 0x100, GLOBAL_BASE + HEAP - 12,
                       SHARED_BASE + 0x40, SHARED_BASE + SHARED_BYTES - 12,
                       LOCAL_BASE + 0x10, LOCAL_BASE + LOCAL_PHYS_BYTES - 12,
                       0x10, SHARED_BASE + SHARED_BYTES + 0x10] + _HUGE,
}

_WIDTHS = [(), ("64",), ("128",)]
_NARROW = [("U8",), ("S8",), ("U16",), ("S16",)]
_ATOM_OPS = ["ADD", "AND", "OR", "XOR", "MIN", "MAX", "EXCH", "INC", "DEC"]

_masks = st.one_of(st.just((1 << WARP_SIZE) - 1),
                   st.integers(1, (1 << WARP_SIZE) - 1))


@st.composite
def _addresses(draw, space):
    """Per-lane addresses: a few anchors, each lane a small step past
    one, so lanes share words, overlap partly and straddle bounds."""
    anchors = draw(st.lists(st.sampled_from(_ANCHORS[space]),
                            min_size=1, max_size=3))
    picks = draw(st.lists(st.integers(0, len(anchors) - 1),
                          min_size=WARP_SIZE, max_size=WARP_SIZE))
    steps = draw(st.lists(st.sampled_from([0, 0, 1, 2, 4, 6, 8, 16, 32]),
                          min_size=WARP_SIZE, max_size=WARP_SIZE))
    return [(anchors[pick] + step) % (1 << 64)
            for pick, step in zip(picks, steps)]


@st.composite
def _memory_ref(draw, opcode):
    """``(MemRef, per-lane base-register addresses)``."""
    space = _SPACE[opcode]
    addrs = draw(_addresses(space))
    wide = space in (MemSpace.GLOBAL, MemSpace.GENERIC)
    if not wide:
        addrs = [addr & 0xFFFFFFFF for addr in addrs]
    # a negative offset wraps small 32-bit bases past 2**63
    offset = draw(st.sampled_from([0, 0, 4, -8])) if not wide else 0
    return MemRef(space, GPR(BASE), offset), addrs


_loads = st.sampled_from([Opcode.LDG, Opcode.LDS, Opcode.LDL, Opcode.LDC,
                          Opcode.LD]).flatmap(
    lambda opcode: st.tuples(
        st.just(opcode), _memory_ref(opcode),
        st.sampled_from(_WIDTHS + _NARROW),
        st.sampled_from([DST, BASE, NUM_REGS - 1, RZ.index])))

_stores = st.sampled_from([Opcode.STG, Opcode.STS, Opcode.STL,
                           Opcode.ST]).flatmap(
    lambda opcode: st.tuples(
        st.just(opcode), _memory_ref(opcode),
        st.sampled_from(_WIDTHS + _NARROW),
        st.one_of(st.just(GPR(DATA)), st.just(RZ),
                  st.integers(-(1 << 31), (1 << 32) - 1).map(Imm))))

_atomics = st.sampled_from([Opcode.ATOM, Opcode.ATOMS, Opcode.RED]).flatmap(
    lambda opcode: st.tuples(
        st.just(opcode), _memory_ref(opcode),
        st.sampled_from(_ATOM_OPS), st.sampled_from(["U32", "S32"]),
        st.one_of(st.just(GPR(VALUE)), st.just(RZ),
                  st.integers(0, (1 << 32) - 1).map(Imm)),
        st.sampled_from([DST, RZ.index, NUM_REGS])))


def _run(instr, addrs, bits, seed, per_lane):
    """Run *instr* once on a fresh warp; returns everything it can
    change plus the fault text (None when it completes)."""
    rng = np.random.default_rng(seed)
    device = Device(heap_bytes=HEAP)
    device.global_mem.data[:] = rng.integers(0, 256, HEAP, dtype=np.uint8)
    device.const_mem.data[:] = rng.integers(
        0, 256, device.const_mem.size, dtype=np.uint8)
    cta = CTAContext((0, 0, 0), 0, num_threads=WARP_SIZE)
    cta.shared.data[:] = rng.integers(0, 256, cta.shared.size,
                                      dtype=np.uint8)
    cta.local_block()[:] = rng.integers(
        0, 256, (WARP_SIZE, LOCAL_PHYS_BYTES), dtype=np.uint8)
    warp = Warp(0, NUM_REGS, WARP_SIZE, np.arange(WARP_SIZE))
    warp.regs[:] = rng.integers(0, 1 << 32, (NUM_REGS, WARP_SIZE),
                                dtype=np.uint64).astype(np.uint32)
    wide = np.array(addrs, dtype=np.uint64)
    warp.regs[BASE] = (wide & np.uint64(0xFFFFFFFF)).astype(np.uint32)
    warp.regs[BASE + 1] = (wide >> np.uint64(32)).astype(np.uint32)
    warp.active = np.array([(bits >> lane) & 1 for lane in range(WARP_SIZE)],
                           dtype=bool)
    ex = Executor(device)
    ex._targets = [None]
    fault = None
    with oracle_executor() if per_lane else contextlib.nullcontext():
        try:
            ex.step(warp, cta, instr)
        except DeviceFault as exc:
            fault = str(exc)
    return {"fault": fault, "pc": warp.pc, "regs": warp.regs,
            "global": device.global_mem.data, "shared": cta.shared.data,
            "local": cta.local_block(), "stats": ex.stats,
            "cycles": flat_cycles(ex.stats)}


def _assert_same(instr, addrs, bits, seed):
    vector = _run(instr, addrs, bits, seed, per_lane=False)
    oracle = _run(instr, addrs, bits, seed, per_lane=True)
    assert vector["stats"].opcode_counts == {instr.opcode: 1}, \
        f"{instr!r}: step left the record uncounted"
    assert vector["fault"] == oracle["fault"], f"{instr!r}: fault differs"
    for key, want in oracle.items():
        got = vector[key]
        same = np.array_equal(got, want) if isinstance(want, np.ndarray) \
            else got == want
        assert same, f"{instr!r}: {key} differs from the per-lane oracle"
    return vector["fault"]


_seeds = st.integers(0, 2 ** 32 - 1)
_SETTINGS = settings(max_examples=150, deadline=None,
                     suppress_health_check=[HealthCheck.too_slow])


@_SETTINGS
@given(case=_loads, bits=_masks, seed=_seeds)
def test_loads_match_per_lane_oracle(case, bits, seed):
    opcode, (ref, addrs), mods, dst = case
    instr = Instruction(opcode, (GPR(dst),), (ref,), mods=mods)
    _assert_same(instr, addrs, bits, seed)


@_SETTINGS
@given(case=_stores, bits=_masks, seed=_seeds)
def test_stores_match_per_lane_oracle(case, bits, seed):
    opcode, (ref, addrs), mods, data = case
    instr = Instruction(opcode, (), (ref, data), mods=mods)
    _assert_same(instr, addrs, bits, seed)


@_SETTINGS
@given(case=_atomics, bits=_masks, seed=_seeds)
def test_atomics_match_per_lane_oracle(case, bits, seed):
    opcode, (ref, addrs), op, sign, value, dst = case
    dsts = () if opcode is Opcode.RED else (GPR(dst),)
    instr = Instruction(opcode, dsts, (ref, value), mods=(op, sign))
    _assert_same(instr, addrs, bits, seed)


_ALL = (1 << WARP_SIZE) - 1
_WORD = GLOBAL_BASE + 0x100


@pytest.mark.parametrize("op", _ATOM_OPS)
@pytest.mark.parametrize("sign", ["U32", "S32"])
def test_every_atomic_with_lanes_sharing_words(op, sign):
    # four words, eight lanes each, interleaved; then one unaligned word
    # half-overlapping its neighbours
    for addrs in ([_WORD + 4 * (lane % 4) for lane in range(WARP_SIZE)],
                  [_WORD + 2 * (lane % 3) for lane in range(WARP_SIZE)]):
        instr = Instruction(Opcode.ATOM, (GPR(DST),),
                            (MemRef(MemSpace.GLOBAL, GPR(BASE)),
                             GPR(VALUE)), mods=(op, sign))
        assert _assert_same(instr, addrs, _ALL, seed=len(op)) is None


@pytest.mark.parametrize("width", [(), ("64",), ("128",)])
def test_overlapping_stores_keep_the_last_lane(width):
    addrs = [_WORD + 4 * (lane % 5) for lane in range(WARP_SIZE)]
    instr = Instruction(Opcode.STG, (), (MemRef(MemSpace.GLOBAL, GPR(BASE)),
                                         GPR(DATA)), mods=width)
    assert _assert_same(instr, addrs, _ALL, seed=7) is None


def test_lanes_on_one_word_fold_in_one_pass(monkeypatch):
    # an inline counter's RED.ADD from every lane, and an ATOM that
    # returns the old words: one scan, not a round per lane
    def no_rounds(*args):
        raise AssertionError("lanes on the same word served in rounds")

    monkeypatch.setattr(executor_mod, "_atom_round", no_rounds)
    ref = MemRef(MemSpace.GLOBAL, GPR(BASE))
    for instr in (Instruction(Opcode.RED, (), (ref, Imm(1)), mods=("ADD",)),
                  Instruction(Opcode.ATOM, (GPR(DST),), (ref, GPR(VALUE)),
                              mods=("MAX", "S32"))):
        assert _assert_same(instr, [_WORD] * WARP_SIZE, _ALL, seed=5) is None


def test_partially_overlapping_immediate_stores():
    addrs = [_WORD + lane % 3 for lane in range(WARP_SIZE)]
    instr = Instruction(Opcode.STG, (), (MemRef(MemSpace.GLOBAL, GPR(BASE)),
                                         Imm(0x01020304)))
    assert _assert_same(instr, addrs, _ALL, seed=9) is None


@pytest.mark.parametrize("opcode", [Opcode.STG, Opcode.ATOM, Opcode.LD])
@pytest.mark.parametrize("lane", [0, 1, 17, WARP_SIZE - 1])
def test_faulting_lane_mid_warp(opcode, lane):
    # every lane hits one word except *lane*, which leaves the heap:
    # the lanes before it apply, then its exact fault is raised
    addrs = [_WORD] * WARP_SIZE
    addrs[lane] = GLOBAL_BASE + HEAP - 2
    ref = MemRef(_SPACE[opcode], GPR(BASE))
    if opcode is Opcode.STG:
        instr = Instruction(opcode, (), (ref, GPR(DATA)))
    elif opcode is Opcode.ATOM:
        instr = Instruction(opcode, (GPR(DST),), (ref, GPR(VALUE)),
                            mods=("ADD", "U32"))
    else:
        instr = Instruction(opcode, (GPR(DST),), (ref,))
    fault = _assert_same(instr, addrs, _ALL, seed=lane)
    assert fault == f"global: access of 4 bytes at 0x{HEAP - 2:x} " \
        f"outside [0, 0x{HEAP:x})"


def test_fault_text_keeps_addresses_above_2_63():
    addrs = [_WORD] * WARP_SIZE
    addrs[5] = (1 << 64) - 4
    instr = Instruction(Opcode.LD, (GPR(DST),),
                        (MemRef(MemSpace.GENERIC, GPR(BASE)),))
    fault = _assert_same(instr, addrs, _ALL, seed=3)
    assert fault == "local[t5]: access of 4 bytes at " \
        f"0x{(1 << 64) - 4 - LOCAL_BASE:x} outside [0, 0x1000)"


def test_generic_warp_spanning_every_window():
    addrs = [(GLOBAL_BASE + 0x100, SHARED_BASE + 0x40,
              LOCAL_BASE + 0x10)[lane % 3] + 4 * (lane // 3)
             for lane in range(WARP_SIZE)]
    for instr in (Instruction(Opcode.LD, (GPR(DST),),
                              (MemRef(MemSpace.GENERIC, GPR(BASE)),),
                              mods=("64",)),
                  Instruction(Opcode.ST, (),
                              (MemRef(MemSpace.GENERIC, GPR(BASE)),
                               GPR(DATA)), mods=("64",))):
        assert _assert_same(instr, addrs, _ALL, seed=11) is None


def _returning(kind, dst, mods=()):
    """A global load or atomic add returning into *dst*."""
    ref = MemRef(MemSpace.GLOBAL, GPR(BASE))
    if kind == "load":
        return Instruction(Opcode.LDG, (dst,), (ref,), mods=mods)
    return Instruction(Opcode.ATOM, (dst,), (ref, GPR(VALUE)),
                       mods=("ADD", "U32"))


@pytest.mark.parametrize("kind", ["load", "atomic"])
@pytest.mark.parametrize("faulting", [False, True])
def test_rz_destination_discards_the_value(kind, faulting):
    # the access still runs: an atomic still updates memory, and a lane
    # past the heap still faults; no register changes
    addrs = [_WORD + 4 * lane for lane in range(WARP_SIZE)]
    if faulting:
        addrs[9] = GLOBAL_BASE + HEAP - 2
    instr = _returning(kind, RZ)
    fault = _assert_same(instr, addrs, _ALL, seed=13)
    before = _run(instr, addrs, 0, 13, per_lane=False)   # no lane runs
    after = _run(instr, addrs, _ALL, 13, per_lane=False)
    assert np.array_equal(after["regs"], before["regs"])
    assert np.array_equal(after["global"], before["global"]) == \
        (kind == "load")
    assert fault == (f"global: access of 4 bytes at 0x{HEAP - 2:x} "
                     f"outside [0, 0x{HEAP:x})" if faulting else None)


@pytest.mark.parametrize("op", ["ADD", "EXCH", "MAX"])
def test_rz_value_operand_reads_zero(op):
    # ``ATOM.<op>.U32 R16, [R2], RZ``: the lanes combine their words
    # with 0, as stores already read an RZ source
    addrs = [_WORD + 4 * (lane % 5) for lane in range(WARP_SIZE)]
    instr = Instruction(Opcode.ATOM, (GPR(DST),),
                        (MemRef(MemSpace.GLOBAL, GPR(BASE)), RZ),
                        mods=(op, "U32"))
    assert _assert_same(instr, addrs, _ALL, seed=19) is None
    before = _run(instr, addrs, 0, 19, per_lane=False)
    after = _run(instr, addrs, _ALL, 19, per_lane=False)
    offset = _WORD - GLOBAL_BASE
    old = before["global"][offset:offset + 20].copy()
    new = after["global"][offset:offset + 20]
    assert np.array_equal(new, np.zeros(20, np.uint8) if op == "EXCH"
                          else old)
    assert np.array_equal(after["regs"][DST, :5].view(np.uint8), old)


@pytest.mark.parametrize("kind, dst, mods, named", [
    ("load", NUM_REGS, (), NUM_REGS),
    ("load", NUM_REGS - 2, ("128",), NUM_REGS),
    ("atomic", NUM_REGS + 3, (), NUM_REGS + 3),
])
def test_destination_past_the_registers_faults(kind, dst, mods, named):
    # the same fault an ALU write past the registers raises, before
    # any lane touches memory
    instr = _returning(kind, GPR(dst), mods)
    addrs = [_WORD + 4 * lane for lane in range(WARP_SIZE)]
    fault = _assert_same(instr, addrs, _ALL, seed=17)
    assert fault == f"register R{named} out of range"
    untouched = _run(instr, addrs, 0, 17, per_lane=False)["global"]
    assert np.array_equal(_run(instr, addrs, _ALL, 17,
                               per_lane=False)["global"], untouched)
    mov = Instruction(Opcode.MOV, (GPR(named),), (Imm(1),))
    assert _run(mov, addrs, _ALL, 17, per_lane=False)["fault"] == fault
