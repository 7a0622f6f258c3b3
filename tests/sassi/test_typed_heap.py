"""Handler-side heap access through the device's typed word views.

Aligned 4- and 8-byte atomics, ``read_device`` and ``write_device`` go
through ``Device.heap_words``; everything else through
``Memory.read``/``Memory.write``.  Both must leave the same bytes,
return the same values and raise the same faults, and the views must
see every byte-level write to the heap (``Device.memset``, including
``CounterBuffer``'s per-launch zeroing).
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import pytest

from repro.backend import ptxas
from repro.sassi.cupti import CounterBuffer, CuptiSubscription
from repro.sassi.handlers import SASSIContext
from repro.sim import Device
from repro.sim.errors import DeviceFault
from repro.sim.memory import GLOBAL_BASE
from repro.sim.warp import WARP_SIZE
from repro.workloads import make

HEAP = 1 << 12
OPS = ("add", "and", "or", "exch", "min", "max")


def _context(device) -> SASSIContext:
    return SASSIContext(SimpleNamespace(device=device), None, None,
                        np.ones(WARP_SIZE, dtype=bool), None)


def _reference_atomic(mem, offset, value, width, op):
    """The byte-level atomic the typed path must agree with."""
    old = mem.read(offset, width)
    new = {"add": old + value, "and": old & value, "or": old | value,
           "exch": value, "min": min(old, value),
           "max": max(old, value)}[op]
    mem.write(offset, width, new & ((1 << (8 * width)) - 1))
    return old


def _twin_heaps(seed: int):
    devices = [Device(heap_bytes=HEAP) for _ in range(2)]
    fill = np.random.default_rng(seed).integers(0, 256, HEAP, dtype=np.uint8)
    for device in devices:
        device.global_mem.data[:] = fill
    return devices


@pytest.mark.parametrize("op", OPS)
@pytest.mark.parametrize("width", [4, 8])
@pytest.mark.parametrize("misalign", [0, 1, 2, 4])
def test_atomics_match_byte_level_memory(op, width, misalign):
    typed, reference = _twin_heaps(seed=width * 10 + misalign)
    ctx = _context(typed)
    rng = np.random.default_rng(misalign)
    for _ in range(20):
        offset = int(rng.integers(0, HEAP // 16)) * 16 + misalign
        value = int(rng.integers(0, 1 << 63)) >> (64 - 8 * width)
        old = ctx.device_atomic(GLOBAL_BASE + offset, value, width, op)
        assert old == _reference_atomic(reference.global_mem, offset,
                                        value, width, op)
    assert np.array_equal(typed.global_mem.data, reference.global_mem.data)


@pytest.mark.parametrize("width", [4, 8])
def test_loads_and_stores_match_byte_level_memory(width):
    typed, reference = _twin_heaps(seed=width)
    ctx = _context(typed)
    for offset in (0, 3, 4, 8, 12, HEAP - width, HEAP - width - 1):
        assert ctx.read_device(GLOBAL_BASE + offset, width) \
            == reference.global_mem.read(offset, width)
        ctx.write_device(GLOBAL_BASE + offset, -offset - 1, width)
        reference.global_mem.write(offset, width, -offset - 1)
    assert np.array_equal(typed.global_mem.data, reference.global_mem.data)


@pytest.mark.parametrize("offset", [-8, -4, -1, HEAP, HEAP - 4, HEAP + 8])
def test_out_of_heap_access_faults(offset):
    device = Device(heap_bytes=HEAP)
    ctx = _context(device)
    address = GLOBAL_BASE + offset
    with pytest.raises(DeviceFault) as expected:
        device.global_mem.read(offset, 8)
    for call in (lambda: ctx.atomic_add(address, 1),
                 lambda: ctx.read_device(address, 8),
                 lambda: ctx.write_device(address, 1, 8)):
        with pytest.raises(DeviceFault) as raised:
            call()
        assert str(raised.value) == str(expected.value)
    assert not device.global_mem.data.any()


def test_memset_is_visible_through_the_typed_view():
    device = Device()
    ctx = _context(device)
    pointer = device.alloc(64)
    for index in range(8):
        ctx.atomic_add(pointer + 8 * index, index + 1)
    device.memset(pointer, 0, 64)
    offset = pointer - GLOBAL_BASE
    assert not device.heap_words[8][offset // 8:offset // 8 + 8].any()
    assert ctx.read_device(pointer + 8, 8) == 0


def test_counter_buffer_zeroing_is_visible_through_the_typed_view():
    device = Device()
    ctx = _context(device)
    counters = CounterBuffer(CuptiSubscription(device), 4)
    for slot in range(4):
        ctx.atomic_add(counters.element_ptr(slot), 7)
    assert ctx.read_device(counters.element_ptr(3), 8) == 7
    workload = make("rodinia/nn")
    workload.execute(device, ptxas(workload.build_ir()))   # zeroes, then
    # an uninstrumented kernel leaves the counters alone
    assert [ctx.read_device(counters.element_ptr(slot), 8)
            for slot in range(4)] == [0, 0, 0, 0]
    words = device.heap_words[8]
    first = (counters.device_ptr - GLOBAL_BASE) // 8
    assert not words[first:first + 4].any()
    assert counters.records[0].counters.tolist() == [0, 0, 0, 0]
