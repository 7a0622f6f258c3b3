"""Hypothesis property suite for the warp-wide context intrinsics.

The vectorized ``ballot``/``any_``/``all_``/``shfl`` implementations in
:class:`~repro.sassi.handlers.SASSIContext` must bit-match a per-lane
reference loop on arbitrary masks and values — and the per-lane oracle
context (:class:`tests.handler_oracle.PerLaneContext`) must agree with
both, since it is the baseline the instrumented differential suite
diffs against.  ``shfl`` must read lane ``src_lane`` modulo 32 through
both the warp-level and the thread-level API.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.sassi.handlers import SASSIContext
from repro.sassi.threadsimt import Shfl, run_warp_handler
from tests.handler_oracle import PerLaneContext

WARP = 32

mask_bits = st.integers(min_value=0, max_value=2**WARP - 1)
lane_values = st.lists(st.integers(0, 2**32 - 1),
                       min_size=WARP, max_size=WARP)


class _StubExecutor:
    device = None


def _contexts(bits):
    mask = np.array([(bits >> lane) & 1 == 1 for lane in range(WARP)],
                    dtype=bool)
    fast = SASSIContext(_StubExecutor(), None, None, mask, bp=None)
    slow = PerLaneContext(_StubExecutor(), None, None, mask, bp=None)
    return mask, fast, slow


def _ref_ballot(mask, values):
    result = 0
    for lane in range(WARP):
        if mask[lane] and values[lane]:
            result |= 1 << lane
    return result


@settings(max_examples=200, deadline=None)
@given(bits=mask_bits, raw=lane_values)
def test_ballot_matches_reference_loop(bits, raw):
    mask, fast, slow = _contexts(bits)
    values = np.asarray(raw, dtype=np.uint32)
    expected = _ref_ballot(mask, values)
    assert fast.ballot(values) == expected
    assert slow.ballot(values) == expected


@settings(max_examples=100, deadline=None)
@given(bits=mask_bits, truthy=st.booleans())
def test_ballot_scalar_argument(bits, truthy):
    mask, fast, slow = _contexts(bits)
    expected = _ref_ballot(mask, np.full(WARP, int(truthy)))
    assert fast.ballot(int(truthy)) == expected
    assert slow.ballot(int(truthy)) == expected


@settings(max_examples=100, deadline=None)
@given(bits=mask_bits)
def test_active_mask_matches_mask_bits(bits):
    _, fast, slow = _contexts(bits)
    assert fast.active_mask() == bits
    assert slow.active_mask() == bits


@settings(max_examples=200, deadline=None)
@given(bits=mask_bits, raw=lane_values)
def test_any_all_match_reference_loop(bits, raw):
    mask, fast, slow = _contexts(bits)
    values = np.asarray(raw, dtype=np.uint32)
    active = [lane for lane in range(WARP) if mask[lane]]
    ref_any = any(bool(values[lane]) for lane in active)
    ref_all = all(bool(values[lane]) for lane in active)
    assert fast.any_(values) == ref_any
    assert slow.any_(values) == ref_any
    assert fast.all_(values) == ref_all
    assert slow.all_(values) == ref_all


@settings(max_examples=200, deadline=None)
@given(bits=mask_bits, raw=lane_values,
       src_lane=st.integers(0, WARP - 1))
def test_shfl_reads_source_lane(bits, raw, src_lane):
    _, fast, slow = _contexts(bits)
    values = np.asarray(raw, dtype=np.uint32)
    assert int(fast.shfl(values, src_lane)) == raw[src_lane]
    assert int(slow.shfl(values, src_lane)) == raw[src_lane]


@settings(max_examples=100, deadline=None)
@given(bits=mask_bits)
def test_leader_and_lanes_match_reference(bits):
    mask, fast, slow = _contexts(bits)
    active = [lane for lane in range(WARP) if mask[lane]]
    expected_leader = active[0] if active else -1
    for ctx in (fast, slow):
        assert ctx.leader() == expected_leader
        assert ctx.lanes() == active
        assert ctx.num_active == len(active)


def _thread_shfl(raw, lanes, src_lane):
    """``Shfl(value, src_lane)`` issued by every lane in *lanes*
    through the thread-level engine; returns what each lane read."""
    got = {}

    def make_gen(lane):
        got[lane] = yield Shfl(raw[lane], src_lane)

    run_warp_handler(lanes, make_gen, atomic=None)
    return got


@settings(max_examples=200, deadline=None)
@given(bits=mask_bits, raw=lane_values,
       src_lane=st.integers(-2**40, 2**40))
def test_shfl_wraps_source_lane_modulo_32(bits, raw, src_lane):
    mask, fast, slow = _contexts(bits)
    values = np.asarray(raw, dtype=np.uint32)
    expected = raw[src_lane % WARP]
    assert int(fast.shfl(values, src_lane)) == expected
    assert int(slow.shfl(values, src_lane)) == expected
    # the thread-level API agrees whenever the source lane runs the
    # handler; otherwise each lane reads back its own value
    everyone = _thread_shfl(raw, list(range(WARP)), src_lane)
    assert everyone == {lane: expected for lane in range(WARP)}
    active = [lane for lane in range(WARP) if mask[lane]]
    got = _thread_shfl(raw, active, src_lane)
    assert got == {lane: expected if mask[src_lane % WARP] else raw[lane]
                   for lane in active}
