"""Lock-step execution engine for *thread-level* handlers.

The paper's handlers are CUDA ``__device__`` functions: every active
thread of the warp runs the handler, and warp-wide intrinsics
(``__ballot``, ``__shfl``, ``__all``) synchronize across lanes.  The
thread-level handler API reproduces that model with Python generators:
the handler is written per-thread and *yields* intrinsic requests; the
engine advances all lanes in lock step, services each warp-wide
intrinsic across the lanes that issued it, and sends the results back.

Example (the ballot idiom from the paper's Figure 4)::

    def handler(t):                       # t: SASSIThreadContext
        direction = t.brp.GetDirection()
        active = yield Ballot(1)
        taken = yield Ballot(direction)
        if t.lane_id == ffs(active) - 1:  # first active lane writes
            yield AtomicAdd(counter_ptr, 1)

A lane that ``return``s early becomes inactive (as in CUDA); later
ballots see only the remaining lanes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Generator, List, Optional

from repro.sim.warp import WARP_SIZE


class ThreadHandlerError(Exception):
    """Lanes fell out of lock step (yielded different intrinsics)."""


@dataclass(frozen=True)
class Ballot:
    """``__ballot(predicate)``: a mask of lanes whose value is truthy."""

    value: Any


@dataclass(frozen=True)
class All:
    """``__all(predicate)``: 1 iff every participating lane is truthy."""

    value: Any


@dataclass(frozen=True)
class Any_:
    """``__any(predicate)``."""

    value: Any


@dataclass(frozen=True)
class Shfl:
    """``__shfl(value, src_lane)``: read *value* from lane
    ``src_lane`` modulo 32."""

    value: Any
    src_lane: int


@dataclass(frozen=True)
class AtomicAdd:
    """``atomicAdd`` on device global memory (width 4 or 8 bytes)."""

    address: int
    value: int
    width: int = 8


@dataclass(frozen=True)
class AtomicAnd:
    address: int
    value: int
    width: int = 4


@dataclass(frozen=True)
class AtomicOr:
    address: int
    value: int
    width: int = 4


def ffs(mask: int) -> int:
    """CUDA ``__ffs``: 1-based index of the least-significant set bit."""
    if mask == 0:
        return 0
    return (mask & -mask).bit_length()


def popc(mask: int) -> int:
    """CUDA ``__popc``."""
    return bin(mask & 0xFFFFFFFF).count("1")


def run_warp_handler(lanes: List[int],
                     make_gen: Callable[[int], Generator],
                     atomic: Callable[[int, int, int, str], int]) -> None:
    """Run one generator per lane in lock step.

    *atomic(address, value, width, op)* performs the device-memory
    read-modify-write and returns the old value.
    """
    gens: Dict[int, Generator] = {}
    pending: Dict[int, Any] = {}
    for lane in lanes:
        gens[lane] = make_gen(lane)
        pending[lane] = None

    live = list(lanes)
    inbox: Dict[int, Any] = {lane: None for lane in live}
    while live:
        requests: Dict[int, Any] = {}
        finished: List[int] = []
        for lane in live:
            try:
                requests[lane] = gens[lane].send(inbox[lane])
            except StopIteration:
                finished.append(lane)
        for lane in finished:
            live.remove(lane)
            requests.pop(lane, None)
        if not live:
            break
        kinds = {type(r) for r in requests.values()}
        if len(kinds) != 1:
            raise ThreadHandlerError(
                f"lanes diverged inside a thread handler: {kinds}")
        kind = kinds.pop()
        inbox = _service(kind, requests, atomic)
        for lane in live:
            inbox.setdefault(lane, None)


def _service(kind, requests: Dict[int, Any],
             atomic) -> Dict[int, Any]:
    if kind in (Ballot, All, Any_):
        mask = 0
        for lane, req in requests.items():
            if req.value:
                mask |= 1 << lane
        if kind is Ballot:
            return {lane: mask for lane in requests}
        if kind is All:
            value = 1 if all(bool(r.value) for r in requests.values()) else 0
            return {lane: value for lane in requests}
        value = 1 if mask else 0
        return {lane: value for lane in requests}
    if kind is Shfl:
        # CUDA reads lane srcLane modulo the warp width; when that lane
        # is not running the handler, the caller gets its own value
        values = {lane: req.value for lane, req in requests.items()}
        return {lane: values.get(req.src_lane % WARP_SIZE, req.value)
                for lane, req in requests.items()}
    if kind is AtomicAdd:
        return {lane: atomic(req.address, req.value, req.width, "add")
                for lane, req in requests.items()}
    if kind is AtomicAnd:
        return {lane: atomic(req.address, req.value, req.width, "and")
                for lane, req in requests.items()}
    if kind is AtomicOr:
        return {lane: atomic(req.address, req.value, req.width, "or")
                for lane, req in requests.items()}
    raise ThreadHandlerError(f"unknown intrinsic request: {kind}")
