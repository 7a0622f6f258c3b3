"""Handler runtime: registration, trampoline construction, contexts.

A handler is registered under a symbol name (``sassi_before_handler`` by
default) with the runtime, which plays ``nvlink``'s role: it assigns the
symbol a trampoline address on the device, and the injected ``JCAL``
transfers control there.  Two authoring styles are supported:

* **warp handlers** (``kind="warp"``) receive one :class:`SASSIContext`
  per site with warp-wide parameter views and mask-level intrinsics —
  the form the case-study library uses;
* **thread handlers** (``kind="thread"``) are generator functions run
  per active lane in lock step by :mod:`repro.sassi.threadsimt`, with
  ``__ballot``/``__shfl``-style intrinsics — the faithful transliteration
  of the paper's CUDA handlers.

The runtime enforces the paper's 16-register handler cap (the
``-maxrregcount`` constraint of Section 3.2) and, after every handler
call, *poisons* the caller-saved registers of the calling lanes: any
under-spilling by the injector is then caught immediately by tests
rather than silently tolerated.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.backend import CompileOptions, ptxas
from repro.isa.program import SassKernel
from repro.sassi import params as P
from repro.sassi.abi import POISON, frame_parts, poison_caller_saved
from repro.sassi.inject import InjectionReport, instrument_kernel
from repro.sassi.params import (
    SASSIAfterParams,
    SASSIBeforeParams,
    SASSICondBranchParams,
    SASSIMemoryParams,
    SASSIRegisterParams,
)
from repro.sassi.spec import InstrumentationSpec, What, Where
from repro.sassi.threadsimt import ThreadHandlerError, run_warp_handler
from repro.sim.memory import GLOBAL_BASE, LOCAL_BASE
from repro.sim.warp import WARP_SIZE, mask_to_u32
from repro.telemetry.collector import TELEMETRY, span as telemetry_span


class HandlerRegistrationError(Exception):
    """Bad handler registration (unknown kind, register cap exceeded)."""


@dataclass
class _Registration:
    name: str
    fn: Callable
    kind: str
    registers: int


class SASSIContext:
    """Warp-level view of one instrumentation site.

    Attributes:

    * ``bp``/``ap`` — the before/after parameter view.
    * ``mp``/``brp``/``rp`` — extra parameter views (``None`` when the
      spec did not marshal them).
    * ``mask`` — boolean lane mask of threads at the site.
    * intrinsics — ``ballot``, ``all_``, ``any_``, ``shfl``, ``popc``,
      ``ffs``, ``leader`` plus device-memory atomics.
    """

    def __init__(self, executor, warp, cta, mask, bp, mp=None, brp=None,
                 rp=None, where: Where = Where.BEFORE, lanes=None):
        self.executor = executor
        self.device = executor.device
        self.warp = warp
        self.cta = cta
        self.mask = mask
        self.where = where
        self.bp = bp
        self.ap = bp if where is Where.AFTER else None
        self.mp = mp
        self.brp = brp
        self.rp = rp
        if lanes is None:
            lanes = np.nonzero(mask)[0]
        #: active-lane indices at the site (ndarray, ascending)
        self.lanes_idx = lanes
        #: number of active lanes at the site
        self.num_active = int(lanes.size)
        self._lanes_list = None
        #: sampling weight of this firing (1 = exact).  When the site is
        #: sampled at rate 1/N the executor sets this to N; handlers
        #: multiply additive counter increments by it so their device
        #: buffers hold unbiased estimates of the exact counts.
        self.sample_rate = getattr(executor, "_sample_rate", 1)

    # ---- warp intrinsics over the site mask ----

    def ballot(self, values) -> int:
        """``__ballot`` over the active lanes at the site."""
        values = np.asarray(values)
        if values.shape:
            voting = self.mask & (values != 0)
        elif values:
            voting = self.mask
        else:
            voting = np.zeros_like(self.mask)
        return mask_to_u32(voting)

    def active_mask(self) -> int:
        return mask_to_u32(self.mask)

    def all_(self, values) -> bool:
        values = np.asarray(values)
        if values.shape:
            return bool(values[self.lanes_idx].all())
        return bool(values.all())

    def any_(self, values) -> bool:
        values = np.asarray(values)
        if values.shape:
            return bool(values[self.lanes_idx].any())
        return bool(values.any())

    def shfl(self, values, src_lane: int):
        """``__shfl``: *values* as seen from lane ``src_lane`` modulo the
        warp width, as CUDA reads it."""
        return np.asarray(values)[src_lane % WARP_SIZE]

    def leader(self) -> int:
        """The first active lane (the ``__ffs(__ballot(1))-1`` idiom)."""
        idx = self.lanes_idx
        return int(idx[0]) if idx.size else -1

    def lanes(self):
        if self._lanes_list is None:
            self._lanes_list = [int(l) for l in self.lanes_idx]
        return list(self._lanes_list)

    # ---- device-memory access (handler-side atomics & loads) ----

    def _word(self, address: int, width: int):
        """``(typed heap view, index)`` of an aligned in-heap access of
        *width* 4 or 8, else ``(None, heap offset)``: the caller then
        goes through ``Memory.read``/``write``, which fault out of heap
        and handle any alignment."""
        offset = int(address) - GLOBAL_BASE
        device = self.device
        words = device.heap_words.get(width)
        if words is None or offset % width or offset < 0 \
                or offset + width > device.heap_bytes:
            return None, offset
        return words, offset // width

    def atomic_add(self, address: int, value: int, width: int = 8) -> int:
        return self.device_atomic(address, value, width, "add")

    def atomic_and(self, address: int, value: int, width: int = 4) -> int:
        return self.device_atomic(address, value, width, "and")

    def atomic_or(self, address: int, value: int, width: int = 4) -> int:
        return self.device_atomic(address, value, width, "or")

    def device_atomic(self, address: int, value: int, width: int,
                      op: str) -> int:
        words, at = self._word(address, width)
        mem = self.device.global_mem
        old = int(words[at]) if words is not None else mem.read(at, width)
        if op == "add":
            new = old + int(value)
        elif op == "and":
            new = old & int(value)
        elif op == "or":
            new = old | int(value)
        elif op == "exch":
            new = int(value)
        elif op == "min":
            new = min(old, int(value))
        elif op == "max":
            new = max(old, int(value))
        else:
            raise ValueError(f"unknown atomic op {op!r}")
        new &= (1 << (8 * width)) - 1
        if words is not None:
            words[at] = new
        else:
            mem.write(at, width, new)
        return old

    def read_device(self, address: int, width: int = 4) -> int:
        words, at = self._word(address, width)
        if words is not None:
            return int(words[at])
        return self.device.global_mem.read(at, width)

    def write_device(self, address: int, value: int, width: int = 4) -> None:
        words, at = self._word(address, width)
        if words is not None:
            words[at] = int(value) & ((1 << (8 * width)) - 1)
        else:
            self.device.global_mem.write(at, width, int(value))


class SASSIThreadContext:
    """Per-lane view handed to thread-level handlers."""

    def __init__(self, warp_ctx: SASSIContext, lane: int):
        self._ctx = warp_ctx
        self.lane_id = lane
        self.sample_rate = warp_ctx.sample_rate
        self.thread_idx = int(warp_ctx.warp.lane_thread_ids[lane])
        self.bp = _LaneView(warp_ctx.bp, lane)
        self.ap = _LaneView(warp_ctx.bp, lane) \
            if warp_ctx.where is Where.AFTER else None
        self.mp = _LaneView(warp_ctx.mp, lane) if warp_ctx.mp else None
        self.brp = _LaneView(warp_ctx.brp, lane) if warp_ctx.brp else None
        self.rp = _LaneView(warp_ctx.rp, lane) if warp_ctx.rp else None


class _LaneView:
    """Scalarizes a warp-level parameter view for one lane: any method
    returning a per-lane row returns this lane's element instead."""

    def __init__(self, view, lane: int):
        self._view = view
        self._lane = lane

    def __getattr__(self, name):
        method = getattr(self._view, name)

        def scalarized(*args, **kwargs):
            result = method(*args, **kwargs)
            if isinstance(result, np.ndarray) and result.shape:
                return result[self._lane].item()
            return result

        return scalarized


class SassiRuntime:
    """Registers handlers and produces the compiler's final pass."""

    def __init__(self, device, poison_caller_saved: bool = True):
        self.device = device
        self.poison_caller_saved = poison_caller_saved
        self._registrations: Dict[str, _Registration] = {}
        self._spec: Optional[InstrumentationSpec] = None
        self.reports: List[InjectionReport] = []
        #: (fn_addr, ins_offset, where) -> site decode: the Instruction
        #: object and the frame layout, resolved once per site instead
        #: of per invocation (cleared when a new spec is instrumented)
        self._site_cache: dict = {}
        #: site plan -> its bound context skeleton, for the ``where`` it
        #: names first (cleared with the site cache)
        self._plan_sites: dict = {}

    # ---------------------------------------------------- registration

    def register_handler(self, name: str, fn: Callable, kind: str = "warp",
                         registers: int = 16,
                         where: Optional[Where] = None) -> None:
        """Register *fn* under handler symbol *name*.

        ``kind`` is ``"warp"`` or ``"thread"``; *registers* declares the
        handler's register footprint (checked against the spec's cap at
        instrumentation time, mirroring ``-maxrregcount=16``).  ``where``
        selects the parameter-view flavour (before/after); by default it
        is inferred from the symbol name, matching the paper's
        ``sassi_before_handler``/``sassi_after_handler`` convention.
        """
        if kind not in ("warp", "thread"):
            raise HandlerRegistrationError(f"unknown handler kind {kind!r}")
        if where is None:
            where = Where.AFTER if "after" in name else Where.BEFORE
        registration = _Registration(name, fn, kind, registers)
        self._registrations[name] = registration
        address = self.device.program.add_handler_symbol(name)
        self.device.handler_bindings[address] = _Binding(
            self, registration, where)

    def register_before_handler(self, fn: Callable, kind: str = "warp",
                                registers: int = 16,
                                name: str = "sassi_before_handler") -> None:
        self.register_handler(name, fn, kind, registers)

    def register_after_handler(self, fn: Callable, kind: str = "warp",
                               registers: int = 16,
                               name: str = "sassi_after_handler") -> None:
        self.register_handler(name, fn, kind, registers)

    # -------------------------------------------------- instrumentation

    def instrument(self, spec: InstrumentationSpec) -> Callable:
        """A ``final_pass`` for :func:`repro.backend.ptxas`."""
        for handler_name in (spec.before_handler if spec.before else None,
                             spec.after_handler if spec.after else None):
            if handler_name is None:
                continue
            registration = self._registrations.get(handler_name)
            if registration is not None \
                    and registration.registers > spec.handler_register_cap:
                raise HandlerRegistrationError(
                    f"handler {handler_name!r} declares "
                    f"{registration.registers} registers; the cap is "
                    f"{spec.handler_register_cap} (recompile the handler "
                    f"with -maxrregcount={spec.handler_register_cap})")
        self._spec = spec
        self._site_cache.clear()
        self._plan_sites.clear()

        def final_pass(kernel: SassKernel) -> SassKernel:
            report = InjectionReport()
            fn_addr = self.device.program.preassign_base(kernel.name)
            with telemetry_span("inject", kernel=kernel.name):
                instrumented = instrument_kernel(
                    kernel, spec, self.device.program.add_handler_symbol,
                    fn_addr=fn_addr, report=report)
            self.reports.append(report)
            return instrumented

        return final_pass

    def compile(self, kernel_ir, spec: Optional[InstrumentationSpec] = None,
                cache=None) -> SassKernel:
        """``ptxas`` convenience: compile with SASSI as the final pass.

        Pass a :class:`repro.campaign.CompileCache` as *cache* to memoize
        the result content-addressed on (IR, spec); identical requests
        then skip the backend entirely (the campaign layer's contract).
        """
        if cache is not None:
            from repro.campaign.compile_cache import (cached_ptxas,
                                                      cached_sassi_compile)

            if spec is None:
                return cached_ptxas(kernel_ir, cache=cache)
            return cached_sassi_compile(self, kernel_ir, spec, cache=cache)
        options = CompileOptions(
            final_pass=self.instrument(spec) if spec else None)
        with telemetry_span("compile", kernel=kernel_ir.name):
            return ptxas(kernel_ir, options)

    def adopt_cached_compile(self, spec: InstrumentationSpec,
                             report: InjectionReport) -> None:
        """Account for a compile served from cache: run the same
        registration validation, activate *spec* for handler contexts,
        and record the injection report exactly as a real compile
        would."""
        self.instrument(spec)
        self.reports.append(report)

    # ------------------------------------------------------ trampoline

    def _site(self, bp, where: Where) -> tuple:
        """``(instr, memory_at, branch_at, regs_at, with_memory,
        with_branch, with_regs)`` of the site *bp* describes, resolved
        once per site."""
        site_key = (bp.GetFnAddr(), bp.GetInsOffset(), where)
        site = self._site_cache.get(site_key)
        if site is None:
            spec = self._spec or InstrumentationSpec()
            instr = bp.GetInstruction()
            if instr is not None and spec.what:
                (memory_at, branch_at, regs_at, _), wm, wb, wr = \
                    frame_parts(spec, instr, where)
            else:
                memory_at = branch_at = regs_at = None
                wm = wb = wr = False
            site = (instr, memory_at, branch_at, regs_at, wm, wb, wr)
            self._site_cache[site_key] = site
        return site

    def _build_context(self, executor, warp, cta, mask, where: Where,
                       lanes=None, plan=None) -> SASSIContext:
        """The handler's context at a call.  A compiled site *plan*
        binds its site, view classes and frame constants once, so later
        visits only construct the views."""
        if lanes is None:
            lanes = np.nonzero(mask)[0]
        lane0 = int(lanes[0])
        regs = warp.regs
        base = (int(regs[4, lane0]) | (int(regs[5, lane0]) << 32)) \
            - LOCAL_BASE
        mask = mask.copy()
        bound = self._plan_sites.get(plan)
        if bound is None or bound[0] is not where:
            bound = self._bind(executor, warp, cta, mask, where, lanes, plan,
                               base)
            if plan is not None:
                self._plan_sites[plan] = bound
        _, view_cls, instr, statics, memory, branch, registers = bound
        bp = view_cls(executor, warp, cta, mask, base, lanes, statics)
        bp._instruction = instr
        mp = brp = rp = None
        if memory is not None:
            mp = SASSIMemoryParams(executor, warp, cta, mask,
                                   base + memory[0], lanes, memory[1])
        if branch is not None:
            brp = SASSICondBranchParams(executor, warp, cta, mask,
                                        base + branch[0], lanes, branch[1])
        if registers is not None:
            rp = SASSIRegisterParams(executor, warp, cta, mask,
                                     base + registers[0], lanes,
                                     registers[1])
        return SASSIContext(executor, warp, cta, mask, bp,
                            mp=mp, brp=brp, rp=rp, where=where,
                            lanes=lanes)

    def _bind(self, executor, warp, cta, mask, where: Where, lanes, plan,
              base: int) -> tuple:
        """``(where, view class, instruction, statics, memory, branch,
        registers)`` of a site: each extra view as ``(frame offset,
        statics)`` or None; statics come from *plan* when there is one."""
        view_cls = SASSIAfterParams if where is Where.AFTER \
            else SASSIBeforeParams
        statics = plan.static_fields(0) if plan is not None else None
        bp = view_cls(executor, warp, cta, mask, base, lanes, statics)
        instr, memory_at, branch_at, regs_at, wm, wb, wr = \
            self._site(bp, where)

        def extra(offset, wanted):
            if not wanted:
                return None
            return (offset,
                    plan.static_fields(offset) if plan is not None else None)

        return (where, view_cls, instr, statics, extra(memory_at, wm),
                extra(branch_at, wb), extra(regs_at, wr))


class _Binding:
    """What a ``JCAL`` to a registered handler reaches: it builds the
    handler's context, runs the body (timed and counted when telemetry
    is on) and, when the runtime poisons, poisons the caller-saved
    registers of the calling lanes.

    A compiled site plan calls :meth:`visit` instead, which leaves the
    poison to the plan's restores (it reports whether to poison)."""

    __slots__ = ("runtime", "registration", "where", "invocations_key")

    def __init__(self, runtime: SassiRuntime, registration: _Registration,
                 where: Where):
        self.runtime = runtime
        self.registration = registration
        self.where = where
        self.invocations_key = f"handler.invocations.{registration.name}"

    def __call__(self, executor, warp, cta, mask) -> None:
        runtime = self.runtime
        ctx = runtime._build_context(executor, warp, cta, mask, self.where)
        self._run(ctx)
        if runtime.poison_caller_saved:
            poison_caller_saved(warp, ctx.lanes_idx)

    def visit(self, executor, warp, cta, mask, lanes, plan) -> bool:
        """The call of compiled site *plan* (*lanes*: the active-lane
        indices of *mask*); returns whether the caller-saved registers
        must be poisoned."""
        runtime = self.runtime
        self._run(runtime._build_context(executor, warp, cta, mask,
                                         self.where, lanes, plan))
        return runtime.poison_caller_saved

    def _run(self, ctx: SASSIContext) -> None:
        telemetry = TELEMETRY
        if telemetry.enabled:
            telemetry.incr(self.invocations_key)
            start = telemetry.clock()
            try:
                self._invoke(ctx)
            finally:
                telemetry.add_time("handler_body_seconds",
                                   telemetry.clock() - start)
        else:
            self._invoke(ctx)

    def _invoke(self, ctx: SASSIContext) -> None:
        registration = self.registration
        if registration.kind == "warp":
            registration.fn(ctx)
            return

        def make_gen(lane):
            return registration.fn(SASSIThreadContext(ctx, lane))

        def atomic(address, value, width, op):
            return ctx.device_atomic(address, value, width, op)

        run_warp_handler(ctx.lanes(), make_gen, atomic)
