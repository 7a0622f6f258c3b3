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
from repro.sassi.abi import CALLER_SAVED, frame_parts
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

POISON = 0xDEADBEEF


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

    def _offset(self, address: int, width: int) -> int:
        offset = int(address) - GLOBAL_BASE
        return offset

    def atomic_add(self, address: int, value: int, width: int = 8) -> int:
        return self.device_atomic(address, value, width, "add")

    def atomic_and(self, address: int, value: int, width: int = 4) -> int:
        return self.device_atomic(address, value, width, "and")

    def atomic_or(self, address: int, value: int, width: int = 4) -> int:
        return self.device_atomic(address, value, width, "or")

    def device_atomic(self, address: int, value: int, width: int,
                      op: str) -> int:
        mem = self.device.global_mem
        offset = self._offset(address, width)
        old = mem.read(offset, width)
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
        mem.write(offset, width, new & ((1 << (8 * width)) - 1))
        return old

    def read_device(self, address: int, width: int = 4) -> int:
        return self.device.global_mem.read(self._offset(address, width),
                                           width)

    def write_device(self, address: int, value: int, width: int = 4) -> None:
        self.device.global_mem.write(self._offset(address, width), width,
                                     int(value))


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
        self._poison_rows: dict = {}

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
        self.device.handler_bindings[address] = self._make_binding(
            registration, where)

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

    def _make_binding(self, registration: _Registration, where: Where):
        def invoke(ctx):
            if registration.kind == "warp":
                registration.fn(ctx)
                return

            def make_gen(lane):
                return registration.fn(SASSIThreadContext(ctx, lane))

            def atomic(address, value, width, op):
                return ctx.device_atomic(address, value, width, op)

            run_warp_handler(ctx.lanes(), make_gen, atomic)

        invocations_key = f"handler.invocations.{registration.name}"

        def binding(executor, warp, cta, mask):
            ctx = self._build_context(executor, warp, cta, mask, where)
            telemetry = TELEMETRY
            if telemetry.enabled:
                telemetry.incr(invocations_key)
                start = telemetry.clock()
                try:
                    invoke(ctx)
                finally:
                    telemetry.add_time("handler_body_seconds",
                                       telemetry.clock() - start)
            else:
                invoke(ctx)
            if self.poison_caller_saved:
                self._poison(warp, ctx.lanes_idx)

        return binding

    def _build_context(self, executor, warp, cta, mask,
                       where: Where) -> SASSIContext:
        lanes = np.nonzero(mask)[0]
        lane0 = int(lanes[0])
        pointer = int(warp.regs[4, lane0]) \
            | (int(warp.regs[5, lane0]) << 32)
        base = pointer - LOCAL_BASE
        view_cls = SASSIAfterParams if where is Where.AFTER \
            else SASSIBeforeParams
        shared_mask = mask.copy()
        bp = view_cls(executor, warp, cta, shared_mask, base, lanes=lanes)
        # a compiled site plan knows the frame's constant fields (site
        # key included) without reading them back from local memory
        plan = getattr(executor, "_site_plan", None)
        if plan is not None:
            bp.seed_statics(plan.static_fields(0))
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
        instr, memory_at, branch_at, regs_at, wm, wb, wr = site
        bp._instruction = instr
        mp = brp = rp = None
        if wm:
            mp = SASSIMemoryParams(executor, warp, cta, shared_mask,
                                   base + memory_at, lanes=lanes)
            if plan is not None:
                mp.seed_statics(plan.static_fields(memory_at))
        if wb:
            brp = SASSICondBranchParams(executor, warp, cta, shared_mask,
                                        base + branch_at, lanes=lanes)
            if plan is not None:
                brp.seed_statics(plan.static_fields(branch_at))
        if wr:
            rp = SASSIRegisterParams(executor, warp, cta, shared_mask,
                                     base + regs_at, lanes=lanes)
            if plan is not None:
                rp.seed_statics(plan.static_fields(regs_at))
        return SASSIContext(executor, warp, cta, shared_mask, bp,
                            mp=mp, brp=brp, rp=rp, where=where,
                            lanes=lanes)

    def _poison(self, warp, lanes) -> None:
        """Overwrite the caller-saved registers of the calling *lanes*
        (active-lane indices)."""
        rows = self._poison_rows.get(warp.num_regs)
        if rows is None:
            rows = np.asarray(
                [reg for reg in sorted(CALLER_SAVED)
                 if reg < warp.num_regs], dtype=np.int64)[:, None]
            self._poison_rows[warp.num_regs] = rows
        if rows.size:
            warp.regs[rows, lanes] = POISON
