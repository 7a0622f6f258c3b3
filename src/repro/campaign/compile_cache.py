"""Content-addressed compile cache.

A cache entry is keyed on what actually determines the compiled SASS:

* the kernel IR's canonical text (``emit_ptx`` — the same serialization
  the CLI round-trips through), hashed with SHA-256;
* the :class:`~repro.sassi.spec.InstrumentationSpec` (every field that
  changes injected code);
* the :class:`~repro.backend.compiler.CompileOptions` knobs;
* for instrumented kernels, the load address and handler trampoline
  addresses baked into the injected parameter stores.

Because the key is content-addressed, invalidation is automatic: any
change to the kernel, the spec, or the options produces a different
fingerprint and misses.  The cache is in-memory per process by default;
set a directory (or the ``REPRO_CACHE_DIR`` environment variable) to
persist entries on disk and share them across processes and runs.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import tempfile
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.backend.compiler import CompileOptions, ptxas
from repro.isa.program import SassKernel
from repro.kernelir.ir import KernelIR
from repro.kernelir.ptxtext import emit_ptx
from repro.sassi.inject import InjectionReport
from repro.sassi.spec import InstrumentationSpec
from repro.telemetry.collector import TELEMETRY, span as telemetry_span

#: Environment variable naming the shared on-disk cache directory.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"


def ir_fingerprint(kernel_ir: KernelIR) -> str:
    """SHA-256 of the kernel's canonical PTX-like text."""
    return hashlib.sha256(emit_ptx(kernel_ir).encode()).hexdigest()


def spec_fingerprint(spec: Optional[InstrumentationSpec]) -> str:
    """Canonical string covering every field that shapes injected code."""
    if spec is None:
        return "spec=none"
    return "|".join([
        "before=" + ",".join(sorted(c.value for c in spec.before)),
        "after=" + ",".join(sorted(c.value for c in spec.after)),
        "what=" + ",".join(sorted(w.value for w in spec.what)),
        f"bh={spec.before_handler}",
        f"ah={spec.after_handler}",
        f"wb={int(spec.writeback_registers)}",
        f"srs={int(spec.skip_redundant_spills)}",
        f"cap={spec.handler_register_cap}",
    ])


def options_fingerprint(options: Optional[CompileOptions]) -> str:
    if options is None:
        return "opts=default"
    return f"peephole={int(options.peephole)}"


@dataclass
class CacheStats:
    hits: int = 0
    misses: int = 0


@dataclass
class CompileCache:
    """In-memory (and optionally on-disk) kernel cache.

    Values are ``(SassKernel, Optional[InjectionReport])`` pairs.  Disk
    entries are pickles named by their key hash; corrupt or unreadable
    files are treated as misses, never as errors.
    """

    directory: Optional[str] = None
    stats: CacheStats = field(default_factory=CacheStats)
    _mem: Dict[str, Tuple[SassKernel, Optional[InjectionReport]]] = \
        field(default_factory=dict)

    def _path(self, key: str) -> Optional[str]:
        if not self.directory:
            return None
        digest = hashlib.sha256(key.encode()).hexdigest()
        return os.path.join(self.directory, f"{digest}.pkl")

    def lookup(self, key: str
               ) -> Optional[Tuple[SassKernel, Optional[InjectionReport]]]:
        entry = self._mem.get(key)
        if entry is not None:
            self.stats.hits += 1
            if TELEMETRY.enabled:
                TELEMETRY.incr("compile_cache.hits")
            return entry
        path = self._path(key)
        if path is not None and os.path.exists(path):
            try:
                with open(path, "rb") as handle:
                    entry = pickle.load(handle)
            except Exception:
                entry = None
            if entry is not None:
                self._mem[key] = entry
                self.stats.hits += 1
                if TELEMETRY.enabled:
                    TELEMETRY.incr("compile_cache.hits")
                    TELEMETRY.incr("compile_cache.disk_hits")
                return entry
        self.stats.misses += 1
        if TELEMETRY.enabled:
            TELEMETRY.incr("compile_cache.misses")
        return None

    def store(self, key: str, kernel: SassKernel,
              report: Optional[InjectionReport] = None) -> None:
        # never persist executor decode state attached to the instance
        kernel.__dict__.pop("_decoded", None)
        self._mem[key] = (kernel, report)
        path = self._path(key)
        if path is None:
            return
        try:
            os.makedirs(self.directory, exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=self.directory, suffix=".tmp")
        except OSError:
            return  # disk layer is best-effort
        try:
            with os.fdopen(fd, "wb") as handle:
                pickle.dump((kernel, report), handle)
            os.replace(tmp, path)
        except OSError:
            # interrupted write: drop the temp file; readers never see a
            # partial entry because only os.replace publishes it
            try:
                os.remove(tmp)
            except OSError:
                pass

    def clear(self) -> None:
        self._mem.clear()
        self.stats = CacheStats()

    def __len__(self) -> int:
        return len(self._mem)


_GLOBAL: Optional[CompileCache] = None


def get_cache() -> CompileCache:
    """The process-wide cache (created on first use).

    Honors ``REPRO_CACHE_DIR`` for disk persistence.  Forked campaign
    workers inherit the parent's warm in-memory entries for free.
    """
    global _GLOBAL
    if _GLOBAL is None:
        _GLOBAL = CompileCache(directory=os.environ.get(CACHE_DIR_ENV))
    return _GLOBAL


def reset_cache() -> None:
    """Drop the process-wide cache (tests)."""
    global _GLOBAL
    _GLOBAL = None


def cached_ptxas(kernel_ir: KernelIR,
                 options: Optional[CompileOptions] = None,
                 cache: Optional[CompileCache] = None) -> SassKernel:
    """:func:`repro.backend.ptxas` with content-addressed memoization.

    Kernels compiled with a ``final_pass`` are not cacheable here (the
    pass is an opaque callable); use :func:`cached_sassi_compile` for
    the SASSI final pass, which has a fingerprintable spec.
    """
    if options is not None and options.final_pass is not None:
        return ptxas(kernel_ir, options)
    cache = cache if cache is not None else get_cache()
    key = "|".join(["ptxas", ir_fingerprint(kernel_ir),
                    options_fingerprint(options)])
    entry = cache.lookup(key)
    if entry is not None:
        return entry[0]
    with telemetry_span("compile", kernel=kernel_ir.name):
        kernel = ptxas(kernel_ir, options)
    cache.store(key, kernel)
    return kernel


def cached_sassi_compile(runtime, kernel_ir: KernelIR,
                         spec: InstrumentationSpec,
                         cache: Optional[CompileCache] = None) -> SassKernel:
    """Instrumented compile through *runtime*, memoized.

    The injected code embeds the kernel's load address and the handler
    trampoline addresses, so those join the key: a cached kernel is
    reused only on a device whose "linker" assigned the same layout
    (always true for the fresh-device-per-trial pattern campaigns use).
    On a hit the runtime still records the injection report, keeping
    ``runtime.reports`` identical to an uncached run.
    """
    cache = cache if cache is not None else get_cache()
    program = runtime.device.program
    fn_addr = program.preassign_base(kernel_ir.name)
    before_addr = program.add_handler_symbol(spec.before_handler) \
        if spec.before else 0
    after_addr = program.add_handler_symbol(spec.after_handler) \
        if spec.after else 0
    key = "|".join(["sassi", ir_fingerprint(kernel_ir),
                    spec_fingerprint(spec),
                    f"fn={fn_addr:#x}",
                    f"before={before_addr:#x}",
                    f"after={after_addr:#x}"])
    entry = cache.lookup(key)
    if entry is not None:
        kernel, report = entry
        runtime.adopt_cached_compile(spec, report)
        return kernel
    kernel = runtime.compile(kernel_ir, spec)
    cache.store(key, kernel, runtime.reports[-1])
    return kernel
