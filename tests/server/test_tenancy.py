"""Per-tenant compile-cache namespace isolation (and the shared opt-in)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.campaign.compile_cache import CompileCache, cached_ptxas, \
    cached_sassi_compile
from repro.isa.asmtext import format_kernel
from repro.sassi import SassiRuntime, spec_from_flags
from repro.server.tenancy import (
    DEFAULT_TENANT,
    SHARED_NAMESPACE,
    NamespacedCache,
    namespaced_cache,
    tenant_namespace,
)
from repro.sim import Device

from tests.conftest import build_vecadd, run_vecadd

pytestmark = pytest.mark.noskip

FLAGS = "-sassi-inst-before=memory -sassi-before-args=mem-info"


class TestTenantNamespace:
    def test_default_tenant(self):
        assert tenant_namespace(None) == f"tenant:{DEFAULT_TENANT}"

    def test_named_tenant(self):
        assert tenant_namespace("acme") == "tenant:acme"

    def test_share_opt_in_wins(self):
        assert tenant_namespace("acme", share_cache=True) \
            == SHARED_NAMESPACE
        assert tenant_namespace("zenith", share_cache=True) \
            == SHARED_NAMESPACE


class TestNamespaceIsolation:
    def test_identical_ir_separate_entries(self):
        """Two tenants compiling the same IR must not share entries."""
        base = CompileCache()
        t1 = NamespacedCache(base, tenant_namespace("alice"))
        t2 = NamespacedCache(base, tenant_namespace("bob"))
        cached_ptxas(build_vecadd(), cache=t1)
        cached_ptxas(build_vecadd(), cache=t2)
        # both missed: bob never sees alice's compile
        assert t1.stats.misses == 1 and t1.stats.hits == 0
        assert t2.stats.misses == 1 and t2.stats.hits == 0
        assert len(base) == 2
        assert len(t1) == 1 and len(t2) == 1

    def test_second_lookup_same_tenant_hits(self):
        base = CompileCache()
        t1 = NamespacedCache(base, tenant_namespace("alice"))
        first = cached_ptxas(build_vecadd(), cache=t1)
        second = cached_ptxas(build_vecadd(), cache=t1)
        assert first is second
        assert t1.stats.hits == 1

    def test_shared_namespace_deduplicates(self):
        """Tenants that opt into sharing compile once between them."""
        base = CompileCache()
        s1 = NamespacedCache(base, tenant_namespace("alice", True))
        s2 = NamespacedCache(base, tenant_namespace("bob", True))
        first = cached_ptxas(build_vecadd(), cache=s1)
        second = cached_ptxas(build_vecadd(), cache=s2)
        assert first is second
        assert s1.stats.misses == 1
        assert s2.stats.hits == 1 and s2.stats.misses == 0
        assert len(base) == 1

    def test_instrumented_compiles_isolated_too(self):
        base = CompileCache()
        spec = spec_from_flags(FLAGS)

        def runtime():
            rt = SassiRuntime(Device(), poison_caller_saved=False)
            rt.register_before_handler(lambda ctx: None)
            return rt

        t1 = NamespacedCache(base, tenant_namespace("alice"))
        t2 = NamespacedCache(base, tenant_namespace("bob"))
        k1 = cached_sassi_compile(runtime(), build_vecadd(), spec,
                                  cache=t1)
        k2 = cached_sassi_compile(runtime(), build_vecadd(), spec,
                                  cache=t2)
        assert t2.stats.hits == 0 and t2.stats.misses == 1
        assert format_kernel(k1) == format_kernel(k2)

    def test_namespaced_kernel_still_correct(self):
        base = CompileCache()
        cache = namespaced_cache("tenant:alice", base=base)
        cached_ptxas(build_vecadd(), cache=cache)
        kernel = cached_ptxas(build_vecadd(), cache=cache)
        a, b, out, _ = run_vecadd(Device(), kernel)
        assert np.allclose(out, a + b)

    def test_clear_scoped_to_namespace(self):
        base = CompileCache()
        t1 = NamespacedCache(base, "tenant:alice")
        t2 = NamespacedCache(base, "tenant:bob")
        cached_ptxas(build_vecadd(), cache=t1)
        cached_ptxas(build_vecadd(), cache=t2)
        t1.clear()
        assert len(t1) == 0
        assert len(t2) == 1

    def test_disk_layer_keeps_namespaces_apart(self, tmp_path):
        directory = str(tmp_path / "cache")
        warm_base = CompileCache(directory=directory)
        cached_ptxas(build_vecadd(),
                     cache=NamespacedCache(warm_base, "tenant:alice"))
        cold_base = CompileCache(directory=directory)
        alice = NamespacedCache(cold_base, "tenant:alice")
        bob = NamespacedCache(cold_base, "tenant:bob")
        cached_ptxas(build_vecadd(), cache=alice)
        assert alice.stats.hits == 1  # via the disk entry
        cached_ptxas(build_vecadd(), cache=bob)
        assert bob.stats.misses == 1  # bob's namespace was never warmed

    def test_default_base_is_process_cache(self):
        from repro.campaign.compile_cache import get_cache

        view = namespaced_cache("tenant:x")
        assert view.base is get_cache()
