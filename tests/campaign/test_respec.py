"""Mid-run re-spec campaigns: flipping an instrumentation-spec delta
halfway through a campaign must not disturb site identity, scheduling
determinism, or the compile cache.

* **site numbering intact** — site ids are the original instruction
  indices (the PR 3 invariant), so a site instrumented under both the
  base spec and the re-specced one carries the same id and observes the
  same per-trial firing count; the re-spec only adds/removes sites, it
  never renumbers the survivors.
* **scheduling-independent** — the same campaign merged serially and
  with ``jobs=4`` is identical (modulo compile-cache statistics, which
  are per-process by construction).
* **compile cache exercised** — a campaign with one delta compiles at
  most two distinct specs; every further trial is a cache hit that
  leaves the runtime's report log identical to a real compile.
"""

from __future__ import annotations

import pytest

from repro.sassi.runtime import (
    DEFAULT_RESPEC_FLAGS,
    SpecDelta,
    _respec_trial,
    respec_campaign,
)
from repro.sassi.spec import InstClass

pytestmark = pytest.mark.noskip

BASE_FLAGS = ("-sassi-inst-before=memory,branches "
              "-sassi-before-args=mem-info,cond-branch-info")

#: the mid-campaign re-spec: drop branch sites, pick up register writes
DELTA = SpecDelta(before_remove=frozenset({InstClass.BRANCHES}),
                  before_add=frozenset({InstClass.REG_WRITES}))

WORKLOAD = "rodinia/nn"


def test_delta_changes_the_site_set():
    base = _respec_trial((WORKLOAD, BASE_FLAGS, None, 0))
    respec = _respec_trial((WORKLOAD, BASE_FLAGS, DELTA, 1))
    assert base.site_ids != respec.site_ids
    assert set(base.site_ids) - set(respec.site_ids), \
        "delta should drop at least one branch site"
    assert set(respec.site_ids) - set(base.site_ids), \
        "delta should add at least one reg-write site"


def test_site_numbering_intact_across_respec():
    """PR 3 invariant: a site common to both specs keeps its id *and*
    its per-trial firing count — the re-spec neither renumbers nor
    re-routes surviving sites."""
    base = _respec_trial((WORKLOAD, BASE_FLAGS, None, 0))
    respec = _respec_trial((WORKLOAD, BASE_FLAGS, DELTA, 1))
    common = set(base.site_ids) & set(respec.site_ids)
    assert common, "specs must overlap for the invariant to mean anything"
    for site in common:
        assert base.counts.get(site) == respec.counts.get(site), \
            f"site {site}: per-trial count changed across the re-spec"


def test_campaign_merge_obeys_the_switch():
    """Merged counts decompose exactly: base-only sites appear in
    ``switch_at`` trials, respec-only sites in ``trials - switch_at``,
    common sites in all of them."""
    trials, switch_at = 4, 2
    result = respec_campaign(WORKLOAD, flags=BASE_FLAGS, delta=DELTA,
                             trials=trials, switch_at=switch_at)
    base = _respec_trial((WORKLOAD, BASE_FLAGS, None, 0))
    respec = _respec_trial((WORKLOAD, BASE_FLAGS, DELTA, 1))
    assert result.base_site_ids == base.site_ids
    assert result.respec_site_ids == respec.site_ids
    expected: dict = {}
    for site, count in base.counts.items():
        expected[site] = expected.get(site, 0) + switch_at * count
    for site, count in respec.counts.items():
        expected[site] = expected.get(site, 0) + (trials - switch_at) * count
    assert result.merged_counts == dict(sorted(expected.items()))
    assert set(result.common_site_ids()) \
        == set(base.site_ids) & set(respec.site_ids)


@pytest.mark.parametrize("jobs", [4])
def test_campaign_independent_of_jobs(jobs):
    serial = respec_campaign(WORKLOAD, flags=BASE_FLAGS, delta=DELTA,
                             trials=6, jobs=1)
    parallel = respec_campaign(WORKLOAD, flags=BASE_FLAGS, delta=DELTA,
                               trials=6, jobs=jobs)
    # cache statistics are per-process by construction; everything the
    # campaign *measured* must be identical
    assert serial.merged_counts == parallel.merged_counts
    assert serial.base_site_ids == parallel.base_site_ids
    assert serial.respec_site_ids == parallel.respec_site_ids
    assert serial.switch_at == parallel.switch_at
    assert serial.trials == parallel.trials


def test_compile_cache_exercised_by_deltas():
    result = respec_campaign(WORKLOAD, flags=BASE_FLAGS, delta=DELTA,
                             trials=6, jobs=1)
    # every trial either hit or missed; at most one miss per distinct
    # spec (the per-process cache may even have been pre-warmed by an
    # earlier campaign in this test session)
    assert result.compile_hits + result.compile_misses == 6
    assert result.compile_misses <= 2
    assert result.compile_hits >= 4
