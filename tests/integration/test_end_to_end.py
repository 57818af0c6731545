"""End-to-end integration: every workload, interpreter vs simulator,
across several processor configurations.

This is the suite's strongest correctness statement: the cycle-level
simulator -- matching tables, store buffers, coherence, networks, k-loop
bounding -- must be architecturally invisible.  Outputs must equal the
pure-Python references bit for bit on every configuration.
"""

import pytest

from repro.core import WaveScalarConfig, WaveScalarProcessor
from repro.workloads import SPLASH_NAMES, WORKLOADS, Scale, get

ALL_NAMES = sorted(WORKLOADS)

CONFIGS = {
    "baseline": WaveScalarConfig(),
    "tiny-tile": WaveScalarConfig(
        clusters=1, domains_per_cluster=1, pes_per_domain=2,
        virtualization=16, matching_entries=16,
    ),
    "quad": WaveScalarConfig(clusters=4, l2_mb=1),
    "sixteen": WaveScalarConfig(
        clusters=16, virtualization=64, matching_entries=64, l1_kb=8,
        l2_mb=1,
    ),
}


@pytest.mark.parametrize("name", ALL_NAMES)
@pytest.mark.parametrize("config_name", ["baseline", "quad"])
def test_all_workloads_all_configs(name, config_name):
    w = get(name)
    proc = WaveScalarProcessor(CONFIGS[config_name])
    threads = 4 if w.multithreaded else None
    result = proc.run_workload(w, scale=Scale.TINY, threads=threads)
    assert result.outputs() == w.expected(Scale.TINY, threads=threads)


@pytest.mark.parametrize("name", ["mcf", "gzip"])
def test_starved_configuration_still_correct(name):
    """A tile with 16-entry structures thrashes everything -- matching
    table, instruction store -- but must stay architecturally exact."""
    w = get(name)
    proc = WaveScalarProcessor(CONFIGS["tiny-tile"])
    result = proc.run_workload(w, scale=Scale.TINY)
    assert result.outputs() == w.expected(Scale.TINY)


def test_starved_multithreaded_still_correct():
    """Same idea for a threaded kernel, at ~3x instruction-store
    over-subscription (the worst the pruned design space produces)."""
    w = get("radix")
    config = WaveScalarConfig(
        clusters=1, domains_per_cluster=1, pes_per_domain=8,
        virtualization=32, matching_entries=32,
    )
    proc = WaveScalarProcessor(config)
    result = proc.run_workload(w, scale=Scale.TINY, threads=2)
    assert result.outputs() == w.expected(Scale.TINY, threads=2)


@pytest.mark.parametrize("name", SPLASH_NAMES)
def test_splash_on_sixteen_clusters(name):
    w = get(name)
    proc = WaveScalarProcessor(CONFIGS["sixteen"])
    result = proc.run_workload(w, scale=Scale.TINY, threads=16)
    assert result.outputs() == w.expected(Scale.TINY, threads=16)


def test_multithreaded_scaling_improves_with_clusters():
    """The paper's headline: multithreaded performance grows with area
    (Table 5).  Like the paper, each processor runs the thread count
    that suits it best -- bigger processors profit from more threads."""
    from repro.core.experiments import suite_results

    small = WaveScalarConfig(clusters=1, l2_mb=1)
    large = WaveScalarConfig(
        clusters=4, virtualization=64, matching_entries=64, l2_mb=1
    )
    (r_small,) = suite_results(small, ("radix",), Scale.SMALL,
                               threaded=True)
    (r_large,) = suite_results(large, ("radix",), Scale.SMALL,
                               threaded=True)
    assert r_large.aipc > r_small.aipc


def test_l2_helps_memory_bound_workload():
    """Table 5 configs 1 -> 4: adding a 1MB L2 nearly doubles
    performance.  Direction check with the pointer-chasing kernel."""
    w = get("mcf")
    no_l2 = WaveScalarProcessor(WaveScalarConfig(l1_kb=8, l2_mb=0))
    with_l2 = WaveScalarProcessor(WaveScalarConfig(l1_kb=8, l2_mb=1))
    r0 = no_l2.run_workload(w, scale=Scale.SMALL)
    r1 = with_l2.run_workload(w, scale=Scale.SMALL)
    assert r1.cycles <= r0.cycles


def test_traffic_stays_local_at_scale():
    """Section 4.3: the vast majority of traffic stays within a
    cluster even on a 16-cluster processor."""
    w = get("water")
    proc = WaveScalarProcessor(CONFIGS["sixteen"])
    result = proc.run_workload(w, scale=Scale.SMALL, threads=16)
    assert result.stats.within_cluster_fraction() > 0.9


def test_simulator_determinism():
    """Two runs of the same (graph, config) are cycle-identical."""
    w = get("twolf")
    proc = WaveScalarProcessor(CONFIGS["baseline"])
    r1 = proc.run_workload(w, scale=Scale.TINY)
    r2 = proc.run_workload(w, scale=Scale.TINY)
    assert r1.cycles == r2.cycles
    assert r1.stats.messages == r2.stats.messages
    assert r1.stats.dispatches == r2.stats.dispatches
