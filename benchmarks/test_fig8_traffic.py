"""Figure 8: traffic distribution across the interconnect hierarchy.

Measures, for all three workload groups and for Splash2 at 1, 4 and
16 clusters, the fraction of messages at each level (pod, domain,
cluster, grid) and the operand/memory split, plus the latency and
congestion trends of Section 4.3.

Paper's numbers to match in shape: ~40% of traffic within a pod, ~52%
within a domain, >80% (multithreaded: >98%) within a cluster; operand
data ~80% of messages; inter-cluster share ~1.5%; message latency up
~12% from 1 to 16 clusters.
"""

from repro.core import WaveScalarConfig
from repro.core.experiments import suite_results, traffic_profile
from repro.workloads import MEDIA_NAMES, SPEC_NAMES, SPLASH_NAMES

from .conftest import bench_scale

SPLASH_CONFIGS = {
    1: WaveScalarConfig(clusters=1, l2_mb=1),
    4: WaveScalarConfig(clusters=4, virtualization=64, matching_entries=64,
                        l2_mb=1),
    16: WaveScalarConfig(clusters=16, virtualization=64,
                         matching_entries=64, l1_kb=8, l2_mb=1),
}
SINGLE = WaveScalarConfig(clusters=1, l2_mb=1)


def run_profiles():
    # cache shared across benches: keys fully identify runs
    scale = bench_scale()
    profiles = {
        "Spec (1 cluster)": traffic_profile(SINGLE, SPEC_NAMES, scale),
        "Mediabench (1 cluster)": traffic_profile(
            SINGLE, MEDIA_NAMES, scale
        ),
    }
    for clusters, config in SPLASH_CONFIGS.items():
        profiles[f"Splash2 ({clusters} clusters)"] = traffic_profile(
            config, SPLASH_NAMES, scale, threaded=True
        )
    return profiles


def latency_trend():
    """Average message latency on Splash2 at 1 vs 16 clusters."""
    scale = bench_scale()
    out = {}
    for clusters, config in SPLASH_CONFIGS.items():
        total_lat, total_msg = 0.0, 0
        for result in suite_results(
            config, SPLASH_NAMES, scale, threaded=True
        ):
            total_lat += result.stats.message_latency_sum
            total_msg += result.stats.message_count
        out[clusters] = total_lat / total_msg
    return out


def test_fig8_traffic(record, benchmark):
    profiles = benchmark.pedantic(run_profiles, rounds=1, iterations=1)
    lines = [
        f"{'workload group':<26}{'pod':>6}{'domain':>8}{'cluster':>9}"
        f"{'grid':>6}{'operand':>9}{'memory':>8}"
    ]
    for name, p in profiles.items():
        lines.append(
            f"{name:<26}{p['pod']:>6.0%}{p['domain']:>8.0%}"
            f"{p['cluster']:>9.0%}{p['grid']:>6.1%}"
            f"{p['operand']:>9.0%}{p['memory']:>8.0%}"
        )
    lat = latency_trend()
    lines.append(
        f"\navg message latency: 1 cluster {lat[1]:.1f}cyc, 4 clusters "
        f"{lat[4]:.1f}cyc, 16 clusters {lat[16]:.1f}cyc "
        f"(+{lat[16] / lat[1] - 1:.0%} from 1 to 16; paper +12%)"
    )
    from repro.report import traffic_chart

    lines.append("")
    lines.append(traffic_chart(profiles))
    record("fig8_traffic_distribution", "\n".join(lines))

    for name, p in profiles.items():
        within = p["pod"] + p["domain"] + p["cluster"]
        # Paper: >80% within a cluster everywhere; >98% for Splash2.
        assert within > 0.85, (name, within)
        # Operand data dominates (paper ~80/20).
        assert 0.55 < p["operand"] < 0.95, (name, p["operand"])
        # Inner levels carry substantial traffic (paper: ~40% pod,
        # ~52% within a domain).
        assert p["pod"] + p["domain"] > 0.3, name
    splash16 = profiles["Splash2 (16 clusters)"]
    assert splash16["grid"] < 0.10  # paper: ~1.5% inter-cluster
    # Latency rises only modestly with size (paper: +12%).
    assert lat[16] < 1.6 * lat[1]
