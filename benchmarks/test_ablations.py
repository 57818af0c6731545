"""Microarchitectural ablations quoted in Sections 3.2-3.3.

The paper justifies each design choice with a measured delta; this
bench re-measures every one of them:

* matching-table associativity: 2-way beats direct-mapped by ~10%,
  4-way adds <1% (Section 3.2),
* matching banks: 4 beats 2 (~5% average), 8 adds nothing,
* pods: pairing PEs is ~15% faster than isolated PEs,
* speculative fire: back-to-back dependent dispatch matters,
* partial store queues: 2 beats 0 by 5-20% on store-heavy code,
  more than 2 adds little.
"""

from dataclasses import replace

from repro.core.config import WaveScalarConfig
from repro.core.experiments import run_cached
from repro.workloads import get

from .conftest import bench_scale

#: Small structures so the matching ablations actually bind.
BASE = WaveScalarConfig(
    clusters=1, virtualization=64, matching_entries=64, l2_mb=1
)
APPS = ("ammp", "twolf", "djpeg", "rawdaudio")


def mean_cycles(config, apps=APPS, threads=None, scale=None):
    scale = scale or bench_scale()
    total = 0
    for name in apps:
        kwargs = {"threads": threads} if get(name).multithreaded else {}
        total += run_cached(config, name, scale, **kwargs).cycles
    return total / len(apps)


def geo_speedup(base_cycles, new_cycles):
    return base_cycles / new_cycles


def test_matching_associativity(record, benchmark):
    # cache shared across benches: keys fully identify runs

    def run():
        direct = mean_cycles(replace(BASE, matching_associativity=1))
        twoway = mean_cycles(replace(BASE, matching_associativity=2))
        fourway = mean_cycles(replace(BASE, matching_associativity=4))
        return direct, twoway, fourway

    direct, twoway, fourway = benchmark.pedantic(run, rounds=1,
                                                 iterations=1)
    text = (
        f"direct-mapped: {direct:.0f} cycles\n"
        f"2-way        : {twoway:.0f} cycles "
        f"({geo_speedup(direct, twoway) - 1:+.1%} vs direct; paper +10%)\n"
        f"4-way        : {fourway:.0f} cycles "
        f"({geo_speedup(twoway, fourway) - 1:+.1%} vs 2-way; paper <1%)"
    )
    record("ablation_matching_associativity", text)
    assert twoway <= direct  # 2-way never hurts
    # 4-way adds little over 2-way.
    assert abs(geo_speedup(twoway, fourway) - 1) < 0.05


def test_pods_and_speculative_fire(record, benchmark):
    # cache shared across benches: keys fully identify runs

    def run():
        full = mean_cycles(BASE)
        no_pods = mean_cycles(replace(BASE, pods_enabled=False))
        no_spec = mean_cycles(replace(BASE, speculative_fire=False))
        return full, no_pods, no_spec

    full, no_pods, no_spec = benchmark.pedantic(run, rounds=1, iterations=1)
    text = (
        f"baseline           : {full:.0f} cycles\n"
        f"pods disabled      : {no_pods:.0f} cycles "
        f"(pods give {geo_speedup(no_pods, full) - 1:+.1%}; paper +15%)\n"
        f"spec fire disabled : {no_spec:.0f} cycles "
        f"(spec fire gives {geo_speedup(no_spec, full) - 1:+.1%})"
    )
    record("ablation_pods_specfire", text)
    assert full <= no_pods
    assert full < no_spec  # back-to-back dispatch must matter


def test_partial_store_queues(record, benchmark):
    # cache shared across benches: keys fully identify runs
    apps = ("twolf", "radix")

    def run():
        return {
            n: mean_cycles(
                replace(BASE, partial_store_queues=n), apps=apps, threads=4
            )
            for n in (0, 1, 2, 4)
        }

    cycles = benchmark.pedantic(run, rounds=1, iterations=1)
    text = "\n".join(
        f"{n} PSQs: {c:.0f} cycles "
        f"({geo_speedup(cycles[0], c) - 1:+.1%} vs none)"
        for n, c in cycles.items()
    ) + "\n(paper: 2 PSQs give +5-20%, more adds little)"
    record("ablation_partial_store_queues", text)
    assert cycles[2] < cycles[0]  # PSQs help store-heavy code
    assert cycles[2] / cycles[0] < 0.98
    # Diminishing returns beyond 2.
    assert abs(cycles[4] / cycles[2] - 1) < 0.10


def test_storebuffer_wave_window(record, benchmark):
    """The 4-wave ordering window (Table 1).

    Finding worth recording: window size changes how many requests get
    NACKed (window stalls) but not performance -- per-thread waves
    issue strictly in order regardless, so intake buffering is never
    the constraint as long as retries are free.  The paper fixed the
    window at 4 architecturally; this shows 4 is "enough" in the
    strongest sense (1 would perform identically, at the cost of far
    more retry traffic).
    """
    # cache shared across benches: keys fully identify runs

    def run():
        out = {}
        for n in (1, 2, 4, 8):
            config = replace(BASE, storebuffer_waves=n)
            result = run_cached(config, "fft", bench_scale(),
                                threads=8)
            out[n] = (result.cycles, result.stats.sb_window_stalls)
        return out

    data = benchmark.pedantic(run, rounds=1, iterations=1)
    text = "\n".join(
        f"{n} waves: {cyc} cycles, {stalls} NACKed requests"
        for n, (cyc, stalls) in data.items()
    )
    record("ablation_storebuffer_waves", text)
    cycles = {n: cyc for n, (cyc, _) in data.items()}
    stalls = {n: s for n, (_, s) in data.items()}
    # Essentially timing-neutral across window sizes (a NACKed request
    # costs its re-absorption cycle, a couple of percent at worst) ...
    assert max(cycles.values()) <= 1.05 * min(cycles.values())
    # ... but smaller windows generate (strictly) more retry traffic.
    assert stalls[1] >= stalls[4] >= stalls[8]


def test_matching_banks(record, benchmark):
    # cache shared across benches: keys fully identify runs

    def run():
        return {
            n: mean_cycles(replace(BASE, matching_banks=n))
            for n in (2, 4, 8)
        }

    cycles = benchmark.pedantic(run, rounds=1, iterations=1)
    text = "\n".join(
        f"{n} banks: {c:.0f} cycles" for n, c in cycles.items()
    ) + "\n(paper: 2 banks cost ~5%, 8 banks add nothing over 4)"
    record("ablation_matching_banks", text)
    assert cycles[4] <= cycles[2] * 1.02
    assert abs(cycles[8] / cycles[4] - 1) < 0.05
