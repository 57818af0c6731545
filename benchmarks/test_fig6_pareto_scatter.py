"""Figure 6: area-vs-AIPC scatter for the three workload groups.

Evaluates SpecINT, SpecFP+Mediabench and Splash2 over the design
space; regenerates one point cloud per suite with its Pareto frontier
marked, and checks the figure's qualitative content:

* the Splash2 frontier keeps rising across the whole area range
  (multithreading converts area into performance),
* the single-threaded frontiers flatten (the paper's knee): the last
  doubling of area buys single-threaded code far less than it buys
  Splash2.
"""

from repro.core.experiments import evaluate_design_space
from repro.design import pareto_front, viable_designs
from repro.workloads import MEDIA_NAMES, SPLASH_NAMES

from .conftest import bench_scale, full_sweep

SPECINT = ("gzip", "mcf", "twolf")
SPECFP_MEDIA = ("ammp", "art", "equake") + tuple(MEDIA_NAMES)


def design_subset():
    designs = viable_designs()
    if full_sweep():
        return designs
    subset = designs[::4]
    if designs[-1] not in subset:
        subset.append(designs[-1])
    return subset


def render(suite_name, points):
    front = set(id(p) for p in pareto_front(points))
    lines = [f"-- {suite_name} --",
             f"{'area':>7} {'AIPC':>7}  configuration"]
    for p in sorted(points, key=lambda p: p.area):
        mark = "*" if id(p) in front else " "
        lines.append(f"{p.area:>7.0f} {p.performance:>7.3f} {mark} {p.label}")
    lines.append("(* = Pareto optimal)")
    return "\n".join(lines)


def run_all(campaign):
    designs = design_subset()
    scale = bench_scale()
    return {
        "SpecINT": evaluate_design_space(
            designs, SPECINT, scale, **campaign
        ),
        "SpecFP+Mediabench": evaluate_design_space(
            designs, SPECFP_MEDIA, scale, **campaign
        ),
        "Splash2": evaluate_design_space(
            designs, SPLASH_NAMES, scale, threaded=True, **campaign
        ),
    }


def test_fig6_scatter(record, benchmark, campaign):
    from repro.report import scatter

    suites = benchmark.pedantic(run_all, (campaign,), rounds=1, iterations=1)
    text = "\n\n".join(render(name, pts) for name, pts in suites.items())
    plots = "\n\n".join(
        scatter(pts, title=name) for name, pts in suites.items()
    )
    record("fig6_pareto_scatter", text + "\n\n" + plots)

    fronts = {name: pareto_front(pts) for name, pts in suites.items()}
    splash = fronts["Splash2"]

    # The figure's signature: the single-threaded frontiers *terminate*
    # -- beyond the knee no larger design is Pareto optimal, because
    # single-threaded code cannot use more clusters (Section 4.2:
    # "None of the single-threaded applications can profitably use
    # more than one cluster").  The Splash2 frontier keeps extending
    # across the area range.
    for name in ("SpecINT", "SpecFP+Mediabench"):
        assert splash[-1].area > 1.8 * fronts[name][-1].area, (
            name, splash[-1].area, fronts[name][-1].area
        )
    # Single-threaded frontiers are single-cluster only.
    for name in ("SpecINT", "SpecFP+Mediabench"):
        knee_region = [p for p in fronts[name] if p.area <= 100]
        assert knee_region, name
    # Splash2's biggest design meaningfully beats its smallest.
    assert splash[-1].performance > 1.5 * splash[0].performance
