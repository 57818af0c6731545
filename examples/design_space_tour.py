#!/usr/bin/env python3
"""A miniature of the paper's Section 4.2: enumerate the design space,
evaluate a slice of it on real workloads, and print the Pareto
frontier with Table 5-style increment columns.

Run:  python examples/design_space_tour.py        (about a minute)
"""

from repro.core.experiments import evaluate_design_space
from repro.design import pareto_front, viable_designs
from repro.report import pareto_table
from repro.workloads import Scale


def main():
    designs = viable_designs()
    print(
        f"design space: {len(designs)} viable configurations from "
        f"{designs[0].area_mm2:.0f} to {designs[-1].area_mm2:.0f} mm^2"
    )

    # Evaluate a representative slice (every 6th design plus the two
    # extremes) on two single-threaded workloads; the full sweep lives
    # in benchmarks/test_fig6_pareto_scatter.py.
    subset = designs[::6]
    if designs[-1] not in subset:
        subset.append(designs[-1])
    names = ["mcf", "djpeg"]
    print(f"evaluating {len(subset)} designs on {names} ...")
    points = evaluate_design_space(subset, names, scale=Scale.TINY)

    print("\nall evaluated points (area mm^2 -> mean AIPC):")
    for p in sorted(points, key=lambda p: p.area):
        print(f"  {p.area:7.0f}  {p.performance:6.3f}  {p.label}")

    front = pareto_front(points)
    print(f"\nPareto frontier ({len(front)} of {len(points)} points):")
    print(pareto_table(points))

    best = front[-1]
    cheapest = front[0]
    print(
        f"\nspending {best.area / cheapest.area:.1f}x the area buys "
        f"{best.performance / cheapest.performance:.1f}x the "
        "single-threaded performance -- the sub-linear single-thread "
        "scaling of the paper's Figure 7."
    )


if __name__ == "__main__":
    main()
