"""Table 3: the area model.

Regenerates the constant table, cross-checks every constant against
the independent bottom-up estimator (our RTL substitute), and sweeps
the model over the full design space.
"""

from repro.area import chip_area, estimate_constants
from repro.area import model as m
from repro.core.config import WaveScalarConfig
from repro.design import viable_designs


def test_table3_constants(record, benchmark):
    est = benchmark(estimate_constants)
    rows = [
        ("matching table / entry", m.MATCHING_MM2_PER_ENTRY,
         est.matching_mm2_per_entry),
        ("instruction store / inst", m.ISTORE_MM2_PER_INSTRUCTION,
         est.istore_mm2_per_instruction),
        ("other PE components", m.PE_OTHER_MM2, est.pe_other_mm2),
        ("pseudo-PE", m.PSEUDO_PE_MM2, est.pseudo_pe_mm2),
        ("store buffer", m.STORE_BUFFER_MM2, est.store_buffer_mm2),
        ("L1 / KB", m.L1_MM2_PER_KB, est.l1_mm2_per_kb),
        ("network switch", m.NETWORK_SWITCH_MM2, est.network_switch_mm2),
        ("L2 / MB", m.L2_MM2_PER_MB, est.l2_mm2_per_mb),
    ]
    lines = [f"{'constant':<26}{'paper':>10}{'estimated':>11}{'ratio':>7}"]
    for name, paper, estimated in rows:
        lines.append(
            f"{name:<26}{paper:>10.4f}{estimated:>11.4f}"
            f"{estimated / paper:>7.2f}"
        )
    lines.append(f"\nutilization factor U = {m.UTILIZATION}")
    record("table3_area_model_constants", "\n".join(lines))

    # Every constant within 2x of the first-principles estimate.
    for name, paper, estimated in rows:
        assert 0.5 < estimated / paper < 2.0, name


def test_table5_area_column(record, benchmark):
    """The model reproduces the paper's Table 5 'Area' column."""
    paper_rows = [
        # (clusters, V=M, L1, L2, paper mm2)
        (1, 128, 8, 0, 39),
        (1, 128, 16, 0, 42),
        (1, 128, 32, 0, 48),
        (1, 128, 8, 1, 52),
        (1, 128, 32, 1, 61),
        (1, 128, 32, 2, 74),
        (1, 128, 16, 4, 92),
        (4, 64, 8, 1, 109),
        (4, 64, 16, 2, 134),
        (4, 64, 32, 1, 146),
        (4, 64, 32, 2, 159),
        (4, 128, 8, 1, 169),
        (4, 128, 16, 2, 194),
        (4, 128, 32, 1, 206),
        (4, 128, 32, 2, 219),
        (4, 128, 32, 4, 244),
        (16, 64, 8, 0, 387),
        (16, 64, 8, 1, 399),
    ]
    benchmark(lambda: [chip_area(WaveScalarConfig(
        clusters=c, virtualization=v, matching_entries=v, l1_kb=l1,
        l2_mb=l2)) for c, v, l1, l2, _ in paper_rows])
    lines = [f"{'id':>3}{'config':<38}{'paper':>7}{'model':>7}{'err':>7}"]
    worst = 0.0
    for i, (c, v, l1, l2, paper) in enumerate(paper_rows, start=1):
        config = WaveScalarConfig(
            clusters=c, virtualization=v, matching_entries=v, l1_kb=l1,
            l2_mb=l2,
        )
        area = chip_area(config)
        err = area / paper - 1
        worst = max(worst, abs(err))
        lines.append(
            f"{i:>3} {config.describe():<37}{paper:>7.0f}{area:>7.0f}"
            f"{err:>7.1%}"
        )
    lines.append(f"\nworst relative error: {worst:.1%}")
    record("table3_vs_table5_areas", "\n".join(lines))
    assert worst < 0.08  # every row within 8% of the paper


def test_area_model_benchmark(benchmark):
    designs = viable_designs()

    def sweep():
        return sum(chip_area(d.config) for d in designs)

    total = benchmark(sweep)
    assert total > 0
