"""Keep docs/tutorial.md honest: its code must run as written."""

from repro.core import BASELINE, WaveScalarProcessor
from repro.lang import GraphBuilder
from repro.lang.interp import interpret

VALUES = [3, 1, 4, 1, 5, 9, 2, 6]
EXPECTED = sum(v * v for v in VALUES)  # 173, as the tutorial states


def sum_of_squares(values):
    b = GraphBuilder("sum_of_squares")
    base = b.data("v", values)
    t = b.entry(0)
    lp = b.loop(
        carried=[b.const(0, t), b.const(0, t)],
        invariants=[b.const(len(values), t), b.const(base, t)],
        k=4,
    )
    i, acc = lp.state
    n, vb = lp.invariants
    x = b.load(b.add(vb, i))
    acc2 = b.add(acc, b.mul(x, x))
    i2 = b.add(i, b.const(1, i))
    lp.next_iteration(b.lt(i2, n), [i2, acc2])
    b.output(lp.end()[1])
    return b.finalize()


def parallel_sum_of_squares(values, threads):
    from repro.workloads import partition

    b = GraphBuilder("psum")
    base = b.data("v", values)
    t = b.entry(0)
    parts = []
    for tid, (lo, hi) in enumerate(partition(len(values), threads), 1):
        (seed,) = b.spawn_thread(tid, [b.const(lo, t)])
        lp = b.loop(
            [b.nop(seed), b.const(0, seed)],
            invariants=[b.const(hi, seed), b.const(base, seed)],
            k=4,
        )
        i, acc = lp.state
        n, vb = lp.invariants
        x = b.load(b.add(vb, i))
        lp.next_iteration(
            b.lt(b.add(i, b.const(1, i)), n),
            [b.add(i, b.const(1, i)), b.add(acc, b.mul(x, x))],
        )
        parts.append(b.end_thread(lp.end()[1]))
    total = parts[0]
    for p in parts[1:]:
        total = b.add(total, p)
    b.output(total)
    return b.finalize()


def test_tutorial_sequential():
    graph = sum_of_squares(VALUES)
    ref = interpret(graph)
    result = WaveScalarProcessor(BASELINE).run(graph)
    assert result.outputs() == ref.output_values() == [EXPECTED]
    assert EXPECTED == 173  # the number printed in the tutorial


def test_tutorial_parallel():
    graph = parallel_sum_of_squares(VALUES, threads=2)
    assert interpret(graph).output_values() == [EXPECTED]
    result = WaveScalarProcessor(BASELINE).run(graph)
    assert result.outputs() == [EXPECTED]


def tutorial_block(containing):
    """The one fenced python block of the tutorial holding a marker."""
    import re
    from pathlib import Path

    text = (Path(__file__).resolve().parents[2] / "docs"
            / "tutorial.md").read_text()
    (block,) = [b for b in re.findall(r"```python\n(.*?)```", text, re.S)
                if containing in b]
    return block


def test_tutorial_resumable_sweep(tmp_path, monkeypatch):
    """Section 4's ledgered sweep, executed as printed; the names it
    takes from the block above it are bound to a 2-design x 1-workload
    study."""
    from repro.design import viable_designs
    from repro.workloads import Scale

    monkeypatch.chdir(tmp_path)  # the snippet writes ./sweep.jsonl
    scope = {
        "designs": viable_designs()[:9],  # the snippet's [::8] keeps 2
        "SPLASH_NAMES": ("fft",),
        "Scale": Scale,
    }
    exec(tutorial_block('ledger_path="sweep.jsonl"'), scope)
    report = scope["report"]
    assert len(scope["points"]) == 2
    assert report.completed == report.total > 0
    assert (tmp_path / "sweep.jsonl").exists()
