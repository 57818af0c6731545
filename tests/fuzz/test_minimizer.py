"""The shrinker: ddmin correctness and the end-to-end lock that a
broken engine is caught and minimized to a tiny repro."""

from repro.fuzz import (
    ddmin,
    diff_recipe,
    divergence_persists,
    graph_size,
    minimize_recipe,
    random_recipe,
    run_campaign,
)


def test_ddmin_finds_single_culprit():
    culprit = 7
    result = ddmin(list(range(20)), lambda sub: culprit in sub)
    assert result == [culprit]


def test_ddmin_finds_interacting_pair():
    result = ddmin(list(range(16)), lambda sub: 3 in sub and 12 in sub)
    assert sorted(result) == [3, 12]


def test_ddmin_preserves_order():
    result = ddmin([5, 1, 9, 3], lambda sub: 1 in sub and 3 in sub)
    assert result == [1, 3]


def test_ddmin_uninteresting_input_unchanged():
    items = [1, 2, 3]
    assert ddmin(items, lambda sub: False) == items


def test_ddmin_handles_always_interesting():
    assert ddmin([1, 2, 3], lambda sub: True) == []


def test_seeded_defect_minimized_to_ten_instructions(broken_engine,
                                                     monkeypatch):
    """The acceptance lock: a broken engine is caught by the campaign
    and its repro shrunk to <= 10 static instructions."""
    broken_engine("off-by-one")
    result = run_campaign(seeds=1, start=0, minimize=True)
    assert len(result.cases) == 1
    case = result.cases[0]
    # The seed-engine SimStats comparison runs first, so it is the
    # divergence the campaign records and shrinks.
    assert case.kind == "stats"
    assert case.minimized_len is not None
    assert case.minimized_len <= 10, (
        f"shrinker left {case.minimized_len} instructions"
    )
    assert case.minimized_len < case.graph_len
    # The minimized repro still shows both divergences on the broken
    # engine...
    minimized = case.best_recipe()
    assert divergence_persists(minimized, "stats")
    assert divergence_persists(minimized, "output")
    # ...and is clean on the real one.
    monkeypatch.undo()
    assert diff_recipe(minimized).clean


def test_minimizer_never_grows_the_program(broken_engine):
    broken_engine("dropped-output")
    recipe = random_recipe(4)
    assert divergence_persists(recipe, "output")
    minimized = minimize_recipe(
        recipe, lambda r: divergence_persists(r, "output")
    )
    assert graph_size(minimized) <= graph_size(recipe)


def test_minimizer_returns_input_when_not_interesting():
    recipe = random_recipe(6)
    assert minimize_recipe(recipe, lambda r: False) is recipe
