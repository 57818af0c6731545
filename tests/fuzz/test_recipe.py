"""Recipe properties the fuzzer and minimizer depend on."""

import pytest

from repro.fuzz import Recipe, build_graph, random_recipe
from repro.fuzz.recipe import LoopSpec, OP_KINDS
from repro.isa.verify import verify_graph
from repro.lang.interp import interpret

N_SMOKE = 40


@pytest.mark.parametrize("seed", range(N_SMOKE))
def test_generated_recipes_build_verify_and_run(seed):
    graph = build_graph(random_recipe(seed))
    verify_graph(graph)
    assert graph.output_instruction_ids()
    result = interpret(graph, max_firings=2_000_000)
    assert result.output_values(), "every recipe must produce output"


@pytest.mark.parametrize("seed", range(0, N_SMOKE, 5))
def test_json_round_trip_is_bit_identical(seed):
    recipe = random_recipe(seed)
    clone = Recipe.from_dict(recipe.to_dict())
    assert clone.to_dict() == recipe.to_dict()
    a = interpret(build_graph(recipe), max_firings=2_000_000)
    b = interpret(build_graph(clone), max_firings=2_000_000)
    assert a.output_values() == b.output_values()


def test_generation_is_a_pure_function_of_seed():
    assert random_recipe(7).to_dict() == random_recipe(7).to_dict()
    assert random_recipe(7).to_dict() != random_recipe(8).to_dict()


@pytest.mark.parametrize("seed", [3, 11, 19])
def test_any_op_subsequence_still_builds(seed):
    """The ddmin precondition: dropping arbitrary ops never makes a
    recipe unbuildable (operand refs resolve modulo the live pool)."""
    recipe = random_recipe(seed)
    for lst_name in ("pre", "post"):
        ops = getattr(recipe, lst_name)
        for i in range(len(ops)):
            pruned = Recipe.from_dict(recipe.to_dict())
            getattr(pruned, lst_name).pop(i)
            interpret(build_graph(pruned), max_firings=2_000_000)
    if recipe.loop is not None and recipe.loop.body:
        pruned = Recipe.from_dict(recipe.to_dict())
        pruned.loop.body = pruned.loop.body[::2]
        interpret(build_graph(pruned), max_firings=2_000_000)


def test_empty_recipe_builds_to_a_minimal_program():
    graph = build_graph(Recipe())
    assert len(graph) <= 10
    assert interpret(graph).output_values()


def test_unknown_op_kinds_are_skipped_not_fatal():
    recipe = Recipe(pre=[["warp", 0, 0], ["add", 1, 2]])
    assert interpret(build_graph(recipe)).output_values()


def test_loop_trip_is_clamped():
    recipe = Recipe(loop=LoopSpec(trip=10_000, body=[["add", 0, 1]]))
    result = interpret(build_graph(recipe), max_firings=2_000_000)
    assert result.output_values()


def test_op_vocabulary_is_closed():
    """Every kind the generator can emit is implemented."""
    from repro.fuzz.generator import _KINDS

    assert set(_KINDS) <= set(OP_KINDS)
