"""Unit and property tests for opcode semantics."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.isa import Opcode
from repro.isa.semantics import (
    _EVALUATORS,
    evaluate,
    evaluator_for,
    steer_taken,
)

ints = st.integers(min_value=-(2**31), max_value=2**31)
floats = st.floats(
    min_value=-1e9, max_value=1e9, allow_nan=False, allow_infinity=False
)


#: Literal results per opcode (value and type), with int/float mixes,
#: DIV/MOD by zero, shift counts -1/0/63/64 and FSQRT of a negative.
TABLE_CASES = {
    "ADD": [((2, 3), 5), ((2.7, 3), 5), ((-1.5, 1), 0)],
    "SUB": [((2, 3), -1), ((5.9, 1.2), 4)],
    "MUL": [((4, -3), -12), ((2.5, 4), 8)],
    "DIV": [((7, 2), 3), ((-7, 2), -3), ((7, -2), -3), ((7.9, 2), 3),
            ((-7.5, 2), -3), ((7, 0), 0), ((5, 0.0), 0)],
    "MOD": [((7, 2), 1), ((-7, 2), -1), ((7, -2), 1), ((7.5, 2), 1),
            ((7, 0), 0), ((5, 0.0), 0)],
    "AND": [((0b1100, 0b1010), 0b1000), ((12.9, 10), 8)],
    "OR": [((0b1100, 0b1010), 0b1110), ((12.9, 10), 14)],
    "XOR": [((0b1100, 0b1010), 0b0110), ((12.9, 10), 6)],
    "NOT": [((0,), -1), ((5.5,), -6)],
    "SHL": [((1, -1), 1), ((1, 0), 1), ((1, 63), 1 << 63), ((1, 64), 1 << 63),
            ((3, 2.9), 12)],
    "SHR": [((-1, -1), 2**64 - 1), ((-1, 0), 2**64 - 1), ((-1, 63), 1),
            ((-1, 64), 1), ((16.5, 2), 4)],
    "SAR": [((-16, -1), -16), ((-16, 0), -16), ((-16, 2), -4),
            ((-16, 63), -1), ((2**63, 64), 1), ((-16.5, 2), -4)],
    "NEG": [((5,), -5), ((2.5,), -2)],
    "ABS": [((-5,), 5), ((-2.5,), 2)],
    "MIN": [((3, -2), -2), ((2.5, 3), 2)],
    "MAX": [((3, -2), 3), ((-0.5, -1), 0)],
    "EQ": [((5, 5), 1), ((5, 5.0), 1), ((5, 5.5), 0)],
    "NE": [((5, 5), 0), ((5, 5.5), 1)],
    "LT": [((2, 3), 1), ((3, 2.5), 0), ((2, 2.5), 1)],
    "LE": [((2, 2), 1), ((2.5, 2), 0)],
    "GT": [((3, 2), 1), ((2, 2.5), 0)],
    "GE": [((2, 3), 0), ((2.5, 2), 1)],
    "FADD": [((1, 2.5), 3.5), ((1, 2), 3.0)],
    "FSUB": [((1, 2.5), -1.5)],
    "FMUL": [((3, 2.5), 7.5)],
    "FDIV": [((7, 2), 3.5), ((5.0, 0.0), 0.0), ((5, 0), 0.0)],
    "FSQRT": [((9,), 3.0), ((2.25,), 1.5), ((-4.0,), 0.0), ((-1,), 0.0)],
    "FNEG": [((2,), -2.0), ((-1.5,), 1.5)],
    "FABS": [((-2,), 2.0), ((1.5,), 1.5)],
    "FLT": [((1, 2.5), 1), ((2.5, 2.5), 0)],
    "FLE": [((2.5, 2.5), 1), ((3, 2.5), 0)],
    "FEQ": [((2, 2.0), 1), ((2, 2.5), 0)],
    "I2F": [((3,), 3.0), ((3.9,), 3.0)],
    "F2I": [((3.9,), 3), ((-3.9,), -3)],
    "STEER": [((99, 1), 99), ((99, 0), 99)],
    "MERGE": [((10, 20, 1), 10), ((10, 20, 0), 20)],
    "LOAD": [((1234,), 1234)],
    "STORE": [((1234, 77), 77)],
    "NOP": [((7,), 7), ((2.5,), 2.5)],
    "WAVE_ADVANCE": [((7,), 7), ((2.5,), 2.5)],
    "THREAD_SPAWN": [((7,), 7)],
    "THREAD_HALT": [((7,), 7)],
    "OUTPUT": [((7,), 7), ((2.5,), 2.5)],
    "MEMORY_NOP": [((7,), 7)],
}


@pytest.mark.parametrize(
    "opcode", sorted(_EVALUATORS, key=lambda op: op.name),
    ids=lambda op: op.name,
)
def test_every_table_entry_takes_the_operand_tuple(opcode):
    """Each entry is the whole of EXECUTE: ``evaluator_for`` hands it
    out as is, and it computes from the operand tuple what
    ``evaluate`` computes."""
    entry = _EVALUATORS[opcode]
    assert evaluator_for(opcode) is entry
    assert evaluator_for(opcode, 5) is entry
    cases = TABLE_CASES[opcode.name]
    for operands, expected in cases:
        for result in (entry(operands), evaluate(opcode, operands)):
            assert result == expected, (operands, result)
            assert type(result) is type(expected), (operands, result)


def test_const_and_missing_semantics_resolve_per_call():
    assert evaluator_for(Opcode.CONST, 42)(()) == 42
    assert evaluator_for(Opcode.CONST, 0)((9,)) == 0
    with pytest.raises(ValueError, match="CONST requires an immediate"):
        evaluator_for(Opcode.CONST)(())
    assert Opcode.WAVE_TO_DATA not in _EVALUATORS
    with pytest.raises(ValueError, match="no semantics for WAVE_TO_DATA"):
        evaluate(Opcode.WAVE_TO_DATA, (1,))
    with pytest.raises(ValueError, match="no semantics for WAVE_TO_DATA"):
        evaluator_for(Opcode.WAVE_TO_DATA)((1,))


@pytest.mark.parametrize(
    "opcode,operands,expected",
    [
        (Opcode.ADD, (2, 3), 5),
        (Opcode.SUB, (2, 3), -1),
        (Opcode.MUL, (4, -3), -12),
        (Opcode.DIV, (7, 2), 3),
        (Opcode.DIV, (-7, 2), -3),  # truncating division, C semantics
        (Opcode.MOD, (7, 2), 1),
        (Opcode.MOD, (-7, 2), -1),
        (Opcode.AND, (0b1100, 0b1010), 0b1000),
        (Opcode.OR, (0b1100, 0b1010), 0b1110),
        (Opcode.XOR, (0b1100, 0b1010), 0b0110),
        (Opcode.SHL, (1, 4), 16),
        (Opcode.SHR, (-1, 60), 15),  # logical shift of 64-bit pattern
        (Opcode.SAR, (-16, 2), -4),
        (Opcode.MIN, (3, -2), -2),
        (Opcode.MAX, (3, -2), 3),
        (Opcode.EQ, (5, 5), 1),
        (Opcode.NE, (5, 5), 0),
        (Opcode.LT, (2, 3), 1),
        (Opcode.GE, (2, 3), 0),
    ],
)
def test_integer_ops(opcode, operands, expected):
    assert evaluate(opcode, operands) == expected


def test_division_by_zero_yields_zero_not_trap():
    assert evaluate(Opcode.DIV, (5, 0)) == 0
    assert evaluate(Opcode.MOD, (5, 0)) == 0
    assert evaluate(Opcode.FDIV, (5.0, 0.0)) == 0.0


def test_fsqrt_of_negative_is_zero():
    assert evaluate(Opcode.FSQRT, (-4.0,)) == 0.0


def test_fsqrt():
    assert evaluate(Opcode.FSQRT, (9.0,)) == 3.0


def test_const_returns_immediate():
    assert evaluate(Opcode.CONST, (), immediate=42) == 42


def test_const_without_immediate_raises():
    with pytest.raises(ValueError):
        evaluate(Opcode.CONST, ())


def test_steer_forwards_data_value():
    assert evaluate(Opcode.STEER, (99, 1)) == 99
    assert evaluate(Opcode.STEER, (99, 0)) == 99
    assert steer_taken((99, 1)) is True
    assert steer_taken((99, 0)) is False


def test_merge_selects_by_predicate():
    assert evaluate(Opcode.MERGE, (10, 20, 1)) == 10
    assert evaluate(Opcode.MERGE, (10, 20, 0)) == 20


def test_load_store_forward_address_and_data():
    assert evaluate(Opcode.LOAD, (1234,)) == 1234
    assert evaluate(Opcode.STORE, (1234, 77)) == 77


@given(a=ints, b=ints)
def test_div_mod_identity(a, b):
    """C-style identity: a == (a/b)*b + a%b for b != 0."""
    if b != 0:
        q = evaluate(Opcode.DIV, (a, b))
        r = evaluate(Opcode.MOD, (a, b))
        assert q * b + r == a
        assert abs(r) < abs(b)


@given(a=ints, b=ints)
def test_commutative_ops(a, b):
    for op in (Opcode.ADD, Opcode.MUL, Opcode.AND, Opcode.OR, Opcode.XOR,
               Opcode.MIN, Opcode.MAX, Opcode.EQ, Opcode.NE):
        assert evaluate(op, (a, b)) == evaluate(op, (b, a))


@given(a=floats, b=floats)
def test_float_comparisons_consistent(a, b):
    lt = evaluate(Opcode.FLT, (a, b))
    le = evaluate(Opcode.FLE, (a, b))
    eq = evaluate(Opcode.FEQ, (a, b))
    assert le == (lt or eq)


@given(a=ints)
def test_roundtrip_i2f_f2i(a):
    if abs(a) < 2**52:
        assert evaluate(Opcode.F2I, (evaluate(Opcode.I2F, (a,)),)) == a


@given(a=floats)
def test_fsqrt_squares_back(a):
    if a >= 0:
        root = evaluate(Opcode.FSQRT, (a,))
        assert math.isclose(root * root, a, rel_tol=1e-9, abs_tol=1e-12)
