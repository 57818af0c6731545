"""Unit tests for tagged tokens."""

from hypothesis import given
from hypothesis import strategies as st

from repro.isa import Tag, make_token


def test_match_key_ignores_port():
    a = Tag(thread=1, wave=2, inst=3, port=0)
    b = Tag(thread=1, wave=2, inst=3, port=1)
    assert a.match_key() == b.match_key()
    assert a != b


def test_with_wave_preserves_other_fields():
    tag = Tag(thread=7, wave=3, inst=11, port=2)
    moved = tag.with_wave(9)
    assert moved.wave == 9
    assert (moved.thread, moved.inst, moved.port) == (7, 11, 2)


def test_token_accessors():
    token = make_token(thread=1, wave=2, inst=3, port=0, value=42)
    assert token.thread == 1
    assert token.wave == 2
    assert token.inst == 3
    assert token.port == 0
    assert token.value == 42


def test_tokens_hashable_and_equal_by_value():
    t1 = make_token(0, 0, 5, 1, 9)
    t2 = make_token(0, 0, 5, 1, 9)
    assert t1 == t2
    assert hash(t1) == hash(t2)
    assert t1 is not t2


@given(
    thread=st.integers(0, 1000),
    wave=st.integers(0, 10**6),
    inst=st.integers(0, 10**5),
    port=st.integers(0, 2),
)
def test_match_key_distinguishes_distinct_rendezvous(thread, wave, inst, port):
    tag = Tag(thread, wave, inst, port)
    assert tag.match_key() == (thread, wave, inst)
    # Different wave must never match (this is what prevents cross-
    # iteration operand aliasing).
    assert tag.match_key() != tag.with_wave(wave + 1).match_key()


def test_token_is_immutable():
    token = make_token(0, 0, 0, 0, 1)
    try:
        token.value = 2  # type: ignore[misc]
    except AttributeError:
        pass
    else:  # pragma: no cover
        raise AssertionError("Token should be frozen")
