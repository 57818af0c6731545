"""Unit tests for wave-ordering annotations."""

import pytest

from repro.isa import UNKNOWN, WAVE_END, WAVE_START, WaveAnnotation
from repro.lang import GraphBuilder


def test_annotation_validation_rejects_backward_prev():
    with pytest.raises(ValueError):
        WaveAnnotation(prev=5, this=3, next=UNKNOWN)


def test_annotation_validation_rejects_backward_next():
    with pytest.raises(ValueError):
        WaveAnnotation(prev=UNKNOWN, this=3, next=2)


def test_annotation_rejects_negative_this():
    with pytest.raises(ValueError):
        WaveAnnotation(prev=WAVE_START, this=-1, next=UNKNOWN)


def test_repr_uses_compact_symbols():
    ann = WaveAnnotation(prev=WAVE_START, this=0, next=UNKNOWN)
    assert repr(ann) == "<^,0,?>"
    last = WaveAnnotation(prev=WAVE_START, this=0, next=WAVE_END)
    assert repr(last) == "<^,0,$>"


def test_sequencer_straight_line_chain():
    # The builder sequences a straight-line region's memory operations
    # into one fully resolved chain.
    b = GraphBuilder("chain")
    t = b.entry(0)
    base = b.alloc("cells", 3)
    for i in range(3):
        b.store(b.const(base + i, t), t)
    b.output(t)
    graph = b.finalize()
    chain = sorted(
        (ann.this, ann.prev, ann.next)
        for ann in (inst.wave_annotation for inst in graph.memory_instructions)
    )
    assert chain == [(0, WAVE_START, 1), (1, 0, 2), (2, 1, WAVE_END)]


def test_sequencer_divergence_marks_unknown_prev():
    # After a fork the builder cannot name the join's predecessor
    # statically: the first memory operation past it gets '?'.
    b = GraphBuilder("fork")
    base = b.alloc("cell", 1)
    t = b.entry(1)
    br = b.if_else(b.gt(t, b.const(0, t)), [t])
    (tv,) = br.then_values()
    b.store(b.const(base, tv), tv)
    br.then_result([tv])
    (fv,) = br.else_values()
    br.else_result([fv])
    (merged,) = br.end()
    b.output(b.load(b.const(base, merged)))
    graph = b.finalize()
    (load,) = [i for i in graph.memory_instructions if i.opcode.is_load]
    assert load.wave_annotation.prev == UNKNOWN
