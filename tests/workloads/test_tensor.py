"""Tensor-family tests: stationarity variants agree bit-for-bit,
tiling parameters are validated, and tile geometry changes the
program without changing the answer."""

import pytest

from repro.lang.interp import interpret
from repro.workloads.base import Scale
from repro.workloads.tensor import conv, gemm


def _run(graph):
    return interpret(graph).output_values()


def test_dataflow_variants_bit_identical():
    """All three stationarity disciplines perform the identical FP
    sequence per C element, so the checksums must match exactly."""
    results = {
        df: _run(gemm.build(Scale.TINY, dataflow=df))
        for df in gemm.DATAFLOWS
    }
    assert len({tuple(v) for v in results.values()}) == 1, results
    assert results["output"] == gemm.reference(Scale.TINY)


@pytest.mark.parametrize("tiles", [
    (1, 1, 1), (4, 2, 3), (2, 3, 6), (1, 6, 2), (4, 6, 6),
])
@pytest.mark.parametrize("dataflow", gemm.DATAFLOWS)
def test_tile_geometry_preserves_answer(dataflow, tiles):
    tm, tn, tk = tiles
    graph = gemm.build(Scale.TINY, dataflow=dataflow,
                       tile_m=tm, tile_n=tn, tile_k=tk)
    assert _run(graph) == gemm.reference(Scale.TINY)


def test_tile_geometry_changes_program():
    small = gemm.build(Scale.TINY, tile_m=1, tile_n=1, tile_k=1)
    big = gemm.build(Scale.TINY, tile_m=4, tile_n=3, tile_k=3)
    assert len(small) != len(big)


@pytest.mark.parametrize("bad", [
    {"tile_m": 3}, {"tile_n": 4}, {"tile_k": 5}, {"tile_m": 0},
    {"tile_n": -2},
])
def test_gemm_rejects_non_dividing_tiles(bad):
    with pytest.raises(ValueError, match="must be >= 1 and divide"):
        gemm.build(Scale.TINY, **bad)


def test_gemm_rejects_unknown_dataflow():
    with pytest.raises(ValueError, match="unknown dataflow"):
        gemm.build(Scale.TINY, dataflow="row")


@pytest.mark.parametrize("tile_w", [1, 2, 4])
def test_conv_tile_w_preserves_answer(monkeypatch, tile_w):
    monkeypatch.setattr(conv, "TILE_W", tile_w)
    graph = conv.build(Scale.TINY)
    assert _run(graph) == conv.reference(Scale.TINY)


@pytest.mark.parametrize("tile_w", [0, 3, 5])
def test_conv_rejects_bad_tile_w(monkeypatch, tile_w):
    monkeypatch.setattr(conv, "TILE_W", tile_w)
    with pytest.raises(ValueError, match="tile_w"):
        conv.build(Scale.TINY)


def test_gemm_seeded_data_flows_to_checksum():
    assert gemm.reference(Scale.TINY, seed=0) != \
        gemm.reference(Scale.TINY, seed=7)
    assert conv.reference(Scale.TINY, seed=0) != \
        conv.reference(Scale.TINY, seed=7)
