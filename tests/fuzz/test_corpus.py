"""Corpus round-trips and the checked-in regression cases.

Every JSON file under ``tests/fuzz/corpus/`` is a minimized repro
recorded by a fuzz campaign against a broken engine, named by the
file's ``"defect"`` key (a ``broken_engine`` breakage; the loader
ignores the key).  Replaying one must (a) still reproduce its
divergence on that broken engine -- the detect pipeline never rots
-- and (b) be completely clean against the real engines, proving the
real backends still agree on the exact program that once exposed a
bug."""

import json
from pathlib import Path

import pytest

from repro.fuzz import CorpusCase, build_graph, load_corpus, save_case
from repro.fuzz.corpus import case_filename

CORPUS_DIR = Path(__file__).parent / "corpus"
CASES = load_corpus(CORPUS_DIR)


def test_corpus_is_not_empty():
    assert len(CASES) >= 3


@pytest.mark.parametrize(
    "case", CASES, ids=[case_filename(c) for c in CASES]
)
def test_corpus_case_reproduces_with_its_defect(case, broken_engine):
    raw = json.loads((CORPUS_DIR / case_filename(case)).read_text())
    broken_engine(raw["defect"])
    report = case.replay()
    assert any(d.kind == case.kind for d in report.divergences), (
        f"seed {case.seed}: recorded {case.kind} divergence no longer "
        "reproduces"
    )


@pytest.mark.parametrize(
    "case", CASES, ids=[case_filename(c) for c in CASES]
)
def test_corpus_case_clean_on_real_engines(case):
    report = case.replay()
    assert report.clean, [
        (d.kind, d.detail) for d in report.divergences
    ]


@pytest.mark.parametrize(
    "case", CASES, ids=[case_filename(c) for c in CASES]
)
def test_corpus_case_minimized_and_buildable(case):
    assert case.minimized is not None
    graph = build_graph(case.best_recipe())
    assert len(graph) == case.minimized_len


def test_save_load_round_trip(tmp_path):
    case = CASES[0]
    path = save_case(tmp_path, case)
    assert path.exists()
    loaded = load_corpus(tmp_path)
    assert len(loaded) == 1
    assert loaded[0].to_dict() == case.to_dict()


def test_missing_corpus_dir_is_empty_not_fatal(tmp_path):
    assert load_corpus(tmp_path / "nope") == []


def test_case_filenames_are_stable():
    case = CorpusCase(seed=12, kind="output", detail="x")
    assert case_filename(case) == "fuzz_seed12_output.json"
