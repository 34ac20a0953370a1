"""Every case of the golden-output corpus against ``tests/golden.json``.

``tests/golden.py`` builds the cases and rewrites the file. A test that
fails here names the cases whose exit code, stdout or stderr changed.
"""

import json

import golden

import oed.delta
from oed import DeltaPolynomial


def expected() -> dict:
    return json.loads(golden.GOLDEN.read_text(encoding="utf-8"))


def test_outputs_match_the_corpus(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    corpus = expected()
    got = dict(golden.outcomes())
    assert list(got) == list(corpus)
    assert [name for name in corpus if got[name] != corpus[name]] == []


def test_a_changed_coefficient_fails_the_corpus(tmp_path, monkeypatch):
    product = oed.delta._product

    def off_by_one(groups):
        coeffs = list(product(groups).coeffs)
        coeffs[len(coeffs) // 2] += 1
        return DeltaPolynomial(tuple(coeffs))

    monkeypatch.setattr(oed.delta, "_product", off_by_one)
    monkeypatch.chdir(tmp_path)
    corpus = expected()
    assert any(got != corpus[name] for name, got in golden.outcomes())
