"""The lemma suite's table of identities, row by row: each row is reached
on the corpus, and a wrong coefficient in one row fails that row alone."""

import pytest

from thinlie import patterns
from thinlie.patterns import LEMMA_TABLE, verify_lemma_suite


# the instances outside the table: the second-diamond relation and the
# type-1 hypothesis
UNTABLED = {("eq1", "[v1yx] = -2[v1xy]"), ("eq1", "[v1xx] = 0"),
            ("eq1", "[v1yy] = 0"), ("lemma_type1", "[L_{m+q-2} y] = 0")}
WITH_TERMS = [i for i, row in enumerate(LEMMA_TABLE) if row[4]]


def _corpus_instances(corpus):
    return [i for L, _, _ in corpus.values()
            for i in verify_lemma_suite(L).instances]


def test_every_row_is_reached_on_corpus(corpus):
    rows = {(row[0], row[1]) for row in LEMMA_TABLE}
    assert len(rows) == len(LEMMA_TABLE) == 30
    seen = {(i.lemma, i.identity) for i in _corpus_instances(corpus)
            if i.lemma != "distance"}
    assert seen == rows | UNTABLED


@pytest.mark.parametrize("index", WITH_TERMS,
                         ids=[f"{LEMMA_TABLE[i][0]}-{i}" for i in WITH_TERMS])
def test_a_wrong_coefficient_fails_its_row_alone(corpus, monkeypatch, index):
    lemma, label, left, right, terms, *when = LEMMA_TABLE[index]
    a, b, name, suffix = terms[0]
    wrong = (lemma, label, left, right,
             ((a, b + 1, name, suffix),) + terms[1:], *when)
    table = LEMMA_TABLE[:index] + (wrong,) + LEMMA_TABLE[index + 1:]
    monkeypatch.setattr(patterns, "LEMMA_TABLE", table)
    failed = {(i.lemma, i.identity) for i in _corpus_instances(corpus)
              if i.status == "fail"}
    assert failed == {(lemma, label)}
