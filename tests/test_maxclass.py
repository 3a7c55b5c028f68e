import pytest

from helpers import (P, backbone_sequence, coclass_excess, dims,
                     extract_centralizer_sequence, failures,
                     metabelian_sequence, x_positions)
from thinlie.gf import vec_is_zero
from thinlie.maxclass import (CentralizerSequence, SequenceError,
                              UnrealizableSequenceError, build_maxclass)


def test_sequence_validation():
    CentralizerSequence(P, "YYYXYY")
    with pytest.raises(SequenceError):
        CentralizerSequence(P, "XYYY")      # c_2 must be Y
    with pytest.raises(SequenceError):
        CentralizerSequence(P, "YXXY")      # X entries isolated
    with pytest.raises(SequenceError):
        CentralizerSequence(P, "YAZ")


def test_sequence_json_roundtrip():
    seq = backbone_sequence(40)
    doc = seq.to_json()
    assert doc["entries"].count("X") == len(x_positions(seq))
    assert CentralizerSequence.from_json(doc) == seq


def test_metabelian_structure():
    L = build_maxclass(metabelian_sequence(P, 45), 40)
    assert dims(L) == [2] + [1] * 39
    # the span of the U_i is an abelian ideal
    for e1 in L.elements:
        for e2 in L.elements:
            if e1.degree >= 2 and e2.degree >= 2 and \
               e1.degree + e2.degree <= L.N_built:
                assert vec_is_zero(L.bracket_basis(e1.gid, e2.gid))
    assert extract_centralizer_sequence(L).entries == ["Y"] * (L.N_built - 2)
    assert coclass_excess(L) == 1


def test_backbone_builds_and_roundtrips():
    seq = backbone_sequence(45)
    L = build_maxclass(seq, 40)
    assert extract_centralizer_sequence(L) == \
        CentralizerSequence(P, seq.entries[:40])
    assert x_positions(seq)[:4] == [14, 21, 28, 35]
    # the two-step centralizer alternates exactly at the X positions
    for i in range(2, 38):
        u = L.as_element(L.gid(i, 0))
        kx = vec_is_zero(L.apply_letter(u, "x")[1])
        assert kx == (i % 7 == 0 and i >= 14)


def test_branch_sequence_builds():
    # beyond the uniform backbone, a gap of 13 between occurrences of the
    # second centralizer first becomes admissible after index 49
    xpos = [14, 21, 28, 35, 42, 49, 62, 69]
    ent = ["Y"] * 78
    for j in xpos:
        ent[j - 2] = "X"
    L = build_maxclass(CentralizerSequence(P, ent), 74)
    assert x_positions(extract_centralizer_sequence(L)) == xpos
    # the same positions with the branch taken too early are rejected
    bad = ["Y"] * 50
    for j in (14, 21, 34):
        bad[j - 2] = "X"
    with pytest.raises(UnrealizableSequenceError):
        build_maxclass(CentralizerSequence(P, bad), 45)


def test_unrealizable_sequences_rejected():
    for xpos in ([3], [5], [13], [15], [14, 22]):
        ent = ["Y"] * 40
        for j in xpos:
            ent[j - 2] = "X"
        with pytest.raises(UnrealizableSequenceError) as ei:
            build_maxclass(CentralizerSequence(P, ent), 35)
        assert failures(ei.value.report)


def test_sequence_too_short():
    with pytest.raises(SequenceError):
        build_maxclass(metabelian_sequence(P, 10), 40)


def test_maxclass_covering_matrix_fact():
    # M_{i+1} = [M_i M_1] holds with dim 1 at every step
    L = build_maxclass(backbone_sequence(40), 35)
    for i in range(2, 35):
        u = L.as_element(L.gid(i, 0))
        images = [L.apply_letter(u, t)[1] for t in "xy"]
        assert sum(0 if vec_is_zero(v) else 1 for v in images) == 1
