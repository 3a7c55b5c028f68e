import random

import pytest

from helpers import P, Q, random_tq2_pattern
from thinlie.derivations import (ClassGateError, build_D, extract_M,
                                 in_tq2_class, roundtrip_check, verify_leibniz)
from thinlie.gf import vec_is_zero, vec_scale
from thinlie.patterns import compile_pattern, detect, family_pattern


@pytest.fixture(scope="module")
def uniq():
    pat = family_pattern("uniqueness", P, Q, 200, s=1)
    L, _ = compile_pattern(pat, 140, guard=Q + 2, run_validation=False)
    return L


@pytest.fixture(scope="module")
def D(uniq):
    return build_D(uniq)


def test_class_gate():
    pat = family_pattern("a", P, Q, 100)
    L, _ = compile_pattern(pat, 60, run_validation=False)
    assert not in_tq2_class(detect(L)[0])
    with pytest.raises(ClassGateError):
        build_D(L)


def test_D_on_chain(uniq, D):
    v1 = uniq.eval_word("y" + "x" * (Q - 2))
    for i in range(Q - 1):
        lhs = D.apply(uniq.eval_word("y" + "x" * i))
        rhs = uniq.apply_word(uniq.apply_word(v1, "y"), "x" * i)
        assert lhs == rhs
    assert vec_is_zero(D.apply(uniq.as_element(uniq.gid(1, 0)))[1])  # Dx = 0


def test_D_v1_is_minus_2_v2(uniq, D):
    v1 = uniq.eval_word("y" + "x" * (Q - 2))
    v2 = uniq.eval_word("y" + "x" * (Q - 2) + "xy" + "x" * (Q - 3))
    assert D.apply(v1)[1] == vec_scale(-2, v2[1], P)


def test_D_kills_fake_leg(uniq, D):
    # at the fake diamond in degree 85: D[vx] = 0 for v spanning degree 84
    v = uniq.as_element(uniq.gid(84, 0))
    assert vec_is_zero(D.apply(uniq.apply_word(v, "x"))[1])


def test_D_on_second_diamond_relations(uniq, D):
    # the derivation respects the second-diamond relation: images of the two
    # evaluation orders combine to zero with the documented coefficients
    v1 = uniq.eval_word("y" + "x" * (Q - 2))
    v2 = uniq.eval_word("y" + "x" * (Q - 2) + "xy" + "x" * (Q - 3))
    d_v1yx = D.apply(uniq.apply_word(v1, "yx"))
    assert d_v1yx[1] == vec_scale(-4, uniq.apply_word(v2, "yx")[1], P)
    d_v1xy = D.apply(uniq.apply_word(v1, "xy"))
    assert d_v1xy[1] == vec_scale(2, uniq.apply_word(v2, "yx")[1], P)
    # whence D([v1yx] + 2[v1xy]) = 0
    comb = (d_v1yx[0], tuple((a + 2 * b) % P
                             for a, b in zip(d_v1yx[1], d_v1xy[1])))
    assert vec_is_zero(comb[1])
    # [v1 x [v1 y]] = 2[v2 xy] + 2[v2 yx]
    lhs = uniq.bracket(uniq.apply_word(v1, "x"), uniq.apply_word(v1, "y"))
    rhs = tuple((2 * a + 2 * b) % P for a, b in
                zip(uniq.apply_word(v2, "xy")[1], uniq.apply_word(v2, "yx")[1]))
    assert lhs[1] == rhs


def test_D_of_pre_diamond_elements(uniq, D):
    # Dw = -2 [w x y x^{q-3}] when the following diamond has infinite type,
    # and Dw = 0 when it is a fake of type 1
    pat, _ = detect(uniq)
    top = uniq.N_built - D.shift    # last degree D is defined on
    for idx, (m, t) in enumerate(pat.entries[:-1]):
        nxt = pat.entries[idx + 1]
        if t.kind != "infinite" or nxt[0] != m + Q - 1:
            continue
        w = uniq.apply_word(uniq.as_element(uniq.gid(m - 1, 0)),
                            "xy" + "x" * (Q - 3))
        if w[0] + Q - 1 > uniq.N_built or w[0] + Q - 1 > top + Q - 2:
            continue
        if w[0] > top:
            continue
        dw = D.apply(w)
        if nxt[1].kind == "infinite":
            want = vec_scale(-2, uniq.apply_word(w, "xy" + "x" * (Q - 3))[1], P)
            assert dw[1] == want, m
        elif nxt[1].kind == "fake1":
            assert vec_is_zero(dw[1]), m


def test_D_bidegree_and_leibniz(uniq, D):
    rep = verify_leibniz(uniq, D, limit=120)
    assert rep.ok
    assert rep.pairs_checked > 3000
    labels = {c[0] for c in rep.instance_checks}
    assert "D[vx] = -2[wx] at infinite diamond" in labels
    assert "D[vx] = 0 at fake diamond" in labels


def test_infinite_diamond_kills_v1y(uniq):
    # [v, [v1 y]] = 0 when v spans the component before an infinite diamond
    v1y = uniq.eval_word("y" + "x" * (Q - 2) + "y")
    pat, _ = detect(uniq)
    for m, t in pat.entries:
        if t.kind == "infinite" and m + Q <= uniq.N_built:
            v = uniq.as_element(uniq.gid(m - 1, 0))
            assert vec_is_zero(uniq.bracket(v, v1y)[1]), m


def test_extract_examples(uniq, D):
    Y = uniq.eval_word("y" + "x" * (Q - 1))
    U2 = D.apply(Y)
    v2 = uniq.eval_word("y" + "x" * (Q - 2) + "xy" + "x" * (Q - 3))
    assert U2[1] == vec_scale(-2, uniq.apply_word(v2, "x")[1], P)
    assert vec_is_zero(uniq.bracket(U2, Y)[1])      # [Y X Y] = 0
    M, seq = extract_M(uniq, D)
    _, seq2 = extract_M(uniq, D)
    assert seq == seq2          # re-extraction is deterministic
    # fake degrees of the detected pattern match the X positions through
    # the degree bookkeeping deg U_i = q + (i-1)(q-1) + #{X before i}
    pat, _ = detect(uniq)
    fake_degs = [d for d, t in pat.entries if not t.genuine]
    got = []
    for i in seq.x_positions():
        nx = sum(1 for j in seq.x_positions() if j < i)
        got.append(Q + (i - 1) * (Q - 1) + nx)
    assert [d for d in got if d <= uniq.N] == fake_degs


def test_roundtrip_uniqueness(uniq):
    rep = roundtrip_check(uniq, compare_N=100)
    assert rep.passed and rep.compare_N == 100
    assert rep.extracted_sequence.count("X") >= 2


def test_roundtrip_case_e():
    pat = family_pattern("e", P, Q, 200)
    L, _ = compile_pattern(pat, 130, guard=Q + 2, run_validation=False)
    rep = roundtrip_check(L, compare_N=90)
    assert rep.passed
    assert "X" not in rep.extracted_sequence      # metabelian


def test_roundtrip_rejects_finite_types():
    pat = family_pattern("a", P, Q, 100)
    L, _ = compile_pattern(pat, 60, run_validation=False)
    rep = roundtrip_check(L)
    assert not rep.passed
    assert rep.stages[0][0] == "class-gate"


def test_roundtrip_branch_sequence():
    # the correspondence also holds across the 13-gap branch: rebuild the
    # algebra of the branch sequence through the tensor construction and
    # extract the same sequence back
    from thinlie.constructions import tensor_construct
    from thinlie.maxclass import CentralizerSequence, build_maxclass
    xpos = [14, 21, 28, 35, 42, 49, 62, 69]
    ent = ["Y"] * 80
    for j in xpos:
        ent[j - 2] = "X"
    M = build_maxclass(CentralizerSequence(P, ent), 76)
    tc = tensor_construct(M, Q, 400)
    pat, _ = detect(tc.algebra)
    from thinlie.patterns import family_pattern
    want = family_pattern("tq2", P, Q, 400,
                          sequence=CentralizerSequence(P, ent))
    assert pat.entries == want.truncate(400).entries
    assert [d for d, t in pat.entries if not t.genuine] == \
        [85, 128, 171, 214, 257, 300, 379, 422][:7]
    D = build_D(tc.algebra, pattern=pat, enforce_class=False)
    M2, seq2 = extract_M(tc.algebra, D)
    assert seq2.x_positions() == [j for j in xpos
                                  if j <= len(seq2.entries) + 1]


def test_roundtrip_random_patterns():
    rng = random.Random(99)
    for _ in range(3):
        pat, n = random_tq2_pattern(rng, n_lo=60, n_hi=110)
        L, _ = compile_pattern(pat, n, guard=Q + 2, run_validation=False)
        rep = roundtrip_check(L, compare_N=max(40, n - 30))
        assert rep.passed, rep.to_json()
