import gc
import random
import weakref

import pytest

from helpers import (P, Q, corrupt_ad_x, failure_degrees,
                     forbidden_continuations, leibniz_pair_failures,
                     q_brackets, random_tq2_pattern, x_positions)
from thinlie.derivations import (build_D, extract_M, fill, in_tq2_class,
                                 roundtrip_check, verify_leibniz)
from thinlie.engine import OperatorFamily, validate
from thinlie.gf import vec_is_zero, vec_scale
from thinlie.patterns import compile_pattern, detect, family_pattern


@pytest.fixture(scope="module")
def uniq():
    pat = family_pattern("uniqueness", P, Q, 200, s=1)
    L, _ = compile_pattern(pat, 140, guard=Q + 2, run_validation=False)
    return L


@pytest.fixture(scope="module")
def D(uniq):
    # filled on every degree it is defined on, as verify_leibniz fills it
    D = build_D(uniq)
    fill(D, uniq.N_built - D.shift, q_brackets(uniq))
    return D


def test_class_gate():
    pat = family_pattern("a", P, Q, 100)
    L, _ = compile_pattern(pat, 60, run_validation=False)
    assert not in_tq2_class(detect(L)[0])


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
    rep = verify_leibniz(uniq, D, q_brackets(uniq), detect(uniq)[0])
    assert rep.ok
    # one pair (a, t) per generator t and basis element a below the budget
    budget = min(uniq.N, uniq.N_built - D.shift)
    assert rep.pairs_checked == 2 * sum(e.degree < budget
                                        for e in uniq.elements)
    labels = {c[0] for c in rep.instance_checks}
    assert "D[vx] = -2[wx] at infinite diamond" in labels
    assert "D[vx] = 0 at fake diamond" in labels


def _moved(D, k, i, j, brackets):
    """D with entry j of its image of basis element i of L_k moved by one,
    D filled to k off brackets first: the degrees above k are filled again,
    from the moved row."""
    fill(D, k, brackets)
    maps = {d: D.maps[d] for d in range(1, k + 1)}
    rows = [list(r) for r in maps[k]]
    rows[i][j] = (rows[i][j] + 1) % D.algebra.p
    maps[k] = tuple(map(tuple, rows))
    return OperatorFamily(D.algebra, D.shift, maps)


def _first_degree(L, fails):
    """The least total degree of the failing pairs, or None."""
    return min((sum(L.elements[g].degree for g in f) for f in fails),
               default=None)


@pytest.mark.parametrize("family,q,N", [("uniqueness", 7, 120),
                                        ("uniqueness", 11, 150),
                                        ("e", 7, 120)])
def test_certificate_matches_the_pair_loop(family, q, N):
    # on a Lie algebra the generator pairs and all pairs give the same
    # verdict and the same first failing total degree, for D as built, for
    # D with each entry of Dx and Dy moved by one, and for D with one entry
    # of its row on a basis element of degree 50 moved
    kw = {"s": 1} if family == "uniqueness" else {}
    pat = family_pattern(family, q, q, N + 60, **kw)
    L, _ = compile_pattern(pat, N, guard=q + 2, run_validation=False)
    D = build_D(L)
    brackets = q_brackets(L)
    Ds = [D] + [_moved(D, 1, i, j, brackets) for i in range(2)
                for j in range(L.dim(q))]
    Ds.append(_moved(D, 50, 0, 0, brackets))
    firsts, pattern = [], detect(L)[0]
    for E in Ds:
        rep = verify_leibniz(L, E, brackets, pattern)
        fails = leibniz_pair_failures(L, E)
        first = _first_degree(L, rep.failures)
        assert first == _first_degree(L, fails), (family, q, E.maps[1])
        firsts.append(first)
    # D is a derivation, and a moved entry breaks it in some degree
    assert firsts[0] is None and any(firsts[1:]), firsts


def test_certificate_rests_on_jacobi():
    # no_fake_at_128 breaks Jacobi first in degree 128, so the certificate
    # speaks for total degrees below 128 - (q - 1) = 122: there the pair
    # loop agrees, and at 122 it fails where the certificate passes
    ((_, pat, n),) = [c for c in forbidden_continuations()
                      if c[0] == "no_fake_at_128"]
    L, _ = compile_pattern(pat, n, guard=Q + 2, run_validation=False)
    D = build_D(L)
    rep = verify_leibniz(L, D, q_brackets(L), detect(L)[0])
    fails = leibniz_pair_failures(L, D)
    assert min(failure_degrees(validate(L, ["jacobi"]), L)) == 128
    assert not rep.failures and _first_degree(L, fails) == 128 - (Q - 1)


def test_verify_leibniz_leaves_the_memo_empty():
    pat = family_pattern("uniqueness", P, Q, 180, s=1)
    L, _ = compile_pattern(pat, 120, guard=Q + 2, run_validation=False)
    assert verify_leibniz(L, build_D(L), q_brackets(L), detect(L)[0]).ok
    assert len(L._memo) == 0


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
    M, seq = extract_M(uniq, D, q_brackets(uniq))
    _, seq2 = extract_M(uniq, D, q_brackets(uniq))
    assert seq == seq2          # re-extraction is deterministic
    # fake degrees of the detected pattern match the X positions through
    # the degree bookkeeping deg U_i = q + (i-1)(q-1) + #{X before i}
    pat, _ = detect(uniq)
    fake_degs = [d for d, t in pat.entries if not t.genuine]
    got = []
    for i in x_positions(seq):
        nx = sum(1 for j in x_positions(seq) if j < i)
        got.append(Q + (i - 1) * (Q - 1) + nx)
    assert [d for d in got if d <= uniq.N] == fake_degs
    # extract_M reads [U_j Y] off the brackets with L_q: the recursion replayed
    # through the bracket_basis memo gives the same sequence
    U, kinds = Y, []
    while U[0] + Q <= uniq.N_built:
        uy = uniq.bracket(U, Y)
        kinds.append("Y" if vec_is_zero(uy[1]) else "X")
        U = D.apply(U) if kinds[-1] == "Y" else uy
    assert kinds[1:] == seq.entries


def test_extraction_memo_does_not_grow_with_N():
    # neither D's fill nor [U_j Y] fills the bracket_basis memo
    sizes = []
    for N in (200, 400):
        pat = family_pattern("uniqueness", P, Q, N + 60, s=1)
        L, _ = compile_pattern(pat, N, guard=Q + 2, run_validation=False)
        extract_M(L, build_D(L), q_brackets(L))
        sizes.append(len(L._memo))
    assert sizes[0] == sizes[1], sizes


def test_roundtrip_uniqueness(uniq):
    rep = roundtrip_check(uniq, compare_N=100)
    assert rep.passed and rep.compare_N == 100
    assert rep.extracted_sequence.count("X") >= 2


def test_roundtrip_opens_one_bracket_window(monkeypatch):
    # the certificate, D's fill and the extraction all read the brackets
    # with L_q that the round trip reads once: one bracket_columns sweep
    # of L (build_maxclass sweeps the extracted algebra to validate it).
    # D's maps equal those of a D filled one degree per fill
    import thinlie.derivations as derivations
    from thinlie.engine import GradedAlgebra

    swept, built = [], []
    orig, orig_build_D = GradedAlgebra.bracket_columns, derivations.build_D
    monkeypatch.setattr(GradedAlgebra, "bracket_columns",
                        lambda A, bound: swept.append((A, bound))
                        or orig(A, bound))
    monkeypatch.setattr(derivations, "build_D",
                        lambda L: built.append(orig_build_D(L)) or built[-1])
    pat = family_pattern("uniqueness", P, Q, 260, s=1)
    L, _ = compile_pattern(pat, 200, guard=Q + 2, run_validation=False)
    rep = roundtrip_check(L)
    assert [b for A, b in swept if A is L] == [L.N_built], swept
    assert rep.passed and len(built) == 1
    monkeypatch.undo()
    stepwise, brackets = build_D(L), q_brackets(L)
    for k in range(2, max(built[-1].maps) + 1):
        fill(stepwise, k, brackets)
    assert built[-1].maps == stepwise.maps


def test_roundtrip_frees_D_before_the_rebuild(uniq, monkeypatch):
    # nothing after the extraction reads D, so the rebuild of T runs with
    # D, and the maps its fill grew, released
    import thinlie.constructions as constructions
    import thinlie.derivations as derivations

    refs, alive = [], []
    orig_build_D = derivations.build_D
    orig_tensor = constructions.tensor_construct

    def build_D(L):
        D = orig_build_D(L)
        refs.append(weakref.ref(D))
        return D

    def tensor_construct(*args, **kwargs):
        gc.collect()
        alive.append(refs[-1]() is not None)
        return orig_tensor(*args, **kwargs)

    monkeypatch.setattr(derivations, "build_D", build_D)
    monkeypatch.setattr(constructions, "tensor_construct", tensor_construct)
    rep = roundtrip_check(uniq, compare_N=100)
    assert rep.passed and alive == [False], alive


def test_roundtrip_stops_at_a_failed_certificate(uniq):
    # one ad x entry moved: the pattern still passes the class gate, but
    # D is no derivation, so the round trip fails before extracting
    rep = roundtrip_check(corrupt_ad_x(uniq))
    assert not rep.passed and rep.extracted_sequence == ""
    assert [s[0] for s in rep.stages] == ["class-gate", "derivation",
                                          "leibniz"]
    assert rep.to_json()["pattern_T"] is None


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
    T, _ = tensor_construct(M, Q, 400)
    pat, _ = detect(T)
    from thinlie.patterns import family_pattern
    want = family_pattern("tq2", P, Q, 400,
                          sequence=CentralizerSequence(P, ent))
    assert pat.entries == want.truncate(400).entries
    assert [d for d, t in pat.entries if not t.genuine] == \
        [85, 128, 171, 214, 257, 300, 379, 422][:7]
    M2, seq2 = extract_M(T, build_D(T), q_brackets(T))
    assert x_positions(seq2) == [j for j in xpos
                                 if j <= len(seq2.entries) + 1]


def test_roundtrip_random_patterns():
    rng = random.Random(99)
    for _ in range(3):
        pat, n = random_tq2_pattern(rng, n_lo=60, n_hi=110)
        L, _ = compile_pattern(pat, n, guard=Q + 2, run_validation=False)
        rep = roundtrip_check(L, compare_N=max(40, n - 30))
        assert rep.passed, rep.to_json()
