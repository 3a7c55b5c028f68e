import gc
import os
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (P, Q, ad_operator, centralizer_in_L1, coclass_excess,
                     corrupt_ad_x, dims, failures, lucas_binom,
                     metabelian_sequence, oracle_bracket, words)
from thinlie.derivations import fill
from thinlie.engine import (AlgebraBuilder, BasisElement, DegreeOverflowError,
                            GradedAlgebra, validate)
from thinlie.gf import vec_is_zero, vec_scale
from thinlie.maxclass import build_maxclass
from thinlie.patterns import compile_pattern, family_pattern


@pytest.fixture(scope="module")
def n7():
    pat = family_pattern("a", P, Q, 100)
    L, rep = compile_pattern(pat, 60)
    assert rep.ok
    return L


@pytest.fixture(scope="module")
def case_e():
    pat = family_pattern("e", P, Q, 100)
    L, rep = compile_pattern(pat, 60)
    assert rep.ok
    return L


def test_bracket_alternating(n7):
    for e in n7.elements:
        if 2 * e.degree <= n7.N_built:
            u = n7.as_element(e.gid)
            assert vec_is_zero(n7.bracket(u, u)[1])


def test_second_diamond_relation_via_bracket(n7):
    # [v1y, x] = -2 [v1x, y] in L_8
    v1y = n7.eval_word("y" + "x" * 5 + "y")
    v1x = n7.eval_word("y" + "x" * 6)
    x = n7.as_element(n7.gid(1, 0))
    y = n7.as_element(n7.gid(1, 1))
    lhs = n7.bracket(v1y, x)
    rhs = n7.bracket(v1x, y)
    assert lhs[1] == vec_scale(-2, rhs[1], P)


def test_bracket_against_word_expansion_oracle(n7):
    # every basis pair with degree sum <= 20, plus the (5, 9) pairs
    pairs = [(e1, e2) for e1 in n7.elements for e2 in n7.elements
             if e1.degree + e2.degree <= 20]
    pairs += [(e1, e2) for e1 in n7.elements if e1.degree == 5
              for e2 in n7.elements if e2.degree == 9]
    word = words(n7)
    for e1, e2 in pairs:
        got = n7.bracket(n7.as_element(e1.gid), n7.as_element(e2.gid))
        want = oracle_bracket(n7, n7.as_element(e1.gid), word[e2.gid])
        assert got == want, (word[e1.gid], word[e2.gid])


def test_generalized_jacobi_identity(n7):
    # [a, [b x^n]] = sum (-1)^i C(n,i) [a x^i b x^{n-i}] for chain words
    rng = random.Random(7)
    for _ in range(30):
        n = rng.randint(1, 5)
        a_deg = rng.randint(1, 8)
        a = n7.as_element(n7.gid(a_deg, rng.randrange(n7.dim(a_deg))))
        b_deg = rng.randint(1, 6)
        b = n7.elements[n7.gid(b_deg, rng.randrange(n7.dim(b_deg)))]
        v = n7.apply_word(n7.as_element(b.gid), "x" * n)
        lhs = n7.bracket(a, v)
        acc = (lhs[0], (0,) * len(lhs[1]))
        for i in range(n + 1):
            c = lucas_binom(n, i, P)
            if i % 2:
                c = P - c
            t = n7.bracket(n7.apply_word(a, "x" * i), n7.as_element(b.gid))
            t = n7.apply_word(t, "x" * (n - i))
            acc = (acc[0], tuple((x + c * y) % P
                                 for x, y in zip(acc[1], t[1])))
        assert lhs == acc


_shared = {}


def _shared_n7():
    if "L" not in _shared:
        pat = family_pattern("a", P, Q, 100)
        _shared["L"], _ = compile_pattern(pat, 60, run_validation=False)
    return _shared["L"]


@given(st.data())
@settings(max_examples=120, deadline=None)
def test_bracket_bilinear_antisymmetric_random(data):
    L = _shared_n7()
    du = data.draw(st.integers(1, 25))
    dv = data.draw(st.integers(1, 25))
    coeff = st.integers(0, P - 1)
    u = (du, tuple(data.draw(coeff) for _ in range(L.dim(du))))
    v = (dv, tuple(data.draw(coeff) for _ in range(L.dim(dv))))
    w = (dv, tuple(data.draw(coeff) for _ in range(L.dim(dv))))
    c = data.draw(coeff)
    uv = L.bracket(u, v)
    # antisymmetry
    vu = L.bracket(v, u)
    assert uv[1] == tuple((-a) % P for a in vu[1])
    # bilinearity in the second slot: [u, c v + w] = c [u, v] + [u, w]
    cvw = (dv, tuple((c * a + b) % P for a, b in zip(v[1], w[1])))
    lhs = L.bracket(u, cvw)
    uw = L.bracket(u, w)
    assert lhs[1] == tuple((c * a + b) % P for a, b in zip(uv[1], uw[1]))


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_jacobi_random_elements(data):
    L = _shared_n7()
    degs = [data.draw(st.integers(1, 18)) for _ in range(3)]
    elems = [(d, tuple(data.draw(st.integers(0, P - 1))
                       for _ in range(L.dim(d)))) for d in degs]
    a, b, c = elems
    s = L.bracket(L.bracket(a, b), c)
    s2 = L.bracket(L.bracket(b, c), a)
    s3 = L.bracket(L.bracket(c, a), b)
    total = tuple((x + y + z) % P for x, y, z in zip(s[1], s2[1], s3[1]))
    assert all(t == 0 for t in total)


def test_validate_passes_on_families(n7, case_e):
    assert validate(n7).ok
    assert validate(case_e).ok


def test_corrupted_ad_matrix_fails_jacobi(n7):
    rep = validate(corrupt_ad_x(n7), checks=("jacobi",))
    assert not rep.ok
    assert failures(rep)[0].witnesses  # carries a witness triple


def test_corrupted_sandwich_and_covering_detected(n7):
    # break ad_y on a mid chain component: the sandwich or covering checks
    # (not only Jacobi) must notice
    ad_y = [None if rows is None else [list(r) for r in rows]
            for rows in n7.ad["y"]]
    ad_y[5][0][0] = 1     # followed by the nonzero ad_y into the diamond
    bad = GradedAlgebra(n7.p, n7.elements, n7.comp_gids, n7.ad["x"],
                        [rows if rows is None else tuple(tuple(r) for r in rows)
                         for rows in ad_y],
                        N=n7.N, q=n7.q)
    rep = validate(bad, checks=("sandwich_y",))
    assert not rep.ok
    ad_x = [None if rows is None else [list(r) for r in rows]
            for rows in n7.ad["x"]]
    ad_x[20][0] = [0]
    bad2 = GradedAlgebra(n7.p, n7.elements, n7.comp_gids,
                         [rows if rows is None else tuple(tuple(r) for r in rows)
                          for rows in ad_x],
                         n7.ad["y"], N=n7.N, q=n7.q)
    rep2 = validate(bad2, checks=("covering",))
    assert not rep2.ok and failures(rep2)[0].witnesses


def test_support(n7):
    supp = n7.support()
    assert {(1, 0), (0, 1)} <= supp
    for i in range(1, 6):
        assert (i, 1) in supp            # degrees 2..6
    assert (6, 1) in supp and (5, 2) in supp   # the second diamond
    assert (4, 2) not in supp


def test_dims(n7):
    d = dims(n7)
    assert d[0] == 2
    assert all(d[k - 1] == (2 if k % 6 == 1 else 1) for k in range(2, 61))


def test_centralizer_examples(n7):
    assert centralizer_in_L1(n7, 3) == [(0, 1)]      # span{y}
    assert centralizer_in_L1(n7, 6) == []            # pre-diamond
    pat = family_pattern("uniqueness", P, Q, 140, s=1)
    L, _ = compile_pattern(pat, 95, run_validation=False)
    assert centralizer_in_L1(L, 85) == [(1, 0)]      # span{x} at the fake


def test_centralizer_at_diamond_is_trivial(n7):
    assert centralizer_in_L1(n7, 7) == []


def test_coclass_excess(n7):
    expected = sum(1 for k in range(1, 61) if k == 1 or k % 6 == 1)
    assert expected == 10
    assert coclass_excess(n7) == 10
    patL1 = family_pattern("L1q", P, Q, 100)
    L1, _ = compile_pattern(patL1, 60, run_validation=False)
    assert coclass_excess(L1) == 2
    M = build_maxclass(metabelian_sequence(P, 70), 60)
    assert coclass_excess(M) == 1


def test_degree_overflow_raises(n7):
    u = n7.as_element(n7.gid(40, 0))
    with pytest.raises(DegreeOverflowError):
        n7.bracket(u, u)
    with pytest.raises(DegreeOverflowError):
        n7.apply_word(u, "x" * 40)


def test_memo_coherence(n7):
    # memoized values equal a fresh recomputation on an identical algebra
    pat = family_pattern("a", P, Q, 100)
    fresh, _ = compile_pattern(pat, 60, run_validation=False)
    for e1 in n7.elements:
        for e2 in n7.elements:
            if e1.degree + e2.degree <= 30:
                assert n7.bracket_basis(e1.gid, e2.gid) == \
                    fresh.bracket_basis(e1.gid, e2.gid)
    # and asking twice gives the same object content
    g1, g2 = n7.gid(5, 0), n7.gid(9, 0)
    assert n7.bracket_basis(g1, g2) == n7.bracket_basis(g1, g2)


def test_word_reproduction(n7):
    word = words(n7)
    assert len(word) == len(n7.elements)
    for e in n7.elements:
        assert n7.eval_word(word[e.gid]) == n7.as_element(e.gid)


def test_bidegree_additivity_spot(n7):
    bidegrees = n7.bidegrees()
    for e1 in n7.elements[:40]:
        for e2 in n7.elements[:40]:
            if e1.degree + e2.degree > 40:
                continue
            w = n7.bracket_basis(e1.gid, e2.gid)
            tgt = n7.comp_gids[e1.degree + e2.degree]
            want = (bidegrees[e1.gid][0] + bidegrees[e2.gid][0],
                    bidegrees[e1.gid][1] + bidegrees[e2.gid][1])
            for s, c in enumerate(w):
                if c:
                    assert bidegrees[tgt[s]] == want


def test_support_argument_soundness(n7):
    supp, bidegrees = n7.support(), n7.bidegrees()
    for e1 in n7.elements:
        for e2 in n7.elements:
            if e1.degree + e2.degree > 40:
                continue
            want = (bidegrees[e1.gid][0] + bidegrees[e2.gid][0],
                    bidegrees[e1.gid][1] + bidegrees[e2.gid][1])
            if want not in supp:
                assert vec_is_zero(n7.bracket_basis(e1.gid, e2.gid))


def test_bidegrees_count_the_letters_of_the_words(corpus):
    # bidegrees() walks the parents; the spelled-out words check it
    # independently.  The corpus's N77 is a deflate output
    for name, (L, _, _) in corpus.items():
        assert L.bidegrees() == [(w.count("x"), w.count("y"))
                                 for w in words(L)], name


def test_structure_json(n7):
    doc = n7.to_structure_json()
    assert doc["schema"] == "thinlie.structure.v1"
    assert doc["p"] == P and doc["q"] == Q and doc["N"] == 60
    assert len(doc["components"]) == 60
    assert doc["components"][0] == {"degree": 1, "dims": 2,
                                    "basis_words": ["x", "y"],
                                    "bidegrees": [[1, 0], [0, 1]]}
    assert len(doc["ad_x"]) == 59
    assert all(len(b["coeffs"]) >= 1 for b in doc["brackets"])


def test_operator_family_algebra(n7):
    adx = ad_operator(n7, (1, 0))
    ady = ad_operator(n7, (0, 1))
    u = n7.as_element(n7.gid(3, 0))
    assert adx.then(ady).apply(u) == n7.apply_word(u, "xy")
    comm = adx.op_bracket(ady)
    fill(comm, 3, n7.brackets_with(3, 2))
    # [u, [x, y]] = (ad_y ad_x - ad_x ad_y)(u) under the right-action rule
    got = comm.apply(u)
    want = n7.bracket(u, n7.bracket(n7.as_element(n7.gid(1, 0)),
                                    n7.as_element(n7.gid(1, 1))))
    assert got == want


def _finish_under_optimize(body):
    """Run body, which builds an algebra with AlgebraBuilder b over F_7,
    under python -O (which strips asserts); the ValueError message of
    b.finish, or "" if it raises none."""
    code = f"""
import sys
from thinlie.engine import AlgebraBuilder
if not sys.flags.optimize:
    sys.exit("not optimized")
b = AlgebraBuilder(7)
b.add_degree([(None, "x"), (None, "y")])
{body}
try:
    b.finish(N=2)
except ValueError as e:
    print(e)
"""
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    out = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    return out.stdout.strip()


def test_malformed_algebra_raises_under_optimize():
    assert _finish_under_optimize("""
b.add_degree([(0, "y"), (1, "x"), (0, "x")])
b.set_ad(1, [(1, 0, 0), (0, 0, 1)], [(0, 1, 0), (0, 0, 0)])
""") == "component 2 has dim 3"


@pytest.mark.parametrize("entry", [-1, 13])
def test_unreduced_ad_entry_raises_under_optimize(entry):
    # bracket_basis returns ad rows as bracket values, so an entry outside
    # range(p) must be refused, not leak into results; [y, x] = 6 [x, y]
    # mod 7 is well formed
    body = """
b.add_degree([(0, "y")])
b.set_ad(1, [(0,), (ENTRY,)], [(1,), (0,)])
"""
    assert _finish_under_optimize(body.replace("ENTRY", "6")) == ""
    assert _finish_under_optimize(body.replace("ENTRY", str(entry))) == \
        "ad x on degree 1 has an entry outside 0..6"


def test_elements_must_be_the_bases_in_degree_order(n7):
    extra = BasisElement(len(n7.elements), 1, 0, None, "x")
    with pytest.raises(ValueError, match="degree by degree"):
        GradedAlgebra(n7.p, n7.elements + (extra,), n7.comp_gids,
                      n7.ad["x"], n7.ad["y"], N=n7.N, q=n7.q)


def _elements(words):
    """Basis elements for words listed degree by degree, with parents
    found by prefix."""
    out, gid_of = [], {}
    for w in words:
        k = len(w)
        index = sum(1 for e in out if e.degree == k)
        out.append(BasisElement(len(out), k, index, gid_of.get(w[:-1]),
                                w[-1]))
        gid_of[w] = out[-1].gid
    return out


@pytest.mark.parametrize("words,comp_gids,message", [
    (["x"], [(), (0,)], "degree 1 must have basis x, y"),
    (["x", "y"], [(), (0, 1), ()], "component 2 has dim 0"),
    (["x", "y", "xy", "yx", "xx"], [(), (0, 1), (2, 3, 4)],
     "component 2 has dim 3"),
])
def test_constructor_refuses_what_dimensions_would_report(words, comp_gids,
                                                          message):
    # the dimensions check restates this invariant, so it passes on every
    # GradedAlgebra that exists
    N = len(comp_gids) - 1
    ad = [None] * len(comp_gids)
    with pytest.raises(ValueError, match=message):
        GradedAlgebra(P, _elements(words), comp_gids, ad, ad,
                      N=N, q=Q)


@pytest.mark.parametrize("degrees,message", [
    ([[(None, "x"), (None, "y")], [(1, "z")]],
     "basis element 2 has letter 'z', not x or y"),
    ([[(None, "y"), (None, "x")], [(1, "x")]], "degree 1 must have basis x, y"),
    ([[(None, "x"), (0, "y")], [(1, "x")]], "degree 1 must have basis x, y"),
    ([[(None, "x"), (None, "y")], [(None, "x")]],
     "basis element 2 has no parent in degree 1"),
    ([[(None, "x"), (None, "y")], [(1, "x")], [(1, "x")]],
     "basis element 3 has no parent in degree 2"),
])
def test_constructor_refuses_bad_parents_and_letters(degrees, message):
    # (parent_gid, letter) is all an element records, so the constructor
    # refuses any that the bracket cannot read: a letter other than x or y
    # has no ad matrix, and a parent must sit one degree down
    b = AlgebraBuilder(P)
    for entries in degrees:
        b.add_degree(entries)
    for k in range(1, len(degrees)):
        rows = [(0,) * len(degrees[k])] * len(degrees[k - 1])
        b.set_ad(k, rows, rows)
    with pytest.raises(ValueError, match=message):
        b.finish(N=len(degrees))


def test_an_algebra_holds_its_bases_compactly():
    # an element is five slots, its bidegree not among them (bidegrees()
    # derives it on read); the builder stores each distinct ad matrix once
    # and lists the elements' own gid ints as the bases.  On family a at
    # n = 20 000 the algebra holds about 209 bytes per element; a stored
    # bidegree held 317, and a __dict__ per element, a matrix per degree
    # and a copy of every gid about 492
    assert not hasattr(BasisElement(0, 1, 0, None, "x"), "__dict__")
    assert BasisElement.__slots__ == ("gid", "degree", "index", "parent_gid",
                                      "letter")
    pat = family_pattern("a", 7, 49, 20100)
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        L, _ = compile_pattern(pat, 20000, run_validation=False)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    matrices = [m for t in "xy" for m in L.ad[t][1:L.N_built]]
    assert len({id(m) for m in matrices}) == len(set(matrices)) < 10
    assert all(g is L.elements[g].gid for gids in L.comp_gids for g in gids)
    assert held / len(L.elements) <= 260, held / len(L.elements)
