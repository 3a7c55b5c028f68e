import gc
import hashlib
import json
import pathlib
import tracemalloc
from collections import Counter

import pytest

from helpers import (P, Q, ad_operator, ambient_bracket, backbone_sequence,
                     divided_power_product, eager_commutator,
                     extract_centralizer_sequence, inner_operator,
                     lucas_binom, metabelian_sequence, tensor_ambient, words)
from thinlie.constructions import (DEFLATE_GUARD, ConstructionError,
                                   _generators, _on_generators, _power,
                                   deflate, nottingham_Nqr,
                                   nqr_source_degree, tensor_construct)
from thinlie.derivations import fill
from thinlie.engine import GradedAlgebra, validate
from thinlie.gf import vec_add, vec_scale
from thinlie.maxclass import build_maxclass
from thinlie.patterns import (classify_regularity, compile_pattern, detect,
                              family_pattern, uniqueness_sequence)

GOLDEN = pathlib.Path(__file__).parent / "golden"


def test_divided_power_examples():
    assert divided_power_product(1, 1, 7, 7) == (2, 2)
    for j in range(7):
        assert divided_power_product(0, j, 7, 7) == (1, j)
    # C(8,3) = 56 = 0 mod 7 and the index 8 exceeds q-1: zero either way
    assert 56 % 7 == 0
    assert divided_power_product(3, 5, 7, 7) is None
    with pytest.raises(ValueError):
        divided_power_product(7, 0, 7, 7)


def _dp_times(c: int, i: int, j: int, q: int) -> dict:
    """c eps^(i) * eps^(j) in coordinates {index: coeff}."""
    prod = divided_power_product(i, j, q, 7)
    if prod is None or c * prod[0] % 7 == 0:
        return {}
    return {prod[1]: c * prod[0] % 7}


@pytest.mark.parametrize("q", [7, 49])
def test_divided_power_algebra_axioms(q):
    # commutativity and associativity, exhaustively
    for i in range(q):
        for j in range(q):
            assert divided_power_product(i, j, q, 7) == \
                divided_power_product(j, i, q, 7)
    for i in range(0, q, max(1, q // 12)):
        for j in range(q):
            for k in range(q):
                lhs = {}
                for m, c in _dp_times(1, i, j, q).items():
                    lhs = _dp_times(c, m, k, q)
                rhs = {}
                for m, c in _dp_times(1, j, k, q).items():
                    rhs = _dp_times(c, i, m, q)
                assert lhs == rhs, (i, j, k)


def test_truncation_consistency():
    # C(i+j, i) = 0 mod p whenever q <= i+j <= 2q-2, so killing high terms
    # is compatible with the multiplication rule
    for q in (7, 49):
        for i in range(q):
            for j in range(q):
                if q <= i + j <= 2 * q - 2:
                    assert lucas_binom(i + j, i, 7) == 0


@pytest.mark.parametrize("q", [7, 49])
def test_derivation_leibniz(q):
    # the standard derivation d: eps^(i) -> eps^(i-1), eps^(0) -> 0 satisfies
    # d(e_i e_j) = d(e_i) e_j + e_i d(e_j) on all basis pairs
    def derive(v):
        return {m - 1: c for m, c in v.items() if m > 0}

    for i in range(q):
        for j in range(q):
            lhs = derive(_dp_times(1, i, j, q))
            rhs = {}
            for a, b in ((i, j), (j, i)):
                for m, c in derive({a: 1}).items():
                    for n, c2 in _dp_times(c, m, b, q).items():
                        rhs[n] = (rhs.get(n, 0) + c2) % 7
            assert lhs == {k: v for k, v in rhs.items() if v}, (i, j)


@pytest.fixture(scope="module")
def t72_metabelian():
    """(algebra, ambient vectors from the divided-power oracle,
    maximal-class input) of the tensor construction over the metabelian
    algebra."""
    Ma = build_maxclass(metabelian_sequence(P, 40), 30)
    L = tensor_construct(Ma, Q, 100)
    return L, tensor_ambient(L, Ma, Q), Ma


def test_tensor_v1_ambient(t72_metabelian):
    L, ambient, Ma = t72_metabelian
    gid_v1 = L.gid(Q - 1, 0)
    assert words(L)[gid_v1] == "y" + "x" * (Q - 2)
    assert ambient[gid_v1] == {("e", Ma.gid(1, 0), 0): 1,
                               ("e", Ma.gid(1, 1), 1): 1}


def test_tensor_v1y_coefficient(t72_metabelian):
    L, ambient, Ma = t72_metabelian
    (leg,) = [g for g in L.comp_gids[Q]
              if L.elements[g].letter == "y"]
    assert ambient[leg] == {("e", Ma.gid(2, 0), Q - 1): (-2) % P}


def test_tensor_detects_as_all_infinite(t72_metabelian):
    L, _, _ = t72_metabelian
    assert validate(L).ok
    pat, rep = detect(L)
    assert rep.ok
    want = family_pattern("e", P, Q, 100)
    assert pat.entries == want.truncate(100).entries
    assert classify_regularity(L).regular


def test_tensor_matches_sequence_pattern():
    seq = backbone_sequence(30)
    M = build_maxclass(seq, 26)
    L = tensor_construct(M, Q, 140)
    assert validate(L).ok
    pat, _ = detect(L)
    want = family_pattern("tq2", P, Q, 140,
                          sequence=extract_centralizer_sequence(M))
    assert pat.entries == want.truncate(140).entries
    assert [d for d, t in pat.entries if not t.genuine] == [85, 128]
    assert not classify_regularity(L).regular


def test_tensor_bidegrees_match_ambient():
    # ambient bidegrees (X at (q-2,1), Y at (q-1,1), eps^(1) at (-1,0), the
    # derivation generator at (1,0)) agree with the engine word bidegrees
    Ma = build_maxclass(metabelian_sequence(P, 30), 25)
    L = tensor_construct(Ma, Q, 60)
    ma_bidegrees = Ma.bidegrees()   # counts of X and Y letters
    for g, (amb, bidegree) in enumerate(zip(tensor_ambient(L, Ma, Q),
                                            L.bidegrees())):
        bids = set()
        for key in amb:
            if key == ("d",):
                bids.add((1, 0))
                continue
            _, h, j = key
            a, b = ma_bidegrees[h]
            bids.add((a * (Q - 2) + b * (Q - 1) - j, a + b))
        assert bids == {bidegree}, g


def test_tensor_equals_compiled_structure():
    # two independent routes to the same algebra: ambient divided-power
    # arithmetic vs the local diamond relation rules; the structure
    # constants must agree entry for entry
    M = build_maxclass(metabelian_sequence(P, 40), 30)
    A = tensor_construct(M, Q, 100)
    B, _ = compile_pattern(family_pattern("e", P, Q, 140), 100,
                           run_validation=False)
    assert words(A) == words(B)
    for k in range(1, 101):
        assert A.ad["x"][k] == B.ad["x"][k], k
        assert A.ad["y"][k] == B.ad["y"][k], k


def test_tensor_backbone_equals_compiled_structure():
    M = build_maxclass(uniqueness_sequence(P, 1, 40), 32)
    A = tensor_construct(M, Q, 150)
    B, _ = compile_pattern(family_pattern("uniqueness", P, Q, 200, s=1), 150,
                           run_validation=False)
    assert words(A) == words(B)
    for k in range(1, 151):
        assert A.ad["x"][k] == B.ad["x"][k], k
        assert A.ad["y"][k] == B.ad["y"][k], k


@pytest.mark.parametrize("p,q", [(7, 7), (5, 25), (7, 49), (11, 11)])
@pytest.mark.parametrize("kind", ["metabelian", "uniqueness"])
def test_tensor_ad_rows_match_divided_power_oracle(p, q, kind):
    # the closed-form generator brackets against the general product: with
    # each basis element's ambient vector grown through it (tensor_ambient),
    # for every b and t in {x, y} the image [b, t] is the combination of
    # ambient vectors that the ad t row of b gives
    m = 3 * p + 2      # past the first 'X' of the s = 1 sequence, at 2p
    seq = (metabelian_sequence(p, m + 2) if kind == "metabelian"
           else uniqueness_sequence(p, 1, m + 2))
    Ma = build_maxclass(seq, m)
    L = tensor_construct(Ma, q, (m - 3) * (q - 1) - 2)
    ambient = tensor_ambient(L, Ma, q)
    gens = [ambient[g] for g in L.comp_gids[1]]
    for e in L.elements:
        if e.degree == L.N_built:
            break
        for t, gen in zip("xy", gens):
            want = Counter()
            for s, c in enumerate(L.ad[t][e.degree][e.index]):
                for key, a in ambient[L.gid(e.degree + 1, s)].items():
                    want[key] += c * a
            assert ambient_bracket(Ma, q, ambient[e.gid], gen) == \
                {k: c % p for k, c in want.items() if c % p}, (e.gid, t)


def test_tensor_needs_enough_maxclass_degrees():
    M = build_maxclass(metabelian_sequence(P, 12), 8)
    with pytest.raises(ConstructionError):
        tensor_construct(M, Q, 100)


def test_deflate_fixed_point():
    pat = family_pattern("a", P, Q, 300)
    L, _ = compile_pattern(pat, 240, run_validation=False)
    D = deflate(L, 30)
    assert validate(D).ok
    dpat, _ = detect(D)
    assert dpat.entries == pat.truncate(30).entries


def test_deflate_requires_budget():
    pat = family_pattern("a", P, Q, 100)
    L, _ = compile_pattern(pat, 60, run_validation=False)
    with pytest.raises(ConstructionError):
        deflate(L, 30)


def test_deflate_at_minimum_budget():
    # built to exactly p (N_out + guard) + p, with the second diamond at
    # N_out + guard: its relations lie past the range and fix nothing, so
    # the result equals the one from a source built one degree further
    pat = family_pattern("a", P, Q, 100)
    docs = []
    for n in (54, 55):
        L, _ = compile_pattern(pat, n, run_validation=False)
        D = deflate(L, 5)
        assert validate(D).ok and D.q == Q
        docs.append(D.to_structure_json())
    assert L.N_built == 57 and docs[0] == docs[1]


# (p, q r of the family-a source, N_out, q of the result, digest of its
# structure) at N_out 3..6, or 5..6 where a smaller source cannot be
# compiled: the second diamond lies past the top built degree
# N_out + DEFLATE_GUARD (q None), at it, or up to three degrees below;
# recorded while deflation still picked its generators in Der(L)
TOP_DEGREE_DIGESTS = [
    (7, 49, 5, 7, "194c85397d9ba845"),
    (7, 49, 6, 7, "9053b15c037e5b06"),
    (7, 7, 3, None, "f036df6db776acf3"),
    (7, 7, 4, None, "ca62ac202030fe18"),
    (7, 7, 5, 7, "194c85397d9ba845"),
    (7, 7, 6, 7, "9053b15c037e5b06"),
    (5, 25, 3, 5, "6c6ce90338c627ab"),
    (5, 25, 4, 5, "1cce88f39971dddf"),
    (5, 25, 5, 5, "c0ea63e7e8270d51"),
    (5, 25, 6, 5, "7a989d861bf8b25a"),
]


@pytest.mark.parametrize("p,qr,n_out,q,digest", TOP_DEGREE_DIGESTS)
def test_deflate_second_diamond_at_the_top_degree(p, qr, n_out, q, digest):
    # where the result is not built to q + 1, the second diamond's
    # relations fix nothing and the first x whose chain survives is taken;
    # a source built p + 3 degrees past the minimum, where Der(L) could
    # read those relations, gives the same bytes
    need = p * (n_out + DEFLATE_GUARD) + p
    pat = family_pattern("a", p, qr, need + p + 3 + qr + 5)
    for extra in (0, p + 3):
        L, _ = compile_pattern(pat, need + extra - 2, run_validation=False)
        D = deflate(L, n_out)
        assert L.N_built == need + extra
        assert (D.q, _structure_sha256(D)[:16]) == (q, digest), extra


@pytest.fixture(scope="module")
def n77():
    return nottingham_Nqr(Q, Q, 100)


def test_n77_pattern(n77):
    L, pat = n77
    assert validate(L).ok
    by = dict(pat.entries)
    from thinlie.patterns import DiamondType
    genuine = [d for d, t in pat.entries if t.genuine]
    assert genuine == [d for d in range(1, 101) if d % 48 == 7]
    assert all(by[d] == DiamondType.finite(-1, P) for d in genuine)
    assert by[13] == DiamondType.fake1()
    assert not classify_regularity(L).regular


def test_n77_golden(n77):
    _, pat = n77
    golden = json.loads((GOLDEN / "n77_pattern.json").read_text())
    assert pat.to_json() == golden


def test_n77_structure_sha256():
    # the exported N(7, 7) structure to degree 60, byte for byte as the CLI
    # writes it, so a change inside deflation cannot alter it unseen
    L, _ = nottingham_Nqr(Q, Q, 60)
    text = json.dumps(L.to_structure_json(), sort_keys=True, indent=2) + "\n"
    assert hashlib.sha256(text.encode()).hexdigest() == \
        "c1bc1ff63df16e1329372b8e84ed382b4b6ed60c942ff9883c2a17e9aa49f499"


def _structure_sha256(L):
    text = json.dumps(L.to_structure_json(), sort_keys=True, indent=2) + "\n"
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("p,q,r,N", [
    (7, 7, 7, 200), (7, 7, 49, 100), (7, 7, 343, 40),
    (5, 25, 5, 100), (5, 25, 25, 100), (5, 25, 125, 60),
    (11, 11, 11, 100), (13, 13, 13, 100), (7, 49, 7, 100)])
def test_nqr_closed_form_matches_deflation(p, q, r, N):
    # the CLI compiles family nqr from its closed-form pattern; deflation,
    # the independent construction, must build the same algebra: by the
    # uniqueness theorem, at this finite degree
    D, dpat = nottingham_Nqr(q, r, N, p=p)
    C, _ = compile_pattern(family_pattern("nqr", p, q, N + q + 4, r=r), N,
                           run_validation=False)
    assert _structure_sha256(C) == _structure_sha256(D)
    cpat, _ = detect(C)
    assert cpat.entries == dpat.entries and cpat.q == dpat.q == q


def test_deflation_cycle():
    # deflating the once-deflated parameter-(7,7) algebra climbs back up to
    # the q = 49 type-(-1) family: repeated deflation cycles
    pat49 = family_pattern("a", P, 49, 2760)
    src = compile_pattern(pat49, 2667, run_validation=False)[0]
    L77 = deflate(src, 378)
    back = deflate(L77, 51)
    assert validate(back).ok
    bpat, _ = detect(back)
    assert bpat.entries == pat49.truncate(51).entries


def test_double_deflation():
    # r = p^2: two deflation steps; the type-1 fake still lands at 2q-1
    L, pat = nottingham_Nqr(7, 49, 14)
    assert validate(L).ok
    assert [(d, t.to_json()) for d, t in pat.entries] == \
        [(7, "finite:6"), (13, "fake1")]


def test_double_deflation_N200():
    # r = p^2 at a real N: it validates, agrees with test_double_deflation
    # up to degree 14, and then only fakes of type 1 follow, every q degrees
    # (28 entries; the next genuine diamond lies past q r)
    L, pat = nottingham_Nqr(7, 49, 200)
    assert validate(L).ok
    assert [(d, t.to_json()) for d, t in pat.truncate(14).entries] == \
        [(7, "finite:6"), (13, "fake1")]
    assert [(d, t.to_json()) for d, t in pat.entries] == \
        [(7, "finite:6")] + [(d, "fake1") for d in range(13, 200, 7)]


def _eager_power(L, z, p):
    """(ad z)^p as the p-fold composition of ad z, filled on every degree."""
    adz = ad_operator(L, z)
    out = adz
    for _ in range(p - 1):
        out = out.then(adz)
    return out


@pytest.mark.parametrize("p,q,n", [(7, 7, 60), (5, 25, 80)])
def test_lazy_derivations_match_eager_maps(p, q, n):
    # oracles for the arithmetic of deflation: ad z filled by the word
    # recursion equals the presentation's ad rows, (ad z)^p as p steps of
    # two ad rows equals the p-fold composition, and op_bracket, given on
    # x and y and filled by the word recursion, equals B o A - A o B
    L, _ = compile_pattern(family_pattern("a", p, q, n + q + 5), n,
                           run_validation=False)
    lines = [(1, t) for t in range(p)] + [(0, 1)]
    top = L.N_built - p

    def basis_upto(k):
        return [L.as_element(g) for d in range(1, k + 1) for g in L.comp_gids[d]]

    # ad z on every degree, against the presentation's ad x and ad y rows
    for z in lines:
        adz = ad_operator(L, z)
        for e in basis_upto(L.N_built - 1):
            want = vec_add(vec_scale(z[0], L.apply_letter(e, "x")[1], p),
                           vec_scale(z[1], L.apply_letter(e, "y")[1], p), p)
            assert adz.apply(e)[1] == want, (z, e)
    # (ad z)^p against the p-fold composition
    for z in lines:
        eager = _eager_power(L, z, p)
        for e in basis_upto(top):
            assert _power(L, e, z) == eager.apply(e), (z, e)
    # the bracket of (ad x)^p and ad u against B o A - A o B
    a = _eager_power(L, lines[0], p)
    b = inner_operator(L, L.as_element(L.comp_gids[p][-1]))
    comm = a.op_bracket(b)
    fill(comm, L.N_built - 2 * p,
         L.brackets_with(1 + 2 * p, L.N_built - 2 * p - 1))
    eager = eager_commutator(a, b)
    for e in basis_upto(L.N_built - 2 * p):
        assert comm.apply(e) == eager.apply(e), e


def _values(op):
    """op's values on x and y as {(i, j): coefficient}, the form
    constructions._on_generators gives."""
    return {(i, j): c for i, row in enumerate(op.maps[1])
            for j, c in enumerate(row) if c}


@pytest.mark.parametrize("p,q,n,lines", [
    (7, 49, 70, [(1, 0), (1, 1)]), (5, 25, 60, [(1, 0), (1, 1)]),
    (7, 7, 60, [(1, 1), (1, 2)])])
def test_deflation_grows_inner_derivations(p, q, n, lines):
    # the lemma deflate rests on, against eager matrices: for w in L_kp and
    # D = (ad z)^p, [ad w, D] = ad D(w) on every degree where both are
    # defined, and its values on x and y are what the growth reads; in
    # degree 1, with ad u = a D_1 + b D_2, a [D_1, D_2] = ad D_2(u),
    # b [D_2, D_1] = ad D_1(u), and [D_1, D_2] = ad w2.  With the second
    # diamond at q = p, D_1(u) != D_2(u), so w2 tells D_1 from D_2
    L, _ = compile_pattern(family_pattern("a", p, q, n + q + 5), n,
                           run_validation=False)
    zs, w2 = _generators(L)
    assert zs == lines
    powers = {z: _eager_power(L, z, p) for z in zs}
    for k in range(1, (L.N_built - 1) // p):
        for g in L.comp_gids[k * p]:
            adw = inner_operator(L, L.as_element(g))
            for z, D in powers.items():
                dw = _power(L, L.as_element(g), z)
                comm = eager_commutator(adw, D)
                assert comm.maps == inner_operator(L, dw).maps, (k, g, z)
                assert _values(comm) == _on_generators(L, dw), (k, g, z)
    D1, D2 = (powers[z] for z in zs)
    u = L.as_element(L.comp_gids[p][0])

    def flat(op):
        return op.maps[1][0] + op.maps[1][1]

    def times(c, op):
        return {k: tuple(vec_scale(c, r, p) for r in rows)
                for k, rows in op.maps.items()}

    adu = flat(inner_operator(L, u))
    ((a, b),) = [(a, b) for a in range(p) for b in range(p)
                 if vec_add(vec_scale(a, flat(D1), p),
                            vec_scale(b, flat(D2), p), p) == adu]
    assert (a, b) != (0, 0)
    assert times(a, eager_commutator(D1, D2)) == \
        inner_operator(L, _power(L, u, zs[1])).maps
    assert times(b, eager_commutator(D2, D1)) == \
        inner_operator(L, _power(L, u, zs[0])).maps
    assert eager_commutator(D1, D2).maps == \
        inner_operator(L, (2 * p, w2)).maps


def _source(q, r, n_out):
    """The parameter-(q r) algebra of family a that N(q, r) to degree n_out
    deflates from, compiled to the degree nottingham_Nqr compiles it to."""
    p, _, n_src = nqr_source_degree(q, r, n_out)
    L, _ = compile_pattern(family_pattern("a", p, q * r, n_src + q * r + 5),
                           n_src, run_validation=False)
    return L


def _peak_above_source(L, n_out):
    """The tracemalloc peak of deflate(L, n_out) above what L holds.
    Garbage that earlier work left is collected first: a collection that
    falls inside deflate would move the peak by up to ~0.1 MB, as much as
    deflate itself holds at n_out = 60."""
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        deflate(L, n_out)
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("q,r,n", [(7, 7, 60), (7, 7, 150), (5, 5, 60)])
def test_deflation_memory_is_linear_in_the_degree(q, r, n):
    # deflation keeps O(1) values per degree of its output (ad rows, no
    # memo), so deflating to 2n peaks at most 2.5 times as far
    # above its source as deflating to n; quadratic growth would give 4
    small, large = (_peak_above_source(_source(q, r, m), m)
                    for m in (n, 2 * n))
    assert large <= 2.5 * small, (small, large)


def test_deflation_memo_does_not_grow_with_N():
    # deflation reads ad rows only: the source's bracket_basis memo stays
    # empty
    sizes = []
    for n_out in (50, 100):
        L = _source(Q, Q, n_out)
        deflate(L, n_out)
        sizes.append(len(L._memo))
    assert sizes == [0, 0], sizes


def test_first_deflation_step_peaks_under_a_megabyte():
    # the first of the two steps of N(7, 49) to degree 60 deflates a
    # source built to degree 3 110 down to 441; it grows elements of the
    # source, two ad rows per step, and keeps no row of a generator, so it
    # holds little beyond the two engine algebras it builds (0.73 MB)
    L = _source(7, 49, 60)
    n_out = (L.N_built - L.p) // L.p - DEFLATE_GUARD
    assert _peak_above_source(L, n_out) <= 1 << 20


def test_deflation_opens_no_bracket_window(monkeypatch):
    # past degree 1 every deflated element is ad w for w in the source,
    # bracketed with a generator off two ad rows per step: deflate runs no
    # bracket_columns sweep and computes no bracket column, at any size
    calls = Counter()
    for name in ("bracket_columns", "column"):
        orig = getattr(GradedAlgebra, name)
        monkeypatch.setattr(GradedAlgebra, name,
                            lambda *a, orig=orig, name=name: (
                                calls.update([name]) or orig(*a)))
    for n in (50, 100):
        L = _source(Q, Q, n)
        calls.clear()
        D = deflate(L, n)
        assert D.N == n and not calls, (n, calls)


def test_tensor_construct_leaves_the_memo_empty():
    # the construction brackets only with the generators X and Y of its
    # input, and reads those brackets off the input's ad rows
    M = build_maxclass(metabelian_sequence(P, 40), 36)
    L = tensor_construct(M, Q, 200)
    assert L.N == 200 and len(M._memo) == 0


def test_tensor_q49():
    M = build_maxclass(metabelian_sequence(P, 12), 8)
    L = tensor_construct(M, 49, 150)
    assert validate(L).ok
    pat, _ = detect(L)
    want = family_pattern("e", P, 49, 150)
    assert pat.entries == want.truncate(150).entries


def test_deflated_second_diamond_relation(n77):
    L, _ = n77
    v1 = L.eval_word("y" + "x" * (Q - 2))
    assert L.apply_word(v1, "yx")[1] == \
        vec_scale(-2, L.apply_word(v1, "xy")[1], P)
