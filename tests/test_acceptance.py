"""Acceptance suite.

Every criterion is exercised at its stated size and tolerance (exact
arithmetic everywhere: all comparisons are equalities over F_p).  Each test
prints one PASS/FAIL line; run with `pytest -s tests/test_acceptance.py -v`
to see them.
"""

import random

from helpers import (P, Q, coclass_excess, failure_degrees, failures,
                     lemma_count, lucas_binom, metabelian_sequence,
                     q_brackets, random_tq2_pattern, tensor_ambient)
from thinlie.constructions import deflate, tensor_construct
from thinlie.derivations import build_D, roundtrip_check, verify_leibniz
from thinlie.engine import validate
from thinlie.gf import vec_is_zero, vec_scale
from thinlie.maxclass import build_maxclass
from thinlie.patterns import (DiamondType, classify_regularity,
                              compile_pattern, detect, family_pattern,
                              normalize, verify_distance,
                              verify_lemma_suite)

CORPUS_ORDER = ["a", "b", "c", "d", "e", "L1q", "L0q", "uniqueness",
                "T72_metabelian", "N77"]


def _report(num, ok, desc):
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {desc}")
    assert ok, desc


def test_criterion_1_axiom_suite(corpus):
    bad = []
    for name in CORPUS_ORDER:
        L, rep, _ = corpus[name]
        assert L.N >= (200 if name == "uniqueness" else 100)
        if not rep.ok:
            bad.append((name, [c.name for c in failures(rep)]))
    _report(1, not bad,
            "axiom suite (thinness, covering, antisymmetry, Jacobi, "
            f"(ad y)^2, (ad x)^q) on {len(CORPUS_ORDER)} corpus algebras"
            + (f"; failures: {bad}" if bad else ""))


def test_criterion_2_second_diamond(corpus):
    ok = True
    half = (Q - 1) // 2
    for name in CORPUS_ORDER:
        L, _, _ = corpus[name]
        pat, _ = detect(L)
        ok &= pat.entries[0] == (Q, DiamondType.finite(-1, P))
        v1 = L.eval_word("y" + "x" * (Q - 2))
        ok &= L.apply_word(v1, "yx")[1] == \
            vec_scale(-2, L.apply_word(v1, "xy")[1], P)
        # support-argument expansion of [u, [u]] for u = [y x^{(q-1)/2}]
        total = L.zero(Q + 1)
        for i in range(half + 1):
            prefix = "y" + "x" * (half + i) + "y"
            term = L.eval_word(prefix + "x" * (half - i))
            if i < half - 1:
                ok &= vec_is_zero(L.eval_word(prefix)[1])   # dies at the y
                ok &= vec_is_zero(term[1])
            c = lucas_binom(half, i, P)
            if i % 2:
                c = P - c
            total = (total[0], tuple((a + c * b) % P for a, b in
                                     zip(total[1], term[1])))
        ok &= vec_is_zero(total[1])
    _report(2, ok, "second diamond: type -1 detected, [v1yx] = -2[v1xy], "
                   "support-argument expansion vanishes term-by-term")


def test_criterion_3_distances(corpus):
    ok = True
    detail = []
    for name in CORPUS_ORDER:
        L, _, _ = corpus[name]
        pat, _ = detect(L)
        prev_deg, prev_t = 1, None
        for deg, t in pat.entries:
            gap = deg - prev_deg
            want = {Q - 1, Q} if (prev_t and prev_t.kind == "fake1") \
                else {Q - 1}
            if gap not in want:
                ok = False
                detail.append((name, deg, gap))
            prev_deg, prev_t = deg, t
        dist = verify_distance(L, pat)
        if not dist or any(i.status == "fail" for i in dist):
            ok = False
            detail.append((name, "ad_y window"))
    _report(3, ok, "diamond gaps are q-1 (q only after a type-1 fake) and "
                   "ad_y vanishes on the post-diamond windows"
                   + (f"; {detail}" if detail else ""))


def test_criterion_4_detect_compile_roundtrip(corpus):
    ok = True
    for name in CORPUS_ORDER:
        L, _, pat = corpus[name]
        n_c = min(L.N, pat.max_degree() - Q - 2)
        L2, _ = compile_pattern(pat, n_c, run_validation=False)
        det, drep = detect(L2)
        ok &= drep.ok and det.entries == pat.truncate(n_c).entries
    rng = random.Random(0x7712)
    for _ in range(50):
        pat, n = random_tq2_pattern(rng)
        L2, _ = compile_pattern(pat, n, run_validation=False)
        det, drep = detect(L2)
        ok &= drep.ok and det.entries == pat.truncate(n).entries
    _report(4, ok, "detect(compile(P)) = P on the 10 corpus patterns and 50 "
                   "random admissible patterns of the infinite-or-fake class")


def test_criterion_5_tensor_construction(corpus):
    Ma = build_maxclass(metabelian_sequence(P, 40), 30)
    L = tensor_construct(Ma, Q, 100)
    ambient = tensor_ambient(L, Ma, Q)
    pat, _ = detect(L)
    want = family_pattern("e", P, Q, 100)
    ok = validate(L).ok and pat.entries == want.truncate(100).entries
    (leg,) = [g for g in L.comp_gids[Q] if L.elements[g].letter == "y"]
    ok &= ambient[leg] == {("e", Ma.gid(2, 0), Q - 1): (-2) % P}
    _report(5, ok, "tensor construction over the metabelian algebra detects "
                   "as the all-infinite pattern; [v1 y] = -2 U_2 (x) eps^(6)")


def test_criterion_6_derivation(corpus):
    L, _, _ = corpus["uniqueness"]
    D = build_D(L)
    rep = verify_leibniz(L, D, q_brackets(L), detect(L)[0])
    ok = rep.ok and not rep.failures
    v1 = L.eval_word("y" + "x" * (Q - 2))
    v2 = L.eval_word("y" + "x" * (Q - 2) + "xy" + "x" * (Q - 3))
    ok &= D.apply(v1)[1] == vec_scale(-2, v2[1], P)
    labels = [c for c in rep.instance_checks]
    inf_checks = [c for c in labels if c[0].startswith("D[vx] = -2")]
    fake_checks = [c for c in labels if c[0].startswith("D[vx] = 0")]
    ok &= inf_checks and all(c[2] for c in inf_checks)
    ok &= fake_checks and all(c[2] for c in fake_checks)
    ok &= all(c[2] for c in labels if c[0].startswith("bidegree"))
    _report(6, bool(ok),
            f"derivation: Leibniz on {rep.pairs_checked} generator pairs at "
            "N=200, D(v1) = -2 v2, coefficient -2 at infinite diamonds, "
            "zero at fakes, bidegree shift (q-2,1)")


def test_criterion_7_roundtrip(corpus):
    ok = True
    detail = []
    for name in ("uniqueness", "T72_metabelian"):
        L, _, _ = corpus[name]
        rt = roundtrip_check(L, compare_N=min(150, L.N))
        if not rt.passed:
            ok = False
            detail.append(name)
    rng = random.Random(0x7207)
    for i in range(10):
        shape = "e" if rng.random() < 0.4 else "uniqueness"
        kw = {} if shape == "e" else {"s": 1}
        pat = family_pattern(shape, P, Q, 230, **kw)
        L, _ = compile_pattern(pat, 184, guard=Q + 2, run_validation=False)
        rt = roundtrip_check(L, compare_N=150)
        if not (rt.passed and rt.compare_N == 150):
            ok = False
            detail.append((i, shape))
    _report(7, ok, "extract -> rebuild -> identical detected pattern up to "
                   "N=150 on the fake-at-85 algebra, the tensor-constructed "
                   "algebra, and 10 random class members"
                   + (f"; {detail}" if detail else ""))


def test_criterion_8_deflation(corpus):
    L, rep, pat = corpus["N77"]
    by = dict(pat.entries)
    genuine = [d for d, t in pat.entries if t.genuine]
    ok = rep.ok
    ok &= genuine == [d for d in range(1, 101) if d % 48 == 7]
    ok &= all(by[d] == DiamondType.finite(-1, P) for d in genuine)
    ok &= by.get(13) == DiamondType.fake1()
    ok &= not classify_regularity(L).regular
    src = family_pattern("a", P, Q, 300)
    L7, _ = compile_pattern(src, 240, run_validation=False)
    D7 = deflate(L7, 30)
    d_pat, _ = detect(D7)
    ok &= validate(D7).ok and d_pat.entries == src.truncate(30).entries
    _report(8, ok, "deflation: second diamond at 7, genuine -1 diamonds "
                   "exactly at degrees = 7 mod 48, type-1 fake at 13, "
                   "irregular; the q = p algebra re-detects as itself")


def test_criterion_9_lemma_suite(corpus):
    ok = True
    counts = {k: 0 for k in ("lemma_v1", "lemma_v2", "lemma_v2ext",
                             "lemma_type1", "rem_v1_mu0", "rem_v2ext_mu0")}
    fails = []
    for name in CORPUS_ORDER:
        L, _, _ = corpus[name]
        rep = verify_lemma_suite(L)
        for k in counts:
            counts[k] += lemma_count(rep, k)
        if not rep.ok:
            ok = False
            fails.append((name, [vars(i) for i in failures(rep)[:2]]))
    nonvacuous = all(v > 0 for v in counts.values())
    _report(9, ok and nonvacuous,
            f"computed-identity suite exact at every matching context: "
            f"{counts}" + (f"; failures: {fails}" if fails else ""))


def test_criterion_10_uniqueness_reflection(corpus):
    L, _, _ = corpus["uniqueness"]
    u = L.as_element(L.gid(90, 0))
    ok = vec_is_zero(L.apply_letter(u, "y")[1])
    ent = [(7, DiamondType.finite(-1, P))]
    ent += [(d, DiamondType.infinite()) for d in range(13, 80, 6)]
    ent += [(85, DiamondType.fake1()), (92, DiamondType.finite(2, P))]
    ent += [(d, DiamondType.infinite()) for d in range(98, 125, 6)]
    bad_pat = normalize(ent, P, Q)
    Lbad, rep = compile_pattern(bad_pat, 112)
    degs = failure_degrees(rep, Lbad)
    ok &= (not rep.ok) and bool(degs) and degs[0] < 92 + 2 * Q
    L1, _, _ = corpus["L1q"]
    ok &= coclass_excess(L1) == 2
    M = build_maxclass(metabelian_sequence(P, 110), 100)
    ok &= coclass_excess(M) == 1
    _report(10, ok, "ad_y(L_90) = 0 at the fake; a finite-type diamond "
                    "inserted at 92 fails validation before degree 106; "
                    "coclass excess 2 for the coclass-2 algebra and 1 for "
                    "the metabelian one")
