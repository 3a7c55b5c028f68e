import random
import tracemalloc

import pytest

from helpers import (P, Q, failure_degrees, failures, lemma_count,
                     random_tq2_pattern, regularity_bands)
from thinlie.maxclass import CentralizerSequence
from thinlie.patterns import (DiamondPattern, DiamondType, PatternError,
                              classify_regularity, compile_pattern, detect,
                              family_pattern, normalize, verify_lemma_suite)


def fin(mu):
    return DiamondType.finite(mu, P)


def test_finite_type_rejects_degenerate_values():
    with pytest.raises(ValueError):
        DiamondType.finite(0, P)
    with pytest.raises(ValueError):
        DiamondType.finite(1, P)
    with pytest.raises(ValueError):
        DiamondType.finite(8, P)   # 8 = 1 mod 7


def test_normalize_canonical_unchanged():
    pat = normalize([(7, fin(-1)), (13, DiamondType.infinite())], P, Q)
    assert pat.entries == [(7, fin(-1)), (13, DiamondType.infinite())]


def test_normalize_rewrites_fake0():
    pat = normalize([(7, fin(-1)), (14, DiamondType.fake0())], P, Q)
    assert pat.entries == [(7, fin(-1)), (13, DiamondType.fake1())]


def test_normalize_rejects_bad_gap():
    with pytest.raises(PatternError):
        normalize([(7, fin(-1)), (15, DiamondType.infinite())], P, Q)
    # two genuine diamonds at distance q
    with pytest.raises(PatternError):
        normalize([(7, fin(-1)), (14, DiamondType.infinite())], P, Q)


def test_normalize_rejects_duplicate_degrees():
    with pytest.raises(PatternError):
        normalize([(7, fin(-1)), (13, DiamondType.infinite()),
                   (13, DiamondType.fake1())], P, Q)


def test_normalize_requires_second_diamond():
    with pytest.raises(PatternError):
        normalize([(8, fin(-1))], P, Q)
    with pytest.raises(PatternError):
        normalize([(7, DiamondType.infinite())], P, Q)


def test_normalize_forced_fake0_reading():
    # a fake right after a genuine diamond at gap q-1 keeps its type-0 form
    pat = normalize([(7, fin(-1)), (13, DiamondType.fake0()),
                     (19, DiamondType.infinite())], P, Q)
    assert pat.entries[1] == (13, DiamondType.fake0())


def test_normalize_alternate_readings():
    pat = normalize([(7, fin(-1)), (13, DiamondType.fake1()),
                     (20, DiamondType.fake1())], P, Q)
    assert pat.entries[1:] == [(13, DiamondType.fake1()),
                               (20, DiamondType.fake1())]


def test_family_a():
    pat = family_pattern("a", P, Q, 60)
    assert [d for d, _ in pat.entries] == list(range(7, 61, 6))
    assert all(t == fin(-1) for _, t in pat.entries)


def test_family_e():
    pat = family_pattern("e", P, Q, 40)
    assert pat.entries[0] == (7, fin(-1))
    assert all(t == DiamondType.infinite() for _, t in pat.entries[1:])


def test_family_b_progression_with_fakes():
    pat = family_pattern("b", P, Q, 100, start_type=2)
    by = dict(pat.entries)
    assert by[13] == fin(2) and by[19] == fin(5)
    assert by[25] == DiamondType.fake1()
    assert by[31] == fin(4)
    assert by[37] == DiamondType.fake0()   # forced reading after a genuine gap
    assert by[43] == fin(3)


def test_family_c_special_positions():
    pat = family_pattern("c", P, Q, 140, s=1)
    for d, t in pat.entries:
        if (d - Q) % (P * (Q - 1)) == 0:
            assert t == fin(-1), d
        else:
            assert t == DiamondType.infinite(), d
    assert dict(pat.entries)[49] == fin(-1)


def test_family_d_progression():
    pat = family_pattern("d", P, Q, 140, s=1, step=1)
    by = dict(pat.entries)
    assert by[7] == fin(-1)
    assert by[49] == DiamondType.fake0()
    assert by[91] == DiamondType.fake1()
    assert by[133] == fin(2)
    assert by[55] == DiamondType.infinite()


def test_family_L1q_L0q():
    pat1 = family_pattern("L1q", P, Q, 60)
    assert pat1.entries == [(7, fin(-1))] + \
        [(m, DiamondType.fake1()) for m in (13, 20, 27, 34, 41, 48, 55)]
    pat0 = family_pattern("L0q", P, Q, 42)
    assert pat0.entries[:4] == [(7, fin(-1)), (13, DiamondType.fake0()),
                                (19, DiamondType.fake1()),
                                (26, DiamondType.fake1())]


def test_family_tq2_from_sequence():
    seq = CentralizerSequence(P, "Y" * 12 + "X" + "Y" * 30)
    # c_14 = X (isolated), the rest Y
    assert seq.get(14) == "X" and seq.get(13) == "Y"
    pat = family_pattern("tq2", P, Q, 140, sequence=seq)
    by = dict(pat.entries)
    assert by[85] == DiamondType.fake1()
    assert by[79] == DiamondType.infinite()
    assert by[92] == DiamondType.infinite()   # gap q after the fake
    assert (91 not in by) and (86 not in by)


def test_family_uniqueness_fake_positions():
    pat = family_pattern("uniqueness", P, Q, 230, s=1)
    fakes = [d for d, t in pat.entries if not t.genuine]
    assert fakes == [85, 128, 171, 214]
    infs = [d for d, t in pat.entries if t == DiamondType.infinite()]
    assert infs[:3] == [13, 19, 25] and 92 in infs and 135 in infs


@pytest.mark.parametrize("p,q", [(5, 25), (11, 11), (13, 13)])
def test_other_characteristics(p, q):
    pat = family_pattern("a", p, q, 3 * q + 20)
    L, rep = compile_pattern(pat, 2 * q + 10)
    assert rep.ok
    det, _ = detect(L)
    assert det.entries == pat.truncate(2 * q + 10).entries
    lem = verify_lemma_suite(L)
    assert lem.ok and lemma_count(lem, "lemma_v1") > 0


def test_normalize_fuzz():
    # random raw lists either normalize to a gap-consistent canonical form
    # or raise PatternError; nothing else
    import random as _random
    rng = _random.Random(424242)
    kinds = [fin(-1), fin(2), fin(5), DiamondType.infinite(),
             DiamondType.fake1(), DiamondType.fake0()]
    for _ in range(300):
        raw = [(Q, fin(-1))]
        deg = Q
        for _ in range(rng.randint(0, 8)):
            deg += rng.randint(4, 9)
            raw.append((deg, rng.choice(kinds)))
        try:
            pat = normalize(raw, P, Q)
        except PatternError:
            continue
        prev_deg, prev_t = 1, None
        for d, t in pat.entries:
            gap = d - prev_deg
            allowed = {Q - 1, Q} if (prev_t and prev_t.kind == "fake1") \
                else {Q - 1}
            assert gap in allowed
            prev_deg, prev_t = d, t


def test_family_b_fake_start():
    # progression whose third diamond is already fake of type 1; the next
    # genuine diamond then sits at 3q-2
    pat = family_pattern("b", P, Q, 100, start_type=1)
    by = dict(pat.entries)
    assert by[13] == DiamondType.fake1()
    assert by[19] == fin(3)
    L, rep = compile_pattern(pat, 70)
    assert rep.ok
    det, _ = detect(L)
    assert det.entries == pat.truncate(70).entries


def test_normalize_idempotent():
    import random as _random
    from helpers import random_tq2_pattern
    rng = _random.Random(5)
    for _ in range(8):
        pat, n = random_tq2_pattern(rng)
        again = normalize(pat.entries, P, Q)
        assert again.entries == pat.entries


def test_pattern_json_roundtrip():
    pat = family_pattern("uniqueness", P, Q, 150, s=1)
    doc = pat.to_json()
    assert DiamondPattern.from_json(doc).entries == pat.entries


def test_compile_rejects_short_pattern():
    pat = family_pattern("a", P, Q, 30)
    with pytest.raises(PatternError):
        compile_pattern(pat, 60)


def test_detect_compile_roundtrip_families():
    fams = [("a", {}), ("b", {"start_type": 2}), ("c", {"s": 1}),
            ("d", {"s": 1, "step": 1}), ("e", {}), ("L1q", {}), ("L0q", {}),
            ("uniqueness", {"s": 1})]
    for fam, kw in fams:
        pat = family_pattern(fam, P, Q, 140, **kw)
        L, _ = compile_pattern(pat, 100, run_validation=False)
        det, rep = detect(L)
        assert rep.ok, fam
        assert det.entries == pat.truncate(100).entries, fam


def test_detect_compile_roundtrip_random():
    rng = random.Random(20250811)
    for _ in range(12):
        pat, n = random_tq2_pattern(rng, n_lo=20, n_hi=120)
        L, _ = compile_pattern(pat, n, run_validation=False)
        det, rep = detect(L)
        assert rep.ok
        assert det.entries == pat.truncate(n).entries


def test_regularity():
    La, _ = compile_pattern(family_pattern("a", P, Q, 100), 60,
                            run_validation=False)
    ra = classify_regularity(La)
    wide, strict = regularity_bands(Q, La.N)
    assert ra.regular and not ra.violations
    assert La.support() == wide and strict <= La.support()
    L1, _ = compile_pattern(family_pattern("L1q", P, Q, 100), 60,
                            run_validation=False)
    r1 = classify_regularity(L1)
    assert not r1.regular and r1.violations
    Lu, _ = compile_pattern(family_pattern("uniqueness", P, Q, 140, s=1), 100,
                            run_validation=False)
    assert not classify_regularity(Lu).regular


def test_compile_fails_on_forbidden_continuation():
    # a finite-type diamond right after the fake at 85: dies within 2q degrees
    ent = [(7, fin(-1))] + [(d, DiamondType.infinite())
                            for d in range(13, 80, 6)]
    ent += [(85, DiamondType.fake1()), (92, fin(2))]
    ent += [(d, DiamondType.infinite()) for d in range(98, 125, 6)]
    pat = normalize(ent, P, Q)
    L, rep = compile_pattern(pat, 112)
    assert not rep.ok
    degs = failure_degrees(rep, L)
    assert degs and degs[0] < 92 + 2 * Q


def test_compile_fails_without_forced_second_fake():
    # after the fake at 85 the next fake is forced at 128; an all-infinite
    # continuation must die within the built range
    ent = [(7, fin(-1))] + [(d, DiamondType.infinite())
                            for d in range(13, 80, 6)]
    ent += [(85, DiamondType.fake1())]
    ent += [(d, DiamondType.infinite()) for d in range(92, 165, 6)]
    pat = normalize(ent, P, Q)
    L, rep = compile_pattern(pat, 155)
    assert not rep.ok
    degs = failure_degrees(rep, L)
    assert degs and degs[0] <= 155


def test_lemma_suite_nonvacuous_and_green():
    cases = {
        "a": (family_pattern("a", P, Q, 140), {"lemma_v1"}),
        "e": (family_pattern("e", P, Q, 140), {"lemma_v1", "lemma_v2"}),
        "d": (family_pattern("d", P, Q, 140, s=1, step=1),
              {"lemma_v1", "lemma_v2", "lemma_v2ext", "rem_v2ext_mu0",
               "rem_v1_mu0"}),
        "L1q": (family_pattern("L1q", P, Q, 140), {"lemma_type1"}),
    }
    for name, (pat, expect) in cases.items():
        L, _ = compile_pattern(pat, 100, run_validation=False)
        rep = verify_lemma_suite(L)
        assert rep.ok, (name, failures(rep)[:3])
        for lemma in expect:
            assert lemma_count(rep, lemma) > 0, (name, lemma)


def test_lemma_suite_distance_entries():
    pat = family_pattern("uniqueness", P, Q, 160, s=1)
    L, _ = compile_pattern(pat, 120, run_validation=False)
    rep = verify_lemma_suite(L)
    dist = [i for i in rep.instances if i.lemma == "distance"]
    assert dist and all(i.status == "pass" for i in dist)
    # the window after the fake at 85 extends to 85 + q - 2
    fake_windows = [i for i in dist if i.degree == 85]
    assert fake_windows and "L_90" in fake_windows[0].identity


def test_compile_memory_is_linear_in_the_degree():
    # an element holds its parent and letter, not its word (O(n^2)
    # characters in all), so a compile to degree 2n peaks at about twice
    # the memory of one to n
    def peak(n):
        pat = family_pattern("a", 7, 343, n + 350)
        tracemalloc.start()
        try:
            compile_pattern(pat, n, run_validation=False)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    small, large = peak(1000), peak(2000)
    assert large <= 2.5 * small, (small, large)
