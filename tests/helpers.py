"""Shared test utilities: independent bracket oracle, random admissible
pattern generation, and corpus construction."""

from __future__ import annotations

from thinlie.gf import lucas_binom, vec_add, vec_neg, vec_scale
from thinlie.maxclass import CentralizerSequence, build_maxclass, metabelian_sequence
from thinlie.patterns import compile_pattern, family_pattern, uniqueness_sequence

P = Q = 7


def oracle_bracket(L, u, v_word):
    """[u, value(v_word)] computed independently of the engine recursion.

    The word is split at its y-letters; maximal x-runs are expanded through
    the generalized Jacobi identity
        [a, [b x^n]] = sum_i (-1)^i C(n, i) [a x^i b x^{n-i}]
    so the evaluation path never coincides with the engine's last-letter
    split (except on degree-1 words, where both are the adjoint action).
    """
    p = L.p
    head, xrun = v_word, 0
    while len(head) > 1 and head.endswith("x"):
        head = head[:-1]
        xrun += 1
    if xrun == 0:
        if len(v_word) == 1:
            return L.apply_letter(u, v_word)
        # v = [b y]: [a, [b, y]] = [[a, b], y] - [[a, y], b]
        b = v_word[:-1]
        t1 = L.apply_letter(oracle_bracket(L, u, b), "y")
        t2 = oracle_bracket(L, L.apply_letter(u, "y"), b)
        return (t1[0], vec_add(t1[1], vec_neg(t2[1], p), p))
    deg = u[0] + len(v_word)
    acc = (deg, (0,) * L.dim(deg))
    for i in range(xrun + 1):
        c = lucas_binom(xrun, i, p)
        if not c:
            continue
        if i % 2:
            c = p - c
        term = oracle_bracket(L, L.apply_word(u, "x" * i), head)
        term = L.apply_word(term, "x" * (xrun - i))
        acc = (deg, vec_add(acc[1], vec_scale(c, term[1], p), p))
    return acc


def random_tq2_pattern(rng: random.Random, n_lo=20, n_hi=160):
    """A random member of the admissible all-infinite-or-fake pattern class
    at desk scale: either the no-fake pattern or the s = 1 backbone (fakes
    forced at the diamond indices divisible by 7 from 14 on), truncated at a
    random degree."""
    n = rng.randint(n_lo, n_hi)
    if rng.random() < 0.4:
        return family_pattern("e", P, Q, n + 30), n
    return family_pattern("uniqueness", P, Q, n + 30, s=1), n


def forbidden_continuations():
    """The two inconsistent continuations past the fake diamond at 85, as
    (name, pattern, degree to build): a finite-type diamond at 92, and an
    all-infinite run that skips the fake forced at 128."""
    from thinlie.patterns import DiamondType, normalize

    head = [(7, DiamondType.finite(-1, P))]
    head += [(d, DiamondType.infinite()) for d in range(13, 80, 6)]
    head += [(85, DiamondType.fake1())]
    fin92 = head + [(92, DiamondType.finite(2, P))]
    fin92 += [(d, DiamondType.infinite()) for d in range(98, 125, 6)]
    no128 = head + [(d, DiamondType.infinite()) for d in range(92, 165, 6)]
    return [("finite_at_92", normalize(fin92, P, Q), 112),
            ("no_fake_at_128", normalize(no128, P, Q), 155)]


def backbone_sequence(length: int) -> CentralizerSequence:
    return uniqueness_sequence(P, 1, length)


def build_corpus():
    """The ten acceptance-corpus algebras with their validation reports."""
    from thinlie.constructions import nottingham_Nqr, tensor_construct

    N = 100
    out = {}
    for name, fam, kw in [
        ("a", "a", {}),
        ("b", "b", {"start_type": 2}),
        ("c", "c", {"s": 1}),
        ("d", "d", {"s": 1, "step": 1}),
        ("e", "e", {}),
        ("L1q", "L1q", {}),
        ("L0q", "L0q", {}),
    ]:
        pat = family_pattern(fam, P, Q, N + 40, **kw)
        L, rep = compile_pattern(pat, N, guard=Q + 2)
        out[name] = (L, rep, pat)
    pat = family_pattern("uniqueness", P, Q, 260, s=1)
    L, rep = compile_pattern(pat, 200, guard=Q + 2)
    out["uniqueness"] = (L, rep, pat)
    M = build_maxclass(metabelian_sequence(P, 40), 30)
    tc = tensor_construct(M, Q, N, guard=Q + 2)
    out["T72_metabelian"] = (tc.algebra, tc.report,
                             family_pattern("e", P, Q, N + 40))
    Lq, patq, repq = nottingham_Nqr(Q, Q, N)
    out["N77"] = (Lq, repq, patq)
    return out
