"""Shared test utilities: independent bracket oracle, the reducing
reference formulation of the bracket kernel, random admissible pattern
generation, and corpus construction."""

from __future__ import annotations

from thinlie.engine import DegreeOverflowError, GradedAlgebra, validate
from thinlie.gf import (lucas_binom, mat_apply_rows, solve_or_kernel,
                        vec_add, vec_is_zero, vec_neg, vec_scale, vec_sub,
                        vec_zero)
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


def centralizer_in_L1(L, k: int):
    """Basis of {z in L_1 : [L_k, z] = 0}, as L_1 coordinate tuples."""
    if not 1 <= k < L.N_built:
        raise ValueError(f"degree {k} out of built range")
    rows = []
    for i in range(L.dim(k)):
        u = L.as_element(L.gid(k, i))
        ix = L.apply_letter(u, "x")[1]
        iy = L.apply_letter(u, "y")[1]
        rows.extend(zip(ix, iy))
    return solve_or_kernel(tuple(rows), (0,) * len(rows), L.p).kernel


def coclass_excess(L) -> int:
    """Number of 2-dimensional components among L_1..L_N."""
    return sum(1 for k in range(1, L.N + 1) if L.dim(k) == 2)


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
    T = tensor_construct(M, Q, N, guard=Q + 2).algebra
    out["T72_metabelian"] = (T, validate(T), family_pattern("e", P, Q, N + 40))
    Lq, patq = nottingham_Nqr(Q, Q, N)
    out["N77"] = (Lq, validate(Lq), patq)
    return out


def corrupt_ad_x(L, k=20, i=0, s=0):
    """L with entry (i, s) of ad x on degree k moved by one: no longer Lie,
    still well formed."""
    ad_x = [None if rows is None else [list(r) for r in rows]
            for rows in L.ad["x"]]
    ad_x[k][i][s] = (ad_x[k][i][s] + 1) % L.p
    return GradedAlgebra(L.field, L.elements, L.comp_gids,
                         [rows if rows is None else tuple(map(tuple, rows))
                          for rows in ad_x],
                         L.ad["y"], N=L.N, q=L.q)


class ReducingKernel:
    """The bracket recursion and the pair checks as the engine computed
    them before its kernel read ad rows directly: unit vectors through
    mat_apply_rows, a generic bilinear bracket, and a reduction mod p after
    every term.  The reference the engine's kernel is compared against;
    it has its own memo and never calls the engine's bracket."""

    def __init__(self, L):
        self.L = L
        self.memo = {}

    def bracket_basis(self, gi, gj):
        L, memo = self.L, self.memo
        got = memo.get((gi, gj))
        if got is not None:
            return got
        ei, ej = L.elements[gi], L.elements[gj]
        dt = ei.degree + ej.degree
        if dt > L.N_built:
            raise DegreeOverflowError(dt, L.N_built)
        if ej.degree == 1:
            out = mat_apply_rows(L.ad[ej.word][ei.degree],
                                 L.as_element(gi)[1], L.p)
        elif ei.degree < ej.degree:
            out = vec_neg(self.bracket_basis(gj, gi), L.p)
        else:
            # split e_gj = [a, t] along its defining word
            a, t = ej.parent_gid, ej.letter
            w1 = (dt - 1, self.bracket_basis(gi, a))
            r1 = L.apply_letter(w1, t)[1]
            w2 = L.apply_letter(L.as_element(gi), t)
            r2 = self.bracket(w2, L.as_element(a))[1]
            out = vec_sub(r1, r2, L.p)
        memo[(gi, gj)] = out
        return out

    def bracket(self, u, v):
        return self._bilinear(u, v, self.bracket_basis)

    def bracket_mirror(self, u, v, memo):
        return self._bilinear(
            u, v, lambda gi, gj: self.mirror_basis(gi, gj, memo))

    def _bilinear(self, u, v, basis_bracket):
        L, p = self.L, self.L.p
        du, cu = u
        dv, cv = v
        dt = du + dv
        if dt > L.N_built:
            raise DegreeOverflowError(dt, L.N_built)
        acc = list(vec_zero(L.dim(dt)))
        for i, ci in enumerate(cu):
            if not ci:
                continue
            for j, cj in enumerate(cv):
                if not cj:
                    continue
                w = basis_bracket(L.gid(du, i), L.gid(dv, j))
                m = ci * cj % p
                for s, ws in enumerate(w):
                    acc[s] = (acc[s] + m * ws) % p
        return (dt, tuple(acc))

    def mirror_basis(self, gi, gj, memo):
        L, p = self.L, self.L.p
        got = memo.get((gi, gj))
        if got is not None:
            return got
        ei, ej = L.elements[gi], L.elements[gj]
        dt = ei.degree + ej.degree
        if dt > L.N_built:
            raise DegreeOverflowError(dt, L.N_built)
        if ei.degree == 1:
            # [g, v] = -[v, g] = -(ad g)(v)
            out = vec_neg(mat_apply_rows(L.ad[ei.word][ej.degree],
                                         L.as_element(gj)[1], p), p)
        else:
            # e_gi = [a, t]:  [[a,t], v] = [a, [t, v]] + [[a, v], t]
            a, t = ei.parent_gid, ei.letter
            tv = vec_neg(L.apply_letter(L.as_element(gj), t)[1], p)
            term1 = list(vec_zero(L.dim(dt)))
            for s, c in enumerate(tv):
                if c:
                    w = self.mirror_basis(a, L.gid(ej.degree + 1, s), memo)
                    for s2, ws in enumerate(w):
                        term1[s2] = (term1[s2] + c * ws) % p
            av = self.mirror_basis(a, gj, memo)
            term2 = mat_apply_rows(L.ad[t][dt - 1], av, p)
            out = vec_add(tuple(term1), term2, p)
        memo[(gi, gj)] = out
        return out

    def witnesses(self, B):
        """Uncapped witness lists of the words, antisymmetry and jacobi
        checks up to total degree B, by the per-pair loops."""
        L, p = self.L, self.L.p
        words = [e.gid for e in L.elements
                 if L.eval_word(e.word) != L.as_element(e.gid)]
        anti, mirror_memo = [], {}
        for e1 in L.elements:
            for e2 in L.elements:
                if e1.degree + e2.degree > B or e2.gid < e1.gid:
                    continue
                u, v = L.as_element(e1.gid), L.as_element(e2.gid)
                lhs = self.bracket(u, v)[1]
                if lhs != self.bracket_mirror(u, v, mirror_memo)[1]:
                    anti.append((e1.gid, e2.gid))
                if e1.gid == e2.gid and not vec_is_zero(lhs):
                    anti.append((e1.gid, e1.gid))
        jac = []
        gens = [(g, L.elements[g].word) for g in L.comp_gids[1]]
        for total in range(3, B + 1):
            for da in range(1, (total - 1) // 2 + 1):
                db = total - 1 - da
                for ga in L.comp_gids[da]:
                    a = L.as_element(ga)
                    for gb in L.comp_gids[db]:
                        if gb < ga:
                            continue
                        b = L.as_element(gb)
                        ab = self.bracket(a, b)
                        for gs, s in gens:
                            j = L.apply_letter(ab, s)[1]
                            j = vec_add(j, self.bracket(
                                L.apply_letter(b, s), a)[1], p)
                            j = vec_sub(j, self.bracket(
                                L.apply_letter(a, s), b)[1], p)
                            if not vec_is_zero(j):
                                jac.append((ga, gb, gs))
        return {"words": words, "antisymmetry": anti, "jacobi": jac}


def memo_pair_witnesses(L, B):
    """Uncapped witness lists of the antisymmetry, jacobi and bidegree
    checks up to total degree B, by the loops validate ran before it swept
    bracket columns: every pair through the bracket_basis memo and the
    _mirror_basis recursion.  A list cut to its first k entries is what
    those loops returned with max_witnesses = k."""
    p, elements, comp = L.p, L.elements, L.comp_gids
    bb = L.bracket_basis
    anti, mirror_memo = [], {}
    for e1 in elements:
        if 2 * e1.degree > B:
            break
        g1 = e1.gid
        for e2 in elements[g1:]:
            if e1.degree + e2.degree > B:
                break
            lhs = bb(g1, e2.gid)
            if lhs != L._mirror_basis(g1, e2.gid, mirror_memo):
                anti.append((g1, e2.gid))
            if e2.gid == g1 and not vec_is_zero(lhs):
                anti.append((g1, g1))
    jac = []
    gens = [(g, L.ad[elements[g].word]) for g in comp[1]]
    for total in range(3, B + 1):
        dim = len(comp[total])
        for da in range(1, (total - 1) // 2 + 1):
            db = total - 1 - da
            for ga in comp[da]:
                ia = elements[ga].index
                for gb in comp[db]:
                    if gb < ga:
                        continue
                    ib = elements[gb].index
                    ab = bb(ga, gb)
                    for gs, ad_s in gens:
                        acc = [0] * dim
                        for c, row in zip(ab, ad_s[da + db]):
                            for t, r in enumerate(row):
                                acc[t] += c * r
                        for c, g in zip(ad_s[db][ib], comp[db + 1]):
                            for t, r in enumerate(bb(g, ga)):
                                acc[t] += c * r
                        for c, g in zip(ad_s[da][ia], comp[da + 1]):
                            for t, r in enumerate(bb(g, gb)):
                                acc[t] -= c * r
                        if any(c % p for c in acc):
                            jac.append((ga, gb, gs))
    bideg = []
    for e1 in elements:
        for e2 in elements[e1.gid:]:
            if e1.degree + e2.degree > B:
                continue
            want = (e1.bidegree[0] + e2.bidegree[0],
                    e1.bidegree[1] + e2.bidegree[1])
            tgt = L.basis(e1.degree + e2.degree)
            for s, c in enumerate(bb(e1.gid, e2.gid)):
                if c and tgt[s].bidegree != want:
                    bideg.append((e1.gid, e2.gid, s))
    return {"antisymmetry": anti, "jacobi": jac, "bidegree": bideg}
