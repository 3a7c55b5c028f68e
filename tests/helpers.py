"""Shared test utilities: base-p binomial coefficients and the truncated
divided power product, independent bracket oracle, the reducing
reference formulation of the bracket kernel, the loop form of the column
kernel, random admissible patterns and random well-formed presentations,
corpus construction, and the readers of reports and algebras that only
the tests use."""

from __future__ import annotations

import math
import random

from thinlie.engine import (CHECKS, AlgebraBuilder, DegreeOverflowError,
                            GradedAlgebra, OperatorFamily, ValidationReport,
                            validate)
from thinlie.gf import (PrimeField, mat_apply_rows, vec_add, vec_is_zero,
                        vec_neg, vec_scale, vec_sub, vec_zero)
from thinlie.maxclass import CentralizerSequence, SequenceError, build_maxclass
from thinlie.patterns import compile_pattern, family_pattern, uniqueness_sequence

P = Q = 7

# the checks over basis pairs, which validate runs in one sweep of columns
PAIR_CHECKS = tuple(name for name, (_, in_sweep) in CHECKS.items()
                    if in_sweep)
# how many leading gids of a check's witness failure_degrees sums
WITNESS_GIDS = {"antisymmetry": 2, "jacobi": 3, "bidegree": 2}


def lucas_binom(n: int, k: int, p: int) -> int:
    """C(n, k) mod p computed digit-wise in base p (Lucas' theorem)."""
    if n < 0 or k < 0:
        raise ValueError("n, k must be non-negative")
    if k > n:
        return 0
    out = 1
    while n or k:
        ni, ki = n % p, k % p
        if ki > ni:
            return 0
        out = out * (math.comb(ni, ki) % p) % p
        n //= p
        k //= p
    return out


def divided_power_product(i: int, j: int, q: int, p: int):
    """epsilon^(i) * epsilon^(j) = C(i+j, i) epsilon^(i+j), truncated at q.

    Returns (coefficient, index) or None for zero.  The truncation is
    consistent: C(i+j, i) is divisible by p whenever q <= i+j <= 2q-2.
    """
    if not (0 <= i <= q - 1 and 0 <= j <= q - 1):
        raise ValueError(f"indices must lie in [0, {q - 1}]")
    if i + j > q - 1:
        return None
    c = lucas_binom(i + j, i, p)
    if c == 0:
        return None
    return (c, i + j)


def failure_degrees(report, L) -> list:
    """Total degrees of the pair/triple witnesses of a ValidationReport,
    ascending: the empirical record of where an inconsistent structure
    first breaks.

    A witness is a tuple of basis gids whose degrees are summed, as many
    as WITNESS_GIDS gives for its check: a pair (antisymmetry), the pair
    of a (gid_a, gid_b, s) bidegree witness, or a basis pair and a
    generator (gid_a, gid_b, gid_s) for jacobi, whose degree is
    deg a + deg b + 1.  Only as many witnesses as validate kept are read."""
    degs = set()
    for c in failures(report):
        n = WITNESS_GIDS.get(c.name, 0)
        degs.update(sum(L.elements[g].degree for g in w[:n])
                    for w in c.witnesses if n)
    return sorted(degs)


def failures(report) -> list:
    """The failing checks of a ValidationReport, or the failing instances
    of a LemmaReport."""
    if isinstance(report, ValidationReport):
        return [c for c in report.checks if not c.ok]
    return [i for i in report.instances if i.status == "fail"]


def lemma_count(report, lemma=None, status="pass") -> int:
    """Instances of a LemmaReport with the status, of one lemma or all."""
    return sum(1 for i in report.instances
               if i.status == status and (lemma is None or i.lemma == lemma))


def dims(L):
    """Per-degree dimensions for degrees 1..N."""
    return [L.dim(k) for k in range(1, L.N + 1)]


def regularity_bands(q: int, N: int):
    """(wide, strict): the bidegrees (r, s) of degree r + s in 1..N in
    S_<=(q) = {-1 <= (q-2)s - r <= q-2}, and those with r, s >= 1 in
    S_<(q) = {0 <= (q-2)s - r <= q-3}."""
    wide, strict = set(), set()
    for d in range(1, N + 1):
        for s in range(0, d + 1):
            r = d - s
            t = (q - 2) * s - r
            if -1 <= t <= q - 2:
                wide.add((r, s))
            if r >= 1 and s >= 1 and 0 <= t <= q - 3:
                strict.add((r, s))
    return wide, strict


def metabelian_sequence(p: int, length: int) -> CentralizerSequence:
    return CentralizerSequence(p, "Y" * length)


def x_positions(seq: CentralizerSequence):
    """Indices i with c_i = 'X'."""
    return [i + 2 for i, e in enumerate(seq.entries) if e == "X"]


def extract_centralizer_sequence(L) -> CentralizerSequence:
    """Read the two-step centralizer sequence off a built maximal-class
    algebra."""
    entries = []
    for i in range(2, L.N_built):
        if L.dim(i) != 1:
            raise SequenceError(f"component {i} has dimension {L.dim(i)}; "
                                "not maximal class")
        u = L.as_element(L.gid(i, 0))
        kx = vec_is_zero(L.apply_letter(u, "x")[1])
        ky = vec_is_zero(L.apply_letter(u, "y")[1])
        if kx == ky:
            raise SequenceError(f"component {i} has centralizer of dimension "
                                f"{2 if kx else 0} in degree 1")
        entries.append("X" if kx else "Y")
    return CentralizerSequence(L.p, entries)


def words(L):
    """The defining word of every basis element, indexed by gid, from the
    engine's word view (the elements are listed degree by degree)."""
    return [w for ws in L.basis_words(L.N_built) for w in ws]


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
    return kernel(tuple(rows), L.p)


def echelon(rows, p: int):
    """Row-echelon basis (pivot-normalized, reduced) of the row span, by
    dense elimination and back-substitution: the oracle for the package's
    incremental gf.echelon_add, and the form kernel reads."""
    basis = []  # list of (pivot_index, row tuple)
    for row in rows:
        row = list(a % p for a in row)
        for piv, b in basis:
            if row[piv]:
                c = row[piv]
                row = [(a - c * bb) % p for a, bb in zip(row, b)]
        piv = next((j for j, a in enumerate(row) if a), None)
        if piv is None:
            continue
        inv = pow(row[piv], -1, p)
        row = tuple(a * inv % p for a in row)
        basis.append((piv, row))
    basis.sort()
    # back-substitute so the basis is fully reduced
    out = []
    for idx, (piv, row) in enumerate(basis):
        row = list(row)
        for piv2, row2 in basis[idx + 1:]:
            c = row[piv2]
            if c:
                row = [(a - c * b) % p for a, b in zip(row, row2)]
        out.append(tuple(row))
    return out


def kernel(a_rows, p: int) -> list:
    """Basis of {v : A v = 0} over F_p, A a tuple of equation rows: for
    each free column c of A's reduced echelon form, the vector with 1 at
    c and minus each reduced row's entry at c on that row's pivot."""
    n = len(a_rows[0]) if a_rows else 0
    ech = echelon(a_rows, p)
    pivots = [next(j for j, a in enumerate(r) if a) for r in ech]
    out = []
    for c in range(n):
        if c not in pivots:
            v = [0] * n
            v[c] = 1
            for piv, row in zip(pivots, ech):
                v[piv] = -row[c] % p
            out.append(tuple(v))
    return out


def q_brackets(L) -> list:
    """The brackets of L_j with L_q for j = 1..N_built - q, off one
    brackets_with: what the round trip hands verify_leibniz and
    extract_M."""
    return L.brackets_with(L.q, L.N_built - L.q)


def leibniz_pair_failures(L, D) -> list:
    """The basis pairs (u, v), gid u <= gid v, of total degree at most
    min(N, N_built - shift) where D[u, v] != [Du, v] + [u, Dv], as gid
    pairs in loop order, read through the bracket_basis memo: the O(N^2)
    loop that verify_leibniz's generator-pair certificate replaces, kept as
    its oracle."""
    budget = min(L.N, L.N_built - D.shift)
    fails = []
    for e1 in L.elements:
        for e2 in L.elements[e1.gid:]:
            if e1.degree + e2.degree > budget:
                break
            u, v = L.as_element(e1.gid), L.as_element(e2.gid)
            lhs = D.apply(L.bracket(u, v))
            rhs = vec_add(L.bracket(D.apply(u), v)[1],
                          L.bracket(u, D.apply(v))[1], L.p)
            if lhs[1] != rhs:
                fails.append((e1.gid, e2.gid))
    return fails


def ad_operator(L, z):
    """ad z for z = a x + b y in L_1, z = (a, b): the derivation of shift 1
    with x -> [x, z] and y -> [y, z], filled on every degree by the word
    recursion (derivations.fill) off the brackets with L_2.  The oracle for
    ad rows and, composed, for (ad z)^p, which deflation computes with two
    ad rows per step instead."""
    from thinlie.derivations import fill

    a, b = z
    rows = tuple(vec_add(vec_scale(a, rx, L.p), vec_scale(b, ry, L.p), L.p)
                 for rx, ry in zip(L.ad["x"][1], L.ad["y"][1]))
    op = OperatorFamily(L, 1, {1: rows})
    fill(op, L.N_built - 1, L.brackets_with(2, L.N_built - 2))
    return op


def inner_operator(L, w):
    """ad w, v -> [v, w], for w in L_k, on every degree d with
    d + k <= N_built, read through the bracket_basis memo: the oracle for
    the inner derivations that deflation grows as elements of L."""
    k, _ = w
    return OperatorFamily(L, k, {
        d: tuple(L.bracket(L.as_element(g), w)[1] for g in L.comp_gids[d])
        for d in range(1, L.N_built - k + 1)})


def eager_commutator(a, b):
    """B o A - A o B, a.then(b) minus b.then(a), on every degree where both
    compositions are defined: the oracle for op_bracket, which computes
    the commutator of two derivations on x and y only, and for the
    commutators deflation reads off elements of L."""
    ab, ba, p = a.then(b), b.then(a), a.algebra.p
    return OperatorFamily(a.algebra, ab.shift, {
        k: tuple(vec_sub(r1, r2, p)
                 for r1, r2 in zip(ab.maps[k], ba.maps[k], strict=True))
        for k in ab.maps.keys() & ba.maps.keys()})


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
    T, _ = tensor_construct(M, Q, N, guard=Q + 2)
    out["T72_metabelian"] = (T, validate(T), family_pattern("e", P, Q, N + 40))
    Lq, patq = nottingham_Nqr(Q, Q, N)
    out["N77"] = (Lq, validate(Lq), patq)
    return out


def corrupt_ad(L, letter, k, i, s):
    """L with entry (i, s) of ad letter on degree k moved by one: no longer
    Lie, still well formed."""
    ad = {t: [None if rows is None else [list(r) for r in rows]
              for rows in L.ad[t]] for t in "xy"}
    ad[letter][k][i][s] = (ad[letter][k][i][s] + 1) % L.p
    ad_x, ad_y = ([rows if rows is None else tuple(map(tuple, rows))
                   for rows in ad[t]] for t in "xy")
    return GradedAlgebra(L.field, L.elements, L.comp_gids, ad_x, ad_y,
                         N=L.N, q=L.q)


def corrupt_ad_x(L, k=20, i=0, s=0):
    return corrupt_ad(L, "x", k, i, s)


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
            out = mat_apply_rows(L.ad[ej.letter][ei.degree],
                                 L.as_element(gi)[1], L.p)
        elif ei.degree < ej.degree:
            out = vec_neg(self.bracket_basis(gj, gi), L.p)
        else:
            # split e_gj = [a, t] into its parent and letter
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
            out = vec_neg(mat_apply_rows(L.ad[ei.letter][ej.degree],
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
        bad = [g for g, w in enumerate(words(L))
               if L.eval_word(w) != L.as_element(g)]
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
        gens = [(g, L.elements[g].letter) for g in L.comp_gids[1]]
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
        return {"words": bad, "antisymmetry": anti, "jacobi": jac}


def jacobi_sum(L, ga, gb, gs):
    """J(a, b, s) = [[a,b],s] + [[b,s],a] - [[a,s],b] through the
    bracket_basis memo and the ad s rows, reduced mod p."""
    p, elements, comp = L.p, L.elements, L.comp_gids
    ea, eb = elements[ga], elements[gb]
    da, db, ad_s = ea.degree, eb.degree, L.ad[elements[gs].letter]
    acc = [0] * len(comp[da + db + 1])
    for c, row in zip(L.bracket_basis(ga, gb), ad_s[da + db]):
        for t, r in enumerate(row):
            acc[t] += c * r
    for c, g in zip(ad_s[db][eb.index], comp[db + 1]):
        for t, r in enumerate(L.bracket_basis(g, ga)):
            acc[t] += c * r
    for c, g in zip(ad_s[da][ea.index], comp[da + 1]):
        for t, r in enumerate(L.bracket_basis(g, gb)):
            acc[t] -= c * r
    return tuple(c % p for c in acc)


def reference_column(L, pa, off, t, d, lo, hi):
    """GradedAlgebra.column's value as a loop over the coordinates of
    each term: for each partner g, the coefficients of [g, a] against the
    ad t rows, minus those of e_g's ad t row against the [e_h, a], only
    the nonzero ones, summed as integers and reduced mod p once.  The
    oracle for the engine's block kernel."""
    ad_t, comp, p = L.ad[t], L.comp_gids, L.p
    if d == 1:
        return [r for k in range(lo, hi + 1) for r in ad_t[k]]
    col = []
    for k in range(lo, hi + 1):
        rows_t, up = ad_t[k + d - 1], comp[k + 1]
        n = len(comp[k + d])
        for g, tg in zip(comp[k], ad_t[k]):
            acc = [0] * n
            for cf, row in zip(pa[g - off], rows_t):
                if cf:
                    for s, r in enumerate(row):
                        acc[s] += cf * r
            for cf, h in zip(tg, up):
                if cf:
                    for s, r in enumerate(pa[h - off]):
                        acc[s] -= cf * r
            col.append(tuple([v % p for v in acc]))
    return col


def random_presentation(p, dims, seed):
    """A well-formed GradedAlgebra over F_p whose components have the
    dimensions dims (dims[0] = 2), with random parents, letters and ad
    entries: no Lie algebra, but any ad data the kernels must handle,
    two-dimensional components side by side among them."""
    rng = random.Random(seed)
    b = AlgebraBuilder(PrimeField(p))
    b.add_degree([(None, "x"), (None, "y")])
    for n in dims[1:]:
        prev = b.comp_gids[-1]
        b.add_degree([(rng.choice(prev), rng.choice("xy")) for _ in range(n)])
    for k in range(1, len(dims)):
        b.set_ad(k, *([[rng.randrange(p) for _ in range(dims[k])]
                       for _ in range(dims[k - 1])] for _ in "xy"))
    return b.finish(len(dims))


def random_presentations(count=6, n=40, p=5):
    """Well-formed, non-Lie presentations with two-dimensional components
    side by side, which no algebra of the package has: the inputs on
    which the kernel reads 2x2 ad blocks."""
    for seed in range(count):
        rng = random.Random(seed)
        yield random_presentation(
            p, [2] + [rng.choice((1, 2)) for _ in range(n - 1)], seed)


def memo_pair_witnesses(L, B):
    """Uncapped witness lists of the antisymmetry, jacobi and bidegree
    checks up to total degree B, by the loops validate ran before it swept
    bracket columns: every pair through the bracket_basis memo and the
    _mirror_basis recursion.  A list cut to its first k entries is what
    those loops returned with max_witnesses = k.  The bidegree list is
    that of the loop over every pair gi <= gj; the bidegree check reads
    only the pairs with a generator, which come first."""
    elements, comp = L.elements, L.comp_gids
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
    jac = [(ga, gb, gs) for total in range(3, B + 1)
           for da in range(1, (total - 1) // 2 + 1)
           for ga in comp[da] for gb in comp[total - 1 - da] if gb >= ga
           for gs in comp[1] if any(jacobi_sum(L, ga, gb, gs))]
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


def jacobi_triples(L, B):
    """Witnesses (gid_1, gid_2, gid_3) of J != 0 over all basis triples
    gid_1 <= gid_2 <= gid_3 of total degree <= B, uncapped: the O(N^3)
    oracle for the generator Jacobi check."""
    p = L.p
    witnesses = []
    for e1 in L.elements:
        if 3 * e1.degree > B:
            break
        for e2 in L.elements:
            if e2.gid < e1.gid or e1.degree + 2 * e2.degree > B:
                continue
            a = L.as_element(e1.gid)
            b = L.as_element(e2.gid)
            ab = L.bracket(a, b)
            for e3 in L.elements:
                if e3.gid < e2.gid:
                    continue
                if e1.degree + e2.degree + e3.degree > B:
                    break
                c = L.as_element(e3.gid)
                s = L.bracket(ab, c)
                s = vec_add(s[1], L.bracket(L.bracket(b, c), a)[1], p)
                s = vec_add(s, L.bracket(L.bracket(c, a), b)[1], p)
                if not vec_is_zero(s):
                    witnesses.append((e1.gid, e2.gid, e3.gid))
    return witnesses
