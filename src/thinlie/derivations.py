"""The outer derivation D with Dx = 0, Dy = [y x^{q-2} y], the extraction of
a maximal-class algebra from an algebra whose post-second diamonds are all of
infinite type or fake of type 1, and the round trip back through the tensor
construction.

D is the OperatorFamily of shift q - 1 given by its values on x and y and
extended by recursion on defining words.  verify_leibniz certifies the
Leibniz rule on every pair within its budget from the pairs (a, x) and
(a, y) alone, a a basis element: O(N) brackets, the brackets of every
degree with L_q, where a loop over all pairs reads O(N^2) (the tests keep
that loop as its oracle).  The round trip runs it before extracting.  The
extension L + F X treats the formal element X as acting on the right,
[u, X] = D(u), matching the extraction recursion U_{j+1} = [U_j X].
"""

from __future__ import annotations

from .engine import GradedAlgebra, OperatorFamily
from .gf import mat_apply_rows, vec_add, vec_is_zero, vec_scale
from .maxclass import (CentralizerSequence, SequenceError,
                       UnrealizableSequenceError, build_maxclass)
from .patterns import DiamondPattern, detect


class ExtractionError(Exception):
    pass


def in_tq2_class(pattern: DiamondPattern) -> bool:
    """Second diamond of type -1; every later diamond infinite or fake of
    type 1 (whence consecutive genuine gaps q-1 or 2q-1)."""
    ent = pattern.entries
    if not ent or ent[0][0] != pattern.q:
        return False
    if ent[0][1].kind != "finite" or ent[0][1].mu != pattern.p - 1:
        return False
    return all(t.kind in ("infinite", "fake1") for _, t in ent[1:])


def build_D(L: GradedAlgebra) -> OperatorFamily:
    """D as the derivation of shift q - 1 with Dx = 0 and Dy = [y x^{q-2} y]:
    an operator family that extends to every degree k <= N_built - (q - 1)
    by the word recursion D([u, t]) = [D(u), t] + [u, D(t)].

    It builds D and does not gate: D is a derivation only on the algebras
    that in_tq2_class admits, which roundtrip_check tests before it calls
    this."""
    q = L.q
    dy = L.eval_word("y" + "x" * (q - 2) + "y")
    return OperatorFamily(L, q - 1, {1: (L.zero(q)[1], dy[1])})


def fill(D, k: int, brackets) -> None:
    """Store degrees up to k of the derivation D, given on degrees 1..m, by
    the derivation recursion: the row of e = [a, t] is [D a, t] plus
    [a, D t], with D t in L_{1 + shift}.  The [a, D t] are read off
    brackets, a list whose entry j - 1 holds the brackets of L_j with
    L_{1 + shift} (GradedAlgebra.brackets_with's values) up to j = k - 1.
    A degree already stored is left as it is."""
    L, maps = D.algebra, D.maps
    for j in range(len(maps) + 1, k + 1):
        rows = []
        for e in L.basis(j):
            a = L.elements[e.parent_gid]
            da = L.apply_letter((j - 1 + D.shift, maps[j - 1][a.index]),
                                e.letter)[1]
            at = mat_apply_rows(brackets[j - 2][a.index],
                                maps[1]["xy".index(e.letter)], L.p)
            rows.append(vec_add(da, at, L.p))
        maps[j] = tuple(rows)


class LeibnizReport:
    def __init__(self, pairs_checked: int, failures: list,
                 instance_checks: list):
        self.pairs_checked = pairs_checked
        self.failures = failures
        self.instance_checks = instance_checks   # (label, degree, ok)

    @property
    def ok(self) -> bool:
        return not self.failures and all(ok for _, _, ok in self.instance_checks)


def verify_leibniz(L: GradedAlgebra, D: OperatorFamily, brackets: list,
                   pattern: DiamondPattern) -> LeibnizReport:
    """Certify D([u, v]) = [D(u), v] + [u, D(v)] on every pair of total
    degree at most B = min(N, N_built - shift) from the generator pairs
    alone, plus the coefficient facts at diamond-to-diamond steps and the
    bidegree homogeneity of D.

    Lemma: in a Lie algebra, S = {u : D[a, u] = [Da, u] + [a, Du] for all
    a} is a subalgebra.  For u, v in S and any a, Jacobi gives
    [a, [u, v]] = [[a, u], v] - [[a, v], u], so

        D[a, [u, v]] = D[[a, u], v] - D[[a, v], u]
          = [D[a, u], v] + [[a, u], Dv] - [D[a, v], u] - [[a, v], Du]
                                              (v at [a, u], u at [a, v])
          = [[Da, u], v] + [[a, Du], v] + [[a, u], Dv]
            - [[Da, v], u] - [[a, Dv], u] - [[a, v], Du]    (u, v at a)
          = [Da, [u, v]] + [a, [Du, v]] + [a, [u, Dv]]      (Jacobi)
          = [Da, [u, v]] + [a, D[u, v]]                     (v at u).

    x and y generate L, so S = L once x and y lie in S, and by linearity a
    need only run over a basis.  Truncated: the expansion of a pair (a, w)
    of total degree n, with w = [u, t], uses the pairs ([a, u], t) and
    ([a, t], u) of total degree n, whose second arguments have lower
    degree than w, pairs of lower total degree, and Jacobi in degrees up
    to n + shift.  By induction on n, then deg w, Leibniz on every (a, t),
    t in {x, y}, with deg a + 1 <= B proves it on every pair of total
    degree <= B.

    Hypothesis: L satisfies the Jacobi identity up to degree
    B + shift = B + q - 1, which validate checks and this does not.  On a
    structure that breaks Jacobi in degree d the certificate speaks only
    for total degrees below d - shift, where the pair loop may fail.

    For each pair it compares D applied to the ad t row of a with
    apply_letter(D a, t) plus [a, D t]; D t lies in L_{1 + shift}, and
    [a, D t] is read off brackets, whose entry j - 1 holds the brackets
    of L_j with L_{1 + shift} (GradedAlgebra.brackets_with's values) for j
    up to N_built - 1 - shift.  So the certificate reads O(N) values and
    leaves the bracket_basis memo empty.  pairs_checked counts the (a, t)
    pairs, and a failure is the gids (a, t).  pattern is L's detected
    pattern, whose entries place the coefficient facts."""
    p, q = L.p, L.q
    shift = D.shift
    budget = min(L.N, L.N_built - shift)
    # one fill, off brackets, for every degree D is read on below
    fill(D, L.N_built - shift, brackets)
    fails = []
    pairs = 0
    homog = True
    for a in L.elements:
        if a.degree > budget:
            break
        da = D.apply(L.as_element(a.gid))
        # bidegree homogeneity: shift (q-2, 1) on every nonzero image
        want = (a.bidegree[0] + q - 2, a.bidegree[1] + 1)
        homog &= all(e.bidegree == want
                     for c, e in zip(da[1], L.basis(da[0])) if c)
        if a.degree == budget:
            continue
        for t, dt, g in zip("xy", D.maps[1], L.comp_gids[1]):
            lhs = D.apply((a.degree + 1, L.ad[t][a.degree][a.index]))[1]
            rhs = vec_add(L.apply_letter(da, t)[1], mat_apply_rows(
                brackets[a.degree - 1][a.index], dt, p), p)
            pairs += 1
            if lhs != rhs:
                fails.append((a.gid, g))
    checks = [("bidegree shift (q-2,1)", 0, homog)]
    ent = pattern.entries
    for idx, (m, t) in enumerate(ent):
        nxt = ent[idx + 1] if idx + 1 < len(ent) else None
        if nxt is None or m - 1 > budget:
            continue
        v = L.as_element(L.gid(m - 1, 0))
        if (t.kind == "infinite" and nxt[0] == m + q - 1
                and nxt[1].kind in ("infinite", "fake1")
                and m + 2 * (q - 1) <= L.N_built):
            w = L.apply_word(v, "xy" + "x" * (q - 3))
            lhs = D.apply(L.apply_word(v, "x"))
            checks.append(("D[vx] = -2[wx] at infinite diamond", m,
                           lhs[1] == vec_scale(-2, L.apply_word(w, "x")[1], p)))
        if (t.kind == "fake1" and nxt[0] == m + q
                and nxt[1].kind == "infinite"
                and m + q <= L.N_built):
            lhs = D.apply(L.apply_word(v, "x"))
            checks.append(("D[vx] = 0 at fake diamond", m,
                           vec_is_zero(lhs[1])))
    return LeibnizReport(pairs, fails, checks)


def extract_M(L: GradedAlgebra, D: OperatorFamily, brackets: list):
    """Inside L + F X with X = D and Y = [y x^{q-1}], run the recursion
    U_{j+1} = [U_j X] if [U_j Y] = 0 else [U_j Y], reading off the two-step
    centralizer sequence while L's built range allows.  Returns
    (GradedAlgebra, CentralizerSequence): the maximal-class algebra of the
    sequence, to degree len(sequence) - 1, and the sequence.  [U_j Y] is
    read off brackets, whose entry j - 1 holds the brackets of L_j with L_q
    for j up to N_built - q, as L.brackets_with(q, N_built - q) returns
    them, so the bracket_basis memo is not filled.  Raises
    ExtractionError when U_j's centralizer is not a line, when too few
    entries are read, when they are no centralizer sequence (say,
    c_2 = 'X'), or when no Lie algebra realizes them, naming what was
    read."""
    p, q = L.p, L.q
    Y = L.eval_word("y" + "x" * (q - 1))
    U = Y
    # the recursion reads D on every degree the loop below reaches
    fill(D, L.N_built - max(q, D.shift), brackets)
    entries = []
    j = 1
    while True:
        degU = U[0]
        can_y = degU + q <= L.N_built
        can_x = degU + D.shift <= L.N_built
        if not (can_y and can_x):
            break
        uy = (degU + q, mat_apply_rows(
            [mat_apply_rows(b, Y[1], p) for b in brackets[degU - 1]], U[1], p))
        ux = D.apply(U)
        ky, kx = vec_is_zero(uy[1]), vec_is_zero(ux[1])
        if ky == kx:
            raise ExtractionError(
                f"U_{j} (degree {degU}) has centralizer of dimension "
                f"{2 if ky else 0} in the generator plane")
        if j >= 2:
            entries.append("Y" if ky else "X")
        U = ux if ky else uy
        if vec_is_zero(U[1]):
            raise ExtractionError(f"U_{j + 1} vanished")
        j += 1
    n_m = len(entries) - 1
    read = "".join(entries)
    if n_m < 2:
        raise ExtractionError(
            f"input algebra too short to extract anything: built to degree "
            f"{L.N_built}, it yields {len(entries)} centralizer entries")
    try:
        seq = CentralizerSequence(p, entries)
    except SequenceError as e:
        raise ExtractionError(f"the extraction read {read}, "
                              f"no centralizer sequence: {e}") from None
    try:
        return build_maxclass(seq, n_m), seq
    except UnrealizableSequenceError as e:
        failing = ", ".join(c.name for c in e.report.checks if not c.ok)
        raise ExtractionError(f"the extraction read {read}, which no Lie "
                              f"algebra realizes to degree {n_m} (failing "
                              f"{failing})") from None


class RoundtripReport:
    def __init__(self):
        self.stages = []
        self.extracted_sequence = ""
        self.pattern_L = None
        self.pattern_T = None
        self.passed = False
        self.compare_N = 0

    def to_json(self) -> dict:
        return {
            "schema": "thinlie.roundtrip.v1",
            "stages": self.stages,
            "extracted_sequence": self.extracted_sequence,
            "pattern_L": self.pattern_L,
            "pattern_T": self.pattern_T,
            "compare_N": self.compare_N,
            "pass": self.passed,
        }


def roundtrip_check(L: GradedAlgebra, compare_N: int | None = None) -> RoundtripReport:
    """detect(tensor_construct(build_maxclass(extracted sequence))) must equal
    detect(L) up to the comparison bound."""
    from .constructions import tensor_construct

    q = L.q
    rep = RoundtripReport()
    pattern, _ = detect(L)
    rep.pattern_L = pattern.to_json()
    if not in_tq2_class(pattern):
        rep.stages.append(["class-gate", "rejected: diamonds of finite type "
                           "past the second diamond"])
        return rep
    rep.stages.append(["class-gate", "ok"])
    D = build_D(L)
    rep.stages.append(["derivation", f"built on degrees 1..{L.N_built - D.shift}"])
    # the brackets of every degree with L_q: O(N) values, read by the
    # certificate and the extraction, and dropped before the rebuild
    brackets = L.brackets_with(q, L.N_built - q)
    leibniz = verify_leibniz(L, D, brackets, pattern)
    rep.stages.append(["leibniz", f"{leibniz.pairs_checked} generator pairs, "
                       f"{len(leibniz.failures)} failing; "
                       f"{len(leibniz.instance_checks)} instance checks, "
                       f"{sum(not ok for _, _, ok in leibniz.instance_checks)}"
                       " failing"])
    if not leibniz.ok:
        return rep
    M, seq = extract_M(L, D, brackets)
    del brackets
    rep.extracted_sequence = "".join(seq.entries)
    rep.stages.append(["extraction", f"sequence of length {len(seq)}, "
                       f"maximal-class algebra to degree {M.N}"])
    n_cmp = min(compare_N if compare_N is not None else L.N,
                L.N, (M.N_built - 2) * (q - 1) - 2)
    rep.compare_N = n_cmp
    T, _ = tensor_construct(M, q, n_cmp)
    rep.stages.append(["tensor", f"rebuilt to degree {n_cmp}"])
    pat_T, _ = detect(T)
    rep.pattern_T = pat_T.to_json()
    rep.passed = pat_T.truncate(n_cmp).entries == pattern.truncate(n_cmp).entries
    rep.stages.append(["compare", "equal" if rep.passed else "MISMATCH"])
    return rep
