"""The outer derivation D with Dx = 0, Dy = [y x^{q-2} y], the extraction of
a maximal-class algebra from an algebra whose post-second diamonds are all of
infinite type or fake of type 1, and the round trip back through the tensor
construction.

D is the OperatorFamily of shift q - 1 given by its values on x and y and
extended by recursion on defining words; it is verified to satisfy the
Leibniz rule exhaustively.  The extension L + F X treats the formal
element X as acting on the right, [u, X] = D(u), matching the extraction
recursion U_{j+1} = [U_j X].
"""

from __future__ import annotations

from .engine import GradedAlgebra, OperatorFamily
from .gf import vec_add, vec_is_zero, vec_scale
from .maxclass import CentralizerSequence, build_maxclass
from .patterns import DiamondPattern, detect


class ClassGateError(Exception):
    """The input algebra is not in the infinite-or-fake class this
    correspondence covers."""


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


def build_D(L: GradedAlgebra, pattern: DiamondPattern | None = None,
            enforce_class: bool = True) -> OperatorFamily:
    """D as the derivation of shift q - 1 with Dx = 0 and Dy = [y x^{q-2} y]:
    an operator family that extends to every degree k <= N_built - (q - 1)
    by the word recursion D([u, t]) = [D(u), t] + [u, D(t)]."""
    q = L.q
    if enforce_class:
        if pattern is None:
            pattern, _ = detect(L)
        if not in_tq2_class(pattern):
            raise ClassGateError(
                "derivation requires all post-second diamonds of infinite "
                f"type or fake of type 1; detected {pattern.to_json()['entries']!r}")
    dy = L.eval_word("y" + "x" * (q - 2) + "y")
    return OperatorFamily(L, q - 1, {1: (L.zero(q)[1], dy[1])})


class LeibnizReport:
    def __init__(self, pairs_checked: int, failures: list,
                 instance_checks: list):
        self.pairs_checked = pairs_checked
        self.failures = failures
        self.instance_checks = instance_checks   # (label, degree, ok)

    @property
    def ok(self) -> bool:
        return not self.failures and all(ok for _, _, ok in self.instance_checks)

    def to_json(self) -> dict:
        return {
            "schema": "thinlie.leibniz.v1",
            "ok": self.ok,
            "pairs_checked": self.pairs_checked,
            "failures": [list(map(int, f)) for f in self.failures[:20]],
            "instance_checks": [[lbl, deg, ok]
                                for lbl, deg, ok in self.instance_checks],
        }


def verify_leibniz(L: GradedAlgebra, D: OperatorFamily,
                   pattern: DiamondPattern | None = None,
                   limit: int | None = None) -> LeibnizReport:
    """D([u,v]) = [D(u), v] + [u, D(v)] on all basis pairs within budget,
    plus the coefficient facts at diamond-to-diamond steps and the bidegree
    homogeneity of D."""
    p, q = L.p, L.q
    shift = q - 1
    budget = min(limit if limit is not None else L.N, L.N_built - shift)
    fails = []
    pairs = 0
    for e1 in L.elements:
        for e2 in L.elements:
            if e2.gid < e1.gid:
                continue
            if e1.degree + e2.degree > budget:
                continue
            u, v = L.as_element(e1.gid), L.as_element(e2.gid)
            lhs = D.apply(L.bracket(u, v))
            rhs = vec_add(L.bracket(D.apply(u), v)[1],
                          L.bracket(u, D.apply(v))[1], p)
            pairs += 1
            if lhs[1] != rhs:
                fails.append((e1.gid, e2.gid))
    checks = []
    # bidegree homogeneity: shift (q-2, 1) on every nonzero image
    homog = True
    for e in L.elements:
        if e.degree + shift > L.N_built or e.degree > budget:
            continue
        img = D.apply(L.as_element(e.gid))
        want = (e.bidegree[0] + q - 2, e.bidegree[1] + 1)
        tgt = L.basis(e.degree + shift)
        for s, c in enumerate(img[1]):
            if c and tgt[s].bidegree != want:
                homog = False
    checks.append(("bidegree shift (q-2,1)", 0, homog))
    if pattern is None:
        pattern, _ = detect(L)
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


def extract_M(L: GradedAlgebra, D: OperatorFamily, N_M: int | None = None):
    """Inside L + F X with X = D and Y = [y x^{q-1}], run the recursion
    U_{j+1} = [U_j X] if [U_j Y] = 0 else [U_j Y], reading off the two-step
    centralizer sequence.  Returns (MaxClassAlgebra, CentralizerSequence)."""
    p, q = L.p, L.q
    Y = L.eval_word("y" + "x" * (q - 1))
    U = Y
    entries = []
    j = 1
    while True:
        degU = U[0]
        can_y = degU + q <= L.N_built
        can_x = degU + D.shift <= L.N_built
        if not (can_y and can_x):
            break
        uy = L.bracket(U, Y)
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
        if N_M is not None and j > N_M + 2:
            break
    n_m = N_M if N_M is not None else len(entries) - 1
    n_m = min(n_m, len(entries) - 1)
    if n_m < 2:
        raise ExtractionError(
            f"input algebra too short to extract anything: built to degree "
            f"{L.N_built}, it yields {len(entries)} centralizer entries")
    seq = CentralizerSequence(p, entries)
    M = build_maxclass(seq, n_m)
    return M, seq


class RoundtripReport:
    def __init__(self, stages: list | None = None,
                 extracted_sequence: str = "", pattern_L: dict | None = None,
                 pattern_T: dict | None = None, passed: bool = False,
                 compare_N: int = 0):
        self.stages = [] if stages is None else stages
        self.extracted_sequence = extracted_sequence
        self.pattern_L = pattern_L
        self.pattern_T = pattern_T
        self.passed = passed
        self.compare_N = compare_N

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
    D = build_D(L, pattern=pattern, enforce_class=False)
    rep.stages.append(["derivation", f"built on degrees 1..{L.N_built - D.shift}"])
    M, seq = extract_M(L, D)
    rep.extracted_sequence = "".join(seq.entries)
    rep.stages.append(["extraction", f"sequence of length {len(seq)}, "
                       f"maximal-class algebra to degree {M.N}"])
    n_cmp = min(compare_N if compare_N is not None else L.N,
                L.N, (M.algebra.N_built - 2) * (q - 1) - 2)
    rep.compare_N = n_cmp
    T = tensor_construct(M, q, n_cmp)
    rep.stages.append(["tensor", f"rebuilt to degree {n_cmp}"])
    pat_T, _ = detect(T.algebra)
    rep.pattern_T = pat_T.to_json()
    rep.passed = pat_T.truncate(n_cmp).entries == pattern.truncate(n_cmp).entries
    rep.stages.append(["compare", "equal" if rep.passed else "MISMATCH"])
    return rep
