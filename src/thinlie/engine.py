"""Truncated graded Lie algebras presented by generator adjoint actions.

An algebra is stored as: per-degree ordered bases (each basis element carries
its defining left-normed bracket word over the alphabet {x, y}), plus the
matrices of ad x and ad y from each component to the next.  The full bracket
is recovered from this data by the binary Jacobi recursion

    [u, [a, t]] = [[u, a], t] - [[u, t], a]

where t is the last letter of the second argument's defining word.  All
brackets use the right-action convention [u, z]: applying ad z to u appends
the letter z to u's word.

A GradedAlgebra is immutable after construction.  Concurrent readers are
safe; the bracket memo table is a plain dict (GIL-guarded).

An OperatorFamily is a graded linear map on such an algebra, one matrix per
degree.  It is the derivation type: ad z for z in L_1, the outer derivation
D of the derivations module, and the elements of a deflated algebra, which
the constructions module grows in Der(L) under the commutator bracket.  A
derivation is given by its images of x and y alone and filled to higher
degrees on first use by the word recursion D[a, t] = [D a, t] + [a, D t];
every fill writes the same values, so concurrent readers stay safe.  Its
coords(), the degree-1 values keyed by (shift, i, j), are what linear
algebra and zero tests read.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field as dc_field

from .gf import (
    PrimeField,
    mat_apply_rows,
    rank,
    solve_or_kernel,
    vec_add,
    vec_is_zero,
    vec_neg,
    vec_scale,
    vec_sub,
    vec_zero,
)


class DegreeOverflowError(Exception):
    """A bracket landed beyond the built degree range."""

    def __init__(self, degree, built):
        super().__init__(f"bracket lands in degree {degree}, built only to {built}")
        self.degree = degree
        self.built = built


@dataclass(frozen=True)
class BasisElement:
    gid: int
    degree: int
    index: int            # 0 or 1 within its component
    word: str             # defining left-normed word over {x, y}
    parent_gid: int | None
    letter: str | None    # last letter of word; None for the two generators

    @functools.cached_property
    def bidegree(self):
        return (self.word.count("x"), self.word.count("y"))


class GradedAlgebra:
    """A graded Lie algebra built to degree N_built, with public bound N."""

    def __init__(self, field: PrimeField, elements, comp_gids, ad_x, ad_y,
                 N: int, q: int | None = None, kind: str = "nottingham",
                 meta: dict | None = None):
        self.field = field
        self.p = field.p
        self.q = q
        self.kind = kind
        self.N = N
        self.N_built = len(comp_gids) - 1   # comp_gids[0] unused
        self.elements = tuple(elements)
        self.comp_gids = tuple(tuple(g) for g in comp_gids)
        # ad['x'][k]: one row per basis element of L_k, each row a coordinate
        # vector in L_{k+1}; defined for 1 <= k < N_built.
        self.ad = {"x": tuple(ad_x), "y": tuple(ad_y)}
        self.meta = dict(meta or {})
        self._memo = {}
        self._check_wellformed()

    # -- structural ---------------------------------------------------------

    def _check_wellformed(self):
        """Raise ValueError unless the presentation is a thin graded
        algebra's: bases of dimension 1 or 2 whose words extend their
        parents' by one letter, and ad matrices of matching shapes."""
        if not self.N_built >= self.N >= 1:
            raise ValueError(f"need N_built >= N >= 1, got N_built="
                             f"{self.N_built}, N={self.N}")
        if len(self.comp_gids[1]) != 2:
            raise ValueError("degree 1 must have basis x, y")
        for k in range(1, self.N_built + 1):
            gids = self.comp_gids[k]
            if not 1 <= len(gids) <= 2:
                raise ValueError(f"component {k} has dim {len(gids)}")
            for i, g in enumerate(gids):
                e = self.elements[g]
                if not (e.gid == g and e.degree == k and e.index == i
                        and len(e.word) == k):
                    raise ValueError(f"basis element {g} is malformed for "
                                     f"position {i} of component {k}")
                if k > 1:
                    par = self.elements[e.parent_gid]
                    if par.degree != k - 1 or e.word != par.word + e.letter:
                        raise ValueError(f"basis element {g} does not extend "
                                         f"its parent {e.parent_gid}")
        for k in range(1, self.N_built):
            for letter in ("x", "y"):
                rows = self.ad[letter][k]
                if len(rows) != self.dim(k) or any(
                        len(r) != self.dim(k + 1) for r in rows):
                    raise ValueError(f"ad {letter} on degree {k} is not a "
                                     f"{self.dim(k)}x{self.dim(k + 1)} matrix")

    def dim(self, k: int) -> int:
        if not 1 <= k <= self.N_built:
            return 0
        return len(self.comp_gids[k])

    def dims(self):
        """Per-degree dimensions for degrees 1..N."""
        return [self.dim(k) for k in range(1, self.N + 1)]

    def basis(self, k: int):
        return [self.elements[g] for g in self.comp_gids[k]]

    def gid(self, k: int, i: int) -> int:
        return self.comp_gids[k][i]

    def zero(self, k: int):
        return (k, vec_zero(self.dim(k)))

    def as_element(self, gid: int):
        e = self.elements[gid]
        v = [0] * self.dim(e.degree)
        v[e.index] = 1
        return (e.degree, tuple(v))

    def support(self):
        """Set of bidegrees of basis elements in degrees 1..N."""
        return {e.bidegree for e in self.elements if e.degree <= self.N}

    # -- adjoint action -----------------------------------------------------

    def apply_letter(self, elem, letter: str):
        k, v = elem
        if k + 1 > self.N_built:
            raise DegreeOverflowError(k + 1, self.N_built)
        return (k + 1, mat_apply_rows(self.ad[letter][k], v, self.p))

    def apply_word(self, elem, suffix: str):
        for t in suffix:
            elem = self.apply_letter(elem, t)
        return elem

    def eval_word(self, word: str):
        """Evaluate a left-normed word from scratch through the ad matrices."""
        root = word[0]
        elem = (1, (1, 0) if root == "x" else (0, 1))
        return self.apply_word(elem, word[1:])

    # -- bracket ------------------------------------------------------------

    def bracket_basis(self, gi: int, gj: int):
        """Coordinates of [e_gi, e_gj] in L_{deg_i + deg_j}; memoized."""
        memo = self._memo
        got = memo.get((gi, gj))
        if got is not None:
            return got
        ei, ej = self.elements[gi], self.elements[gj]
        dt = ei.degree + ej.degree
        if dt > self.N_built:
            raise DegreeOverflowError(dt, self.N_built)
        if ej.degree == 1:
            out = mat_apply_rows(self.ad[ej.word][ei.degree],
                                 self.as_element(gi)[1], self.p)
        elif ei.degree < ej.degree:
            out = vec_neg(self.bracket_basis(gj, gi), self.p)
        else:
            # split e_gj = [a, t] along its defining word
            a, t = ej.parent_gid, ej.letter
            w1 = (dt - 1, self.bracket_basis(gi, a))
            r1 = self.apply_letter(w1, t)[1]
            w2 = self.apply_letter(self.as_element(gi), t)
            r2 = self.bracket(w2, self.as_element(a))[1]
            out = vec_sub(r1, r2, self.p)
        memo[(gi, gj)] = out
        return out

    def bracket(self, u, v):
        """Bilinear bracket of two elements given as (degree, coords)."""
        du, cu = u
        dv, cv = v
        dt = du + dv
        if dt > self.N_built:
            raise DegreeOverflowError(dt, self.N_built)
        acc = list(vec_zero(self.dim(dt)))
        for i, ci in enumerate(cu):
            if not ci:
                continue
            gi = self.gid(du, i)
            for j, cj in enumerate(cv):
                if not cj:
                    continue
                w = self.bracket_basis(gi, self.gid(dv, j))
                m = ci * cj % self.p
                for s, ws in enumerate(w):
                    acc[s] = (acc[s] + m * ws) % self.p
        return (dt, tuple(acc))

    def bracket_mirror(self, u, v, _memo=None):
        """[u, v] recomputed by recursion on the first argument's word.

        Independent evaluation order used by the antisymmetry check; never
        consults the memo table of bracket_basis.
        """
        if _memo is None:
            _memo = {}
        du, cu = u
        dv, cv = v
        acc = list(vec_zero(self.dim(du + dv)))
        for i, ci in enumerate(cu):
            if not ci:
                continue
            for j, cj in enumerate(cv):
                if not cj:
                    continue
                w = self._mirror_basis(self.gid(du, i), self.gid(dv, j), _memo)
                m = ci * cj % self.p
                for s, ws in enumerate(w):
                    acc[s] = (acc[s] + m * ws) % self.p
        return (du + dv, tuple(acc))

    def _mirror_basis(self, gi, gj, memo):
        got = memo.get((gi, gj))
        if got is not None:
            return got
        ei, ej = self.elements[gi], self.elements[gj]
        dt = ei.degree + ej.degree
        if dt > self.N_built:
            raise DegreeOverflowError(dt, self.N_built)
        if ei.degree == 1:
            # [g, v] = -[v, g] = -(ad g)(v)
            out = vec_neg(mat_apply_rows(self.ad[ei.word][ej.degree],
                                         self.as_element(gj)[1], self.p), self.p)
        else:
            # e_gi = [a, t]:  [[a,t], v] = [a, [t, v]] + [[a, v], t]
            a, t = ei.parent_gid, ei.letter
            tv = vec_neg(self.apply_letter(self.as_element(gj), t)[1], self.p)
            term1 = list(vec_zero(self.dim(dt)))
            for s, c in enumerate(tv):
                if c:
                    w = self._mirror_basis(a, self.gid(ej.degree + 1, s), memo)
                    for s2, ws in enumerate(w):
                        term1[s2] = (term1[s2] + c * ws) % self.p
            av = self._mirror_basis(a, gj, memo)
            term2 = mat_apply_rows(self.ad[t][dt - 1], av, self.p)
            out = vec_add(tuple(term1), term2, self.p)
        memo[(gi, gj)] = out
        return out

    # -- derived quantities ---------------------------------------------------

    def centralizer_in_L1(self, k: int):
        """Basis of {z in L_1 : [L_k, z] = 0}, as L_1 coordinate tuples."""
        if not 1 <= k < self.N_built:
            raise ValueError(f"degree {k} out of built range")
        rows = []
        for i in range(self.dim(k)):
            u = self.as_element(self.gid(k, i))
            ix = self.apply_letter(u, "x")[1]
            iy = self.apply_letter(u, "y")[1]
            for s in range(len(ix)):
                rows.append((ix[s], iy[s]))
        sol = solve_or_kernel(tuple(rows), (0,) * len(rows), self.p)
        return sol.kernel

    def coclass_excess(self) -> int:
        """Number of 2-dimensional components among L_1..L_N."""
        return sum(1 for k in range(1, self.N + 1) if self.dim(k) == 2)

    def ad_operator(self, z_coords):
        """ad z for z in L_1: the derivation of shift 1 with x -> [x, z] and
        y -> [y, z], as an OperatorFamily."""
        zx, zy = z_coords
        rows = tuple(vec_add(vec_scale(zx, rx, self.p),
                             vec_scale(zy, ry, self.p), self.p)
                     for rx, ry in zip(self.ad["x"][1], self.ad["y"][1]))
        return OperatorFamily(self, 1, {1: rows})

    # -- export ----------------------------------------------------------------

    def to_structure_json(self) -> dict:
        """Structure-constant document (canonical interchange format)."""
        comps = []
        for k in range(1, self.N + 1):
            basis = self.basis(k)
            comps.append({
                "degree": k,
                "dims": len(basis),
                "basis_words": [e.word for e in basis],
                "bidegrees": [list(e.bidegree) for e in basis],
            })
        ad_x, ad_y = [], []
        for k in range(1, self.N):
            ad_x.append([list(r) for r in self.ad["x"][k]])
            ad_y.append([list(r) for r in self.ad["y"][k]])
        brackets = []
        for e1 in self.elements:
            for e2 in self.elements:
                if e2.gid < e1.gid or e1.degree + e2.degree > self.N:
                    continue
                coeffs = self.bracket_basis(e1.gid, e2.gid)
                if not vec_is_zero(coeffs):
                    brackets.append({"i": e1.gid, "j": e2.gid,
                                     "coeffs": list(coeffs)})
        return {
            "schema": "thinlie.structure.v1",
            "p": self.p,
            "q": self.q,
            "N": self.N,
            "components": comps,
            "ad_x": ad_x,
            "ad_y": ad_y,
            "brackets": brackets,
        }


class OperatorFamily:
    """A graded linear operator of constant degree shift, stored as one
    matrix per degree and read on degrees 1..algebra.N_built - shift.

    maps[k] has one row per basis element of L_k, each row a coordinate
    vector in L_{k+shift}.  The stored degrees are always 1..m for some m,
    and maps[1] holds the images of x and y.  A degree past m is filled on
    demand by the derivation recursion D[a, t] = [D a, t] + [a, D t] along
    defining words, so a derivation can be given by maps[1] alone.  `then`
    fills every degree its result is defined on, so a composition, which
    is in general no derivation, is never extended by that recursion.

    The operators deflation works with are derivations: ad u for u in L;
    (ad z)^p in characteristic p, by Leibniz's rule, because
    C(p, i) = 0 mod p for 0 < i < p; and commutators of derivations.  L is
    generated by x and y, so a derivation that vanishes on x and y
    vanishes on every degree where it is defined.  Hence two derivations of
    one shift are equal exactly when their degree-1 values are, and the
    degree-1 values (`coords`) give the same linear relations as the maps
    on all degrees; `op_bracket` needs only the generators as well.
    """

    def __init__(self, algebra: GradedAlgebra, shift: int, maps: dict):
        self.algebra = algebra
        self.shift = shift
        self.maps = dict(maps)

    def _rows(self, k: int):
        """The matrix on degree k, filled by the derivation recursion from
        the highest stored degree up."""
        L = self.algebra
        if not 1 <= k <= L.N_built - self.shift:
            raise DegreeOverflowError(k + self.shift, L.N_built)
        maps = self.maps
        if k in maps:
            return maps[k]
        gen = {L.elements[g].word: (1 + self.shift, row)
               for g, row in zip(L.comp_gids[1], maps[1], strict=True)}
        for j in range(len(maps) + 1, k + 1):
            rows = []
            for e in L.basis(j):
                a = L.elements[e.parent_gid]
                da = L.apply_letter((j - 1 + self.shift, maps[j - 1][a.index]),
                                    e.letter)[1]
                at = L.bracket(L.as_element(a.gid), gen[e.letter])[1]
                rows.append(vec_add(da, at, L.p))
            maps[j] = tuple(rows)
        return maps[k]

    def apply(self, elem):
        k, v = elem
        return (k + self.shift, mat_apply_rows(self._rows(k), v, self.algebra.p))

    # then and op_bracket are wrapped by name by bench/tracing.py
    def then(self, other: "OperatorFamily") -> "OperatorFamily":
        """self followed by other, on every degree where both are defined."""
        top = self.algebra.N_built - self.shift - other.shift
        maps = {k: tuple(other.apply((k + self.shift, r))[1]
                         for r in self._rows(k)) for k in range(1, top + 1)}
        return OperatorFamily(self.algebra, self.shift + other.shift, maps)

    def add(self, other: "OperatorFamily") -> "OperatorFamily":
        if self.shift != other.shift:
            raise ValueError(f"cannot add operators of shifts {self.shift} "
                             f"and {other.shift}")
        p = self.algebra.p
        maps = {}
        for k in self.maps.keys() & other.maps.keys():
            maps[k] = tuple(vec_add(r1, r2, p) for r1, r2 in
                            zip(self.maps[k], other.maps[k], strict=True))
        return OperatorFamily(self.algebra, self.shift, maps)

    def scale(self, c: int) -> "OperatorFamily":
        p = self.algebra.p
        return OperatorFamily(self.algebra, self.shift,
                              {k: tuple(vec_scale(c, r, p) for r in rows)
                               for k, rows in self.maps.items()})

    def op_bracket(self, other: "OperatorFamily") -> "OperatorFamily":
        """Lie bracket of two derivations, matching the right-action
        convention.

        With ad_u(w) = [w, u], the map u -> ad_u is a homomorphism onto
        operators under  [A, B] := B o A - A o B.  The commutator of two
        derivations is a derivation, so it is computed on x and y only.
        """
        p = self.algebra.p
        rows = tuple(
            vec_sub(other.apply((1 + self.shift, ra))[1],
                    self.apply((1 + other.shift, rb))[1], p)
            for ra, rb in zip(self._rows(1), other._rows(1), strict=True))
        return OperatorFamily(self.algebra, self.shift + other.shift, {1: rows})

    def coords(self) -> dict:
        """The nonzero entries of the images of x and y, as
        {(shift, i, j): coefficient}.  For a derivation this is empty
        exactly when it vanishes, and two derivations are equal exactly
        when their coords are; the shift in the key keeps derivations of
        different shifts apart."""
        return {(self.shift, i, j): c for i, row in enumerate(self._rows(1))
                for j, c in enumerate(row) if c}


class AlgebraBuilder:
    """Incremental degree-by-degree constructor used by the pattern compiler
    and the abstract-structure converters."""

    def __init__(self, field: PrimeField, q: int | None = None,
                 kind: str = "nottingham"):
        self.field = field
        self.q = q
        self.kind = kind
        self.elements = []
        self.comp_gids = [()]
        self.ad_x = [None]
        self.ad_y = [None]

    def add_degree(self, entries):
        """entries: list of (word, parent_gid, letter); returns list of gids."""
        k = len(self.comp_gids)
        gids = []
        for i, (word, parent, letter) in enumerate(entries):
            gid = len(self.elements)
            self.elements.append(BasisElement(gid, k, i, word, parent, letter))
            gids.append(gid)
        self.comp_gids.append(tuple(gids))
        self.ad_x.append(None)
        self.ad_y.append(None)
        return gids

    def set_ad(self, k, ad_x_rows, ad_y_rows):
        self.ad_x[k] = tuple(tuple(r) for r in ad_x_rows)
        self.ad_y[k] = tuple(tuple(r) for r in ad_y_rows)

    def finish(self, N: int, meta: dict | None = None) -> GradedAlgebra:
        built = len(self.comp_gids) - 1
        ad_x = [self.ad_x[k] if k < built else None for k in range(built + 1)]
        ad_y = [self.ad_y[k] if k < built else None for k in range(built + 1)]
        missing = [k for k in range(1, built) if ad_x[k] is None]
        if missing:
            raise ValueError(f"adjoint maps not set in degrees {missing}")
        return GradedAlgebra(self.field, self.elements, self.comp_gids,
                             ad_x, ad_y, N=N, q=self.q, kind=self.kind,
                             meta=meta)


# -- validation ----------------------------------------------------------------

@dataclass
class CheckResult:
    name: str
    ok: bool
    witnesses: list = dc_field(default_factory=list)
    detail: str = ""


@dataclass
class ValidationReport:
    checks: list

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def failures(self):
        return [c for c in self.checks if not c.ok]

    def failure_degrees(self, algebra) -> list:
        """Total degrees of the pair/triple witnesses, ascending: the
        empirical record of where an inconsistent structure first breaks.

        A witness is a tuple of basis gids whose degrees are summed: a pair
        (antisymmetry), the pair of a (gid_a, gid_b, s) bidegree witness, a
        basis triple (jacobi_triples), or a basis pair and a generator
        (gid_a, gid_b, gid_s) for jacobi, whose degree is deg a + deg b + 1.
        Only as many witnesses as validate kept are read."""
        degs = set()
        for c in self.failures():
            if c.name not in ("jacobi", "jacobi_triples", "antisymmetry",
                              "bidegree"):
                continue
            for w in c.witnesses:
                gids = w[:3] if c.name != "bidegree" else w[:2]
                degs.add(sum(algebra.elements[g].degree for g in gids))
        return sorted(degs)

    def summary(self) -> str:
        lines = []
        for c in self.checks:
            status = "pass" if c.ok else "FAIL"
            extra = f" ({len(c.witnesses)} witnesses)" if not c.ok else ""
            lines.append(f"{c.name}: {status}{extra}")
        return "\n".join(lines)

    def to_json(self) -> dict:
        return {
            "schema": "thinlie.validation.v1",
            "ok": self.ok,
            "checks": [{"name": c.name, "ok": c.ok, "detail": c.detail,
                        "witnesses": [list(map(str, w)) if isinstance(w, tuple)
                                      else str(w) for w in c.witnesses[:20]]}
                       for c in self.checks],
        }


NOTTINGHAM_CHECKS = ("dimensions", "covering", "words", "antisymmetry",
                     "jacobi", "sandwich_y", "ad_x_power_q", "bidegree")
MAXCLASS_CHECKS = ("dimensions", "covering", "words", "antisymmetry",
                   "jacobi", "bidegree")


def validate(L: GradedAlgebra, checks=None, limit: int | None = None,
             max_witnesses: int = 10) -> ValidationReport:
    """Run the axiom suite on a built algebra.

    limit bounds the total degree B used for pair/triple checks; it defaults
    to L.N.  Failures carry witnesses (degrees / basis gids) rather than
    raising.

    The "jacobi" check tests J(a, b, s) = [[a,b],s] + [[b,s],a] + [[s,a],b]
    = 0 only for basis pairs a, b and generators s in {x, y}, with
    deg a + deg b + 1 <= B: O(N^2) brackets.  It proves the Jacobi identity
    on every triple of total degree <= B only together with "antisymmetry",
    which makes the bracket alternating up to degree B.  Let A = L / L_{>B};
    it is anticommutative and generated by x and y.  J is alternating, so
    Der := {z : ad z is a derivation of A} contains x and y.  For z1, z2 in
    Der, J(., z1, z2) = 0 gives ad [z1,z2] = [ad z1, ad z2], a commutator of
    derivations, hence a derivation: Der is a subalgebra, so Der = A and J
    vanishes on A.  Applied with B one below the first failing degree of
    the generator check, the same argument shows that the two checks fail
    first in the same total degree.  The cubic loop over all basis triples
    stays available as the opt-in check "jacobi_triples", in no default
    suite, as an independent oracle.
    """
    if checks is None:
        checks = NOTTINGHAM_CHECKS if L.kind == "nottingham" else MAXCLASS_CHECKS
    B = min(limit if limit is not None else L.N, L.N_built)
    p = L.p
    out = []

    def lines_of(dim):
        if dim == 1:
            return [(1,)]
        return [(1, t) for t in range(p)] + [(0, 1)]

    for name in checks:
        witnesses = []
        if name == "dimensions":
            ok = L.dim(1) == 2 and all(1 <= L.dim(k) <= 2 for k in range(1, B + 1))
            if not ok:
                witnesses = [k for k in range(1, B + 1) if not 1 <= L.dim(k) <= 2]
        elif name == "covering":
            for k in range(1, B):
                dnext = L.dim(k + 1)
                for ln in lines_of(L.dim(k)):
                    u = (k, ln)
                    rows = (L.apply_letter(u, "x")[1], L.apply_letter(u, "y")[1])
                    if rank(rows, p) != dnext:
                        witnesses.append((k, ln))
            ok = not witnesses
        elif name == "words":
            for e in L.elements:
                got = L.eval_word(e.word)
                if got != L.as_element(e.gid):
                    witnesses.append(e.gid)
            ok = not witnesses
        elif name == "antisymmetry":
            mirror_memo = {}
            for e1 in L.elements:
                for e2 in L.elements:
                    if e1.degree + e2.degree > B or e2.gid < e1.gid:
                        continue
                    u, v = L.as_element(e1.gid), L.as_element(e2.gid)
                    lhs = L.bracket(u, v)[1]
                    rhs = L.bracket_mirror(u, v, mirror_memo)[1]
                    if lhs != rhs:
                        witnesses.append((e1.gid, e2.gid))
                    if e1.gid == e2.gid and not vec_is_zero(lhs):
                        witnesses.append((e1.gid, e1.gid))
            ok = not witnesses
        elif name == "jacobi":
            witnesses = _jacobi_generators(L, B, max_witnesses)
            ok = not witnesses
        elif name == "jacobi_triples":
            witnesses = _jacobi_triples(L, B, max_witnesses)
            ok = not witnesses
        elif name == "sandwich_y":
            for k in range(1, L.N_built - 1):
                for s in range(L.dim(k)):
                    u = L.as_element(L.gid(k, s))
                    if not vec_is_zero(L.apply_word(u, "yy")[1]):
                        witnesses.append((k, s))
            ok = not witnesses
        elif name == "ad_x_power_q":
            qq = L.q
            ok = True
            if qq:
                for k in range(1, L.N_built + 1 - qq):
                    for s in range(L.dim(k)):
                        u = L.as_element(L.gid(k, s))
                        if not vec_is_zero(L.apply_word(u, "x" * qq)[1]):
                            witnesses.append((k, s))
                ok = not witnesses
        elif name == "bidegree":
            for e1 in L.elements:
                for e2 in L.elements:
                    if e2.gid < e1.gid or e1.degree + e2.degree > B:
                        continue
                    w = L.bracket_basis(e1.gid, e2.gid)
                    want = (e1.bidegree[0] + e2.bidegree[0],
                            e1.bidegree[1] + e2.bidegree[1])
                    tgt = L.basis(e1.degree + e2.degree)
                    for s, c in enumerate(w):
                        if c and tgt[s].bidegree != want:
                            witnesses.append((e1.gid, e2.gid, s))
            ok = not witnesses
        else:
            raise ValueError(f"unknown check {name!r}")
        out.append(CheckResult(name, ok, witnesses[:max_witnesses]))
    return ValidationReport(out)


def _jacobi_generators(L: GradedAlgebra, B: int, max_witnesses: int) -> list:
    """Witnesses (gid_a, gid_b, gid_s) of J(a, b, s) != 0 over basis pairs
    gid_a <= gid_b and generators s, with deg a + deg b + 1 <= B, in
    ascending total degree.  [s, a] is taken as -[a, s], which antisymmetry
    justifies."""
    p = L.p
    gens = [(g, L.elements[g].word) for g in L.comp_gids[1]]
    witnesses = []
    for total in range(3, B + 1):
        for da in range(1, (total - 1) // 2 + 1):
            db = total - 1 - da
            for ga in L.comp_gids[da]:
                a = L.as_element(ga)
                for gb in L.comp_gids[db]:
                    if gb < ga:
                        continue
                    b = L.as_element(gb)
                    ab = L.bracket(a, b)
                    for gs, s in gens:
                        j = L.apply_letter(ab, s)[1]
                        j = vec_add(j, L.bracket(L.apply_letter(b, s), a)[1], p)
                        j = vec_sub(j, L.bracket(L.apply_letter(a, s), b)[1], p)
                        if not vec_is_zero(j):
                            witnesses.append((ga, gb, gs))
                            if len(witnesses) >= max_witnesses:
                                return witnesses
    return witnesses


def _jacobi_triples(L: GradedAlgebra, B: int, max_witnesses: int) -> list:
    """Witnesses (gid_1, gid_2, gid_3) of J != 0 over all basis triples
    gid_1 <= gid_2 <= gid_3 of total degree <= B: the O(N^3) oracle."""
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
                    if len(witnesses) >= max_witnesses:
                        return witnesses
    return witnesses
