"""Explicit algebra constructions: the truncated divided power algebra, the
tensor construction producing a Nottingham algebra from a maximal-class
algebra, deflation, and the iterated-deflation family N(q, r).
"""

from __future__ import annotations

from dataclasses import dataclass

from .engine import AlgebraBuilder, GradedAlgebra, OperatorFamily, validate
from .gf import PrimeField, lucas_binom, smallest_prime_factor, solve_or_kernel
from .maxclass import MaxClassAlgebra
from .patterns import detect


class ConstructionError(Exception):
    pass


# -- divided power algebra -----------------------------------------------------

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


class DividedPowerAlgebra:
    """F[eps; q]: basis eps^(0) = 1, ..., eps^(q-1), with its standard
    derivation eps^(i) -> eps^(i-1)."""

    def __init__(self, q: int, p: int):
        if q % p or q < p:
            raise ValueError("q must be a positive power of p")
        self.q = q
        self.p = p

    def product(self, i: int, j: int):
        return divided_power_product(i, j, self.q, self.p)

    def derive(self, i: int):
        """Image index of eps^(i) under the standard derivation, or None."""
        if not 0 <= i <= self.q - 1:
            raise ValueError(f"index {i} out of range")
        return i - 1 if i > 0 else None


# -- generic conversion of an abstract bracket structure into engine form ------

def _reduce(v: dict, ech, p: int) -> dict:
    v = {k: c % p for k, c in v.items() if c % p}
    for piv, b in ech:
        c = v.get(piv)
        if c:
            for k2, c2 in b.items():
                nv = (v.get(k2, 0) - c * c2) % p
                if nv:
                    v[k2] = nv
                elif k2 in v:
                    del v[k2]
    return v


def engine_from_abstract(field: PrimeField, q, n_built: int, N: int,
                         x_vec: dict, y_vec: dict, bracket,
                         kind: str = "nottingham", meta: dict | None = None):
    """Grow the subalgebra generated by two abstract degree-1 elements,
    degree by degree, and express it in engine form.

    `bracket` maps two abstract vectors (dicts key -> coefficient, keys
    sortable) to their abstract bracket.  Defining words are assigned
    greedily in an order that reproduces the pattern compiler's basis
    convention.  Returns (GradedAlgebra, {gid: abstract vector}).
    """
    p = field.p
    b = AlgebraBuilder(field, q=q, kind=kind)
    b.add_degree([("x", None, None), ("y", None, None)])
    gens = {"x": x_vec, "y": y_vec}
    abs_of = {0: x_vec, 1: y_vec}
    cur = [x_vec, y_vec]
    for k in range(1, n_built):
        cur_els = [b.elements[g] for g in b.comp_gids[k]]
        images = {}
        for i, v in enumerate(cur):
            for t in ("x", "y"):
                images[(i, t)] = bracket(v, gens[t])
        # candidate order mirrors the pattern compiler's basis convention:
        # x-chains continue on chain words, the component after a diamond is
        # rooted at [w x y], and degree 2 at [y x]
        if k == 1:
            order = [(0, "x"), (1, "x"), (0, "y"), (1, "y")]
        elif len(cur) == 2:
            order = [(0, "y"), (1, "x"), (0, "x"), (1, "y")]
        else:
            order = [(0, "x"), (0, "y")]
        ech, chosen = [], []
        for i, t in order:
            w = _reduce(dict(images[(i, t)]), ech, p)
            if w:
                piv = min(w)
                inv = pow(w[piv], -1, p)
                ech.append((piv, {kk: cc * inv % p for kk, cc in w.items()}))
                chosen.append((i, t))
        if not chosen:
            raise ConstructionError(f"generated algebra vanishes in degree {k + 1}")
        if len(chosen) > 2:
            raise ConstructionError(
                f"degree {k + 1} has dimension {len(chosen)}; not thin")
        new_vecs = [dict(images[c]) for c in chosen]
        gids = b.add_degree([(cur_els[i].word + t, cur_els[i].gid, t)
                             for (i, t) in chosen])
        keys = sorted({kk for v in images.values() for kk in v})
        rows = tuple(tuple(v.get(kk, 0) % p for v in new_vecs) for kk in keys)

        def coords(v):
            sol = solve_or_kernel(rows, tuple(v.get(kk, 0) % p for kk in keys), p)
            if not sol.consistent:
                raise ConstructionError(
                    f"bracket image leaves the generated component in degree {k + 1}")
            return sol.solution

        ad = {"x": [], "y": []}
        for t in ("x", "y"):
            for i in range(len(cur)):
                ad[t].append(coords(images[(i, t)]))
        b.set_ad(k, ad["x"], ad["y"])
        for gid, v in zip(gids, new_vecs):
            abs_of[gid] = v
        cur = new_vecs
    return b.finish(N, meta=meta), abs_of


# -- tensor construction ---------------------------------------------------------

@dataclass
class TensorConstruction:
    algebra: GradedAlgebra
    ambient: dict          # gid -> ambient vector {('e', m_gid, j) | ('d',): coeff}
    maxclass: MaxClassAlgebra
    report: object


def tensor_construct(M: MaxClassAlgebra, q: int, N: int, guard: int = 2,
                     run_validation: bool = True) -> TensorConstruction:
    """Subalgebra of M (x) F[eps; q] + F (1 (x) d) generated by
    x = -1 (x) d  and  y = X (x) eps^(q-2) + Y (x) eps^(q-1),
    expressed as an engine algebra in the total grading.

    Ambient keys: ('e', g, j) is (M basis element g) (x) eps^(j); ('d',) is x.
    """
    Ma = M.algebra
    p = Ma.p
    field = Ma.field
    n_built = N + guard
    need = -(-n_built // (q - 1)) + 2
    if Ma.N_built < need:
        raise ConstructionError(
            f"maximal-class input built to {Ma.N_built}; need {need} for N={N}")

    def bracket(u: dict, v: dict) -> dict:
        out = {}

        def acc(key, c):
            c %= p
            if not c:
                return
            nv = (out.get(key, 0) + c) % p
            if nv:
                out[key] = nv
            elif key in out:
                del out[key]

        for k1, c1 in u.items():
            for k2, c2 in v.items():
                c = c1 * c2 % p
                if k1 == ("d",) and k2 == ("d",):
                    continue
                if k2 == ("d",):
                    # [A (x) eps^(j), -1 (x) d] = A (x) eps^(j-1)
                    _, g, j = k1
                    if j > 0:
                        acc(("e", g, j - 1), c)
                elif k1 == ("d",):
                    _, g, j = k2
                    if j > 0:
                        acc(("e", g, j - 1), -c)
                else:
                    _, g1, j1 = k1
                    _, g2, j2 = k2
                    prod = divided_power_product(j1, j2, q, p)
                    if prod is None:
                        continue
                    cj, jj = prod
                    w = Ma.bracket_basis(g1, g2)
                    d = Ma.elements[g1].degree + Ma.elements[g2].degree
                    for s, ws in enumerate(w):
                        if ws:
                            acc(("e", Ma.gid(d, s), jj), c * cj * ws)
        return out

    x_vec = {("d",): 1}
    y_vec = {("e", Ma.gid(1, 0), q - 2): 1, ("e", Ma.gid(1, 1), q - 1): 1}
    L, ambient = engine_from_abstract(
        field, q, n_built, N, x_vec, y_vec, bracket,
        meta={"construction": "tensor", "q": q})
    report = validate(L) if run_validation else None
    return TensorConstruction(L, ambient, M, report)


# -- deflation ---------------------------------------------------------------------

def _lines(p: int):
    return [(1, t) for t in range(p)] + [(0, 1)]


def _closure_second_diamond(basis1, p: int, L: GradedAlgebra, n_built: int):
    """Degree of the first 2-dimensional component of the deflated algebra,
    found by closing the degree-1 operator span; None if there is none in
    range.  The q = p algebra keeps its second diamond, a deflation of the
    parameter-(q, r) algebra jumps back up to q r, so the value cannot be
    read off the input parameters alone."""
    cur = basis1
    for k in range(2, n_built + 1):
        dom = max(1, L.N_built - p * k)
        ech, nxt = [], []
        for c in cur:
            for g in basis1:
                op = c.op_bracket(g)
                w = _reduce(_op_flatten(op, dom), ech, p)
                if w:
                    piv = min(w)
                    inv = pow(w[piv], -1, p)
                    ech.append((piv, {kk: cc * inv % p
                                      for kk, cc in w.items()}))
                    nxt.append(op)
        if not nxt:
            raise ConstructionError(f"deflated algebra vanishes in degree {k}")
        if len(nxt) > 2:
            raise ConstructionError(
                f"deflated degree {k} has dimension {len(nxt)}; not thin")
        if len(nxt) == 2:
            return k
        cur = nxt
    return None


def _op_flatten(op: OperatorFamily, dom_max: int) -> dict:
    out = {}
    for k, rows in op.maps.items():
        if k > dom_max:
            continue
        for i, row in enumerate(rows):
            for j, c in enumerate(row):
                if c:
                    out[(k, i, j)] = c
    return out


def deflate(L: GradedAlgebra, N_out: int, guard: int = 2,
            run_validation: bool = True):
    """Deflation: the subalgebra of operators generated by (ad L_1)^p and
    ad(L_p), with degrees divided by p, re-expressed as an engine algebra.

    Works in the faithful adjoint operator representation; elements of
    rescaled degree k are operator families of shift k p.  Requires L built
    to at least p (N_out + guard) + p.
    """
    p = L.p
    n_built = N_out + guard
    if L.N_built < p * n_built + p:
        raise ConstructionError(
            f"input built to {L.N_built}; deflation to {N_out} (+{guard} guard) "
            f"needs {p * n_built + p}")

    # generator operators: (ad z)^p over all p+1 lines z of L_1 (p-th powers
    # are not additive in characteristic p), plus ad u for u in a basis of L_p
    pw = []
    for z in _lines(p):
        op = L.ad_operator(z)
        acc = op
        for _ in range(p - 1):
            acc = acc.then(op)
        pw.append(acc)
    for i in range(L.dim(p)):
        u = L.as_element(L.gid(p, i))
        maps = {}
        for k in range(1, L.N_built - p + 1):
            rows = []
            for s in range(L.dim(k)):
                w = L.bracket(L.as_element(L.gid(k, s)), u)
                rows.append(w[1])
            maps[k] = tuple(rows)
        pw.append(OperatorFamily(L, p, maps))

    dom1 = L.N_built - p * n_built
    ech, basis1 = [], []
    for op in pw:
        w = _reduce(_op_flatten(op, dom1), ech, p)
        if w:
            piv = min(w)
            inv = pow(w[piv], -1, p)
            ech.append((piv, {kk: cc * inv % p for kk, cc in w.items()}))
            basis1.append(op)
    if len(basis1) != 2:
        raise ConstructionError(
            f"deflated degree 1 has dimension {len(basis1)}; not thin")

    q_out = _closure_second_diamond(basis1, p, L, n_built) if L.kind == "nottingham" else None
    xop, yop = _standard_generators(basis1, dom1, p, L, q_out)

    # abstract vectors are flattened operator matrices; the OperatorFamily
    # behind each flattening is kept in a side table so brackets can compose
    table = {}

    def register(op: OperatorFamily, defl_deg: int) -> dict:
        key_dom = L.N_built - p * min(defl_deg, n_built)
        flat = _op_flatten(op, key_dom)
        if not flat:
            return {}
        table[tuple(sorted(flat.items()))] = op
        return flat

    def lookup(v: dict) -> OperatorFamily:
        return table[tuple(sorted(v.items()))]

    def bracket(u: dict, v: dict) -> dict:
        A, B = lookup(u), lookup(v)
        out = A.op_bracket(B)
        return register(out, (A.shift + B.shift) // p)

    x_vec = register(xop, 1)
    y_vec = register(yop, 1)
    field = L.field
    Ld, _ = engine_from_abstract(field, q_out, n_built, N_out,
                                 x_vec, y_vec, bracket, kind=L.kind,
                                 meta={"construction": "deflation",
                                       "source_q": L.q})
    report = validate(Ld) if run_validation else None
    return Ld, report


def _standard_generators(basis1, dom1: int, p: int, L: GradedAlgebra, q_out):
    """Pick standard generators from a 2-dimensional degree-1 operator space:
    y is the sandwich direction, x a complement normalized so the second
    diamond (in degree q_out) carries the -1 relation."""

    def combo(line):
        a, b = line
        return basis1[0].scale(a).add(basis1[1].scale(b))

    def is_zero_on(op, dom):
        return all(all(all(c == 0 for c in row) for row in op.maps[k])
                   for k in op.maps if k <= dom)

    sandwiches = []
    for line in _lines(p):
        z = combo(line)
        ok = True
        for w in basis1:
            t = w.op_bracket(z).op_bracket(z)
            if not is_zero_on(t, dom1):
                ok = False
                break
        if ok:
            sandwiches.append(line)
    for yline in sandwiches:
        yop = combo(yline)
        for xline in _lines(p):
            if xline == yline:
                continue
            xop = combo(xline)
            if q_out is None:
                return xop, yop
            # chain y x^{q-2}: must stay nonzero, then satisfy the second
            # diamond relations
            v = yop
            okchain = True
            for _ in range(q_out - 2):
                v = v.op_bracket(xop)
                if is_zero_on(v, dom1):
                    okchain = False
                    break
            if not okchain:
                continue
            vx = v.op_bracket(xop)
            vy = v.op_bracket(yop)
            if is_zero_on(vx.op_bracket(xop), dom1) and \
               is_zero_on(vy.op_bracket(yop), dom1):
                lhs = vy.op_bracket(xop)
                rhs = vx.op_bracket(yop).scale(-2)
                diff = lhs.add(rhs.scale(-1))
                if is_zero_on(diff, dom1):
                    return xop, yop
    raise ConstructionError("no standard generator pair found in deflation")


# -- N(q, r) ------------------------------------------------------------------------

def nottingham_Nqr(q: int, r: int, N: int, p: int | None = None,
                   run_validation: bool = True):
    """Iterated deflation of the type -1 family with parameter q r, giving
    the Nottingham algebra with second diamond q and fake diamonds between
    the genuine ones.  Returns (algebra, detected pattern, report)."""
    from .patterns import compile_pattern, family_pattern

    if p is None:
        p = smallest_prime_factor(q)
    j = 0
    rr = r
    while rr % p == 0:
        rr //= p
        j += 1
    if rr != 1 or j < 1:
        raise ConstructionError("r must be a positive power of p")
    n_src = N
    for _ in range(j):
        n_src = p * (n_src + 2) + p
    pat = family_pattern("a", p, q * r, n_src + q * r + 5)
    L, _ = compile_pattern(pat, n_src, run_validation=False)
    report = None
    for step in range(j):
        target = N if step == j - 1 else (L.N_built - p) // p - 2
        L, report = deflate(L, target,
                            run_validation=run_validation and step == j - 1)
    pattern, _ = detect(L)
    L.meta["nqr"] = {"q": q, "r": r, "pattern": pattern.to_json()}
    return L, pattern, report
