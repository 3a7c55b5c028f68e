"""Explicit algebra constructions: the tensor construction producing a
Nottingham algebra from a maximal-class algebra, deflation, and the
iterated-deflation family N(q, r).
"""

from __future__ import annotations

from .engine import AlgebraBuilder, GradedAlgebra
from .gf import echelon_add, solve_or_kernel, vec_add, vec_scale
from .patterns import (ConstructionError, PatternError, char_of_q, check_p,
                       check_q, compile_pattern, deflation_steps, detect,
                       family_pattern)


# -- generic conversion of an abstract bracket structure into engine form ------

def engine_from_abstract(p: int, q, n_built: int, N: int,
                         x_gen, y_gen, bracket, coords):
    """Grow the subalgebra generated by two abstract degree-1 elements,
    degree by degree, and express it in engine form.

    Elements are opaque objects: `bracket` maps two of them to their
    bracket, and `coords` maps one to its coordinates {key: coefficient}
    (keys sortable, zero coefficients may be left out), which is all the
    linear algebra reads.  Parents and letters are assigned greedily in an
    order that reproduces the pattern compiler's basis convention: the
    candidates echelon_add takes form the next basis, and each bracket
    image is solved against the echelon basis that chose them.  They are
    independent, so its coordinates are unique.  Returns the
    GradedAlgebra; of the elements, only one degree's is held at a time.
    """
    b = AlgebraBuilder(p, q=q)
    b.add_degree([(None, "x"), (None, "y")])
    gens = {"x": x_gen, "y": y_gen}
    cur = [x_gen, y_gen]
    for k in range(1, n_built):
        images, vecs = {}, {}
        for i, v in enumerate(cur):
            for t in ("x", "y"):
                images[(i, t)] = bracket(v, gens[t])
                vecs[(i, t)] = coords(images[(i, t)])
        # candidate order mirrors the pattern compiler's basis convention:
        # x-chains continue on chain words, the component after a diamond is
        # rooted at [w x y], and degree 2 at [y x]
        if k == 1:
            order = [(0, "x"), (1, "x"), (0, "y"), (1, "y")]
        elif len(cur) == 2:
            order = [(0, "y"), (1, "x"), (0, "x"), (1, "y")]
        else:
            order = [(0, "x"), (0, "y")]
        ech = []
        chosen = [c for c in order if echelon_add(ech, vecs[c], p)]
        if not chosen:
            raise ConstructionError(f"generated algebra vanishes in degree {k + 1}")
        if len(chosen) > 2:
            raise ConstructionError(
                f"degree {k + 1} has dimension {len(chosen)}; not thin")
        b.add_degree([(b.comp_gids[k][i], t) for (i, t) in chosen])
        # every image [v, t] is itself a candidate in order, so it was taken
        # or lies in the span of those taken: the solve never returns None
        b.set_ad(k, *([solve_or_kernel(ech, vecs[(i, t)], p)
                       for i in range(len(cur))] for t in "xy"))
        cur = [images[c] for c in chosen]
    return b.finish(N)


# -- tensor construction ---------------------------------------------------------

def tensor_construct(Ma: GradedAlgebra, q: int, N: int, guard: int = 2):
    """Subalgebra of Ma (x) F[eps; q] + F (1 (x) d), Ma of maximal class,
    generated by  x = -1 (x) d  and  y = X (x) eps^(q-2) + Y (x) eps^(q-1),
    expressed as an engine algebra in the total grading, built to
    N + guard and not validated.  Returns the algebra.

    Ambient vectors are {key: coefficient}, with keys ('e', g, j) for
    (Ma basis element g) (x) eps^(j) and ('d',) for x.

    engine_from_abstract brackets an element only with x or y, so the
    bracket is written in closed form for those two.  In F[eps; q],
    eps^(i) eps^(j) = C(i+j, i) eps^(i+j), zero past eps^(q-1), and for A
    in Ma

        [A (x) eps^(j), x] = A (x) eps^(j-1),  0 when j = 0;
        [A (x) eps^(j), y] = C(j+q-2, j) [A, X] (x) eps^(j+q-2)
                             + C(j+q-1, j) [A, Y] (x) eps^(j+q-1).

    The second term survives only at j = 0 and the first only at j <= 1.
    q is a power of p, so C(q-2, 0) = C(q-1, 0) = 1 and C(q-1, 1) =
    q - 1 = -1 mod p: the y bracket is [A, X] (x) eps^(q-2) +
    [A, Y] (x) eps^(q-1) at j = 0, -[A, X] (x) eps^(q-1) at j = 1 and 0
    past j = 1.  [A, X] and [A, Y] are the ad x and ad y rows of A in Ma,
    within its built range by `need`.  Last, [x, x] = 0 and
    [x, y] = -[y, x] = -(X (x) eps^(q-3) + Y (x) eps^(q-2)).
    """
    p = Ma.p
    n_built = N + guard
    need = -(-n_built // (q - 1)) + 2
    if Ma.N_built < need:
        raise ConstructionError(
            f"maximal-class input built to {Ma.N_built}; need {need} for N={N}")

    X, Y = Ma.gid(1, 0), Ma.gid(1, 1)
    x_vec = {("d",): 1}
    y_vec = {("e", X, q - 2): 1, ("e", Y, q - 1): 1}
    # [A (x) eps^(j), y] by j: (letter of Ma, index of eps, sign) per term
    y_terms = {0: (("x", q - 2, 1), ("y", q - 1, 1)), 1: (("x", q - 1, -1),)}

    def bracket(u: dict, v: dict) -> dict:
        # v is x_vec or y_vec, and u holds ('d',) only when it is x_vec
        if u is x_vec:
            return {} if v is x_vec else {("e", X, q - 3): p - 1,
                                          ("e", Y, q - 2): p - 1}
        if v is x_vec:
            return {("e", g, j - 1): c for (_, g, j), c in u.items() if j}
        out = {}
        for (_, g, j), c in u.items():
            e = Ma.elements[g]
            for t, jj, sign in y_terms.get(j, ()):
                for s, ws in enumerate(Ma.ad[t][e.degree][e.index]):
                    if ws:
                        key = ("e", Ma.gid(e.degree + 1, s), jj)
                        out[key] = (out.get(key, 0) + sign * c * ws) % p
        return {key: c for key, c in out.items() if c}

    return engine_from_abstract(p, q, n_built, N, x_vec, y_vec, bracket,
                                lambda v: v)


# -- deflation ---------------------------------------------------------------------

DEFLATE_GUARD = 2   # degrees a deflated algebra is built past its N


def _lines(p: int):
    return [(1, t) for t in range(p)] + [(0, 1)]


def _act(A: GradedAlgebra, v, line):
    """[v, z] for v = (k, coordinates) in A_k and z = a x + b y in A_1,
    line = (a, b): a [v, x] + b [v, y], from the two ad rows of v."""
    a, b = line
    return (v[0] + 1, vec_add(vec_scale(a, A.apply_letter(v, "x")[1], A.p),
                              vec_scale(b, A.apply_letter(v, "y")[1], A.p),
                              A.p))


def _power(A: GradedAlgebra, v, line):
    """v (ad z)^p for z = line: p steps of _act."""
    for _ in range(A.p):
        v = _act(A, v, line)
    return v


def _on_generators(A: GradedAlgebra, w) -> dict:
    """ad w on x and y, [x, w] and [y, w], as {(i, j): coefficient}: minus
    the ad x and ad y rows of w."""
    return {(i, j): -c % A.p for i, t in enumerate("xy")
            for j, c in enumerate(A.apply_letter(w, t)[1]) if c}


def _generators(L: GradedAlgebra):
    """(zs, w2): the lines zs = [z_1, z_2] of L_1 with basis1 the
    (ad z_i)^p, and w2 in L_{2p} with [D_1, D_2] = ad w2 (see deflate).
    All p + 1 lines are tried: p-th powers are not additive."""
    p, lines = L.p, _lines(L.p)
    gens = [L.as_element(g) for g in L.comp_gids[1]]
    powers = [{(i, j): c for i, g in enumerate(gens)
               for j, c in enumerate(_power(L, g, z)[1]) if c} for z in lines]
    u = L.as_element(L.comp_gids[p][0])
    ads = [_on_generators(L, L.as_element(g)) for g in L.comp_gids[p]]
    ech = []
    basis1 = [n for n, v in enumerate(powers + ads) if echelon_add(ech, v, p)]
    if len(basis1) != 2:
        raise ConstructionError(
            f"deflated degree 1 has dimension {len(basis1)}; not thin")
    if basis1[1] >= len(lines):
        raise ConstructionError(
            "deflated degree 1 is not spanned by two p-th powers (ad z)^p")
    zs = [lines[n] for n in basis1]
    a, b = solve_or_kernel(ech, ads[0], p)     # ad u = a D_1 + b D_2
    if not (a or b):
        raise ConstructionError("ad L_p vanishes on x and y: not covering")
    w2 = (vec_scale(pow(a, -1, p), _power(L, u, zs[1])[1], p) if a else
          vec_scale(-pow(b, -1, p), _power(L, u, zs[0])[1], p))
    return zs, w2


def deflate(L: GradedAlgebra, N_out: int) -> GradedAlgebra:
    """Deflation: the subalgebra of operators generated by (ad L_1)^p and
    ad(L_p), with degrees divided by p, re-expressed as an engine algebra
    built to N_out + DEFLATE_GUARD and not validated.  Requires L built to
    at least p (N_out + DEFLATE_GUARD) + p.  L is a Nottingham algebra,
    compiled from family a or deflated from one.

    The generators are derivations ((ad z)^p is one in characteristic p,
    as C(p, i) = 0 mod p for 0 < i < p), and L is generated by x and y,
    so a derivation is fixed by its values on x and y, which give the
    same linear relations as the whole map.  basis1, the first two
    independent there, must be p-th powers D_i = (ad z_i)^p: on family a
    and its deflations (z_1, z_2) = (x, x + y) when the second diamond
    lies at p + 2 or above, (x + y, x + 2y) when it lies at p.

    Past degree 1 the growth stays inside L.  With [A, B] = B o A - A o B
    and ad w (v) = [v, w], for a derivation D and w in L

        [ad w, D] (v) = D[v, w] - [Dv, w] = [v, Dw],  so [ad w, D] = ad Dw.

    Degree 1 holds ad u, u the first basis element of L_p, and ad u != 0
    as L covers ([u, L_1] = L_{p+1} != 0).  Write ad u = a D_1 + b D_2;
    then a [D_1, D_2] = ad D_2(u) and b [D_2, D_1] = ad D_1(u), with a or
    b nonzero, so [D_1, D_2] = ad w2 for a w2 in L_{2p}.  Degree k + 1 is
    spanned by the [ad w, D_i] = ad D_i(w) with ad w of degree k, so by
    induction degree k >= 2 is ad w with w in L_{kp}.  The growth stores
    w, brackets it with D_i as w (ad z_i)^p, p steps of _act, and gives
    the linear algebra its values on x and y (_on_generators), on which
    alone ad w depends.

    engine_from_abstract grows L0 from basis1; the rest reads L0.  q is
    its first k with dim L0_k = 2 (deflating the parameter-(q, r)
    algebra jumps back up to q r), _standard_generators picks lines of
    L0_1, and the result is L0 regrown from them with the bracket _act.
    These are the bytes of a growth in Der(L) from the standard
    generators: engine_from_abstract's output depends only on the Lie
    algebra and the generator pair, since which candidates it takes is a
    question of linear independence, and an image's coordinates over
    those taken are unique.
    """
    p = L.p
    n_built = N_out + DEFLATE_GUARD
    if L.N_built < p * n_built + p:
        raise ConstructionError(
            f"input built to {L.N_built}; deflation to {N_out} "
            f"(+{DEFLATE_GUARD} guard) needs {p * n_built + p}")

    zs, w2 = _generators(L)

    def bracket(v, g):
        # v is a generator's index, or w in L_kp for ad w; g a generator's
        if isinstance(v, int):
            return (2 * p, vec_scale(g - v, w2, p))
        return _power(L, v, zs[g])

    L0 = engine_from_abstract(p, None, n_built, n_built, 0, 1, bracket,
                              lambda w: _on_generators(L, w))
    q_out = next((k for k in range(2, n_built + 1) if L0.dim(k) == 2), None)
    xline, yline = _standard_generators(L0, q_out)
    return engine_from_abstract(
        p, q_out, n_built, N_out, (1, xline), (1, yline),
        lambda v, g: _act(L0, v, g[1]), lambda v: dict(enumerate(v[1])))


def _standard_generators(A: GradedAlgebra, q_out):
    """Lines (a, b) of A_1 for the standard generators: y a sandwich
    direction, [[w, y], y] = 0 for w in A_1, and x another line whose
    chain v = [y, x, ..., x] in degree q_out - 1 is nonzero and, when
    degree q_out + 1 is built, normalized so the second diamond carries
    the -1 relation: [v x x] = [v y y] = 0 and [v y x] = -2 [v x y]."""
    p, lines = A.p, _lines(A.p)
    gens = [A.as_element(g) for g in A.comp_gids[1]]
    sandwiches = [z for z in lines
                  if not any(any(_act(A, _act(A, w, z), z)[1]) for w in gens)]
    for yline in sandwiches:
        for xline in lines:
            if xline == yline:
                continue
            if q_out is None:
                return xline, yline
            v = (1, yline)
            for _ in range(q_out - 2):
                v = _act(A, v, xline)
            if not any(v[1]):
                continue
            if q_out + 1 > A.N_built:
                # the relations lie past the built range and fix nothing
                return xline, yline
            vx, vy = _act(A, v, xline), _act(A, v, yline)
            if not any(_act(A, vx, xline)[1]) and \
               not any(_act(A, vy, yline)[1]) and \
               _act(A, vy, xline)[1] == vec_scale(-2, _act(A, vx, yline)[1], p):
                return xline, yline
    raise ConstructionError("no standard generator pair found in deflation")


# -- N(q, r) ------------------------------------------------------------------------

def nqr_source_degree(q: int, r: int, N: int, p: int | None = None):
    """(p, steps, n_src) for N(q, r) built to degree N by deflation: the
    characteristic (the least prime factor of q unless given), the number
    of deflation steps (r = p^steps), and the degree n_src its parameter-
    (q r) source of family a is compiled to.  Deflating to n needs the
    input built to p (n + DEFLATE_GUARD) + p (see deflate), so n_src
    applies that once per step, starting from N.  Checks p, r, q r, q >= p
    and N >= q (the second diamond's degree) before anything is built."""
    if p is None:
        p = char_of_q(q)
    check_p(p)
    steps = deflation_steps(p, r)
    check_q(p, q * r)
    if q < p:
        # q r and r are powers of p, so q is p^n; p^0 has no second diamond
        raise PatternError(f"q must be a positive power of p = {p}, got {q}")
    if N < q:
        raise ConstructionError(f"--N {N} is below q = {q}; N(q, r) "
                                f"needs --N >= q")
    n_src = N
    for _ in range(steps):
        n_src = p * (n_src + DEFLATE_GUARD) + p
    return p, steps, n_src


def nottingham_Nqr(q: int, r: int, N: int, p: int | None = None):
    """Iterated deflation of the type -1 family with parameter q r, giving
    the Nottingham algebra with second diamond q and fake diamonds between
    the genuine ones.  Returns (algebra, detected pattern), not validated.

    This is the existence construction, run by the deflate subcommand and
    used by the tests as the independent check of family_pattern's closed
    form for family nqr, which the other subcommands compile."""
    p, steps, n_src = nqr_source_degree(q, r, N, p)
    pat = family_pattern("a", p, q * r, n_src + q * r + 5)
    L, _ = compile_pattern(pat, n_src, run_validation=False)
    for _ in range(steps - 1):
        L = deflate(L, (L.N_built - p) // p - DEFLATE_GUARD)
    L = deflate(L, N)
    pattern, _ = detect(L)
    return L, pattern
