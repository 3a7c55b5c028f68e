"""Exact arithmetic over the prime field F_p and one incremental echelon
routine.

The field is given by its characteristic alone: every routine takes p as
a plain int, and is_field_char says which p the package accepts (a
GradedAlgebra refuses any other).  Scalars are machine ints reduced into
[0, p).  Vectors are tuples, matrices are tuples of row tuples;
echelon_add works on sparse vectors {key: coeff} and records how each
pivot row was made from its inputs, so rank and solve_or_kernel both read
off its elimination.  Everything here is exact;
there is no floating point anywhere in the package.
"""

from __future__ import annotations


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def smallest_prime_factor(n: int) -> int:
    """The least prime dividing n, for n >= 2 (q = p^n gives p)."""
    f = 2
    while f * f <= n:
        if n % f == 0:
            return f
        f += 1
    return n


def is_field_char(p) -> bool:
    """Whether the package works over F_p: p is an int and a prime > 3."""
    return isinstance(p, int) and is_prime(p) and p > 3


# -- vectors ---------------------------------------------------------------

def vec_zero(dim: int) -> tuple:
    return (0,) * dim


def vec_is_zero(v) -> bool:
    return all(c == 0 for c in v)


def vec_add(u, v, p: int) -> tuple:
    return tuple((a + b) % p for a, b in zip(u, v, strict=True))


def vec_sub(u, v, p: int) -> tuple:
    return tuple((a - b) % p for a, b in zip(u, v, strict=True))


def vec_scale(c: int, v, p: int) -> tuple:
    c %= p
    return tuple((c * a) % p for a in v)


def vec_neg(v, p: int) -> tuple:
    return tuple((-a) % p for a in v)


# -- matrices --------------------------------------------------------------
#
# A matrix is a tuple of rows.  Adjoint maps in the engine are stored
# row-per-source-basis-vector, so applying a map to a coordinate vector is
# mat_apply_rows(rows, vec): sum of vec[s] * rows[s].

def mat_apply_rows(rows, vec, p: int) -> tuple:
    if not rows:
        return ()
    out = [0] * len(rows[0])
    for c, row in zip(vec, rows, strict=True):
        if c:
            for j, a in enumerate(row):
                out[j] = (out[j] + c * a) % p
    return tuple(out)


def rank(rows, p: int) -> int:
    """Rank of the span of rows (dense vectors): the number of rows
    echelon_add takes, one after another."""
    basis = []
    return sum(echelon_add(basis, dict(enumerate(row)), p) for row in rows)


def _reduce(basis: list, v: dict, p: int):
    """(remainder, x): v ({key: coeff}) reduced against basis, and
    x ({i: coeff}) with v = remainder + sum of x_i times the i-th vector
    echelon_add took.  The remainder is 0 at every pivot, and empty
    exactly when v lies in the span of basis."""
    v = {k: c % p for k, c in v.items() if c % p}
    x = {}
    for piv, row, comb in basis:
        c = v.get(piv)
        if c:
            for k, b in row.items():
                nv = (v.get(k, 0) - c * b) % p
                if nv:
                    v[k] = nv
                else:
                    v.pop(k, None)
            for i, b in comb.items():
                x[i] = (x.get(i, 0) + c * b) % p
    return v, x


def echelon_add(basis: list, v: dict, p: int) -> bool:
    """Incremental sparse echelon: reduce v ({key: coeff}, sortable keys)
    against basis, a list of (pivot, row, comb) built by earlier calls, in
    order.  A nonzero remainder is normalized at its least key and appended
    with comb, its coefficients {i: coeff} over the vectors taken so far
    (this one is number len(basis)); returns whether v was independent of
    basis.  The one elimination routine: rank and solve_or_kernel reduce
    through its step."""
    v, x = _reduce(basis, v, p)
    if not v:
        return False
    piv = min(v)
    inv = pow(v[piv], -1, p)
    # row = inv (v - sum of x_i times vector i)
    comb = {i: -c * inv % p for i, c in x.items()}
    comb[len(basis)] = inv
    basis.append((piv, {k: c * inv % p for k, c in v.items()}, comb))
    return True


def solve_or_kernel(basis: list, v: dict, p: int) -> tuple | None:
    """v's coefficients over the vectors echelon_add took into basis, in
    order, or None when v lies outside their span.  They are independent,
    so the coefficients are unique.  The name is kept, although no kernel
    is built, because bench/tracing.py times this function by it."""
    rem, x = _reduce(basis, v, p)
    if rem:
        return None
    return tuple(x.get(i, 0) for i in range(len(basis)))
