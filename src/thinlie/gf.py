"""Exact arithmetic over the prime field F_p and small dense linear algebra.

Scalars are machine ints reduced into [0, p).  Vectors are tuples, matrices
are tuples of row tuples.  Everything here is exact; there is no floating
point anywhere in the package.
"""

from __future__ import annotations

import math


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
    """Whether PrimeField(p) is defined: p is an int and a prime > 3."""
    return isinstance(p, int) and is_prime(p) and p > 3


class PrimeField:
    """The field F_p for an odd prime p > 3."""

    __slots__ = ("p",)

    def __init__(self, p: int):
        if not is_field_char(p):
            raise ValueError(f"p must be a prime > 3, got {p}")
        self.p = p

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("PrimeField", self.p))

    def __repr__(self):
        return f"PrimeField({self.p})"


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
    return len(echelon(rows, p))


def echelon(rows, p: int):
    """Row-echelon basis (pivot-normalized, reduced) of the row span."""
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


def echelon_add(basis: list, v: dict, p: int) -> bool:
    """Incremental sparse echelon: reduce v ({key: coeff}, sortable keys)
    against basis, a list of (pivot, row) pairs built by earlier calls, in
    order.  A nonzero remainder is normalized at its least key and appended;
    returns whether v was independent of basis."""
    v = {k: c % p for k, c in v.items() if c % p}
    for piv, row in basis:
        c = v.get(piv)
        if c:
            for k, b in row.items():
                nv = (v.get(k, 0) - c * b) % p
                if nv:
                    v[k] = nv
                else:
                    v.pop(k, None)
    if not v:
        return False
    piv = min(v)
    inv = pow(v[piv], -1, p)
    basis.append((piv, {k: c * inv % p for k, c in v.items()}))
    return True


class LinearSolution:
    """Outcome of solving A x = b over F_p: consistent is False for an
    unsolvable system; otherwise `solution` is one solution."""

    def __init__(self, consistent: bool, solution: tuple | None):
        self.consistent = consistent
        self.solution = solution


def solve_or_kernel(a_rows, b, p: int) -> LinearSolution:
    """Exact Gaussian elimination for A x = b, A given as a tuple of rows.

    Here rows are genuine matrix rows (equations), not the row-per-source
    layout of the adjoint maps.  Free variables are set to 0.  No kernel
    basis is built: no package caller reads one.  The name is kept because
    bench/tracing.py times this function by it.
    """
    m = len(a_rows)
    if len(b) != m:
        raise ValueError(f"dimension mismatch: {m} rows, {len(b)} rhs entries")
    n = len(a_rows[0]) if m else 0
    if any(len(r) != n for r in a_rows):
        raise ValueError("ragged matrix")
    aug = [list(r) + [bi % p] for r, bi in zip(a_rows, b)]
    pivots = []  # (row index, column index)
    r = 0
    for c in range(n):
        pr = next((i for i in range(r, m) if aug[i][c] % p), None)
        if pr is None:
            continue
        aug[r], aug[pr] = aug[pr], aug[r]
        inv = pow(aug[r][c] % p, -1, p)
        aug[r] = [(x * inv) % p for x in aug[r]]
        for i in range(m):
            if i != r and aug[i][c] % p:
                f = aug[i][c] % p
                aug[i] = [(x - f * y) % p for x, y in zip(aug[i], aug[r])]
        pivots.append((r, c))
        r += 1
        if r == m:
            break
    for i in range(r, m):
        if aug[i][n] % p:
            return LinearSolution(False, None)
    x = [0] * n
    for (ri, c) in pivots:
        x[c] = aug[ri][n] % p
    return LinearSolution(True, tuple(x))
