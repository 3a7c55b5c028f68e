"""Brackets with the elements of one small degree, read off a window of
bracket columns that slides up the degrees, and the derivation fill that
reads them.

A derivation D, given by D x and D y in L_m with m = 1 + shift, is filled
degree by degree by the recursion D[a, t] = [D a, t] + [a, D t]; the
extraction of the derivations module brackets each U_j with Y in L_q.  Both
bracket every element, degree by degree upward, with elements of one
degree m.  bracket_window serves them from the columns of L_1..L_m, built
by GradedAlgebra.column as bracket_columns builds them, and holds O(m^2)
values wherever it stands, where the bracket_basis memo would keep a value
for every pair it was asked.  Only the construction and derivation layers
read it, so starting the CLI does not load this module.
"""

from __future__ import annotations

from .engine import DegreeOverflowError
from .gf import mat_apply_rows, vec_add


def bracket_window(L, m: int, lo: int, hi: int):
    """Yield, for each degree j from lo to hi, the brackets of L_j with
    L_m: for each g of L_j, in basis order, the list of
    bracket_basis(g, c) over the basis c of L_m.

    That is column c at g when j >= m, else minus column g at c mod p.
    The window holds the columns of L_d, d <= m, at the partner degrees
    that serve a block of at most m consecutive degrees j: max(j, m) up
    to m + j - d for the last j.  By column's recursion each column reads
    its parent's at one partner degree more, so the next block extends
    each column, d ascending, and drops the partners below it: O(m^2)
    values are held wherever the window stands.
    """
    if hi + m > L.N_built:
        raise DegreeOverflowError(hi + m, L.N_built)
    comp, p, cols, off = L.comp_gids, L.p, {}, 0
    for j0 in range(lo, hi + 1, m):
        j1 = min(j0 + m - 1, hi)
        cut, off = comp[max(j0, m)][0] - off, comp[max(j0, m)][0]
        for d in range(1, min(j1, m) + 1):
            first = m + j0 - d if j0 > lo else max(j0, m)
            below = cols.get(d - 1)
            for col, e in zip(cols.setdefault(d, [[] for _ in comp[d]]),
                              L.basis(d)):
                del col[:cut]
                col += L.column(below and below[e.parent_gid - comp[d - 1][0]],
                                off, e.letter, d, first, m + j1 - d)
        for j in range(j0, j1 + 1):
            yield ([[tuple([-v % p for v in col[c - off]]) for c in comp[m]]
                    for col in cols[j]] if j < m else
                   [[col[g - off] for col in cols[m]] for g in comp[j]])


def fill(ops, k: int) -> None:
    """Store degrees up to k of the derivations ops, of one algebra and
    shift, each given on degrees 1..some m, by the derivation recursion:
    the row of e = [a, t] is [D a, t] plus [a, D t], with D t in
    L_{1 + shift}.  Every [a, D t] is read off one bracket window, so
    derivations filled together share its columns.  A degree already
    stored is left as it is."""
    L, shift = ops[0].algebra, ops[0].shift
    top = min(len(op.maps) for op in ops)
    window = bracket_window(L, 1 + shift, top, k - 1)
    for j, brackets in zip(range(top + 1, k + 1), window):
        for maps in [op.maps for op in ops if j not in op.maps]:
            rows = []
            for e in L.basis(j):
                a = L.elements[e.parent_gid]
                da = L.apply_letter((j - 1 + shift, maps[j - 1][a.index]),
                                    e.letter)[1]
                at = mat_apply_rows(brackets[a.index],
                                    maps[1]["xy".index(e.letter)], L.p)
                rows.append(vec_add(da, at, L.p))
            maps[j] = tuple(rows)
