"""Truncated graded Lie algebras presented by generator adjoint actions.

An algebra is stored as: per-degree ordered bases, each element above
degree 1 the left-normed bracket [a, t] of its parent a and its letter t in
{x, y} (x and y are their own letters), plus the matrices of ad x and ad y
from each component to the next.  Only basis_words spells out the defining
words.  The full bracket is recovered by the binary Jacobi recursion

    [u, [a, t]] = [[u, a], t] - [[u, t], a]

where a and t are the second argument's parent and letter.  All brackets
use the right-action convention [u, z]: applying ad z to u appends the
letter z to u's word.  Bracket values are read off the ad rows: the
recursion combines rows of ad t with coordinates of earlier values, sums
integers and reduces mod p once per value, and a bracket with a generator
is its ad row.  _mirror_basis (behind bracket_mirror) recurses on the
first argument instead; it is the tests' oracle (see validate).

Bracket values come two ways on a job path.  A bracket with a generator
is an ad row, and tensor_construct and deflation read it there: deflation
grows elements of L itself, w with ad w, p steps of two ad rows per
bracket.  Every other value comes off one sweep of bracket columns in
ascending degree (bracket_columns): the column of [a, t] is built from
column a and the letter t alone (column, the one routine for the
recurrence, which the Jacobi check also calls for [c, s]), so the sweep
keeps two degrees of columns, O(N) values.  validate's pair checks and
the structure export read the O(N^2) values for all pairs off it
(bracket_rows); the fill of D, the Leibniz certificate, the extraction
and the lemma suite read the brackets of every degree with one degree m
(brackets_with), which stops the sweep after layer m.  No job fills the
bracket_basis memo: only the tests call bracket_basis, as an oracle, and
bracket and to_structure_json, which no job runs, read it.

Every column entry is formed in block form (see column).
_check_wellformed keeps each component of dimension 1 or 2, so the ad t
matrix on a degree, a partner's ad t row and the parent column's entries
read as zero-padded 2x2 blocks: each coordinate is one explicit sum of
four products, summed as integers and reduced mod p once, and as the
padding adds only zero terms, the residues are those of the loop over
the coefficients.  The padded ad x and ad y blocks are derived from ad,
which stays the one source of the data, by an algebra's first sweep, and
kept (_ad_blocks): one per degree and letter.  An algebra that is never
swept, such as deflation's source, builds none.

Per degree an algebra holds its basis elements (six slots each: gid,
degree, index, parent gid, letter, bidegree), the tuple of their gids
(comp_gids, the elements' own int objects, not copies) and one ad x and
one ad y matrix.  An AlgebraBuilder stores each distinct matrix once, so
degrees with equal matrices share one tuple: a family-a algebra built to
degree 20 002 has 40 002 ad matrices, 8 of them distinct, and holds
about 317 bytes per basis element in all.  Sharing is safe because a
matrix is a tuple of tuples and the algebra is never changed after
construction.  The bases stay tuples, not ranges: indexing a range makes
a fresh int per read, and every element's parent gid is read off its
parent's basis, so deflation's source would hold a new int per element.

A GradedAlgebra is immutable after construction.  Concurrent readers are
safe; the bracket memo table and the padded blocks are plain dicts
(GIL-guarded; two readers that build one letter's blocks at once store
equal lists), and a sweep holds its columns in its own generator.

An OperatorFamily is a graded linear map on such an algebra, one matrix per
degree.  It is the derivation type, and the one derivation the package
fills is the outer derivation D of the derivations module: given by its
images of x and y, it is filled to higher degrees by the word recursion
D[a, t] = [D a, t] + [a, D t] (derivations.fill), off the brackets with
L_{1 + shift} that the caller holds (brackets_with).  Of the package, this
module imports only gf.
"""

from __future__ import annotations

import functools
import itertools

from .gf import (
    PrimeField,
    mat_apply_rows,
    rank,
    vec_is_zero,
    vec_sub,
    vec_zero,
)


class DegreeOverflowError(Exception):
    """A bracket landed beyond the built degree range."""

    def __init__(self, degree, built):
        super().__init__(f"bracket lands in degree {degree}, built only to {built}")


class BasisElement:
    __slots__ = ("gid", "degree", "index", "parent_gid", "letter", "bidegree")

    def __init__(self, gid: int, degree: int, index: int,
                 parent_gid: int | None, letter: str):
        self.gid = gid
        self.degree = degree
        self.index = index        # 0 or 1 within its component
        self.parent_gid = parent_gid  # None for x and y
        self.letter = letter      # the last letter; x and y are their own
        self.bidegree = None      # set by GradedAlgebra, from the parent's


class GradedAlgebra:
    """A graded Lie algebra built to degree N_built, with public bound N."""

    def __init__(self, field: PrimeField, elements, comp_gids, ad_x, ad_y,
                 N: int, q: int | None = None, kind: str = "nottingham"):
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
        self._memo = {}
        self._blocks = {}    # letter -> ad as padded 2x2 blocks (_ad_blocks)
        self._check_wellformed()

    # -- structural ---------------------------------------------------------

    def _check_wellformed(self):
        """Raise ValueError unless the presentation is a thin graded
        algebra's: bases of dimension 1 or 2, listed degree by degree as
        the elements, with letters x or y: x then y in degree 1, with no
        parent, and above it a parent one degree down; ad matrices of
        matching shapes with entries in range(p).  This parents-first pass
        sets each bidegree: the parent's, or (0, 0), plus the letter."""
        if not self.N_built >= self.N >= 1:
            raise ValueError(f"need N_built >= N >= 1, got N_built="
                             f"{self.N_built}, N={self.N}")
        if len(self.comp_gids[1]) != 2:
            raise ValueError("degree 1 must have basis x, y")
        if [g for gids in self.comp_gids for g in gids] != \
                list(range(len(self.elements))):
            raise ValueError("the elements are not the bases listed degree "
                             "by degree")
        for k in range(1, self.N_built + 1):
            gids = self.comp_gids[k]
            if not 1 <= len(gids) <= 2:
                raise ValueError(f"component {k} has dim {len(gids)}")
            for i, g in enumerate(gids):
                e = self.elements[g]
                if not (e.gid == g and e.degree == k and e.index == i):
                    raise ValueError(f"basis element {g} is malformed for "
                                     f"position {i} of component {k}")
                if e.letter not in ("x", "y"):
                    raise ValueError(f"basis element {g} has letter "
                                     f"{e.letter!r}, not x or y")
                if k == 1:
                    if e.parent_gid is not None or e.letter != "xy"[i]:
                        raise ValueError("degree 1 must have basis x, y")
                    bx = by = 0
                elif e.parent_gid in self.comp_gids[k - 1]:
                    bx, by = self.elements[e.parent_gid].bidegree
                else:
                    raise ValueError(f"basis element {g} has no parent in "
                                     f"degree {k - 1}")
                e.bidegree = (bx + (e.letter == "x"), by + (e.letter == "y"))
        field = range(self.p)
        for k in range(1, self.N_built):
            for letter in ("x", "y"):
                rows = self.ad[letter][k]
                if len(rows) != self.dim(k) or any(
                        len(r) != self.dim(k + 1) for r in rows):
                    raise ValueError(f"ad {letter} on degree {k} is not a "
                                     f"{self.dim(k)}x{self.dim(k + 1)} matrix")
                if any(c not in field for r in rows for c in r):
                    raise ValueError(f"ad {letter} on degree {k} has an "
                                     f"entry outside 0..{self.p - 1}")

    def dim(self, k: int) -> int:
        if not 1 <= k <= self.N_built:
            return 0
        return len(self.comp_gids[k])

    def basis(self, k: int):
        return [self.elements[g] for g in self.comp_gids[k]]

    def basis_words(self, top: int):
        """Yield the defining words of L_1, ..., L_top, a list per degree in
        basis order: each is its parent's, from the list before, plus its
        letter, so two degrees of words, O(top) characters, are held."""
        words = []
        for k in range(1, top + 1):
            words = [("" if e.parent_gid is None else
                      words[self.elements[e.parent_gid].index]) + e.letter
                     for e in self.basis(k)]
            yield words

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
        """Coordinates of [e_gi, e_gj] in L_{deg_i + deg_j}; memoized.

        The recursion is on the second argument, e_gj = [a, t] with a its
        parent and t its letter:

            [u, [a, t]] = [[u, a], t] - [[u, t], a],

        read straight off the ad rows: [[u, a], t] is the combination of
        the rows of ad t on degree deg_i + deg_j - 1 with the coordinates
        of [u, a], and [[u, t], a] the combination of [e_g, a] over the
        (at most two) e_g of degree deg_i + 1 with the coordinates of e_gi's
        ad t row.  A degree-1 e_gj is ad t itself, so the value is e_gi's ad
        row; a second argument of higher degree than the first is taken as
        -[e_gj, e_gi].  Entries accumulate as integers and are reduced
        mod p once per value.  Reduction mod p is a ring homomorphism, so
        this is the residue of evaluating the same terms in the same order
        through unit vectors, mat_apply_rows and a reduction after every
        term; the ad row is already that residue because _check_wellformed
        rejects entries outside range(p).  tests/helpers.py keeps the
        reducing formulation as a reference, and a test compares the two
        on every pair of the corpus and of non-Lie inputs.
        """
        memo = self._memo
        got = memo.get((gi, gj))
        if got is not None:
            return got
        ei, ej = self.elements[gi], self.elements[gj]
        di, dj = ei.degree, ej.degree
        dt = di + dj
        if dt > self.N_built:
            raise DegreeOverflowError(dt, self.N_built)
        p = self.p
        if dj == 1:
            out = self.ad[ej.letter][di][ei.index]
        elif di < dj:
            out = tuple(-c % p for c in self.bracket_basis(gj, gi))
        else:
            a, ad_t = ej.parent_gid, self.ad[ej.letter]
            acc = [0] * len(self.comp_gids[dt])
            for c, row in zip(self.bracket_basis(gi, a), ad_t[dt - 1]):
                if c:
                    for s, r in enumerate(row):
                        acc[s] += c * r
            for c, g in zip(ad_t[di][ei.index], self.comp_gids[di + 1]):
                if c:
                    for s, r in enumerate(self.bracket_basis(g, a)):
                        acc[s] -= c * r
            out = tuple(c % p for c in acc)
        memo[(gi, gj)] = out
        return out

    def bracket(self, u, v):
        """Bilinear bracket of two elements given as (degree, coords)."""
        return self._bilinear(u, v, self.bracket_basis)

    # bench/tracing.py counts bracket_mirror calls by name; only the tests
    # call it, as an oracle
    def bracket_mirror(self, u, v):
        """[u, v] by recursion on the first argument (see _mirror_basis);
        never consults the memo table of bracket_basis."""
        memo = {}
        return self._bilinear(
            u, v, lambda gi, gj: self._mirror_basis(gi, gj, memo))

    def _bilinear(self, u, v, basis_bracket):
        """sum_ij u_i v_j basis_bracket(g_i, g_j), as (degree, coords),
        over the basis gids of u's and v's components; reduced mod p
        once."""
        du, cu = u
        dv, cv = v
        dt = du + dv
        if dt > self.N_built:
            raise DegreeOverflowError(dt, self.N_built)
        acc = [0] * len(self.comp_gids[dt])
        gv = self.comp_gids[dv]
        for ci, gi in zip(cu, self.comp_gids[du]):
            if ci:
                for cj, gj in zip(cv, gv):
                    if cj:
                        m = ci * cj
                        for s, w in enumerate(basis_bracket(gi, gj)):
                            acc[s] += m * w
        p = self.p
        return (dt, tuple(c % p for c in acc))

    def _mirror_basis(self, gi, gj, memo):
        """[e_gi, e_gj] by recursion on the first argument, with its own
        memo: the oracle for bracket_basis's recursion on the second
        argument.  With e_gi = [a, t]:

            [[a, t], v] = [a, [t, v]] + [[a, v], t] = -[a, [v, t]] + [[a, v], t],

        where [v, t] is e_gj's ad t row and [[a, v], t] the combination of
        the ad t rows with the coordinates of [a, v].  A degree-1 e_gi is
        ad t itself, so the value is minus e_gj's ad row.  As in
        bracket_basis, entries accumulate unreduced and are reduced once.
        """
        got = memo.get((gi, gj))
        if got is not None:
            return got
        ei, ej = self.elements[gi], self.elements[gj]
        di, dj = ei.degree, ej.degree
        dt = di + dj
        if dt > self.N_built:
            raise DegreeOverflowError(dt, self.N_built)
        p = self.p
        if di == 1:
            out = tuple(-c % p for c in self.ad[ei.letter][dj][ej.index])
        else:
            a, ad_t = ei.parent_gid, self.ad[ei.letter]
            acc = [0] * len(self.comp_gids[dt])
            for c, g in zip(ad_t[dj][ej.index], self.comp_gids[dj + 1]):
                if c:
                    for s, r in enumerate(self._mirror_basis(a, g, memo)):
                        acc[s] -= c * r
            for c, row in zip(self._mirror_basis(a, gj, memo), ad_t[dt - 1]):
                if c:
                    for s, r in enumerate(row):
                        acc[s] += c * r
            out = tuple(c % p for c in acc)
        memo[(gi, gj)] = out
        return out

    # -- bracket sweeps -----------------------------------------------------

    def bracket_columns(self, bound: int):
        """Yield the bracket columns of L_1, L_2, ... while 2 deg <= bound,
        one layer per degree d: a list of the columns of the basis elements
        of L_d, in basis order.  The column of c holds bracket_basis(g, c)
        at index g - comp_gids[d][0], for every g with deg g >= d and
        deg g + d <= bound, in ascending gid.

        Each column is built by column from its parent's, which holds
        every partner degree it reads (up to bound - d + 1).  So a
        layer is built from the layer before it alone, and the sweep keeps
        only those two: O(N) values where the bracket_basis memo keeps
        O(N^2).
        """
        if bound > self.N_built:
            raise DegreeOverflowError(bound, self.N_built)
        comp, layer = self.comp_gids, None
        for d in range(1, bound // 2 + 1):
            off = comp[d - 1][0] if layer else 0
            layer = [self.column(layer and layer[e.parent_gid - off], off,
                                 e.letter, d, d, bound - d)
                     for e in self.basis(d)]
            yield layer

    def column(self, pa, off, t, d, lo, hi):
        """The entries of the column of [a, t], of degree d, at its
        partners g of degrees lo to hi, lo >= d - 1, in ascending gid.  pa
        is the column of a, holding its entry at h at index h - off for
        every h of degree lo to hi + 1; it is None when d = 1, where the
        column is that of the generator t itself: its ad t rows.

        For d >= 2 the entry at g is bracket_basis's recursion

            [g, [a, t]] = [[g, a], t] - [[g, t], a],

        the coordinates of [g, a] against the ad t rows, minus e_g's ad t
        row against the [e_h, a] over the e_h of degree deg g + 1, summed
        as integers and reduced mod p once, with [g, a] and [e_h, a] read
        off pa.  For a basis element with parent a and letter t, and
        deg g >= d, that is bracket_basis(g, [a, t]), computed in another
        order: as deg g > deg a, [g, a] and [e_h, a] are bracket_basis's
        values too.  The Jacobi check builds the column of [a, s] for
        every a and generator s, and reads it from degree d - 1 = deg a.

        The sum is formed a degree k at a time, in block form.  With A and
        B the ad t matrices on degrees k + d - 1 and k, zero-padded to 2x2
        (_ad_blocks), coordinate s of the entry at the i-th g of L_k is

            c[0] A[0][s] + c[-1] A[1][s] - B[i][0] u[s] - B[i][1] v[s],

        where c = [g, a], and u and v are [e_h, a] for the first and the
        last e_h of L_{k+1}.  When L_{k+d-1} is a line, c[-1] is c[0] and
        A's second row is zero; when L_{k+1} is a line, v is u and B's
        second column is zero.  So the padding adds only zero terms to the
        integer sum of the terms with nonzero coefficients, and as that sum
        is reduced mod p once, the residues are those of the plain loop
        over the coefficients (tests/helpers.reference_column).  Whether
        L_k has one g or two and L_{k+d} one coordinate or two is read
        once per degree.
        """
        if d == 1:
            return [r for k in range(lo, hi + 1) for r in self.ad[t][k]]
        p, comp, blocks = self.p, self.comp_gids, self._ad_blocks(t)
        col = []
        # the first and the last g of L_k, as indices into pa
        i0, i1 = comp[lo][0] - off, comp[lo][-1] - off
        for (a00, a01, a10, a11), (b00, b01, b10, b11), up in zip(
                blocks[lo + d - 1:hi + d], blocks[lo:hi + 1],
                comp[lo + 1:hi + 2]):
            h1 = up[-1] - off
            c, u, v = pa[i0], pa[i1 + 1], pa[h1]
            if len(u) == 1:
                u0, v0 = u[0], v[0]
                col.append(((c[0] * a00 + c[-1] * a10
                             - b00 * u0 - b01 * v0) % p,))
                if i1 != i0:
                    c = pa[i1]
                    col.append(((c[0] * a00 + c[-1] * a10
                                 - b10 * u0 - b11 * v0) % p,))
            else:
                (u0, u1), (v0, v1), c0, c1 = u, v, c[0], c[-1]
                col.append(((c0 * a00 + c1 * a10 - b00 * u0 - b01 * v0) % p,
                            (c0 * a01 + c1 * a11 - b00 * u1 - b01 * v1) % p))
                if i1 != i0:
                    c0, c1 = pa[i1][0], pa[i1][-1]
                    col.append(
                        ((c0 * a00 + c1 * a10 - b10 * u0 - b11 * v0) % p,
                         (c0 * a01 + c1 * a11 - b10 * u1 - b11 * v1) % p))
            i0, i1 = i1 + 1, h1
        return col

    def _ad_blocks(self, t):
        """The ad t matrices as zero-padded 2x2 blocks (a00, a01, a10, a11),
        at index k for degree k, 1 <= k < N_built: the rows are L_k's basis,
        the columns L_{k+1}'s.  Built from self.ad on first use, by a sweep,
        and kept; equal blocks share one tuple, so an algebra holds one
        list entry per degree and letter."""
        blocks = self._blocks.get(t)
        if blocks is None:
            shared, blocks = {}, [None]
            for rows in self.ad[t][1:self.N_built]:
                b = [0] * 4
                for i, row in enumerate(rows):
                    b[2 * i:2 * i + len(row)] = row
                b = tuple(b)
                blocks.append(shared.setdefault(b, b))
            self._blocks[t] = blocks
        return blocks

    def bracket_rows(self, bound: int):
        """Yield (gi, row) in ascending gid for every gi with
        2 deg gi <= bound: row[j] is bracket_basis(gi, gi + j) for every
        gi + j of degree <= bound - deg gi.

        Read off bracket_columns as bracket_basis defines the value: a
        partner of the same degree gives column gi + j at gi, and a
        partner of higher degree gives minus column gi at gi + j, mod p,
        negated coordinate by coordinate, one or two.  Only one degree's
        columns and one row are alive at a time.
        """
        comp, p = self.comp_gids, self.p
        for d, layer in enumerate(self.bracket_columns(bound), 1):
            dim = len(comp[d])
            for i, gi in enumerate(comp[d]):
                yield gi, ([layer[j][i] for j in range(i, dim)]
                           + [(-w[0] % p,) if len(w) == 1 else
                              (-w[0] % p, -w[1] % p) for w in layer[i][dim:]])

    def brackets_with(self, m: int, top: int) -> list:
        """The brackets of L_1..L_top with L_m: entry j - 1 lists, for each
        g of L_j in basis order, the list of bracket_basis(g, c) over the
        basis c of L_m.  Raises DegreeOverflowError when m + top > N_built.

        Read off bracket_columns(m + top) as bracket_rows reads it: column
        c of layer d holds bracket_basis(g, c) at every g with d <= deg g
        <= m + top - d.  For j < m, bracket_basis(g, c) is by definition
        minus bracket_basis(c, g) mod p, and c has degree m, within column
        g's range j..m + top - j as j <= top: minus column g at c, off layer
        j.  For j >= m it is column c at g, off layer m, whose range
        m..top holds j.  So layers 1..min(m, top) serve every entry, and the
        sweep stops after them, holding the O(N) values it returns.
        """
        if m + top > self.N_built:
            raise DegreeOverflowError(m + top, self.N_built)
        comp, p, out = self.comp_gids, self.p, []
        for d, layer in enumerate(itertools.islice(
                self.bracket_columns(m + top), min(m, top)), 1):
            if d < m:
                off = comp[d][0]
                out.append([[tuple(-v % p for v in col[c - off])
                             for c in comp[m]] for col in layer])
            else:
                off = comp[m][0]
                out += [[[col[g - off] for col in layer] for g in comp[j]]
                        for j in range(m, top + 1)]
        return out

    # -- export ----------------------------------------------------------------

    def write_structure_json(self, out, depth: int = 0) -> None:
        """Write the structure-constant document to the text stream `out`.

        The bytes are exactly json.dumps(self.to_structure_json(),
        sort_keys=True, indent=2), with every line after the first
        indented as if the document were nested `depth` levels deep, and
        no trailing newline.  Of the O(N^2) brackets only one row is held
        at a time: [e_i, e_j] for the e_j of one e_i, in
        to_structure_json's order (gid-major, j >= i, zeros skipped), each
        formatted from a fixed template.  The rows come from bracket_rows,
        which holds two degrees of bracket columns and leaves the
        bracket_basis memo empty, so the values to_structure_json reads
        from bracket_basis are written in O(N) memory.  So are the O(N^2)
        characters of words: basis_words holds two degrees of them, and
        each component is written as it comes.  The other values are O(N)
        in size.  Words and ints need no JSON escaping.
        """
        nl = ["\n" + "  " * (depth + k) for k in range(6)]

        def arr(items, lvl):
            # a JSON array of encoded items, one per line at level lvl
            if not items:
                return "[]"
            return ("[" + nl[lvl] + ("," + nl[lvl]).join(items)
                    + nl[lvl - 1] + "]")

        def ad(letter):
            return arr([arr([arr([str(c) for c in r], 4) for r in rows], 3)
                        for rows in self.ad[letter][1:self.N]], 2)

        out.write("{" + nl[1] + '"N": ' + str(self.N) + "," + nl[1]
                  + '"ad_x": ' + ad("x") + "," + nl[1]
                  + '"ad_y": ' + ad("y") + "," + nl[1] + '"brackets": ')
        n2, n3, n4 = nl[2:5]
        template = {n: "{" + n3 + '"coeffs": [' + n4
                    + ("," + n4).join(["%d"] * n) + n3 + "]," + n3
                    + '"i": %d,' + n3 + '"j": %d' + n2 + "}"
                    for n in (1, 2)}
        # sep opens the array until the first row is written
        sep = "[" + n2
        for gi, values in self.bracket_rows(self.N):
            row = [template[len(c)] % (*c, gi, gi + j)
                   for j, c in enumerate(values) if any(c)]
            if row:
                out.write(sep + ("," + n2).join(row))
                sep = "," + n2
        out.write(("[]" if sep[0] == "[" else nl[1] + "]") + "," + nl[1]
                  + '"components": [')
        for k, words in enumerate(self.basis_words(self.N), 1):
            basis = self.basis(k)
            out.write(
                ("," if k > 1 else "") + nl[2] + "{" + nl[3]
                + '"basis_words": '
                + arr(['"' + w + '"' for w in words], 4) + "," + nl[3]
                + '"bidegrees": '
                + arr([arr([str(b) for b in e.bidegree], 5)
                       for e in basis], 4) + "," + nl[3]
                + '"degree": ' + str(k) + "," + nl[3]
                + '"dims": ' + str(len(basis)) + nl[2] + "}")
        out.write(nl[1] + "]," + nl[1] + '"p": ' + str(self.p) + ","
                  + nl[1] + '"q": '
                  + ("null" if self.q is None else str(self.q)) + ","
                  + nl[1] + '"schema": "thinlie.structure.v1"' + nl[0]
                  + "}")

    def to_structure_json(self) -> dict:
        """Structure-constant document (canonical interchange format)."""
        comps = [{"degree": k, "dims": len(words), "basis_words": words,
                  "bidegrees": [list(e.bidegree) for e in self.basis(k)]}
                 for k, words in enumerate(self.basis_words(self.N), 1)]
        ad_x, ad_y = ([[list(r) for r in self.ad[t][k]]
                       for k in range(1, self.N)] for t in "xy")
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
    matrix per degree and read on the degrees it stores.

    maps[k] has one row per basis element of L_k, each row a coordinate
    vector in L_{k+shift}.  The stored degrees are always 1..m for some m,
    and maps[1] holds the images of x and y.  The one derivation the
    package fills is the outer derivation D of the derivations module:
    given by maps[1] alone, it is extended degree by degree by the
    recursion D[a, t] = [D a, t] + [a, D t] along defining words
    (derivations.fill), with the [a, D t] read off the brackets with
    L_{1 + shift} its caller holds (GradedAlgebra.brackets_with).
    Deflation needs no operator: past degree 1 each deflated element is
    ad w for a w in L, and the constructions module grows those w (see
    deflate).  then and op_bracket, which only the tests
    call, read stored degrees alone.
    """

    def __init__(self, algebra: GradedAlgebra, shift: int, maps: dict):
        self.algebra = algebra
        self.shift = shift
        self.maps = dict(maps)

    def apply(self, elem):
        k, v = elem
        return (k + self.shift, mat_apply_rows(self.maps[k], v, self.algebra.p))

    # then and op_bracket are wrapped by name by bench/tracing.py
    def then(self, other: "OperatorFamily") -> "OperatorFamily":
        """self followed by other, on every degree where both are defined."""
        top = self.algebra.N_built - self.shift - other.shift
        maps = {k: tuple(other.apply((k + self.shift, r))[1]
                         for r in self.maps[k]) for k in range(1, top + 1)}
        return OperatorFamily(self.algebra, self.shift + other.shift, maps)

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
            for ra, rb in zip(self.maps[1], other.maps[1], strict=True))
        return OperatorFamily(self.algebra, self.shift + other.shift, {1: rows})


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
        self._matrices = {}   # each distinct ad matrix, stored once

    def add_degree(self, entries):
        """entries: list of (parent_gid, letter); returns the tuple of gids,
        which are the new elements' own gid ints."""
        k, n = len(self.comp_gids), len(self.elements)
        gids = tuple(range(n, n + len(entries)))
        self.elements += [BasisElement(g, k, i, *entry)
                          for i, (g, entry) in enumerate(zip(gids, entries))]
        self.comp_gids.append(gids)
        self.ad_x.append(None)
        self.ad_y.append(None)
        return gids

    def set_ad(self, k, ad_x_rows, ad_y_rows):
        self.ad_x[k] = self._shared(ad_x_rows)
        self.ad_y[k] = self._shared(ad_y_rows)

    def _shared(self, rows):
        m = tuple(map(tuple, rows))
        return self._matrices.setdefault(m, m)

    def finish(self, N: int) -> GradedAlgebra:
        built = len(self.comp_gids) - 1
        ad_x = [self.ad_x[k] if k < built else None for k in range(built + 1)]
        ad_y = [self.ad_y[k] if k < built else None for k in range(built + 1)]
        missing = [k for k in range(1, built) if ad_x[k] is None]
        if missing:
            raise ValueError(f"adjoint maps not set in degrees {missing}")
        return GradedAlgebra(self.field, self.elements, self.comp_gids,
                             ad_x, ad_y, N=N, q=self.q, kind=self.kind)


# -- validation ----------------------------------------------------------------

class CheckResult:
    def __init__(self, name: str, ok: bool, witnesses: list | None = None,
                 detail: str = ""):
        self.name = name
        self.ok = ok
        self.witnesses = [] if witnesses is None else witnesses
        self.detail = detail


class ValidationReport:
    def __init__(self, checks: list):
        self.checks = checks

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

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


def validate(L: GradedAlgebra, checks=None,
             max_witnesses: int = 10) -> ValidationReport:
    """Run the axiom suite on a built algebra.

    The pair and triple checks run up to total degree B = L.N, which
    _check_wellformed keeps within the built range.  Failures carry
    witnesses (degrees / basis gids) rather than raising.

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
    is the independent oracle in tests/helpers.py (jacobi_triples), which
    no job runs.

    "words" and "jacobi" work on basis gids and ad rows, not on elements:
    they visit the same pairs as loops that bracket unit vectors through
    the bilinear bracket, and compute the same values, so they find the
    same witnesses.  A bracket of unit vectors is the bracket_basis value
    (see there for why reading ad rows and reducing once gives the same
    residues).  J(a, b, s) reads each of its three terms off the column
    entry that gives its bracket_basis value, the column of [a, s] built
    by GradedAlgebra.column among them, and is tested mod p once: the
    residue of the sum of reduced terms, on any ad data (see
    _jacobi_degree).  "words" evaluates each element as its parent's value
    times its letter, which is the evaluation of its word from scratch
    because the word is the parent's word plus that letter, and
    _check_wellformed lists parents first.

    "antisymmetry" visits only the pairs of one degree, yet finds the
    witnesses of the loop that compared bracket_basis(gi, gj) with
    _mirror_basis(gi, gj), the recursion on the first argument, on
    every pair gi <= gj of total degree <= B, and reported (gi, gi) once
    more when [e_gi, e_gi] != 0.  Lemma: _mirror_basis(r, g) =
    -bracket_basis(g, r) mod p whenever deg g >= deg r, on any ad data.
    By induction on deg r: for deg r = 1 both are minus e_g's ad r row;
    for r = [a, t] the two terms of _mirror_basis's recursion read
    _mirror_basis(a, .) at partners of degree >= deg g > deg a, so by
    hypothesis they are congruent to minus the two terms of bracket_basis's
    recursion for [g, [a, t]], and both sums are reduced once.  On a pair
    of distinct degrees both sides of the loop's comparison are
    -bracket_basis(gj, gi), by definition and by the lemma: it found
    nothing there.  On a pair of one degree they are column gj at gi and
    minus column gi at gj, which for gi = gj differ exactly when
    [e_gi, e_gi] != 0, as p is odd.  Pairs of distinct degrees anticommute
    by definition, so a passing check makes the bracket alternating up to
    degree B: the premise of the Jacobi argument above.

    Each check is an entry of CHECKS, which holds two fields: its
    function, and whether it runs in the shared column sweep.  A check
    passes when it finds no witness; an unknown name raises ValueError
    before any check runs.  The sweep checks, antisymmetry and jacobi over
    basis pairs, read the bracket_basis values off one sweep of
    L.bracket_columns (see _pair_checks), which holds two degrees of
    columns at a time: O(N) memory, and the bracket_basis memo, which
    serves few-pair callers, stays empty.  Their witnesses are those of
    the loops over all pairs: antisymmetry in ascending gid pair, jacobi
    by (total degree, deg a, gid_a, gid_b, gid_s), each cut to the first
    max_witnesses.  "bidegree" reads only the brackets of the pairs with
    a generator, which are ad rows (see _bidegree).
    """
    if checks is None:
        checks = NOTTINGHAM_CHECKS if L.kind == "nottingham" else MAXCLASS_CHECKS
    unknown = [name for name in checks if name not in CHECKS]
    if unknown:
        raise ValueError(f"unknown check {unknown[0]!r}")
    B, cap = L.N, max(max_witnesses, 1)
    swept = _pair_checks(L, B, checks, cap)
    out = []
    for name in checks:
        run, in_sweep = CHECKS[name]
        witnesses = swept[name] if in_sweep else run(L, B, cap)
        out.append(CheckResult(name, not witnesses, witnesses[:max_witnesses]))
    return ValidationReport(out)


def _dimensions(L: GradedAlgebra, B: int, cap: int) -> list:
    """The degrees k <= B with dim L_k not in {1, 2}, or not 2 for k = 1:
    _check_wellformed's invariant restated, so it passes on every
    GradedAlgebra (deflate artifacts embed the suites that name it)."""
    return [k for k in range(1, B + 1)
            if not 1 <= L.dim(k) <= 2 or (k == 1 and L.dim(1) != 2)]


def _covering(L: GradedAlgebra, B: int, cap: int) -> list:
    """(k, line) for each line of L_k, k < B, whose brackets with x and y
    do not span L_{k+1}."""
    p, witnesses = L.p, []
    for k in range(1, B):
        lines = [(1,)] if L.dim(k) == 1 else \
            [(1, t) for t in range(p)] + [(0, 1)]
        for ln in lines:
            u = (k, ln)
            rows = (L.apply_letter(u, "x")[1], L.apply_letter(u, "y")[1])
            if rank(rows, p) != L.dim(k + 1):
                witnesses.append((k, ln))
    return witnesses


def _words(L: GradedAlgebra, B: int, cap: int) -> list:
    """The gids whose word does not evaluate to their basis element, each
    evaluated as its parent's value times its letter: no word is spelled."""
    vals, witnesses = [], []
    for e in L.elements:
        got = L.eval_word(e.letter) if e.parent_gid is None else \
            L.apply_letter(vals[e.parent_gid], e.letter)
        vals.append(got)
        if got != L.as_element(e.gid):
            witnesses.append(e.gid)
    return witnesses


def _not_killed(L: GradedAlgebra, suffix: str, top: int) -> list:
    """(k, s) for each basis element of degree k < top that the suffix's
    letters, applied in turn, do not send to zero."""
    return [(k, s) for k in range(1, top) for s in range(L.dim(k))
            if not vec_is_zero(L.apply_word(L.as_element(L.gid(k, s)),
                                            suffix)[1])]


def _sandwich_y(L: GradedAlgebra, B: int, cap: int) -> list:
    """[u, y, y] = 0 for every u built with room for two letters."""
    return _not_killed(L, "yy", L.N_built - 1)


def _ad_x_power_q(L: GradedAlgebra, B: int, cap: int) -> list:
    """(ad x)^q = 0 for a Nottingham algebra; nothing to test without q."""
    return _not_killed(L, "x" * L.q, L.N_built + 1 - L.q) if L.q else []


def _bidegree(L: GradedAlgebra, B: int, cap: int) -> list:
    """(gi, gj, s), ascending, over the pairs gi <= gj with a generator
    and total degree <= B, when [e_gi, e_gj] is nonzero at coordinate s on
    a basis element whose bidegree is not the sum of e_gi's and e_gj's.
    These brackets are ad rows: [g, e] = -(ad g row of e) for deg e >= 2;
    [x, x], [x, y], [y, y] are ad rows of x and y.

    Lemma: bracket_basis on pairs gi <= gj reads only these rows (past the
    pair its first argument has degree >= 2: never the ad x row of y), so
    if they are homogeneous up to total degree T, so is every bracket of
    total degree <= T, by induction on the recursion.  So the loop over
    every pair (tests/helpers.memo_pair_witnesses) fails first in the same
    total degree, and its generator pairs, which come first, give these
    witnesses."""
    elements, witnesses = L.elements, []
    for g in L.comp_gids[1]:
        eg = elements[g]
        for e in elements[g:]:
            if e.degree >= B:
                break
            row = L.ad[e.letter][1][eg.index] if e.degree == 1 else \
                L.ad[eg.letter][e.degree][e.index]
            want = (eg.bidegree[0] + e.bidegree[0],
                    eg.bidegree[1] + e.bidegree[1])
            tgt = L.comp_gids[e.degree + 1]
            witnesses += [(g, e.gid, s) for s, c in enumerate(row)
                          if c and elements[tgt[s]].bidegree != want]
    return witnesses


def _pair_checks(L: GradedAlgebra, B: int, names, cap: int) -> dict:
    """{name: witnesses} for the sweep checks among names, from one sweep
    of L.bracket_columns(B).

    At degree d the sweep hands the column layers of degrees d and d + 1
    to each check's step in CHECKS (antisymmetry: the pairs of degree d;
    jacobi: the pairs with deg a = d, through the column of [c, s] for
    each c of L_d and generator s), then drops layer d.  The steps read
    bracket_basis values (see validate), so they find the witnesses of
    loops over bracket_basis: antisymmetry in ascending gid pair, complete
    up to the first cap, and jacobi the cap smallest keys.  A step returns
    whether its check can still change its list at degree d + 1; the
    sweep stops once none can."""
    found = {name: [] for name in names if CHECKS[name][1]}
    active = list(found)
    layers = L.bracket_columns(B)
    cur, d = next(layers, None) if active else None, 1
    while cur is not None and active:
        nxt = next(layers, None)    # None past the last layer
        active = [name for name in active
                  if CHECKS[name][0](L, B, d, cur, nxt, found[name], cap)]
        cur, d = nxt, d + 1
    return found


def _antisymmetry_degree(L: GradedAlgebra, B: int, d: int, layer, nxt,
                         witnesses, cap: int) -> bool:
    """Append the antisymmetry witnesses among the pairs gi <= gj of
    degree d, read off the degree-d column layer, in ascending gid pair:
    (gi, gj) when [e_gi, e_gj], column gj at gi, differs from
    -[e_gj, e_gi], minus column gi at gj mod p, and (gi, gi) after the
    pair (gi, gi) when [e_gi, e_gi] != 0 (see validate)."""
    p, gids = L.p, L.comp_gids[d]
    for i, gi in enumerate(gids):
        for j in range(i, len(gids)):
            lhs = layer[j][i]
            if lhs != tuple([-v % p for v in layer[i][j]]):
                witnesses.append((gi, gids[j]))
            if i == j and any(lhs):
                witnesses.append((gi, gi))
    return len(witnesses) < cap


def _jacobi_key(L: GradedAlgebra, w) -> tuple:
    """The order of jacobi witnesses (gid_a, gid_b, gid_s):
    (total degree, deg a, gid_a, gid_b, gid_s)."""
    da = L.elements[w[0]].degree
    return (da + L.elements[w[1]].degree + 1, da, *w)


def _jacobi_bound(L: GradedAlgebra, kept, cap: int, B: int) -> int:
    """The highest total degree a new Jacobi witness can still have."""
    return _jacobi_key(L, kept[-1])[0] if len(kept) >= cap else B


def _jacobi_degree(L: GradedAlgebra, B: int, d: int, cur, nxt, kept,
                   cap: int) -> bool:
    """Test J(a, b, s) != 0 over basis pairs gid_a <= gid_b with
    deg a = d, and generators s, with deg a + deg b + 1 <= B, keeping
    in kept the cap witnesses (gid_a, gid_b, gid_s) of smallest
    _jacobi_key, in that order.  cur and nxt are the column layers of
    degrees d and d + 1 (nxt is None when no pair needs it).

    [s, a] is taken as -[a, s], which antisymmetry justifies, so
    J(a, b, s) = [[a,b],s] + [[b,s],a] - [[a,s],b].  For each c of L_d
    and each s, v is the column of [c, s], built by L.column from column
    c at the partners g of degree d up to the bound, and
    X[g] = sum_e (ad s row of c)_e [g, e] over the e of L_{d+1}, with
    [g, e] read as column e at g beyond degree d + 1 and as minus column
    g at e at degrees d and d + 1.  Then

        J(c, g, s) = X[g] - v[g]  for deg g > d,
        J(g, c, s) = v[g] - X[g]  for deg g = d and gid g <= gid c,

    term by term, each term read off the column entry that bracket_basis
    gives it.  v[g] is [[g, c], s] - [[g, s], c]: column c at g against
    the ad s rows, minus the ad s row of g against column c at the e_h of
    degree deg g + 1, where [e_h, c] is column c at e_h.  [g, c] is
    column c at g when deg g = d, and [c, g] is minus column c at g when
    deg g > d.  [e, g] is column g at e when deg g <= d + 1 and minus
    column e at g beyond, so [[c, s], g] = -X[g].  v is reduced mod p
    once and v - X tested mod p once: the residue of the sum of the three
    terms.  So the witnesses are those of the loop over all pairs, on any
    ad data, antisymmetric or not.  Once kept is full, totals above its
    largest key's are skipped.

    For a defining pair (c, s) (_defining) with child e, v is column e:
    L.column builds both from column c and the letter s.  Beyond degree
    d + 1, X[g] is column e at g too, so J vanishes on any ad data and
    only the partners up to degree d + 1 are tested; at degree d + 1,
    X[g] is minus column g at e, which cancels only by antisymmetry."""
    p, elements, comp = L.p, L.elements, L.comp_gids
    lo, up, nd, ne = comp[d][0], comp[d + 1], len(cur), len(comp[d + 1])
    for ic, gc in enumerate(comp[d]):
        for gs in comp[1]:
            t = elements[gs].letter
            blocks = L._ad_blocks(t)
            top = min(_jacobi_bound(L, kept, cap, B) - d - 1,
                      d + 1 if _defining(L, gc, t) else B)
            if top < d:
                break
            # the partners g <= c of L_d, then every g of L_{d+1} to L_top
            v = L.column(cur[ic], lo, t, d + 1, d, top)
            del v[ic + 1:nd]
            beyond = len(v) - ic - 1
            # X[g] = f0 [g, e0] + f1 [g, e1], with (f0, f1) c's padded ad s
            # row and e0, e1 the first and the last e of L_{d+1} (one e and
            # f1 = 0 where it is a line); [g, e] is minus column g at e,
            # then column e at g.  A zero row gives X = 0 unread.
            f0, f1 = blocks[d][2 * ic:2 * ic + 2]
            near = [(col[nd], col[nd + ne - 1]) for col in cur[:ic + 1]]
            rest = ()
            if beyond:
                near += [(col[0], col[ne - 1]) for col in nxt]
                rest = zip(nxt[0][ne:beyond], nxt[-1][ne:beyond])
            x = [((f * a[0] + h * b[0]) % p,) if len(a) == 1 else
                 ((f * a[0] + h * b[0]) % p, (f * a[1] + h * b[1]) % p)
                 for f, h, ge in ((-f0, -f1, near), (f0, f1, rest))
                 for a, b in ge] if f0 or f1 else [(0,) * len(w) for w in v]
            gids = [*comp[d][:ic + 1], *range(up[0], up[0] + beyond)]
            for g, w, xg in zip(gids, v, x):
                if w != xg:
                    kept.append((min(g, gc), max(g, gc), gs))
                    kept.sort(key=functools.partial(_jacobi_key, L))
                    del kept[cap:]
    return 2 * (d + 1) + 1 <= _jacobi_bound(L, kept, cap, B)


def _defining(L: GradedAlgebra, a: int, t: str) -> bool:
    """Whether (a, t) is a defining pair: the ad t row of e_a is the unit
    vector of a basis element whose parent is a and whose letter is t."""
    ea = L.elements[a]
    row = L.ad[t][ea.degree][ea.index]
    return sum(row) == 1 and any(
        c == 1 and L.elements[g].parent_gid == a and L.elements[g].letter == t
        for g, c in zip(L.comp_gids[ea.degree + 1], row))


# The registry of checks: name -> (function, runs in the shared column
# sweep).  A sweep check's function is its step for _pair_checks, (L, B, d,
# layer d, layer d + 1, witnesses, cap) -> wants degree d + 1; any other
# check's is (L, B, cap) -> witnesses.
CHECKS = {
    "dimensions": (_dimensions, False),
    "covering": (_covering, False),
    "words": (_words, False),
    "antisymmetry": (_antisymmetry_degree, True),
    "jacobi": (_jacobi_degree, True),
    "sandwich_y": (_sandwich_y, False),
    "ad_x_power_q": (_ad_x_power_q, False),
    "bidegree": (_bidegree, False),
}
