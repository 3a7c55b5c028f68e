"""Graded Lie algebras of maximal class built from two-step centralizer
sequences, and the reverse extraction.

A sequence lists, for i = 2, 3, ..., which line of the degree-1 component
centralizes the i-th component: 'Y' (the sandwich side, forced at i = 2 by
the choice of generators) or 'X'.  Occurrences of 'X' must be isolated.
Whether a sequence is realized by an actual Lie algebra is established by
building it and running the full Jacobi validation, not by any constituent
theory; unrealizable sequences fail within a few degrees of the offending
entry.
"""

from __future__ import annotations

from .engine import AlgebraBuilder, GradedAlgebra, ValidationReport, validate
from .gf import PrimeField, is_field_char, vec_is_zero


class SequenceError(ValueError):
    pass


class UnrealizableSequenceError(Exception):
    """The built bracket structure violates the Lie axioms."""

    def __init__(self, report: ValidationReport):
        super().__init__("sequence is not realized by a Lie algebra:\n"
                         + report.summary())
        self.report = report


class CentralizerSequence:
    """Entries c_2, c_3, ... over {'X', 'Y'}."""

    def __init__(self, p: int, entries):
        self.p = p
        if isinstance(entries, str):
            entries = list(entries)
        self.entries = [e.upper() for e in entries]
        if any(e not in ("X", "Y") for e in self.entries):
            raise SequenceError("entries must be 'X' or 'Y'")
        if not self.entries or self.entries[0] != "Y":
            raise SequenceError("c_2 must be 'Y' (Y is chosen inside C_2)")
        for a, b in zip(self.entries, self.entries[1:]):
            if a == b == "X":
                raise SequenceError("'X' entries must be isolated")

    def get(self, i: int) -> str:
        """c_i for i >= 2."""
        if i < 2 or i - 2 >= len(self.entries):
            raise SequenceError(f"c_{i} not covered by this sequence")
        return self.entries[i - 2]

    def __len__(self):
        return len(self.entries)

    def __eq__(self, other):
        return (isinstance(other, CentralizerSequence)
                and self.p == other.p and self.entries == other.entries)

    def __repr__(self):
        return f"CentralizerSequence(p={self.p}, {''.join(self.entries)})"

    def x_positions(self):
        """Indices i with c_i = 'X'."""
        return [i + 2 for i, e in enumerate(self.entries) if e == "X"]

    def prefix(self, length: int) -> "CentralizerSequence":
        return CentralizerSequence(self.p, self.entries[:length])

    def to_json(self) -> dict:
        return {"schema": "thinlie.sequence.v1", "p": self.p,
                "entries": "".join(self.entries)}

    @staticmethod
    def from_json(doc: dict) -> "CentralizerSequence":
        try:
            p, entries = doc["p"], doc["entries"]
        except (KeyError, TypeError) as e:
            raise SequenceError(f"malformed sequence document: missing or "
                                f"misplaced field {e}") from None
        if not is_field_char(p):
            raise SequenceError(f"p must be a prime > 3, got {p!r}")
        if not isinstance(entries, str):
            raise SequenceError("sequence entries must be a string of "
                                "'X' and 'Y'")
        return CentralizerSequence(p, entries)


def metabelian_sequence(p: int, length: int) -> CentralizerSequence:
    return CentralizerSequence(p, "Y" * length)


class MaxClassAlgebra:
    def __init__(self, algebra: GradedAlgebra, sequence: CentralizerSequence):
        self.algebra = algebra
        self.sequence = sequence

    @property
    def N(self):
        return self.algebra.N


def build_maxclass(seq: CentralizerSequence, N: int) -> MaxClassAlgebra:
    """Build the maximal-class algebra of a centralizer sequence to degree N.

    Basis: X, Y in degree 1, then U_i with U_{i+1} = [U_i Z] where Z is the
    generator NOT in C_i.  Always validated, as that is what realizes the
    sequence: raises UnrealizableSequenceError when the induced brackets
    fail the Lie axioms (checked exhaustively to degree N).
    """
    field = PrimeField(seq.p)
    p = seq.p
    n_int = N + 2
    if len(seq) < n_int - 1:
        raise SequenceError(f"sequence too short: need c_2..c_{n_int}")
    b = AlgebraBuilder(field, q=None, kind="maxclass")
    b.add_degree([("x", None, None), ("y", None, None)])
    b.add_degree([("yx", 1, "x")])
    b.set_ad(1, [(0,), (1,)], [(p - 1,), (0,)])
    for i in range(2, n_int):
        (u,) = [b.elements[g] for g in b.comp_gids[i]]
        if seq.get(i) == "Y":
            b.add_degree([(u.word + "x", u.gid, "x")])
            b.set_ad(i, [(1,)], [(0,)])
        else:
            b.add_degree([(u.word + "y", u.gid, "y")])
            b.set_ad(i, [(0,)], [(1,)])
    L = b.finish(N, meta={"sequence": seq.to_json()})
    report = validate(L)
    if not report.ok:
        raise UnrealizableSequenceError(report)
    return MaxClassAlgebra(L, seq.prefix(n_int - 1))


def extract_centralizer_sequence(M: MaxClassAlgebra | GradedAlgebra) -> CentralizerSequence:
    """Read the two-step centralizer sequence off a built algebra."""
    L = M.algebra if isinstance(M, MaxClassAlgebra) else M
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
