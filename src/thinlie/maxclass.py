"""Graded Lie algebras of maximal class built from two-step centralizer
sequences.

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
from .gf import is_field_char


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

    def to_json(self) -> dict:
        return {"schema": "thinlie.sequence.v1", "p": self.p,
                "entries": "".join(self.entries)}

    @staticmethod
    def from_json(doc: dict) -> "CentralizerSequence":
        try:
            p, entries = doc["p"], doc["entries"]
        except KeyError as e:
            raise SequenceError(f"malformed sequence document: missing or "
                                f"misplaced field {e}") from None
        except TypeError:
            raise SequenceError("malformed sequence document: expected an "
                                "object with fields p and entries") from None
        if not is_field_char(p):
            raise SequenceError(f"p must be a prime > 3, got {p!r}")
        if not isinstance(entries, str):
            raise SequenceError("sequence entries must be a string of "
                                "'X' and 'Y'")
        return CentralizerSequence(p, entries)


def build_maxclass(seq: CentralizerSequence, N: int) -> GradedAlgebra:
    """Build the maximal-class algebra of a centralizer sequence to degree N.

    Basis: X, Y in degree 1, then U_i with U_{i+1} = [U_i Z] where Z is the
    generator NOT in C_i.  Always validated, as that is what realizes the
    sequence: raises UnrealizableSequenceError when the induced brackets
    fail the Lie axioms (checked exhaustively to degree N).
    """
    p = seq.p
    n_int = N + 2
    if len(seq) < n_int - 1:
        raise SequenceError(f"sequence too short: need c_2..c_{n_int}")
    b = AlgebraBuilder(p, q=None, kind="maxclass")
    b.add_degree([(None, "x"), (None, "y")])
    b.add_degree([(1, "x")])
    b.set_ad(1, [(0,), (1,)], [(p - 1,), (0,)])
    for i in range(2, n_int):
        (u,) = b.comp_gids[i]
        z = "x" if seq.get(i) == "Y" else "y"   # the generator not in C_i
        b.add_degree([(u, z)])
        b.set_ad(i, [(int(z == "x"),)], [(int(z == "y"),)])
    L = b.finish(N)
    report = validate(L)
    if not report.ok:
        raise UnrealizableSequenceError(report)
    return L
