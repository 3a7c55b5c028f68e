"""Diamond patterns: the two-way translation between (degree, type) lists and
concrete graded algebras, plus the named families and the computed-identity
suite.

A pattern lists the diamonds from the second one on; the first diamond L_1 is
implicit and untyped.  Canonical (normalized) form prefers the type-1 reading
of a fake diamond; consecutive entries then sit at degree gaps of q-1, with a
gap of q allowed only immediately after a type-1 fake.
"""

from __future__ import annotations

from .engine import AlgebraBuilder, GradedAlgebra, validate
from .gf import (PrimeField, is_field_char, smallest_prime_factor, vec_add,
                 vec_is_zero, vec_scale)
from .maxclass import CentralizerSequence


class DiamondType:
    """A diamond type, equal and hashable by value."""

    __slots__ = ("kind", "mu")

    def __init__(self, kind: str, mu: int | None = None):
        self.kind = kind     # "finite" | "infinite" | "fake1" | "fake0"
        self.mu = mu

    def __eq__(self, other):
        if other.__class__ is not DiamondType:
            return NotImplemented
        return self.kind == other.kind and self.mu == other.mu

    def __hash__(self):
        return hash((self.kind, self.mu))

    def __repr__(self):
        return f"DiamondType(kind={self.kind!r}, mu={self.mu!r})"

    @staticmethod
    def finite(mu: int, p: int) -> "DiamondType":
        mu %= p
        if mu in (0, 1):
            raise ValueError(f"finite type {mu} cannot occur as a genuine diamond")
        return DiamondType("finite", mu)

    @staticmethod
    def infinite() -> "DiamondType":
        return DiamondType("infinite")

    @staticmethod
    def fake1() -> "DiamondType":
        return DiamondType("fake1")

    @staticmethod
    def fake0() -> "DiamondType":
        return DiamondType("fake0")

    @property
    def genuine(self) -> bool:
        return self.kind in ("finite", "infinite")

    def mu_inv(self, p: int) -> int:
        """mu^{-1} with the convention infinity^{-1} = 0; fake1 counts as mu=1."""
        if self.kind == "infinite":
            return 0
        if self.kind == "fake1":
            return 1
        if self.kind == "finite":
            return pow(self.mu, -1, p)
        raise ValueError("mu_inv undefined for fake0")

    def label(self, p: int) -> str:
        if self.kind == "finite":
            mu = self.mu if self.mu <= p // 2 else self.mu - p
            return str(mu)
        return {"infinite": "inf", "fake1": "1", "fake0": "0"}[self.kind]

    def to_json(self) -> str:
        if self.kind == "finite":
            return f"finite:{self.mu}"
        return self.kind

    @staticmethod
    def from_json(s: str, p: int) -> "DiamondType":
        if isinstance(s, str) and s.startswith("finite:"):
            try:
                return DiamondType.finite(int(s.split(":", 1)[1]), p)
            except ValueError as e:
                raise PatternError(f"bad diamond type {s!r}: {e}") from None
        if s in ("infinite", "fake1", "fake0"):
            return DiamondType(s)
        raise PatternError(f"unknown diamond type {s!r}")


class DiamondPattern:
    """Normalized diamond pattern: entries (degree, type), starting at (q, -1).

    Patterns are equal when p, q and the entries are."""

    def __init__(self, p: int, q: int, entries: list):
        self.p = p
        self.q = q
        # [(degree, DiamondType), ...], degrees strictly increasing
        self.entries = entries

    def __eq__(self, other):
        if other.__class__ is not DiamondPattern:
            return NotImplemented
        return ((self.p, self.q, self.entries)
                == (other.p, other.q, other.entries))

    def __repr__(self):
        return (f"DiamondPattern(p={self.p!r}, q={self.q!r}, "
                f"entries={self.entries!r})")

    def truncate(self, N: int) -> "DiamondPattern":
        return DiamondPattern(self.p, self.q,
                              [e for e in self.entries if e[0] <= N])

    def max_degree(self) -> int:
        return self.entries[-1][0] if self.entries else 1

    def to_json(self) -> dict:
        return {
            "schema": "thinlie.pattern.v1",
            "p": self.p,
            "q": self.q,
            "entries": [{"degree": d, "type": t.to_json()} for d, t in self.entries],
        }

    @staticmethod
    def from_json(doc: dict) -> "DiamondPattern":
        try:
            p, q = doc["p"], doc["q"]
            raw = [(e["degree"], e["type"]) for e in doc["entries"]]
        except KeyError as e:
            raise PatternError(f"malformed pattern document: missing or "
                               f"misplaced field {e}") from None
        except TypeError:
            raise PatternError("malformed pattern document: expected an "
                               "object with fields p, q and entries, a list "
                               "of objects with fields degree and type") \
                from None
        check_p(p)
        if not all(isinstance(v, int) for v in (q, *(d for d, _ in raw))):
            raise PatternError("pattern q and entry degrees must be integers")
        check_q(p, q)
        return normalize([(d, DiamondType.from_json(t, p)) for d, t in raw],
                         p, q)


class PatternError(ValueError):
    pass


class ConstructionError(Exception):
    """A construction or deflation cannot proceed on its input; defined
    here so that the CLI maps it without importing constructions."""


def check_p(p):
    """Reject a characteristic given by a job unless it is a prime > 3."""
    if not is_field_char(p):
        raise PatternError(f"p must be a prime > 3, got {p!r}")


def check_q(p, q):
    """Reject a job's (p, q) unless p is a prime > 3 and q a power of p
    greater than 5."""
    check_p(p)
    if not _is_int(q) or q < 7 or not _is_ppower(q, p):
        raise _bad_q(q)


def char_of_q(q) -> int:
    """The characteristic of a job that gives q but not p: q's least prime
    factor.  q is checked first, so that a q with no prime factor (below 2,
    or not an integer) is reported as the bad q, not as the p it gives."""
    if not _is_int(q) or q < 2:
        raise _bad_q(q)
    return smallest_prime_factor(q)


def _bad_q(q) -> PatternError:
    return PatternError(f"q must be a power of p greater than 5, got {q!r}")


def deflation_steps(p: int, r) -> int:
    """The j >= 1 with r = p^j: the number of deflations from the
    parameter-(q r) algebra of family a down to N(q, r).  p must already
    have passed check_p."""
    j = 0
    while _is_int(r) and r > 1 and r % p == 0:
        r //= p
        j += 1
    if r != 1 or j < 1:
        raise PatternError("r must be a positive power of p")
    return j


def _is_int(v) -> bool:
    # JSON true and false load as bools, which are ints to isinstance
    return isinstance(v, int) and not isinstance(v, bool)


def _is_ppower(q: int, p: int) -> bool:
    """Whether q is a power of p (p^0 = 1 included); q >= 1, p >= 2."""
    while q % p == 0:
        q //= p
    return q == 1


def _allowed_gaps(prev_type, q: int):
    if prev_type is not None and prev_type.kind == "fake1":
        return (q - 1, q)
    return (q - 1,)


def normalize(raw_entries, p: int, q: int) -> DiamondPattern:
    """Canonicalize a raw entry list.

    Every fake is re-read in its type-1 form where the preceding gap allows
    it, and in its type-0 form otherwise; any other gap is rejected.
    """
    entries = sorted(raw_entries, key=lambda e: e[0])
    if not entries:
        raise PatternError("empty pattern")
    if any(entries[i][0] >= entries[i + 1][0] for i in range(len(entries) - 1)):
        raise PatternError("entry degrees must be strictly increasing")
    d0, t0 = entries[0]
    if d0 != q or t0.kind != "finite" or t0.mu != p - 1:
        raise PatternError(f"pattern must start with the second diamond ({q}, -1)")
    out = []
    prev_deg, prev_type = 1, None
    for deg, typ in entries:
        if typ.genuine:
            if deg - prev_deg not in _allowed_gaps(prev_type, q):
                raise PatternError(
                    f"diamond at {deg} sits at gap {deg - prev_deg} from {prev_deg}; "
                    f"allowed gaps are {_allowed_gaps(prev_type, q)}")
            out.append((deg, typ))
            prev_deg, prev_type = deg, typ
            continue
        # fake entry: site s is the degree of its type-1 reading
        site = deg if typ.kind == "fake1" else deg - 1
        ok1 = site - prev_deg in _allowed_gaps(prev_type, q)
        ok0 = site + 1 - prev_deg in _allowed_gaps(prev_type, q)
        if ok1:
            out.append((site, DiamondType.fake1()))
            prev_deg, prev_type = site, out[-1][1]
        elif ok0:
            out.append((site + 1, DiamondType.fake0()))
            prev_deg, prev_type = site + 1, out[-1][1]
        else:
            raise PatternError(
                f"fake diamond with type-1 reading at {site} fits no allowed gap "
                f"from {prev_deg}")
    return DiamondPattern(p, q, out)


# -- compilation -------------------------------------------------------------

def compile_pattern(pattern: DiamondPattern, N: int, guard: int = 2,
                    run_validation: bool = True):
    """Build the graded algebra a normalized pattern describes.

    The algebra is over-built to N + guard internally.  The pattern must
    cover the built range.  Returns (algebra, validate(algebra) if
    run_validation else None).  The package's callers pass False and
    validate where they check; bench/tracing.py still reads the pair.
    """
    p, q = pattern.p, pattern.q
    field = PrimeField(p)
    if q < 7 or N < q + 2:
        raise PatternError("need q = p^n > 5 and N >= q + 2")
    n_int = N + guard
    last = pattern.max_degree()
    nxt_gap = q if pattern.entries and pattern.entries[-1][1].kind == "fake1" else q - 1
    if last + nxt_gap <= n_int:
        raise PatternError(
            f"pattern ends at {last}; need entries covering degree {n_int}")
    genuine = {d: t for d, t in pattern.entries if t.genuine}
    fake1 = {d for d, t in pattern.entries if t.kind == "fake1"}
    fake0 = {d for d, t in pattern.entries if t.kind == "fake0"}

    b = AlgebraBuilder(field, q=q)
    b.add_degree([(None, "x"), (None, "y")])
    for k in range(1, n_int):
        m = k + 1
        w = b.comp_gids[k][0]
        if k == 1:
            b.add_degree([(b.comp_gids[1][1], "x")])
            b.set_ad(1, [(0,), (1,)], [(p - 1,), (0,)])
        elif k in genuine:
            minv = genuine[k].mu_inv(p)
            b.add_degree([(w, "y")])
            b.set_ad(k, [(0,), ((minv - 1) % p,)], [(1,), (0,)])
        elif m in genuine:
            b.add_degree([(w, "x"), (w, "y")])
            b.set_ad(k, [(1, 0)], [(0, 1)])
        elif m in fake1 or k in fake0:
            b.add_degree([(w, "x")])
            b.set_ad(k, [(1,)], [(0,)])
        elif k in fake1 or m in fake0:
            b.add_degree([(w, "y")])
            b.set_ad(k, [(0,)], [(1,)])
        else:
            b.add_degree([(w, "x")])
            b.set_ad(k, [(1,)], [(0,)])
    L = b.finish(N)
    report = None
    if run_validation:
        report = validate(L)
    return L, report


# -- detection ---------------------------------------------------------------

class DetectionReport:
    def __init__(self, sites: list, untypable: list):
        self.sites = sites               # fake sites, by type-1 reading degree
        self.untypable = untypable       # witnesses (degree, reason)

    @property
    def ok(self) -> bool:
        return not self.untypable


def detect(L: GradedAlgebra):
    """Read the diamond pattern off a built algebra.

    Returns (DiamondPattern, DetectionReport).  2-dimensional components are
    classified by solving the type relations; 1-dimensional components where
    the x-chain breaks are fake sites, normalized to their canonical reading.
    Raises PatternError when L stops below q, before its second diamond.
    """
    p = L.p
    q = L.q
    if L.N < q:
        raise PatternError(f"--N {L.N} is below q = {q}, the second diamond's degree")
    limit = min(L.N, L.N_built - 1)
    raw = []
    sites = []
    untypable = []
    for m in range(2, limit + 1):
        if L.dim(m) == 2:
            if L.dim(m - 1) != 1 or L.dim(m + 1) != 1:
                untypable.append((m, "adjacent component of a diamond not 1-dim"))
                continue
            w = L.as_element(L.gid(m - 1, 0))
            if not vec_is_zero(L.apply_word(w, "xx")[1]) or \
               not vec_is_zero(L.apply_word(w, "yy")[1]):
                untypable.append((m, "[wxx] or [wyy] nonzero"))
                continue
            lam = L.apply_word(w, "yx")[1][0]
            kap = L.apply_word(w, "xy")[1][0]
            if lam == 0 and kap == 0:
                untypable.append((m, "both [wyx] and [wxy] vanish"))
                continue
            if (lam + kap) % p == 0:
                raw.append((m, DiamondType.infinite()))
            else:
                mu = kap * pow((lam + kap) % p, -1, p) % p
                if mu in (0, 1):
                    untypable.append((m, f"degenerate finite type {mu} on a "
                                         "2-dimensional component"))
                    continue
                raw.append((m, DiamondType("finite", mu)))
        elif m > 2 and L.dim(m) == 1 and L.dim(m + 1) == 1:
            u = L.as_element(L.gid(m, 0))
            if not vec_is_zero(L.apply_letter(u, "x")[1]):
                continue
            # x-chain break: fake site, type-1 reading at m
            wprev = L.as_element(L.gid(m - 1, 0))
            checks = [vec_is_zero(L.apply_letter(wprev, "y")[1]),
                      not vec_is_zero(L.apply_letter(u, "y")[1])]
            if m + 2 <= L.N_built:
                c = L.apply_letter(u, "y")
                checks.append(vec_is_zero(L.apply_letter(c, "y")[1]))
            if not all(checks):
                untypable.append((m, "x-chain break without fake-diamond relations"))
                continue
            sites.append(m)
            raw.append((m, DiamondType.fake1()))
    pattern = normalize(raw, p, q)
    return pattern, DetectionReport(sites, untypable)


# -- regularity ----------------------------------------------------------------

class RegularityReport:
    """`violations`: the bidegrees of the support outside S_<=(q), in
    ascending order; `regular`: there are none."""

    def __init__(self, regular: bool, violations: list):
        self.regular = regular
        self.violations = violations


def classify_regularity(L: GradedAlgebra) -> RegularityReport:
    """Support against S_<=(q) = {-1 <= (q-2)s - r <= q-2}.

    The generators' bidegrees (1,0) and (0,1) sit on the boundary of the
    band, so degree 1 is included in the comparison.
    """
    q = L.q
    violations = sorted((r, s) for r, s in L.support()
                        if not -1 <= (q - 2) * s - r <= q - 2)
    return RegularityReport(regular=not violations, violations=violations)


# -- named families --------------------------------------------------------------

FAMILY_PARAMS = frozenset({"r", "s", "sequence", "start_type", "step"})


def family_pattern(family: str, p: int, q: int, N: int, **params) -> DiamondPattern:
    """Raw pattern generator for the named families, normalized to degree N.

    Family nqr is N(q, r), r = p^j with j >= 1: the algebra that j
    deflations of the parameter-(q r) algebra of family a give
    (constructions.nottingham_Nqr).  Its pattern is written down in closed
    form: the second diamond (q, -1); further diamonds of type -1 at
    q + k(r q - 1), k >= 1; and after each genuine diamond g, r - 1 fakes
    of type 1 at g + (q - 1) + i q, i = 0, ..., r - 2, the last of them q
    degrees before the next genuine diamond.  Compiling the pattern builds
    the algebra because the paper's uniqueness theorem says a Nottingham
    algebra is determined by its diamond pattern.  That this closed form is
    the pattern deflation produces is an observation, not proved here; its
    evidence is the cross-check in tests/test_constructions.py, which
    deflates and compiles at nine (p, q, r) and finds the same structure
    SHA-256 and the same detected pattern.
    """
    check_q(p, q)
    grid = list(range(q, N + 1, q - 1))       # degrees k(q-1)+1, k >= 1

    def need(name):
        if name not in params:
            raise PatternError(f"family {family!r} needs parameter {name!r}")
        return params[name]

    def need_int(name, least=None):
        val = need(name)
        if not _is_int(val):
            raise PatternError(f"family {family!r} parameter {name!r} must be "
                               f"an integer, got {val!r}")
        if least is not None and val < least:
            raise PatternError(f"family {family!r} parameter {name!r} must be "
                               f"at least {least}, got {val}")
        return val

    def prog_type(val: int) -> DiamondType:
        val %= p
        if val == 1:
            return DiamondType.fake1()
        if val == 0:
            return DiamondType.fake0()
        return DiamondType("finite", val)

    raw = []
    if family == "a":
        raw = [(d, DiamondType.finite(-1, p)) for d in grid]
    elif family == "b":
        start = need_int("start_type")        # type of the third diamond
        step = (start + 1) % p
        if step == 0:
            raise PatternError("case (b) requires a non-constant progression")
        for j, d in enumerate(grid):          # j=0 <-> degree q, type -1
            raw.append((d, prog_type(-1 + j * step)))
    elif family in ("c", "d"):
        # p^s (q - 1) > N once p^s > N, and then only the second diamond
        # is on the progression: capping s keeps p ** s small
        s = min(need_int("s", least=1), N.bit_length())
        period = p ** s * (q - 1)
        step = need_int("step") if "step" in params or family == "d" else 0
        if family == "d" and step % p == 0:
            raise PatternError("case (d) requires a non-constant progression")
        j = 0
        for d in grid:
            if (d - q) % period == 0:
                raw.append((d, prog_type(-1 + j * step)))
                j += 1
            else:
                raw.append((d, DiamondType.infinite()))
    elif family == "e":
        raw = [(grid[0], DiamondType.finite(-1, p))]
        raw += [(d, DiamondType.infinite()) for d in grid[1:]]
    elif family == "L1q":
        raw = [(q, DiamondType.finite(-1, p))]
        raw += [(m, DiamondType.fake1()) for m in range(2 * q - 1, N + 1, q)]
    elif family == "L0q":
        raw = [(q, DiamondType.finite(-1, p))]
        raw += [(m, DiamondType.fake0()) for m in range(2 * q - 1, N + 1, q)]
    elif family == "tq2":
        seq: CentralizerSequence = need("sequence")
        if seq.p != p:
            raise PatternError(f"family 'tq2' needs a sequence over p = {p}, "
                               f"got one over p = {seq.p}")
        raw = [(q, DiamondType.finite(-1, p))]
        deg = q
        i = 2
        while True:
            deg += (q - 1) + (1 if i > 2 and seq.get(i - 1) == "X" else 0)
            if deg > N:
                break
            raw.append((deg, DiamondType.fake1() if seq.get(i) == "X"
                        else DiamondType.infinite()))
            i += 1
    elif family == "uniqueness":
        s = need_int("s", least=1)
        seq = uniqueness_sequence(p, s, 2 * (N // (q - 1)) + 4)
        return family_pattern("tq2", p, q, N, sequence=seq)
    elif family == "nqr":
        r = need_int("r")
        deflation_steps(p, r)                 # r must be a power p^j, j >= 1
        for g in range(q, N + 1, r * q - 1):
            raw.append((g, DiamondType.finite(-1, p)))
            last_fake = min(g + (q - 1) + (r - 2) * q, N)
            raw += [(m, DiamondType.fake1())
                    for m in range(g + q - 1, last_fake + 1, q)]
    else:
        raise PatternError(f"unknown family {family!r}")
    return normalize([e for e in raw if e[0] <= N], p, q)


def family_pattern_from_json(doc: dict, N: int) -> DiamondPattern:
    """Family-spec documents: {"family": ..., "p": ..., "q": ...,
    "params": {...}}; sequence parameters are given inline as sequence JSON.
    The pattern runs to N, which the job's --N decides."""
    try:
        family, p, q = doc["family"], doc["p"], doc["q"]
        params = doc.get("params", {})
    except KeyError as e:
        raise PatternError(f"malformed family spec: missing or misplaced "
                           f"field {e}") from None
    except TypeError:
        raise PatternError("malformed family spec: expected an object with "
                           "fields family, p and q, and optionally params; "
                           "the job's --N sets the degree") from None
    if not isinstance(params, dict):
        raise PatternError("family spec field 'params' must be an object")
    unknown = sorted(set(params) - FAMILY_PARAMS, key=str)
    if unknown:
        raise PatternError(f"unknown family parameter {unknown[0]!r}; "
                           f"known are {sorted(FAMILY_PARAMS)}")
    params = dict(params)
    if "sequence" in params:
        params["sequence"] = CentralizerSequence.from_json(params["sequence"])
    return family_pattern(family, p, q, N, **params)


def uniqueness_sequence(p: int, s: int, length: int) -> CentralizerSequence:
    """Two-step centralizer sequence behind the earliest-fake hypothesis.

    The second centralizer first occurs at index 2 p^s and then at every
    further multiple of p^s; this is the periodic backbone, the continuation
    found (by exhaustive Jacobi search at desk scale) to realize the
    hypothesis pattern.
    """
    # p^s > length + 1 leaves no 'X' in range: capping s keeps p ** s small
    period = p ** min(s, (length + 1).bit_length())
    entries = ["X" if i % period == 0 and i >= 2 * period else "Y"
               for i in range(2, length + 2)]
    return CentralizerSequence(p, entries)


# -- computed-identity suite (general calculations) -----------------------------

class LemmaInstance:
    def __init__(self, lemma: str, degree: int, identity: str, status: str,
                 detail: str = ""):
        self.lemma = lemma
        self.degree = degree
        self.identity = identity
        self.status = status     # "pass" | "fail" | "skip"
        self.detail = detail

    def to_json(self) -> dict:
        return vars(self)


class LemmaReport:
    def __init__(self, instances: list):
        self.instances = instances

    @property
    def ok(self) -> bool:
        return all(i.status != "fail" for i in self.instances)

    def to_json(self) -> dict:
        return {
            "schema": "thinlie.lemmas.v1",
            "ok": self.ok,
            "instances": [i.to_json() for i in self.instances],
        }


# The concluding calculations, one row per identity: (lemma, label, left
# factor (element, suffix), right factor v1 or v2, right-hand terms), and
# perhaps a condition.  A term (a, b, element, suffix) is (a mu^-1 + b)
# [element suffix]; no terms is 0.  Elements are named as in _lemma_contexts
# (lemma_type1 writes vb for vk).  A row runs where its lemma's hypothesis
# holds and the condition it names, if any, holds too.
LEMMA_TABLE = (
    ("lemma_v1", "[vk v1] = (mu^-1+1) vk+1", ("vk", ""), "v1", ((1, 1, "vk+1", ""),)),
    ("lemma_v1", "[vk x v1] = [vk+1 x]", ("vk", "x"), "v1", ((0, 1, "vk+1", "x"),)),
    ("lemma_v1", "[vk y v1] = (1-mu^-1)[vk+1 y]", ("vk", "y"), "v1",
     ((-1, 1, "vk+1", "y"),)),
    ("lemma_v1", "[vk xy v1] = -(2[vk+1 yx]+[vk+1 xy])", ("vk", "xy"), "v1",
     ((0, -2, "vk+1", "yx"), (0, -1, "vk+1", "xy"))),
    ("lemma_v1", "[vk xyx v1] = -(3[vk+1 yxx]+2[vk+1 xyx])", ("vk", "xyx"), "v1",
     ((0, -3, "vk+1", "yxx"), (0, -2, "vk+1", "xyx"))),
    ("lemma_v1", "[vk^-1 v1] = (2mu^-1+1) vk+1^-1", ("vk^-1", ""), "v1",
     ((2, 1, "vk+1^-1", ""),), "prev"),
    ("rem_v1_mu0", "[vk^-1 v1] = 2 vk+1^-1", ("vk^-1", ""), "v1",
     ((0, 2, "vk+1^-1", ""),), "prev"),
    ("lemma_v2", "[vk v2] = mu^-1 vk+2", ("vk", ""), "v2", ((1, 0, "vk+2", ""),)),
    ("lemma_v2", "[vk x v2] = 0", ("vk", "x"), "v2", ()),
    ("lemma_v2", "[vk y v2] = 0", ("vk", "y"), "v2", ()),
    ("lemma_v2", "[vk xy v2] = [vk+2 yx]+[vk+2 xy]", ("vk", "xy"), "v2",
     ((0, 1, "vk+2", "yx"), (0, 1, "vk+2", "xy"))),
    ("lemma_v2", "[vk xyx v2] = 2([vk+2 yxx]+[vk+2 xyx])", ("vk", "xyx"), "v2",
     ((0, 2, "vk+2", "yxx"), (0, 2, "vk+2", "xyx"))),
    ("lemma_v2ext", "[vk v2] = -2mu^-1 vk+2", ("vk", ""), "v2", ((-2, 0, "vk+2", ""),)),
    ("lemma_v2ext", "[vk x v2] = -mu^-1 [vk+2 x]", ("vk", "x"), "v2",
     ((-1, 0, "vk+2", "x"),)),
    ("lemma_v2ext", "[vk y v2] = -mu^-1 [vk+2 y]", ("vk", "y"), "v2",
     ((-1, 0, "vk+2", "y"),)),
    ("lemma_v2ext", "[vk xy v2] = [vk+2 xy]+(2mu^-1+1)[vk+2 yx]", ("vk", "xy"), "v2",
     ((0, 1, "vk+2", "xy"), (2, 1, "vk+2", "yx"))),
    ("lemma_v2ext", "[vk xyx v2] = 2[vk+2 xyx]+(3mu^-1+2)[vk+2 yxx]",
     ("vk", "xyx"), "v2", ((0, 2, "vk+2", "xyx"), (3, 2, "vk+2", "yxx"))),
    ("lemma_v2ext", "[vk^-1 v2] = -3mu^-1 vk+2^-1", ("vk^-1", ""), "v2",
     ((-3, 0, "vk+2^-1", ""),), "prev"),
    ("rem_v2ext_mu0", "[vk v2] = -2 vk+2", ("vk", ""), "v2", ((0, -2, "vk+2", ""),)),
    ("rem_v2ext_mu0", "[vk x v2] = -[vk+2 x]", ("vk", "x"), "v2",
     ((0, -1, "vk+2", "x"),)),
    ("rem_v2ext_mu0", "[vk y v2] = -[vk+2 y]", ("vk", "y"), "v2",
     ((0, -1, "vk+2", "y"),)),
    ("rem_v2ext_mu0", "[vk xy v2] = 2[vk+2 yx]", ("vk", "xy"), "v2",
     ((0, 2, "vk+2", "yx"),)),
    ("rem_v2ext_mu0", "[vk xyx v2] = 3[vk+2 yxx]", ("vk", "xyx"), "v2",
     ((0, 3, "vk+2", "yxx"),)),
    ("rem_v2ext_mu0", "[vk^-1 v2] = -3 vk+2^-1", ("vk^-1", ""), "v2",
     ((0, -3, "vk+2^-1", ""),), "prev"),
    ("lemma_type1", "[vb v1] = 2 vb+1^-1", ("vk", ""), "v1", ((0, 2, "vk+1^-1", ""),)),
    ("lemma_type1", "[vb x v1] = vb+1", ("vk", "x"), "v1", ((0, 1, "vk+1", ""),)),
    ("lemma_type1", "[vb xy v1] = -[vb+1 y]", ("vk", "xy"), "v1",
     ((0, -1, "vk+1", "y"),), "L_{m+q+1}"),
    ("lemma_type1", "[vb xy v2] = 0", ("vk", "xy"), "v2", (), "L_{m+2q-1}"),
    ("lemma_type1", "[vb v2] = 2 vb+2^-1", ("vk", ""), "v2",
     ((0, 2, "vk+2^-1", ""),), "infinite at m+q"),
    ("lemma_type1", "[vb x v2] = vb+2", ("vk", "x"), "v2",
     ((0, 1, "vk+2", ""),), "infinite at m+q"),
)


def _lemma_contexts(L: GradedAlgebra, entries: list, idx: int, has_v2: bool):
    """{lemma: (mu^-1, steps, join, conditions)} for the lemmas whose
    hypotheses hold at entries[idx] = (m, t), in the suite's order.

    vk spans L_{m-1}, and vk+j is vk times the words steps[0..j-1].  With
    join = (d, suffix) and root spanning L_d, vk+j^-1 is [root suffix
    steps[0..j-1]] with its last x dropped (vk^-1 joins [root suffix]).
    The root is the previous entry's vk, or vk itself for lemma_type1.
    conditions are those the lemma's rows may name; "prev" holds when
    there is an earlier entry."""
    p, q, N = L.p, L.q, L.N_built
    m, t = entries[idx]
    nxt, nxt2 = (entries[idx + i] if idx + i < len(entries) else (None, None)
                 for i in (1, 2))
    step, step0, step1 = ("xy" + "x" * (q - 3), "y" + "x" * (q - 2),
                          "xy" + "x" * (q - 2))
    join = None
    if idx > 0:
        m_prev, t_prev = entries[idx - 1]
        after_gap_q = t_prev.kind == "fake1" and m - m_prev == q
        join = (m_prev - 1, step0 if t_prev.kind == "fake0"
                else step1 if after_gap_q else step)
    prev = {"prev": join is not None}
    out = {}
    if t.genuine and m + q + 1 <= N and nxt[0] == m + q - 1:
        out["lemma_v1"] = (t.mu_inv(p), (step,), join, prev)
    # mu = 0 variant of the v1 lemma at fake0 entries
    if t.kind == "fake0" and m + q - 2 <= N:
        out["rem_v1_mu0"] = (0, (step0,), join, prev)
    # v2 across the next diamond, at m + q - 1
    across = has_v2 and nxt[0] == m + q - 1 and m + 2 * q <= N
    if t.genuine and across and nxt[1].kind == "infinite":
        out["lemma_v2"] = (t.mu_inv(p), (step, step), join, prev)
    # a finite-type successor (mu != 0), incl. mu = 1 read as a fake of
    # type 1 followed at q-1 by a diamond
    if t.kind == "infinite" and across and (
            nxt[1].kind == "finite" or (nxt[1].kind == "fake1"
                                        and nxt2[0] == m + 2 * q - 2)):
        out["lemma_v2ext"] = (nxt[1].mu_inv(p), (step, step), join, prev)
    # mu = 0 variant: an infinite diamond followed by a fake of type 0
    if t.kind == "infinite" and across and nxt[1].kind == "fake0":
        out["rem_v2ext_mu0"] = (0, (step, step0), join, prev)
    # type-1 lemma at fakes followed at gap q
    if t.kind == "fake1" and nxt[0] == m + q and m + q <= N:
        out["lemma_type1"] = (0, (step1, step), (m - 1, ""), {
            "L_{m+q+1}": m + q + 1 <= N,
            "L_{m+2q-1}": has_v2 and m + 2 * q - 1 <= N,
            "infinite at m+q": (nxt[1].kind == "infinite" and has_v2
                                and m + 2 * q - 2 <= N)})
    return out


def _y_nonzero(L: GradedAlgebra, j: int) -> list:
    """The basis elements of L_j that ad y does not kill."""
    return [i for i in range(L.dim(j)) if not vec_is_zero(
        L.apply_letter(L.as_element(L.gid(j, i)), "y")[1])]


def verify_distance(L: GradedAlgebra, pattern: DiamondPattern) -> list:
    """The "distance" LemmaInstances of the pattern of L: y centralizes
    every component that is not a diamond and does not immediately precede
    one.  One instance per entry checks the window after that diamond, up
    to the last degree ad y is built on, and names the degrees tested.
    It reads ad y rows alone."""
    q, entries, inst = L.q, pattern.entries, []
    for idx, (m, t) in enumerate(entries):
        nxt = entries[idx + 1][0] if idx + 1 < len(entries) else None
        hi = m + q - 3
        if nxt == m + q or (nxt is None and t.kind == "fake1"):
            hi = m + q - 2
        top = min(hi, L.N_built - 1)
        if top <= m:
            inst.append(LemmaInstance(
                "distance", m, f"ad_y vanishes on L_{m+1}..L_{hi}", "skip",
                f"ad y is built only on L_1..L_{L.N_built - 1}"))
            continue
        bad = [j for j in range(m + 1, top + 1) for _ in _y_nonzero(L, j)]
        inst.append(LemmaInstance("distance", m,
                                  f"ad_y vanishes on L_{m+1}..L_{top}",
                                  "pass" if not bad else "fail",
                                  "" if not bad else f"nonzero at {bad}"))
    return inst


def verify_lemma_suite(L: GradedAlgebra) -> LemmaReport:
    """Check every computed identity of the concluding-calculation lemmas
    (LEMMA_TABLE) at every context of L's detected pattern matching its
    hypotheses, plus the second-diamond relation and the post-diamond
    centralizing windows (verify_distance)."""
    p, q = L.p, L.q
    pattern, _ = detect(L)
    inst = []

    def eq(tag, m, label, lhs, rhs):
        ok = lhs[0] == rhs[0] and lhs[1] == rhs[1]
        inst.append(LemmaInstance(tag, m, label, "pass" if ok else "fail",
                                  "" if ok else f"lhs={lhs} rhs={rhs}"))

    v1g = L.eval_word("y" + "x" * (q - 2))
    v2g = L.apply_word(v1g, "xy" + "x" * (q - 3)) if 2 * q - 2 <= L.N_built else None
    rows, el = {}, L.elements

    def bracket(u, v):  # [u, v1] or [u, v2]: one brackets_with each, lazily
        if v[0] not in rows:
            rows[v[0]] = L.brackets_with(v[0], L.N_built - v[0])
        return L._bilinear(u, v, lambda g, c: rows[v[0]][el[g].degree - 1][
            el[g].index][el[c].index])

    # second-diamond relation (standard-generator normalization)
    eq("eq1", q, "[v1yx] = -2[v1xy]", L.apply_word(v1g, "yx"),
       (q + 1, vec_scale(-2, L.apply_word(v1g, "xy")[1], p)))
    eq("eq1", q, "[v1xx] = 0", L.apply_word(v1g, "xx"), L.zero(q + 1))
    eq("eq1", q, "[v1yy] = 0", L.apply_word(v1g, "yy"), L.zero(q + 1))

    inst.extend(verify_distance(L, pattern))

    entries = pattern.entries
    for idx, (m, t) in enumerate(entries):
        contexts = _lemma_contexts(L, entries, idx, v2g is not None)
        for lemma, (minv, steps, join, holds) in contexts.items():
            if lemma == "lemma_type1":
                inst.append(LemmaInstance(
                    "lemma_type1", m, "[L_{m+q-2} y] = 0",
                    "fail" if _y_nonzero(L, m + q - 2) else "pass"))
            # made on first use, by a row whose guards hold: an element
            # another row needs may lie past N_built
            made = {"vk": L.as_element(L.gid(m - 1, 0))}
            recipe = {}
            if join is not None:
                made["root"] = L.as_element(L.gid(join[0], 0))
                recipe = {"join": ("root", join[1]), "vk^-1": ("root", join[1][:-1])}
            for j in range(1, len(steps) + 1):
                word = "".join(steps[:j])
                recipe |= {f"vk+{j}": ("vk", word),
                           f"vk+{j}^-1": ("join", word[:-1])}

            def element(name, suffix):
                if name not in made:
                    made[name] = element(*recipe[name])
                return L.apply_word(made[name], suffix)

            for tag, label, left, right, terms, *when in LEMMA_TABLE:
                if tag != lemma or not all(holds[c] for c in when):
                    continue
                lhs = bracket(element(*left), v1g if right == "v1" else v2g)
                rhs = L.zero(lhs[0])
                for a, b, name, suffix in terms:
                    k, vec = element(name, suffix)
                    rhs = (k, vec_add(rhs[1], vec_scale(a * minv + b, vec, p), p))
                eq(lemma, m, label, lhs, rhs)

    return LemmaReport(inst)
