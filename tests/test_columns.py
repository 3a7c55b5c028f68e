"""The pair checks and the structure writer read bracket values off one
sweep of bracket columns (GradedAlgebra.bracket_columns) that keeps two
degrees at a time.  The columns equal bracket_basis; _mirror_basis is
minus bracket_basis with the arguments exchanged (the lemma in validate's
docstring that lets antisymmetry visit only same-degree pairs); and the
witness lists equal those of the loops over the bracket_basis memo and
_mirror_basis (helpers.memo_pair_witnesses), capped and uncapped, on the
corpus and on algebras that fail the checks.  The memo stays empty and
the memory they take stays O(N).  The triples the Jacobi check skips are
zero, and the bidegree check on the pairs with a generator agrees with
the loop over every pair.  brackets_with, the brackets with one degree
that the fill of D, the Leibniz certificate, the extraction and the
lemma suite read off the same sweep, lists bracket_basis values too, and
the lemma suite reports through it what it reports through the memo.  A
distance job reads none of it and reports the suite's distance
instances.  A
seeded sample of one-entry ad corruptions is a known-failing corpus on
which the pair checks must find the memo loops' witnesses.  The block
kernel behind every column equals the loop over coordinates
(helpers.reference_column) on all of these and on random well-formed
presentations, and only a sweep builds its padded blocks."""

import functools
import json
import random
import tracemalloc
from collections import Counter

import pytest

from helpers import (PAIR_CHECKS, P, Q, corrupt_ad, corrupt_ad_x,
                     failure_degrees, forbidden_continuations, jacobi_sum,
                     memo_pair_witnesses, random_presentations,
                     reference_column)
from thinlie import constructions
from thinlie.constructions import nottingham_Nqr
from thinlie.engine import (DegreeOverflowError, GradedAlgebra, _defining,
                            validate)
from thinlie.patterns import (PatternError, compile_pattern, detect,
                              family_pattern, verify_lemma_suite)

UNCAPPED = 10 ** 9
FORBIDDEN = forbidden_continuations()


def _n7():
    return compile_pattern(family_pattern("a", P, P, 100), 60)[0]


def _bidegree_breaking(L, letter="x"):
    """L with one ad letter entry on degree >= 2 moved onto a basis
    element of the wrong bidegree."""
    for k in range(2, L.N - 1):
        for i, src in enumerate(L.basis(k)):
            want = (src.bidegree[0] + (letter == "x"),
                    src.bidegree[1] + (letter == "y"))
            for s, tgt in enumerate(L.basis(k + 1)):
                if tgt.bidegree != want:
                    return corrupt_ad(L, letter, k, i, s)
    raise AssertionError(f"no ad {letter} entry to corrupt")


# algebras that fail antisymmetry, jacobi or bidegree, and the checks they fail
FAILING = {"finite_at_92": {"antisymmetry", "jacobi"},
           "no_fake_at_128": {"antisymmetry", "jacobi"},
           "corrupt_ad_x": {"jacobi"},
           "bidegree": {"jacobi", "bidegree"}}


@functools.cache
def failing(name):
    for fname, pattern, N in FORBIDDEN:
        if fname == name:
            return compile_pattern(pattern, N, run_validation=False)[0]
    if name == "corrupt_ad_x":
        return corrupt_ad_x(_n7())
    return _bidegree_breaking(_n7())


def assert_sweeps_match_memo(L):
    """Every column entry is bracket_basis, and _mirror_basis(c, g) is
    -bracket_basis(g, c) mod p, on every pair with deg g >= deg c of total
    degree <= N_built: the pairs the columns hold."""
    B, comp, p = L.N_built, L.comp_gids, L.p
    mirror = {}
    for d, columns in enumerate(L.bracket_columns(B), 1):
        lo = comp[d][0]
        for c, column in zip(comp[d], columns, strict=True):
            assert len(column) == comp[B - d][-1] + 1 - lo
            for g, value in enumerate(column, lo):
                want = L.bracket_basis(g, c)
                assert value == want, (g, c)
                assert L._mirror_basis(c, g, mirror) == \
                    tuple(-v % p for v in want), (c, g)
    assert d == B // 2


def assert_witnesses_match_memo(L):
    """The pair checks and bidegree find the memo loops' witnesses, the
    latter restricted to the pairs with a generator, with bidegree's
    verdict and first failing degree those of the loop over every pair."""
    B = min(L.N, L.N_built)
    want = memo_pair_witnesses(L, B)
    found = dict(want, bidegree=[w for w in want["bidegree"]
                                 if L.elements[w[0]].degree == 1])
    for cap in (1, 10, UNCAPPED):
        rep = validate(L, checks=PAIR_CHECKS + ("bidegree",),
                       max_witnesses=cap)
        for check in rep.checks:
            assert check.witnesses == found[check.name][:cap], \
                (check.name, cap)
            assert check.ok == (not want[check.name])
    rep = validate(L, checks=("bidegree",), max_witnesses=UNCAPPED)
    degs = sorted(L.elements[a].degree + L.elements[b].degree
                  for a, b, _ in want["bidegree"])
    assert failure_degrees(rep, L)[:1] == degs[:1]
    return want


def assert_brackets_with_matches_memo(L):
    """brackets_with(m, top) lists bracket_basis(g, c) for each g of L_j,
    j = 1..top, and each c of L_m: top entries, below m, at m and past
    it, for a top up to N_built - m and for a top below m; a top past
    N_built - m raises."""
    comp, q = L.comp_gids, L.q or Q
    for m in {1, 2, P + 1, 2 * P + 3, q - 1, q, 2 * q - 2}:
        if m >= L.N_built:
            continue
        for top in {L.N_built - m, min(m - 1, L.N_built - m)}:
            got = L.brackets_with(m, top)
            assert len(got) == top, (m, top)
            for j, brackets in enumerate(got, 1):
                assert brackets == [[L.bracket_basis(g, c) for c in comp[m]]
                                    for g in comp[j]], (m, top, j)
        with pytest.raises(DegreeOverflowError):
            L.brackets_with(m, L.N_built - m + 1)


def test_brackets_with_matches_memo_on_corpus(corpus):
    for name, (L, _, _) in corpus.items():
        assert_brackets_with_matches_memo(L)


@pytest.mark.parametrize("name", FAILING)
def test_brackets_with_matches_memo_on_failing(name):
    assert_brackets_with_matches_memo(failing(name))


def test_brackets_with_matches_memo_on_corruptions_and_random_data():
    for _, L in seeded_corruptions():
        assert_brackets_with_matches_memo(L)
    for L in random_presentations():
        assert_brackets_with_matches_memo(L)


def memo_brackets_with(L, m, top):
    """brackets_with's values through the bracket_basis memo."""
    return [[[L.bracket_basis(g, c) for c in L.comp_gids[m]]
             for g in L.comp_gids[j]] for j in range(1, top + 1)]


def lemma_suite(L):
    """verify_lemma_suite(L).to_json(), or the error detect raises on L."""
    try:
        return verify_lemma_suite(L).to_json()
    except PatternError as e:
        return str(e)


def test_lemma_suite_matches_memo_brackets(corpus, monkeypatch):
    # the suite reads [u, v1] and [u, v2] off brackets_with; through the
    # memo it reports the same instances, byte for byte, failing ones too
    sources = [*(L for L, _, _ in corpus.values()), *map(failing, FAILING),
               *(L for _, L in seeded_corruptions())]
    got = [lemma_suite(L) for L in sources]
    monkeypatch.setattr(GradedAlgebra, "brackets_with", memo_brackets_with)
    assert [lemma_suite(L) for L in sources] == got
    seen = {(i["lemma"], i["status"]) for rep in got if isinstance(rep, dict)
            for i in rep["instances"]}
    assert {("lemma_v1", "fail"), ("lemma_v2", "pass")} <= seen, seen


def test_distance_job_reads_no_bracket_column(corpus, tmp_path, monkeypatch):
    # verify --check distance runs verify_distance alone: it opens no
    # brackets_with reader, and reports the distance instances of the full
    # suite with the exit code they give, on passing and failing algebras
    # and on the seeded corruptions, some of which fail a distance window
    from thinlie import cli
    reads, codes = [], set()
    orig = GradedAlgebra.brackets_with
    out = tmp_path / "distance.json"
    for L in [*(L for L, _, _ in corpus.values()), *map(failing, FAILING),
              *(L for _, L in seeded_corruptions())]:
        suite = lemma_suite(L)
        if isinstance(suite, dict):
            want = [i for i in suite["instances"] if i["lemma"] == "distance"]
            code = 4 if any(i["status"] == "fail" for i in want) else 0
        else:
            want, code = None, 2
        monkeypatch.setattr(cli, "make_algebra", lambda args, L=L: L)
        monkeypatch.setattr(GradedAlgebra, "brackets_with",
                            lambda *a: reads.append(a[1:]) or orig(*a))
        got = cli.main(["verify", "--check", "distance", "--N", str(L.N),
                        "--out", str(out)])
        monkeypatch.undo()
        assert (got, reads) == (code, []), (L.p, L.q, L.N)
        if want is not None:
            assert json.loads(out.read_text())["checks"]["distance"] == {
                "ok": code == 0, "instances": want}
        codes.add(code)
    assert codes == {0, 2, 4}


def test_sweeps_match_memo_on_corpus(corpus):
    for name, (L, _, _) in corpus.items():
        assert_sweeps_match_memo(L)


@pytest.mark.parametrize("name", FAILING)
def test_sweeps_match_memo_on_failing(name):
    assert_sweeps_match_memo(failing(name))


def test_witnesses_match_memo_on_corpus(corpus):
    for name, (L, _, _) in corpus.items():
        want = assert_witnesses_match_memo(L)
        assert not any(want.values()), name


@pytest.mark.parametrize("name", FAILING)
def test_witnesses_match_memo_on_failing(name):
    want = assert_witnesses_match_memo(failing(name))
    assert {check for check, w in want.items() if w} == FAILING[name]


def assert_skipped_triples_vanish(L):
    """Every triple the jacobi check skips, (a, b, s) with (a, s) a
    defining pair and deg b >= deg a + 2, is 0 mod p through bracket_basis.
    Returns how many there were."""
    B, comp, elements = min(L.N, L.N_built), L.comp_gids, L.elements
    skipped = 0
    for ea in elements:
        for gs in comp[1]:
            if 2 * ea.degree + 3 > B or \
                    not _defining(L, ea.gid, elements[gs].letter):
                continue
            for db in range(ea.degree + 2, B - ea.degree):
                for gb in comp[db]:
                    assert not any(jacobi_sum(L, ea.gid, gb, gs)), \
                        (ea.gid, gb, gs)
                    skipped += 1
    return skipped


def test_skipped_jacobi_triples_vanish_on_corpus(corpus):
    for name, (L, _, _) in corpus.items():
        assert assert_skipped_triples_vanish(L) > 0, name


@pytest.mark.parametrize("name", FAILING)
def test_skipped_jacobi_triples_vanish_on_failing(name):
    assert assert_skipped_triples_vanish(failing(name)) > 0


# one ad entry moved, and whether bidegree still passes: a row of ad x or
# ad y on degree >= 2, the ad y row of x, the ad x row of y, which no
# bracket of a pair gi <= gj reads, and the ad y row of y ([y, y] != 0)
CORRUPTED = {"ad_x_row": (lambda L: _bidegree_breaking(L, "x"), False),
             "ad_y_row": (lambda L: _bidegree_breaking(L, "y"), False),
             "ad_y_of_x": (lambda L: corrupt_ad(L, "y", 1, 0, 0), True),
             "ad_x_of_y": (lambda L: corrupt_ad(L, "x", 1, 1, 0), True),
             "ad_y_of_y": (lambda L: corrupt_ad(L, "y", 1, 1, 0), False)}


@pytest.mark.parametrize("name", CORRUPTED)
def test_bidegree_matches_pair_loop_on_corrupted_ad(name):
    corrupt, ok = CORRUPTED[name]
    L = corrupt(_n7())
    assert_witnesses_match_memo(L)
    assert validate(L, checks=("bidegree",)).ok is ok


# a known-failing corpus for the pair checks: one ad entry moved, at
# seeded places, in families a, c and uniqueness at q 7 and b at p 5, q 25
CORRUPTION_SOURCES = (("a", 7, 7, {}), ("c", 7, 7, {"s": 1}),
                      ("uniqueness", 7, 7, {"s": 1}),
                      ("b", 5, 25, {"start_type": 2}))


def seeded_corruptions(N=80, per_source=4, seed=0):
    rng = random.Random(seed)
    for family, p, q, params in CORRUPTION_SOURCES:
        L, _ = compile_pattern(family_pattern(family, p, q, N + 40, **params),
                               N, run_validation=False)
        for _ in range(per_source):
            letter, k = rng.choice("xy"), rng.randrange(1, N - 1)
            where = (k, rng.randrange(L.dim(k)), rng.randrange(L.dim(k + 1)))
            yield (family, letter, *where), corrupt_ad(L, letter, *where)


def test_pair_witnesses_match_memo_on_seeded_corruptions():
    # the jacobi check reads [a, b] one way when deg b = deg a, another
    # when deg b = deg a + 1, and a third way beyond: the sample has
    # witnesses of all three
    gaps = Counter()
    for where, L in seeded_corruptions():
        want = memo_pair_witnesses(L, L.N)
        for cap in (10, UNCAPPED):
            rep = validate(L, checks=PAIR_CHECKS, max_witnesses=cap)
            for check in rep.checks:
                assert check.witnesses == want[check.name][:cap], \
                    (where, check.name, cap)
        gaps.update(min(L.elements[gb].degree - L.elements[ga].degree, 2)
                    for ga, gb, _ in want["jacobi"])
    assert all(gaps[gap] for gap in (0, 1, 2)), gaps


def test_jacobi_pair_at_the_last_degree():
    # at N = 155 a witness has deg a = deg b = (B - 1) / 2: the sweep must
    # check the last layer of columns, which has no layer after it
    L, N = failing("no_fake_at_128"), FORBIDDEN[1][2]
    (check,) = validate(L, checks=("jacobi",), max_witnesses=UNCAPPED).checks
    last = (N - 1) // 2
    assert any(L.elements[ga].degree == L.elements[gb].degree == last
               for ga, gb, _ in check.witnesses)


class _Discard:
    """A text stream that keeps only the number of characters written."""

    def __init__(self):
        self.size = 0

    def write(self, text):
        self.size += len(text)


def test_pair_checks_and_export_take_O_N_memory():
    # the memo path peaked at about 1.9 MB here, and grows as N^2
    L, _ = compile_pattern(family_pattern("a", P, Q, 150), 120,
                           run_validation=False)
    out = _Discard()
    tracemalloc.start()
    try:
        rep = validate(L)
        L.write_structure_json(out)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rep.ok and out.size > 10 ** 5
    assert len(L._memo) == 0
    assert peak < 2 ** 20, peak


def test_column_kernel_matches_reference(corpus, monkeypatch):
    # every column the pair checks' sweep builds, the sweep's own and the
    # Jacobi check's [c, s], equals the loop over coordinates; the shapes
    # met are counted per degree of each column
    shapes = Counter()
    kernel = GradedAlgebra.column

    def checked(L, pa, off, t, d, lo, hi):
        got = kernel(L, pa, off, t, d, lo, hi)
        assert got == reference_column(L, pa, off, t, d, lo, hi), \
            (t, d, lo, hi)
        if d >= 2:
            for k in range(lo, hi + 1):
                shapes["ad", L.dim(k + d - 1), L.dim(k + d)] += 1
                shapes["partners", L.dim(k)] += 1
        return got

    monkeypatch.setattr(GradedAlgebra, "column", checked)
    sources = [*(L for L, _, _ in corpus.values()), *map(failing, FAILING),
               *(L for _, L in seeded_corruptions()),
               *random_presentations()]
    for L in sources:
        validate(L, checks=PAIR_CHECKS, max_witnesses=UNCAPPED)
    assert all(shapes["ad", m, n] for m in (1, 2) for n in (1, 2)), shapes
    assert shapes["partners", 1] and shapes["partners", 2], shapes


def test_only_a_sweep_or_a_window_builds_blocks(monkeypatch):
    # compiling, detecting and deflating read no column: the padded ad
    # blocks stay unbuilt, down to deflation's source (degree 3 110 here)
    L, _ = compile_pattern(family_pattern("a", P, Q, 140), 100,
                           run_validation=False)
    detect(L)
    assert L._blocks == {}
    deflated, deflate = [], constructions.deflate
    monkeypatch.setattr(constructions, "deflate",
                        lambda S, n: deflated.append(S) or deflate(S, n))
    out, _ = nottingham_Nqr(7, 49, 60)
    assert len(deflated) == 2 and deflated[0].N_built > 3000
    assert all(S._blocks == {} for S in [*deflated, out])
    # a validate builds one 4-entry block per degree and letter: O(N)
    assert validate(L).ok
    assert sorted(L._blocks) == ["x", "y"]
    for blocks in L._blocks.values():
        assert len(blocks) == L.N_built
        assert all(len(b) == 4 for b in blocks[1:])
