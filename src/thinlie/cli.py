"""Command-line surface: build, verify, detect, roundtrip, deflate, diagram,
export.  All artifacts are JSON (DOT/plain text for diagrams), byte-stable
for identical job specifications.

Exit codes: 0 success, 2 malformed job, 3 degree budget exceeded,
4 verification or round-trip failure.  build and deflate validate the
algebra they write, and write it even when a check fails.

Every job loads the engine, the pattern layer and the maximal-class
layer.  The construction and derivation layers are imported where they
run (deflate, --sequence, roundtrip), so the other jobs start without
compiling them.
"""

from __future__ import annotations

import argparse
import errno
import json
import os
import stat
import sys

from .engine import DegreeOverflowError, validate
from .maxclass import (CentralizerSequence, SequenceError,
                       UnrealizableSequenceError, build_maxclass)
from .patterns import (ConstructionError, DiamondPattern, PatternError,
                       char_of_q, check_q, classify_regularity,
                       compile_pattern, detect, family_pattern,
                       family_pattern_from_json, verify_distance,
                       verify_lemma_suite)

EXIT_OK = 0
EXIT_BADSPEC = 2
EXIT_BUDGET = 3
EXIT_FAILED = 4

FAMILIES = ("a", "b", "c", "d", "e", "L1q", "L0q", "tq2", "uniqueness", "nqr")


class BudgetError(Exception):
    """The job asks for more degrees than THINLIE_MAX_DEGREE allows."""


def max_degree() -> int:
    raw = os.environ.get("THINLIE_MAX_DEGREE", "1000")
    try:
        return int(raw)
    except ValueError:
        raise PatternError(f"THINLIE_MAX_DEGREE must be an integer, got "
                           f"{raw!r}") from None


def _checked_N(args) -> int:
    """--N, which every subcommand needs, checked against the budget."""
    if args.N is None:
        raise PatternError("--N is required")
    if args.N < 1:
        raise PatternError(f"--N must be at least 1, got {args.N}")
    cap = max_degree()
    if args.N > cap:
        raise BudgetError(f"--N {args.N} exceeds THINLIE_MAX_DEGREE={cap}")
    return args.N


def _bad_out(path, strerror) -> PatternError:
    return PatternError(f"cannot write --out {path}: {strerror}")


def _check_out(path):
    """Reject an --out path in a directory that does not exist, or naming
    a directory, before the job builds anything.  The file itself is
    opened, and an existing one truncated, only once the output exists."""
    if not path:
        return
    try:
        parent = os.stat(os.path.dirname(path) or ".")
    except OSError as e:
        raise _bad_out(path, e.strerror) from None
    if not stat.S_ISDIR(parent.st_mode):
        raise _bad_out(path, os.strerror(errno.ENOTDIR))
    if os.path.isdir(path):
        raise _bad_out(path, os.strerror(errno.EISDIR))


def _write(path, write):
    """Call write(fh) on the --out file, or on stdout without --out."""
    if path:
        try:
            fh = open(path, "w", encoding="utf-8")
        except OSError as e:
            raise _bad_out(path, e.strerror) from None
        with fh:
            write(fh)
    else:
        write(sys.stdout)


def _dump(doc, path):
    text = json.dumps(doc, sort_keys=True, indent=2) + "\n"
    _write(path, lambda fh: fh.write(text))


def _dump_structure(L, path):
    """The structure JSON of L, streamed; the same bytes as
    _dump(L.to_structure_json(), path)."""
    def write(fh):
        L.write_structure_json(fh)
        fh.write("\n")
    _write(path, write)


def _load_json(path):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError) as e:
        raise PatternError(f"cannot read JSON file {path}: {e}") from None


def _family_params(args):
    kw = {}
    if args.family == "b":
        kw["start_type"] = args.start_type if args.start_type is not None else 2
    if args.family in ("c", "d", "uniqueness"):
        kw["s"] = args.s if args.s is not None else 1
    if args.family == "d":
        kw["step"] = args.step if args.step is not None else 1
    if args.family == "nqr" and args.r is not None:
        kw["r"] = args.r
    if args.family == "tq2":
        if not args.sequence:
            raise PatternError("family tq2 needs --sequence")
        kw["sequence"] = CentralizerSequence.from_json(_load_json(args.sequence))
    return kw


def make_algebra(args, guard=lambda q: 2):
    """Resolve --family/--pattern/--sequence into a built algebra, built
    guard(q) degrees past --N, where q is the job's q as resolved here.
    It is not validated here; build and verify call validate on it."""
    N = _checked_N(args)
    _check_out(args.out)
    if args.pattern:
        pattern = DiamondPattern.from_json(_load_json(args.pattern))
        return compile_pattern(pattern, N, guard=guard(pattern.q),
                               run_validation=False)[0]
    if args.family_spec:
        doc = _load_json(args.family_spec)
        if not isinstance(doc, dict) or not isinstance(doc.get("q"), int):
            raise PatternError("family spec needs an integer field 'q'")
        g = guard(doc["q"])
        pat = family_pattern_from_json(doc, N + g + doc["q"] + 2)
        return compile_pattern(pat, N, guard=g, run_validation=False)[0]
    if args.family:
        q = args.q if args.q is not None else (7 if args.p is None else args.p)
        p = args.p if args.p is not None else char_of_q(q)
        g = guard(q)
        pat = family_pattern(args.family, p, q, N + g + q + 2,
                             **_family_params(args))
        return compile_pattern(pat, N, guard=g, run_validation=False)[0]
    if args.sequence:
        from .constructions import tensor_construct
        seq = CentralizerSequence.from_json(_load_json(args.sequence))
        q = args.q
        if q is None:
            raise PatternError("--sequence needs --q")
        check_q(seq.p, q)
        g = guard(q)
        need = -(-(N + g) // (q - 1)) + 2
        M = build_maxclass(seq, need + 1)
        return tensor_construct(M, q, N, guard=g)
    raise PatternError("specify one of --family, --family-spec, --pattern, "
                       "--sequence")


def cmd_build(args):
    L = make_algebra(args)
    report = validate(L)
    _dump_structure(L, args.out)
    print(report.summary(), file=sys.stderr)
    return EXIT_OK if report.ok else EXIT_FAILED


def cmd_export(args):
    L = make_algebra(args)
    _dump_structure(L, args.out)
    return EXIT_OK


def cmd_verify(args):
    L = make_algebra(args)
    doc = {"schema": "thinlie.verify.v1", "checks": {}}
    failed = False
    if args.check in ("all", "jacobi"):
        rep = validate(L)
        doc["checks"]["axioms"] = rep.to_json()
        failed = failed or not rep.ok
    if args.check == "distance":
        inst = verify_distance(L, detect(L)[0])
        ok = all(i.status != "fail" for i in inst)
        doc["checks"]["distance"] = {
            "ok": ok, "instances": [i.to_json() for i in inst]}
        failed = failed or not ok
    if args.check in ("all", "lemmas"):
        lem = verify_lemma_suite(L)
        doc["checks"]["lemmas"] = lem.to_json()
        failed = failed or not lem.ok
    reg = classify_regularity(L)
    doc["regularity"] = {"regular": reg.regular,
                         "violations": [list(v) for v in reg.violations[:10]]}
    doc["ok"] = not failed
    _dump(doc, args.out)
    return EXIT_FAILED if failed else EXIT_OK


def cmd_detect(args):
    L = make_algebra(args)
    pattern, rep = detect(L)
    doc = pattern.to_json()
    doc["fake_sites"] = rep.sites
    doc["untypable"] = [list(map(str, u)) for u in rep.untypable]
    _dump(doc, args.out)
    return EXIT_OK if rep.ok else EXIT_FAILED


def cmd_roundtrip(args):
    if args.compare_N is not None and args.compare_N < 1:
        raise PatternError(f"--compare-N must be at least 1, got "
                           f"{args.compare_N}")
    from .derivations import ExtractionError, roundtrip_check
    # D raises degrees by q - 1: a guard of q + 2 keeps it defined past --N
    L = make_algebra(args, guard=lambda q: q + 2)
    if args.compare_N is not None and args.compare_N < L.q:
        raise PatternError(f"--compare-N {args.compare_N} is below q = {L.q}; "
                           f"the round trip compares from the second diamond")
    try:
        rep = roundtrip_check(L, compare_N=args.compare_N)
    except ExtractionError as e:
        _dump({"schema": "thinlie.roundtrip.v1", "pass": False,
               "error": str(e)}, args.out)
        return EXIT_FAILED
    _dump(rep.to_json(), args.out)
    return EXIT_OK if rep.passed else EXIT_FAILED


def cmd_deflate(args):
    from .constructions import nottingham_Nqr, nqr_source_degree
    if args.q is None or args.r is None:
        raise PatternError("deflate needs --q and --r")
    N = _checked_N(args)
    p, _, n_src = nqr_source_degree(args.q, args.r, N, p=args.p)
    check_q(p, args.q)    # the rule --family nqr applies to the same q
    cap = max_degree()
    if n_src > cap:
        raise BudgetError(f"deflate to --N {N} compiles its source to degree "
                          f"{n_src}, over THINLIE_MAX_DEGREE={cap}")
    _check_out(args.out)
    L, pattern = nottingham_Nqr(args.q, args.r, N, p=args.p)
    report = validate(L)

    def nested(doc):
        # JSON strings hold no raw newline, so this only re-indents
        return json.dumps(doc, sort_keys=True, indent=2).replace("\n", "\n  ")

    def write(fh):
        # {"pattern", "schema", "structure", "validation"}, keys sorted
        fh.write('{\n  "pattern": ' + nested(pattern.to_json())
                 + ',\n  "schema": "thinlie.deflate.v1",\n  "structure": ')
        L.write_structure_json(fh, depth=1)
        fh.write(',\n  "validation": ' + nested(report.to_json()) + "\n}\n")
    _write(args.out, write)
    return EXIT_OK if report.ok else EXIT_FAILED


def _diagram_txt(L, pattern):
    lines = []
    types = dict(pattern.entries)
    bidegrees = L.bidegrees()
    for k in range(1, L.N + 1):
        gids = L.comp_gids[k]
        bids = " ".join(f"({bidegrees[g][0]},{bidegrees[g][1]})" for g in gids)
        note = ""
        if k == 1:
            note = "  first diamond"
        elif k in types:
            note = f"  diamond type {types[k].label(L.p)}"
        lines.append(f"deg {k:>4}  dim {len(gids)}  {bids}{note}")
    return "\n".join(lines) + "\n"


def _diagram_dot(L, pattern):
    types = dict(pattern.entries)
    out = ["digraph double_grading {", "  rankdir=TB;",
           '  node [shape=circle, fontsize=10];']
    shown = L.elements[:L.comp_gids[L.N][-1] + 1]   # degrees 1..N, in order
    bidegrees = L.bidegrees()
    for e in shown:
        r, s = bidegrees[e.gid]
        label = f"({r},{s})"
        attrs = f'label="{label}"'
        if e.degree in types:
            attrs += f', xlabel="{types[e.degree].label(L.p)}"'
        elif e.degree == 1:
            attrs += f', xlabel="{e.letter}"'   # a generator's word
        out.append(f'  "n{r}_{s}" [{attrs}];')
    for e in shown:
        if e.degree == L.N:
            break
        for letter, style in (("x", "solid"), ("y", "dashed")):
            img = L.apply_letter(L.as_element(e.gid), letter)
            tgt = L.comp_gids[img[0]]
            for sidx, c in enumerate(img[1]):
                if c:
                    r1, s1 = bidegrees[e.gid]
                    r2, s2 = bidegrees[tgt[sidx]]
                    out.append(f'  "n{r1}_{s1}" -> "n{r2}_{s2}" '
                               f'[style={style}];')
    out.append("}")
    return "\n".join(out) + "\n"


def _diagram_json(L, pattern):
    types = dict(pattern.entries)
    nodes = []
    words = (w for ws in L.basis_words(L.N) for w in ws)
    for e, word, bidegree in zip(L.elements, words, L.bidegrees()):
        node = {"degree": e.degree, "bidegree": list(bidegree),
                "word": word}
        if e.degree in types:
            node["diamond_type"] = types[e.degree].to_json()
        nodes.append(node)
    return {"schema": "thinlie.diagram.v1", "p": L.p, "q": L.q, "N": L.N,
            "nodes": nodes,
            "diamonds": [{"degree": d, "type": t.to_json()}
                         for d, t in pattern.entries]}


def cmd_diagram(args):
    L = make_algebra(args)
    pattern, _ = detect(L)
    if args.format == "json":
        _dump(_diagram_json(L, pattern), args.out)
        return EXIT_OK
    text = (_diagram_dot if args.format == "dot" else _diagram_txt)(L, pattern)
    _write(args.out, lambda fh: fh.write(text))
    return EXIT_OK


def build_parser():
    ap = argparse.ArgumentParser(
        prog="thinlie",
        description="Exact engine for Nottingham-type thin graded Lie "
                    "algebras over prime fields.")
    sub = ap.add_subparsers(dest="cmd", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--family", choices=FAMILIES)
    common.add_argument("--family-spec", dest="family_spec",
                        help="family spec JSON file")
    common.add_argument("--pattern", help="pattern JSON file")
    common.add_argument("--sequence", help="centralizer sequence JSON file")
    common.add_argument("--p", type=int)
    common.add_argument("--q", type=int)
    common.add_argument("--s", type=int)
    common.add_argument("--r", type=int)
    common.add_argument("--N", type=int)
    common.add_argument("--start-type", type=int, dest="start_type",
                        help="type of the third diamond (family b)")
    common.add_argument("--step", type=int,
                        help="type progression step (family d)")
    common.add_argument("--out")
    for name, fn in (("build", cmd_build), ("verify", cmd_verify),
                     ("detect", cmd_detect), ("roundtrip", cmd_roundtrip),
                     ("deflate", cmd_deflate), ("diagram", cmd_diagram),
                     ("export", cmd_export)):
        sp = sub.add_parser(name, parents=[common])
        sp.set_defaults(fn=fn)
        if name == "verify":
            sp.add_argument("--check", default="all",
                            choices=("all", "jacobi", "lemmas", "distance"))
        if name == "roundtrip":
            sp.add_argument("--compare-N", type=int, dest="compare_N")
        if name == "diagram":
            sp.add_argument("--format", default="txt",
                            choices=("json", "dot", "txt"))
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except (BudgetError, DegreeOverflowError) as e:
        print(f"degree budget exceeded: {e}", file=sys.stderr)
        return EXIT_BUDGET
    except (PatternError, SequenceError, ConstructionError) as e:
        print(f"bad job specification: {e}", file=sys.stderr)
        return EXIT_BADSPEC
    except UnrealizableSequenceError as e:
        print(f"verification failed: {e}", file=sys.stderr)
        return EXIT_FAILED


if __name__ == "__main__":
    sys.exit(main())
