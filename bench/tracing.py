"""Per-layer tracing from outside the package.

While a Tracer is installed, each public function the layer metrics need is
replaced, at every module binding a caller uses, by a wrapper that records a
span (name, start, end, parent, job).  A counting Tracer also wraps the
cheap, much-called functions (COUNTS, bracket_basis) with wrappers that only
bump a counter.  Those wrappers cost more than the functions they count, so
times are taken from a pass with span wrappers only, and counts from a
separate counting pass (counts repeat exactly).  Methods are wrapped on
their class, so recursive calls are seen too.  `uninstall` restores every
original binding.

Times are span self times (duration minus the time direct child spans
cover), except the stage totals `engine.validate.s`, its per-check times
and `constructions.deflate.s`, which are inclusive; see bench/README.md.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from collections import Counter

MODULES = ("gf", "engine", "patterns", "maxclass", "constructions",
           "derivations", "cli")

# (defining module, function or Class.method) -> span name
SPANS = {
    ("gf", "solve_or_kernel"): "gf.solve_or_kernel",
    ("gf", "rank"): "gf.rank",
    ("engine", "OperatorFamily.op_bracket"): "engine.op_bracket",
    ("engine", "OperatorFamily.then"): "engine.op_then",
    ("engine", "GradedAlgebra.to_structure_json"): "engine.export",
    ("patterns", "compile_pattern"): "patterns.compile",
    ("patterns", "detect"): "patterns.detect",
    ("patterns", "verify_lemma_suite"): "patterns.lemmas",
    ("patterns", "classify_regularity"): "patterns.regularity",
    ("maxclass", "build_maxclass"): "maxclass.build",
    ("constructions", "engine_from_abstract"): "constructions.growth",
    ("constructions", "deflate"): "constructions.deflate",
    ("constructions", "tensor_construct"): "constructions.tensor",
    ("constructions", "nottingham_Nqr"): "constructions.nqr",
    ("derivations", "build_D"): "derivations.build_D",
    ("derivations", "extract_M"): "derivations.extract_M",
    ("derivations", "roundtrip_check"): "derivations.roundtrip",
    ("cli", "main"): "cli.main",
}

SPAN_NAMES = set(SPANS.values())

# span name -> (counter, count read off the wrapped function's result)
RESULT_COUNTS = {
    "patterns.compile": ("patterns.compile.degrees", lambda r: r[0].N_built),
    "patterns.lemmas": ("patterns.lemmas.instances",
                        lambda r: len(r.instances)),
    "engine.export": ("engine.export.brackets", lambda r: len(r["brackets"])),
}

# functions cheaper than a span: counted only, in the counting pass
COUNTS = {
    ("gf", "mat_apply_rows"): "gf.mat_apply_rows.calls",
    ("gf", "vec_add"): "gf.vec_ops.calls",
    ("gf", "vec_sub"): "gf.vec_ops.calls",
    ("gf", "vec_neg"): "gf.vec_ops.calls",
    ("gf", "vec_scale"): "gf.vec_ops.calls",
    ("engine", "GradedAlgebra.bracket"): "engine.bracket.calls",
    ("engine", "GradedAlgebra.bracket_mirror"): "engine.bracket_mirror.calls",
}

CHECKS = ("dimensions", "covering", "words", "antisymmetry", "jacobi",
          "sandwich_y", "ad_x_power_q", "bidegree")

# per-layer metric -> unit
LAYER_METRICS = {
    "gf.solve_or_kernel.calls": "count", "gf.solve_or_kernel.s": "s",
    "gf.rank.calls": "count", "gf.rank.s": "s",
    "gf.mat_apply_rows.calls": "count", "gf.vec_ops.calls": "count",
    "engine.bracket_basis.calls": "count",
    "engine.bracket_basis.distinct": "count",
    "engine.memo_hit_ratio": "ratio",
    "engine.bracket.calls": "count", "engine.bracket_mirror.calls": "count",
    "engine.validate.s": "s",
    **{f"engine.validate.{c}.s": "s" for c in CHECKS},
    "engine.op_bracket.calls": "count", "engine.op_bracket.s": "s",
    "engine.op_then.calls": "count", "engine.op_then.s": "s",
    "engine.export.s": "s", "engine.export.brackets": "count",
    "patterns.compile.s": "s", "patterns.compile.degrees": "count",
    "patterns.detect.s": "s", "patterns.lemmas.s": "s",
    "patterns.lemmas.instances": "count", "patterns.regularity.s": "s",
    "maxclass.build.s": "s",
    "constructions.deflate.s": "s", "constructions.deflate.growth_s": "s",
    "constructions.deflate.select_s": "s", "constructions.tensor.s": "s",
    "constructions.nqr.s": "s",
    "derivations.build_D.s": "s", "derivations.extract_M.s": "s",
    "derivations.roundtrip.s": "s",
    "cli.self_s": "s", "cli.out_bytes": "B",
    "trace.overhead_s": "s",
}


def _resolve(module, path):
    owner = module
    *outer, name = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, name


class Tracer:
    """Spans and counters of one traced pass, kept in memory.  With
    count=True the cheap functions are counted too (a counting pass)."""

    def __init__(self, pkg="thinlie", count=False):
        self.mods = {m: importlib.import_module(f"{pkg}.{m}") for m in MODULES}
        self.count = count
        self.spans = []     # [name, start, end, parent index, job]
        self.stack = []
        self.counts = Counter()
        self.job = None
        self._pairs = {}    # algebra -> {(gi, gj)} seen in the current job
        self._saved = []    # (owner, attribute, original)

    # -- recording ----------------------------------------------------------

    def _spanned(self, name, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        note = RESULT_COUNTS.get(name)
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.job]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if note:
                counts[note[0]] += note[1](out)
            return out
        return wrapper

    def _counted(self, key, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _bracket_basis(self, fn):
        counts, pairs = self.counts, self._pairs

        @functools.wraps(fn)
        def wrapper(alg, gi, gj):
            counts["engine.bracket_basis.calls"] += 1
            seen = pairs.get(alg)
            if seen is None:
                seen = pairs[alg] = set()
            seen.add((gi, gj))
            return fn(alg, gi, gj)
        return wrapper

    def _validate(self, fn):
        """validate(L, checks=...) as one validate call per check, in suite
        order, on the same algebra, each in its own span; the bracket memo
        carries over between checks as it does within one call."""
        engine = self.mods["engine"]
        sig = inspect.signature(fn)

        def per_check(*args, **kwargs):
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            L = bound.arguments["L"]
            suite = bound.arguments["checks"]
            if suite is None:
                suite = (engine.NOTTINGHAM_CHECKS if L.kind == "nottingham"
                         else engine.MAXCLASS_CHECKS)
            results = []
            for name in suite:
                bound.arguments["checks"] = (name,)
                one = self._spanned(f"engine.validate.{name}", fn)
                results += one(*bound.args, **bound.kwargs).checks
            return engine.ValidationReport(results)
        return self._spanned("engine.validate", per_check)

    # -- installing ---------------------------------------------------------

    def _replace(self, module, path, wrap):
        """Bind wrap(original) wherever the original is bound: on its class
        for a method, in every package module for a function."""
        owner, name = _resolve(self.mods[module], path)
        orig = getattr(owner, name)
        wrapper = wrap(orig)
        if "." in path:
            bindings = [(owner, name)]
        else:
            bindings = [(mod, attr) for mod in self.mods.values()
                        for attr, val in vars(mod).items() if val is orig]
        for obj, attr in bindings:
            self._saved.append((obj, attr, orig))
            setattr(obj, attr, wrapper)

    def install(self):
        for (module, path), name in SPANS.items():
            self._replace(module, path, functools.partial(self._spanned, name))
        self._replace("engine", "validate", self._validate)
        if self.count:
            for (module, path), key in COUNTS.items():
                self._replace(module, path,
                              functools.partial(self._counted, key))
            self._replace("engine", "GradedAlgebra.bracket_basis",
                          self._bracket_basis)

    def uninstall(self):
        for owner, name, orig in reversed(self._saved):
            setattr(owner, name, orig)
        self._saved.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    # -- jobs -----------------------------------------------------------------

    def start_job(self, job):
        self.job = job

    def end_job(self, out_bytes):
        self.counts["engine.bracket_basis.distinct"] += sum(
            len(s) for s in self._pairs.values())
        self._pairs.clear()
        self.counts["cli.out_bytes"] += out_bytes
        self.job = None

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, job in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "job": job}) + "\n")

    # -- metrics --------------------------------------------------------------

    def layer_metrics(self) -> dict:
        """Per-layer metrics of the pass, except trace.overhead_s.  Of a
        counting pass only the counts are meaningful, and of a timing pass
        only the times."""
        spans = self.spans
        dur = [end - start for _, start, end, _, _ in spans]
        child = [0.0] * len(spans)
        for i, (_, _, _, parent, _) in enumerate(spans):
            if parent >= 0:
                child[parent] += dur[i]
        self_t, incl, calls = Counter(), Counter(), Counter()
        growth = validate_in_deflate = 0.0
        for i, (name, _, _, parent, _) in enumerate(spans):
            self_t[name] += dur[i] - child[i]
            incl[name] += dur[i]
            calls[name] += 1
            pname = spans[parent][0] if parent >= 0 else None
            if name == "constructions.growth":
                if pname == "constructions.deflate":
                    growth += dur[i]
                elif pname == "constructions.tensor":
                    self_t["constructions.tensor"] += dur[i] - child[i]
            if name == "engine.validate" and pname == "constructions.deflate":
                validate_in_deflate += dur[i]

        c = self.counts
        bb_calls = c["engine.bracket_basis.calls"]
        m = {
            "engine.memo_hit_ratio":
                1 - c["engine.bracket_basis.distinct"] / bb_calls
                if bb_calls else 0.0,
            "engine.validate.s": incl["engine.validate"],
            **{f"engine.validate.{ch}.s": incl[f"engine.validate.{ch}"]
               for ch in CHECKS},
            "constructions.deflate.s": incl["constructions.deflate"],
            "constructions.deflate.growth_s": growth,
            "constructions.deflate.select_s":
                incl["constructions.deflate"] - growth - validate_in_deflate,
            "cli.self_s": self_t["cli.main"],
        }
        for metric in LAYER_METRICS:
            base, _, stat = metric.rpartition(".")
            if metric in m or metric == "trace.overhead_s":
                continue
            if base in SPAN_NAMES and stat in ("calls", "s"):
                m[metric] = calls[base] if stat == "calls" else self_t[base]
            else:
                m[metric] = c[metric]
        return m
