"""Per-layer tracing from outside the package.

`Tracer.install()` replaces the public functions and methods of each
`quasifolds` module with wrappers that record a span per call: calls, time
inside, and the time covered by child spans, so each layer's self time is
its spans' durations minus their children's.  Module-level functions are
rebound in every module that holds them, because a name imported by value
(`from .exact import solve_linear` in `quasifolds.groups`) is looked up in
the importing module, not in the defining one; `unbound_originals()` proves
no such binding was missed.  Bookkeeping time (hooks, counters) is charged
to no span: it is what `trace.overhead_s` measures.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass, field

from quasifolds import _kernels, algebra, atlas, bimodule, cli, coefficients
from quasifolds import exact, groupoid, groups, lifting, serialize

_perf = time.perf_counter

# Modules whose bindings are rebound.  The kernel implementation modules
# (_ref, _fast) are left alone: their kernels call each other internally, and
# the kernel layer is measured at the dispatch module `quasifolds._kernels`.
_SKIP_MODULES = ("quasifolds._kernels._ref", "quasifolds._kernels._fast")


@dataclass
class Stat:
    layer: str
    calls: int = 0
    total: float = 0.0
    child: float = 0.0
    seen: set = field(default_factory=set)
    repeats: int = 0
    hits: int = 0
    madds: int = 0
    min_ratio: float = float("inf")


def _madds(name):
    """Complex multiply-adds a kernel call performs, from its argument
    lengths."""
    return {
        "poly_mul": lambda a, b: len(a) * len(b),
        "trig_mul": lambda oa, a, ob, b: len(a) * len(b),
        "poly_add": lambda a, b: max(len(a), len(b)),
        "poly_scale": lambda a, s: len(a),
        "poly_eval": lambda a, x: len(a),
        "poly_shift": lambda a, h: len(a) * (len(a) - 1) // 2,
        "trig_rotate": lambda off, c, t: len(c),
        "trig_eval": lambda off, c, x: len(c),
    }[name]


def _targets():
    """(metric, owner, attribute) per wrapped callable; the owner is a class
    for methods and a module for functions.  A metric may cover several
    callables (every `enumerate` override, both coefficient types'
    `distance`)."""
    E, G, A, C = exact, groups, atlas, coefficients
    pres = (G.TranslationLattice, G.RationalTranslations,
            G.FiniteMatrixGroup, G.GeneratedGroup)
    out = [
        ("exact.affine_new", E.AffineElement, "__post_init__"),
        ("exact.compose", E.AffineElement, "compose"),
        ("exact.apply", E.AffineElement, "apply"),
        ("exact.invert", E.AffineElement, "invert"),
        ("exact.solve_linear", E, "solve_linear"),
        ("exact.compare", E.AlphaWitness, "compare"),
        ("exact.evaluate", E.AlphaWitness, "evaluate"),
        ("exact.affine_from_point_images", E, "affine_from_point_images"),
        ("groups.contains_value", G.TranslationLattice, "contains_value"),
        ("groups.membership", G.TranslationLattice, "membership"),
        ("groups.membership_status", G, "membership_status"),
        ("groups.enumerate_group", G, "enumerate_group"),
        ("groups.orbit_witness", G, "orbit_witness"),
        ("groupoid.arrow_compose", groupoid, "arrow_compose"),
        ("groupoid.arrow_invert", groupoid, "arrow_invert"),
        ("groupoid.fiber_over", groupoid, "fiber_over"),
        ("atlas.arrows_from", A.StructureGroupoid, "arrows_from"),
        ("atlas.arrows_between", A.StructureGroupoid, "arrows_between"),
        ("atlas.same_point", A.StructureGroupoid, "same_point"),
        ("atlas.fiber_over", A.StructureGroupoid, "fiber_over"),
        ("atlas.isotropy_and_assembly", A.StructureGroupoid,
         "isotropy_and_assembly"),
        ("atlas.build_groupoid", A, "build_groupoid"),
        ("coefficients.trig_mul", C.TrigPoly, "__mul__"),
        ("coefficients.trig_add", C.TrigPoly, "__add__"),
        ("coefficients.trig_rotate", C.TrigPoly, "rotate"),
        ("coefficients.trig_eval", C.TrigPoly, "eval"),
        ("coefficients.piecewise_mul", C.PiecewisePoly, "__mul__"),
        ("coefficients.piecewise_add", C.PiecewisePoly, "__add__"),
        ("coefficients.piecewise_shift", C.PiecewisePoly, "shift_arg"),
        ("coefficients.piecewise_eval", C.PiecewisePoly, "eval"),
        ("coefficients.distance", C.TrigPoly, "distance"),
        ("coefficients.distance", C.PiecewisePoly, "distance"),
        ("coefficients.new", C.TrigPoly, "__post_init__"),
        ("coefficients.new", C.PiecewisePoly, "__post_init__"),
        ("algebra.convolve_closed_form", algebra, "convolve_closed_form"),
        ("algebra.convolve_general", algebra, "convolve_general"),
        ("algebra.involute", algebra, "involute"),
        ("algebra.matrix_representation", algebra, "matrix_representation"),
        ("algebra.element_new", algebra.AlgebraElement, "__post_init__"),
        ("algebra.canonical_key", algebra.LineModel, "canonical_key"),
        ("algebra.canonical_key", algebra.CircleModel, "canonical_key"),
        ("algebra.element_distance", algebra.AlgebraElement, "distance"),
        ("algebra.element_add", algebra.AlgebraElement, "__add__"),
        ("algebra.element_scale", algebra.AlgebraElement, "scale"),
        ("algebra.element_coeff", algebra.AlgebraElement, "coeff"),
        ("algebra.matmul", algebra.ComplexMatrix, "__matmul__"),
        ("bimodule.generate_germs", bimodule, "generate_germs"),
        ("bimodule.act", bimodule, "left_act"),
        ("bimodule.act", bimodule, "right_act"),
        ("bimodule.quotient_witness", bimodule, "quotient_witness"),
        ("bimodule.quotient_witness", bimodule, "quotient_witness_right"),
        ("bimodule.probe", bimodule, "surjectivity_probe"),
        ("bimodule.probe", bimodule, "source_probe"),
        ("bimodule.class_map", bimodule, "class_map"),
        ("bimodule.invert_germ", bimodule, "invert_germ"),
        ("lifting.lift_diffeo", lifting, "lift_diffeo"),
        ("lifting.detect_pieces", lifting, "detect_pieces"),
        ("lifting.sampled_map_new", lifting.SampledMap, "__post_init__"),
        ("cli.main", cli, "main"),
        ("serialize.canonical_dumps", serialize, "canonical_dumps"),
    ]
    out += [("groups.enumerate", cls, "enumerate") for cls in pres]
    out += [("groups.orbit_status", cls, "orbit_status") for cls in pres]
    out += [("kernels." + name, _kernels, name)
            for name in ("poly_mul", "poly_add", "poly_scale", "poly_eval",
                         "poly_shift", "trig_mul", "trig_rotate", "trig_eval")]
    return out


def _modules(extra_modules=()) -> list:
    """Every loaded package module, then `extra_modules`."""
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and name not in _SKIP_MODULES
            and (name == "quasifolds" or name.startswith("quasifolds."))] \
        + list(extra_modules)


class Tracer:
    """Span recorder; active only between `start()` and `stop()` so that
    corpus generation and the benchmark's own checks stay untraced."""

    def __init__(self):
        self.stats = {}
        self.stack = []
        self.active = False
        self._undo = []
        self._originals = {}

    def start(self):
        self.active = True

    def stop(self):
        self.active = False

    # -- installation --
    def install(self, extra_modules=()):
        """Wrap every target; rebind module functions wherever they are
        bound, in the package and in `extra_modules` (the benchmark's own
        workload code)."""
        modules = _modules(extra_modules)
        for metric, owner, attr in _targets():
            stat = self.stats.setdefault(metric, Stat(metric.split(".")[0]))
            original = owner.__dict__[attr] if isinstance(owner, type) \
                else getattr(owner, attr)
            wrapper = self._wrap(metric, stat, original, attr)
            if isinstance(owner, type):
                self._undo.append((owner, attr, original))
                setattr(owner, attr, wrapper)
                continue
            self._originals[id(original)] = (metric, original)
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        self._undo.append((mod, name, original))
                        setattr(mod, name, wrapper)

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()
        self._originals.clear()

    def unbound_originals(self, extra_modules=()) -> list:
        """Bindings that still hold an unwrapped original: each would let
        calls through that name go uncounted."""
        out = []
        for mod in _modules(extra_modules):
            for attr, value in vars(mod).items():
                hit = self._originals.get(id(value))
                if hit is not None and hit[1] is value:
                    out.append(f"{mod.__name__}.{attr} ({hit[0]})")
        return out

    def _wrap(self, metric, stat, fn, attr):
        tracer = self
        stack = self.stack
        key_hook = result_hook = None
        if metric in ("groups.enumerate", "groups.contains_value"):
            def key_hook(args, kwargs):
                key = (args[0], tuple(args[1]) if metric.endswith(
                    "contains_value") else args[1])
                if key in stat.seen:
                    stat.repeats += 1
                else:
                    stat.seen.add(key)
        elif metric == "exact.compare":
            evaluate = exact.AlphaWitness.__dict__["evaluate"]
            evaluate = getattr(evaluate, "__wrapped__", evaluate)
            as_q = exact._as_qalpha

            def key_hook(args, kwargs):
                w, x = args[0], args[1]
                y = args[2] if len(args) > 2 else kwargs.get("y")
                d = as_q(x) - (as_q(y) if y is not None else exact.QAlpha())
                if not d.is_zero:
                    ratio = float(abs(evaluate(w, d)) / w.margin)
                    stat.min_ratio = min(stat.min_ratio, ratio)
        elif metric.startswith("kernels."):
            count = _madds(attr)

            def key_hook(args, kwargs):
                stat.madds += count(*args, **kwargs)
        if metric == "groups.orbit_status":
            def result_hook(res):
                if res[1] is exact.Trit.TRUE:
                    stat.hits += 1
        elif metric == "atlas.arrows_between":
            def result_hook(res):
                if res:
                    stat.hits += 1
        elif metric == "bimodule.generate_germs":
            def result_hook(res):
                stat.hits += len(res)

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            enter = _perf()
            if key_hook is not None:
                key_hook(args, kwargs)
            frame = [0.0]
            stack.append(frame)
            t0 = _perf()
            try:
                res = fn(*args, **kwargs)
            finally:
                t1 = _perf()
                stack.pop()
                stat.calls += 1
                stat.total += t1 - t0
                stat.child += frame[0]
            if result_hook is not None:
                result_hook(res)
            if stack:
                stack[-1][0] += _perf() - enter
            return res

        wrapper.__name__ = getattr(fn, "__name__", attr)
        wrapper.__qualname__ = getattr(fn, "__qualname__", attr)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        wrapper.__wrapped__ = fn
        return wrapper

    # -- results --
    def metrics(self) -> dict:
        s = self.stats

        def us(name):
            st = s[name]
            return st.total / st.calls * 1e6 if st.calls else 0.0

        def ratio(num, den):
            return num / den if den else 0.0

        m = {}
        for metric in ("exact.affine_new", "exact.compose", "exact.solve_linear",
                       "exact.compare", "groups.enumerate",
                       "groups.contains_value", "groupoid.arrow_compose",
                       "atlas.same_point", "coefficients.new",
                       "algebra.element_new", "algebra.canonical_key",
                       "bimodule.act"):
            m[metric + ".calls"] = s[metric].calls
        for metric in ("exact.compose", "exact.apply", "exact.invert",
                       "groups.enumerate", "groups.contains_value",
                       "groups.orbit_status", "atlas.arrows_from",
                       "atlas.arrows_between", "atlas.same_point",
                       "atlas.fiber_over", "coefficients.trig_mul",
                       "coefficients.trig_rotate", "coefficients.piecewise_mul",
                       "coefficients.piecewise_add", "coefficients.distance",
                       "algebra.convolve_closed_form",
                       "algebra.convolve_general", "algebra.involute",
                       "algebra.matrix_representation",
                       "bimodule.quotient_witness", "bimodule.probe",
                       "lifting.lift_diffeo", "lifting.detect_pieces",
                       "serialize.canonical_dumps"):
            m[metric + ".us"] = us(metric)
        cmp_ = s["exact.compare"]
        m["exact.compare.min_margin_ratio"] = (
            cmp_.min_ratio if cmp_.min_ratio != float("inf") else 0.0)
        for metric in ("groups.enumerate", "groups.contains_value"):
            m[metric + ".repeat_ratio"] = ratio(s[metric].repeats,
                                                s[metric].calls)
        m["groups.orbit_status.true_ratio"] = ratio(
            s["groups.orbit_status"].hits, s["groups.orbit_status"].calls)
        m["atlas.arrows_between.hit_ratio"] = ratio(
            s["atlas.arrows_between"].hits, s["atlas.arrows_between"].calls)
        germs = s["bimodule.generate_germs"]
        m["bimodule.generate_germs.s"] = ratio(germs.total, germs.calls)
        m["bimodule.germs"] = germs.hits
        m["lifting.lift_diffeo.us"] = us("lifting.lift_diffeo")
        m["cli.main.s"] = ratio(s["cli.main"].total, s["cli.main"].calls)
        kernels = [st for name, st in s.items() if name.startswith("kernels.")]
        busy = sum(st.total for st in kernels)
        m["kernels.calls"] = sum(st.calls for st in kernels)
        m["kernels.madds"] = sum(st.madds for st in kernels)
        m["kernels.madds_per_s"] = ratio(m["kernels.madds"], busy)
        for layer in LAYERS:
            m[layer + ".self_s"] = sum(st.total - st.child
                                       for st in s.values()
                                       if st.layer == layer)
        return m

    def table(self) -> dict:
        """Per wrapped callable: calls, inclusive and self seconds."""
        return {name: {"layer": st.layer, "calls": st.calls,
                       "total_s": st.total, "self_s": st.total - st.child}
                for name, st in sorted(self.stats.items()) if st.calls}


LAYERS = ("exact", "groups", "groupoid", "atlas", "coefficients", "kernels",
          "algebra", "bimodule", "lifting")


def unit_of(metric: str) -> str:
    if metric.endswith("_per_s"):
        return "1/s"
    if metric.endswith("ratio"):
        return "ratio"
    if metric.endswith(".us"):
        return "us"
    if metric.endswith("_s") or metric.endswith(".s"):
        return "s"
    return "count"


# Callables that must see calls on each workload, and only there; any other
# pattern means a wrapper sits on the wrong name or the workload stopped
# exercising a layer.
_LINE, _CIRCLE, _BIMOD, _POINTS = ("algebra-line", "algebra-circle",
                                   "bimodule", "point-queries")
_ALGEBRA = {_LINE, _CIRCLE}
_GROUPOID = {_BIMOD, _POINTS}
EXPECTED_ACTIVE = {
    # convolve_general composes translations on both algebra workloads
    "exact.affine_new": _ALGEBRA | _GROUPOID,
    "exact.compose": _ALGEBRA | _GROUPOID,
    "exact.apply": _GROUPOID,
    "exact.invert": _GROUPOID,
    "exact.solve_linear": {_LINE} | _GROUPOID,
    "exact.compare": {_POINTS},
    "groups.enumerate": _GROUPOID,
    "groups.contains_value": {_LINE} | _GROUPOID,
    "groups.orbit_status": _GROUPOID,
    "groupoid.arrow_compose": {_BIMOD},
    "atlas.arrows_from": _GROUPOID,
    "atlas.arrows_between": _GROUPOID,
    "atlas.same_point": {_POINTS},
    "atlas.fiber_over": _GROUPOID,
    "coefficients.trig_mul": {_CIRCLE},
    "coefficients.trig_rotate": {_CIRCLE},
    "coefficients.piecewise_mul": {_LINE},
    "coefficients.piecewise_add": {_LINE},
    "coefficients.distance": _ALGEBRA,
    "coefficients.new": _ALGEBRA,
    "kernels.poly_mul": {_LINE},
    "kernels.poly_shift": {_LINE},
    "kernels.trig_mul": {_CIRCLE},
    "kernels.trig_rotate": {_CIRCLE},
    "algebra.convolve_closed_form": _ALGEBRA,
    "algebra.convolve_general": _ALGEBRA,
    "algebra.involute": _ALGEBRA,
    "algebra.element_new": _ALGEBRA,
    "algebra.canonical_key": _ALGEBRA,
    "algebra.matrix_representation": {_CIRCLE},
    "bimodule.generate_germs": {_BIMOD},
    "bimodule.act": {_BIMOD},
    "bimodule.quotient_witness": {_BIMOD},
    "bimodule.probe": {_BIMOD},
    "lifting.lift_diffeo": {_POINTS},
    "lifting.detect_pieces": {_POINTS},
    "cli.main": {_POINTS},
    "serialize.canonical_dumps": {_POINTS},
}


def activity_problems(tracer: Tracer, workload: str) -> list:
    problems = []
    for name, expected in EXPECTED_ACTIVE.items():
        calls = tracer.stats[name].calls
        if (workload in expected) != (calls > 0):
            problems.append(f"trace self-check: {name} has {calls} calls on "
                            f"{workload}, expected "
                            f"{'some' if workload in expected else 'none'}")
    return problems
