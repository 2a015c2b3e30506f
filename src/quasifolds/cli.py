"""Command-line front end.

Subcommands: groupoid, algebra, rotation, repr, rq-algebra, morita, lift.
Reports are canonical JSON on stdout (sorted keys, stable formatting); with
--format table/csv the same data is rendered as text.  Timing goes to stderr
so report bytes depend only on the configuration and seed.

One rule (`check`) gives every check its status: `fail` from a certified
counterexample, else `inconclusive` when an instance is unresolved, else
`pass`.  Exit codes: 0 all checks pass, 1 some check has a certified
counterexample, 2 usage or parse error, 3 some instance is unresolved at
the bound (and no check failed), or a comparison the α-witness cannot
certify at its precision.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import sys
import time
from fractions import Fraction
from pathlib import Path

from . import algebra as alg
from . import bimodule as bim
from . import lifting as lift
from .atlas import StructureGroupoid
from .catalog import builtin_atlases, builtin_biatlases, z_alpha_lattice
from .coefficients import _largest
from .errors import (FibersIncompatibleError, InconclusiveAtBoundError,
                     PrecisionInsufficientError, QuasifoldError)
from .exact import (AlphaWitness, QAlpha, Trit, compare, default_witness,
                    qa, set_default_witness)
from .groupoid import Arrow, NebulaPoint, arrow_compose
from .groups import RationalTranslations
from .serialize import canonical_dumps, load_atlas_file, load_biatlas_file

SCHEMA = "quasifold-report/1"
ENV_PREFIX = "QUASIFOLD_"

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_INCONCLUSIVE = 3


# ---------------------------------------------------------------------------
# configuration plumbing
# ---------------------------------------------------------------------------

_DEFAULTS = {
    "seed": 0,
    "bound": 3,
    "tol": 1e-9,
    "format": "json",
    "alpha": None,       # None = golden-conjugate default witness
    "trials": 200,
}


def _env_override(name: str):
    return os.environ.get(ENV_PREFIX + name.upper())


def resolve_config(args) -> dict:
    """Flag > environment > config file > default, per setting."""
    file_cfg = {}
    if getattr(args, "config", None):
        try:
            file_cfg = json.loads(Path(args.config).read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            raise UsageError(f"cannot read config file {args.config}: {exc}")
        if not isinstance(file_cfg, dict):
            raise UsageError(
                f"config file {args.config} must hold a JSON object")
    cfg = {}
    for key, default in _DEFAULTS.items():
        value = getattr(args, key, None)
        if value is None:
            env = _env_override(key)
            if env is not None:
                value = _cast(key, env, f"{ENV_PREFIX}{key.upper()}")
        if value is None and key in file_cfg and file_cfg[key] is not None:
            value = _cast(key, file_cfg[key], f"config file {args.config}")
        if value is None:
            value = default
        cfg[key] = value
    if cfg["format"] not in ("json", "table", "csv"):
        raise UsageError(f"unknown format {cfg['format']!r}")
    if cfg["bound"] <= 0 or cfg["trials"] <= 0:
        raise UsageError("bounds and trial counts must be positive")
    if not math.isfinite(cfg["tol"]) or cfg["tol"] < 0:
        raise UsageError("tolerance must be finite and nonnegative")
    return cfg


_CASTS = {"seed": int, "bound": int, "tol": float, "format": str,
          "alpha": str, "trials": int}


def _cast(key: str, raw, source: str):
    """Convert a setting read from the environment or a config file."""
    try:
        return _CASTS[key](raw)
    except (TypeError, ValueError):
        raise UsageError(f"bad {key} value {raw!r} in {source}") from None


class UsageError(Exception):
    pass


def make_witness(cfg) -> AlphaWitness:
    if cfg["alpha"] in (None, "", "default"):
        return default_witness()
    try:
        return AlphaWitness.from_decimal_string(cfg["alpha"])
    except Exception as exc:
        raise UsageError(f"bad --alpha value {cfg['alpha']!r}: {exc}")


# ---------------------------------------------------------------------------
# report assembly and rendering
# ---------------------------------------------------------------------------

def check(name: str, failed=False, unresolved=False, /, **detail) -> dict:
    """A check record, and the one rule from evidence to a status: `fail`
    for a certified failure, else `inconclusive` when anything is
    unresolved, else `pass`.  The flags are positional-only, so
    `violations=` and `unresolved=` pass through as detail."""
    status = "fail" if failed else "inconclusive" if unresolved else "pass"
    return {"name": name, "status": status, "detail": detail}


def _over(value: float, tol: float) -> bool:
    """A deviation past its tolerance; NaN is past every tolerance."""
    return not value <= tol


class _Tally:
    """One check's instance verdicts: True (holds), False (a certified
    violation, with its counterexample) or None (unresolved at the bound)."""

    def __init__(self):
        self.instances = self.violations = self.unresolved = 0
        self.counterexamples = []

    def add(self, holds, counterexample) -> None:
        """Count one instance; `counterexample()` builds a violation's."""
        self.instances += 1
        if holds is None:
            self.unresolved += 1
        elif not holds:
            self.violations += 1
            self.counterexamples.append(counterexample())

    def record(self, name: str, *shown, **detail) -> dict:
        """The check record, with the counts named in `shown` as detail."""
        detail.update((k, getattr(self, k)) for k in shown)
        return check(name, self.violations > 0, self.unresolved > 0, **detail)


def build_report(command: str, cfg: dict, checks: list) -> dict:
    summary = {"pass": 0, "fail": 0, "inconclusive": 0}
    for c in checks:
        summary[c["status"]] += 1
    shown_cfg = {k: cfg[k] for k in ("seed", "bound", "tol", "format")}
    if cfg.get("alpha"):
        shown_cfg["alpha"] = cfg["alpha"]
    return {"schema": SCHEMA, "command": command, "config": shown_cfg,
            "checks": checks, "summary": summary}


def exit_code(report: dict) -> int:
    s = report["summary"]
    if s["fail"]:
        return EXIT_FAIL
    if s["inconclusive"]:
        return EXIT_INCONCLUSIVE
    return EXIT_PASS


def _flatten(detail, prefix=""):
    out = []
    for k in sorted(detail):
        v = detail[k]
        if isinstance(v, dict):
            out.extend(_flatten(v, f"{prefix}{k}."))
        elif isinstance(v, (list, tuple)):
            out.append((prefix + k, json.dumps(v, sort_keys=True)))
        else:
            out.append((prefix + k, v))
    return out


def render(report: dict, fmt: str) -> str:
    if fmt == "json":
        return canonical_dumps(report)
    lines = []
    if fmt == "table":
        width = max((len(c["name"]) for c in report["checks"]), default=4)
        lines.append(f"command: {report['command']}")
        for c in report["checks"]:
            pairs = _flatten(c["detail"])
            summary = "  ".join(f"{k}={v}" for k, v in pairs[:4])
            lines.append(f"{c['name']:<{width}}  {c['status']:<12}  {summary}")
        lines.append("summary: " + " ".join(
            f"{k}={n}" for k, n in report["summary"].items()))
        return "\n".join(lines) + "\n"
    # csv
    lines.append("name,status,detail")
    for c in report["checks"]:
        pairs = _flatten(c["detail"])
        packed = ";".join(f"{k}={v}" for k, v in pairs)
        packed = packed.replace('"', "'")
        lines.append(f'{c["name"]},{c["status"]},"{packed}"')
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# argument helpers
# ---------------------------------------------------------------------------

def _resolve(spec: str, builtins: dict, load, what: str):
    """A built-in by name, or the JSON file at `spec` read by `load`; a
    file that cannot be read or has the wrong shape is a usage error."""
    if spec in builtins:
        return builtins[spec]()
    path = Path(spec)
    if path.exists():
        try:
            return load(path)
        except (OSError, QuasifoldError, KeyError, ValueError, TypeError,
                AttributeError) as exc:
            raise UsageError(f"cannot parse {what} file {spec}: {exc}")
    raise UsageError(f"unknown {what} {spec!r} (builtin: "
                     f"{sorted(builtins)}; or give a JSON file)")


def resolve_atlas(spec: str):
    return _resolve(spec, builtin_atlases(), load_atlas_file, "atlas")


def resolve_biatlas(spec: str):
    return _resolve(spec, builtin_biatlases(), load_biatlas_file, "bi-atlas")


def parse_point(text: str, atlas) -> NebulaPoint:
    """chart:coords, with the chart and the dimension checked against atlas."""
    if ":" not in text:
        raise UsageError(f"point must look like chart:coords, got {text!r}")
    chart, _, coords = text.partition(":")
    charts = [c.id for c in atlas.charts]
    if chart not in charts:
        raise UsageError(f"unknown chart {chart!r} in point {text!r} "
                         f"(charts: {charts})")
    return NebulaPoint(chart, parse_vector(coords, atlas.dimension, "point"))


def _int_at_least(low: int, what: str):
    """argparse type for one integer >= low."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = None
        if value is None or value < low:
            raise argparse.ArgumentTypeError(
                f"expected a {what} integer, got {text!r}")
        return value
    return parse


positive_int = _int_at_least(1, "positive")
nonnegative_int = _int_at_least(0, "nonnegative")


def positive_int_list(text: str) -> list:
    """argparse type for comma-separated positive integers such as "1,2,3"."""
    return [positive_int(p) for p in text.split(",")]


def parse_vector(text: str, dimension: int, what: str) -> tuple:
    """Comma-separated Q+Qα coordinates, exactly `dimension` of them."""
    try:
        vec = tuple(QAlpha.parse(c) for c in text.split(","))
    except ValueError as exc:
        raise UsageError(f"bad {what} coordinates {text!r}: {exc}")
    if len(vec) != dimension:
        raise UsageError(f"{what} {text!r} needs {dimension} coordinate(s), "
                         f"got {len(vec)}")
    return vec


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_groupoid(args, cfg) -> dict:
    atlas = resolve_atlas(args.atlas)
    groupoid = StructureGroupoid(atlas)
    point = (parse_point(args.point, atlas) if args.point is not None
             else NebulaPoint(atlas.charts[0].id,
                              tuple(qa(0) for _ in range(atlas.dimension))))
    groupoid.require_point(point)
    bound = cfg["bound"]
    report = groupoid.isotropy_and_assembly(point, bound)
    fiber = groupoid.fiber_over(point, bound)
    checks = [
        check("assembly",
              point=str(point), bound=bound,
              blocks=[{"chart": cid, "objects": len(objs),
                       "arrows": len(arrows)}
                      for cid, objs, arrows in report.blocks],
              connections=len(report.connections)),
        check("fiber", size=len(fiber)),
        check("isotropy", order=len(report.isotropy)),
    ]
    out = build_report("groupoid", cfg, checks)
    out["assembly"] = report.to_json()
    return out


def cmd_algebra(args, cfg) -> dict:
    rng = random.Random(cfg["seed"])
    trials = cfg["trials"]
    route_tol = 1e-12
    axiom_tol = cfg["tol"]
    models = {  # name: (model, random element factory)
        "line": (alg.LineModel(z_alpha_lattice()), alg.random_line_element),
        "circle-full": (alg.CircleModel("full"), alg.random_circle_element),
        "circle-rational": (alg.CircleModel("rational"),
                            alg.random_circle_element),
        "circle-alpha": (alg.CircleModel("alpha"), alg.random_circle_element),
    }
    wanted = args.model or list(models)
    checks = []
    for name in wanted:
        if name not in models:
            raise UsageError(f"unknown model {name!r}; choose from "
                             f"{sorted(models)}")
        model, element = models[name]
        worst = {"routes": 0.0, "support": 0, "assoc": 0.0, "star": 0.0,
                 "invol": 0.0, "bilin": 0.0}
        for _ in range(trials):
            f, g, h = (element(rng, model) for _ in range(3))
            r1 = alg.convolve_general(f, g)
            r2 = alg.convolve_closed_form(f, g)
            worst["routes"] = _largest((worst["routes"], r1.distance(r2)))
            if r1.keys() != r2.keys():
                worst["support"] += 1
            worst["assoc"] = _largest((worst["assoc"],
                                       (r2 * h).distance(f * (g * h))))
            worst["star"] = _largest((worst["star"],
                                      r2.star().distance(g.star() * f.star())))
            worst["invol"] = _largest((worst["invol"],
                                       f.star().star().distance(f)))
            lhs = (f + g.scale(2.5 - 1.5j)) * h
            rhs = f * h + (g * h).scale(2.5 - 1.5j)
            worst["bilin"] = _largest((worst["bilin"], lhs.distance(rhs)))
        checks.append(check(
            f"{name}-routes-agree",
            _over(worst["routes"], route_tol) or worst["support"] > 0,
            max_distance=worst["routes"], support_mismatches=worst["support"],
            tol=route_tol, trials=trials))
        for axiom in ("assoc", "star", "invol", "bilin"):
            checks.append(check(
                f"{name}-{axiom}", _over(worst[axiom], axiom_tol),
                max_distance=worst[axiom], tol=axiom_tol, trials=trials))
    return build_report("algebra", cfg, checks)


def cmd_rotation(args, cfg) -> dict:
    if args.negate:
        set_default_witness(default_witness().negated())
    result = alg.rotation_relation(max_power=args.max_power)
    lam = result["lambda"]
    checks = [
        check("lambda-matches-reference",
              _over(result["lambda_error"], 1e-12),
              empirical=[lam.real, lam.imag],
              reference=[result["reference"].real, result["reference"].imag],
              error=result["lambda_error"], tol=1e-12),
        check("relation-residual",
              _over(result["relation_residual"], 1e-12),
              residual=result["relation_residual"], tol=1e-12),
        check("power-relations",
              _over(result["power_residual"], cfg["tol"]),
              residual=result["power_residual"], tol=cfg["tol"],
              max_power=result["max_power"]),
    ]
    return build_report("rotation", cfg, checks)


def cmd_repr(args, cfg) -> dict:
    rng = random.Random(cfg["seed"])
    model = alg.CircleModel("rational")
    ps = args.p
    checks = [check("product-order-constant",
                    value=alg.REPRESENTATION_PRODUCT_ORDER)]
    for p in ps:
        worst = 0.0
        for _ in range(args.pairs):
            f = alg.random_circle_element(rng, model, denominator=p)
            g = alg.random_circle_element(rng, model, denominator=p)
            starred = alg.convolve_closed_form(g, f)  # ★ = reversed order
            for _ in range(args.z_samples):
                z = rng.uniform(0.0, 1.0)
                M = alg.matrix_representation(starred, p, z)
                Mf = alg.matrix_representation(f, p, z)
                Mg = alg.matrix_representation(g, p, z)
                worst = _largest((worst, (M - (Mf @ Mg)).sup_norm()))
        checks.append(check(f"repr-multiplicative-p{p}",
                            _over(worst, cfg["tol"]),
                            max_deviation=worst, tol=cfg["tol"],
                            pairs=args.pairs, z_samples=args.z_samples))
        if p == 1:
            f = alg.random_circle_element(rng, model, denominator=1)
            g = alg.random_circle_element(rng, model, denominator=1)
            starred = alg.convolve_closed_form(g, f)
            z = 0.25
            M = alg.matrix_representation(starred, 1, z).rows[0][0]
            pointwise = (f.coeff(qa(0)).eval(z) * g.coeff(qa(0)).eval(z))
            checks.append(check(
                "repr-p1-pointwise", _over(abs(M - pointwise), 1e-12),
                deviation=abs(M - pointwise), tol=1e-12))
    return build_report("repr", cfg, checks)


def cmd_rq_algebra(args, cfg) -> dict:
    rng = random.Random(cfg["seed"])
    model = alg.CircleModel("rational")
    trials = cfg["trials"]
    worst_routes = 0.0
    worst_adjoint = 0.0
    denominator = args.denominator
    for _ in range(trials):
        f = alg.random_circle_element(rng, model, denominator=denominator)
        g = alg.random_circle_element(rng, model, denominator=denominator)
        r1 = alg.convolve_general(f, g)
        r2 = alg.convolve_closed_form(f, g)
        worst_routes = _largest((worst_routes, r1.distance(r2)))
        z = rng.uniform(0.0, 1.0)
        Mf = alg.matrix_representation(f, denominator, z)
        Ms = alg.matrix_representation(f.star(), denominator, z)
        worst_adjoint = _largest((worst_adjoint,
                                  (Ms - Mf.conjugate_transpose()).sup_norm()))
    checks = [
        check("routes-agree", _over(worst_routes, 1e-12),
              max_distance=worst_routes, tol=1e-12, trials=trials),
        check("star-is-adjoint", _over(worst_adjoint, cfg["tol"]),
              max_deviation=worst_adjoint, tol=cfg["tol"]),
        check("product-order-constant",
              value=alg.REPRESENTATION_PRODUCT_ORDER),
    ]
    return build_report("rq-algebra", cfg, checks)


def _off_every_orbit(groupoid, starts, t, bound):
    """The verdict on a target that no bounded probe reached: False (a
    certified violation) when `same_point` puts t off the orbit of every
    start, else None (unresolved at the bound)."""
    refuted = all(groupoid.same_point(s, t, bound) is Trit.FALSE
                  for s in starts)
    return False if refuted else None


def cmd_morita(args, cfg) -> dict:
    bi = resolve_biatlas(args.biatlas)
    bound = cfg["bound"]
    germs = bim.generate_germs(bi, args.word_length)
    capped = germs[: args.instance_cap]
    G, Gp = bi.left_groupoid(), bi.right_groupoid()
    unit, assoc, comm, free, inj, surj = (_Tally() for _ in range(6))

    # (i) unit laws
    for z in germs:
        unit.add(bim.left_act(Arrow.unit(z.src), z) == z
                 and bim.right_act(z, Arrow.unit(z.trg)) == z,
                 lambda: {"axiom": "unit", "germ": z.to_json()})

    # (ii) associativity of each action and (iii) commutation between the
    # two actions
    words = {}  # word searches shared by every loop below, see arrows_from
    for z in capped:
        lefts = G.fiber_over(z.src, 1, words=words)
        rights = Gp.arrows_from(z.trg, 1, words=words)
        for g in lefts[:4]:
            for g1 in G.fiber_over(g.src, 1, words=words)[:3]:
                assoc.add(bim.left_act(arrow_compose(g1, g), z)
                          == bim.left_act(g1, bim.left_act(g, z)),
                          lambda: {"axiom": "left-associativity",
                                   "germ": z.to_json()})
        for gp in rights[:4]:
            for gp1 in Gp.arrows_from(gp.trg, 1, words=words)[:3]:
                assoc.add(bim.right_act(z, arrow_compose(gp, gp1))
                          == bim.right_act(bim.right_act(z, gp), gp1),
                          lambda: {"axiom": "right-associativity",
                                   "germ": z.to_json()})
        for g in lefts[:4]:
            for gp in rights[:4]:
                comm.add(bim.right_act(bim.left_act(g, z), gp)
                         == bim.left_act(g, bim.right_act(z, gp)),
                         lambda: {"axiom": "commute", "germ": z.to_json()})

    # (iv) freeness: the self-witness must be the unit
    for z in capped:
        for side, (w, cert) in (
                ("left", bim.quotient_witness(bi, z, z, bound, words=words)),
                ("right", bim.quotient_witness_right(bi, z, z, bound,
                                                     words=words))):
            free.add(None if cert == "inconclusive-at-bound"
                     else cert == "constructed" and w.is_unit,
                     lambda: {"axiom": f"{side}-freeness",
                              "germ": z.to_json()})

    # (v) class-map bijections: equal classes must be witnessed (injectivity
    # of Z/G -> Obj(G')), every reached object must be hit by a probe
    # (surjectivity); symmetric statement for sources via Z/G' -> Obj(G).
    for i, z in enumerate(capped):
        for zp in capped[i + 1:]:
            if bim.class_map(z) == bim.class_map(zp):
                w, cert = bim.quotient_witness(bi, z, zp, bound, words=words)
                inj.add(None if cert == "inconclusive-at-bound"
                        else cert == "constructed"
                        and bim.left_act(w, z) == zp,
                        lambda: {"axiom": "left-injectivity",
                                 "germ": z.to_json(), "other": zp.to_json()})
            if z.src == zp.src:
                w, cert = bim.quotient_witness_right(bi, z, zp, bound,
                                                     words=words)
                inj.add(None if cert == "inconclusive-at-bound"
                        else cert == "constructed"
                        and bim.right_act(z, w) == zp,
                        lambda: {"axiom": "right-injectivity",
                                 "germ": z.to_json(), "other": zp.to_json()})

    # a probe that misses within the bound fails only when every seed's
    # class (source) is certified off the target's orbit
    targets = {bim.class_map(z) for z in capped}
    for t in sorted(targets, key=str):
        z = bim.surjectivity_probe(bi, t, bound, words=words)
        surj.add(_off_every_orbit(Gp, [bim.class_map(s) for s in bi.seeds],
                                  t, bound) if z is None
                 else bim.class_map(z) == t,
                 lambda: {"axiom": "class-surjectivity", "target": str(t)})
    sources = {z.src for z in capped}
    for t in sorted(sources, key=str):
        z = bim.source_probe(bi, t, bound, words=words)
        surj.add(_off_every_orbit(G, [s.src for s in bi.seeds], t, bound)
                 if z is None else z.src == t,
                 lambda: {"axiom": "source-surjectivity", "target": str(t)})

    out = build_report("morita", cfg, [
        unit.record("unit-laws", "instances", "violations"),
        assoc.record("action-associativity", "instances", "violations"),
        comm.record("actions-commute", "instances", "violations"),
        free.record("freeness", "violations"),
        inj.record("class-map-injectivity", "violations", "unresolved"),
        surj.record("class-map-surjectivity", "violations", "unresolved",
                    class_targets=len(targets), source_targets=len(sources)),
    ])
    failures = [c for t in (unit, assoc, comm, free, inj, surj)
                for c in t.counterexamples]
    if failures:
        out["counterexamples"] = failures[:10]
    return out


def _lift_detect(args, cfg) -> dict:
    group = (RationalTranslations(1) if args.group == "rational"
             else z_alpha_lattice())
    rng = random.Random(cfg["seed"])
    if args.control:
        half_alpha = qa(0, Fraction(1, 2))
        func = lambda s: (s[0] + half_alpha,)
        expect_pieces, expect_coverage = 0, 0.0
        label = "control-not-absorbed"
    elif args.stitch > 1:
        k = args.stitch
        if args.group == "rational":
            choices = (Fraction(1, 2), Fraction(-1, 2), Fraction(1, 3),
                       Fraction(-1, 3), Fraction(2, 3), Fraction(-2, 3))
            gammas = [qa(choices[i % len(choices)]) for i in range(k)]
        else:
            gammas = [qa(i, 1 - i) for i in range(k)]
        cuts = [qa(-(k - 2) + 2 * i) for i in range(k - 1)]

        def func(s, _g=tuple(gammas), _c=tuple(cuts)):
            x = s[0]
            for i, cut in enumerate(_c):
                if compare(x, cut) < 0:
                    return (x + _g[i],)
            return (x + _g[-1],)

        expect_pieces, expect_coverage = k, 1.0
        label = f"stitched-{k}"
    else:
        gamma = (parse_vector(args.gamma, 1, "--gamma")[0]
                 if args.gamma is not None else qa(2, 3))
        func = lambda s: (s[0] + gamma,)
        expect_pieces, expect_coverage = 1, 1.0
        label = "single-element"
    radius = float(args.stitch) if args.stitch > 1 else 1.0
    F = lift.SampledMap.from_function(func, (qa(0),), max(radius, 1.0) * 1.5,
                                      args.samples, kind="exact",
                                      seed=cfg["seed"])
    report = lift.detect_pieces(F, group, cfg["bound"])
    ok = (report.coverage == expect_coverage
          and (expect_pieces == 0 or report.piece_count == expect_pieces))
    checks = [check(f"detect-{label}", not ok,
                    pieces=report.piece_count, coverage=report.coverage,
                    expected_pieces=expect_pieces,
                    expected_coverage=expect_coverage,
                    unmatched=len(report.unmatched))]
    out = build_report("lift detect", cfg, checks)
    out["pieces"] = report.to_json()
    return out


def _lift_fit(args, cfg) -> dict:
    kind = args.kind
    if kind == "affine":
        func = lambda s: (3.0 * s[0] - 1.0,)
        expect = "accept"
    elif kind == "quadratic":
        func = lambda s: (s[0] * s[0],)
        expect = "reject"
    else:  # stitched
        func = lambda s: (s[0] + 1.0,) if s[0] < 0 else (s[0] + 0.5,)
        expect = "reject"
    F = lift.SampledMap.from_function(func, (0.0,), 1.0, args.samples,
                                      kind="numeric", seed=cfg["seed"])
    fit = lift.reconstruct_affine(F, tol=max(cfg["tol"], 1e-9))
    accepted = fit is not None
    detail = {"expected": expect, "accepted": accepted}
    if fit:
        detail["fit"] = fit.to_json()
    checks = [check(f"fit-{kind}", accepted != (expect == "accept"),
                    **detail)]
    return build_report("lift fit", cfg, checks)


def _lift_construct(args, cfg) -> dict:
    bi = resolve_biatlas(args.biatlas)
    r = parse_vector(args.r, bi.left.dimension, "--r")
    rp = parse_vector(args.rp, bi.right.dimension, "--rp")
    try:
        result = lift.lift_diffeo(bi, r, rp, cfg["bound"])
        hit = result.apply(r) == rp
        checks = [check("lift-constructed", not hit,
                        map=result.to_json(), endpoint_exact=hit)]
    except FibersIncompatibleError as exc:
        checks = [check("lift-constructed", True,
                        certificate="fibers-incompatible", reason=str(exc))]
    except InconclusiveAtBoundError as exc:
        checks = [check("lift-constructed", False, True,
                        certificate="inconclusive-at-bound", reason=str(exc))]
    return build_report("lift construct", cfg, checks)


def _lift_flipdemo(args, cfg) -> dict:
    report = lift.nonliftable_demo(args.n_max, args.samples,
                                   tol=min(cfg["tol"], 1e-10),
                                   seed=cfg["seed"])
    checks = []
    for row in report["annuli"]:
        checks.append(check(
            f"annulus-{row['n']}-{row['parity']}",
            _over(row["max_deviation"], report["tol"]),
            h=row["h"], max_deviation=row["max_deviation"],
            max_magnitude=row["max_magnitude"], samples=row["samples"]))
    checks.append(check("outside-unit-disk-zero",
                        not report["outside_zero"]))
    return build_report("lift flipdemo", cfg, checks)


def cmd_lift(args, cfg) -> dict:
    return {"detect": _lift_detect, "fit": _lift_fit,
            "construct": _lift_construct, "flipdemo": _lift_flipdemo
            }[args.lift_command](args, cfg)


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    # SUPPRESS keeps an unset subparser flag from clobbering a value that the
    # top-level parser already read (global flags work on either side of the
    # subcommand).
    common = argparse.ArgumentParser(add_help=False,
                                     argument_default=argparse.SUPPRESS)
    common.add_argument("--config", help="JSON config file")
    common.add_argument("--seed", type=int, help="random seed (default 0)")
    common.add_argument("--format", choices=("json", "table", "csv"),
                        help="output format (default json)")
    common.add_argument("--bound", type=int,
                        help="enumeration/word bound (default 3)")
    common.add_argument("--tol", type=float,
                        help="numeric tolerance (default 1e-9)")
    common.add_argument("--alpha",
                        help="decimal value for α ('default' = golden "
                             "conjugate at 50 digits)")
    common.add_argument("--trials", type=int,
                        help="random corpus size (default 200)")

    parser = argparse.ArgumentParser(
        prog="quasifold",
        description="Exact computations with diffeological quasifolds: "
                    "structure groupoids, convolution algebras, equivalence "
                    "bimodules, affine lifting experiments.",
        parents=[common])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("groupoid", parents=[common],
                       help="assembly/fiber/isotropy tables")
    p.add_argument("--atlas", required=True,
                   help="builtin atlas name or JSON file")
    p.add_argument("--point", help="base point, chart:coords (default origin)")

    p = sub.add_parser("algebra", parents=[common],
                       help="*-algebra axiom property suite")
    p.add_argument("action", nargs="?", default="check", choices=("check",))
    p.add_argument("--model", action="append",
                   help="line | circle-full | circle-rational | circle-alpha "
                        "(repeatable; default all)")

    p = sub.add_parser("rotation", parents=[common],
                       help="the rotation relation V·U = λ·U·V")
    p.add_argument("--max-power", type=positive_int, default=3)
    p.add_argument("--negate", action="store_true",
                   help="substitute α ↦ −α")

    p = sub.add_parser("repr", parents=[common],
                       help="matrix representation checks")
    p.add_argument("--p", default="1,2,3,4,6", type=positive_int_list,
                   help="comma-separated subgroup denominators")
    p.add_argument("--pairs", type=positive_int, default=50)
    p.add_argument("--z-samples", type=positive_int, default=20)

    p = sub.add_parser("rq-algebra", parents=[common],
                       help="rational-circle algebra consistency")
    p.add_argument("--denominator", type=positive_int, default=6)

    p = sub.add_parser("morita", parents=[common],
                       help="equivalence bimodule axiom report")
    p.add_argument("--biatlas", required=True,
                   help="builtin bi-atlas name or JSON file")
    p.add_argument("--word-length", type=nonnegative_int, default=1)
    p.add_argument("--instance-cap", type=positive_int, default=60)

    p = sub.add_parser("lift", help="affine lifting laboratory")
    lsub = p.add_subparsers(dest="lift_command", required=True)

    q = lsub.add_parser("detect", parents=[common],
                        help="locally-affine piece detection")
    q.add_argument("--stitch", type=nonnegative_int, default=0,
                   help="number of stitched group elements")
    q.add_argument("--gamma", help="single translation, e.g. '2+α*3'")
    q.add_argument("--control", action="store_true",
                   help="use the non-absorbed control map")
    q.add_argument("--samples", type=positive_int, default=40)
    q.add_argument("--group", choices=("zalpha", "rational"),
                   default="zalpha")

    q = lsub.add_parser("fit", parents=[common],
                        help="global affine reconstruction")
    q.add_argument("--kind", choices=("affine", "quadratic", "stitched"),
                   default="affine")
    q.add_argument("--samples", type=positive_int, default=50)

    q = lsub.add_parser("construct", parents=[common],
                        help="prescribed-endpoint lift")
    q.add_argument("--biatlas", required=True)
    q.add_argument("--r", required=True, help="source point coords")
    q.add_argument("--rp", required=True, help="prescribed image coords")

    q = lsub.add_parser("flipdemo", parents=[common],
                        help="the non-liftable radial flip map")
    q.add_argument("--n-max", type=positive_int, default=6)
    q.add_argument("--samples", type=positive_int, default=100)

    return parser


COMMANDS = {
    "groupoid": cmd_groupoid,
    "algebra": cmd_algebra,
    "rotation": cmd_rotation,
    "repr": cmd_repr,
    "rq-algebra": cmd_rq_algebra,
    "morita": cmd_morita,
    "lift": cmd_lift,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    # "--opt=" gives an empty string; argparse before Python 3.12 reads
    # "--opt=--" as an empty list (inside the list of an append option)
    empty = [name for name, value in vars(args).items()
             if value in ("", []) or isinstance(value, list) and [] in value]
    if empty:
        print(f"error: no value given for --{empty[0].replace('_', '-')}",
              file=sys.stderr)
        return EXIT_USAGE
    start = time.monotonic()
    previous = default_witness()
    try:
        cfg = resolve_config(args)
        # the run's α: every command reads it through default_witness()
        set_default_witness(make_witness(cfg))
        report = COMMANDS[args.command](args, cfg)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except PrecisionInsufficientError as exc:
        # valid input the α-witness cannot order at its precision
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INCONCLUSIVE
    except QuasifoldError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    finally:
        set_default_witness(previous)
    sys.stdout.write(render(report, cfg["format"]))
    elapsed = time.monotonic() - start
    print(f"elapsed: {elapsed:.3f}s", file=sys.stderr)
    return exit_code(report)


if __name__ == "__main__":
    sys.exit(main())
