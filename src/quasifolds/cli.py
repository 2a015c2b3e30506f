"""Command-line front end.

Subcommands: groupoid, algebra, rotation, repr, rq-algebra, morita, lift.
Reports are canonical JSON on stdout (sorted keys, stable formatting); with
--format table/csv the same data is rendered as text.  Timing goes to stderr
so report bytes depend only on the configuration and seed.

Exit codes: 0 all checks pass, 1 at least one failure, 2 usage or parse
error, 3 inconclusive results only, or a comparison the α-witness cannot
certify at its precision.
"""

from __future__ import annotations

import argparse
import json
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
from .errors import (FibersIncompatibleError, InconclusiveAtBoundError,
                     PrecisionInsufficientError, QuasifoldError)
from .exact import (AlphaWitness, QAlpha, compare, default_witness, qa,
                    set_default_witness)
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
    if cfg["tol"] < 0:
        raise UsageError("tolerance must be nonnegative")
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

def check(name: str, status: str, **detail) -> dict:
    assert status in ("pass", "fail", "inconclusive")
    return {"name": name, "status": status, "detail": detail}


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
        s = report["summary"]
        lines.append(f"summary: pass={s['pass']} fail={s['fail']} "
                     f"inconclusive={s['inconclusive']}")
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
        check("assembly", "pass",
              point=str(point), bound=bound,
              blocks=[{"chart": cid, "objects": len(objs),
                       "arrows": len(arrows)}
                      for cid, objs, arrows in report.blocks],
              connections=len(report.connections)),
        check("fiber", "pass", size=len(fiber)),
        check("isotropy", "pass", order=len(report.isotropy)),
    ]
    out = build_report("groupoid", cfg, checks)
    out["assembly"] = report.to_json()
    return out


def _axiom_corpus(rng, model, trials, kind):
    for _ in range(trials):
        if kind == "line":
            yield (alg.random_line_element(rng, model),
                   alg.random_line_element(rng, model),
                   alg.random_line_element(rng, model))
        else:
            yield (alg.random_circle_element(rng, model),
                   alg.random_circle_element(rng, model),
                   alg.random_circle_element(rng, model))


def cmd_algebra(args, cfg) -> dict:
    rng = random.Random(cfg["seed"])
    trials = cfg["trials"]
    route_tol = 1e-12
    axiom_tol = cfg["tol"]
    models = {
        "line": alg.LineModel(z_alpha_lattice()),
        "circle-full": alg.CircleModel("full"),
        "circle-rational": alg.CircleModel("rational"),
        "circle-alpha": alg.CircleModel("alpha"),
    }
    wanted = args.model or list(models)
    checks = []
    for name in wanted:
        if name not in models:
            raise UsageError(f"unknown model {name!r}; choose from "
                             f"{sorted(models)}")
        model = models[name]
        kind = "line" if name == "line" else "circle"
        worst = {"routes": 0.0, "support": 0, "assoc": 0.0, "star": 0.0,
                 "invol": 0.0, "bilin": 0.0}
        for f, g, h in _axiom_corpus(rng, model, trials, kind):
            r1 = alg.convolve_general(f, g)
            r2 = alg.convolve_closed_form(f, g)
            worst["routes"] = max(worst["routes"], r1.distance(r2))
            if r1.keys() != r2.keys():
                worst["support"] += 1
            worst["assoc"] = max(worst["assoc"],
                                 (r2 * h).distance(f * (g * h)))
            worst["star"] = max(worst["star"],
                                r2.star().distance(g.star() * f.star()))
            worst["invol"] = max(worst["invol"],
                                 f.star().star().distance(f))
            lhs = (f + g.scale(2.5 - 1.5j)) * h
            rhs = f * h + (g * h).scale(2.5 - 1.5j)
            worst["bilin"] = max(worst["bilin"], lhs.distance(rhs))
        checks.append(check(
            f"{name}-routes-agree",
            "pass" if worst["routes"] <= route_tol and not worst["support"]
            else "fail",
            max_distance=worst["routes"], support_mismatches=worst["support"],
            tol=route_tol, trials=trials))
        for axiom in ("assoc", "star", "invol", "bilin"):
            checks.append(check(
                f"{name}-{axiom}",
                "pass" if worst[axiom] <= axiom_tol else "fail",
                max_distance=worst[axiom], tol=axiom_tol, trials=trials))
    return build_report("algebra", cfg, checks)


def cmd_rotation(args, cfg) -> dict:
    if args.negate:
        set_default_witness(default_witness().negated())
    result = alg.rotation_relation(max_power=args.max_power)
    lam = result["lambda"]
    checks = [
        check("lambda-matches-reference",
              "pass" if result["lambda_error"] <= 1e-12 else "fail",
              empirical=[lam.real, lam.imag],
              reference=[result["reference"].real, result["reference"].imag],
              error=result["lambda_error"], tol=1e-12),
        check("relation-residual",
              "pass" if result["relation_residual"] <= 1e-12 else "fail",
              residual=result["relation_residual"], tol=1e-12),
        check("power-relations",
              "pass" if result["power_residual"] <= cfg["tol"] else "fail",
              residual=result["power_residual"], tol=cfg["tol"],
              max_power=result["max_power"]),
    ]
    return build_report("rotation", cfg, checks)


def cmd_repr(args, cfg) -> dict:
    rng = random.Random(cfg["seed"])
    model = alg.CircleModel("rational")
    ps = args.p
    checks = [check("product-order-constant", "pass",
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
                worst = max(worst, (M - (Mf @ Mg)).sup_norm())
        checks.append(check(f"repr-multiplicative-p{p}",
                            "pass" if worst <= cfg["tol"] else "fail",
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
                "repr-p1-pointwise",
                "pass" if abs(M - pointwise) <= 1e-12 else "fail",
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
        worst_routes = max(worst_routes, r1.distance(r2))
        z = rng.uniform(0.0, 1.0)
        Mf = alg.matrix_representation(f, denominator, z)
        Ms = alg.matrix_representation(f.star(), denominator, z)
        worst_adjoint = max(worst_adjoint,
                            (Ms - Mf.conjugate_transpose()).sup_norm())
    checks = [
        check("routes-agree", "pass" if worst_routes <= 1e-12 else "fail",
              max_distance=worst_routes, tol=1e-12, trials=trials),
        check("star-is-adjoint",
              "pass" if worst_adjoint <= cfg["tol"] else "fail",
              max_deviation=worst_adjoint, tol=cfg["tol"]),
        check("product-order-constant", "pass",
              value=alg.REPRESENTATION_PRODUCT_ORDER),
    ]
    return build_report("rq-algebra", cfg, checks)


def cmd_morita(args, cfg) -> dict:
    bi = resolve_biatlas(args.biatlas)
    bound = cfg["bound"]
    word_length = args.word_length
    germs = bim.generate_germs(bi, word_length)
    G, Gp = bi.left_groupoid(), bi.right_groupoid()
    checks = []
    failures = []

    # (i) unit laws
    bad = 0
    for z in germs:
        uz = bim.left_act(Arrow.unit(z.src), z)
        zu = bim.right_act(z, Arrow.unit(z.trg))
        if uz != z or zu != z:
            bad += 1
            failures.append({"axiom": "unit", "germ": z.to_json()})
    checks.append(check("unit-laws", "pass" if bad == 0 else "fail",
                        instances=len(germs), violations=bad))

    # (ii)+(iii) associativity of each action and commutation between them
    bad_assoc = bad_comm = total = 0
    for z in germs[: args.instance_cap]:
        lefts = G.fiber_over(z.src, 1)
        rights = Gp.arrows_from(z.trg, 1)
        for g in lefts[:4]:
            deeper = G.fiber_over(g.src, 1)
            for g1 in deeper[:3]:
                composite = arrow_compose(g1, g)
                if bim.left_act(composite, z) != bim.left_act(
                        g1, bim.left_act(g, z)):
                    bad_assoc += 1
                total += 1
        for g in lefts[:4]:
            for gp in rights[:4]:
                lhs = bim.right_act(bim.left_act(g, z), gp)
                rhs = bim.left_act(g, bim.right_act(z, gp))
                if lhs != rhs:
                    bad_comm += 1
                    failures.append({"axiom": "commute", "germ": z.to_json()})
                total += 1
    checks.append(check("action-associativity",
                        "pass" if bad_assoc == 0 else "fail",
                        violations=bad_assoc, instances=total))
    checks.append(check("actions-commute", "pass" if bad_comm == 0 else "fail",
                        violations=bad_comm, instances=total))

    # (iv) freeness: the self-witness must be the unit
    bad = 0
    for z in germs[: args.instance_cap]:
        w, cert = bim.quotient_witness(bi, z, z, bound)
        wp, certp = bim.quotient_witness_right(bi, z, z, bound)
        if cert != "constructed" or not w.is_unit:
            bad += 1
        if certp != "constructed" or not wp.is_unit:
            bad += 1
    checks.append(check("freeness", "pass" if bad == 0 else "fail",
                        violations=bad))

    # (v) class-map bijections: equal classes must be witnessed (injectivity
    # of Z/G -> Obj(G')), every reached object must be hit by a probe
    # (surjectivity); symmetric statement for sources via Z/G' -> Obj(G).
    inj_bad = inj_unknown = 0
    for i, z in enumerate(germs[: args.instance_cap]):
        for zp in germs[i + 1: args.instance_cap]:
            if bim.class_map(z) == bim.class_map(zp):
                w, cert = bim.quotient_witness(bi, z, zp, bound)
                if cert == "inconclusive-at-bound":
                    inj_unknown += 1
                elif cert != "constructed" or bim.left_act(w, z) != zp:
                    inj_bad += 1
                    failures.append({"axiom": "left-injectivity",
                                     "germ": z.to_json(),
                                     "other": zp.to_json()})
            if z.src == zp.src:
                w, cert = bim.quotient_witness_right(bi, z, zp, bound)
                if cert == "inconclusive-at-bound":
                    inj_unknown += 1
                elif cert != "constructed" or bim.right_act(z, w) != zp:
                    inj_bad += 1
                    failures.append({"axiom": "right-injectivity",
                                     "germ": z.to_json(),
                                     "other": zp.to_json()})
    status = ("pass" if inj_bad == 0 and inj_unknown == 0
              else ("fail" if inj_bad else "inconclusive"))
    checks.append(check("class-map-injectivity", status,
                        violations=inj_bad, unresolved=inj_unknown))

    surj_bad = 0
    targets = {bim.class_map(z) for z in germs[: args.instance_cap]}
    for t in sorted(targets, key=str):
        z = bim.surjectivity_probe(bi, t, bound)
        if z is None or bim.class_map(z) != t:
            surj_bad += 1
            failures.append({"axiom": "class-surjectivity", "target": str(t)})
    sources = {z.src for z in germs[: args.instance_cap]}
    for t in sorted(sources, key=str):
        z = bim.source_probe(bi, t, bound)
        if z is None or z.src != t:
            surj_bad += 1
            failures.append({"axiom": "source-surjectivity", "target": str(t)})
    checks.append(check("class-map-surjectivity",
                        "pass" if surj_bad == 0 else "fail",
                        violations=surj_bad,
                        class_targets=len(targets), source_targets=len(sources)))

    out = build_report("morita", cfg, checks)
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
    checks = [check(f"detect-{label}", "pass" if ok else "fail",
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
    ok = accepted == (expect == "accept")
    detail = {"expected": expect, "accepted": accepted}
    if fit:
        detail["fit"] = fit.to_json()
    checks = [check(f"fit-{kind}", "pass" if ok else "fail", **detail)]
    return build_report("lift fit", cfg, checks)


def _lift_construct(args, cfg) -> dict:
    bi = resolve_biatlas(args.biatlas)
    r = parse_vector(args.r, bi.left.dimension, "--r")
    rp = parse_vector(args.rp, bi.right.dimension, "--rp")
    try:
        result = lift.lift_diffeo(bi, r, rp, cfg["bound"])
        hit = result.apply(r) == rp
        checks = [check("lift-constructed", "pass" if hit else "fail",
                        map=result.to_json(), endpoint_exact=hit)]
    except FibersIncompatibleError as exc:
        checks = [check("lift-constructed", "fail",
                        certificate="fibers-incompatible", reason=str(exc))]
    except InconclusiveAtBoundError as exc:
        checks = [check("lift-constructed", "inconclusive",
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
            "pass" if row["pass"] else "fail",
            h=row["h"], max_deviation=row["max_deviation"],
            max_magnitude=row["max_magnitude"], samples=row["samples"]))
    checks.append(check("outside-unit-disk-zero",
                        "pass" if report["outside_zero"] else "fail"))
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
