"""The four benchmark workloads.

A workload is built once (its set-up: models, atlases, groupoids, bi-atlases
and the round-0 corpus) and then runs in rounds.  Every round has the same
list of operation kinds and counts; round r draws its inputs from
(seed, r), so a longer run meets more distinct inputs instead of repeating
the same ones.  An operation is one verdict-bearing call sequence into the
package; its `check` recomputes what the answer must be (see oracles.py).

The package is always reached through module attributes (``alg.involute``,
``bim.left_act``) so that the traced run's wrappers, installed after this
module is imported, see every call.
"""

from __future__ import annotations

import random
from collections import namedtuple
from fractions import Fraction

from quasifolds import algebra as alg
from quasifolds import atlas
from quasifolds import bimodule as bim
from quasifolds import catalog
from quasifolds import cli
from quasifolds import coefficients as coef
from quasifolds import exact
from quasifolds import groupoid as gpd
from quasifolds import groups
from quasifolds import lifting

import oracles

Op = namedtuple("Op", "kind run check")

# Per-round composition.  Operation kinds differ in cost by up to 1000x, so
# the counts are chosen to put the median and the 90th percentile of each
# workload's latency mix well inside the range of one kind (see README.md);
# a quantile that sat on the border between two kinds would jump between
# them from run to run.
LINE_TRIPLES = 16
CIRCLE_TRIPLES = 6          # per circle model
CIRCLE_MATRIX_PAIRS = 6
GERM_PAIRS = 55             # per bi-atlas, per class map
QUOTIENT_PAIRS = 2          # per bi-atlas, per side, in-class and cross-class
PROBES = 15                 # per bi-atlas, per probe kind
TORUS_CONNECTED = 12
TORUS_DISCONNECTED = 8
FOLD_PAIRS = 16
LIFTS = 4                   # per bi-atlas
POINT_BOUND = 3
ASSEMBLY_BOUND = 2


def _rng(seed: int, round_index: int, salt: str) -> random.Random:
    return random.Random(f"{seed}:{round_index}:{salt}")


def _random_exact(rng, num_span=40, dens=(1, 2, 3, 4, 6, 12), alpha_span=9,
                  alpha_dens=(1, 2, 3, 4)) -> exact.QAlpha:
    return exact.qa(Fraction(rng.randint(-num_span, num_span), rng.choice(dens)),
                    Fraction(rng.randint(-alpha_span, alpha_span),
                             rng.choice(alpha_dens)))


# ---------------------------------------------------------------------------
# algebra workloads
# ---------------------------------------------------------------------------

def line_element(rng, model, n_keys=5, degree=8, span=2):
    """Keys n + mα with |n|, |m| ≤ span; two unit-width pieces of the given
    degree with geometrically damped coefficients (so products stay O(1))."""
    entries = []
    for _ in range(n_keys):
        key = exact.qa(rng.randint(-span, span), rng.randint(-span, span))
        lo = rng.randint(-3, 1)
        bps = tuple(exact.qa(lo + k) for k in range(3))
        pieces = tuple(
            tuple(complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) * 0.5 ** d
                  for d in range(degree + 1))
            for _ in range(2))
        entries.append((key, coef.PiecewisePoly(bps, pieces)))
    return alg.AlgebraElement(model, tuple(entries))


def circle_element(rng, model, n_keys=5, n_modes=8, denominator=6,
                   alpha_span=2, keys=None):
    """Subgroup-appropriate keys and modes −n_modes..n_modes."""
    entries = []
    for _ in range(n_keys):
        if keys is not None:
            key = exact.qa(Fraction(rng.randrange(keys), keys))
        elif model.subgroup == "rational":
            key = exact.qa(Fraction(rng.randrange(denominator), denominator))
        elif model.subgroup == "alpha":
            key = exact.qa(0, rng.randint(-alpha_span, alpha_span))
        else:
            key = exact.qa(Fraction(rng.randrange(denominator), denominator),
                           rng.randint(-alpha_span, alpha_span))
        modes = tuple((k, complex(rng.uniform(-1, 1), rng.uniform(-1, 1)))
                      for k in range(-n_modes, n_modes + 1))
        entries.append((key, coef.TrigPoly(modes)))
    return alg.AlgebraElement(model, tuple(entries))


def axiom_triple(f, g, h, left: bool) -> dict:
    """Associativity, star anti-homomorphism, involutivity, one side of
    bilinearity, and agreement of the two convolution routes on (f, g, h)."""
    conv = alg.convolve_closed_form
    fg, gh = conv(f, g), conv(g, h)
    inv_f = alg.involute(f)
    c = 2 - 1j
    if left:
        bilinear = (conv(f + g.scale(c), h), conv(f, h) + gh.scale(c))
    else:
        bilinear = (conv(f, g + h.scale(c)), fg + conv(f, h).scale(c))
    pairs = {
        "associativity": (conv(fg, h), conv(f, gh)),
        "star-antihomomorphism": (alg.involute(fg),
                                  conv(alg.involute(g), inv_f)),
        "involutivity": (alg.involute(inv_f), f),
        ("left" if left else "right") + "-bilinearity": bilinear,
    }
    general = alg.convolve_general(f, g)
    return {
        "f": f, "g": g, "fg": fg, "inv_f": inv_f, "pairs": pairs,
        "distances": {k: a.distance(b) for k, (a, b) in pairs.items()},
        "general": general, "route_distance": general.distance(fg),
    }


def _triple_ops(els, kind, circle):
    """One operation per disjoint triple: triples that shared elements would
    have correlated costs and make fewer independent latency samples."""
    for k in range(len(els) // 3):
        f, g, h = els[3 * k:3 * k + 3]
        yield Op(kind, lambda f=f, g=g, h=h, left=(k % 2 == 0):
                 axiom_triple(f, g, h, left),
                 lambda res: oracles.axiom_problems(res, circle))


class AlgebraLine:
    """Axiom triples on the line model over Z + αZ."""

    def __init__(self, seed: int):
        self.seed = seed
        self.model = alg.LineModel(catalog.z_alpha_lattice())

    def inputs(self, r: int):
        rng = _rng(self.seed, r, "line")
        return [line_element(rng, self.model) for _ in range(3 * LINE_TRIPLES)]

    def ops(self, els):
        return _triple_ops(els, "line-triple", False)


def matrix_pair(f, g, p: int, z: float) -> dict:
    h = alg.convolve_closed_form(f, g)
    mf = alg.matrix_representation(f, p, z)
    mg = alg.matrix_representation(g, p, z)
    mh = alg.matrix_representation(h, p, z)
    prod = mg @ mf
    defect = max(abs(a - b) for ra, rb in zip(mh.rows, prod.rows)
                 for a, b in zip(ra, rb))
    return {"h": h, "p": p, "z": z, "Mf": mf, "Mg": mg, "Mh": mh,
            "defect": defect}


class AlgebraCircle:
    """Axiom triples on the rational, α and full circle models, and
    matrix-representation defects on the rational circle."""

    SUBGROUPS = ("rational", "alpha", "full")

    def __init__(self, seed: int):
        self.seed = seed
        self.models = {s: alg.CircleModel(s) for s in self.SUBGROUPS}

    def inputs(self, r: int):
        rng = _rng(self.seed, r, "circle")
        triples = {s: [circle_element(rng, m)
                       for _ in range(3 * CIRCLE_TRIPLES)]
                   for s, m in self.models.items()}
        pairs = []
        for i in range(CIRCLE_MATRIX_PAIRS):
            p = (2, 3, 4, 6)[i % 4]
            model = self.models["rational"]
            pairs.append((circle_element(rng, model, 3, 4, keys=p),
                          circle_element(rng, model, 3, 4, keys=p),
                          p, rng.uniform(0.0, 1.0)))
        return triples, pairs

    def ops(self, inputs):
        triples, pairs = inputs
        for s in self.SUBGROUPS:
            yield from _triple_ops(triples[s], f"circle-{s}-triple", True)
        for f, g, p, z in pairs:
            yield Op("matrix-pair", lambda f=f, g=g, p=p, z=z:
                     matrix_pair(f, g, p, z), oracles.matrix_problems)


# ---------------------------------------------------------------------------
# bimodule workload
# ---------------------------------------------------------------------------

# name -> (factory, seed linear part, left chart, right chart); the right
# structure group is the seed's linear part times Z + αZ.
BIATLASES = {
    "duplicated": (catalog.duplicated_biatlas, Fraction(1), "main", "main"),
    "two-scale": (catalog.two_scale_biatlas, Fraction(1, 2), "main", "half"),
}


def germ_op(bi, name, word_length, box):
    _, scale, lchart, rchart = BIATLASES[name]

    def run():
        box["germs"] = bim.generate_germs(bi, word_length, max_count=6000)
        return box["germs"]

    return Op(f"germs-L{word_length}", run,
              lambda germs: oracles.germ_set_problems(
                  germs, scale, lchart, rchart, word_length))


def witness_pair(bi, z, zp, side: str) -> dict:
    """Certify that z and zp are related by one structure-group arrow."""
    if side == "left":
        cand = z.map.invert().compose(zp.map)
        group = bi.left.chart(z.src.chart).group
        g = gpd.Arrow(zp.src, cand, z.src.chart)
        back = gpd.Arrow(z.src, zp.map.invert().compose(z.map), zp.src.chart)
        moved, moved_back = bim.left_act(g, z), bim.left_act(back, zp)
    else:
        cand = zp.map.compose(z.map.invert())
        group = bi.right.chart(zp.dst_chart).group
        g = gpd.Arrow(z.trg, cand, zp.dst_chart)
        back = gpd.Arrow(zp.trg, z.map.compose(zp.map.invert()), z.dst_chart)
        moved, moved_back = bim.right_act(z, g), bim.right_act(zp, back)
    status = group.contains_value(cand.b)
    return {"z": z, "zp": zp, "side": side, "witness": g,
            "status": status.value, "moved": moved, "moved_back": moved_back,
            "unit": gpd.arrow_compose(g, back).is_unit}


def quotient_pair(bi, z, zp, side: str, bound: int) -> dict:
    if side == "left":
        arrow, cert = bim.quotient_witness(bi, z, zp, bound)
        moved = bim.left_act(arrow, z) if arrow is not None else None
    else:
        arrow, cert = bim.quotient_witness_right(bi, z, zp, bound)
        moved = bim.right_act(z, arrow) if arrow is not None else None
    return {"z": z, "zp": zp, "side": side, "arrow": arrow,
            "certificate": cert, "moved": moved}


class Bimodule:
    """Germ generation and class-map certificates on both built-in
    bi-atlases."""

    def __init__(self, seed: int):
        self.seed = seed
        self.biatlases = {name: spec[0]() for name, spec in BIATLASES.items()}

    def inputs(self, r: int):
        return _rng(self.seed, r, "bimodule")

    def ops(self, rng):
        for name, bi in self.biatlases.items():
            _, scale, lchart, rchart = BIATLASES[name]
            box = {}
            yield germ_op(bi, name, 1, box)
            yield germ_op(bi, name, 3, box)
            germs = box["germs"]
            by_class, by_src = {}, {}
            for z in germs:
                by_class.setdefault(oracles.trg_of(z), []).append(z)
                by_src.setdefault(oracles.germ_key(z)[:2], []).append(z)
            classes = sorted(by_class)
            sources = sorted(by_src)
            for side, groups_ in (("left", by_class), ("right", by_src)):
                keys = classes if side == "left" else sources
                for _ in range(GERM_PAIRS):
                    zs = groups_[rng.choice(keys)]
                    z, zp = rng.choice(zs), rng.choice(zs)
                    yield Op(f"{side}-witness-pair",
                             lambda bi=bi, z=z, zp=zp, side=side, scale=(
                                 Fraction(1) if side == "left" else scale):
                             dict(witness_pair(bi, z, zp, side),
                                  group_scale=scale),
                             oracles.witness_pair_problems)
                for i in range(2 * QUOTIENT_PAIRS):
                    k = rng.randrange(len(keys))
                    zs = groups_[keys[k]]
                    if i % 2 == 0:   # in-class: constructed within bound 6
                        z, zp, bound = zs[0], rng.choice(zs[1:]), 6
                        kind = f"{side}-quotient-in-class"
                    else:            # cross-class: certified different
                        z = zs[0]
                        zp = groups_[keys[(k + 1) % len(keys)]][0]
                        bound, kind = 2, f"{side}-quotient-cross"
                    yield Op(kind,
                             lambda bi=bi, z=z, zp=zp, side=side, bound=bound:
                             quotient_pair(bi, z, zp, side, bound),
                             oracles.quotient_problems)
            for _ in range(PROBES):
                n, m = rng.randint(-3, 3), rng.randint(-3, 3)
                target = (rchart, (scale * n, scale * m))
                pt = gpd.NebulaPoint(rchart, (exact.qa(*target[1]),))
                yield Op("class-probe",
                         lambda bi=bi, pt=pt, target=target, scale=scale: {
                             "germ": bim.surjectivity_probe(bi, pt, 3),
                             "target": target, "kind": "class",
                             "scale": scale},
                         oracles.probe_problems)
            for _ in range(PROBES):
                n, m = rng.randint(-3, 3), rng.randint(-3, 3)
                target = (lchart, (Fraction(n), Fraction(m)))
                pt = gpd.NebulaPoint(lchart, (exact.qa(n, m),))
                yield Op("source-probe",
                         lambda bi=bi, pt=pt, target=target, scale=scale: {
                             "germ": bim.source_probe(bi, pt, 3),
                             "target": target, "kind": "source",
                             "scale": scale},
                         oracles.probe_problems)


# ---------------------------------------------------------------------------
# point-query workload
# ---------------------------------------------------------------------------

def point_query(groupoid, v, w, bound) -> dict:
    return {"verdict": groupoid.same_point(v, w, bound).value,
            "arrows": groupoid.arrows_between(v, w, bound)}


def _point(chart, p):
    return gpd.NebulaPoint(chart, (exact.QAlpha(p[0], p[1]),))


def _fold_coordinate(rng, lo, hi):
    """An exact p + qα strictly inside (lo, hi), at least 1e-6 from both ends;
    q ≠ 0 forces witness order comparisons against the rational ends."""
    while True:
        x = (Fraction(rng.randint(-36, 36), rng.choice((1, 2, 3, 4, 12))),
             Fraction(rng.choice((0, 0, 1, -1, 1, -2)), rng.choice((7, 40))))
        v = oracles.fval(x)
        if lo + 1e-6 < v < hi - 1e-6:
            return x


def stitched_map(rng, group_name, group):
    """Samples of a map that translates piece i of [−4, 4] by a planted
    element; planted elements are distinct and inside enumeration bound 3."""
    if group_name == "z-alpha":
        pool = [(Fraction(n), Fraction(m)) for n in range(-3, 4)
                for m in range(-3, 4) if (n, m) != (0, 0)]
    else:
        pool = sorted({(Fraction(p, q), Fraction(0)) for q in (1, 2, 3)
                       for p in range(-3, 4) if p != 0})
    k = rng.choice((2, 3, 4))
    planted = rng.sample(pool, k)
    edges = [Fraction(-4)] + [Fraction(2 * i - (k - 2)) for i in range(k - 1)] \
        + [Fraction(4)]
    samples, values, owner = [], [], []
    for piece in range(k):
        for frac in (Fraction(1, 4), Fraction(3, 4)):
            x = edges[piece] + (edges[piece + 1] - edges[piece]) * frac
            samples.append((exact.qa(x),))
            values.append((exact.QAlpha(x + planted[piece][0],
                                        planted[piece][1]),))
            owner.append(planted[piece])
    return samples, values, planted, owner


def detect(samples, values, group):
    F = lifting.SampledMap((exact.qa(0),), 5.0, tuple(samples), tuple(values),
                           "exact")
    return lifting.detect_pieces(F, group, 3)


def assembly_report(bound: int) -> dict:
    import contextlib
    import io
    import json

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(["groupoid", "--atlas", "t-alpha", "--bound", str(bound)])
    return {"rc": rc, "report": json.loads(out.getvalue()) if rc == 0 else None,
            "bound": bound}


class PointQueries:
    """Point decisions on T_α and on the reflection orbifold, prescribed
    lifts, piece detection and one CLI assembly report per round."""

    def __init__(self, seed: int):
        self.seed = seed
        self.torus = atlas.build_groupoid(catalog.t_alpha_atlas())
        self.fold = atlas.build_groupoid(catalog.reflection_orbifold_atlas())
        self.biatlases = {name: spec[0]() for name, spec in BIATLASES.items()}
        self.piece_groups = {"z-alpha": catalog.z_alpha_lattice(),
                             "rational": groups.RationalTranslations(1)}

    def inputs(self, r: int):
        return _rng(self.seed, r, "points")

    def ops(self, rng):
        check = oracles.point_problems
        for i in range(TORUS_CONNECTED + TORUS_DISCONNECTED):
            x = oracles.pair(_random_exact(rng))
            if i < TORUS_CONNECTED:
                off = (Fraction(rng.randint(-3, 3)), Fraction(rng.randint(-3, 3)))
            else:
                off = (Fraction(rng.randint(-9, 9), rng.choice((2, 3, 5, 7))),
                       Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3))))
                if oracles.is_integral(off):
                    off = (off[0] + Fraction(1, 2), off[1])
            y = (x[0] + off[0], x[1] + off[1])
            v, w = ("main", x), ("main", y)
            yield Op("torus-decision",
                     lambda v=v, w=w, off=off: dict(
                         point_query(self.torus, _point(*v), _point(*w),
                                     POINT_BOUND),
                         v=v, w=w, offset=off,
                         truth=oracles.torus_truth(v[1], w[1])), check)
        for i in range(FOLD_PAIRS):
            kind = i % 6
            x = _fold_coordinate(rng, -3.0, 3.0)
            ax = x if oracles.fval(x) > 0 else (-x[0], -x[1])
            y = _fold_coordinate(rng, 0.5, 3.0)
            if kind == 0:
                v, w = ("fold", x), ("fold", (-x[0], -x[1]))
            elif kind == 1 and oracles.fval(ax) > 0.5 + 1e-6:
                v, w = ("fold", x), ("away", ax)
            elif kind == 2:
                v, w = ("away", y), ("fold", (-y[0], -y[1]))
            elif kind == 3:
                v, w = ("fold", x), ("fold", _fold_coordinate(rng, -3.0, 3.0))
            elif kind == 4:
                v, w = ("away", y), ("away", _fold_coordinate(rng, 0.5, 3.0))
            else:
                v, w = ("fold", x), ("away", y)
            yield Op("fold-decision",
                     lambda v=v, w=w: dict(
                         point_query(self.fold, _point(*v), _point(*w),
                                     POINT_BOUND),
                         v=v, w=w,
                         truth=oracles.fold_truth(v[1], w[1])), check)
        for name, bi in self.biatlases.items():
            scale = BIATLASES[name][1]
            for _ in range(LIFTS):
                r = oracles.pair(_random_exact(rng, 12, (1, 2, 3, 4), 6, (1, 2, 3)))
                n, m = rng.randint(-3, 3), rng.randint(-3, 3)
                rp = (scale * (r[0] + n), scale * (r[1] + m))
                yield Op("lift",
                         lambda bi=bi, r=r, rp=rp, scale=scale: {
                             "lift": lifting.lift_diffeo(
                                 bi, (exact.QAlpha(*r),),
                                 (exact.QAlpha(*rp),), POINT_BOUND),
                             "r": r, "r_prime": rp, "scale": scale},
                         oracles.lift_problems)
        for gname, group in self.piece_groups.items():
            samples, values, planted, owner = stitched_map(rng, gname, group)
            yield Op("piece-detection",
                     lambda s=samples, v=values, g=group, p=planted, o=owner: {
                         "report": detect(s, v, g), "planted": p, "owner": o},
                     oracles.pieces_problems)
        yield Op("cli-assembly", lambda: assembly_report(ASSEMBLY_BOUND),
                 oracles.assembly_problems)


WORKLOADS = {
    "algebra-line": AlgebraLine,
    "algebra-circle": AlgebraCircle,
    "bimodule": Bimodule,
    "point-queries": PointQueries,
}
