"""Acceptance gate: one test per release criterion, each at its stated
tolerance, each printing a single PASS/FAIL verdict line.

Every criterion accumulates problems into a list instead of asserting
mid-flight, so exactly one verdict line is emitted per criterion even when
something breaks; the assertion message then carries the details.
"""

import cmath
import json
import math
import random
import time
import traceback
from collections import defaultdict
from fractions import Fraction

import pytest

from quasifolds import (AffineElement, AlgebraElement, CircleModel, LineModel,
                        QAlpha, REPRESENTATION_PRODUCT_ORDER, Trit,
                        convolve_closed_form, convolve_general, default_witness,
                        involute, matrix_representation, qa, rotation_relation,
                        set_default_witness)
from quasifolds.atlas import (StructureGroupoid, circle_arrow_compose,
                              phi_arrow, phi_object)
from quasifolds.bimodule import (class_map, generate_germs, left_act,
                                 quotient_witness, quotient_witness_right,
                                 right_act, source_probe, surjectivity_probe)
from quasifolds.catalog import (duplicated_biatlas, reflection_orbifold_atlas,
                                t_alpha_atlas, two_scale_biatlas,
                                z_alpha_lattice)
from quasifolds.cli import main as cli_main
from quasifolds.coefficients import TrigPoly
from quasifolds.groupoid import Arrow, NebulaPoint, arrow_compose, arrow_invert
from quasifolds.groups import RationalTranslations, membership_status
from quasifolds.lifting import (SampledMap, detect_pieces, lift_diffeo,
                                nonliftable_demo, reconstruct_affine)
from quasifolds.algebra import random_circle_element, random_line_element


# ---------------------------------------------------------------------------
# verdict plumbing
# ---------------------------------------------------------------------------

def _run(capsys, number: int, slug: str, body):
    """Run one criterion body, print its verdict line, then assert."""
    bad = []
    note = ""
    try:
        note = body(bad) or ""
    except Exception:
        bad.append(traceback.format_exc())
    ok = not bad
    line = f"ACCEPTANCE criterion-{number:02d} {slug}: {'PASS' if ok else 'FAIL'}"
    if note:
        line += f"  [{note}]"
    with capsys.disabled():
        print(line)
    assert ok, line + "\n" + "\n".join(str(b) for b in bad[:20])


def _pt(x: QAlpha) -> NebulaPoint:
    return NebulaPoint("main", (x,))


def _t(g: QAlpha) -> AffineElement:
    return AffineElement.translation((g,))


def _random_exact(rng, num_span=40, dens=(1, 2, 3, 4, 6, 12),
                  alpha_span=9, alpha_dens=(1, 2, 3, 4)) -> QAlpha:
    return qa(Fraction(rng.randint(-num_span, num_span), rng.choice(dens)),
              Fraction(rng.randint(-alpha_span, alpha_span),
                       rng.choice(alpha_dens)))


IDENTITY_1D = AffineElement.identity(1)


# ---------------------------------------------------------------------------
# shared random corpus for the convolution criteria
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def corpora():
    """200 random elements per algebra, support <= 5 keys, degree <= 8."""
    out = {}
    specs = (
        ("line", LineModel(z_alpha_lattice()), "line", 31),
        ("circle-full", CircleModel("full"), "circle", 32),
        ("circle-rational", CircleModel("rational"), "circle", 33),
        ("circle-alpha", CircleModel("alpha"), "circle", 34),
    )
    for name, model, kind, seed in specs:
        rng = random.Random(seed)
        if kind == "line":
            els = [random_line_element(rng, model, n_keys=5, degree=8)
                   for _ in range(200)]
        else:
            els = [random_circle_element(rng, model, n_keys=5, n_modes=8)
                   for _ in range(200)]
        out[name] = els
    return out


# ---------------------------------------------------------------------------
# 1. groupoid composition law on random exact translation arrows
# ---------------------------------------------------------------------------

def test_criterion_01_composition_law(capsys):
    def body(bad):
        rng = random.Random(101)
        data = []
        for _ in range(1000):
            x = _random_exact(rng)
            data.append((x, rng.randint(-9, 9), rng.randint(-9, 9),
                         rng.randint(-9, 9), rng.randint(-9, 9)))
        t0 = time.perf_counter()
        for x, n, m, n2, m2 in data:
            g1, g2 = qa(n, m), qa(n2, m2)
            a = Arrow(_pt(x), _t(g1), "main")
            b = Arrow(_pt(x + g1), _t(g2), "main")
            got = arrow_compose(a, b)
            want = Arrow(_pt(x), _t(qa(n + n2, m + m2)), "main")
            if got != want:
                bad.append(f"compose mismatch at x={x}: {got} != {want}")
                break
            if got.trg != _pt(x + g1 + g2):
                bad.append(f"target mismatch at x={x}")
                break
        elapsed = time.perf_counter() - t0
        if elapsed >= 1.0:
            bad.append(f"runtime {elapsed:.3f}s exceeds 1s")
        return f"1000 exact instances in {elapsed:.3f}s"

    _run(capsys, 1, "groupoid-composition-law", body)


# ---------------------------------------------------------------------------
# 2. CLI assembly enumeration vs independent brute force
# ---------------------------------------------------------------------------

def test_criterion_02_assembly_enumeration(capsys):
    def body(bad):
        sizes = []
        for bound in (1, 2):
            code = cli_main(["groupoid", "--atlas", "t-alpha",
                             "--bound", str(bound), "--point", "main:0"])
            out = capsys.readouterr().out
            if code != 0:
                bad.append(f"exit code {code} at bound {bound}")
                continue
            report = json.loads(out)
            blocks = report["assembly"]["blocks"]
            if [b["chart"] for b in blocks] != ["main"]:
                bad.append(f"unexpected charts {[b['chart'] for b in blocks]}")
                continue
            objects = {QAlpha.parse(o[0]) for o in blocks[0]["objects"]}
            arrows = set()
            for aj in blocks[0]["arrows"]:
                arr = Arrow.from_json(aj)
                if arr.map.a != IDENTITY_1D.a:
                    bad.append(f"non-translation arrow {arr} at bound {bound}")
                arrows.add((arr.src.coords[0], arr.map.b[0]))
            rng_idx = range(-bound, bound + 1)
            want_objects = {qa(n, m) for n in rng_idx for m in rng_idx}
            want_arrows = {(qa(n, m), qa(n2, m2))
                           for n in rng_idx for m in rng_idx
                           for n2 in rng_idx for m2 in rng_idx}
            if objects != want_objects:
                bad.append(f"object set differs at bound {bound}: "
                           f"{len(objects)} vs {len(want_objects)}")
            if arrows != want_arrows:
                bad.append(f"arrow set differs at bound {bound}: "
                           f"{len(arrows)} vs {len(want_arrows)}")
            sizes.append(f"B={bound}: {len(objects)} objects, "
                         f"{len(arrows)} arrows")
        return "; ".join(sizes)

    _run(capsys, 2, "assembly-enumeration", body)


# ---------------------------------------------------------------------------
# 3. the two convolution routes agree key-for-key
# ---------------------------------------------------------------------------

def test_criterion_03_convolution_routes(capsys, corpora):
    def body(bad):
        worst = 0.0
        pairs = 0
        for name, els in corpora.items():
            for i in range(len(els) - 1):
                f, g = els[i], els[i + 1]
                a = convolve_general(f, g)
                b = convolve_closed_form(f, g)
                if a.keys() != b.keys():
                    bad.append(f"{name} pair {i}: support sets differ")
                    break
                d = a.distance(b)
                worst = max(worst, d)
                if d > 1e-12:
                    bad.append(f"{name} pair {i}: route distance {d:.3e}")
                    break
                pairs += 1
        return f"{pairs} pairs over 4 algebras, worst {worst:.2e}"

    _run(capsys, 3, "convolution-route-agreement", body)


# ---------------------------------------------------------------------------
# 4. *-algebra axioms on the same corpus
# ---------------------------------------------------------------------------

def test_criterion_04_star_algebra_axioms(capsys, corpora):
    def body(bad):
        tol = 1e-9
        worst = 0.0
        t0 = time.perf_counter()
        for name, els in corpora.items():
            for i in range(len(els) - 2):
                f, g, h = els[i], els[i + 1], els[i + 2]
                fg = convolve_closed_form(f, g)
                gh = convolve_closed_form(g, h)
                checks = {
                    "associativity": convolve_closed_form(fg, h).distance(
                        convolve_closed_form(f, gh)),
                    "star-antihomomorphism": involute(fg).distance(
                        convolve_closed_form(involute(g), involute(f))),
                    "involutivity": involute(involute(f)).distance(f),
                }
                c = 2 - 1j
                if i % 2 == 0:
                    lhs = convolve_closed_form(f + g.scale(c), h)
                    rhs = convolve_closed_form(f, h) + gh.scale(c)
                    checks["left-bilinearity"] = lhs.distance(rhs)
                else:
                    lhs = convolve_closed_form(f, g + h.scale(c))
                    rhs = fg + convolve_closed_form(f, h).scale(c)
                    checks["right-bilinearity"] = lhs.distance(rhs)
                for axiom, d in checks.items():
                    worst = max(worst, d)
                    if d > tol:
                        bad.append(f"{name} triple {i}: {axiom} off by {d:.3e}")
                if bad:
                    break
        elapsed = time.perf_counter() - t0
        if elapsed >= 30.0:
            bad.append(f"runtime {elapsed:.1f}s exceeds 30s")
        return f"worst deviation {worst:.2e}, {elapsed:.1f}s"

    _run(capsys, 4, "star-algebra-axioms", body)


# ---------------------------------------------------------------------------
# 5. rotation relation and its phase under alpha -> -alpha
# ---------------------------------------------------------------------------

def test_criterion_05_rotation_relation(capsys):
    def body(bad):
        rel = rotation_relation()
        if rel["lambda_error"] >= 1e-12:
            bad.append(f"lambda error {rel['lambda_error']:.3e}")
        if rel["relation_residual"] >= 1e-12:
            bad.append(f"relation residual {rel['relation_residual']:.3e}")
        w = default_witness()
        alpha = w.to_float(qa(0, 1))
        set_default_witness(w.negated())
        neg = rotation_relation()
        flipped = abs(neg["lambda"] - cmath.exp(2j * math.pi * alpha))
        if flipped >= 1e-12:
            bad.append(f"negated-witness phase off by {flipped:.3e}")
        return (f"|lambda - exp(-2*pi*i*alpha)| = {rel['lambda_error']:.2e}, "
                f"negated {flipped:.2e}")

    _run(capsys, 5, "rotation-relation", body)


# ---------------------------------------------------------------------------
# 6. matrix representation is a homomorphism in the locked order
# ---------------------------------------------------------------------------

def _up_element(rng, model, p, n_keys=3, n_modes=4):
    entries = []
    for _ in range(n_keys):
        key = qa(Fraction(rng.randrange(p), p), 0)
        modes = tuple((k, complex(rng.uniform(-1, 1), rng.uniform(-1, 1)))
                      for k in range(-n_modes, n_modes + 1))
        entries.append((key, TrigPoly(modes)))
    return AlgebraElement(model, tuple(entries))


def _inf_norm_diff(A, B):
    return max(sum(abs(x - y) for x, y in zip(ra, rb))
               for ra, rb in zip(A.rows, B.rows))


def test_criterion_06_matrix_representation(capsys):
    def body(bad):
        if REPRESENTATION_PRODUCT_ORDER != "reversed":
            bad.append(f"product-order constant changed: "
                       f"{REPRESENTATION_PRODUCT_ORDER!r}")
            return ""
        # M(f.g) = M(g).M(f), so the homomorphism order is f*g := g.f
        star = lambda f, g: convolve_closed_form(g, f)
        model = CircleModel("rational")
        rng = random.Random(606)
        worst = {p: 0.0 for p in (1, 2, 3, 4, 6)}
        for p in (1, 2, 3, 4, 6):
            tol = 1e-12 if p == 1 else 1e-9
            for pair in range(50):
                f = _up_element(rng, model, p)
                g = _up_element(rng, model, p)
                h = star(f, g)
                for _ in range(20):
                    z = rng.uniform(0.0, 1.0)
                    Mf = matrix_representation(f, p, z)
                    Mg = matrix_representation(g, p, z)
                    Mh = matrix_representation(h, p, z)
                    d = _inf_norm_diff(Mh, Mf @ Mg)
                    worst[p] = max(worst[p], d)
                    if d > tol:
                        bad.append(f"p={p} pair {pair}: defect {d:.3e} at z={z}")
                        break
                    if p == 1:
                        # the 1x1 representation is literally pointwise
                        # evaluation and scalar multiplication
                        for el in (f, g, h):
                            if (matrix_representation(el, 1, z).rows[0][0]
                                    != el.coeff(qa(0)).eval(z + 0 / 1)):
                                bad.append("p=1 entry is not the plain "
                                           "coefficient evaluation")
                        if (Mf @ Mg).rows[0][0] != Mf.rows[0][0] * Mg.rows[0][0]:
                            bad.append("1x1 product is not the scalar product")
                if bad:
                    break
            if bad:
                break
        summary = ", ".join(f"p={p}: {worst[p]:.1e}" for p in (1, 2, 3, 4, 6))
        return f"50 pairs x 20 z each; worst defect {summary}"

    _run(capsys, 6, "matrix-representation", body)


# ---------------------------------------------------------------------------
# 7. arrows_between nonempty iff the evaluation maps agree
# ---------------------------------------------------------------------------

def test_criterion_07_arrows_iff_same_point(capsys):
    def body(bad):
        bound = 3
        instances = 0

        def check(groupoid, v, w, expect_connected, label):
            nonlocal instances
            instances += 1
            arrows = groupoid.arrows_between(v, w, bound)
            status = groupoid.same_point(v, w, bound)
            if (len(arrows) > 0) != (status is Trit.TRUE):
                bad.append(f"{label}: arrows={len(arrows)} but status={status}")
            if expect_connected and not arrows:
                bad.append(f"{label}: false negative (no arrow found)")
            if not expect_connected and (arrows or status is not Trit.FALSE):
                bad.append(f"{label}: false positive (arrows={len(arrows)}, "
                           f"status={status})")

        torus = StructureGroupoid(t_alpha_atlas())
        rng = random.Random(707)
        for i in range(60):
            x = _random_exact(rng)
            gamma = qa(rng.randint(-bound, bound), rng.randint(-bound, bound))
            v, w = _pt(x), _pt(x + gamma)
            check(torus, v, w, True, f"torus +{gamma} (#{i})")
            arrows = torus.arrows_between(v, w, bound)
            if not any(a.map == _t(gamma) for a in arrows):
                bad.append(f"torus #{i}: expected translation {gamma} missing")
        escapes = (qa(Fraction(1, 2)), qa(Fraction(1, 3)), qa(Fraction(-2, 5)),
                   qa(0, Fraction(1, 2)), qa(Fraction(1, 7), Fraction(1, 3)))
        for i in range(40):
            x = _random_exact(rng)
            off = escapes[i % len(escapes)]
            check(torus, _pt(x), _pt(x + off), False, f"torus escape {off}")

        fold = StructureGroupoid(reflection_orbifold_atlas())
        for x in (Fraction(1, 4), Fraction(1, 2), 1, Fraction(3, 2), 2,
                  Fraction(5, 2)):
            v = NebulaPoint("fold", (qa(x),))
            w = NebulaPoint("fold", (qa(-x),))
            check(fold, v, w, True, f"reflection x={x}")
        for x in (1, 2):
            check(fold, NebulaPoint("fold", (qa(x),)),
                  NebulaPoint("away", (qa(x),)), True, f"cross-chart x={x}")
            check(fold, NebulaPoint("away", (qa(x),)),
                  NebulaPoint("fold", (qa(-x),)), True, f"away-to-fold x={x}")
        for v, w in ((NebulaPoint("fold", (qa(1),)),
                      NebulaPoint("fold", (qa(2),))),
                     (NebulaPoint("fold", (qa(Fraction(1, 2)),)),
                      NebulaPoint("fold", (qa(Fraction(3, 4)),))),
                     (NebulaPoint("fold", (qa(2),)),
                      NebulaPoint("away", (qa(Fraction(3, 2)),))),
                     (NebulaPoint("away", (qa(1),)),
                      NebulaPoint("away", (qa(2),)))):
            check(fold, v, w, False, f"reflection {v} vs {w}")
        return f"{instances} instances, zero false positives/negatives"

    _run(capsys, 7, "arrows-iff-same-point", body)


# ---------------------------------------------------------------------------
# 8. bimodule actions: freeness, commutation, both class-map bijections
# ---------------------------------------------------------------------------

def _right_objects(name, bound):
    if name == "duplicated":
        return [NebulaPoint("main", (qa(n, m),))
                for n in range(-bound, bound + 1)
                for m in range(-bound, bound + 1)]
    return [NebulaPoint("half", (qa(Fraction(n, 2), Fraction(m, 2)),))
            for n in range(-bound, bound + 1)
            for m in range(-bound, bound + 1)]


def test_criterion_08_bimodule_actions(capsys):
    def body(bad):
        t0 = time.perf_counter()
        counts = []
        for name, bi in (("duplicated", duplicated_biatlas()),
                         ("two-scale", two_scale_biatlas())):
            lg, rg = bi.left_groupoid(), bi.right_groupoid()
            seed = bi.seeds[0]
            left_group = bi.left.chart(seed.src.chart).group
            right_group = bi.right.chart(seed.dst_chart).group

            # exhaustive word-length-1 layer: units, freeness, associativity,
            # commutation of the two actions
            germs1 = generate_germs(bi, 1)
            if len(germs1) != 81:
                bad.append(f"{name}: expected 81 germs at length 1, "
                           f"got {len(germs1)}")
            pair_checks = 0
            for z in germs1:
                if left_act(Arrow.unit(z.src), z) != z:
                    bad.append(f"{name}: left unit law fails at {z}")
                if right_act(z, Arrow.unit(z.trg)) != z:
                    bad.append(f"{name}: right unit law fails at {z}")
                lefts = lg.fiber_over(z.src, 1)
                rights = rg.arrows_from(z.trg, 1)
                for g in lefts:
                    gz = left_act(g, z)
                    if gz == z and not (g.map == IDENTITY_1D
                                        and g.src == z.src):
                        bad.append(f"{name}: left action not free at {z}")
                    for gp in rights:
                        if right_act(gz, gp) != left_act(g, right_act(z, gp)):
                            bad.append(f"{name}: actions do not commute "
                                       f"at {z}")
                        pair_checks += 1
                for h in lefts:
                    for g2 in lg.fiber_over(h.src, 1):
                        if (left_act(arrow_compose(g2, h), z)
                                != left_act(g2, left_act(h, z))):
                            bad.append(f"{name}: left associativity at {z}")
                for gp1 in rights:
                    for gp2 in rg.arrows_from(gp1.trg, 1):
                        if (right_act(right_act(z, gp1), gp2)
                                != right_act(z, arrow_compose(gp1, gp2))):
                            bad.append(f"{name}: right associativity at {z}")
                if bad:
                    return ""

            # word-length-3 layer: both class-map bijections, exhaustively
            germs3 = generate_germs(bi, 3, max_count=6000)
            if len(germs3) != 2401:
                bad.append(f"{name}: expected 2401 germs at length 3, "
                           f"got {len(germs3)}")
            by_class = defaultdict(list)
            by_src = defaultdict(list)
            for z in germs3:
                by_class[class_map(z)].append(z)
                by_src[z.src].append(z)

            # injectivity of Z/left-orbits -> right objects: same class
            # implies a certified left arrow carrying one germ to the other
            orbit_pairs = 0
            for cls, zs in by_class.items():
                invs = [z.map.invert() for z in zs]
                for i, z in enumerate(zs):
                    zinv = invs[i]
                    for j in range(i, len(zs)):
                        zp = zs[j]
                        cand = zinv.compose(zp.map)
                        if cand.a != IDENTITY_1D.a:
                            bad.append(f"{name}: witness not a translation "
                                       f"for class {cls}")
                            return ""
                        if left_group.contains_value(cand.b) is not Trit.TRUE:
                            bad.append(f"{name}: witness {cand.b} escapes the "
                                       f"left group (class {cls})")
                            return ""
                        g = Arrow(zp.src, cand, z.src.chart)
                        if left_act(g, z) != zp:
                            bad.append(f"{name}: left witness fails for "
                                       f"class {cls}")
                            return ""
                        back = Arrow(z.src, invs[j].compose(z.map),
                                     zp.src.chart)
                        if left_act(back, zp) != z:
                            bad.append(f"{name}: inverse left witness fails")
                            return ""
                        orbit_pairs += 1

            # the search API agrees on a deterministic subsample
            classes = sorted(by_class, key=lambda c: c.coords[0].sort_key())
            for idx, cls in enumerate(classes):
                zs = by_class[cls]
                g, cert = quotient_witness(bi, zs[0], zs[1], 6)
                if cert != "constructed" or left_act(g, zs[0]) != zs[1]:
                    bad.append(f"{name}: quotient_witness failed in-class "
                               f"({cert})")
                other = by_class[classes[(idx + 1) % len(classes)]][0]
                _, cert = quotient_witness(bi, zs[0], other, 2)
                if cert != "classes-differ":
                    bad.append(f"{name}: cross-class witness said {cert}")

            # surjectivity onto every right object within the bound
            for obj in _right_objects(name, 3):
                probe = surjectivity_probe(bi, obj, 3)
                if probe is None or class_map(probe) != obj:
                    bad.append(f"{name}: class map misses {obj}")

            # injectivity of Z/right-orbits -> left objects: same source
            # implies a certified right arrow
            src_pairs = 0
            for src, zs in by_src.items():
                invs = [z.map.invert() for z in zs]
                for i, z in enumerate(zs):
                    zinv = invs[i]
                    for j in range(i, len(zs)):
                        zp = zs[j]
                        cand = zp.map.compose(zinv)
                        if cand.a != IDENTITY_1D.a:
                            bad.append(f"{name}: right witness not a "
                                       f"translation at {src}")
                            return ""
                        if right_group.contains_value(cand.b) is not Trit.TRUE:
                            bad.append(f"{name}: right witness {cand.b} "
                                       f"escapes the right group")
                            return ""
                        gp = Arrow(z.trg, cand, zp.trg.chart)
                        if right_act(z, gp) != zp:
                            bad.append(f"{name}: right witness fails at {src}")
                            return ""
                        back = Arrow(zp.trg, z.map.compose(invs[j]),
                                     z.trg.chart)
                        if right_act(zp, back) != z:
                            bad.append(f"{name}: inverse right witness fails")
                            return ""
                        src_pairs += 1

            srcs = sorted(by_src, key=lambda s: s.coords[0].sort_key())
            for idx, src in enumerate(srcs):
                zs = by_src[src]
                gp, cert = quotient_witness_right(bi, zs[0], zs[1], 6)
                if cert != "constructed" or right_act(zs[0], gp) != zs[1]:
                    bad.append(f"{name}: quotient_witness_right failed "
                               f"({cert})")
                other = by_src[srcs[(idx + 1) % len(srcs)]][0]
                _, cert = quotient_witness_right(bi, zs[0], other, 2)
                if cert != "sources-differ":
                    bad.append(f"{name}: cross-source witness said {cert}")

            # surjectivity onto every left object within the bound
            for obj in [NebulaPoint(seed.src.chart, (qa(n, m),))
                        for n in range(-3, 4) for m in range(-3, 4)]:
                probe = source_probe(bi, obj, 3)
                if probe is None or probe.src != obj:
                    bad.append(f"{name}: source map misses {obj}")

            counts.append(f"{name}: {orbit_pairs}+{src_pairs} witness pairs, "
                          f"{pair_checks} commutation checks")
            if bad:
                return ""
        elapsed = time.perf_counter() - t0
        return "; ".join(counts) + f"; {elapsed:.1f}s"

    _run(capsys, 8, "bimodule-actions", body)


# ---------------------------------------------------------------------------
# 9. piece detection and affine reconstruction
# ---------------------------------------------------------------------------

def test_criterion_09_piece_detection(capsys):
    def body(bad):
        setups = (
            ("z-alpha", z_alpha_lattice(),
             [qa(0, 1), qa(1, 0), qa(2, -1), qa(3, -2)],
             qa(Fraction(1, 4))),
            ("rational", RationalTranslations(1),
             [qa(Fraction(1, 2)), qa(Fraction(-1, 2)), qa(Fraction(1, 3)),
              qa(Fraction(2, 3))],
             qa(0, 1)),
        )
        stitched = 0
        for gname, group, pool, control_offset in setups:
            for k in (2, 3, 4):
                gammas = pool[:k]
                cuts = [qa(2 * i - (k - 2)) for i in range(k - 1)]
                edges = [qa(-4)] + cuts + [qa(4)]
                samples, values = [], []
                for piece in range(k):
                    width = edges[piece + 1] - edges[piece]
                    for frac in (Fraction(1, 4), Fraction(3, 4)):
                        x = edges[piece] + width * frac
                        samples.append((x,))
                        values.append((x + gammas[piece],))
                F = SampledMap((qa(0),), 5.0, tuple(samples), tuple(values),
                               "exact")
                rep = detect_pieces(F, group, 3)
                if rep.coverage != 1.0 or rep.unmatched:
                    bad.append(f"{gname} k={k}: coverage {rep.coverage}")
                if rep.tol != 0.0 or rep.max_residual != 0.0:
                    bad.append(f"{gname} k={k}: inexact match reported")
                found = {g.b[0] for g, _ in rep.pieces}
                if found != set(gammas) or rep.piece_count != k:
                    bad.append(f"{gname} k={k}: recovered {found}")
                if any(g.a != IDENTITY_1D.a for g, _ in rep.pieces):
                    bad.append(f"{gname} k={k}: non-translation piece")
                stitched += 1
            # control: an affine map that no bounded group element matches
            xs = [qa(n, 0) for n in range(-3, 4)]
            Fc = SampledMap((qa(0),), 4.0, tuple((x,) for x in xs),
                            tuple((x + control_offset,) for x in xs), "exact")
            ctl = detect_pieces(Fc, group, 3)
            if ctl.coverage != 0.0 or ctl.pieces:
                bad.append(f"{gname} control: coverage {ctl.coverage}")

        rng = random.Random(909)
        worst_res = worst_d2 = worst_rec = 0.0
        for trial in range(10):
            n = 1 if trial < 5 else 2
            A = [[rng.uniform(-2, 2) for _ in range(n)] for _ in range(n)]
            b = [rng.uniform(-1, 1) for _ in range(n)]

            def func(s, A=A, b=b, n=n):
                return tuple(sum(A[i][j] * s[j] for j in range(n)) + b[i]
                             for i in range(n))

            F = SampledMap.from_function(func, (0.0,) * n, 1.0, 12,
                                         kind="numeric", seed=trial)
            fit = reconstruct_affine(F)
            worst_res = max(worst_res, fit.residual)
            worst_d2 = max(worst_d2, fit.second_derivative)
            rec = max(max(abs(fit.A[i][j] - A[i][j]) for j in range(n))
                      for i in range(n))
            rec = max(rec, max(abs(fit.b[i] - b[i]) for i in range(n)))
            worst_rec = max(worst_rec, rec)
            if fit.residual >= 1e-9:
                bad.append(f"trial {trial}: residual {fit.residual:.3e}")
            if fit.second_derivative >= 1e-6:
                bad.append(f"trial {trial}: D2 {fit.second_derivative:.3e}")
            if rec >= 1e-8:
                bad.append(f"trial {trial}: recovery error {rec:.3e}")
        return (f"{stitched} stitched maps exact; reconstruction worst "
                f"residual {worst_res:.1e}, D2 {worst_d2:.1e}, "
                f"coefficients {worst_rec:.1e}")

    _run(capsys, 9, "piece-detection", body)


# ---------------------------------------------------------------------------
# 10. prescribed lifts hit their endpoint and respect the evaluation maps
# ---------------------------------------------------------------------------

def test_criterion_10_prescribed_lifts(capsys):
    def body(bad):
        rng = random.Random(1010)
        lifts = 0
        ev_checks = 0
        for name, bi, offset in (
                ("duplicated", duplicated_biatlas(),
                 lambda n, m: qa(n, m)),
                ("two-scale", two_scale_biatlas(),
                 lambda n, m: qa(Fraction(n, 2), Fraction(m, 2)))):
            seed = bi.seeds[0]
            rg = bi.right_groupoid()
            chart = seed.dst_chart
            for pair in range(50):
                r = _random_exact(rng, num_span=12, dens=(1, 2, 3, 4),
                                  alpha_span=6, alpha_dens=(1, 2, 3))
                n, m = rng.randint(-3, 3), rng.randint(-3, 3)
                r_prime = seed.map.apply((r,))[0] + offset(n, m)
                lift = lift_diffeo(bi, (r,), (r_prime,), 3)
                lifts += 1
                if lift.apply((r,)) != (r_prime,):
                    bad.append(f"{name} pair {pair}: endpoint missed")
                    return ""
                # the lift must cover the identity of the quasifold: its
                # image and the seed image stay in one right-groupoid fiber
                points = 100 if pair == 0 else 2
                for _ in range(points):
                    x = _random_exact(rng, num_span=12, dens=(1, 2, 3, 4),
                                      alpha_span=6, alpha_dens=(1, 2, 3))
                    y = lift.apply((x,))[0]
                    y0 = seed.map.apply((x,))[0]
                    status = rg.same_point(NebulaPoint(chart, (y0,)),
                                           NebulaPoint(chart, (y,)), 3)
                    ev_checks += 1
                    if status is not Trit.TRUE:
                        bad.append(f"{name} pair {pair}: ev-compatibility "
                                   f"{status} at x={x}")
                        return ""
        return f"{lifts} lifts exact, {ev_checks} ev-compatibility checks"

    _run(capsys, 10, "prescribed-lifts", body)


# ---------------------------------------------------------------------------
# 11. the radial flip map obeys the parity rule on every annulus
# ---------------------------------------------------------------------------

def test_criterion_11_flip_parity(capsys):
    def body(bad):
        report = nonliftable_demo(n_max=6, samples_per_annulus=100, tol=1e-10)
        if not report["pass"]:
            bad.append("demo reports failure")
        if not report["outside_zero"]:
            bad.append("map does not vanish outside the disk")
        worst = 0.0
        for row in report["annuli"]:
            n = row["n"]
            want_h = "tau" if n % 2 else "1"
            if row["h"] != want_h:
                bad.append(f"annulus {n}: h={row['h']} (want {want_h})")
            if row["max_deviation"] > 1e-10:
                bad.append(f"annulus {n}: deviation {row['max_deviation']:.3e}")
            if row["max_magnitude"] <= 1e-8:
                bad.append(f"annulus {n}: vacuous (|f| <= 1e-8)")
            worst = max(worst, row["max_deviation"])
        return f"n=1..6, 100 samples each, worst deviation {worst:.2e}"

    _run(capsys, 11, "flip-parity", body)


# ---------------------------------------------------------------------------
# 12. the circle functor preserves composition exactly
# ---------------------------------------------------------------------------

def test_criterion_12_circle_functor(capsys):
    def body(bad):
        rng = random.Random(1212)
        for i in range(500):
            x = _random_exact(rng)
            g1 = qa(rng.randint(-6, 6), rng.randint(-6, 6))
            g2 = qa(rng.randint(-6, 6), rng.randint(-6, 6))
            a = Arrow(_pt(x), _t(g1), "main")
            b = Arrow(_pt(x + g1), _t(g2), "main")
            lhs = phi_arrow(arrow_compose(a, b))
            rhs = circle_arrow_compose(phi_arrow(a), phi_arrow(b))
            if lhs != rhs:
                bad.append(f"pair {i}: {lhs} != {rhs}")
                return ""
            if lhs.src != phi_object(x):
                bad.append(f"pair {i}: source is not the projected point")
                return ""
            if lhs.trg != phi_object(x + g1 + g2):
                bad.append(f"pair {i}: target is not the projected point")
                return ""
        return "500 composable pairs, exact equality"

    _run(capsys, 12, "circle-functor", body)
