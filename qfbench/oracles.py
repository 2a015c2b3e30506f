"""Correctness checks made apart from the program.

Every function here reads only the fields of the program's outputs (keys,
breakpoints, piece coefficients, Fourier modes, affine matrices and
translations) and recomputes what they must be with its own arithmetic:
Fraction arithmetic on the p and q parts of p + q·α, Horner evaluation with a
float α, and numpy matrix products.  None of them calls a method of the
program, so a fault in the program cannot hide itself by also breaking its
check.  Each check returns a list of problems; an empty list means the output
passed.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction

# The package's default witness is the golden conjugate (√5 − 1)/2.
ALPHA = (math.sqrt(5.0) - 1.0) / 2.0

AXIOM_TOL = 1e-9
ROUTE_TOL = 1e-12
POINTWISE_TOL = 1e-9
CIRCLE_POINTS = (0.1370, 0.4519, 0.7731)
_MAX_PROBLEMS = 5


def pair(x) -> tuple:
    """(p, q) of a p + q·α value, as Fractions."""
    return (Fraction(x.p), Fraction(x.q))


def fval(p: tuple) -> float:
    return float(p[0]) + float(p[1]) * ALPHA


def is_integral(p: tuple) -> bool:
    return p[0].denominator == 1 and p[1].denominator == 1


def parse_qalpha(text: str) -> tuple:
    """Read the report format "p", "α*q" or "p+α*q" into (p, q)."""
    if "α*" not in text:
        return (Fraction(text), Fraction(0))
    head, _, tail = text.partition("α*")
    head = head[:-1] if head.endswith("+") else head
    return (Fraction(head) if head else Fraction(0), Fraction(tail))


# ---------------------------------------------------------------------------
# algebra elements
# ---------------------------------------------------------------------------

def key_of(x, circle: bool) -> tuple:
    """Own canonical key: exact (p, q), with p reduced mod 1 on the circle."""
    p, q = pair(x) if not isinstance(x, tuple) else x
    return (p - math.floor(p), q) if circle else (p, q)


def table(element, circle: bool) -> dict:
    return {key_of(k, circle): c for k, c in element.support}


def coeff_eval(coeff, x: float, circle: bool):
    """Value of one coefficient at x; None when x sits on a breakpoint."""
    if coeff is None:
        return 0j
    if circle:
        tau = 2.0 * math.pi * x
        return sum((c * cmath.exp(1j * tau * k) for k, c in coeff.modes), 0j)
    bps = [fval(pair(b)) for b in coeff.breakpoints]
    if not bps:
        return 0j
    if any(abs(x - b) < 1e-9 for b in bps):
        return None
    if x < bps[0] or x > bps[-1]:
        return 0j
    for i, piece in enumerate(coeff.pieces):
        if x < bps[i + 1]:
            u = x - bps[i]
            acc = 0j
            for c in reversed(piece):
                acc = acc * u + c
            return acc
    return 0j


def sample_points(coeffs, circle: bool) -> list:
    """Points that probe every piece: piece midpoints on the line, a fixed
    set of angles on the circle."""
    if circle:
        return list(CIRCLE_POINTS)
    pts = []
    for coeff in coeffs:
        if coeff is None:
            continue
        bps = [fval(pair(b)) for b in coeff.breakpoints]
        pts.extend((a + b) / 2.0 for a, b in zip(bps, bps[1:]))
    return pts


def _close(a: complex, b: complex, scale: float, tol: float) -> bool:
    return abs(a - b) <= tol * max(1.0, scale)


def convolution_problems(f, g, prod, circle: bool,
                         tol: float = POINTWISE_TOL) -> list:
    """prod must equal f·g: (f·g)_r(x) = Σ_{a+s=r} f_a(x + s)·g_s(x)."""
    F, G, P = table(f, circle), table(g, circle), table(prod, circle)
    terms = {}
    for a, ca in F.items():
        for s, cs in G.items():
            r = key_of((a[0] + s[0], a[1] + s[1]), circle)
            terms.setdefault(r, []).append((ca, fval(s), cs))
    problems = [f"product key {r} is no sum of factor keys"
                for r in P if r not in terms]
    for r, contributions in terms.items():
        pts = sample_points([P.get(r)] + [cs for _, _, cs in contributions],
                            circle)
        for x in pts:
            total, scale, skip = 0j, 0.0, False
            for ca, s, cs in contributions:
                fv, gv = coeff_eval(ca, x + s, circle), coeff_eval(cs, x, circle)
                if fv is None or gv is None:
                    skip = True
                    break
                total += fv * gv
                scale += abs(fv * gv)
            pv = coeff_eval(P.get(r), x, circle)
            if skip or pv is None:
                continue
            if not _close(pv, total, scale, tol):
                problems.append(f"key {r} at x={x:.6f}: product {pv:.12g} "
                                f"vs pointwise sum {total:.12g}")
                break
        if len(problems) >= _MAX_PROBLEMS:
            break
    return problems


def involution_problems(f, inv, circle: bool,
                        tol: float = POINTWISE_TOL) -> list:
    """inv must equal f*: (f*)_{−r}(x) = conj(f_r(x − r))."""
    F, I = table(f, circle), table(inv, circle)
    want = {key_of((-r[0], -r[1]), circle): (r, c) for r, c in F.items()}
    problems = [f"involution key {k} has no source key"
                for k in I if k not in want]
    for k, (r, c) in want.items():
        for x in sample_points([I.get(k), c], circle):
            ev = coeff_eval(c, x - fval(r), circle)
            iv = coeff_eval(I.get(k), x, circle)
            if ev is None or iv is None:
                continue
            if not _close(iv, ev.conjugate(), abs(ev), tol):
                problems.append(f"involution key {k} at x={x:.6f}: "
                                f"{iv:.12g} vs {ev.conjugate():.12g}")
                break
    return problems


def pointwise_problems(a, b, circle: bool, tol: float = 1e-8,
                       label: str = "") -> list:
    """Two elements that must be equal agree at points probing every piece."""
    A, B = table(a, circle), table(b, circle)
    for k in A.keys() | B.keys():
        for x in sample_points([A.get(k), B.get(k)], circle):
            av, bv = coeff_eval(A.get(k), x, circle), coeff_eval(B.get(k), x, circle)
            if av is None or bv is None:
                continue
            if not _close(av, bv, abs(av) + abs(bv), tol):
                return [f"{label} key {k} at x={x:.6f}: {av:.12g} vs {bv:.12g}"]
    return []


def axiom_problems(result: dict, circle: bool) -> list:
    """One axiom triple: the program's verdicts, then the same identities and
    the product re-derived pointwise by the benchmark."""
    problems = []
    for name, d in result["distances"].items():
        if not d <= AXIOM_TOL:
            problems.append(f"{name}: distance {d:.3e} > {AXIOM_TOL}")
    if not result["route_distance"] <= ROUTE_TOL:
        problems.append(f"routes differ by {result['route_distance']:.3e}")
    if set(table(result["general"], circle)) != set(table(result["fg"], circle)):
        problems.append("the two convolution routes have different supports")
    problems += convolution_problems(result["f"], result["g"], result["fg"], circle)
    problems += involution_problems(result["f"], result["inv_f"], circle)
    problems += pointwise_problems(result["general"], result["fg"], circle,
                                   label="route")
    for name, (lhs, rhs) in result["pairs"].items():
        problems += pointwise_problems(lhs, rhs, circle, label=name)
    return problems


def matrix_problems(result: dict, tol: float = 1e-9) -> list:
    """M(f·g) = M(g)·M(f), with the product taken by numpy, and every entry
    M[j][l] = h_{(l−j)/p}(z + j/p) re-evaluated from h's modes."""
    import numpy as np

    p, z = result["p"], result["z"]
    mf, mg, mh = (np.array(result[k].rows, dtype=complex)
                  for k in ("Mf", "Mg", "Mh"))
    problems = []
    if mh.shape != (p, p):
        return [f"representation has shape {mh.shape}, expected {(p, p)}"]
    expect = mg @ mf
    scale = max(1.0, float(np.abs(expect).max()))
    if float(np.abs(mh - expect).max()) > tol * scale:
        problems.append("M(f·g) differs from the numpy product M(g)·M(f)")
    if not result["defect"] <= tol * scale:
        problems.append(f"program reports defect {result['defect']:.3e}")
    H = table(result["h"], True)
    for j in range(p):
        for l in range(p):
            want = coeff_eval(H.get(key_of((Fraction(l - j, p), Fraction(0)),
                                           True)), z + j / p, True)
            if not _close(complex(mh[j][l]), want, abs(want), tol):
                problems.append(f"entry ({j},{l}) is not h at z + j/p")
                return problems
    return problems


# ---------------------------------------------------------------------------
# bimodules
# ---------------------------------------------------------------------------

def germ_key(z) -> tuple:
    """(src chart, src (p, q), linear part, translation (p, q), dst chart)."""
    return (z.src.chart, pair(z.src.coords[0]), Fraction(z.map.a[0][0]),
            pair(z.map.b[0]), z.dst_chart)


def expected_germs(scale: Fraction, left_chart: str, right_chart: str,
                   word_length: int) -> set:
    """Closed form of the germs generated from the seed x ↦ scale·x at 0 with
    left group Z + αZ and right group scale·(Z + αZ): one germ per
    (n, m, n', m') in the box, src n + mα and map x ↦ scale·(x − n − mα
    + n' + m'α)."""
    box = range(-word_length, word_length + 1)
    out = set()
    for n in box:
        for m in box:
            for n2 in box:
                for m2 in box:
                    out.add((left_chart, (Fraction(n), Fraction(m)), scale,
                             (scale * (n2 - n), scale * (m2 - m)), right_chart))
    return out


def germ_set_problems(germs, scale: Fraction, left_chart: str,
                      right_chart: str, word_length: int) -> list:
    want = (2 * word_length + 1) ** 4
    keys = [germ_key(z) for z in germs]
    problems = []
    if len(keys) != want:
        problems.append(f"{len(keys)} germs at word length {word_length}, "
                        f"expected {want}")
    if len(set(keys)) != len(keys):
        problems.append("duplicate germs")
    if set(keys) != expected_germs(scale, left_chart, right_chart, word_length):
        problems.append("germ set differs from the closed form")
    return problems


def trg_of(z) -> tuple:
    """Own evaluation of a germ's target: a·src + b on p and q parts."""
    a = Fraction(z.map.a[0][0])
    s, b = pair(z.src.coords[0]), pair(z.map.b[0])
    return (z.dst_chart, (a * s[0] + b[0], a * s[1] + b[1]))


def translation_of(m) -> tuple:
    """(p, q) of a 1-D affine map that must be a translation, else None."""
    if Fraction(m.a[0][0]) != 1:
        return None
    return pair(m.b[0])


def left_witness(z, zp) -> tuple:
    """The translation carrying zp's source to z's source when both germs
    share a class: (b_zp − b_z)/a."""
    a = Fraction(z.map.a[0][0])
    bz, bzp = pair(z.map.b[0]), pair(zp.map.b[0])
    return ((bzp[0] - bz[0]) / a, (bzp[1] - bz[1]) / a)


def right_witness(z, zp) -> tuple:
    """The translation carrying z's target to zp's target when both germs
    share a source: b_zp − b_z."""
    bz, bzp = pair(z.map.b[0]), pair(zp.map.b[0])
    return (bzp[0] - bz[0], bzp[1] - bz[1])


def witness_pair_problems(result: dict) -> list:
    """A witness pair: the program's witness translation equals the one
    recomputed here, lies in the structure group (both parts integral after
    dividing by the group's scale), and the actions reproduce the partner
    germs and compose to a unit."""
    z, zp, side = result["z"], result["zp"], result["side"]
    want = left_witness(z, zp) if side == "left" else right_witness(z, zp)
    got = translation_of(result["witness"].map)
    problems = []
    if result["status"] != "true":
        problems.append(f"{side} witness membership verdict {result['status']}")
    if got != want:
        problems.append(f"{side} witness {got} differs from {want}")
    scale = result["group_scale"]
    if not is_integral((want[0] / scale, want[1] / scale)):
        problems.append(f"{side} witness {want} escapes the structure group")
    if germ_key(result["moved"]) != germ_key(zp):
        problems.append(f"{side} action does not reproduce the partner germ")
    if germ_key(result["moved_back"]) != germ_key(z):
        problems.append(f"inverse {side} action does not reproduce the germ")
    if not result["unit"]:
        problems.append("witness and its inverse do not compose to a unit")
    return problems


def quotient_problems(result: dict) -> list:
    z, zp, side = result["z"], result["zp"], result["side"]
    same = (trg_of(z) == trg_of(zp)) if side == "left" else (
        germ_key(z)[:2] == germ_key(zp)[:2])
    if not same:
        want = "classes-differ" if side == "left" else "sources-differ"
        if result["certificate"] != want or result["arrow"] is not None:
            return [f"{side} quotient witness across classes said "
                    f"{result['certificate']}"]
        return []
    if result["certificate"] != "constructed":
        return [f"{side} quotient witness said {result['certificate']}"]
    want = left_witness(z, zp) if side == "left" else right_witness(z, zp)
    if translation_of(result["arrow"].map) != want:
        return [f"{side} quotient witness is not the translation {want}"]
    if germ_key(result["moved"]) != germ_key(zp):
        return [f"{side} quotient witness does not carry the germ"]
    return []


def probe_problems(result: dict) -> list:
    z, target, kind = result["germ"], result["target"], result["kind"]
    if z is None:
        return [f"{kind} probe found no germ for {target}"]
    if Fraction(z.map.a[0][0]) != result["scale"]:
        return [f"{kind} probe germ has linear part {z.map.a[0][0]}"]
    got = trg_of(z) if kind == "class" else (z.src.chart, pair(z.src.coords[0]))
    if got != target:
        return [f"{kind} probe germ lands on {got}, expected {target}"]
    return []


# ---------------------------------------------------------------------------
# point queries
# ---------------------------------------------------------------------------

def apply_1d(g, x: tuple) -> tuple:
    a = Fraction(g.map.a[0][0])
    b = pair(g.map.b[0])
    return (a * x[0] + b[0], a * x[1] + b[1])


def point_problems(result: dict) -> list:
    """A point decision: the verdict equals the closed-form truth, never
    UNKNOWN, and every arrow returned maps v onto w exactly."""
    v, w, truth = result["v"], result["w"], result["truth"]
    verdict, arrows = result["verdict"], result["arrows"]
    problems = []
    want = "true" if truth else "false"
    if verdict != want:
        problems.append(f"{v}~{w}: verdict {verdict}, closed form says {want}")
    if bool(arrows) != truth:
        problems.append(f"{v}~{w}: {len(arrows)} arrows, closed form says {want}")
    for g in arrows:
        if (g.src.chart, pair(g.src.coords[0])) != v or g.dst_chart != w[0] \
                or apply_1d(g, v[1]) != w[1]:
            problems.append(f"{v}~{w}: arrow {g} does not connect them")
            break
    if result.get("offset") is not None and truth and not any(
            translation_of(g.map) == result["offset"] for g in arrows):
        problems.append(f"{v}~{w}: translation {result['offset']} missing")
    return problems


def torus_truth(x: tuple, y: tuple) -> bool:
    """x ~ y on T_α iff both parts of y − x are integers."""
    return is_integral((y[0] - x[0], y[1] - x[1]))


def fold_truth(x: tuple, y: tuple) -> bool:
    """x ~ y on R/{±1} iff |x| = |y|, i.e. y = ±x (α is irrational)."""
    return y == x or y == (-x[0], -x[1])


def lift_problems(result: dict) -> list:
    lift, r, rp = result["lift"], result["r"], result["r_prime"]
    a = Fraction(lift.a[0][0])
    b = pair(lift.b[0])
    problems = []
    if (a * r[0] + b[0], a * r[1] + b[1]) != rp:
        problems.append(f"lift misses its endpoint {rp}")
    if a != result["scale"]:
        problems.append(f"lift linear part {a}, seed has {result['scale']}")
    return problems


def pieces_problems(result: dict) -> list:
    rep = result["report"]
    problems = []
    if rep.coverage != 1.0 or rep.unmatched:
        problems.append(f"coverage {rep.coverage}, unmatched {rep.unmatched}")
    found = [translation_of(g) for g, _ in rep.pieces]
    if None in found:
        problems.append("a detected piece is not a translation")
    if sorted(found, key=str) != sorted(result["planted"], key=str):
        problems.append(f"recovered {found}, planted {result['planted']}")
    for g, idx in rep.pieces:
        t = translation_of(g)
        if t is not None and any(result["owner"][i] != t for i in idx):
            problems.append(f"piece {t} claims samples of another piece")
            break
    return problems


def assembly_problems(result: dict) -> list:
    """The `groupoid` report must equal the brute-force assembly of T_α at
    bound B: objects {n + mα : |n|, |m| ≤ B}, and an arrow from every object
    by every translation in the same box."""
    rc, report, bound = result["rc"], result["report"], result["bound"]
    if rc != 0:
        return [f"groupoid command exited {rc}"]
    box = [(Fraction(n), Fraction(m)) for n in range(-bound, bound + 1)
           for m in range(-bound, bound + 1)]
    blocks = report["assembly"]["blocks"]
    if len(blocks) != 1 or blocks[0]["chart"] != "main":
        return ["assembly must have the single chart block 'main'"]
    objects = [parse_qalpha(o[0]) for o in blocks[0]["objects"]]
    problems = []
    if sorted(objects) != sorted(box):
        problems.append("assembly objects differ from the brute-force box")
    arrows = set()
    for a in blocks[0]["arrows"]:
        if a["map"]["A"] != [["1"]] or a["dst_chart"] != "main":
            problems.append("assembly arrow is not a translation of 'main'")
            break
        arrows.add((parse_qalpha(a["src"]["coords"][0]),
                    parse_qalpha(a["map"]["b"][0])))
    if arrows != {(o, t) for o in box for t in box} \
            or len(blocks[0]["arrows"]) != len(box) ** 2:
        problems.append("assembly arrows differ from the brute-force set")
    iso = report["assembly"]["isotropy"]
    if iso["order"] != 1:
        problems.append(f"isotropy order {iso['order']}, expected 1")
    fiber = [c for c in report["checks"] if c["name"] == "fiber"]
    if not fiber or fiber[0]["detail"]["size"] != len(box):
        problems.append("fiber size differs from the box")
    return problems
