"""Affine lifting laboratory.

Tools for the three executable lifting statements: detect the locally-affine
decomposition of a map absorbed by the evaluation maps, reconstruct a single
global affine lift numerically, build prescribed-endpoint affine lifts of a
quotient diffeomorphism, and demonstrate the radial flip map that admits no
equivariant lift.
"""

from __future__ import annotations

import cmath
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Sequence

from .bimodule import BiAtlas
from .errors import (DegenerateSampleError, FibersIncompatibleError,
                     InconclusiveAtBoundError, QuasifoldError)
from .exact import (AffineElement, AlphaWitness, QAlpha, Trit, default_witness,
                    qa, vec_eq)
from .groupoid import NebulaPoint

__all__ = [
    "SampledMap", "AffinePieceReport", "AffineFit",
    "detect_pieces", "reconstruct_affine", "lift_diffeo", "nonliftable_demo",
]


def _is_exact_vec(v) -> bool:
    return all(isinstance(c, QAlpha) for c in v)


@dataclass(frozen=True)
class SampledMap:
    """A map known through samples on a sup-norm ball, exact or numeric.

    kind "exact": coordinates are QAlpha and comparisons are identities.
    kind "numeric": coordinates are floats and comparisons are tolerances.
    func, when present, allows refinement (required by reconstruct_affine's
    second-derivative test).
    """

    center: tuple
    radius: float
    samples: tuple
    values: tuple
    kind: str
    func: Optional[Callable] = None

    def __post_init__(self):
        if self.kind not in ("exact", "numeric"):
            raise QuasifoldError(f"unknown sample kind {self.kind!r}")
        samples = tuple(tuple(s) for s in self.samples)
        values = tuple(tuple(v) for v in self.values)
        if len(samples) != len(values):
            raise QuasifoldError("need one value per sample")
        n = len(self.center)
        for vecs in (samples, values):
            for v in vecs:
                if len(v) != n:
                    raise QuasifoldError("sample dimension mismatch")
                exact = _is_exact_vec(v)
                if exact != (self.kind == "exact"):
                    raise QuasifoldError(
                        "exact and numeric coordinates cannot mix")
        w = default_witness()
        for s in samples:
            for c, ctr in zip(s, self.center):
                offset = (w.to_float(c - ctr) if self.kind == "exact"
                          else abs(c - ctr))
                if abs(offset) > self.radius + 1e-12:
                    raise QuasifoldError(f"sample {s} outside the ball")
        object.__setattr__(self, "center", tuple(self.center))
        object.__setattr__(self, "samples", samples)
        object.__setattr__(self, "values", values)

    @property
    def dimension(self) -> int:
        return len(self.center)

    @staticmethod
    def from_function(func: Callable, center, radius: float, count: int,
                      kind: str = "numeric", seed: int = 0) -> "SampledMap":
        """Sample a callable on the ball; exact kind draws small rationals
        (with α parts) so that identities stay decidable."""
        w = default_witness()
        rng = random.Random(seed)
        n = len(center)
        samples = []
        for _ in range(count):
            if kind == "exact":
                vec = []
                for j in range(n):
                    den = rng.choice((1, 2, 3, 4))
                    lim = max(1, int(radius * den))
                    off = qa(Fraction(rng.randint(-lim, lim), den),
                             Fraction(rng.randint(-den, den), 2 * den))
                    if abs(w.to_float(off)) > radius:
                        off = qa(0)
                    vec.append(center[j] + off)
                samples.append(tuple(vec))
            else:
                samples.append(tuple(center[j] + rng.uniform(-radius, radius)
                                     for j in range(n)))
        values = tuple(tuple(func(s)) for s in samples)
        return SampledMap(tuple(center), radius, tuple(samples), values, kind,
                          func)


@dataclass(frozen=True)
class AffinePieceReport:
    """Assignment of samples to group elements acting identically on them."""

    pieces: tuple          # ((AffineElement, (sample indices...)), ...)
    unmatched: tuple       # sample indices with no match at this bound
    all_matches: tuple     # per sample, tuple of matching element positions
    coverage: float
    max_residual: float
    bound: int
    tol: float

    @property
    def piece_count(self) -> int:
        return len(self.pieces)

    def to_json(self):
        return {
            "pieces": [{"map": g.to_json(), "samples": list(idx)}
                       for g, idx in self.pieces],
            "unmatched": list(self.unmatched),
            "coverage": self.coverage,
            "max_residual": self.max_residual,
            "bound": self.bound,
            "tol": self.tol,
        }


def _numeric_apply(g: AffineElement, s, w: AlphaWitness):
    n = g.n
    out = []
    for i in range(n):
        acc = w.to_float(g.b[i])
        for j in range(n):
            acc += float(g.a[i][j]) * s[j]
        out.append(acc)
    return out


def detect_pieces(F: SampledMap, group, bound: int,
                  tol: Optional[float] = None) -> AffinePieceReport:
    """Assign each sample to the first enumerated group element matching it.

    Exact kind matches by identity (tol is ignored and reported as 0);
    numeric kind matches within sup-norm tol.  Fixed points may match several
    elements; every match is recorded, the first one is assigned.
    """
    exact = F.kind == "exact"
    used_tol = 0.0 if exact else (1e-9 if tol is None else tol)
    gammas = group.enumerate(bound)
    w = default_witness()
    assigned = {}
    all_matches = []
    unmatched = []
    max_residual = 0.0
    for i, (s, v) in enumerate(zip(F.samples, F.values)):
        matches = []
        for pos, g in enumerate(gammas):
            if exact:
                if vec_eq(g.apply(s), v):
                    matches.append(pos)
            else:
                image = _numeric_apply(g, s, w)
                residual = max(abs(a - b) for a, b in zip(image, v))
                if residual <= used_tol:
                    matches.append(pos)
                    max_residual = max(max_residual, residual)
        all_matches.append(tuple(matches))
        if matches:
            assigned.setdefault(matches[0], []).append(i)
        else:
            unmatched.append(i)
    pieces = tuple((gammas[pos], tuple(idx))
                   for pos, idx in sorted(assigned.items()))
    total = len(F.samples)
    coverage = (total - len(unmatched)) / total if total else 1.0
    return AffinePieceReport(pieces, tuple(unmatched), tuple(all_matches),
                             coverage, max_residual, bound, used_tol)


@dataclass(frozen=True)
class AffineFit:
    """Numeric affine reconstruction x ↦ Ax + b with its diagnostics."""

    A: tuple
    b: tuple
    residual: float
    second_derivative: float

    def apply(self, s):
        n = len(self.b)
        return [sum(self.A[i][j] * s[j] for j in range(n)) + self.b[i]
                for i in range(n)]

    def to_json(self):
        return {"A": [list(r) for r in self.A], "b": list(self.b),
                "residual": self.residual,
                "second_derivative": self.second_derivative}


def reconstruct_affine(F: SampledMap, tol: float = 1e-9,
                       d2_tol: float = 1e-6,
                       step: float = 1e-4) -> Optional[AffineFit]:
    """Least-squares affine fit, accepted only if the residual stays below tol
    and the finite-difference second derivative stays below d2_tol."""
    import numpy as np

    if F.kind != "numeric":
        raise QuasifoldError("reconstruct_affine expects numeric samples")
    if F.func is None:
        raise QuasifoldError("reconstruct_affine needs the evaluation callback")
    n = F.dimension
    needed = (n + 1) * (n + 2) // 2
    if len(F.samples) < needed:
        raise DegenerateSampleError(
            f"need at least {needed} samples in dimension {n}")
    X = np.array([list(s) + [1.0] for s in F.samples])
    Y = np.array([list(v) for v in F.values])
    beta, _, rank, _ = np.linalg.lstsq(X, Y, rcond=None)
    if rank < n + 1:
        raise DegenerateSampleError("degenerate-sample-configuration")
    residual = float(np.max(np.abs(X @ beta - Y))) if len(F.samples) else 0.0
    A = tuple(tuple(float(beta[j][i]) for j in range(n)) for i in range(n))
    b = tuple(float(beta[n][i]) for i in range(n))
    if residual > tol:
        return None

    # second-derivative probe at interior points, step small vs the radius
    probes = [tuple(F.center)]
    for s in F.samples[:4]:
        probes.append(tuple(0.5 * (c + x) for c, x in zip(F.center, s)))
    worst_d2 = 0.0
    h = step
    for x in probes:
        for i in range(n):
            for j in range(i, n):
                pij = _probe_vec(x, i, j, h, +1, +1)
                pmm = _probe_vec(x, i, j, h, -1, -1)
                ppm = _probe_vec(x, i, j, h, +1, -1)
                pmp = _probe_vec(x, i, j, h, -1, +1)
                fpp = F.func(pij)
                fmm = F.func(pmm)
                fpm = F.func(ppm)
                fmp = F.func(pmp)
                for k in range(n):
                    d2 = (fpp[k] - fpm[k] - fmp[k] + fmm[k]) / (4 * h * h)
                    worst_d2 = max(worst_d2, abs(d2))
    fit = AffineFit(A, b, residual, worst_d2)
    if worst_d2 > d2_tol:
        return None
    return fit


def _probe_vec(x, i, j, h, si, sj):
    v = list(x)
    v[i] += si * h
    v[j] += sj * h
    return tuple(v)


def lift_diffeo(bi: BiAtlas, r: Sequence[QAlpha], r_prime: Sequence[QAlpha],
                bound: int) -> AffineElement:
    """Affine lift f̃ of the bi-atlas diffeomorphism with f̃(r) = r' exactly.

    Starts from the first seed's lift f̃₀, whose target chart r' lies in, and
    post-corrects by a right-groupoid arrow from f̃₀(r) to r'.  Raises
    FibersIncompatibleError when the two points are certifiably in different
    fibers, InconclusiveAtBoundError when no word within the bound settles it.
    """
    seed = bi.seeds[0]
    r = tuple(r)
    r_prime = tuple(r_prime)
    image = NebulaPoint(seed.dst_chart, seed.map.apply(r))
    target = NebulaPoint(seed.dst_chart, r_prime)
    groupoid = bi.right_groupoid()
    arrows = groupoid.arrows_between(image, target, bound)
    if arrows:
        lift = arrows[0].map.compose(seed.map)
        if not vec_eq(lift.apply(r), r_prime):
            raise QuasifoldError("lift failed to hit the prescribed endpoint")
        return lift
    if groupoid._coset_status(image, target) is Trit.FALSE:
        raise FibersIncompatibleError(
            f"{target} is not in the fiber of {image}")
    raise InconclusiveAtBoundError(
        f"no connecting word within bound {bound}")


# ---------------------------------------------------------------------------
# the radial flip map with no equivariant lift
# ---------------------------------------------------------------------------

def _flat_bump(r: float, a: float, b: float) -> float:
    """Flat bump on (a, b), normalized so its peak is e^{-4} regardless of
    width (avoids double underflow on thin annuli)."""
    if r <= a or r >= b:
        return 0.0
    return math.exp(-((b - a) ** 2) / ((r - a) * (b - r)))


def flip_map(z: complex) -> complex:
    """Radial compactly-supported map alternating between rotation-invariant
    and rotation-equivariant behavior on the annuli 1/(n+1) < |z| < 1/n."""
    r = abs(z)
    if r == 0.0 or r > 1.0:
        return 0j
    n = math.floor(1.0 / r)
    base = math.exp(-1.0 / r) * _flat_bump(r, 1.0 / (n + 1), 1.0 / n)
    if base == 0.0:
        return 0j
    if n % 2 == 0:
        return complex(base)
    return base * (z / r)


def nonliftable_demo(n_max: int = 6, samples_per_annulus: int = 100,
                     tol: float = 1e-10, seed: int = 0) -> dict:
    """Verify the parity rule f(τz) = f(z) (n even) / τ·f(z) (n odd) per
    annulus, plus vanishing outside the unit disk.  Returns a report table."""
    if n_max < 1:
        raise QuasifoldError("n_max must be at least 1")
    rng = random.Random(seed)
    annuli = []
    ok = True
    for n in range(1, n_max + 1):
        a, b = 1.0 / (n + 1), 1.0 / n
        worst = 0.0
        largest = 0.0
        for _ in range(samples_per_annulus):
            # keep radii in the middle 80% so the bump is visibly nonzero
            t = rng.uniform(0.1, 0.9)
            r = a + t * (b - a)
            phi = rng.uniform(0.0, 1.0)
            theta = rng.uniform(0.0, 1.0)
            z = r * cmath.exp(2j * cmath.pi * phi)
            tau = cmath.exp(2j * cmath.pi * theta)
            h = tau if n % 2 == 1 else 1.0
            dev = abs(flip_map(tau * z) - h * flip_map(z))
            worst = max(worst, dev)
            largest = max(largest, abs(flip_map(z)))
        passed = worst <= tol
        ok = ok and passed
        annuli.append({
            "n": n,
            "parity": "odd" if n % 2 else "even",
            "h": "tau" if n % 2 else "1",
            "max_deviation": worst,
            "max_magnitude": largest,
            "samples": samples_per_annulus,
            "pass": passed,
        })
    outside = [abs(flip_map(1.5 + 0j)), abs(flip_map(-2j)), abs(flip_map(0j))]
    outside_zero = max(outside) == 0.0
    return {
        "n_max": n_max,
        "tol": tol,
        "annuli": annuli,
        "outside_zero": outside_zero,
        "pass": ok and outside_zero,
    }
