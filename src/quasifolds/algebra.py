"""Convolution *-algebras over structure groupoids with countable fibers.

Elements are finitely supported maps  group translation ↦ coefficient
function; the product is groupoid convolution against counting measure.
A model (`LineModel`, `CircleModel`) answers everything specific to its
algebra: which keys are canonical, its coefficient type (whose no-argument
instance is the zero coefficient), how a key shifts a coefficient, random
keys of its subgroup, and its closed-form product.  Code outside the models
only checks that two elements share a model, by equality.

Two independent product routes are provided:

* convolve_general  — iterates support pairs and composes the underlying
  affine maps to find the target key (works directly on arrows), and
  multiplies each pair on its own through the pure-Python kernels;
* convolve_closed_form — the model's index arithmetic
  (f·g)_r(x) = Σ_s f_{r−s}(x+s) g_s(x)           on the line,
  (f·g)_τ(z) = Σ_σ f_{τ−σ}(z+σ) g_σ(z)           on the circle,
  with all key pairs of a product in one batched kernel call; the
  `_kernels._numpy` docstring says why its results are bitwise the
  per-pair sums.

The two routes share no product code.  The involution is
(f*)_{−r}(x) = conj(f_r(x − r)).

For the circle over rational translations, ``matrix_representation`` maps an
element supported on (1/p)ℤ/ℤ to a p×p matrix; with M[j][l] = f_{(l−j)/p}(z + j/p)
the map reverses products: M(f·g) = M(g)·M(f).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction

from ._kernels import circle_convolve, poly_mul_rows
from .coefficients import (PiecewisePoly, TrigPoly, _largest, _line_plan,
                           _placed, dense_rows)
from .errors import (MixedCoefficientKindError, QuasifoldError,
                     SupportEscapesSubgroupError)
from .exact import AffineElement, QAlpha, Trit, default_witness, qa
from .groups import TranslationLattice

__all__ = [
    "LineModel", "CircleModel", "AlgebraElement", "delta",
    "convolve_general", "convolve_closed_form", "involute",
    "rotation_relation", "matrix_representation", "ComplexMatrix",
    "REPRESENTATION_PRODUCT_ORDER",
    "random_line_element", "random_circle_element",
]

# The matrix representation of the rational-circle algebra reverses the
# convolution order: M(f·g) = M(g)·M(f).
REPRESENTATION_PRODUCT_ORDER = "reversed"


@dataclass(frozen=True)
class LineModel:
    """Algebra of the line with translations drawn from a lattice subgroup.

    Keys are exact translations r ∈ group; coefficients are PiecewisePoly.
    """

    group: TranslationLattice

    coefficient_type = PiecewisePoly

    def canonical_key(self, r: QAlpha) -> QAlpha:
        if self.group.contains_value((r,)) is not Trit.TRUE:
            raise SupportEscapesSubgroupError(
                f"translation {r} is not in the structure group")
        return r

    def renormalise(self, r: QAlpha) -> QAlpha:
        """Canonical form of a key already known to lie in the group."""
        return r

    def key_shift(self, coeff: PiecewisePoly, s: QAlpha) -> PiecewisePoly:
        return coeff.shift_arg(s)

    def random_key(self, rng, span: int) -> QAlpha:
        """Σ c_i·g_i over the lattice generators g_i, each c_i drawn from
        [−span, span] in generator order."""
        key = qa(0, 0)
        for g in self.group.generators:
            key = key + g[0].scale(Fraction(rng.randint(-span, span)))
        return key

    def product(self, f: "AlgebraElement",
                g: "AlgebraElement") -> "AlgebraElement":
        """Closed-form f·g, in three passes.

        Plan: `coefficients._line_plan` walks the key pairs (s outer,
        a inner), skips those whose supports its enclosures prove
        disjoint (their product is zero), and walks f_a(· + s) against g_s
        over the overlap of their supports only (`coefficients._overlap`,
        which builds no shifted copy), writing the two pieces of every live
        interval straight into the kernel rows.  Multiply: all those rows
        go through one `poly_mul_rows` call.  Sum: each pair's product is
        placed on its grid, trimmed and added into its key in plan order,
        as `PiecewisePoly.__mul__` and `_add_term` would have done pair by
        pair, so the result is bitwise that pair-by-pair sum.
        """
        lefts, rights = [], []
        plan = _line_plan(f.support, g.support, lefts, rights)
        products = iter(poly_mul_rows(lefts, rights))
        out = {}
        for key, grid, live in plan:
            _add_term(out, key, _placed(grid, live, products))
        return _closed(self, out)


_CIRCLE_KINDS = ("rational", "alpha", "full")


@dataclass(frozen=True)
class CircleModel:
    """Algebra of the circle R/Z with a countable translation subgroup.

    subgroup: "rational" (ℚ/ℤ), "alpha" (αℤ mod 1), or "full" (ℚ + αℤ mod 1).
    Keys are canonical mod-1 values; coefficients are TrigPoly.
    """

    subgroup: str = "full"

    coefficient_type = TrigPoly

    def __post_init__(self):
        if self.subgroup not in _CIRCLE_KINDS:
            raise QuasifoldError(f"unknown circle subgroup {self.subgroup!r}")

    def canonical_key(self, r: QAlpha) -> QAlpha:
        k = r.mod1()
        if self.subgroup == "rational" and not k.is_rational:
            raise SupportEscapesSubgroupError(
                f"rotation {r} has an α component; not in ℚ/ℤ")
        if self.subgroup == "alpha" and k.triple[0]:
            raise SupportEscapesSubgroupError(
                f"rotation {r} has a rational component; not in αℤ mod 1")
        return k

    def renormalise(self, r: QAlpha) -> QAlpha:
        """Canonical form of a key already known to lie in the subgroup."""
        return r.mod1()

    def key_shift(self, coeff: TrigPoly, s: QAlpha) -> TrigPoly:
        return coeff.rotate(default_witness().to_float(s))

    def random_key(self, rng, denominator: int, alpha_span: int) -> QAlpha:
        """p/denominator + q·α: p drawn from [0, denominator) unless the
        subgroup is αℤ, then q from [−alpha_span, alpha_span] unless it is
        ℚ/ℤ."""
        p = (0 if self.subgroup == "alpha"
             else Fraction(rng.randrange(denominator), denominator))
        q = (0 if self.subgroup == "rational"
             else rng.randint(-alpha_span, alpha_span))
        return qa(p, q)

    def product(self, f: "AlgebraElement",
                g: "AlgebraElement") -> "AlgebraElement":
        """Closed-form f·g: all key pairs in one `circle_convolve` call,
        each target key's row receiving its pairs in (s outer, a inner)
        order, so every mode is bitwise the per-pair sum
        Σ key_shift(f_a, s)·g_s."""
        if not f.support or not g.support:
            return _closed(self, {})
        slots = {}
        pair_slots = [slots.setdefault(self.renormalise(a + s), len(slots))
                      for s, _ in g.support for a, _ in f.support]
        f_off, f_rows = dense_rows([c for _, c in f.support])
        g_off, g_rows = dense_rows([c for _, c in g.support])
        to_float = default_witness().to_float
        rows = circle_convolve(f_off, f_rows, g_rows,
                               [to_float(s) for s, _ in g.support],
                               pair_slots, len(slots))
        off = f_off + g_off
        return _closed(self, {key: TrigPoly._from_dense(off, row)
                              for key, row in zip(slots, rows)})


@dataclass(frozen=True)
class AlgebraElement:
    """Finitely supported element Σ_r c_r · δ_r of a convolution algebra.

    The public constructor checks every key against the model's group
    (`canonical_key`).  Sums, scalings, products and involutions build their
    results with `_closed`, which only renormalises: keys formed from
    canonical keys by group operations are group elements by closure.
    """

    model: object
    support: tuple = ()  # sorted ((QAlpha key, coefficient), ...)

    def __post_init__(self):
        entries = {}
        for r, c in self.support:
            if not isinstance(c, self.model.coefficient_type):
                raise MixedCoefficientKindError(
                    f"{type(self.model).__name__} needs "
                    f"{self.model.coefficient_type.__name__} coefficients, "
                    f"got {type(c).__name__}")
            _add_term(entries, self.model.canonical_key(r), c)
        object.__setattr__(self, "support", _normal_support(entries))

    def keys(self):
        return tuple(k for k, _ in self.support)

    def coeff(self, r: QAlpha):
        key = self.model.canonical_key(r)
        for k, c in self.support:
            if k == key:
                return c
        return self.model.coefficient_type()

    @property
    def is_zero(self) -> bool:
        return not self.support

    def _require_same_model(self, other: "AlgebraElement"):
        if self.model != other.model:
            raise MixedCoefficientKindError(
                "elements live in different algebra models")

    def __add__(self, other: "AlgebraElement") -> "AlgebraElement":
        self._require_same_model(other)
        entries = dict(self.support)
        for k, c in other.support:
            _add_term(entries, k, c)
        return _closed(self.model, entries)

    def scale(self, s) -> "AlgebraElement":
        return _closed(self.model, {k: c.scale(s) for k, c in self.support})

    def __sub__(self, other: "AlgebraElement") -> "AlgebraElement":
        return self + other.scale(-1.0)

    def __mul__(self, other: "AlgebraElement") -> "AlgebraElement":
        return convolve_closed_form(self, other)

    def star(self) -> "AlgebraElement":
        return involute(self)

    def distance(self, other: "AlgebraElement") -> float:
        """Max coefficient distance over the union of supports; NaN when a
        coefficient distance is NaN (as overflowed products give), which
        `max` would drop."""
        self._require_same_model(other)
        mine, theirs = dict(self.support), dict(other.support)
        zero = self.model.coefficient_type()
        return _largest(mine.get(k, zero).distance(theirs.get(k, zero))
                        for k in mine.keys() | theirs.keys())

    def allclose(self, other: "AlgebraElement", tol: float) -> bool:
        return self.distance(other) <= tol


def _normal_support(entries: dict) -> tuple:
    """Nonzero (key, coefficient) pairs in report order: by `QAlpha.sort_key`,
    the pair (p, q), compared here as the integers (a·L/d, b·L/d) of each
    key's triple (a, b, d) over the common denominator L of all keys."""
    live = [(k, c) for k, c in entries.items() if not c.is_zero]
    common = math.lcm(*(k.triple[2] for k, _ in live))

    def order(entry):
        a, b, d = entry[0].triple
        m = common // d
        return a * m, b * m

    return tuple(sorted(live, key=order))


def _add_term(entries: dict, key, term) -> None:
    """entries[key] += term, where a key's first term is stored as is."""
    entries[key] = entries[key] + term if key in entries else term


def _closed(model, entries: dict) -> AlgebraElement:
    """Element from {canonical key: coefficient}, with no membership check
    and no coefficient type check: the keys come from the model's group by
    closure and the coefficients from operations on the model's type."""
    el = object.__new__(AlgebraElement)
    object.__setattr__(el, "model", model)
    object.__setattr__(el, "support", _normal_support(entries))
    return el


def delta(model, r: QAlpha, coeff) -> AlgebraElement:
    """Single-translation element coeff · δ_r."""
    return AlgebraElement(model, ((r, coeff),))


def convolve_general(f: AlgebraElement, g: AlgebraElement) -> AlgebraElement:
    """Convolution by composing the underlying affine arrows pairwise.

    Each key r names the translation map t_r; the pair (a, s) contributes to
    the key of t_a ∘ t_s, with coefficient f_a(x + s) · g_s(x).  Each t_s
    is built once per call; every pair composes its own maps and
    canonicalises its key.
    """
    f._require_same_model(g)
    model = f.model
    out = {}
    right = [(s, cs, AffineElement.translation((s,))) for s, cs in g.support]
    for a, ca in f.support:
        ta = AffineElement.translation((a,))
        for s, cs, ts in right:
            composed = ta.compose(ts)
            key = model.canonical_key(composed.b[0])
            _add_term(out, key, model.key_shift(ca, s) * cs)
    return AlgebraElement(model, tuple(out.items()))


def convolve_closed_form(f: AlgebraElement, g: AlgebraElement) -> AlgebraElement:
    """Convolution via index arithmetic: (f·g)_r = Σ_s f_{r−s}(· + s) g_s,
    by the model's own `product`."""
    f._require_same_model(g)
    return f.model.product(f, g)


def involute(f: AlgebraElement) -> AlgebraElement:
    """Adjoint for counting-measure convolution: (f*)_{−r}(x) = conj(f_r(x−r))."""
    model = f.model
    out = {}
    for r, c in f.support:
        _add_term(out, model.renormalise(-r), model.key_shift(c, -r).conjugate())
    return _closed(model, out)


# ---------------------------------------------------------------------------
# rotation relation on the circle over αℤ
# ---------------------------------------------------------------------------

def rotation_relation(max_power: int = 3) -> dict:
    """Check V·U = λ·U·V for U = e^{2πiz}δ_0, V = δ_α on the circle.

    Returns the empirical λ, its distance to e^{−2πiα} (α from the default
    witness), and the worst deviation of the power relations
    V^n·U^m = λ^{mn}·U^m·V^n for 1 ≤ m, n ≤ max_power.
    """
    w = default_witness()
    model = CircleModel("alpha")
    U = delta(model, qa(0, 0), TrigPoly.mode(1))
    V = delta(model, qa(0, 1), TrigPoly.one())

    VU = convolve_closed_form(V, U)
    UV = convolve_closed_form(U, V)
    # both are single-key elements supported on α with a single mode
    ((_, c_vu),) = VU.support
    ((_, c_uv),) = UV.support
    ((_, top),) = c_vu.modes
    ((_, bot),) = c_uv.modes
    lam = top / bot
    reference = cmath.exp(-2j * cmath.pi * w.to_float(qa(0, 1)))

    residual = VU.distance(UV.scale(lam))

    def power(x: AlgebraElement, n: int) -> AlgebraElement:
        acc = x
        for _ in range(n - 1):
            acc = convolve_closed_form(acc, x)
        return acc

    worst_power = 0.0
    for m in range(1, max_power + 1):
        Um = power(U, m)
        for n in range(1, max_power + 1):
            Vn = power(V, n)
            lhs = convolve_closed_form(Vn, Um)
            rhs = convolve_closed_form(Um, Vn).scale(lam ** (m * n))
            worst_power = _largest((worst_power, lhs.distance(rhs)))

    return {
        "lambda": lam,
        "reference": reference,
        "lambda_error": abs(lam - reference),
        "relation_residual": residual,
        "power_residual": worst_power,
        "max_power": max_power,
    }


# ---------------------------------------------------------------------------
# matrix representation of the rational-circle algebra
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ComplexMatrix:
    """Dense complex matrix with a fixed-order product (deterministic)."""

    rows: tuple

    def __post_init__(self):
        rows = tuple(tuple(complex(x) for x in r) for r in self.rows)
        if rows and any(len(r) != len(rows[0]) for r in rows):
            raise QuasifoldError("ragged matrix")
        object.__setattr__(self, "rows", rows)

    @staticmethod
    def identity(n: int) -> "ComplexMatrix":
        return ComplexMatrix(tuple(tuple(1.0 + 0j if i == j else 0j
                                         for j in range(n)) for i in range(n)))

    @property
    def shape(self):
        return (len(self.rows), len(self.rows[0]) if self.rows else 0)

    def __matmul__(self, other: "ComplexMatrix") -> "ComplexMatrix":
        n, k = self.shape
        k2, m = other.shape
        if k != k2:
            raise QuasifoldError("matrix shapes do not compose")
        out = []
        for i in range(n):
            row = []
            for j in range(m):
                acc = 0j
                for t in range(k):
                    acc += self.rows[i][t] * other.rows[t][j]
                row.append(acc)
            out.append(tuple(row))
        return ComplexMatrix(tuple(out))

    def __sub__(self, other: "ComplexMatrix") -> "ComplexMatrix":
        if self.shape != other.shape:
            raise QuasifoldError("matrix shapes differ")
        return ComplexMatrix(tuple(
            tuple(a - b for a, b in zip(ra, rb))
            for ra, rb in zip(self.rows, other.rows)))

    def sup_norm(self) -> float:
        """Largest entry modulus; NaN when an entry's is NaN."""
        return _largest(abs(x) for r in self.rows for x in r)

    def conjugate_transpose(self) -> "ComplexMatrix":
        n, m = self.shape
        return ComplexMatrix(tuple(
            tuple(self.rows[i][j].conjugate() for i in range(n))
            for j in range(m)))

    def to_json(self):
        return [[[x.real, x.imag] for x in r] for r in self.rows]


def matrix_representation(f: AlgebraElement, p: int,
                          z: float = 0.0) -> ComplexMatrix:
    """p×p matrix of a rational-circle element supported on (1/p)ℤ/ℤ.

    M[j][l] = f_{(l−j)/p mod 1}(z + j/p).  Product order is reversed:
    M(f·g) = M(g)·M(f).
    """
    if f.model != CircleModel("rational"):
        raise QuasifoldError("matrix representation needs the rational circle")
    if p < 1:
        raise QuasifoldError("p must be a positive integer")
    for k, _ in f.support:
        a, _, d = k.triple  # p-part a/d; p·a/d is an integer iff d | p·a
        if p * a % d:
            raise SupportEscapesSubgroupError(
                f"support key {k} is not a multiple of 1/{p}")
    rows = []
    for j in range(p):
        row = []
        for l in range(p):
            key = qa(Fraction(l - j, p), 0).mod1()
            c = f.coeff(key)
            row.append(c.eval(z + j / p))
        rows.append(tuple(row))
    return ComplexMatrix(tuple(rows))


# ---------------------------------------------------------------------------
# random corpora (shared by tests and the command line self-checks)
# ---------------------------------------------------------------------------

def random_line_element(rng, model: LineModel, n_keys: int = 3,
                        degree: int = 2, span: int = 2) -> AlgebraElement:
    """Random element with small-integer lattice keys and polynomial pieces.

    Pieces have unit width and geometrically damped coefficients so that raw
    local coefficients stay O(1) through products and grid rebasing; the
    1e-12 route-comparison margin is meaningful only on such a corpus.
    """
    entries = []
    for _ in range(n_keys):
        key = model.random_key(rng, span)
        lo = rng.randint(-3, 1)
        bps = tuple(qa(lo + k, 0) for k in range(3))
        pieces = tuple(
            tuple(complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) * 0.5 ** d
                  for d in range(degree + 1))
            for _ in range(len(bps) - 1))
        entries.append((key, PiecewisePoly(bps, pieces)))
    return AlgebraElement(model, tuple(entries))


def random_circle_element(rng, model: CircleModel, n_keys: int = 3,
                          n_modes: int = 2, denominator: int = 6,
                          alpha_span: int = 2) -> AlgebraElement:
    """Random element with subgroup-appropriate keys and short mode lists."""
    entries = []
    for _ in range(n_keys):
        key = model.random_key(rng, denominator, alpha_span)
        modes = tuple((k, complex(rng.uniform(-1, 1), rng.uniform(-1, 1)))
                      for k in range(-n_modes, n_modes + 1))
        entries.append((key, TrigPoly(modes)))
    return AlgebraElement(model, tuple(entries))
