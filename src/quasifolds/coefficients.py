"""Coefficient functions for convolution algebra elements.

TrigPoly: finite Fourier sums on R/Z, modes k ↦ c_k; rotation by t multiplies
c_k by e^{2πikt}, so rational and α-rotations act exactly on the mode index
structure (numerically on the values).

PiecewisePoly: compactly supported piecewise polynomials on R with exact
Q+Qα breakpoints.  Piece coefficients are stored in local coordinates
u = x − (left breakpoint), which makes translation exact in both breakpoints
and coefficients; grid refinement (for add/mul) is the only place a numeric
Taylor shift happens.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from typing import Sequence

from . import _kernels as K
from .errors import QuasifoldError
from .exact import AlphaWitness, QAlpha, default_witness

__all__ = ["TrigPoly", "PiecewisePoly"]


@dataclass(frozen=True)
class TrigPoly:
    """Finite complex Fourier sum Σ c_k e^{2πikx}; zero coefficients pruned."""

    modes: tuple = ()  # sorted ((k, complex), ...)

    def __post_init__(self):
        cleaned = tuple(sorted((int(k), complex(c)) for k, c in self.modes if c != 0))
        if not all(cmath.isfinite(c) for _, c in cleaned):
            raise QuasifoldError("TrigPoly coefficients must be finite")
        object.__setattr__(self, "modes", cleaned)

    @staticmethod
    def from_dict(d: dict) -> "TrigPoly":
        return TrigPoly(tuple(d.items()))

    @staticmethod
    def mode(k: int, c=1.0) -> "TrigPoly":
        return TrigPoly(((k, complex(c)),))

    @staticmethod
    def one() -> "TrigPoly":
        return TrigPoly.mode(0, 1.0)

    def as_dict(self) -> dict:
        return dict(self.modes)

    @property
    def is_zero(self) -> bool:
        return not self.modes

    def _dense(self):
        if not self.modes:
            return 0, []
        lo = self.modes[0][0]
        hi = self.modes[-1][0]
        arr = [0j] * (hi - lo + 1)
        for k, c in self.modes:
            arr[k - lo] = c
        return lo, arr

    @staticmethod
    def _from_dense(off, arr) -> "TrigPoly":
        return _trig(tuple((off + i, c) for i, c in enumerate(arr) if c != 0))

    def __add__(self, other: "TrigPoly") -> "TrigPoly":
        d = dict(self.modes)
        for k, c in other.modes:
            d[k] = d.get(k, 0j) + c
        return _trig(tuple(sorted((k, c) for k, c in d.items() if c != 0)))

    def __mul__(self, other: "TrigPoly") -> "TrigPoly":
        if self.is_zero or other.is_zero:
            return TrigPoly()
        oa, a = self._dense()
        ob, b = other._dense()
        off, arr = K.trig_mul(oa, a, ob, b)
        return TrigPoly._from_dense(off, arr)

    def scale(self, s) -> "TrigPoly":
        return TrigPoly(tuple((k, c * complex(s)) for k, c in self.modes))

    def conjugate(self) -> "TrigPoly":
        """Pointwise complex conjugate: c_k ↦ conj(c_{−k})."""
        return _trig(tuple((-k, c.conjugate())
                           for k, c in reversed(self.modes)))

    def rotate(self, t: float) -> "TrigPoly":
        """Precompose with rotation: x ↦ x + t (c_k picks up e^{2πikt})."""
        off, arr = self._dense()
        return TrigPoly._from_dense(off, K.trig_rotate(off, arr, float(t)))

    def eval(self, x: float) -> complex:
        off, arr = self._dense()
        return K.trig_eval(off, arr, float(x))

    def sup_bound(self) -> float:
        return sum(abs(c) for _, c in self.modes)

    def distance(self, other: "TrigPoly") -> float:
        d = dict(self.modes)
        for k, c in other.modes:
            d[k] = d.get(k, 0j) - c
        return max((abs(c) for c in d.values()), default=0.0)

    def allclose(self, other: "TrigPoly", tol: float) -> bool:
        return self.distance(other) <= tol

    def degree(self) -> int:
        return max((abs(k) for k, _ in self.modes), default=0)

    def to_json(self):
        return {"kind": "trig",
                "modes": {str(k): [c.real, c.imag] for k, c in self.modes}}

    @staticmethod
    def from_json(obj) -> "TrigPoly":
        return TrigPoly(tuple((int(k), complex(re, im))
                              for k, (re, im) in obj["modes"].items()))


def _trig(modes: tuple) -> TrigPoly:
    """TrigPoly from modes already in normal form (sorted int indices,
    nonzero complex values), skipping `__post_init__`."""
    poly = object.__new__(TrigPoly)
    object.__setattr__(poly, "modes", modes)
    return poly


@dataclass(frozen=True)
class PiecewisePoly:
    """Compactly supported piecewise polynomial with exact breakpoints.

    pieces[i] holds complex coefficients (ascending degree) in the local
    variable u = x − breakpoints[i], valid on [breakpoints[i], breakpoints[i+1]].
    """

    breakpoints: tuple = ()
    pieces: tuple = ()

    def __post_init__(self):
        bps = tuple(self.breakpoints)
        pcs = tuple(tuple(map(complex, p)) for p in self.pieces)
        if bps and len(pcs) != len(bps) - 1:
            raise QuasifoldError("need one piece per breakpoint gap")
        if not bps and pcs:
            raise QuasifoldError("pieces without breakpoints")
        if not all(cmath.isfinite(c) for p in pcs for c in p):
            raise QuasifoldError("PiecewisePoly coefficients must be finite")
        object.__setattr__(self, "breakpoints", bps)
        object.__setattr__(self, "pieces", pcs)

    @staticmethod
    def zero() -> "PiecewisePoly":
        return PiecewisePoly()

    @staticmethod
    def constant_on(lo: QAlpha, hi: QAlpha, c) -> "PiecewisePoly":
        return PiecewisePoly((lo, hi), ((complex(c),),))

    @staticmethod
    def interpolate_linear(breaks: Sequence[QAlpha],
                           values: Sequence) -> "PiecewisePoly":
        """Continuous piecewise-linear interpolant (values at breakpoints)."""
        w = default_witness()
        if len(values) != len(breaks):
            raise QuasifoldError("one value per breakpoint")
        pieces = []
        for i in range(len(breaks) - 1):
            width = w.to_float(breaks[i + 1] - breaks[i])
            v0, v1 = complex(values[i]), complex(values[i + 1])
            pieces.append((v0, (v1 - v0) / width))
        return PiecewisePoly(tuple(breaks), tuple(pieces))

    @property
    def is_zero(self) -> bool:
        return all(all(c == 0 for c in p) for p in self.pieces)

    def support(self):
        if not self.breakpoints:
            return None
        return self.breakpoints[0], self.breakpoints[-1]

    def degree(self) -> int:
        deg = 0
        for p in self.pieces:
            nz = [i for i, c in enumerate(p) if c != 0]
            if nz:
                deg = max(deg, nz[-1])
        return deg

    # -- exact translation --
    def shift_arg(self, s: QAlpha) -> "PiecewisePoly":
        """x ↦ self(x + s): breakpoints move by −s; local pieces unchanged."""
        return _piecewise(tuple(b - s for b in self.breakpoints), self.pieces)

    def scale(self, c) -> "PiecewisePoly":
        return PiecewisePoly(self.breakpoints,
                             tuple(tuple(x * complex(c) for x in p) for p in self.pieces))

    def conjugate(self) -> "PiecewisePoly":
        return PiecewisePoly(self.breakpoints,
                             tuple(tuple(x.conjugate() for x in p) for p in self.pieces))

    # -- grid alignment --
    def _merged_breaks(self, other: "PiecewisePoly", w: AlphaWitness):
        merged = list(self.breakpoints)
        seen = set(merged)
        for b in other.breakpoints:
            if b not in seen:
                seen.add(b)
                merged.append(b)
        merged.sort(key=w.evaluate)
        return merged

    def _on_grid(self, grid, w: AlphaWitness):
        """Local piece coefficients on each grid interval (zero off-support).

        The merged grid contains every breakpoint of self exactly, so the
        containing piece advances precisely at those grid points; membership
        needs only exact equality, never an order decision.
        """
        out = []
        pos = {b: i for i, b in enumerate(self.breakpoints)}
        piece = None
        for j in range(len(grid) - 1):
            left = grid[j]
            k = pos.get(left)
            if k is not None:
                piece = k if k < len(self.pieces) else None
            if piece is None:
                out.append(())
                continue
            base = self.breakpoints[piece]
            coeffs = self.pieces[piece]
            if left == base:
                out.append(tuple(coeffs))
            else:
                delta = w.to_float(left - base)
                out.append(tuple(K.poly_shift(list(coeffs), delta)))
        return out

    def _binary(self, other: "PiecewisePoly", op) -> "PiecewisePoly":
        if not self.breakpoints:
            return other if op == "add" else PiecewisePoly()
        if not other.breakpoints:
            return self if op == "add" else PiecewisePoly()
        w = default_witness()
        grid = self._merged_breaks(other, w)
        mine = self._on_grid(grid, w)
        theirs = other._on_grid(grid, w)
        pieces = []
        for a, b in zip(mine, theirs):
            if op == "add":
                pieces.append(tuple(K.poly_add(list(a), list(b))))
            else:
                pieces.append(tuple(K.poly_mul(list(a), list(b))) if a and b else ())
        return _piecewise(tuple(grid), tuple(pieces))._trimmed()

    def __add__(self, other: "PiecewisePoly") -> "PiecewisePoly":
        return self._binary(other, "add")

    def __mul__(self, other: "PiecewisePoly") -> "PiecewisePoly":
        return self._binary(other, "mul")

    def _trimmed(self) -> "PiecewisePoly":
        pieces = list(self.pieces)
        breaks = list(self.breakpoints)
        while pieces and all(c == 0 for c in pieces[0]):
            pieces.pop(0)
            breaks.pop(0)
        while pieces and all(c == 0 for c in pieces[-1]):
            pieces.pop()
            breaks.pop()
        if not pieces:
            return PiecewisePoly()
        return _piecewise(tuple(breaks), tuple(pieces))

    # -- numerics --
    def eval(self, x: float) -> complex:
        if not self.breakpoints:
            return 0j
        w = default_witness()
        floats = [w.to_float(b) for b in self.breakpoints]
        if x < floats[0] or x > floats[-1]:
            return 0j
        for i in range(len(self.pieces)):
            if x <= floats[i + 1]:
                return K.poly_eval(list(self.pieces[i]), x - floats[i])
        return 0j

    def max_jump(self) -> float:
        """Largest discontinuity across interior breakpoints (and the ends,
        where the function must meet zero)."""
        if not self.breakpoints:
            return 0.0
        w = default_witness()
        worst = abs(K.poly_eval(list(self.pieces[0]), 0.0))
        for i in range(len(self.pieces) - 1):
            width = w.to_float(self.breakpoints[i + 1] - self.breakpoints[i])
            left = K.poly_eval(list(self.pieces[i]), width)
            right = K.poly_eval(list(self.pieces[i + 1]), 0.0)
            worst = max(worst, abs(left - right))
        last_width = w.to_float(self.breakpoints[-1] - self.breakpoints[-2])
        worst = max(worst, abs(K.poly_eval(list(self.pieces[-1]), last_width)))
        return worst

    def distance(self, other: "PiecewisePoly") -> float:
        """Max coefficient difference on the merged grid (bounds nothing by
        itself, but is exactly the right notion for route comparisons)."""
        if not self.breakpoints and not other.breakpoints:
            return 0.0
        if not self.breakpoints:
            return max((abs(c) for p in other.pieces for c in p), default=0.0)
        if not other.breakpoints:
            return max((abs(c) for p in self.pieces for c in p), default=0.0)
        w = default_witness()
        grid = self._merged_breaks(other, w)
        mine = self._on_grid(grid, w)
        theirs = other._on_grid(grid, w)
        worst = 0.0
        for a, b in zip(mine, theirs):
            arr = K.poly_add(list(a), K.poly_scale(list(b), -1.0))
            worst = max(worst, max((abs(c) for c in arr), default=0.0))
        return worst

    def allclose(self, other: "PiecewisePoly", tol: float) -> bool:
        return self.distance(other) <= tol

    def to_json(self):
        return {"kind": "piecewise",
                "breakpoints": [str(b) for b in self.breakpoints],
                "pieces": [[[c.real, c.imag] for c in p] for p in self.pieces]}

    @staticmethod
    def from_json(obj) -> "PiecewisePoly":
        return PiecewisePoly(
            tuple(QAlpha.parse(b) for b in obj["breakpoints"]),
            tuple(tuple(complex(re, im) for re, im in p) for p in obj["pieces"]))


def _piecewise(breakpoints: tuple, pieces: tuple) -> PiecewisePoly:
    """PiecewisePoly from a breakpoint tuple and a matching tuple of complex
    coefficient tuples, skipping `__post_init__`."""
    poly = object.__new__(PiecewisePoly)
    object.__setattr__(poly, "breakpoints", breakpoints)
    object.__setattr__(poly, "pieces", pieces)
    return poly
