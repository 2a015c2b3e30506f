"""Arrows of a structure groupoid: germs of locally defined diffeomorphisms
between chart domains, each represented by a globally affine map.

An arrow is (source nebula point, affine map, destination chart): its target
is map(source).  Composition is diagrammatic — a·b means "a then b", defined
when trg(a) = src(b), with (a·b).map = b.map ∘ a.map.  Affine rigidity makes
the representation faithful: two arrows with the same source and destination
chart whose maps agree on n+1 affinely independent points are equal.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from .errors import NotComposableError
from .exact import AffineElement, QAlpha, vec_eq

__all__ = ["NebulaPoint", "Arrow", "arrow_compose", "arrow_invert", "fiber_over"]


@dataclass(frozen=True)
class NebulaPoint:
    """A point of one chart domain in the disjoint union of chart domains."""

    chart: str
    coords: tuple

    def __post_init__(self):
        object.__setattr__(
            self, "coords",
            tuple(c if isinstance(c, QAlpha) else QAlpha(c) for c in self.coords))

    def __str__(self):
        return f"{self.chart}:(" + ", ".join(str(c) for c in self.coords) + ")"

    __repr__ = __str__

    def to_json(self):
        return {"chart": self.chart, "coords": [str(c) for c in self.coords]}

    @staticmethod
    def from_json(obj):
        return NebulaPoint(obj["chart"], tuple(QAlpha.parse(c) for c in obj["coords"]))


@dataclass(frozen=True)
class Arrow:
    """Germ of an ev-absorbed local diffeomorphism, anchored at `src`.

    Equality and hash use the three fields only.  The target `trg` is
    computed on first use and kept on the instance.
    """

    src: NebulaPoint
    map: AffineElement
    dst_chart: str

    @functools.cached_property
    def trg(self) -> NebulaPoint:
        return NebulaPoint(self.dst_chart, self.map.apply(self.src.coords))

    @property
    def is_unit(self) -> bool:
        return self.map.is_identity and self.dst_chart == self.src.chart

    @staticmethod
    def unit(point: NebulaPoint) -> "Arrow":
        return Arrow(point, AffineElement.identity(len(point.coords)), point.chart)

    def __str__(self):
        return f"({self.src} —{self.map}→ {self.dst_chart})"

    __repr__ = __str__

    def to_json(self):
        return {"src": self.src.to_json(), "map": self.map.to_json(),
                "dst_chart": self.dst_chart}

    @classmethod
    def from_json(cls, obj):
        return cls(NebulaPoint.from_json(obj["src"]),
                   AffineElement.from_json(obj["map"]), obj["dst_chart"])


def arrow_compose(a: Arrow, b: Arrow) -> Arrow:
    """a then b; requires trg(a) = src(b) exactly."""
    t = a.trg
    if t.chart != b.src.chart or not vec_eq(t.coords, b.src.coords):
        raise NotComposableError(f"trg {t} ≠ src {b.src}")
    return Arrow(a.src, b.map.compose(a.map), b.dst_chart)


def arrow_invert(a: Arrow) -> Arrow:
    return Arrow(a.trg, a.map.invert(), a.src.chart)


def fiber_over(point: NebulaPoint, groupoid, bound: int) -> tuple:
    """All arrows with target = point and word length within bound.

    Delegates to the groupoid (which knows charts, groups and transitions);
    kept here so arrow-level code can stay atlas-agnostic.
    """
    return groupoid.fiber_over(point, bound)
