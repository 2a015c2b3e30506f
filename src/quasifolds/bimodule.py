"""Equivalence bimodules between structure groupoids of two atlases.

A linking germ is an (invertible affine) germ from a point of the left atlas
nebula into a chart of the right atlas, compatible with both evaluation maps.
The left structure groupoid acts by precomposition, the right one by
postcomposition; the set generated from finitely many seeds by bounded words
carries free commuting actions whose class maps are bijections onto objects.

A seed must carry the left chart's group into the right chart's group, the
computable content of compatibility with both evaluation maps: a bi-atlas
checks it with `groups.require_intertwines`, the check every transition of
its two atlases passes when their structure groupoids are built.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .atlas import Atlas, StructureGroupoid
from .errors import NotComposableError, QuasifoldError
from .groupoid import Arrow, NebulaPoint
from .groups import require_intertwines

__all__ = [
    "LinkingGerm", "BiAtlas", "left_act", "right_act", "class_map",
    "invert_germ", "quotient_witness", "quotient_witness_right",
    "surjectivity_probe", "source_probe", "generate_germs",
]


@dataclass(frozen=True)
class LinkingGerm(Arrow):
    """Germ of an invertible affine map from the left nebula into a right chart."""

    def __str__(self):
        return f"{self.src} ={self.map}=> {self.dst_chart}"


@dataclass(frozen=True)
class BiAtlas:
    """Two atlases of the same quasifold joined by seed linking germs."""

    left: Atlas
    right: Atlas
    seeds: tuple

    def __post_init__(self):
        object.__setattr__(self, "seeds", tuple(self.seeds))
        if not self.seeds:
            raise QuasifoldError("a bi-atlas needs at least one seed germ")
        left_g = StructureGroupoid(self.left)
        right_g = StructureGroupoid(self.right)
        for z in self.seeds:
            left_g.require_point(z.src)
            right_g.require_point(z.trg)
            require_intertwines(z.map, self.left.chart(z.src.chart).group,
                                self.right.chart(z.dst_chart).group,
                                f"seed {z}")
        object.__setattr__(self, "_left_groupoid", left_g)
        object.__setattr__(self, "_right_groupoid", right_g)

    def left_groupoid(self) -> StructureGroupoid:
        return self._left_groupoid

    def right_groupoid(self) -> StructureGroupoid:
        return self._right_groupoid

    def inverse(self) -> "BiAtlas":
        """Swap the two atlases and invert every seed."""
        return BiAtlas(self.right, self.left,
                       tuple(invert_germ(z) for z in self.seeds))


def left_act(g: Arrow, z: LinkingGerm) -> LinkingGerm:
    """g · z : precompose, moving the source along g (needs trg(g) = src(z))."""
    if g.trg != z.src:
        raise NotComposableError(
            f"left action needs trg(g) = src(z); got {g.trg} vs {z.src}")
    return LinkingGerm(g.src, z.map.compose(g.map), z.dst_chart)


def right_act(z: LinkingGerm, gp: Arrow) -> LinkingGerm:
    """z · g' : postcompose, moving the class along g' (needs src(g') = trg(z))."""
    if gp.src != z.trg:
        raise NotComposableError(
            f"right action needs src(g') = trg(z); got {gp.src} vs {z.trg}")
    return LinkingGerm(z.src, gp.map.compose(z.map), gp.dst_chart)


def class_map(z: LinkingGerm) -> NebulaPoint:
    """The class of z in Z/G is determined by its target object."""
    return z.trg


def invert_germ(z: LinkingGerm) -> LinkingGerm:
    return LinkingGerm(z.trg, z.map.invert(), z.src.chart)


def quotient_witness(bi: BiAtlas, z: LinkingGerm, zp: LinkingGerm,
                     bound: int, *, words=None):
    """Arrow g of the left groupoid with zp = g · z, when the classes agree.

    Returns (arrow or None, certificate) with certificate one of
    "constructed", "classes-differ", "inconclusive-at-bound".  `words` is
    as for `StructureGroupoid.arrows_from`: a caller may share one dict of
    word searches among the calls of one operation.
    """
    if class_map(z) != class_map(zp):
        return None, "classes-differ"
    candidate = z.map.invert().compose(zp.map)
    for a in bi.left_groupoid().arrows_between(zp.src, z.src, bound,
                                               words=words):
        if a.map == candidate:
            return a, "constructed"
    return None, "inconclusive-at-bound"


def quotient_witness_right(bi: BiAtlas, z: LinkingGerm, zp: LinkingGerm,
                           bound: int, *, words=None):
    """Arrow g' of the right groupoid with zp = z · g', when sources agree;
    `words` is as for `quotient_witness`."""
    if z.src != zp.src:
        return None, "sources-differ"
    candidate = zp.map.compose(z.map.invert())
    for a in bi.right_groupoid().arrows_between(class_map(z), class_map(zp),
                                                bound, words=words):
        if a.map == candidate:
            return a, "constructed"
    return None, "inconclusive-at-bound"


def surjectivity_probe(bi: BiAtlas, point_prime: NebulaPoint,
                       bound: int, *, words=None) -> Optional[LinkingGerm]:
    """A germ whose class is the given right-atlas object, via bounded
    words; `words` is as for `quotient_witness`."""
    bi.right_groupoid().require_point(point_prime)
    for seed in bi.seeds:
        arrows = bi.right_groupoid().arrows_between(class_map(seed),
                                                    point_prime, bound,
                                                    words=words)
        if arrows:
            return right_act(seed, arrows[0])
    return None


def source_probe(bi: BiAtlas, point: NebulaPoint, bound: int, *,
                 words=None) -> Optional[LinkingGerm]:
    """A germ whose source is the given left-atlas object, via bounded
    words; `words` is as for `quotient_witness`, and without one the
    call's own searches share a dict."""
    left = bi.left_groupoid()
    left.require_point(point)
    if words is None:
        words = {}  # word searches shared by this call, see arrows_from
    for seed in bi.seeds:
        for g in left.fiber_over(seed.src, bound, words=words):
            if g.src == point:
                return left_act(g, seed)
        arrows = left.arrows_between(point, seed.src, bound, words=words)
        if arrows:
            return left_act(arrows[0], seed)
    return None


def generate_germs(bi: BiAtlas, word_length: int,
                   max_count: int = 5000) -> tuple:
    """All germs {g'-word} ∘ seed ∘ {g-word} with word data within the bound.

    Deterministic order: seeds in declaration order, then left arrows, then
    right arrows, deduplicated on (src, map, dst_chart), the first germ of
    each kept.  Each candidate costs one dict probe; the dict grows by at
    most one germ per candidate, so it passes max_count exactly when a new
    germ does.  On a domain-free atlas the word search from a chart does not
    depend on the point, so each groupoid searches each chart once per call.
    """
    left, right = bi.left_groupoid(), bi.right_groupoid()
    words = {}  # word searches shared by this call, see arrows_from
    seen = {}  # insertion-ordered set of germs
    for seed in bi.seeds:
        for g in left.fiber_over(seed.src, word_length, words=words):
            z1 = left_act(g, seed)
            rights = right.arrows_from(class_map(z1), word_length, words=words)
            for gp in rights:
                seen.setdefault(right_act(z1, gp))
                if len(seen) > max_count:
                    raise QuasifoldError(
                        f"germ generation exceeded {max_count} instances;"
                        " lower the word length")
    return tuple(seen)
