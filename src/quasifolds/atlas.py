"""Quasifold atlases and their structure groupoids.

A chart is a domain in R^n together with the countable affine group Γ that
identifies points with the same image in the quasifold; a transition is a
declared affine germ between chart domains compatible with the chart maps.
An atlas keeps only the declared transitions that add arrows: identity
self-transitions are dropped, and no transition is implied.
The structure groupoid has the disjoint union of chart domains as objects and
germs of ev-absorbed local diffeomorphisms as arrows, each represented by a
globally affine map.  However a `StructureGroupoid` is built
(`build_groupoid` is the same call), it first spot-checks every declared
transition with `groups.require_intertwines`, the check a bi-atlas applies
to its linking seeds.

Point equality on the quasifold is bounded-decidable: arrows found within a
bound certify "equal"; coefficient/lattice obstructions (computed on a
saturated set of reachable affine cosets) certify "not equal"; otherwise the
answer is inconclusive-at-bound.

Word generation, transition routes and the reachable-coset walk are each a
start set plus a step function handed to `groups.breadth_first`; its
`closed` flag is what allows a "not equal" certificate.  The walk's states
are (chart, `groups.Coset`) pairs, closed by each chart group's `saturate`;
cosets compare as point sets, so the walk deduplicates them like any other
state.  This module asks the chart groups and names no group kind.

On a domain-free atlas (no chart has a domain) every chart test is true, so
the word search never looks at a point: its states depend only on the start
chart and the bound.  One operation that searches from many points may then
pass the same plain dict as `words` to each search, and each (groupoid,
chart, bound) is searched once; the dict is the caller's and lives no longer
than its call.  An atlas with any domain ignores the dict.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .errors import (DimensionMismatchError, InconclusiveAtBoundError,
                     InconsistentTransitionError, PrecisionInsufficientError,
                     QuasifoldError)
from .exact import AffineElement, QAlpha, Trit, default_witness, vec_eq
from .groupoid import Arrow, NebulaPoint, arrow_invert
from .groups import (Coset, GroupPresentation, breadth_first,
                     require_intertwines)

__all__ = [
    "Interval", "Chart", "Transition", "Atlas", "StructureGroupoid",
    "QuasifoldPointHandle", "AssemblyReport", "build_groupoid",
    "CircleArrow", "circle_arrow_compose", "circle_arrow_invert",
    "phi_object", "phi_arrow",
]

ROUTE_CAP = 8  # transition layers searched for reachable cosets and routes


# ---------------------------------------------------------------------------
# charts and atlases
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Interval:
    """Open interval with optional Q+Qα endpoints (None = unbounded)."""

    lo: Optional[QAlpha] = None
    hi: Optional[QAlpha] = None

    def contains(self, x: QAlpha) -> bool:
        w = default_witness()
        if self.lo is not None and w.compare(x, self.lo) <= 0:
            return False
        if self.hi is not None and w.compare(self.hi, x) <= 0:
            return False
        return True

    def midpoint(self) -> QAlpha:
        if self.lo is not None and self.hi is not None:
            return (self.lo + self.hi).scale(Fraction(1, 2))
        if self.lo is not None:
            return self.lo + QAlpha(1)
        if self.hi is not None:
            return self.hi - QAlpha(1)
        return QAlpha()


@dataclass(frozen=True)
class Chart:
    """Chart domain + identification group; `label` names the chart map."""

    id: str
    group: GroupPresentation
    domain: Optional[tuple] = None  # tuple[Interval, ...] or None = all of R^n
    label: str = ""

    def __post_init__(self):
        if self.domain is not None:
            dom = tuple(self.domain)
            if len(dom) != self.group.dimension:
                raise QuasifoldError("domain/group dimension mismatch")
            object.__setattr__(self, "domain", dom)
        if self.group.is_dense and self.domain is not None:
            raise QuasifoldError(
                f"chart {self.id}: dense identification group needs a global domain")

    @property
    def dimension(self) -> int:
        return self.group.dimension

    def contains(self, coords: Sequence[QAlpha]) -> bool:
        if self.domain is None:
            return True
        return all(iv.contains(c) for iv, c in zip(self.domain, coords))


@dataclass(frozen=True)
class Transition:
    """Declared affine germ from chart `src` to chart `dst` (on their overlap)."""

    src: str
    dst: str
    map: AffineElement


@dataclass(frozen=True)
class Atlas:
    charts: tuple
    transitions: tuple = ()

    def __post_init__(self):
        charts = tuple(self.charts)
        if not charts:
            raise QuasifoldError("an atlas needs at least one chart")
        ids = [c.id for c in charts]
        if len(set(ids)) != len(ids):
            raise QuasifoldError("duplicate chart ids")
        dims = {c.dimension for c in charts}
        if len(dims) != 1:
            raise QuasifoldError("charts of mixed dimension")
        n = dims.pop()
        trans = tuple(self.transitions)
        for t in trans:
            if t.src not in ids or t.dst not in ids:
                raise QuasifoldError(f"transition references unknown chart: {t}")
            if t.map.n != n:
                raise QuasifoldError("transition dimension mismatch")
        # an identity self-transition adds no arrow: the group layers of a
        # chart already hold the identity
        trans = tuple(t for t in trans
                      if not (t.src == t.dst and t.map.is_identity))
        object.__setattr__(self, "charts", charts)
        object.__setattr__(self, "transitions", trans)

    @property
    def dimension(self) -> int:
        return self.charts[0].dimension

    def chart(self, cid: str) -> Chart:
        for c in self.charts:
            if c.id == cid:
                return c
        raise KeyError(cid)


# ---------------------------------------------------------------------------
# structure groupoid
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class QuasifoldPointHandle:
    """Opaque handle for a quasifold point; equality is three-valued."""

    groupoid: "StructureGroupoid"
    point: NebulaPoint
    default_bound: int = 3

    def same_as(self, other: "QuasifoldPointHandle", bound: Optional[int] = None) -> Trit:
        if self.groupoid is not other.groupoid:
            raise QuasifoldError("handles from different groupoids")
        if bound is None:
            bound = self.default_bound
        return self.groupoid.same_point(self.point, other.point, bound)

    def __str__(self):
        return f"[{self.point}]"


@dataclass(frozen=True)
class AssemblyReport:
    point: NebulaPoint
    bound: int
    blocks: tuple      # (chart_id, objects: tuple[coords], arrows: tuple[Arrow])
    connections: tuple  # Arrow per adjacent chart pair
    isotropy: tuple    # arrows fixing the representative

    def to_json(self):
        return {
            "point": self.point.to_json(),
            "bound": self.bound,
            "blocks": [
                {
                    "chart": cid,
                    "objects": [[str(c) for c in o] for o in objs],
                    "arrows": [a.to_json() for a in arrows],
                }
                for cid, objs, arrows in self.blocks
            ],
            "connections": [a.to_json() for a in self.connections],
            "isotropy": {
                "order": len(self.isotropy),
                "arrows": [a.to_json() for a in self.isotropy],
            },
        }


class StructureGroupoid:
    """Arrow calculus over an atlas: bounded word generation, fibers,
    three-valued point equality, assembly reports.  Chart-domain tests order
    points under the default witness current at each call.  Construction
    refuses a declared transition whose overlap sample is empty or that is
    certified not to intertwine its charts' groups."""

    def __init__(self, atlas: Atlas):
        for t in atlas.transitions:
            src, dst = atlas.chart(t.src), atlas.chart(t.dst)
            if _overlap_sample(src, dst, t.map) is None:
                raise InconsistentTransitionError(
                    f"transition {t.src}→{t.dst}: empty overlap sample")
            require_intertwines(t.map, src.group, dst.group,
                                f"transition {t.src}→{t.dst}")
        self.atlas = atlas
        self._letters = self._transition_letters()
        self._domain_free = all(c.domain is None for c in atlas.charts)

    # -- structural helpers --
    def _transition_letters(self):
        letters = {}
        for t in self.atlas.transitions:
            for src, letter in ((t.src, (t.dst, t.map)),
                                (t.dst, (t.src, t.map.invert()))):
                out = letters.setdefault(src, [])
                if letter not in out:
                    out.append(letter)
        return letters

    def valid_point(self, point: NebulaPoint) -> bool:
        """Whether the point lies in its chart's domain.  A point of an
        unknown chart or with the wrong number of coordinates is no point of
        this atlas, and is refused."""
        try:
            chart = self.atlas.chart(point.chart)
        except KeyError:
            raise QuasifoldError(
                f"point {point}: unknown chart {point.chart!r}") from None
        if len(point.coords) != chart.dimension:
            raise DimensionMismatchError(
                f"point {point} has {len(point.coords)} coordinate(s), "
                f"the atlas has dimension {chart.dimension}")
        return chart.contains(point.coords)

    def require_point(self, point: NebulaPoint) -> NebulaPoint:
        if not self.valid_point(point):
            raise QuasifoldError(f"point {point} outside its chart domain")
        return point

    # -- word generation --
    def _states_from(self, v: NebulaPoint, bound: int, *, words=None):
        """Deterministic BFS over (chart, affine word map) pairs starting at v.
        Words alternate a full group layer (elements enumerated within bound)
        with single transition letters, up to `bound` transitions.

        Returns a tuple of (chart, map, base) triples in discovery order,
        where base is the word the state's group layer was built on: the
        first layer that produced the state.  The states of one layer differ
        by elements of that chart's group, so their points lie in one group
        orbit.

        On a domain-free atlas the states depend only on (v.chart, bound),
        not on v's coordinates.  Then a dict passed as `words` keeps them
        under (self, v.chart, bound), and a later search of the same key
        returns them; the caller creates the dict for one operation and
        drops it.  An atlas with any domain searches per point and leaves
        the dict untouched."""
        key = (self, v.chart, bound)
        shared = words is not None and self._domain_free
        if shared and key in words:
            return words[key]
        base_of = {}  # id of each yielded state -> base of its layer

        def group_layer(chart_id, m):
            chart = self.atlas.chart(chart_id)
            for g in chart.group.enumerate(bound):
                m2 = g.compose(m)
                if chart.domain is None or chart.contains(m2.apply(v.coords)):
                    state = (chart_id, m2)
                    base_of[id(state)] = m
                    yield state

        def step(state):
            chart_id, m = state
            letters = self._letters.get(chart_id)
            if not letters:
                return
            pt = m.apply(v.coords)
            for dst, tmap in letters:
                if self.atlas.chart(dst).contains(tmap.apply(pt)):
                    yield from group_layer(dst, tmap.compose(m))

        start = group_layer(v.chart, AffineElement.identity(len(v.coords)))
        states = breadth_first(start, step, bound)[0]
        # breadth_first keeps the first yielded object of each state alive to
        # here, so no later yield can have reused its id
        states = tuple((*state, base_of[id(state)]) for state in states)
        if shared:
            words[key] = states
        return states

    def arrows_from(self, v: NebulaPoint, bound: int, *, words=None) -> tuple:
        """All arrows with source v and word length within bound, in the
        word search's order.  `words` is as for `_states_from`: on a
        domain-free atlas one operation may share the search among points."""
        self.require_point(v)
        return tuple(Arrow(v, m, chart_id) for chart_id, m, _
                     in self._states_from(v, bound, words=words))

    def fiber_over(self, v: NebulaPoint, bound: int, *, words=None) -> tuple:
        """All arrows with target v and word length within bound; `words`
        is as for `arrows_from`."""
        return tuple(arrow_invert(a)
                     for a in self.arrows_from(v, bound, words=words))

    def arrows_between(self, v: NebulaPoint, w: NebulaPoint, bound: int, *,
                       words=None) -> tuple:
        """Arrows v → w within bound, each once, in the order the word search
        finds them; empty is not a nonexistence certificate.

        An arrow into a chart is fixed by its linear part A: it is
        x ↦ A(x − v) + w.  When w's chart group is a translation presentation
        every witness is a translation, so a state whose linear part already
        gave an arrow can only give that arrow again, and its orbit decision
        is skipped.  A certified FALSE holds for the whole group orbit, so it
        settles every other state of the same group layer too.  Other group
        kinds decide every state.  `words` is as for `arrows_from`."""
        self.require_point(v)
        self.require_point(w)
        group = self.atlas.chart(w.chart).group
        translations = group.translations_only
        maps = {}  # word maps v → w, each once, in discovery order
        linear_done, layers_false = set(), set()
        for chart_id, m, base in self._states_from(v, bound, words=words):
            if chart_id != w.chart:
                continue
            if translations and (m.a in linear_done or base in layers_false):
                continue
            g, status = group.orbit_status(m.apply(v.coords), w.coords, bound)
            if status is Trit.TRUE:
                maps.setdefault(g.compose(m))
                linear_done.add(m.a)
            elif status is Trit.FALSE:
                layers_false.add(base)
        return tuple(Arrow(v, full, w.chart) for full in maps)

    # -- three-valued point equality --
    def _reachable_cosets(self, v: NebulaPoint):
        """The (chart, coset) pairs reachable from v by group and transition
        words, or None when no certificate is available: a chart group admits
        none, or the walk did not close within ROUTE_CAP transition layers."""
        def saturate(chart_id, coset):
            group = self.atlas.chart(chart_id).group
            return [(chart_id, c) for c in group.saturate(coset)]

        def step(state):
            chart_id, coset = state
            for dst, tmap in self._letters.get(chart_id, ()):
                yield from saturate(dst, coset.moved(tmap))

        try:
            start = saturate(v.chart, Coset(tuple(v.coords), ()))
            cosets, closed = breadth_first(start, step, ROUTE_CAP)
        except InconclusiveAtBoundError:
            return None
        return cosets if closed else None

    def same_point(self, v: NebulaPoint, w: NebulaPoint, bound: int) -> Trit:
        self.require_point(v)
        self.require_point(w)
        if v.chart == w.chart and vec_eq(v.coords, w.coords):
            return Trit.TRUE
        if self.arrows_between(v, w, bound):
            return Trit.TRUE
        return self._coset_status(v, w)

    def _coset_status(self, v: NebulaPoint, w: NebulaPoint) -> Trit:
        """Verdict for a pair the word search did not connect: FALSE when the
        reachable cosets certify that w is not in v's orbit, else UNKNOWN."""
        cosets = self._reachable_cosets(v)
        if cosets is None:
            return Trit.UNKNOWN
        if any(c.contains_point(w.coords)
               for chart_id, c in cosets if chart_id == w.chart):
            return Trit.UNKNOWN  # reachable, but not within this bound
        return Trit.FALSE

    def evaluate(self, point: NebulaPoint, default_bound: int = 3) -> QuasifoldPointHandle:
        """Image of a nebula point on the quasifold, as an opaque handle."""
        return QuasifoldPointHandle(self, self.require_point(point), default_bound)

    # -- assembly --
    def _route_maps(self, src_chart: str):
        """Transition-only words from src_chart: [(dst_chart, map)], each
        once, within ROUTE_CAP transitions."""
        def step(state):
            chart_id, m = state
            return [(dst, tmap.compose(m))
                    for dst, tmap in self._letters.get(chart_id, ())]

        start = [(src_chart, AffineElement.identity(self.atlas.dimension))]
        return breadth_first(start, step, ROUTE_CAP)[0]

    def isotropy_and_assembly(self, v: NebulaPoint, bound: int) -> AssemblyReport:
        self.require_point(v)
        routes = self._route_maps(v.chart)
        chart_order = [v.chart] + [c.id for c in self.atlas.charts if c.id != v.chart]
        blocks = []
        objects_by_chart = {}
        for cid in chart_order:
            chart = self.atlas.chart(cid)
            bases = []
            for dst, m in routes:
                if dst != cid:
                    continue
                pt = m.apply(v.coords)
                if chart.contains(pt) and pt not in bases:
                    bases.append(pt)
            objects = []
            for base in bases:
                for g in chart.group.enumerate(bound):
                    pt = g.apply(base)
                    if chart.contains(pt) and pt not in objects:
                        objects.append(pt)
            objects.sort(key=lambda o: tuple(c.sort_key() for c in o))
            if not objects:
                continue
            arrows = []
            for o in objects:
                for g in chart.group.enumerate(bound):
                    if chart.contains(g.apply(o)):
                        arrows.append(Arrow(NebulaPoint(cid, o), g, cid))
            objects_by_chart[cid] = objects
            blocks.append((cid, tuple(objects), tuple(arrows)))
        connections = []
        done_pairs = set()
        for t in self.atlas.transitions:
            if t.src == t.dst:
                continue
            pair = frozenset((t.src, t.dst))
            if pair in done_pairs or t.src not in objects_by_chart \
                    or t.dst not in objects_by_chart:
                continue
            for o in objects_by_chart[t.src]:
                img = t.map.apply(o)
                if self.atlas.chart(t.dst).contains(img):
                    connections.append(Arrow(NebulaPoint(t.src, o), t.map, t.dst))
                    done_pairs.add(pair)
                    break
        isotropy = []
        chart = self.atlas.chart(v.chart)
        for g in chart.group.enumerate(bound):
            if vec_eq(g.apply(v.coords), v.coords):
                isotropy.append(Arrow(v, g, v.chart))
        return AssemblyReport(v, bound, tuple(blocks), tuple(connections),
                              tuple(isotropy))


def build_groupoid(atlas: Atlas) -> StructureGroupoid:
    """The structure groupoid of the atlas (same as `StructureGroupoid`)."""
    return StructureGroupoid(atlas)


def _overlap_sample(src: Chart, dst: Chart, m: AffineElement):
    """A point of dom(src) whose image lies in dom(dst), or None.

    The candidates are the midpoint and the quarter points of dom(src) (on
    a half-bounded side, one unit inside its finite end), then, when m's
    linear part is diagonal, the midpoint of the overlap box.  A near-tie
    (PrecisionInsufficientError) counts as a miss."""
    for pt in _sample_candidates(src, dst, m):
        try:
            if src.contains(pt) and dst.contains(m.apply(pt)):
                return pt
        except PrecisionInsufficientError:
            continue
    return None


def _sample_candidates(src: Chart, dst: Chart, m: AffineElement):
    if src.domain is None:
        yield tuple(QAlpha() for _ in range(src.dimension))
    else:
        for t in (Fraction(1, 2), Fraction(1, 4), Fraction(3, 4)):
            yield tuple(iv.lo + (iv.hi - iv.lo).scale(t)
                        if iv.lo is not None and iv.hi is not None
                        else iv.midpoint() for iv in src.domain)
    if all(x == 0 for i, row in enumerate(m.a)
           for j, x in enumerate(row) if i != j):
        box = _overlap_box(src, dst, m)
        if box is not None:
            yield tuple(iv.midpoint() for iv in box)


def _overlap_box(src: Chart, dst: Chart, m: AffineElement):
    """dom(src) ∩ m⁻¹(dom(dst)) as intervals, for m with a diagonal linear
    part (possibly empty: an interval whose lo is not below its hi), or
    None on a near-tie.  On coordinate i m is x ↦ s·x + b, and the preimage
    of (lo, hi) is ((lo − b)/s, (hi − b)/s), its ends swapped when s < 0."""
    compare = default_witness().compare
    box = []
    for i in range(src.dimension):
        s, b = m.a[i][i], m.b[i]
        inv = Fraction(1, s)
        pre = [None if e is None else (e - b).scale(inv)
               for e in _ends(dst.domain, i)]
        if s < 0:
            pre.reverse()
        lo, hi = _ends(src.domain, i)
        try:
            if lo is None or pre[0] is not None and compare(pre[0], lo) > 0:
                lo = pre[0]
            if hi is None or pre[1] is not None and compare(pre[1], hi) < 0:
                hi = pre[1]
        except PrecisionInsufficientError:
            return None
        box.append(Interval(lo, hi))
    return box


def _ends(domain, i: int) -> tuple:
    """(lo, hi) of coordinate i of a chart domain (None = unbounded)."""
    return (None, None) if domain is None else (domain[i].lo, domain[i].hi)


# ---------------------------------------------------------------------------
# circle model on R/Z and the comparison functor
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CircleArrow:
    """Arrow of the rotation groupoid on R/Z: source point and rotation amount,
    both canonical mod-1 Q+Qα values."""

    src: QAlpha
    rot: QAlpha

    def __post_init__(self):
        object.__setattr__(self, "src", self.src.mod1())
        object.__setattr__(self, "rot", self.rot.mod1())

    @property
    def trg(self) -> QAlpha:
        return (self.src + self.rot).mod1()

    def __str__(self):
        return f"({self.src} ⟳{self.rot})"

    __repr__ = __str__


def circle_arrow_compose(a: CircleArrow, b: CircleArrow) -> CircleArrow:
    from .errors import NotComposableError
    if a.trg != b.src:
        raise NotComposableError(f"trg {a.trg} ≠ src {b.src}")
    return CircleArrow(a.src, a.rot + b.rot)


def circle_arrow_invert(a: CircleArrow) -> CircleArrow:
    return CircleArrow(a.trg, -a.rot)


def phi_object(x: QAlpha) -> QAlpha:
    """Object part of the comparison functor to the circle model: x ↦ x mod Z."""
    return x.mod1()


def phi_arrow(a: Arrow) -> CircleArrow:
    """Arrow part: a line-model translation arrow (x, t_{n+αm}) maps to the
    rotation arrow (x mod Z, rotation by αm) — integer translation parts die."""
    if not a.map.is_translation or a.map.n != 1:
        raise QuasifoldError("functor defined on 1-D translation arrows")
    return CircleArrow(a.src.coords[0], a.map.b[0])
