"""Countable affine group presentations with deterministic bounded enumeration.

Four presentation kinds cover the atlases used here: translation lattices over
Q+Qα, the full rational translations, closure-checked finite matrix groups, and
word-generated groups.  Enumeration is deterministic: shells of increasing
max-index (or word length), lexicographic inside a shell, so reports and
witnesses are reproducible.

Orbit questions are answered with three-valued honesty: a witness within the
bound, a certified "no element of the group works" (available for translation
kinds via coefficient obstructions and for finite groups by completeness), or
inconclusive-at-bound.

Each kind answers for itself (`contains`, `intertwining_sample`, `saturate`
of a `Coset`, `translations_only`), so no caller switches on the kind; the
`GroupPresentation` defaults never certify absence.

A translation lattice keeps one Z-basis of its generators, computed on first
use: B = U·G over the common denominator D.  Each membership query d is one
solve of B·c = D·d: d is in the lattice iff c is integral, and Uᵀc are its
coordinates when the generators are independent.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .errors import (DimensionMismatchError, EnumerationCapError,
                     InconclusiveAtBoundError, InconsistentTransitionError,
                     QuasifoldError)
from .exact import AffineElement, QAlpha, Trit, mat_vec, solve_linear, vec_eq

__all__ = [
    "GroupPresentation",
    "TranslationLattice",
    "RationalTranslations",
    "FiniteMatrixGroup",
    "GeneratedGroup",
    "Coset",
    "breadth_first",
    "require_intertwines",
    "enumerate_group",
    "orbit_witness",
]

SIZE_CAP = 2_000_000  # refuse enumerations estimated beyond this many elements
MEMO_CAP = 4_096  # enumerated elements a group instance keeps for reuse


def breadth_first(start, step, depth: int):
    """Bounded breadth-first search: (states, closed).

    Each state reachable from `start` in at most `depth` rounds of `step`
    (state -> iterable of states) is returned once, in discovery order: round
    by round, and inside a round in the order `step` yields them.  `closed`
    is true when a round found nothing new, so `states` is closed under
    `step`; false means the search ended at its bound.  States must be
    hashable; equal states count as one, and the object returned for a state
    is the first one yielded.  Each yielded state is hashed once: one `add`
    to the seen-set, which grows exactly when the state is new.
    """
    out, seen = [], set()
    for state in start:
        size = len(seen)
        seen.add(state)
        if len(seen) > size:
            out.append(state)
    frontier = list(out)
    for _ in range(depth):
        new = []
        for state in frontier:
            for cand in step(state):
                size = len(seen)
                seen.add(cand)
                if len(seen) > size:
                    out.append(cand)
                    new.append(cand)
        if not new:
            return out, True
        frontier = new
    return out, False


def _memoised(enumerate_fn):
    """Keep `enumerate(bound)` results on the group instance.

    A presentation is immutable, so its enumeration at a given bound never
    changes.  Results are stored per bound while the instance holds at most
    MEMO_CAP elements in total; a result that would pass the cap is returned
    but not stored, so it is recomputed on every call.  A call that raises
    (negative or over-cap bound) stores nothing and raises again next time.
    The memo lives and dies with the instance.
    """
    @functools.wraps(enumerate_fn)
    def enumerate(self, bound: int) -> tuple:
        memo = self.__dict__.get("_enumerated")
        if memo is None:
            memo = {}
            object.__setattr__(self, "_enumerated", memo)
        hit = memo.get(bound)
        if hit is None:
            hit = enumerate_fn(self, bound)
            if sum(map(len, memo.values())) + len(hit) <= MEMO_CAP:
                memo[bound] = hit
        return hit
    return enumerate


class GroupPresentation:
    """Base class; subclasses fill in enumeration and orbit decisions."""

    dimension: int
    hard_cap = 10_000  # largest enumeration bound any presentation accepts
    translations_only = False  # every element is a translation
    intertwining_sample = ()  # elements whose conjugates generate m·Γ·m⁻¹

    def enumerate(self, bound: int) -> tuple:
        raise NotImplementedError

    def contains(self, g: AffineElement, bound: int) -> Trit:
        """g ∈ Γ?  Here: found within the bound, else UNKNOWN (never FALSE)."""
        return Trit.TRUE if g in self.enumerate(bound) else Trit.UNKNOWN

    def saturate(self, coset: Coset) -> list:
        """The coset closed under Γ, as a list of cosets.  Here: no certificate."""
        raise InconclusiveAtBoundError(
            f"{type(self).__name__} admits no coset certificate")

    def orbit_status(self, x: Sequence[QAlpha], y: Sequence[QAlpha], bound: int):
        """Return (witness γ with γ·x = y and indices within bound, or None;
        Trit certainty). TRUE ⇒ witness returned; FALSE is certified for the
        whole group; UNKNOWN means not found within bound."""
        raise NotImplementedError

    def _check_bound(self, bound: int, estimated: int):
        if bound < 0:
            raise ValueError("bound must be nonnegative")
        if bound > self.hard_cap:
            raise EnumerationCapError(
                f"bound {bound} exceeds hard cap {self.hard_cap}")
        if estimated > SIZE_CAP:
            raise EnumerationCapError(
                f"enumeration would produce ~{estimated} elements")

    @property
    def is_dense(self) -> bool:
        """Heuristic: orbits are dense in R^n (forces global chart domains)."""
        return False


def _shell_tuples(k: int, bound: int):
    """Integer k-tuples ordered by (max|n_i|, tuple)."""
    for shell in range(bound + 1):
        lo, hi = -shell, shell
        for tup in itertools.product(range(lo, hi + 1), repeat=k):
            if shell == 0 or max(abs(t) for t in tup) == shell:
                yield tup


def _z_basis(vectors):
    """Echelon Z-basis of the Z-span of integer vectors, and the transform
    recorded by an identity block carried beside them: basis row k is
    Σ_i transform[k][i]·vectors[i].  Relations (zero rows) are dropped."""
    k = len(vectors)
    m = len(vectors[0]) if vectors else 0
    rows = [list(v) + [int(i == j) for j in range(k)]
            for i, v in enumerate(vectors)]
    pivot_row = 0
    for col in range(m):
        while True:
            live = [i for i in range(pivot_row, k) if rows[i][col] != 0]
            if len(live) <= 1:
                break
            live.sort(key=lambda i: abs(rows[i][col]))
            base = live[0]
            for i in live[1:]:
                q = rows[i][col] // rows[base][col]
                rows[i] = [a - q * b for a, b in zip(rows[i], rows[base])]
        live = [i for i in range(pivot_row, k) if rows[i][col] != 0]
        if not live:
            continue
        rows[pivot_row], rows[live[0]] = rows[live[0]], rows[pivot_row]
        if rows[pivot_row][col] < 0:
            rows[pivot_row] = [-a for a in rows[pivot_row]]
        pivot_row += 1
    return ([tuple(r[:m]) for r in rows[:pivot_row]],
            [tuple(r[m:]) for r in rows[:pivot_row]])


@dataclass(frozen=True)
class TranslationLattice(GroupPresentation):
    """Z-span of finitely many Q+Qα translation vectors."""

    generators: tuple
    translations_only = True

    def __post_init__(self):
        gens = tuple(tuple(v if isinstance(v, QAlpha) else QAlpha(Fraction(v))
                           for v in g) for g in self.generators)
        if not gens:
            raise ValueError("need at least one generator")
        n = len(gens[0])
        if not n:
            raise DimensionMismatchError("generators need dimension >= 1")
        if any(len(g) != n for g in gens):
            raise DimensionMismatchError("generator dimension mismatch")
        object.__setattr__(self, "generators", gens)

    @property
    def dimension(self) -> int:
        return len(self.generators[0])

    def _combination(self, tup) -> tuple:
        n = self.dimension
        out = [QAlpha() for _ in range(n)]
        for c, g in zip(tup, self.generators):
            if c:
                for j in range(n):
                    out[j] = out[j] + g[j].scale(c)
        return tuple(out)

    @_memoised
    def enumerate(self, bound: int) -> tuple:
        k = len(self.generators)
        self._check_bound(bound, (2 * bound + 1) ** k)
        seen, out = set(), []
        for tup in _shell_tuples(k, bound):
            vec = self._combination(tup)
            if vec not in seen:
                seen.add(vec)
                out.append(AffineElement.translation(vec))
        return tuple(out)

    @functools.cached_property
    def _basis(self):
        """(D, B, U): G holds each generator's p-parts then q-parts times the
        common denominator D; B is an echelon Z-basis of G's span, B = U·G."""
        ts = [[v.triple for v in g] for g in self.generators]
        den = math.lcm(*[t[2] for g in ts for t in g])
        vectors = [tuple(t[0] * (den // t[2]) for t in g)
                   + tuple(t[1] * (den // t[2]) for t in g) for g in ts]
        return (den, *_z_basis(vectors))

    def _basis_coordinates(self, d: Sequence[QAlpha]):
        """The integers c with B·c = D·d (unique: B has independent rows), or
        None when d is not in the lattice.  Row k of the one `solve_linear`
        is multiplied by the denominator of d's part k."""
        if len(d) != self.dimension:
            raise DimensionMismatchError(f"{len(d)}-vector for a lattice in "
                                         f"dimension {self.dimension}")
        den, basis, _ = self._basis
        ts = [v.triple for v in d]
        nums = [t[0] for t in ts] + [t[1] for t in ts]
        dens = [t[2] for t in ts] * 2
        rows = [[b[k] * dens[k] for b in basis] for k in range(len(nums))]
        status, sol = solve_linear(rows, [den * x for x in nums])
        if status == "none" or any(c.denominator != 1 for c in sol):
            return None
        return [int(c) for c in sol]

    @property
    def is_dense(self) -> bool:
        # dense (in the cases used here) iff Z-rank exceeds the dimension; a
        # finitely generated subgroup of Q^m has Z-rank equal to its Q-rank
        return len(self._basis[1]) > self.dimension

    def contains_value(self, d: Sequence[QAlpha]) -> Trit:
        """Certified membership of d in the lattice, bound-independent."""
        return Trit.FALSE if self._basis_coordinates(d) is None else Trit.TRUE

    def membership(self, d: Sequence[QAlpha], bound: int):
        """Decide d ∈ lattice with a witness inside the index bound:
        (integer coordinates or None, Trit).  FALSE is certified for the whole
        lattice; UNKNOWN means "in the lattice but not within bound" or
        "not found within bound"."""
        sol = self._basis_coordinates(d)
        if sol is None:
            return None, Trit.FALSE
        _, basis, transform = self._basis
        k = len(self.generators)
        if len(basis) == k:
            # independent generators: Uᵀc are the unique coordinates
            coords = [sum(c * u[i] for c, u in zip(sol, transform))
                      for i in range(k)]
            if max(abs(c) for c in coords) <= bound:
                return coords, Trit.TRUE
            return None, Trit.UNKNOWN
        # dependent generators: d is in the lattice; look for a witness
        target = tuple(d)
        for tup in _shell_tuples(k, min(bound, self.hard_cap)):
            if vec_eq(self._combination(tup), target):
                return list(tup), Trit.TRUE
        return None, Trit.UNKNOWN

    def orbit_status(self, x, y, bound: int):
        d = tuple(b - a for a, b in zip(x, y))
        _, status = self.membership(d, bound)
        if status is Trit.TRUE:
            return AffineElement.translation(d), Trit.TRUE  # d is the witness
        return None, status

    def contains(self, g: AffineElement, bound: int) -> Trit:
        return (self.membership(g.b, bound)[1] if g.is_translation
                else Trit.FALSE)

    @property
    def intertwining_sample(self) -> tuple:
        return tuple(AffineElement.translation(g) for g in self.generators)

    def saturate(self, coset: Coset) -> list:
        gens = list(coset.gens)
        gens += [g for g in dict.fromkeys(self.generators) if g not in gens]
        return [Coset(coset.base, tuple(gens), coset.rational_full)]


@dataclass(frozen=True)
class RationalTranslations(GroupPresentation):
    """All rational translations of R^n, height-ordered enumeration."""

    dimension: int = 1
    translations_only = True

    def __post_init__(self):
        d = self.dimension
        if d.__class__ is not int or d < 1:
            raise QuasifoldError(
                f"rational translations need an integer dimension >= 1, "
                f"got {d!r}")

    @staticmethod
    def _line_values(bound: int):
        vals = [Fraction(0)]
        for h in range(1, bound + 1):
            shell = set()
            for q in range(1, h + 1):
                for p in range(-h, h + 1):
                    f = Fraction(p, q)
                    # f == 0 is the seed value; 0/1 would re-enter at h == 1
                    if f != 0 and max(abs(f.numerator), f.denominator) == h:
                        shell.add(f)
            vals.extend(sorted(shell, key=lambda f: (f.denominator, f)))
        return vals

    @_memoised
    def enumerate(self, bound: int) -> tuple:
        line = self._line_values(bound)
        self._check_bound(bound, len(line) ** self.dimension)
        return tuple(AffineElement.translation(tuple(QAlpha(v) for v in tup))
                     for tup in itertools.product(line, repeat=self.dimension))

    @property
    def is_dense(self) -> bool:
        return True

    def orbit_status(self, x, y, bound: int):
        d = tuple(b - a for a, b in zip(x, y))
        if not all(v.is_rational for v in d):
            return None, Trit.FALSE  # α-coefficient obstruction
        # a rational value's triple (a, 0, d) has gcd(a, d) = 1: p = a/d reduced
        height = max((max(abs(v.triple[0]), v.triple[2]) for v in d),
                     default=0)
        if height <= bound:
            return AffineElement.translation(d), Trit.TRUE
        return None, Trit.UNKNOWN

    def contains(self, g: AffineElement, bound: int) -> Trit:
        rational = g.is_translation and all(v.is_rational for v in g.b)
        return Trit.TRUE if rational else Trit.FALSE

    def saturate(self, coset: Coset) -> list:
        return [Coset(coset.base, coset.gens, True)]


@dataclass(frozen=True)
class FiniteMatrixGroup(GroupPresentation):
    """Explicit finite affine group; closure is checked at construction."""

    elements: tuple

    def __post_init__(self):
        elems = tuple(self.elements)
        if not elems:
            raise ValueError("finite group needs elements")
        n = elems[0].n
        if any(e.n != n for e in elems):
            raise DimensionMismatchError("element dimension mismatch")
        seen = set(elems)
        if len(seen) != len(elems):
            raise ValueError("duplicate elements in finite group")
        if AffineElement.identity(n) not in seen:
            raise ValueError("finite group must contain the identity")
        for g in elems:
            if g.invert() not in seen:
                raise ValueError(f"not closed under inversion: {g}")
            for h in elems:
                if g.compose(h) not in seen:
                    raise ValueError(f"not closed under composition: {g}, {h}")
        object.__setattr__(self, "elements", elems)

    @property
    def dimension(self) -> int:
        return self.elements[0].n

    def enumerate(self, bound: int) -> tuple:
        self._check_bound(bound, len(self.elements))
        return self.elements

    def orbit_status(self, x, y, bound: int):
        for g in self.elements:
            if vec_eq(g.apply(x), y):
                return g, Trit.TRUE
        return None, Trit.FALSE  # complete search: certified

    def contains(self, g: AffineElement, bound: int) -> Trit:
        return Trit.TRUE if g in self.elements else Trit.FALSE

    intertwining_sample = property(lambda self: self.elements)

    def saturate(self, coset: Coset) -> list:
        return [coset.moved(g) for g in self.elements]


@dataclass(frozen=True)
class GeneratedGroup(GroupPresentation):
    """Group generated by affine elements; bounded word enumeration only, so
    negative orbit answers are never certified."""

    generators: tuple

    def __post_init__(self):
        gens = tuple(self.generators)
        if not gens:
            raise ValueError("need at least one generator")
        n = gens[0].n
        if any(g.n != n for g in gens):
            raise DimensionMismatchError("generator dimension mismatch")
        object.__setattr__(self, "generators", gens)

    @property
    def dimension(self) -> int:
        return self.generators[0].n

    @_memoised
    def enumerate(self, bound: int) -> tuple:
        self._check_bound(bound, (2 * len(self.generators)) ** max(bound, 1))
        letters = []
        for g in self.generators:
            for letter in (g, g.invert()):
                if letter not in letters:
                    letters.append(letter)
        words, _ = breadth_first(
            [AffineElement.identity(self.dimension)],
            lambda w: (letter.compose(w) for letter in letters), bound)
        return tuple(words)

    def orbit_status(self, x, y, bound: int):
        for g in self.enumerate(bound):
            if vec_eq(g.apply(x), y):
                return g, Trit.TRUE
        return None, Trit.UNKNOWN

    intertwining_sample = property(lambda self: self.generators)


@dataclass(frozen=True)
class Coset:
    """base + Z-span(gens) (+ all rational translations when rational_full),
    inside one chart: the set of points a group/transition word can reach.

    Equality is equality of point sets, decided where a certificate exists:
    a base difference that cannot be certified counts as unequal.  The hash
    ignores the base."""

    base: tuple
    gens: tuple
    rational_full: bool = False

    def __eq__(self, other) -> bool:
        if (self.rational_full != other.rational_full
                or len(self.gens) != len(other.gens)
                or set(self.gens) != set(other.gens)):
            return False
        return bool(self.contains_point(other.base))

    def __hash__(self) -> int:
        return hash((self.rational_full, frozenset(self.gens)))

    @functools.cached_property
    def _lattice(self) -> Optional[TranslationLattice]:
        """The lattice of the generators (None for {0}), or of their α-parts
        when rational_full: taking α-parts is Z-linear with kernel Qᵐ, so d
        is in Qᵐ + Z-span(gens) iff its α-part is in the α-parts' Z-span."""
        gens = map(_alpha_part, self.gens) if self.rational_full else self.gens
        gens = tuple(g for g in gens if not all(v.is_zero for v in g))
        return TranslationLattice(gens) if gens else None

    def contains_point(self, coords) -> bool:
        d = tuple(b - a for a, b in zip(self.base, coords))
        if self.rational_full:
            d = _alpha_part(d)
        if self._lattice is None:
            return all(v.is_zero for v in d)
        return self._lattice.contains_value(d) is Trit.TRUE

    def moved(self, m: AffineElement) -> Coset:
        """Image of the coset under the affine map m."""
        gens = tuple(mat_vec(m.a, vec) for vec in self.gens)
        return Coset(m.apply(self.base), gens, self.rational_full)


def _alpha_part(vec) -> tuple:
    return tuple(QAlpha(0, v.q) for v in vec)


def membership_status(group: GroupPresentation, g: AffineElement, bound: int) -> Trit:
    """Is the affine element g a member of the group?  (`group.contains`.)"""
    return group.contains(g, bound)


def require_intertwines(m: AffineElement, src: GroupPresentation,
                        dst: GroupPresentation, what: str) -> None:
    """Check that m carries src into dst, raising
    InconsistentTransitionError when it certifiably does not.

    The rational translations pass only into the rational translations:
    m·Qⁿ·m⁻¹ = Qⁿ for a rational linear part, and no lattice, finite group
    or finitely generated linear group contains the divisible group Q
    (Mal'cev 1940).  Any other src is checked on a finite sample whose
    conjugates generate m·src·m⁻¹: the generators of a lattice or generated
    group, every element of a finite group.  There only a certified FALSE
    m·γ·m⁻¹ ∉ dst raises; it never depends on the membership bound, so
    membership is asked at bound 0 and an inconclusive answer passes.  A
    generated dst certifies no FALSE, so only a Q src is refused there.  A
    src kind whose `intertwining_sample` is empty passes unchecked."""
    if isinstance(src, RationalTranslations):
        if not isinstance(dst, RationalTranslations):
            raise InconsistentTransitionError(
                f"{what} does not intertwine the groups: the rational "
                f"translations fit in no {type(dst).__name__}")
        return
    inv = m.invert()
    for gamma in src.intertwining_sample:
        if dst.contains(m.compose(gamma).compose(inv), 0) is Trit.FALSE:
            raise InconsistentTransitionError(
                f"{what} does not intertwine the groups: {gamma} "
                "conjugates outside the target group")


def enumerate_group(group: GroupPresentation, bound: int) -> tuple:
    """Deterministic bounded enumeration (shell order; see module docstring)."""
    return group.enumerate(bound)


def orbit_witness(x, y, group: GroupPresentation, bound: int) -> Optional[AffineElement]:
    """γ with γ·x = y within the enumeration bound, else None.  None means
    "not found within bound" — callers needing certified absence should use
    `orbit_status`."""
    return group.orbit_status(tuple(x), tuple(y), bound)[0]
