"""Ready-made atlases and bi-atlases: the irrational torus, its duplicated and
rescaled variants, the reflection orbifold R/{±1}, and the rational quotient
R/Q.  These are the worked models exercised by the CLI and the test suite."""

from __future__ import annotations

from fractions import Fraction

from .atlas import Atlas, Chart, Interval, Transition
from .bimodule import BiAtlas, LinkingGerm
from .exact import AffineElement, qa
from .groupoid import NebulaPoint
from .groups import FiniteMatrixGroup, RationalTranslations, TranslationLattice

__all__ = [
    "z_alpha_lattice", "t_alpha_atlas", "t_alpha_duplicated_atlas",
    "reflection_orbifold_atlas", "rational_quotient_atlas",
    "two_scale_lattice", "two_scale_atlas", "duplicated_biatlas",
    "two_scale_biatlas", "builtin_atlases", "get_atlas",
    "builtin_biatlases", "get_biatlas",
]


def z_alpha_lattice() -> TranslationLattice:
    """Z + αZ acting on the line: the irrational torus identification group."""
    return TranslationLattice(((qa(1),), (qa(0, 1),)))


def two_scale_lattice() -> TranslationLattice:
    """(1/2)(Z + αZ): the identification group of the halved global chart."""
    return TranslationLattice(((qa(Fraction(1, 2)),), (qa(0, Fraction(1, 2)),)))


def t_alpha_atlas() -> Atlas:
    return Atlas((Chart("main", z_alpha_lattice(), None, label="class"),))


def t_alpha_duplicated_atlas() -> Atlas:
    """Same quasifold, two identical global charts glued by the identity."""
    lat = z_alpha_lattice()
    return Atlas(
        (Chart("a", lat, None, label="class"),
         Chart("b", lat, None, label="class")),
        (Transition("a", "b", AffineElement.identity(1)),),
    )


def reflection_orbifold_atlas() -> Atlas:
    """R/{±1} with a reflection chart around the fixed point and a trivial
    chart away from it, glued by the identity on their overlap."""
    refl = FiniteMatrixGroup((
        AffineElement.identity(1),
        AffineElement.linear(((Fraction(-1),),)),
    ))
    trivial = FiniteMatrixGroup((AffineElement.identity(1),))
    return Atlas(
        (Chart("fold", refl, (Interval(qa(-3), qa(3)),), label="class"),
         Chart("away", trivial, (Interval(qa(Fraction(1, 2)), qa(5)),),
               label="class-restricted")),
        (Transition("away", "fold", AffineElement.identity(1)),),
    )


def rational_quotient_atlas() -> Atlas:
    return Atlas((Chart("main", RationalTranslations(1), None, label="class"),))


def two_scale_atlas() -> Atlas:
    """The irrational torus presented by the halved chart x ↦ class(2x)."""
    return Atlas((Chart("half", two_scale_lattice(), None, label="class-2x"),))


def duplicated_biatlas() -> BiAtlas:
    """Two copies of the T_α atlas linked by the identity germ at 0."""
    seed = LinkingGerm(NebulaPoint("main", (qa(0),)),
                       AffineElement.identity(1), "main")
    return BiAtlas(t_alpha_atlas(), t_alpha_atlas(), (seed,))


def two_scale_biatlas() -> BiAtlas:
    """T_α re-presented at half scale; the linking seed is x ↦ x/2 at 0."""
    halve = AffineElement(((Fraction(1, 2),),), (qa(0),))
    seed = LinkingGerm(NebulaPoint("main", (qa(0),)), halve, "half")
    return BiAtlas(t_alpha_atlas(), two_scale_atlas(), (seed,))


def builtin_biatlases() -> dict:
    return {
        "duplicated": duplicated_biatlas,
        "two-scale": two_scale_biatlas,
    }


def get_biatlas(name: str) -> BiAtlas:
    try:
        return builtin_biatlases()[name]()
    except KeyError:
        raise KeyError(f"unknown builtin bi-atlas {name!r}; "
                       f"available: {sorted(builtin_biatlases())}") from None


def builtin_atlases() -> dict:
    return {
        "t-alpha": t_alpha_atlas,
        "t-alpha-duplicated": t_alpha_duplicated_atlas,
        "reflection-orbifold": reflection_orbifold_atlas,
        "rational-quotient": rational_quotient_atlas,
    }


def get_atlas(name: str) -> Atlas:
    try:
        return builtin_atlases()[name]()
    except KeyError:
        raise KeyError(f"unknown builtin atlas {name!r}; "
                       f"available: {sorted(builtin_atlases())}") from None
