"""Each group kind states its own facts: `contains`, `intertwining_sample`,
`saturate` and `translations_only`.  They are checked here against copies of
the `isinstance` ladders that decided the same questions before the kinds
answered for themselves, and a kind that overrides nothing must get the
`GroupPresentation` defaults.  The last tests keep each decision with its
owner: no module but `groups.py` and `serialize.py` may switch on a group
kind with `isinstance`, and none but the algebra models, the coefficient
classes and `serialize.py` on a model, coefficient or subgroup kind."""

import ast
import itertools
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import quasifolds
from quasifolds import groups
from quasifolds.errors import InconclusiveAtBoundError
from quasifolds.exact import AffineElement, Trit, mat_vec, qa
from quasifolds.groups import (Coset, FiniteMatrixGroup, GeneratedGroup,
                               GroupPresentation, RationalTranslations,
                               TranslationLattice)

KINDS = (TranslationLattice, RationalTranslations, FiniteMatrixGroup,
         GeneratedGroup)


# ---------------------------------------------------------------------------
# the ladders, as they stood
# ---------------------------------------------------------------------------

def old_membership_status(group, g, bound) -> Trit:
    if isinstance(group, FiniteMatrixGroup):
        return Trit.TRUE if g in group.elements else Trit.FALSE
    if isinstance(group, TranslationLattice):
        if not g.is_translation:
            return Trit.FALSE
        _, status = group.membership(g.b, bound)
        return status
    if isinstance(group, RationalTranslations):
        if not g.is_translation:
            return Trit.FALSE
        return Trit.TRUE if all(v.is_rational for v in g.b) else Trit.FALSE
    for cand in group.enumerate(bound):
        if cand == g:
            return Trit.TRUE
    return Trit.UNKNOWN


def old_sample(group) -> tuple:
    if isinstance(group, TranslationLattice):
        return tuple(AffineElement.translation(g) for g in group.generators)
    if isinstance(group, FiniteMatrixGroup):
        return tuple(group.elements)
    if isinstance(group, GeneratedGroup):
        return tuple(group.generators)
    return ()


def old_saturate(coset, group) -> list:
    if isinstance(group, TranslationLattice):
        gens = list(coset.gens)
        for g in group.generators:
            if g not in gens:
                gens.append(g)
        return [Coset(coset.base, tuple(gens), coset.rational_full)]
    if isinstance(group, RationalTranslations):
        return [Coset(coset.base, coset.gens, True)]
    if isinstance(group, FiniteMatrixGroup):
        return [Coset(g.apply(coset.base),
                      tuple(mat_vec(g.a, vec) for vec in coset.gens),
                      coset.rational_full)
                for g in group.elements]
    raise InconclusiveAtBoundError(
        f"{type(group).__name__} admits no coset certificate")


def old_translations_only(group) -> bool:
    return isinstance(group, (TranslationLattice, RationalTranslations))


def fields(cosets) -> list:
    """Cosets as their exact fields: `Coset.__eq__` compares point sets, and
    the walk's order and generators must match, not only the sets."""
    return [(c.base, c.gens, c.rational_full) for c in cosets]


# ---------------------------------------------------------------------------
# groups and elements
# ---------------------------------------------------------------------------

class Listed(GroupPresentation):
    """A kind that overrides nothing but `enumerate`: the translations by
    the integers of absolute value at most the bound."""

    dimension = 1

    def enumerate(self, bound):
        return tuple(AffineElement.translation((qa(n),))
                     for n in range(-bound, bound + 1))


REFLECTION = AffineElement.linear(((Fraction(-1),),))
GROUPS = {
    "Z+aZ": TranslationLattice(((qa(1),), (qa(0, 1),))),
    "dependent": TranslationLattice(((qa(1),), (qa(0, 1),), (qa(1, 1),))),
    "repeated": TranslationLattice(((qa(1),), (qa(1),), (qa(0, 2),))),
    "Q": RationalTranslations(1),
    "reflection": FiniteMatrixGroup((AffineElement.identity(1), REFLECTION)),
    "reflection at 1/2": FiniteMatrixGroup((
        AffineElement.identity(1),
        AffineElement(((Fraction(-1),),), (qa(1),)))),
    "trivial": FiniteMatrixGroup((AffineElement.identity(1),)),
    "<t1>": GeneratedGroup((AffineElement.translation((qa(1),)),)),
    "<t1, -x>": GeneratedGroup((AffineElement.translation((qa(1),)),
                                REFLECTION)),
    "listed": Listed(),
}
Q2 = RationalTranslations(2)
ALL_GROUPS = dict(GROUPS, **{"Q^2": Q2})

fraction = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))
value = st.builds(qa, fraction, fraction)
translation = st.builds(lambda v: AffineElement.translation((v,)), value)
non_translation = st.builds(
    lambda a, b: AffineElement(((a,),), (b,)),
    st.sampled_from([Fraction(-1), Fraction(2), Fraction(1, 2)]), value)
# generators met in lattices and cosets; sampling them with repeats yields
# lattices whose generators repeat
GENERATORS = [(qa(1),), (qa(0, 1),), (qa(1, 1),), (qa(Fraction(1, 2)),),
              (qa(2),), (qa(0, Fraction(1, 3)),)]
lattice = st.lists(st.sampled_from(GENERATORS), min_size=1,
                   max_size=3).map(lambda gs: TranslationLattice(tuple(gs)))
group = st.one_of(st.sampled_from(list(GROUPS.values())), lattice)
coset = st.builds(lambda base, gens, full: Coset((base,), tuple(gens), full),
                  value, st.lists(st.sampled_from(GENERATORS), max_size=3),
                  st.booleans())


def elements(group, bound) -> list:
    """Members from the enumeration, translations that may or may not be
    members, and maps that are not translations."""
    return (list(group.enumerate(bound))
            + [AffineElement.translation((v,))
               for v in (qa(3), qa(0, 5), qa(Fraction(1, 2)), qa(2, -1))]
            + [REFLECTION, AffineElement(((Fraction(2),),), (qa(1),))])


# ---------------------------------------------------------------------------
# contains
# ---------------------------------------------------------------------------

@settings(max_examples=150, deadline=None)
@given(group=group, bound=st.integers(0, 3),
       g=st.one_of(translation, non_translation))
def test_contains_matches_the_old_ladder(group, bound, g):
    assert group.contains(g, bound) is old_membership_status(group, g, bound)
    assert groups.membership_status(group, g, bound) \
        is old_membership_status(group, g, bound)


@settings(max_examples=60, deadline=None)
@given(group=group, bound=st.integers(0, 3), data=st.data())
def test_contains_matches_the_old_ladder_on_members(group, bound, data):
    g = data.draw(st.sampled_from(group.enumerate(bound)))
    assert group.contains(g, bound) is old_membership_status(group, g, bound)


def test_contains_on_a_fixed_grid():
    """Every kind at bounds 0-3 on members, non-members and maps that are
    not translations; each kind gives the answers its presentation can
    certify, and no others."""
    answers = {}
    for (name, group), bound in itertools.product(GROUPS.items(), range(4)):
        for g in elements(group, bound):
            got = group.contains(g, bound)
            assert got is old_membership_status(group, g, bound), (name, g)
            answers.setdefault(type(group), set()).add(got)
    for bound in range(4):
        for g in (list(Q2.enumerate(bound))
                  + [AffineElement.translation((qa(1), qa(0, 1))),
                     AffineElement.linear(((0, 1), (1, 0)))]):
            got = Q2.contains(g, bound)
            assert got is old_membership_status(Q2, g, bound), g
            answers[RationalTranslations].add(got)
    assert answers == {
        TranslationLattice: {Trit.TRUE, Trit.FALSE, Trit.UNKNOWN},
        RationalTranslations: {Trit.TRUE, Trit.FALSE},
        FiniteMatrixGroup: {Trit.TRUE, Trit.FALSE},
        GeneratedGroup: {Trit.TRUE, Trit.UNKNOWN},
        Listed: {Trit.TRUE, Trit.UNKNOWN},
    }


# ---------------------------------------------------------------------------
# saturate, the intertwining sample, translations_only
# ---------------------------------------------------------------------------

def _saturated(group, c):
    try:
        return fields(group.saturate(c))
    except InconclusiveAtBoundError:
        return "inconclusive"


def _old_saturated(group, c):
    try:
        return fields(old_saturate(c, group))
    except InconclusiveAtBoundError:
        return "inconclusive"


@settings(max_examples=150, deadline=None)
@given(group=group, c=coset)
def test_saturate_matches_the_old_ladder(group, c):
    assert _saturated(group, c) == _old_saturated(group, c)


def test_saturate_keeps_the_first_of_repeated_generators():
    lat = GROUPS["repeated"]
    c = Coset((qa(0),), ((qa(0, 2),), (qa(Fraction(1, 2)),)), False)
    assert fields(lat.saturate(c)) == fields(old_saturate(c, lat)) == [
        ((qa(0),), ((qa(0, 2),), (qa(Fraction(1, 2)),), (qa(1),)), False)]


def test_saturate_on_a_fixed_grid():
    c = Coset((qa(1, 1),), ((qa(0, 1),),), False)
    outcomes = {}
    for name, group in GROUPS.items():
        got = _saturated(group, c)
        assert got == _old_saturated(group, c), name
        outcomes[name] = got if got == "inconclusive" else len(got)
    assert outcomes == {"Z+aZ": 1, "dependent": 1, "repeated": 1, "Q": 1,
                        "reflection": 2, "reflection at 1/2": 2, "trivial": 1,
                        "<t1>": "inconclusive", "<t1, -x>": "inconclusive",
                        "listed": "inconclusive"}


@pytest.mark.parametrize("name", sorted(ALL_GROUPS))
def test_intertwining_sample_matches_the_old_ladder(name):
    group = ALL_GROUPS[name]
    assert tuple(group.intertwining_sample) == old_sample(group)


@pytest.mark.parametrize("name", sorted(ALL_GROUPS))
def test_translations_only_matches_the_old_test(name):
    group = ALL_GROUPS[name]
    assert group.translations_only is old_translations_only(group)


def test_a_bare_kind_gets_the_defaults():
    listed = Listed()
    t1 = AffineElement.translation((qa(1),))
    assert listed.contains(t1, 1) is Trit.TRUE
    assert listed.contains(t1, 0) is Trit.UNKNOWN
    # absence is never certified, not even for a map outside every group
    # of translations
    assert listed.contains(REFLECTION, 3) is Trit.UNKNOWN
    assert tuple(listed.intertwining_sample) == ()
    assert listed.translations_only is False
    with pytest.raises(InconclusiveAtBoundError, match="Listed"):
        listed.saturate(Coset((qa(0),), ()))


# ---------------------------------------------------------------------------
# the decision lives in one module
# ---------------------------------------------------------------------------

# where an isinstance on a kind is allowed: the JSON format of each kind, and
# the rule that the rational translations fit only into themselves
ALLOWED = {("serialize.py", None), ("groups.py", "require_intertwines")}


def _names(node) -> set:
    if isinstance(node, ast.Tuple):
        return set().union(*map(_names, node.elts))
    if isinstance(node, ast.Name):
        return {node.id}
    if isinstance(node, ast.Attribute):
        return {node.attr}
    return set()


def kind_tests(tree) -> list:
    """(enclosing function or None, line) of each isinstance call in the
    tree whose class argument names a group kind."""
    kinds = {k.__name__ for k in KINDS}
    found = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "isinstance" and len(node.args) == 2
                and _names(node.args[1]) & kinds):
            found.append((function, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(tree, None)
    return found


def test_kind_tests_are_found():
    tree = ast.parse("def f(g):\n"
                     "    return isinstance(g, (int, groups.GeneratedGroup))\n"
                     "isinstance(x, TranslationLattice)\n"
                     "isinstance(x, int)\n")
    assert kind_tests(tree) == [("f", 2), (None, 3)]


def test_only_groups_and_serialize_switch_on_the_kind():
    package = Path(quasifolds.__file__).parent
    offenders = []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for function, line in kind_tests(tree):
            if ((path.name, None) not in ALLOWED
                    and (path.name, function) not in ALLOWED):
                offenders.append(f"{path.name}:{line} in {function}")
    assert offenders == []


# ---------------------------------------------------------------------------
# models answer for themselves
# ---------------------------------------------------------------------------

MODEL_CLASSES = {"LineModel", "CircleModel", "TrigPoly", "PiecewisePoly"}
# the model, coefficient and circle subgroup kinds as strings
KIND_WORDS = {"line", "circle", "trig", "piecewise", "rational", "alpha",
              "full"}
# where a model or coefficient kind may be tested: the JSON format, and the
# classes themselves
MODEL_ALLOWED = {("serialize.py", None), ("algebra.py", "LineModel"),
                 ("algebra.py", "CircleModel"), ("coefficients.py", "TrigPoly"),
                 ("coefficients.py", "PiecewisePoly")}


def _kind_words(node) -> set:
    if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
        return set().union(*map(_kind_words, node.elts))
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return {node.value} & KIND_WORDS
    return set()


def model_tests(tree) -> list:
    """(enclosing class or None, line) of each isinstance call whose class
    argument names a model or coefficient class, and of each comparison of
    a `kind` or `subgroup` (a name or an attribute) with a string naming a
    model, coefficient or subgroup kind."""
    found = []

    def visit(node, cls):
        if isinstance(node, ast.ClassDef):
            cls = node.name
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "isinstance" and len(node.args) == 2
                and _names(node.args[1]) & MODEL_CLASSES):
            found.append((cls, node.lineno))
        if isinstance(node, ast.Compare):
            sides = [node.left, *node.comparators]
            if (any(_names(s) & {"kind", "subgroup"} for s in sides
                    if isinstance(s, (ast.Name, ast.Attribute)))
                    and any(map(_kind_words, sides))):
                found.append((cls, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, cls)

    visit(tree, None)
    return found


def test_model_tests_are_found():
    tree = ast.parse("class LineModel:\n"
                     "    def f(self, c):\n"
                     "        return isinstance(c, (int, coefficients.TrigPoly))\n"
                     "def g(m, kind):\n"
                     "    if m.subgroup != 'rational' or kind == 'line':\n"
                     "        return m.kind in ('circle', 'x')\n"
                     "    if isinstance(m, CircleModel):\n"
                     "        return m.kind == 'exact'\n")
    assert model_tests(tree) == [("LineModel", 3), (None, 5), (None, 5),
                                 (None, 6), (None, 7)]


def test_only_models_and_serialize_switch_on_the_model_kind():
    package = Path(quasifolds.__file__).parent
    offenders = []
    for path in sorted(package.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for cls, line in model_tests(tree):
            if ((path.name, None) not in MODEL_ALLOWED
                    and (path.name, cls) not in MODEL_ALLOWED):
                offenders.append(f"{path.name}:{line} in {cls}")
    assert offenders == []
