"""Round-trip and determinism tests for the JSON layer."""

import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quasifolds.algebra import (CircleModel, LineModel, delta,
                                random_circle_element, random_line_element)
from quasifolds.catalog import (builtin_atlases, builtin_biatlases, get_atlas,
                                get_biatlas, z_alpha_lattice)
from quasifolds.coefficients import TrigPoly
from quasifolds.errors import QuasifoldError
from quasifolds.exact import AffineElement, qa
from quasifolds.groups import (FiniteMatrixGroup, GeneratedGroup,
                               RationalTranslations, TranslationLattice)
from quasifolds.serialize import (atlas_from_json, atlas_to_json,
                                  biatlas_from_json, biatlas_to_json,
                                  canonical_dumps, coefficient_from_json,
                                  element_from_json, element_to_json,
                                  group_from_json, group_to_json,
                                  load_atlas_file, load_biatlas_file,
                                  model_from_json, model_to_json, save_json)


class TestGroupRoundTrip:
    def test_lattice(self):
        g = z_alpha_lattice()
        assert group_from_json(group_to_json(g)) == g

    def test_rational(self):
        g = RationalTranslations(2)
        assert group_from_json(group_to_json(g)) == g

    def test_finite(self):
        g = FiniteMatrixGroup((AffineElement.identity(1),
                               AffineElement.linear(((Fraction(-1),),))))
        assert group_from_json(group_to_json(g)) == g

    def test_generated(self):
        g = GeneratedGroup((AffineElement.translation((qa(1),)),))
        assert group_from_json(group_to_json(g)) == g

    def test_unknown_kind(self):
        with pytest.raises(QuasifoldError):
            group_from_json({"kind": "mystery"})


class TestAtlasRoundTrip:
    @pytest.mark.parametrize("name", sorted(builtin_atlases()))
    def test_builtin_atlases(self, name):
        atlas = get_atlas(name)
        back = atlas_from_json(atlas_to_json(atlas))
        assert back.charts == atlas.charts
        assert back.transitions == atlas.transitions

    @pytest.mark.parametrize("name", sorted(builtin_biatlases()))
    def test_builtin_biatlases(self, name):
        bi = get_biatlas(name)
        back = biatlas_from_json(biatlas_to_json(bi))
        assert back.seeds == bi.seeds
        assert back.left.charts == bi.left.charts
        assert back.right.charts == bi.right.charts

    def test_files(self, tmp_path):
        atlas = get_atlas("t-alpha")
        p = tmp_path / "atlas.json"
        save_json(p, atlas_to_json(atlas))
        assert load_atlas_file(p).charts == atlas.charts
        bi = get_biatlas("two-scale")
        q = tmp_path / "bi.json"
        save_json(q, biatlas_to_json(bi))
        assert load_biatlas_file(q).seeds == bi.seeds


class TestModelAndElementRoundTrip:
    def test_models(self):
        for model in (LineModel(z_alpha_lattice()), CircleModel("rational"),
                      CircleModel("alpha"), CircleModel("full")):
            assert model_from_json(model_to_json(model)) == model

    def test_line_model_requires_lattice(self):
        with pytest.raises(QuasifoldError):
            model_from_json({"kind": "line",
                             "group": {"kind": "rational", "dimension": 1}})

    def test_circle_element(self):
        rng = random.Random(1)
        f = random_circle_element(rng, CircleModel("full"))
        back = element_from_json(element_to_json(f))
        assert back.keys() == f.keys()
        assert back.distance(f) < 1e-15

    def test_line_element(self):
        rng = random.Random(2)
        f = random_line_element(rng, LineModel(z_alpha_lattice()))
        back = element_from_json(element_to_json(f))
        assert back.keys() == f.keys()
        assert back.distance(f) < 1e-15

    def test_exact_keys_survive(self):
        f = delta(CircleModel("full"), qa(Fraction(2, 3), -5), TrigPoly.one())
        back = element_from_json(element_to_json(f))
        assert back.keys() == (qa(Fraction(2, 3), -5),)

    def test_unknown_coefficient_kind(self):
        with pytest.raises(QuasifoldError):
            coefficient_from_json({"kind": "wavelet"})


class TestCanonicalDumps:
    def test_key_order_is_stable(self):
        a = canonical_dumps({"b": 1, "a": [2, {"z": 0, "y": 1}]})
        b = canonical_dumps({"a": [2, {"y": 1, "z": 0}], "b": 1})
        assert a == b
        assert a.endswith("\n")

    def test_builtin_atlas_serialization_is_deterministic(self):
        a = canonical_dumps(atlas_to_json(get_atlas("t-alpha-duplicated")))
        b = canonical_dumps(atlas_to_json(get_atlas("t-alpha-duplicated")))
        assert a == b


_TRICKY_TEXT = st.sampled_from([
    "", "α", "π²", "\u2028", "\U0001f600", '"', "\\", "\\n", "\n", "\t",
    "\x00", "\x1f", "\x7f", "[]{},:", '{"a": [1, 2]}', " : ", ",\n  "])
_TEXT = st.one_of(st.text(), _TRICKY_TEXT)
_FLOATS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([-0.0, 0.0, 1e-320, 5e-324, 1e300, math.nan, math.inf,
                     -math.inf, 0.1, -1.5]))
_INTS = st.one_of(st.integers(),
                  st.integers(min_value=2 ** 64, max_value=2 ** 200),
                  st.integers(max_value=-2 ** 64, min_value=-2 ** 200))
_LEAVES = st.one_of(st.none(), st.booleans(), _INTS, _FLOATS, _TEXT)
_TREES = st.recursive(
    _LEAVES,
    lambda inner: st.one_of(
        st.lists(inner, max_size=5),
        st.lists(inner, max_size=5).map(tuple),
        st.dictionaries(_TEXT, inner, max_size=5)),
    max_leaves=40)


class TestCanonicalDumpsMatchesJson:
    """canonical_dumps reproduces json.dumps with the canonical settings."""

    @staticmethod
    def reference(obj):
        return json.dumps(obj, sort_keys=True, indent=2,
                          ensure_ascii=False) + "\n"

    @settings(max_examples=400, deadline=None)
    @given(_TREES)
    def test_random_trees(self, obj):
        assert canonical_dumps(obj) == self.reference(obj)

    @pytest.mark.parametrize("obj", [
        [], {}, (), [[]], [{}], {"a": {}}, {"a": []}, [[[]], {"b": ()}],
        {"": None, " ": True, "z": False, "é": -0.0, "\\": 1e-320},
        [math.nan, math.inf, -math.inf, 2 ** 70, -(2 ** 70)],
        "top", 7, None, True, 1.5,
    ])
    def test_edge_values(self, obj):
        assert canonical_dumps(obj) == self.reference(obj)

    @pytest.mark.parametrize("name", sorted(builtin_atlases()))
    def test_builtin_atlases(self, name):
        obj = atlas_to_json(get_atlas(name))
        assert canonical_dumps(obj) == self.reference(obj)

    @pytest.mark.parametrize("value", [
        Fraction(1, 2), {1, 2}, {1: "int key"}, {"k": [Fraction(1)]},
        {"k": {(1, 2): 0}}, [object()]])
    def test_other_types_raise_type_error(self, value):
        with pytest.raises(TypeError):
            canonical_dumps(value)
