"""Tests for the lifting laboratory: sampled maps, piecewise-affine
detection, numeric affine reconstruction, endpoint-prescribed lifts, and the
radial flip map with no equivariant lift."""

import cmath
import math
from fractions import Fraction

import pytest

from quasifolds.catalog import (duplicated_biatlas, two_scale_biatlas,
                                z_alpha_lattice)
from quasifolds.errors import (DegenerateSampleError, FibersIncompatibleError,
                               InconclusiveAtBoundError, QuasifoldError)
from quasifolds.exact import AffineElement, default_witness, qa
from quasifolds.groups import FiniteMatrixGroup
from quasifolds.lifting import (AffineFit, SampledMap, detect_pieces,
                                flip_map, lift_diffeo, nonliftable_demo,
                                reconstruct_affine)

W = default_witness()
ALPHA = W.to_float(qa(0, 1))


def sign_flip_group():
    return FiniteMatrixGroup((AffineElement.identity(1),
                              AffineElement.linear(((Fraction(-1),),))))


class TestSampledMap:
    def test_unknown_kind(self):
        with pytest.raises(QuasifoldError):
            SampledMap((0.0,), 1.0, ((0.0,),), ((0.0,),), "symbolic")

    def test_exact_and_numeric_cannot_mix(self):
        with pytest.raises(QuasifoldError):
            SampledMap((qa(0),), 1.0, ((qa(0),),), ((0.5,),), "exact")
        with pytest.raises(QuasifoldError):
            SampledMap((0.0,), 1.0, ((qa(0),),), ((qa(0),),), "numeric")

    def test_sample_outside_ball(self):
        with pytest.raises(QuasifoldError):
            SampledMap((0.0,), 1.0, ((2.0,),), ((2.0,),), "numeric")

    def test_value_count_must_match(self):
        with pytest.raises(QuasifoldError):
            SampledMap((0.0,), 1.0, ((0.5,), (0.25,)), ((0.5,),), "numeric")

    def test_from_function_numeric(self):
        F = SampledMap.from_function(lambda s: (2 * s[0] + 1,), (0.0,), 1.0, 30)
        assert F.kind == "numeric"
        assert F.dimension == 1
        assert len(F.samples) == 30
        for s, v in zip(F.samples, F.values):
            assert v[0] == pytest.approx(2 * s[0] + 1)

    def test_from_function_exact(self):
        shift = qa(1, 1)
        F = SampledMap.from_function(lambda s: (s[0] + shift,),
                                     (qa(0),), 2.0, 20, kind="exact")
        assert F.kind == "exact"
        for s, v in zip(F.samples, F.values):
            assert v[0] == s[0] + shift


class TestDetectPieces:
    def test_exact_stitched_translation(self):
        lat = z_alpha_lattice()
        # F acts by t_1 left of zero and by t_α right of zero.
        samples = [(qa(-2),), (qa(-1),), (qa(Fraction(-1, 2)),),
                   (qa(Fraction(1, 2)),), (qa(1),), (qa(2),)]
        w = default_witness()

        def F(s):
            return (s[0] + qa(1),) if w.to_float(s[0]) < 0 else (s[0] + qa(0, 1),)

        sm = SampledMap((qa(0),), 2.0, tuple(samples),
                        tuple(F(s) for s in samples), "exact")
        report = detect_pieces(sm, lat, bound=2)
        assert report.coverage == 1.0
        assert report.unmatched == ()
        assert report.piece_count == 2
        assert report.tol == 0.0
        maps = {g.b[0] for g, _ in report.pieces}
        assert maps == {qa(1), qa(0, 1)}

    def test_piece_sample_assignment(self):
        lat = z_alpha_lattice()
        samples = ((qa(-1),), (qa(1),))
        values = ((qa(0),), (qa(1, 1),))
        sm = SampledMap((qa(0),), 1.0, samples, values, "exact")
        report = detect_pieces(sm, lat, bound=2)
        by_map = {g.b[0]: idx for g, idx in report.pieces}
        assert by_map[qa(1)] == (0,)
        assert by_map[qa(0, 1)] == (1,)

    def test_fixed_point_matches_all_stabilizing_elements(self):
        grp = sign_flip_group()
        samples = ((qa(0),), (qa(1),))
        values = ((qa(0),), (qa(-1),))
        sm = SampledMap((qa(0),), 1.0, samples, values, "exact")
        report = detect_pieces(sm, grp, bound=1)
        assert report.coverage == 1.0
        # the origin is fixed by both ±1, the generic point only by −1
        assert len(report.all_matches[0]) == 2
        assert len(report.all_matches[1]) == 1

    def test_numeric_matching_within_tol(self):
        lat = z_alpha_lattice()
        noise = 1e-12

        def F(s):
            return (s[0] + ALPHA + noise,)

        sm = SampledMap.from_function(F, (0.0,), 1.0, 25, seed=3)
        report = detect_pieces(sm, lat, bound=1, tol=1e-9)
        assert report.coverage == 1.0
        assert report.piece_count == 1
        assert 0 < report.max_residual <= 1e-9

    def test_numeric_unmatched_beyond_tol(self):
        lat = z_alpha_lattice()
        sm = SampledMap.from_function(lambda s: (s[0] + 0.25,), (0.0,), 1.0, 10)
        report = detect_pieces(sm, lat, bound=2, tol=1e-9)
        assert report.coverage == 0.0
        assert len(report.unmatched) == 10

    def test_nonaffine_map_has_zero_coverage(self):
        lat = z_alpha_lattice()
        sm = SampledMap.from_function(lambda s: (math.sin(s[0]),),
                                      (0.0,), 1.0, 20, seed=5)
        report = detect_pieces(sm, lat, bound=3, tol=1e-9)
        assert report.coverage == 0.0

    def test_report_json(self):
        lat = z_alpha_lattice()
        sm = SampledMap.from_function(lambda s: (s[0] + 1.0,), (0.0,), 1.0, 5)
        obj = detect_pieces(sm, lat, bound=1, tol=1e-9).to_json()
        assert obj["coverage"] == 1.0
        assert obj["pieces"][0]["samples"] == [0, 1, 2, 3, 4]


class TestReconstructAffine:
    def test_recovers_affine_map(self):
        def F(s):
            return (0.5 * s[0] - 2.0 * s[1] + 0.25,
                    1.5 * s[0] + 0.5 * s[1] - 1.0)

        sm = SampledMap.from_function(F, (0.0, 0.0), 1.0, 40, seed=1)
        fit = reconstruct_affine(sm)
        assert fit is not None
        assert fit.residual < 1e-9
        assert fit.second_derivative < 1e-6
        assert fit.A[0][0] == pytest.approx(0.5, abs=1e-8)
        assert fit.A[0][1] == pytest.approx(-2.0, abs=1e-8)
        assert fit.b == (pytest.approx(0.25, abs=1e-8),
                         pytest.approx(-1.0, abs=1e-8))
        assert fit.apply((0.2, -0.3))[0] == pytest.approx(F((0.2, -0.3))[0])

    def test_rejects_quadratic_map(self):
        sm = SampledMap.from_function(lambda s: (s[0] ** 2,), (0.0,), 1.0, 40,
                                      seed=2)
        assert reconstruct_affine(sm) is None

    def test_small_quadratic_term_caught_by_second_derivative(self):
        # residual of the best affine fit to 1e-5·x² on the unit ball is tiny,
        # but the curvature probe still sees it
        sm = SampledMap.from_function(lambda s: (s[0] + 1e-5 * s[0] ** 2,),
                                      (0.0,), 1.0, 40, seed=4)
        assert reconstruct_affine(sm, tol=1e-4, d2_tol=1e-6) is None

    def test_needs_enough_samples(self):
        sm = SampledMap.from_function(lambda s: (s[0],), (0.0,), 1.0, 2)
        with pytest.raises(DegenerateSampleError):
            reconstruct_affine(sm)

    def test_degenerate_configuration(self):
        def F(s):
            return (s[0], s[1])

        # ten samples on the x-axis: the y-direction is invisible
        samples = tuple((0.1 * k, 0.0) for k in range(-5, 5))
        sm = SampledMap((0.0, 0.0), 1.0, samples,
                        tuple(F(s) for s in samples), "numeric", F)
        with pytest.raises(DegenerateSampleError):
            reconstruct_affine(sm)

    def test_exact_kind_rejected(self):
        sm = SampledMap((qa(0),), 1.0, ((qa(0),),), ((qa(0),),), "exact")
        with pytest.raises(QuasifoldError):
            reconstruct_affine(sm)

    def test_needs_callback(self):
        sm = SampledMap((0.0,), 1.0, tuple((0.1 * k,) for k in range(-5, 5)),
                        tuple((0.1 * k,) for k in range(-5, 5)), "numeric")
        with pytest.raises(QuasifoldError):
            reconstruct_affine(sm)


class TestLiftDiffeo:
    def test_duplicated_lift_hits_endpoint(self):
        bi = duplicated_biatlas()
        lift = lift_diffeo(bi, (qa(1, 1),), (qa(0, 1),), bound=2)
        assert lift.apply((qa(1, 1),)) == (qa(0, 1),)

    def test_two_scale_lift(self):
        bi = two_scale_biatlas()
        lift = lift_diffeo(bi, (qa(2),), (qa(1),), bound=1)
        assert lift.apply((qa(2),)) == (qa(1),)
        lift2 = lift_diffeo(bi, (qa(2),), (qa(Fraction(3, 2)),), bound=1)
        assert lift2.apply((qa(2),)) == (qa(Fraction(3, 2)),)
        assert lift2.a[0][0] == Fraction(1, 2)

    def test_lift_linear_part_comes_from_seed(self):
        bi = two_scale_biatlas()
        lift = lift_diffeo(bi, (qa(0, 2),), (qa(0, 1),), bound=1)
        assert lift.a[0][0] == Fraction(1, 2)
        assert lift.apply((qa(0, 2),)) == (qa(0, 1),)

    def test_incompatible_fibers_certified(self):
        bi = duplicated_biatlas()
        with pytest.raises(FibersIncompatibleError):
            lift_diffeo(bi, (qa(0),), (qa(Fraction(1, 2)),), bound=3)

    def test_inconclusive_at_bound(self):
        bi = duplicated_biatlas()
        with pytest.raises(InconclusiveAtBoundError):
            lift_diffeo(bi, (qa(0),), (qa(5, 5),), bound=2)
        # the same pair resolves once the bound covers the word
        lift = lift_diffeo(bi, (qa(0),), (qa(5, 5),), bound=5)
        assert lift.apply((qa(0),)) == (qa(5, 5),)

    @pytest.mark.parametrize("rp, error", [
        (qa(Fraction(1, 2)), FibersIncompatibleError),
        (qa(5, 5), InconclusiveAtBoundError)])
    def test_failure_path_searches_words_once(self, monkeypatch, rp, error):
        bi = duplicated_biatlas()
        groupoid = bi.right_groupoid()
        searches = []
        search = groupoid.arrows_between

        def counting(*args):
            searches.append(args)
            return search(*args)

        monkeypatch.setattr(groupoid, "arrows_between", counting)
        with pytest.raises(error):
            lift_diffeo(bi, (qa(0),), (rp,), bound=2)
        assert len(searches) == 1


class TestFlipMap:
    def test_zero_and_outside(self):
        assert flip_map(0j) == 0j
        assert flip_map(1.5 + 0j) == 0j
        assert flip_map(-2j) == 0j

    def test_even_annulus_is_rotation_invariant(self):
        z = 0.4 * cmath.exp(0.7j)  # |z| ∈ (1/3, 1/2): n = 2, even
        tau = cmath.exp(2j * math.pi * 0.3)
        assert abs(flip_map(tau * z) - flip_map(z)) < 1e-12
        assert flip_map(z).imag == 0.0

    def test_odd_annulus_is_equivariant(self):
        z = 0.7 * cmath.exp(1.1j)  # |z| ∈ (1/2, 1): n = 1, odd
        tau = cmath.exp(2j * math.pi * 0.45)
        assert abs(flip_map(tau * z) - tau * flip_map(z)) < 1e-12

    def test_not_identically_zero_on_each_annulus(self):
        for n in range(1, 7):
            r = 0.5 * (1.0 / (n + 1) + 1.0 / n)
            assert abs(flip_map(complex(r))) > 1e-8

    def test_demo_report_passes(self):
        rep = nonliftable_demo(n_max=6, samples_per_annulus=100, tol=1e-10)
        assert rep["pass"] is True
        assert rep["outside_zero"] is True
        assert len(rep["annuli"]) == 6
        for row in rep["annuli"]:
            assert row["pass"] is True
            assert row["max_deviation"] <= 1e-10
            assert row["max_magnitude"] > 1e-8  # the check is not vacuous
        parities = [row["h"] for row in rep["annuli"]]
        assert parities == ["tau", "1", "tau", "1", "tau", "1"]

    def test_demo_rejects_bad_n(self):
        with pytest.raises(QuasifoldError):
            nonliftable_demo(n_max=0)
