"""Tests of the benchmark itself, at a tiny size.

Each correctness check first passes on a real output of the package, then
fails on a deliberately corrupted copy of it, which shows that no check is
vacuous.  Run with:  python3 -m pytest -q qfbench
"""

import random
import shutil
import subprocess
import sys
import types
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import pytest  # noqa: E402

import oracles  # noqa: E402
import tracing  # noqa: E402
import workloads as W  # noqa: E402
from quasifolds import algebra, atlas, bimodule, catalog  # noqa: E402
from quasifolds import coefficients, groupoid, groups  # noqa: E402
from quasifolds.exact import QAlpha, qa  # noqa: E402


def _nudge(element, delta=1e-6):
    """Copy of an algebra element with one coefficient moved by delta: the
    constant term of the first piece (line) or the first mode (circle)."""
    (key, c), *rest = element.support
    if isinstance(c, coefficients.TrigPoly):
        (k, v), *modes = c.modes
        c = coefficients.TrigPoly(((k, v + delta), *modes))
    else:
        (p0, *tail), *pieces = c.pieces
        c = coefficients.PiecewisePoly(c.breakpoints,
                                       ((p0 + delta, *tail), *pieces))
    return algebra.AlgebraElement(element.model, ((key, c), *rest))


def _drop_key(element):
    return algebra.AlgebraElement(element.model, element.support[1:])


@pytest.fixture(scope="module", params=["line", "circle"])
def triple(request):
    rng = random.Random(5)
    if request.param == "line":
        model = algebra.LineModel(catalog.z_alpha_lattice())
        els = [W.line_element(rng, model, n_keys=2, degree=2) for _ in range(3)]
    else:
        model = algebra.CircleModel("full")
        els = [W.circle_element(rng, model, n_keys=2, n_modes=2)
               for _ in range(3)]
    return request.param == "circle", W.axiom_triple(*els, left=True)


class TestAlgebraChecks:
    def test_real_output_passes(self, triple):
        circle, res = triple
        assert oracles.axiom_problems(res, circle) == []

    def test_nudged_product_fails_the_pointwise_oracle(self, triple):
        circle, res = triple
        assert oracles.convolution_problems(res["f"], res["g"],
                                            _nudge(res["fg"]), circle)
        assert oracles.axiom_problems(dict(res, fg=_nudge(res["fg"])), circle)

    def test_dropped_product_key_fails(self, triple):
        circle, res = triple
        assert oracles.convolution_problems(res["f"], res["g"],
                                            _drop_key(res["fg"]), circle)

    def test_route_with_other_support_fails(self, triple):
        circle, res = triple
        assert oracles.axiom_problems(dict(res, general=_drop_key(res["general"])),
                                      circle)

    def test_nudged_involution_fails(self, triple):
        circle, res = triple
        assert oracles.involution_problems(res["f"], _nudge(res["inv_f"]), circle)

    def test_broken_identity_fails_even_if_distance_says_zero(self, triple):
        circle, res = triple
        lhs, rhs = res["pairs"]["associativity"]
        pairs = dict(res["pairs"], associativity=(lhs, _nudge(rhs, 1e-3)))
        assert oracles.axiom_problems(dict(res, pairs=pairs), circle)

    def test_program_distance_over_tolerance_fails(self, triple):
        circle, res = triple
        distances = dict(res["distances"], involutivity=2e-9)
        assert oracles.axiom_problems(dict(res, distances=distances), circle)


class TestMatrixCheck:
    @pytest.fixture(scope="class")
    def result(self):
        rng = random.Random(6)
        model = algebra.CircleModel("rational")
        f = W.circle_element(rng, model, 2, 2, keys=3)
        g = W.circle_element(rng, model, 2, 2, keys=3)
        return W.matrix_pair(f, g, 3, 0.3)

    def test_real_output_passes(self, result):
        assert oracles.matrix_problems(result) == []

    def test_nudged_entry_fails(self, result):
        rows = [list(r) for r in result["Mh"].rows]
        rows[1][2] += 1e-6
        bad = dict(result, Mh=algebra.ComplexMatrix(tuple(map(tuple, rows))))
        assert oracles.matrix_problems(bad)

    def test_forward_order_fails(self, result):
        bad = dict(result, Mf=result["Mg"], Mg=result["Mf"])
        assert oracles.matrix_problems(bad)


@pytest.fixture(scope="module")
def germs():
    bi = catalog.two_scale_biatlas()
    return bi, bimodule.generate_germs(bi, 1)


class TestBimoduleChecks:
    def test_germ_set_passes_and_dropped_germ_fails(self, germs):
        _, zs = germs
        assert len(zs) == 81
        ok = oracles.germ_set_problems(zs, Fraction(1, 2), "main", "half", 1)
        assert ok == []
        assert oracles.germ_set_problems(zs[1:], Fraction(1, 2), "main",
                                         "half", 1)

    def test_germ_replaced_by_a_wrong_one_fails(self, germs):
        _, zs = germs
        z = zs[0]
        wrong = bimodule.LinkingGerm(z.src, z.map.compose(
            z.map.translation((qa(Fraction(1, 3)),))), z.dst_chart)
        assert oracles.germ_set_problems((wrong,) + zs[1:], Fraction(1, 2),
                                         "main", "half", 1)

    @pytest.mark.parametrize("side", ["left", "right"])
    def test_witness_pair(self, germs, side):
        bi, zs = germs
        key = oracles.trg_of if side == "left" else (
            lambda z: oracles.germ_key(z)[:2])
        z = zs[0]
        zp = next(y for y in zs[1:] if key(y) == key(z))
        scale = Fraction(1) if side == "left" else Fraction(1, 2)
        res = dict(W.witness_pair(bi, z, zp, side), group_scale=scale)
        assert oracles.witness_pair_problems(res) == []
        other = next(y for y in zs if key(y) != key(z))
        assert oracles.witness_pair_problems(dict(res, moved=other))
        assert oracles.witness_pair_problems(dict(res, status="false"))
        assert oracles.witness_pair_problems(dict(res, zp=other))

    def test_quotient_witness(self, germs):
        bi, zs = germs
        z = zs[0]
        zp = next(y for y in zs[1:] if oracles.trg_of(y) == oracles.trg_of(z))
        other = next(y for y in zs if oracles.trg_of(y) != oracles.trg_of(z))
        res = W.quotient_pair(bi, z, zp, "left", 6)
        assert oracles.quotient_problems(res) == []
        cross = W.quotient_pair(bi, z, other, "left", 2)
        assert oracles.quotient_problems(cross) == []
        assert oracles.quotient_problems(dict(cross, certificate="constructed"))
        assert oracles.quotient_problems(dict(res, certificate="classes-differ"))

    def test_probe(self, germs):
        bi, _ = germs
        target = ("half", (Fraction(1, 2), Fraction(-1)))
        pt = groupoid.NebulaPoint("half", (QAlpha(*target[1]),))
        res = {"germ": bimodule.surjectivity_probe(bi, pt, 3), "target": target,
               "kind": "class", "scale": Fraction(1, 2)}
        assert oracles.probe_problems(res) == []
        assert oracles.probe_problems(dict(res, target=("half", (0, 0))))
        assert oracles.probe_problems(dict(res, germ=None))


class TestPointChecks:
    @pytest.fixture(scope="class")
    def point_ops(self):
        pq = W.PointQueries(7)
        kinds = {}
        for op in pq.ops(random.Random(7)):
            if op.kind not in kinds:
                kinds[op.kind] = (op, op.run())
        return kinds

    def test_every_kind_passes(self, point_ops):
        for op, res in point_ops.values():
            assert op.check(res) == [], op.kind

    def test_flipped_false_verdict_fails(self):
        torus = atlas.build_groupoid(catalog.t_alpha_atlas())
        g = groupoid.NebulaPoint
        v, w = ("main", (Fraction(0), Fraction(0))), \
            ("main", (Fraction(1, 2), Fraction(0)))
        res = W.point_query(torus, g("main", (qa(0),)),
                            g("main", (qa(Fraction(1, 2)),)), 2)
        res = dict(res, v=v, w=w, truth=oracles.torus_truth(v[1], w[1]))
        assert res["verdict"] == "false"
        assert oracles.point_problems(res) == []
        assert oracles.point_problems(dict(res, verdict="true"))
        assert oracles.point_problems(dict(res, verdict="unknown"))

    def test_fold_truth(self):
        x = (Fraction(3, 2), Fraction(1, 7))
        assert oracles.fold_truth(x, (-x[0], -x[1]))
        assert not oracles.fold_truth(x, (x[0], -x[1]))

    def test_lift_off_endpoint_fails(self, point_ops):
        op, res = point_ops["lift"]
        rp = res["r_prime"]
        assert oracles.lift_problems(dict(res, r_prime=(rp[0] + 1, rp[1])))
        assert oracles.lift_problems(dict(res, scale=Fraction(3)))

    def test_pieces_with_missing_plant_fails(self, point_ops):
        op, res = point_ops["piece-detection"]
        planted = res["planted"] + [(Fraction(5), Fraction(5))]
        assert oracles.pieces_problems(dict(res, planted=planted))

    def test_assembly_with_missing_arrow_fails(self, point_ops):
        op, res = point_ops["cli-assembly"]
        import copy
        report = copy.deepcopy(res["report"])
        report["assembly"]["blocks"][0]["arrows"].pop()
        assert oracles.assembly_problems(dict(res, report=report))
        report = copy.deepcopy(res["report"])
        report["assembly"]["blocks"][0]["objects"].pop()
        assert oracles.assembly_problems(dict(res, report=report))


class TestTracer:
    def test_by_value_imports_are_wrapped_and_counted(self):
        tracer = tracing.Tracer()
        tracer.install(extra_modules=(W,))
        try:
            assert groups.solve_linear.__wrapped__ is not None
            assert tracer.unbound_originals((W,)) == []
            tracer.start()
            catalog.z_alpha_lattice().contains_value((qa(1, 2),))
            tracer.stop()
            m = tracer.metrics()
            assert m["groups.contains_value.calls"] == 1
            assert m["exact.solve_linear.calls"] == 1
            assert m["groups.self_s"] > 0
        finally:
            tracer.uninstall()
        assert not hasattr(groups.solve_linear, "__wrapped__")

    def test_missed_binding_is_reported(self):
        from quasifolds import exact
        original = exact.solve_linear
        stray = types.ModuleType("quasifolds._stray")
        sys.modules[stray.__name__] = stray
        tracer = tracing.Tracer()
        try:
            tracer.install()
            stray.solve_linear = original  # bound after install: missed
            assert any("_stray.solve_linear" in b
                       for b in tracer.unbound_originals())
        finally:
            tracer.uninstall()
            del sys.modules[stray.__name__]

    def test_activity_self_check(self):
        tracer = tracing.Tracer()
        tracer.install()
        tracer.uninstall()
        problems = tracing.activity_problems(tracer, "bimodule")
        assert any("bimodule.generate_germs" in p for p in problems)
        tracer.stats["bimodule.generate_germs"].calls = 1
        tracer.stats["lifting.lift_diffeo"].calls = 1
        problems = tracing.activity_problems(tracer, "bimodule")
        assert not any("generate_germs" in p for p in problems)
        assert any("lifting.lift_diffeo" in p for p in problems)


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "qfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, str(tmp_path / "qfbench" / "run.py"), "--workload",
         "bimodule", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
