import json

import pytest
from conftest import decode_json, decode_orbit

from kdeform import (
    PoincareAlgebra,
    VectorTau,
    classify_orbit,
    omega,
    r_matrix,
)
from kdeform import jsonio
from kdeform.cli import main
from kdeform.hopf import DeformationContext
from kdeform.minkowski import coordinate
from kdeform.scalars import GaussRational as GR

I = GR(0, 1)


class TestScalarRoundTrip:
    def test_hseries(self, eta2):
        alg = PoincareAlgebra(eta2, 3)
        one = alg.one()
        scalar = one + one.times_h(1, GR(0, 1)) + one.times_h(2, GR(2, -3))
        data = jsonio.element_to_json(scalar)
        (term,) = data["terms"]
        assert term["monomial"] == []
        coeff = term["coeff"]
        assert all(set(d) == {"h_power", "re_num", "re_den", "im_num", "im_den"} for d in coeff)
        assert [d["h_power"] for d in coeff] == [0, 1, 2]  # zero coefficient of h^3 omitted
        assert decode_json(json.loads(json.dumps(data)), alg) == scalar

    def test_series_to_json(self):
        from fractions import Fraction

        nz = ((0, I), (2, Fraction(-1, 8)))
        assert jsonio.series_to_json(nz) == [
            {"h_power": 0, "re_num": 0, "re_den": 1, "im_num": 1, "im_den": 1},
            {"h_power": 2, "re_num": -1, "re_den": 8, "im_num": 0, "im_den": 1},
        ]
        assert jsonio.series_to_json(()) == []

    def test_rational_strings(self):
        from fractions import Fraction

        assert jsonio.parse_rational("3/4") == Fraction(3, 4)
        assert jsonio.parse_rational(-2) == Fraction(-2)
        with pytest.raises(ValueError):
            jsonio.parse_rational(0.5)


class TestExpressionRoundTrips:
    def test_algebra_element(self, eta4):
        ctx = DeformationContext(eta4, [1, 0, 0, 0], 3)
        for elem in (ctx.pi, ctx.pi_inv, ctx.c_tau, ctx.antipode(ctx.algebra.momentum_code(0))):
            data = json.loads(json.dumps(jsonio.element_to_json(elem)))
            assert decode_json(data, ctx.algebra) == elem

    def test_tensor_element(self, eta4):
        ctx = DeformationContext(eta4, [1, 0, 0, 1], 3)
        for code in ctx.generator_codes():
            t = ctx.coproduct(code)
            data = json.loads(json.dumps(jsonio.tensor_to_json(t)))
            assert decode_json(data, ctx.algebra) == t

    def test_wedge_element(self, eta4):
        alg = PoincareAlgebra(eta4, 2)
        for w in (r_matrix(alg, VectorTau(eta4, [1, 0, 0, 1])), omega(alg)):
            data = json.loads(json.dumps(jsonio.wedge_to_json(w)))
            assert decode_json(data, alg) == w

    def test_minkowski_element(self, eta4):
        ctx = DeformationContext(eta4, [1, 0, 0, 0], 2)
        elem = coordinate(ctx, 1) * coordinate(ctx, 0) + coordinate(ctx, 2) * I
        data = json.loads(json.dumps(jsonio.mink_to_json(elem)))
        assert decode_json(data, ctx) == elem

    def test_orbit(self, eta4):
        o = classify_orbit(eta4, VectorTau(eta4, [0, 0, 0, 1]))
        data = json.loads(json.dumps(jsonio.orbit_to_json(o)))
        assert decode_orbit(data) == o
        assert data["stability"] == {"kind": "SO", "p": 2, "q": 1}


class TestStructuredOutputs:
    def test_failed_check_carries_residual_json(self, eta4):
        from kdeform.hopf import DeformationContext, verify_hopf

        # a unit bump 1 (x) 1 on the coproduct of M_01, the first generator
        ctx = DeformationContext(eta4, [1, 0, 0, 0], 2, shift={1: {(((), ()), 0): 1}})
        rep = verify_hopf(ctx, checks=[3])
        bad = [c for c in rep.checks if not c.passed]
        assert bad
        payload = json.loads(json.dumps(rep.to_json()))
        failed = [c for c in payload["checks"] if not c["passed"]]
        assert failed and "residual" in failed[0]


class TestRunConfig:
    def test_parse_and_validate(self):
        cfg = jsonio.config_from_json(
            {
                "dimension": 2,
                "metric": [["0", "1"], ["1", "0"]],
                "tau": ["1", "0"],
                "truncation_order": 3,
                "basis": "lightcone",
                "output_format": "json",
            }
        )
        assert cfg.dimension == 2
        assert cfg.tau.tau_sq == 0
        assert cfg.truncation_order == 3

    def test_float_rejected(self):
        with pytest.raises(ValueError):
            jsonio.config_from_json({"metric": [[1.0, 0], [0, 1]], "tau": [1, 0]})

    def test_float_dimension_rejected(self, tmp_path):
        # 2.0 == 2: only its type tells a float dimension from an int
        raw = {"metric": [[1, 0], [0, 1]], "tau": [1, 1], "dimension": 2.0}
        with pytest.raises(ValueError, match="dimension"):
            jsonio.config_from_json(raw)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(raw))
        assert main(["classify", "--config", str(cfg)]) == 2

    @pytest.mark.parametrize(
        "patch, match",
        [
            ({"metric": None}, "missing the 'metric' field"),
            ({"tau": None}, "missing the 'tau' field"),
            ({"metric": "diag(-1,1)"}, "metric must be a list"),
            ({"metric": [[-1, 0], "0 1"]}, "a metric row must be a list"),
            ({"tau": {"0": 1}}, "tau must be a list"),
            ({"tau": [True, 0]}, "rationals must be exact"),
            ({"metric": [["-1/0", 0], [0, 1]]}, "zero denominator"),
            ({"dimension": 3}, "dimension must be an integer equal to the metric size"),
            ({"truncation_order": 0}, "truncation_order must be an integer >= 1"),
            ({"truncation_order": "2"}, "truncation_order must be an integer >= 1"),
            ({"basis": "diagonal"}, "basis must be one of"),
            ({"output_format": "xml"}, "output_format must be one of"),
        ],
    )
    def test_malformed_field_rejected(self, patch, match):
        # a field patched to None is left out
        raw = {"metric": [[-1, 0], [0, 1]], "tau": [1, 0]}
        raw.update(patch)
        raw = {k: v for k, v in raw.items() if v is not None}
        with pytest.raises(ValueError, match=match):
            jsonio.config_from_json(raw)

    def test_non_object_rejected(self):
        with pytest.raises(ValueError, match="JSON object"):
            jsonio.config_from_json([[[-1, 0], [0, 1]], [1, 0]])

    def test_asymmetric_rejected(self):
        with pytest.raises(ValueError):
            jsonio.config_from_json({"metric": [[1, 2], [0, 1]], "tau": [1, 0]})

    def test_suite_order_defaults(self):
        cfg = jsonio.config_from_json({"metric": [[-1, 0], [0, 1]], "tau": [1, 0]})
        assert cfg.order_for("hopf") == 4
        assert cfg.order_for("twist") == 3
        cfg.truncation_order = 2
        assert cfg.order_for("twist") == 2

    def test_json_round_trip(self):
        raw = {
            "dimension": 2,
            "metric": [["-1", "0"], ["0", "1"]],
            "tau": ["1", "0"],
            "truncation_order": 2,
            "basis": "auto",
            "output_format": "text",
        }
        cfg = jsonio.config_from_json(raw)
        assert cfg.dimension == 2
        assert cfg.metric.rows == ((-1, 0), (0, 1))
        assert cfg.tau.components == (1, 0)
        assert (cfg.truncation_order, cfg.basis, cfg.output_format) == (2, "auto", "text")
