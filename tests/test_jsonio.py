import json

import pytest

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
        assert jsonio.element_from_json(json.loads(json.dumps(data)), alg) == scalar

    @pytest.mark.parametrize("power", [-1, True, 1.0, "1"])
    def test_h_power_must_be_a_plain_int(self, eta2, power):
        data = [{"h_power": power, "re_num": 5, "re_den": 1, "im_num": 0, "im_den": 1}]
        term = {"monomial": [], "coeff": data}
        with pytest.raises(ValueError, match="h_power"):
            jsonio.element_from_json({"terms": [term]}, PoincareAlgebra(eta2, 3))

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
            assert jsonio.element_from_json(data, ctx.algebra) == elem

    def test_tensor_element(self, eta4):
        ctx = DeformationContext(eta4, [1, 0, 0, 1], 3)
        for code in ctx.generator_codes():
            t = ctx.coproduct(code)
            data = json.loads(json.dumps(jsonio.tensor_to_json(t)))
            assert jsonio.tensor_from_json(data, ctx.algebra) == t

    def test_wedge_element(self, eta4):
        alg = PoincareAlgebra(eta4, 2)
        for w in (r_matrix(alg, VectorTau(eta4, [1, 0, 0, 1])), omega(alg)):
            data = json.loads(json.dumps(jsonio.wedge_to_json(w)))
            assert jsonio.wedge_from_json(data, alg) == w

    def test_minkowski_element(self, eta4):
        ctx = DeformationContext(eta4, [1, 0, 0, 0], 2)
        elem = coordinate(ctx, 1) * coordinate(ctx, 0) + coordinate(ctx, 2) * I
        data = json.loads(json.dumps(jsonio.mink_to_json(elem)))
        assert jsonio.mink_from_json(data, ctx) == elem

    def test_orbit(self, eta4):
        o = classify_orbit(eta4, VectorTau(eta4, [0, 0, 0, 1]))
        data = json.loads(json.dumps(jsonio.orbit_to_json(o)))
        assert jsonio.orbit_from_json(data) == o
        assert data["stability"] == {"kind": "SO", "p": 2, "q": 1}


ONE = [{"h_power": 0, "re_num": 1, "re_den": 1, "im_num": 0, "im_den": 1}]
P0_M01 = [{"P": 0}, {"M": [0, 1]}]  # P_0 M_01: M_01 comes first in PBW order


class TestMalformedKeys:
    def test_tensor_key_with_more_legs(self, eta4):
        alg = PoincareAlgebra(eta4, 2)
        term = {"monomials": [[{"P": 0}], [{"P": 1}], [{"P": 2}]], "coeff": ONE}
        with pytest.raises(ValueError, match=r"\[P_0 \(x\) P_1 \(x\) P_2\] has 3 legs"):
            jsonio.tensor_from_json({"legs": 2, "terms": [term]}, alg)

    def test_wedge_term_with_more_generators(self, eta4):
        alg = PoincareAlgebra(eta4, 2)
        term = {"generators": [{"P": 0}, {"P": 1}, {"P": 2}], "coeff": ONE[0]}
        with pytest.raises(ValueError, match=r"P_0 \^ P_1 \^ P_2 has 3 generators"):
            jsonio.wedge_from_json({"degree": 2, "terms": [term]}, alg)

    def test_unsorted_monomial(self, eta4):
        alg = PoincareAlgebra(eta4, 2)
        with pytest.raises(ValueError, match="P_0 M_01 is not in PBW order"):
            jsonio.element_from_json({"terms": [{"monomial": P0_M01, "coeff": ONE}]}, alg)
        term = {"monomials": [[], P0_M01], "coeff": ONE}
        with pytest.raises(ValueError, match="P_0 M_01 is not in PBW order"):
            jsonio.tensor_from_json({"legs": 2, "terms": [term]}, alg)

    @pytest.mark.parametrize("word", [[1, 0], [0, 4], [-1], ["1"]])
    def test_minkowski_word(self, eta4, word):
        ctx = DeformationContext(eta4, [1, 0, 0, 0], 2)
        term = {"monomial": [{"x": mu} for mu in word], "coeff": ONE}
        with pytest.raises(ValueError, match="coordinate word"):
            jsonio.mink_from_json({"terms": [term]}, ctx)


ONE_H1 = [{**ONE[0], "h_power": 1}]
REPEATED = {
    # two terms of one key at h^0, and one key's h^1 coefficient given twice
    "element": (
        lambda data, ctx: jsonio.element_from_json(data, ctx.algebra),
        {"terms": [{"monomial": [{"P": 0}], "coeff": ONE}, {"monomial": [{"P": 0}], "coeff": ONE}]},
        {"terms": [{"monomial": [{"P": 0}], "coeff": ONE_H1 * 2}]},
        r"repeated term P_0 at h\^",
    ),
    "tensor": (
        lambda data, ctx: jsonio.tensor_from_json(data, ctx.algebra),
        {"legs": 2, "terms": [{"monomials": [[], [{"P": 0}]], "coeff": ONE}] * 2},
        {"legs": 2, "terms": [{"monomials": [[], [{"P": 0}]], "coeff": ONE_H1 * 2}]},
        r"repeated term \[1 \(x\) P_0\] at h\^",
    ),
    "minkowski": (
        jsonio.mink_from_json,
        {"terms": [{"monomial": [{"x": 0}, {"x": 1}], "coeff": ONE}] * 2},
        {"terms": [{"monomial": [{"x": 0}, {"x": 1}], "coeff": ONE_H1 * 2}]},
        r"repeated term x0 x1 at h\^",
    ),
    "wedge": (
        lambda data, ctx: jsonio.wedge_from_json(data, ctx.algebra),
        {"degree": 2, "terms": [{"generators": [{"P": 0}, {"P": 1}], "coeff": ONE[0]}] * 2},
        # the same wedge coordinate with its generators swapped
        {
            "degree": 2,
            "terms": [
                {"generators": [{"P": 0}, {"P": 1}], "coeff": ONE[0]},
                {"generators": [{"P": 1}, {"P": 0}], "coeff": ONE[0]},
            ],
        },
        r"repeated term P_. \^ P_.",
    ),
}


@pytest.mark.parametrize("kind", sorted(REPEATED))
def test_repeated_term_rejected(eta4, kind):
    read, twice, twice_again, match = REPEATED[kind]
    ctx = DeformationContext(eta4, [1, 0, 0, 0], 2)
    for data in (twice, twice_again):
        with pytest.raises(ValueError, match=match):
            read(json.loads(json.dumps(data)), ctx)


class TestStructuredOutputs:
    def test_basis_change(self, eta4):
        from kdeform.bases import orthogonal_decompose

        ch = orthogonal_decompose(eta4, VectorTau(eta4, [2, 1, 0, 0]))
        data = json.loads(json.dumps(jsonio.basischange_to_json(ch)))
        assert set(data) == {"matrix", "transformed_metric"}
        assert data["transformed_metric"][0][0] == "-3"
        assert data["matrix"][0][0] == "2"  # first column is tau

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
        assert jsonio.config_to_json(cfg) == raw
