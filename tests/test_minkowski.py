"""The coordinate algebra and the action, in the engine's real coordinates
y = -i x and rotations X = -iM: [y^mu, y^nu] = h (tau^mu y^nu - tau^nu y^mu),
P_mu |> y^nu = -delta and X_mn |> y^rho = y_m delta_n^rho - y_n delta_m^rho."""

import pytest

from kdeform import GaussRational, HSeries
from kdeform.hopf import DeformationContext
from kdeform.minkowski import (
    act,
    act_on_product,
    coordinate,
    coordinate_monomial,
    scalar_mink,
    verify_covariance,
)

I = GaussRational(0, 1)


@pytest.fixture(scope="module")
def ctx_t(eta4):
    return DeformationContext(eta4, [1, 0, 0, 0], 3)


class TestCoordinateAlgebra:
    def test_defining_relation(self, ctx_t):
        # y1 y0 = y0 y1 - h y1 for tau = (1,0,0,0)
        y0, y1 = coordinate(ctx_t, 0), coordinate(ctx_t, 1)
        assert y1 * y0 == y0 * y1 - y1 * HSeries.h_power(3, 1)
        # the paper's x = i y: x1 x0 = x0 x1 - i h x1
        x0, x1 = y0 * I, y1 * I
        assert x1 * x0 == x0 * x1 - x1 * HSeries.h_power(3, 1, I)

    def test_spatial_coordinates_commute(self, ctx_t):
        x1, x2 = coordinate(ctx_t, 1), coordinate(ctx_t, 2)
        assert x1 * x2 == x2 * x1

    def test_h_zero_limit_is_polynomial_product(self, ctx_t):
        x0, x1 = coordinate(ctx_t, 0), coordinate(ctx_t, 1)
        prod = x1 * x0
        assert prod.terms[((0, 1), 0)] == 1

    def test_multiplication_associative(self, ctx_t):
        xs = [coordinate(ctx_t, mu) for mu in range(4)]
        for a, b, c in [(0, 1, 0), (3, 0, 1), (0, 0, 2)]:
            lhs = (xs[a] * xs[b]) * xs[c]
            rhs = xs[a] * (xs[b] * xs[c])
            assert lhs == rhs


class TestAction:
    def test_momentum_on_coordinate(self, ctx_t):
        alg = ctx_t.algebra
        y1 = coordinate(ctx_t, 1)
        assert act(ctx_t, alg.momentum_code(1), y1) == scalar_mink(ctx_t, -1)
        assert act(ctx_t, alg.momentum_code(0), y1).is_zero
        # P_1 |> x^1 = -i
        assert act(ctx_t, alg.momentum_code(1), y1 * I) == scalar_mink(ctx_t, -I)

    def test_rotation_on_coordinate(self, ctx_t):
        alg = ctx_t.algebra
        # X_12 |> y^2 = y_1 = y^1 (spatial index lowers trivially); the paper's
        # M_12 |> x^2 = i x_1 alike
        code = alg.rotation_code(1, 2)[0]
        assert act(ctx_t, code, coordinate(ctx_t, 2)) == coordinate(ctx_t, 1)
        m12 = ctx_t.algebra.M(1, 2)
        assert act(ctx_t, m12, coordinate(ctx_t, 2) * I) == coordinate(ctx_t, 1) * I * I

    def test_boost_lowers_with_metric(self, ctx_t):
        alg = ctx_t.algebra
        # X_01 |> y^1 = y_0 = -y^0 with g_00 = -1
        code = alg.rotation_code(0, 1)[0]
        assert act(ctx_t, code, coordinate(ctx_t, 1)) == -coordinate(ctx_t, 0)

    def test_action_represents_brackets(self, ctx_t):
        # P_1 X_01 is out of PBW order: its normal form X_01 P_1 - P_0 acts
        # on y^0 as 1, and so must X_01 then P_1 (X_01 |> y^0 = -y^1)
        alg = ctx_t.algebra
        p1 = ctx_t.gen_element(alg.momentum_code(1))
        x01 = ctx_t.gen_element(alg.rotation_code(0, 1)[0])
        y0 = coordinate(ctx_t, 0)
        assert act(ctx_t, p1 * x01, y0) == scalar_mink(ctx_t, 1)
        assert act(ctx_t, p1, act(ctx_t, x01, y0)) == scalar_mink(ctx_t, 1)

    def test_leibniz_through_deformed_coproduct(self, ctx_t):
        alg = ctx_t.algebra
        y0, y1 = coordinate(ctx_t, 0), coordinate(ctx_t, 1)
        assert act(ctx_t, alg.momentum_code(1), y0 * y1) == -y0

    def test_unit_and_counit(self, ctx_t):
        alg = ctx_t.algebra
        a = coordinate_monomial(ctx_t, (0, 1))
        assert act(ctx_t, alg.one(), a) == a
        assert act(ctx_t, alg.momentum_code(0), scalar_mink(ctx_t, 1)).is_zero

    def test_action_linear_in_series(self, ctx_t):
        alg = ctx_t.algebra
        y1 = coordinate(ctx_t, 1)
        op = alg.P(1) * HSeries.h_power(3, 2)
        assert act(ctx_t, op, y1) == scalar_mink(ctx_t, -1) * HSeries.h_power(3, 2)


class TestStar:
    def test_reality_of_relations(self, ctx_t):
        x0, x1 = coordinate(ctx_t, 0), coordinate(ctx_t, 1)
        prod = x0 * x1
        assert prod.star() == x1.star() * x0.star()

    def test_fixes_coordinates(self, ctx_t):
        # x* = x, so y* = (-i x)* = -y
        y2 = coordinate(ctx_t, 2)
        assert y2.star() == -y2
        assert (y2 * I).star() == y2 * I


class TestCovariance:
    def test_timelike(self, ctx_t):
        rep = verify_covariance(ctx_t, max_degree=3)
        assert rep.all_passed, [f"{c.name} {c.generator}" for c in rep.failures()[:4]]

    def test_lightlike(self, eta4):
        ctx = DeformationContext(eta4, [1, 0, 0, 1], 3)
        rep = verify_covariance(ctx, max_degree=3)
        assert rep.all_passed

    def test_relation_check_is_not_vacuous(self, ctx_t):
        # the two orderings are expanded independently before normal ordering
        alg = ctx_t.algebra
        x0, x1 = coordinate(ctx_t, 0), coordinate(ctx_t, 1)
        boost = ctx_t.gen_element(alg.rotation_code(0, 1)[0])
        lhs = act_on_product(ctx_t, boost, x0, x1)
        rhs = act_on_product(ctx_t, boost, x1, x0)
        assert lhs != rhs  # orderings differ before the relation is imposed
