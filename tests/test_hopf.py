from fractions import Fraction

import pytest

from kdeform import GaussRational, HSeries, Metric, TensorElement
from kdeform.hopf import (
    DeformationContext,
    pi_identities_report,
    primitivity_report,
    verify_hopf,
)

I = GaussRational(0, 1)


class TestPiTau:
    def test_null_series_terminates(self, eta4):
        ctx = DeformationContext(eta4, [1, 0, 0, 1], 4)
        alg = ctx.algebra
        assert ctx.pi == alg.one() + (alg.P(0) + alg.P(3)) * alg.h()

    def test_timelike_hand_expansion(self, eta4):
        # tau^2 = -1: Pi = 1 + h P_0 - h^2/2 C at N = 3
        ctx = DeformationContext(eta4, [1, 0, 0, 0], 3)
        alg = ctx.algebra
        expect = alg.one() + alg.P(0) * alg.h() - ctx.casimir * HSeries.h_power(
            3, 2, GaussRational(Fraction(1, 2))
        )
        assert ctx.pi == expect

    def test_zero_tau(self, eta4):
        ctx = DeformationContext(eta4, [0, 0, 0, 0], 3)
        assert ctx.pi == ctx.algebra.one()


class TestPiTauInverse:
    def test_null_geometric(self, eta4):
        ctx = DeformationContext(eta4, [1, 0, 0, 1], 3)
        alg = ctx.algebra
        pt = alg.P(0) + alg.P(3)
        expect = (
            alg.one() - pt * alg.h() + (pt * pt) * alg.h(2) - (pt * pt * pt) * alg.h(3)
        )
        assert ctx.pi_inv == expect

    def test_defining_property(self, eta4):
        ctx = DeformationContext(eta4, [0, 0, 0, 1], 4)
        assert ctx.pi * ctx.pi_inv == ctx.algebra.one()

    def test_timelike_hand_expansion_n2(self, eta4):
        ctx = DeformationContext(eta4, [1, 0, 0, 0], 2)
        alg = ctx.algebra
        expect = (
            alg.one()
            - alg.P(0) * alg.h()
            + (alg.P(0) * alg.P(0) + ctx.casimir * Fraction(1, 2)) * alg.h(2)
        )
        assert ctx.pi_inv == expect


class TestCTau:
    def test_null_case_is_casimir(self, eta4):
        ctx = DeformationContext(eta4, [1, 0, 0, 1], 4)
        assert ctx.c_tau == ctx.casimir

    def test_generic_order_h2(self, eta4):
        # C_tau = C - tau^2/4 h^2 C^2 + O(h^4)
        ctx = DeformationContext(eta4, [0, 0, 0, 1], 2)
        c = ctx.casimir
        expect = c - c * c * HSeries.h_power(2, 2, GaussRational(Fraction(1, 4)))
        assert ctx.c_tau == expect

    def test_inversion_identity(self, eta4, kleinian):
        for metric, tau in ((eta4, [1, 0, 0, 0]), (kleinian, [1, 1, 1, 1])):
            ctx = DeformationContext(metric, tau, 4)
            t2 = ctx.tau.tau_sq
            quarter = HSeries.h_power(4, 2, GaussRational(Fraction(t2, 4)))
            assert ctx.c_tau * (ctx.algebra.one() + ctx.c_tau * quarter) == ctx.casimir


class TestCoproduct:
    def test_spatial_momentum_form(self, eta4):
        ctx = DeformationContext(eta4, [1, 0, 0, 0], 3)
        alg = ctx.algebra
        d = ctx.coproduct(alg.momentum_code(1))
        assert d == TensorElement.of(alg.P(1), ctx.pi) + TensorElement.of(
            alg.one(), alg.P(1)
        )

    def test_order_h_expansion(self, eta4):
        ctx = DeformationContext(eta4, [1, 0, 0, 0], 3)
        alg = ctx.algebra
        d = ctx.coproduct(alg.momentum_code(1))
        p1, p0 = (alg.momentum_code(1),), (alg.momentum_code(0),)
        assert d.h_coefficient(0) == {(p1, ()): GaussRational(1), ((), p1): GaussRational(1)}
        assert d.h_coefficient(1) == {(p1, p0): GaussRational(1)}

    def test_zero_tau_primitive(self, eta4):
        ctx = DeformationContext(eta4, [0, 0, 0, 0], 2)
        for code in ctx.generator_codes():
            assert ctx.coproduct(code) == ctx._primitive_gen(code)

    def test_stability_primitivity_timelike(self, eta4):
        # G_tau = SO(3): exactly the spatial rotations stay primitive
        ctx = DeformationContext(eta4, [1, 0, 0, 0], 2)
        alg = ctx.algebra
        stability = {alg.rotation_code(i, j)[0] for (i, j) in [(1, 2), (1, 3), (2, 3)]}
        rep = primitivity_report(ctx, stability)
        assert rep.all_passed


class TestCoproductExtension:
    def test_unit(self, eta4):
        ctx = DeformationContext(eta4, [1, 0, 0, 0], 2)
        assert ctx.coproduct_of(ctx.algebra.one()) == TensorElement.unit(ctx.algebra, 2)

    def test_pi_group_like(self, eta4):
        ctx = DeformationContext(eta4, [0, 0, 0, 1], 3)
        assert ctx.coproduct_of(ctx.pi) == TensorElement.of(ctx.pi, ctx.pi)

    def test_sqrt_display_with_corrected_coefficient(self, eta4):
        # Delta(sqrt(1 + h^2 tau^2 C)) = sqrt (x) Pi - h Pi^-1 (x) P_tau
        #   + h^2 tau^2 P^a Pi^-1 (x) P_a - h^2 P_tau Pi^-1 (x) P_tau
        # (the last coefficient is h^2, forced by the rescaling symmetry)
        ctx = DeformationContext(eta4, [0, 0, 0, 1], 3)
        alg = ctx.algebra
        t2 = ctx.tau.tau_sq
        sqrt_term = ctx.pi - ctx.p_tau * alg.h()
        rhs = TensorElement.of(sqrt_term, ctx.pi)
        rhs = rhs - TensorElement.of(ctx.pi_inv, ctx.p_tau) * alg.h()
        for a in range(alg.dim):
            rhs = rhs + TensorElement.of(
                alg.momentum_raised(a) * ctx.pi_inv, alg.P(a)
            ) * HSeries.h_power(3, 2, GaussRational(t2))
        rhs = rhs - TensorElement.of(ctx.p_tau * ctx.pi_inv, ctx.p_tau) * alg.h(2)
        assert ctx.coproduct_of(sqrt_term) == rhs


class TestAntipode:
    def test_momentum_with_vanishing_covariant_component(self, eta4):
        ctx = DeformationContext(eta4, [1, 0, 0, 0], 3)
        alg = ctx.algebra
        assert ctx.antipode(alg.momentum_code(1)) == -(alg.P(1) * ctx.pi_inv)

    def test_spatial_rotation_classical(self, eta4):
        ctx = DeformationContext(eta4, [1, 0, 0, 0], 3)
        alg = ctx.algebra
        assert ctx.antipode(alg.rotation_code(1, 2)[0]) == -alg.M(1, 2)

    def test_zero_tau_classical(self, eta4):
        ctx = DeformationContext(eta4, [0, 0, 0, 0], 2)
        for code in ctx.generator_codes():
            assert ctx.antipode(code) == -ctx.gen_element(code)


class TestCounit:
    def test_values(self, eta4):
        ctx = DeformationContext(eta4, [1, 0, 0, 0], 2)
        alg = ctx.algebra
        one = HSeries.one(2)
        assert alg.one().counit() == one
        assert (alg.P(0) + alg.M(0, 1) * 3).counit().is_zero
        assert ctx.pi.counit() == one


class TestStarStructure:
    def test_pi_self_conjugate(self, eta4):
        ctx = DeformationContext(eta4, [1, 0, 0, 0], 3)
        assert ctx.pi.star() == ctx.pi
        assert ctx.pi_inv.star() == ctx.pi_inv


class TestMomentumSubalgebra:
    def test_cached_series_commute_pairwise(self, eta4, kleinian):
        # Pi, Pi^-1, C_tau, P_tau, C all live in the commutative momentum
        # subalgebra; their products are order-independent
        for metric, tau in ((eta4, [1, 0, 0, 0]), (kleinian, [1, 1, 1, 1])):
            ctx = DeformationContext(metric, tau, 3)
            series = [ctx.pi, ctx.pi_inv, ctx.c_tau, ctx.p_tau, ctx.casimir]
            for a in series:
                assert all(code >= ctx.algebra._mom0 for m in a.terms for code in m)
                for b in series:
                    assert a * b == b * a


class TestPiIdentities:
    @pytest.mark.parametrize(
        "tau", [[1, 0, 0, 0], [0, 0, 0, 1], [1, 0, 0, 1], [0, 0, 0, 0]]
    )
    def test_all(self, eta4, tau):
        ctx = DeformationContext(eta4, tau, 4)
        assert pi_identities_report(ctx).all_passed

    def test_reports_its_time(self, eta3):
        rep = pi_identities_report(DeformationContext(eta3, [1, 0, 0], 2))
        assert rep.seconds > 0


class TestVerifyHopfSmall:
    """Full ten-check suite on cheap contexts; the heavy D=4 N=4 sweeps live in
    the acceptance module."""

    def test_d3_timelike(self, eta3):
        ctx = DeformationContext(eta3, [1, 0, 0], 3)
        rep = verify_hopf(ctx)
        assert rep.all_passed, [str(c) for c in rep.failures()[:3]]

    def test_d2_lightlike(self):
        lc = Metric([[0, 1], [1, 0]])
        ctx = DeformationContext(lc, [1, 0], 3)
        rep = verify_hopf(ctx)
        assert rep.all_passed

    def test_nondiagonal_perturbed(self, nondiag_lorentzian):
        ctx = DeformationContext(nondiag_lorentzian, [1, 0, 0, 0], 2)
        rep = verify_hopf(ctx)
        assert rep.all_passed

    def test_report_shape(self, eta3):
        ctx = DeformationContext(eta3, [1, 0, 0], 2)
        rep = verify_hopf(ctx, checks=[2, 3])
        names = {c.name for c in rep.checks}
        assert names == {"coassociativity", "counit-axioms"}
        data = rep.to_json()
        assert data["passed"] is True and data["suite"] == "hopf"
