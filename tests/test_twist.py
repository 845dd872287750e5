import random

import pytest

from conftest import random_null_pair
from kdeform import GaussRational, Metric, PoincareAlgebra, TensorElement, VectorTau
from kdeform.bases import adapted_context
from kdeform.errors import InvalidVectorError
from kdeform.hopf import DeformationContext
from kdeform.reports import VerificationReport
from kdeform.tensors import tensor_commutator
from kdeform.twist import build_twist, is_lightcone_adapted, verify_twist


def lc_structure_check(metric: Metric, tau: VectorTau, order: int = 1) -> VerificationReport:
    """All light-cone brackets against the generic structure constants pushed
    through the basis change, plus Abelian-ness of the two building subalgebras
    Gamma_+ = gen{M_+-, P^a} and Gamma_- = gen{P_+, M_+a}."""
    rep = VerificationReport("lightcone-structure")
    if tau.tau_sq or tau.is_zero:
        rep.skipped = "light-cone structure requires null tau"
        return rep
    _, ctx = adapted_context(metric, tau, order)
    alg = ctx.algebra
    d = alg.dim
    minus = d - 1
    g = ctx.metric.rows
    br = alg.bracket
    # [M, P] - i P = i ([X, P] - P) and [M, M] - i M = -([X, X] - X): each
    # relation is recorded in X-form, phase 1 (one rotation) or 2 (two)

    def rec(name, residual, generator=None, phase=1):
        rep.record(name, residual, generator=generator, phase=phase)

    x_pm = alg.X(0, minus)
    p_plus, p_minus = alg.P(0), alg.P(minus)
    rec("bracket-m-plus-minus-p-plus", br(x_pm, p_plus) - p_plus)
    rec("bracket-m-plus-minus-p-minus", br(x_pm, p_minus) + p_minus)
    for a in range(1, minus):
        x_pa, x_ma, p_a = alg.X(0, a), alg.X(minus, a), alg.P(a)
        rec("bracket-m-plus-minus-p-a-vanishes", br(x_pm, p_a), f"P_{a}")
        rec("bracket-m-plus-minus-m-plus-a", br(x_pm, x_pa) - x_pa, f"M_+{a}", 2)
        rec("bracket-m-plus-minus-m-minus-a", br(x_pm, x_ma) + x_ma, f"M_-{a}", 2)
        rec("bracket-m-plus-a-p-plus-vanishes", br(x_pa, p_plus), f"M_+{a}")
        rec("bracket-m-minus-a-p-minus-vanishes", br(x_ma, p_minus), f"M_-{a}")
        rec("bracket-m-plus-a-p-minus", br(x_pa, p_minus) + p_a, f"M_+{a}")
        rec("bracket-m-minus-a-p-plus", br(x_ma, p_plus) + p_a, f"M_-{a}")
        for b in range(1, minus):
            x_pb, x_mb, p_b = alg.X(0, b), alg.X(minus, b), alg.P(b)
            rec("bracket-m-plus-a-p-b", br(x_pa, p_b) - p_plus * g[a][b], f"[M_+{a}, P_{b}]")
            rec("bracket-m-minus-a-p-b", br(x_ma, p_b) - p_minus * g[a][b], f"[M_-{a}, P_{b}]")
            rec("bracket-m-plus-a-m-plus-b-vanishes", br(x_pa, x_pb), f"[M_+{a}, M_+{b}]", 2)
            rec("bracket-m-minus-a-m-minus-b-vanishes", br(x_ma, x_mb), f"[M_-{a}, M_-{b}]", 2)
            rec(
                "bracket-m-plus-a-m-minus-b",
                br(x_pa, x_mb) + alg.X(a, b) + x_pm * g[a][b],
                f"[M_+{a}, M_-{b}]",
                2,
            )
            for c in range(1, minus):
                rhs = alg.X(0, c) * g[a][b] - alg.X(0, b) * g[a][c]
                rec("bracket-m-plus-a-m-bc", br(x_pa, alg.X(b, c)) - rhs, f"[M_+{a}, M_{b}{c}]", 2)
    # Abelian building blocks of the twist, each generator with its rotation count
    gamma_plus = [(x_pm, 1)] + [(alg.momentum_raised(a), 0) for a in range(1, minus)]
    gamma_minus = [(p_plus, 0)] + [(alg.X(0, a), 1) for a in range(1, minus)]
    for name, gens in (("gamma-plus-abelian", gamma_plus), ("gamma-minus-abelian", gamma_minus)):
        for i, (x, n) in enumerate(gens):
            for y, m in gens[i + 1 :]:
                rec(name, br(x, y), phase=n + m)
    return rep


@pytest.fixture(scope="module")
def lc_ctx(eta4):
    _, ctx = adapted_context(eta4, VectorTau(eta4, [1, 0, 0, 1]), 3)
    return ctx


class TestBuildTwist:
    def test_first_order(self, lc_ctx):
        # F = 1 (x) 1 - i h (M_{+-} (x) P_+ + M_{+a} (x) P^a) + O(h^2)
        #   = 1 (x) 1 + h (X_{+-} (x) P_+ + X_{+a} (x) P^a) + O(h^2), X = -iM
        data = build_twist(lc_ctx)
        alg = lc_ctx.algebra
        minus = alg.dim - 1
        assert data.twist.h_coefficient(0).terms == {(((), ()), 0): 1}
        expect_h1 = {(((alg.rotation_code(0, minus)[0],), (alg.momentum_code(0),)), 1): 1}
        ginv = alg.metric.inverse
        for a in range(1, minus):
            for b in range(1, minus):
                if ginv[a][b]:
                    key = ((alg.rotation_code(0, a)[0],), (alg.momentum_code(b),))
                    expect_h1[(key, 1)] = ginv[a][b]
        assert data.twist.h_coefficient(1).terms == expect_h1

    def test_unit_at_h_zero(self, lc_ctx):
        data = build_twist(lc_ctx)
        assert data.twist.h_coefficient(0).terms == {(((), ()), 0): GaussRational(1)}

    def test_factorizations_agree(self, lc_ctx):
        data = build_twist(lc_ctx)
        assert data.twist == data.factor_transverse_first

    def test_triangularity(self, lc_ctx):
        data = build_twist(lc_ctx)
        unit = TensorElement.unit(lc_ctx.algebra, 2)
        assert data.r_quantum.flip() * data.r_quantum == unit

    def test_requires_null_tau(self, eta4):
        ctx = DeformationContext(eta4, [1, 0, 0, 0], 2)
        with pytest.raises(InvalidVectorError):
            build_twist(ctx)

    def test_adapted_flag(self, eta4, lc_ctx):
        assert is_lightcone_adapted(lc_ctx)
        assert not is_lightcone_adapted(DeformationContext(eta4, [1, 0, 0, 1], 2))


def _random_null_lc_ctx():
    metric, tau = random_null_pair(random.Random(11), 3)
    return adapted_context(metric, tau, 2)[1]


class TestConjugationBridge:
    """verify_twist conjugates by commutators, T y T^-1 = y + [T, y] T^-1;
    here against the plain triple products, for every generator."""

    @pytest.mark.parametrize("which", ["light-like-N3", "random-D3-null-N2"])
    def test_commutator_route_is_the_product_route(self, lc_ctx, which):
        ctx = lc_ctx if which == "light-like-N3" else _random_null_lc_ctx()
        data = build_twist(ctx)
        f, f_inv, r, r_inv = data.twist, data.twist_inv, data.r_quantum, data.r_quantum_inv
        for code in ctx.generator_codes():
            d0 = ctx._primitive_gen(code)
            d_lc = f * d0 * f_inv
            assert d0 + tensor_commutator(f, d0) * f_inv == d_lc, ctx.gen_name(code)
            assert d_lc + tensor_commutator(r, d_lc) * r_inv == r * d_lc * r_inv, ctx.gen_name(code)


class TestVerifyTwist:
    def test_lorentzian(self, eta4):
        rep = verify_twist(DeformationContext(eta4, [1, 0, 0, 1], 3))
        assert rep.all_passed, [f"{c.name} {c.generator}" for c in rep.failures()[:5]]

    def test_kleinian(self, kleinian):
        rep = verify_twist(DeformationContext(kleinian, [1, 1, 1, 1], 3))
        assert rep.all_passed

    def test_d2(self):
        lc = Metric([[0, 1], [1, 0]])
        rep = verify_twist(DeformationContext(lc, [1, 0], 4))
        assert rep.all_passed

    def test_timelike_skipped(self, eta4):
        rep = verify_twist(DeformationContext(eta4, [1, 0, 0, 0], 2))
        assert rep.skipped

    @pytest.mark.parametrize("tau", [[1, 1, 0], [1, 0, 1]])
    @pytest.mark.parametrize("gen", ["P_1", "M_01"])
    def test_corrupted_table_fails_in_auto_adapted_basis(self, eta3, tau, gen):
        # a null tau off the light-cone basis: the suite runs in a freshly
        # adapted context, and the caller's own tables must still be read
        alg = PoincareAlgebra(eta3, 2)
        code = alg.momentum_code(1) if gen == "P_1" else alg.rotation_code(0, 1)[0]
        assert verify_twist(DeformationContext(eta3, tau, 2)).all_passed
        # an h^1 (1 (x) 1) bump on one generator coproduct, stated in M and P
        rep = verify_twist(DeformationContext(eta3, tau, 2, shift={code: {(((), ()), 1): 1}}))
        assert {(c.name, c.generator) for c in rep.failures()} == {
            ("caller-coproduct-in-adapted-basis", gen)
        }


class TestLCStructure:
    def test_lorentzian(self, eta4):
        rep = lc_structure_check(eta4, VectorTau(eta4, [1, 0, 0, 1]))
        assert rep.all_passed
        names = {c.name for c in rep.checks}
        assert "bracket-m-plus-a-m-minus-b" in names
        assert "gamma-plus-abelian" in names and "gamma-minus-abelian" in names

    def test_kleinian(self, kleinian):
        rep = lc_structure_check(kleinian, VectorTau(kleinian, [1, 1, 1, 1]))
        assert rep.all_passed

    def test_nonnull_skipped(self, eta4):
        rep = lc_structure_check(eta4, VectorTau(eta4, [1, 0, 0, 0]))
        assert rep.skipped
