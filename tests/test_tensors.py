import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kdeform import (
    GaussRational,
    Metric,
    PoincareAlgebra,
    TensorElement,
    VectorTau,
    WedgeElement,
    classify_orbit,
    omega,
    r_matrix,
    schouten_square,
    tensor_exp,
    tensor_invert,
)
from kdeform.errors import ContextMismatchError, InvalidVectorError
from kdeform.hopf import DeformationContext
from kdeform.minkowski import coordinate_monomial
from kdeform.tensors import tensor_commutator

from conftest import random_metric, random_tau

I = GaussRational(0, 1)


class TestTensorProduct:
    def test_legwise_product(self, eta4):
        alg = PoincareAlgebra(eta4, 2)
        a = TensorElement.of(alg.P(0), alg.one())
        b = TensorElement.of(alg.one(), alg.P(1))
        assert a * b == TensorElement.of(alg.P(0), alg.P(1))

    def test_unit(self, eta4):
        alg = PoincareAlgebra(eta4, 2)
        t = TensorElement.of(alg.M(0, 1), alg.P(0) + alg.P(1) * I)
        unit = TensorElement.unit(alg, 2)
        assert unit * t == t
        assert t * unit == t

    def test_left_leg_product_ordered(self, eta4):
        alg = PoincareAlgebra(eta4, 2)
        a = TensorElement.of(alg.M(0, 1), alg.one())
        b = TensorElement.of(alg.P(0), alg.one())
        assert a * b == TensorElement.of(alg.M(0, 1) * alg.P(0), alg.one())

    def test_leg_count_mismatch(self, eta4):
        alg = PoincareAlgebra(eta4, 2)
        with pytest.raises(ContextMismatchError):
            TensorElement.unit(alg, 2) * TensorElement.unit(alg, 3)

    def test_commutator_helper(self, eta4):
        alg = PoincareAlgebra(eta4, 2)
        a = TensorElement.of(alg.M(0, 1), alg.P(0))
        b = TensorElement.of(alg.P(0), alg.P(1) + alg.M(1, 2) * I)
        assert tensor_commutator(a, b) == a * b - b * a


def _random_element(rng, ctx, min_h=0):
    """A few products of generators, P_tau, Pi and Pi^-1 with random
    Gaussian-rational coefficients, each at a random power h^k, k >= min_h."""
    alg = ctx.algebra
    pool = [alg.one(), ctx.p_tau, ctx.pi, ctx.pi_inv]
    pool += [ctx.gen_element(c) for c in alg.generator_codes()]
    out = alg.zero()
    for _ in range(2):
        c = GaussRational(rng.randint(-2, 2), rng.randint(-2, 2))
        out = out + (rng.choice(pool) * rng.choice(pool)).times_h(rng.randint(min_h, 2), c)
    return out


def _random_context(seed, dim):
    rng = random.Random(seed)
    metric = random_metric(rng, dim)
    return rng, DeformationContext(metric, random_tau(rng, metric), 2)


class TestSharedKernel:
    """Tensors of two and three legs, merge_legs, the tensor series and the
    kappa-Minkowski product all run through PoincareAlgebra.mul_terms."""

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), dim=st.sampled_from((2, 3)))
    def test_tensor_identities(self, seed, dim):
        rng, ctx = _random_context(seed, dim)
        alg = ctx.algebra
        a, b, c, d, e, f = (_random_element(rng, ctx) for _ in range(6))

        assert TensorElement.of(a, b) * TensorElement.of(c, d) == TensorElement.of(a * c, b * d)
        assert TensorElement.of(a, b, c) * TensorElement.of(d, e, f) == TensorElement.of(
            a * d, b * e, c * f
        )
        assert TensorElement.of(a, b).merge_legs() == a * b
        assert TensorElement.of(a, b, c).merge_legs() == a * b * c
        s = TensorElement.of(a, b) + TensorElement.of(c, d)
        t = TensorElement.of(e, f) - TensorElement.of(b, a)
        assert tensor_commutator(s, t) == s * t - t * s
        s3, t3 = TensorElement.of(a, b, c), TensorElement.of(f, e, d)
        assert tensor_commutator(s3, t3) == s3 * t3 - t3 * s3

        x = TensorElement.of(_random_element(rng, ctx, 1), b) + TensorElement.of(
            c, _random_element(rng, ctx, 1)
        )
        unit = TensorElement.unit(alg, 2)
        assert tensor_invert(unit + x) * (unit + x) == unit
        assert tensor_exp(x) * tensor_exp(-x) == unit

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), dim=st.sampled_from((2, 3)))
    def test_coordinate_product(self, seed, dim):
        rng, ctx = _random_context(seed, dim)

        def element():
            out = coordinate_monomial(ctx, ())
            for _ in range(2):
                word = [rng.randrange(dim) for _ in range(rng.randint(1, 3))]
                c = GaussRational(rng.randint(-2, 2), rng.randint(-2, 2))
                out = out + coordinate_monomial(ctx, word) * c
            return out

        a, b, c = element(), element(), element()
        assert (a * b) * c == a * (b * c)
        assert (a * b).star() == b.star() * a.star()


class TestEmbed:
    def test_placements(self, eta4):
        alg = PoincareAlgebra(eta4, 2)
        t = TensorElement.of(alg.P(0), alg.P(1))
        e13 = t.embed("13")
        assert e13 == TensorElement.of(alg.P(0), alg.one(), alg.P(1))
        assert t.embed("12") == TensorElement.of(alg.P(0), alg.P(1), alg.one())
        assert t.embed("23") == TensorElement.of(alg.one(), alg.P(0), alg.P(1))

    def test_unit_embeds_to_unit(self, eta4):
        alg = PoincareAlgebra(eta4, 2)
        for pl in ("12", "13", "23"):
            assert TensorElement.unit(alg, 2).embed(pl) == TensorElement.unit(alg, 3)

    def test_invalid_placement(self, eta4):
        alg = PoincareAlgebra(eta4, 2)
        with pytest.raises(ValueError):
            TensorElement.unit(alg, 2).embed("21")


class TestWedgeStorage:
    def test_antisymmetric_reads(self, eta4):
        alg = PoincareAlgebra(eta4, 2)
        w = WedgeElement(alg, 2)
        a, b = alg.momentum_code(0), alg.momentum_code(1)
        w.add((b, a), GaussRational(3))
        assert w.coefficient((a, b)) == GaussRational(-3)
        assert w.coefficient((b, a)) == GaussRational(3)

    def test_repeated_entries_vanish(self, eta4):
        alg = PoincareAlgebra(eta4, 2)
        w = WedgeElement(alg, 2)
        a = alg.momentum_code(0)
        w.add((a, a), GaussRational(5))
        assert w.is_zero


class TestRMatrix:
    def test_timelike_form(self, eta4):
        # r = M_0i ^ P^i = sum_i M_0i ^ P_i for the mostly-plus metric
        alg = PoincareAlgebra(eta4, 2)
        r = r_matrix(alg, VectorTau(eta4, [1, 0, 0, 0]))
        expect = WedgeElement(alg, 2)
        for i in (1, 2, 3):
            expect.add((alg.rotation_code(0, i)[0], alg.momentum_code(i)), GaussRational(1))
        assert r == expect

    def test_spacelike_direct_contraction(self, eta4):
        alg = PoincareAlgebra(eta4, 2)
        r = r_matrix(alg, VectorTau(eta4, [0, 0, 0, 1]))
        expect = WedgeElement(alg, 2)
        expect.add((alg.rotation_code(0, 3)[0], alg.momentum_code(0)), GaussRational(1))
        for i in (1, 2):
            expect.add((alg.rotation_code(i, 3)[0], alg.momentum_code(i)), GaussRational(-1))
        assert r == expect

    def test_lightlike_after_basis_change(self, eta4):
        # in the light-cone adapted basis: r_LC = M_{+-} ^ P_+ + M_{+a} ^ P^a
        from kdeform.bases import adapted_context

        _, ctx = adapted_context(eta4, VectorTau(eta4, [1, 0, 0, 1]), 2)
        alg = ctx.algebra
        r = r_matrix(alg, ctx.tau)
        d = alg.dim
        expect = WedgeElement(alg, 2)
        expect.add((alg.rotation_code(0, d - 1)[0], alg.momentum_code(0)), GaussRational(1))
        ginv = alg.metric.inverse
        for a in range(1, d - 1):
            for b in range(1, d - 1):
                if ginv[a][b]:
                    expect.add(
                        (alg.rotation_code(0, a)[0], alg.momentum_code(b)),
                        GaussRational(ginv[a][b]),
                    )
        assert r == expect

    def test_zero_tau_rejected(self, eta4):
        alg = PoincareAlgebra(eta4, 2)
        with pytest.raises(InvalidVectorError):
            r_matrix(alg, VectorTau(eta4, [0, 0, 0, 0]))


class TestOmega:
    def test_d2_hand_expansion(self):
        # Omega = M_mn ^ P^m ^ P^n; D=2 with g = antidiag: P^0 = P_1, P^1 = P_0
        alg = PoincareAlgebra(Metric([[0, 1], [1, 0]]), 2)
        w = omega(alg)
        expect = WedgeElement(alg, 3)
        expect.add(
            (alg.rotation_code(0, 1)[0], alg.momentum_code(0), alg.momentum_code(1)),
            GaussRational(-2),
        )
        assert w == expect

    def test_d2_diagonal(self):
        alg = PoincareAlgebra(Metric([[2, 0], [0, -3]]), 2)
        w = omega(alg)
        expect = WedgeElement(alg, 3)
        expect.add(
            (alg.rotation_code(0, 1)[0], alg.momentum_code(0), alg.momentum_code(1)),
            GaussRational(Fraction(2, -6)),
        )
        assert w == expect


class TestSchouten:
    def test_anchor_timelike(self, eta4):
        alg = PoincareAlgebra(eta4, 2)
        r = r_matrix(alg, VectorTau(eta4, [1, 0, 0, 0]))
        assert schouten_square(r) == omega(alg)

    def test_null_gives_cybe(self, eta4):
        alg = PoincareAlgebra(eta4, 2)
        r = r_matrix(alg, VectorTau(eta4, [1, 0, 0, 1]))
        assert schouten_square(r).is_zero

    def test_zero_wedge(self, eta4):
        alg = PoincareAlgebra(eta4, 2)
        assert schouten_square(WedgeElement(alg, 2)).is_zero

    def test_sign_flip_of_metric(self, eta4):
        # g -> -g flips tau^2, and the identity stays consistent
        neg = Metric([[-x for x in row] for row in eta4.rows])
        alg = PoincareAlgebra(neg, 2)
        tau = VectorTau(neg, [1, 0, 0, 0])
        assert schouten_square(r_matrix(alg, tau)) == omega(alg) * GaussRational(-tau.tau_sq)

    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_identity_randomized(self, dim):
        rng = random.Random(100 + dim)
        for _ in range(6):
            metric = random_metric(rng, dim)
            tau = random_tau(rng, metric)
            alg = PoincareAlgebra(metric, 2)
            lhs = schouten_square(r_matrix(alg, tau))
            assert lhs == omega(alg) * GaussRational(-tau.tau_sq)


class TestClassifyOrbit:
    def test_lorentzian_cases(self, eta4):
        o = classify_orbit(eta4, VectorTau(eta4, [1, 0, 0, 0]))
        assert (o.yb_type, o.stability_label) == ("MYBE", "SO(3)")
        o = classify_orbit(eta4, VectorTau(eta4, [1, 0, 0, 1]))
        assert (o.yb_type, o.stability_label) == ("CYBE", "ISO(2)")
        o = classify_orbit(eta4, VectorTau(eta4, [0, 0, 0, 1]))
        assert (o.yb_type, o.stability_label) == ("MYBE", "SO(2,1)")

    def test_kleinian(self, kleinian):
        o = classify_orbit(kleinian, VectorTau(kleinian, [1, 1, 1, 1]))
        assert (o.yb_type, o.stability_label) == ("CYBE", "ISO(1,1)")

    def test_zero_tau_rejected(self, eta4):
        with pytest.raises(InvalidVectorError):
            classify_orbit(eta4, VectorTau(eta4, [0, 0, 0, 0]))

    def test_congruence_invariance(self, eta4):
        # simultaneous transform of g and tau leaves the classification alone
        from kdeform import exactla

        rng = random.Random(7)
        for _ in range(5):
            while True:
                cols = [
                    [Fraction(rng.randint(-2, 2), rng.choice([1, 2])) for _ in range(4)]
                    for _ in range(4)
                ]
                try:
                    inv = exactla.invert(exactla.freeze(cols))
                    break
                except Exception:
                    continue
            for tau_comps in ([1, 0, 0, 0], [0, 0, 0, 1], [1, 0, 0, 1]):
                tau = VectorTau(eta4, tau_comps)
                base = classify_orbit(eta4, tau)
                g2 = eta4.congruence(cols)
                tau2 = VectorTau(g2, exactla.mat_vec(inv, tau.components))
                moved = classify_orbit(g2, tau2)
                assert (base.yb_type, base.stability_kind, base.stability_pq) == (
                    moved.yb_type,
                    moved.stability_kind,
                    moved.stability_pq,
                )
