import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kdeform import GaussRational, HSeries, Metric, PoincareAlgebra, VectorTau, divide_h
from kdeform.algebra import AlgebraElement
from kdeform.errors import ContextMismatchError, DegenerateMetricError, NonInvertibleError

from conftest import random_metric


I = GaussRational(0, 1)


class TestMetric:
    def test_signature_lorentzian(self, eta4):
        assert eta4.signature == (3, 1)

    def test_signature_hyperbolic_plane(self):
        assert Metric([[0, 1], [1, 0]]).signature == (1, 1)

    def test_signature_kleinian(self, kleinian):
        assert kleinian.signature == (2, 2)

    def test_degenerate_rejected(self):
        with pytest.raises(DegenerateMetricError):
            Metric([[1, 1], [1, 1]])

    def test_asymmetric_rejected(self):
        with pytest.raises(ValueError):
            Metric([[1, 2], [0, 1]])

    def test_exact_inverse(self, nondiag_lorentzian):
        g = nondiag_lorentzian
        d = g.dim
        prod = [
            [sum(g.rows[i][k] * g.inverse[k][j] for k in range(d)) for j in range(d)]
            for i in range(d)
        ]
        assert prod == [[Fraction(int(i == j)) for j in range(d)] for i in range(d)]


class TestBrackets:
    def test_rotation_momentum_lorentzian(self, eta4):
        # [M_01, P_0] = i(g_10 P_0 - g_00 P_1) = i P_1
        alg = PoincareAlgebra(eta4, 2)
        assert alg.bracket(alg.M(0, 1), alg.P(0)) == alg.P(1) * I

    def test_momenta_commute(self, eta4):
        alg = PoincareAlgebra(eta4, 2)
        assert alg.bracket(alg.P(0), alg.P(1)).is_zero

    def test_lightcone_boost_momentum(self):
        # [M_{+-}, P_+] = i P_+ in the 2d light-cone metric
        lc = Metric([[0, 1], [1, 0]])
        alg = PoincareAlgebra(lc, 2)
        assert alg.bracket(alg.M(0, 1), alg.P(0)) == alg.P(0) * I

    def test_antisymmetry_all_pairs(self, eta3):
        alg = PoincareAlgebra(eta3, 1)
        codes = alg.generator_codes()
        for a in codes:
            for b in codes:
                ea = alg.from_codes({a: GaussRational(1)})
                eb = alg.from_codes({b: GaussRational(1)})
                assert (alg.bracket(ea, eb) + alg.bracket(eb, ea)).is_zero

    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_jacobi_all_triples(self, dim):
        rows = [[0] * dim for _ in range(dim)]
        for i in range(dim):
            rows[i][i] = -1 if i == 0 else 1
        rng = random.Random(11 + dim)
        for metric in (Metric(rows), random_metric(rng, dim)):
            alg = PoincareAlgebra(metric, 1)
            codes = alg.generator_codes()
            gens = [alg.from_codes({c: GaussRational(1)}) for c in codes]
            for x, y, z in itertools.combinations(gens, 3):
                jac = (
                    alg.bracket(x, alg.bracket(y, z))
                    + alg.bracket(y, alg.bracket(z, x))
                    + alg.bracket(z, alg.bracket(x, y))
                )
                assert jac.is_zero


    def test_shift_is_stated_in_m_and_p(self, eta3):
        # [M_01, P_0] += P_1 is [X_01, P_0] += -i P_1 in X = -iM: the product
        # kernel must carry the imaginary table entry on rational operands
        alg = PoincareAlgebra(eta3, 2, shift={(1, 9): {10: 1}})
        clean = PoincareAlgebra(eta3, 2)
        x, p = alg.X(0, 1) * Fraction(1, 2), alg.P(0) * Fraction(1, 3)
        want = clean.bracket(clean.X(0, 1), clean.P(0)) - clean.P(1) * I
        assert alg.bracket(x, p).terms == (want * Fraction(1, 6)).terms
        assert alg.bracket(alg.M(0, 1), alg.P(0)).terms == (
            clean.bracket(clean.M(0, 1), clean.P(0)) + clean.P(1)
        ).terms


class TestMultiply:
    def test_momenta_merge(self, eta4):
        alg = PoincareAlgebra(eta4, 2)
        m = (alg.P(1) * alg.P(0)).terms
        assert [key for key, _ in m] == [(alg.momentum_code(0), alg.momentum_code(1))]

    def test_single_rewrite_step(self, eta4):
        # P_0 M_01 = M_01 P_0 - [M_01, P_0] = M_01 P_0 - i P_1
        alg = PoincareAlgebra(eta4, 2)
        assert alg.P(0) * alg.M(0, 1) == alg.M(0, 1) * alg.P(0) - alg.P(1) * I

    def test_unit(self, eta4):
        alg = PoincareAlgebra(eta4, 2)
        a = alg.M(0, 1) * alg.P(2) + alg.P(0) * HSeries.h_power(2, 1)
        assert alg.one() * a == a
        assert a * alg.one() == a

    def test_associativity_random_words(self, eta4):
        alg = PoincareAlgebra(eta4, 2)
        rng = random.Random(3)
        gens = [alg.M(0, 1), alg.M(1, 2), alg.M(0, 3), alg.P(0), alg.P(2)]
        for _ in range(25):
            x, y, z = (rng.choice(gens) for _ in range(3))
            assert (x * y) * z == x * (y * z)

    def test_normal_form_idempotent(self, eta4):
        alg = PoincareAlgebra(eta4, 2)
        a = alg.M(0, 1) * alg.M(1, 3) * alg.P(0) * alg.P(2)
        terms = dict(a.terms)
        redone = alg.mul_terms(terms, alg.one().terms)
        assert redone == terms

    def test_context_mismatch(self, eta4, eta3):
        a4 = PoincareAlgebra(eta4, 2)
        a3 = PoincareAlgebra(eta3, 2)
        with pytest.raises(ContextMismatchError):
            a4.P(0) * a3.P(0)


class TestCasimir:
    def test_lorentzian(self, eta4):
        alg = PoincareAlgebra(eta4, 2)
        expect = (
            -(alg.P(0) * alg.P(0))
            + alg.P(1) * alg.P(1)
            + alg.P(2) * alg.P(2)
            + alg.P(3) * alg.P(3)
        )
        assert alg.casimir() == expect

    def test_lightcone_d4(self):
        # product light-cone metric: C = 2 P_+ P_- + P^a P_a
        g = Metric([[0, 0, 0, 1], [0, 1, 0, 0], [0, 0, 1, 0], [1, 0, 0, 0]])
        alg = PoincareAlgebra(g, 2)
        expect = (
            alg.P(0) * alg.P(3) * 2 + alg.P(1) * alg.P(1) + alg.P(2) * alg.P(2)
        )
        assert alg.casimir() == expect

    def test_offdiagonal_d2(self):
        alg = PoincareAlgebra(Metric([[0, 1], [1, 0]]), 2)
        assert alg.casimir() == alg.P(0) * alg.P(1) * 2

    def test_centrality(self, nondiag_lorentzian):
        alg = PoincareAlgebra(nondiag_lorentzian, 2)
        c = alg.casimir()
        for code in alg.generator_codes():
            x = alg.from_codes({code: GaussRational(1)})
            assert c * x == x * c


class TestContractTau:
    def test_unit_vector(self, eta4):
        alg = PoincareAlgebra(eta4, 2)
        p_tau, x_tau = alg.contract_tau(VectorTau(eta4, [1, 0, 0, 0]))
        assert p_tau == alg.P(0)
        assert x_tau[1] == alg.X(0, 1)  # X_{tau 1}, with M = iX
        assert x_tau[0].is_zero

    def test_null_vector(self, eta4):
        alg = PoincareAlgebra(eta4, 2)
        p_tau, _ = alg.contract_tau(VectorTau(eta4, [1, 0, 0, 1]))
        assert p_tau == alg.P(0) + alg.P(3)

    def test_zero_vector(self, eta4):
        alg = PoincareAlgebra(eta4, 2)
        p_tau, m_tau = alg.contract_tau(VectorTau(eta4, [0, 0, 0, 0]))
        assert p_tau.is_zero
        assert all(m.is_zero for m in m_tau)


class TestStar:
    def test_antilinear(self, eta4):
        alg = PoincareAlgebra(eta4, 2)
        assert (alg.P(0) * I).star() == alg.P(0) * (-I)

    def test_reverses_and_reorders(self, eta4):
        alg = PoincareAlgebra(eta4, 2)
        # (M_01 P_0)* = P_0 M_01 = M_01 P_0 - i P_1
        assert (alg.M(0, 1) * alg.P(0)).star() == alg.M(0, 1) * alg.P(0) - alg.P(1) * I

    def test_involution(self, eta4):
        alg = PoincareAlgebra(eta4, 3)
        a = alg.M(0, 1) * alg.P(0) * I + alg.P(2) * HSeries.h_power(3, 1) + alg.one()
        assert a.star().star() == a


# -- the flat linear layer against per-key dense series ---------------------------
#
# A reference element is {monomial: [c_0, ..., c_N]}, the dense series of each
# key, and every operation below is written on those lists here.  The
# coefficients are drawn from a small set, zero-heavy and closed under
# negation, so sums cancel often.

ETA2 = Metric([[-1, 0], [0, 1]])
REF_KEYS = ((), (1,), (4,), (5,), (1, 4), (4, 5))  # 1, M_01, P_0, P_1, M_01 P_0, P_0 P_1
ref_coeff = st.sampled_from(
    [GaussRational(0)] * 3
    + [GaussRational(1), GaussRational(-1), I, -I]
    + [GaussRational(Fraction(1, 2)), GaussRational(2, 1)]
)
ref_scalar = st.one_of(
    st.integers(-2, 2),
    st.sampled_from([Fraction(-1, 2), Fraction(3, 2)]),
    ref_coeff,
)


@st.composite
def ref_elements(draw, order):
    keys = draw(st.lists(st.sampled_from(REF_KEYS), unique=True, max_size=4))
    return {k: draw(st.lists(ref_coeff, min_size=order + 1, max_size=order + 1)) for k in keys}


@st.composite
def ref_cases(draw):
    """(order, x, y): y negates x on some keys, so x + y cancels there."""
    order = draw(st.integers(1, 3))
    x, y = draw(ref_elements(order)), draw(ref_elements(order))
    for key in draw(st.lists(st.sampled_from(sorted(x)), unique=True)) if x else ():
        y[key] = [-c for c in x[key]]
    return order, x, y


def flat(ref) -> dict:
    return {(key, k): c for key, cs in ref.items() for k, c in enumerate(cs) if c}


def zip_ref(x, y, op, order):
    zero = [GaussRational(0)] * (order + 1)
    return {k: [op(a, b) for a, b in zip(x.get(k, zero), y.get(k, zero))] for k in {*x, *y}}


def map_ref(x, op):
    return {key: [op(k, c) for k, c in enumerate(cs)] for key, cs in x.items()}


class TestFlatLinearLayer:
    @settings(max_examples=150, deadline=None)
    @given(ref_cases(), ref_scalar, st.lists(ref_coeff, min_size=4, max_size=4))
    def test_against_dense_series(self, case, s, dense):
        order, x, y = case
        alg = PoincareAlgebra(ETA2, order)
        a, b = AlgebraElement(alg, flat(x)), AlgebraElement(alg, flat(y))
        assert (a + b).terms == flat(zip_ref(x, y, lambda p, q: p + q, order))
        assert (a - b).terms == flat(zip_ref(x, y, lambda p, q: p - q, order))
        assert (-a).terms == flat(map_ref(x, lambda k, c: -c))
        assert (a - a).terms == {} and (a + (-a)).terms == {}
        assert ((a + b) - b).terms == a.terms

        for scalar in (s,) if isinstance(s, GaussRational) else (s, GaussRational(s)):
            assert (a * scalar).terms == flat(map_ref(x, lambda k, c: c * scalar))
        series = HSeries(order, dense[: order + 1])
        conv = {
            key: [
                sum((cs[i] * dense[k - i] for i in range(k + 1)), GaussRational(0))
                for k in range(order + 1)
            ]
            for key, cs in x.items()
        }
        assert (a * series).terms == flat(conv)
        assert (series * a).terms == flat(conv)

        for k in range(order + 1):
            assert a.h_coefficient(k) == {key: cs[k] for key, cs in x.items() if cs[k]}
        for m in range(1, order + 1):
            low = PoincareAlgebra(ETA2, m)
            assert a.project_to(low).terms == flat({key: cs[: m + 1] for key, cs in x.items()})
        for r in (Fraction(2), Fraction(-1, 3)):
            assert a.rescale_h(r).terms == flat(map_ref(x, lambda k, c: c * (1 / r) ** k))

        counit = x.get((), [GaussRational(0)] * (order + 1))
        assert a.counit() == HSeries(order, counit)

        for j in range(1, order + 1):
            if any(cs[k] for cs in x.values() for k in range(j)):
                with pytest.raises(NonInvertibleError):
                    divide_h(a, j)
            else:
                want = {key: cs[j:] + [GaussRational(0)] * j for key, cs in x.items()}
                assert divide_h(a, j).terms == flat(want)
