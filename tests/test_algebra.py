import itertools
import random
from fractions import Fraction
from functools import partial
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kdeform import GaussRational, Metric, PoincareAlgebra, VectorTau
from kdeform.algebra import AlgebraElement, collect
from kdeform.errors import ContextMismatchError, DegenerateMetricError
from kdeform.hopf import DeformationContext, verify_hopf
from kdeform import minkowski
from kdeform.minkowski import MinkowskiElement, coordinate
from kdeform.tensors import TensorElement, tensor_commutator

from conftest import adjacent_swap_normal_order, legwise_rule, random_metric, random_tau


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


    def test_shifted_momentum_pair(self, eta3):
        # [P_0, P_1] += P_2: pure-momentum words no longer commute by structure
        alg = PoincareAlgebra(eta3, 2, shift={(9, 10): {11: 1}})
        assert alg.bracket(alg.P(0), alg.P(1)).terms == alg.P(2).terms
        assert alg.bracket(alg.P(1), alg.P(0)).terms == (-alg.P(2)).terms
        assert (alg.P(1) * alg.P(0)).terms == (alg.P(0) * alg.P(1) - alg.P(2)).terms
        rep = verify_hopf(DeformationContext(eta3, (1, 0, 0), 2, algebra=alg), [1])
        failed = {c.generator for c in rep.checks if not c.passed}
        assert "[P_0,P_1]" in failed


def _random_pbw(rng, alg, series=(), letters=None):
    """A sum of three words of one to three generators (drawn from letters,
    if given) and one element of series (if given) times such a word, each
    with a random nonzero rational coefficient at a random power of h."""
    gens = letters or [alg.from_codes({c: 1}) for c in alg.generator_codes()]
    factors = [alg.one()] * 3 + ([rng.choice(series)] if series else [])
    out = alg.zero()
    for factor in factors:
        word = factor
        for _ in range(rng.randint(1, 3)):
            word = word * rng.choice(gens)
        c = Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 3))
        out = out + word.times_h(rng.randint(0, alg.order)) * c
    return out


def _random_shift(rng, metric):
    """A shift of two random brackets, one of them of two momenta."""
    codes = PoincareAlgebra(metric, 2).generator_codes()
    return {
        tuple(rng.sample(codes[-metric.dim:], 2)): {rng.choice(codes): rng.randint(1, 2)},
        tuple(rng.sample(codes, 2)): {rng.choice(codes): Fraction(1, 2)},
    }


class TestCommutatorRule:
    """alg.bracket multiplies keys by their commutator (mono_commutator),
    which answers pairs that commute by structure without a product: it must
    agree with the difference of the two products."""

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), dim=st.sampled_from((2, 3)))
    def test_random_metric_and_tau(self, seed, dim):
        rng = random.Random(seed)
        metric = random_metric(rng, dim)
        ctx = DeformationContext(metric, random_tau(rng, metric), 2)
        alg = ctx.algebra
        series = (ctx.p_tau, ctx.pi, ctx.pi_inv)
        for _ in range(3):
            x, y = _random_pbw(rng, alg, series), _random_pbw(rng, alg, series)
            assert alg.bracket(x, y) == x * y - y * x

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), dim=st.sampled_from((3, 4)))
    def test_shifted_algebra(self, seed, dim):
        # [P_a, P_b] += P_c for distinct a, b, c breaks Jacobi, so words
        # have no unique normal form: bracket must keep the difference of
        # the two products, which the Leibniz expansion need not give
        rng = random.Random(seed)
        metric = random_metric(rng, dim)
        a, b, c = (dim * dim + mu for mu in rng.sample(range(dim), 3))
        alg = PoincareAlgebra(metric, 2, shift={(a, b): {c: 1}})
        rotations = [g for g in alg.generator_codes() if g < dim * dim]
        letters = [alg.from_codes({g: 1}) for g in (a, b, c, *rng.sample(rotations, 2))]
        for _ in range(3):
            x, y = (_random_pbw(rng, alg, letters=letters) for _ in range(2))
            assert alg.bracket(x, y) == x * y - y * x

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), dim=st.sampled_from((2, 3, 4)))
    def test_monomial_pairs_on_a_lie_table(self, seed, dim):
        # an unshifted table expands a commutator by the Leibniz rule on
        # letters: it must equal the difference of the two products
        rng = random.Random(seed)
        alg = PoincareAlgebra(random_metric(rng, dim), 2)
        codes = alg.generator_codes()
        for _ in range(40):
            a, b = (tuple(sorted(rng.choices(codes, k=rng.randint(1, 3)))) for _ in range(2))
            (d1, p1), (d2, p2) = alg.mono_product(a, b), alg.mono_product(b, a)
            d, pairs = alg.mono_commutator(a, b)  # d < 0 for a reversed pair
            assert collect({d: dict(pairs)}) == collect({d1: dict(p1), -d2: dict(p2)}), (a, b)

    def test_shifted_table_that_breaks_jacobi(self, eta3):
        # [P_0, P_1] += P_2 breaks Jacobi, so a word has no unique normal
        # form and the Leibniz expansion of a commutator differs from the
        # difference of the two products, which bracket must keep
        alg = PoincareAlgebra(eta3, 2, shift={(9, 10): {11: 1}})
        x, y = alg.X(0, 1) * alg.P(0), alg.X(0, 2) * alg.P(1) * alg.P(2)
        assert alg.bracket(x, y) == x * y - y * x
        assert alg.bracket(y, x) == y * x - x * y


def _canonical(d_pairs):
    d, pairs = d_pairs
    return d, dict(pairs)


class TestNormalOrder:
    """normal_order moves a letter across its whole run of larger letters in
    one step: its normal forms must be those of one adjacent swap at a time
    (conftest.adjacent_swap_normal_order), on every table."""

    @staticmethod
    def _random_words(rng, alg, count=60):
        codes = alg.generator_codes()
        return [tuple(rng.choices(codes, k=rng.randint(1, 6))) for _ in range(count)]

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), dim=st.sampled_from((2, 3, 4)))
    def test_against_adjacent_swaps(self, seed, dim):
        rng = random.Random(seed)
        alg = PoincareAlgebra(random_metric(rng, dim), 2)
        cache = {}
        for word in self._random_words(rng, alg):
            want = adjacent_swap_normal_order(alg, word, cache)
            assert _canonical(alg.normal_order(word)) == _canonical(want), word

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), dim=st.sampled_from((2, 3)))
    def test_against_adjacent_swaps_on_shifted_tables(self, seed, dim):
        # a shift can break Jacobi: normal forms then depend on the order of
        # the rewrites, which must stay the same
        rng = random.Random(seed)
        metric = random_metric(rng, dim)
        alg = PoincareAlgebra(metric, 2, shift=_random_shift(rng, metric))
        cache = {}
        for word in self._random_words(rng, alg):
            want = adjacent_swap_normal_order(alg, word, cache)
            assert _canonical(alg.normal_order(word)) == _canonical(want), word

    def test_no_sorted_word_is_cached(self, kleinian):
        # a sorted word is its own normal form: a Hopf pass stores none
        ctx = DeformationContext(kleinian, (1, 1, 1, 1), 2)
        assert verify_hopf(ctx).all_passed
        words = ctx.algebra._no_cache
        assert words
        assert not [w for w in words if list(w) == sorted(w)]

    def test_no_half_sorted_word_is_cached(self, eta4):
        # X P3 P2 P1 X': P1 crosses P2 P3, then X' crosses P1 P2 P3, each in
        # one step; one swap at a time passes through the words below
        alg = PoincareAlgebra(eta4, 2)
        x, x2 = alg.rotation_code(0, 1)[0], alg.rotation_code(2, 3)[0]
        p1, p2, p3 = (alg.momentum_code(mu) for mu in (1, 2, 3))
        word = (x, p3, p2, p1, x2)
        cache = {}
        want = adjacent_swap_normal_order(alg, word, cache)
        assert _canonical(alg.normal_order(word)) == _canonical(want)
        half_sorted = {(x, p2, p1, p3, x2), (x, p1, p2, x2, p3), (x, p1, x2, p2, p3)}
        assert half_sorted <= set(cache)
        assert not half_sorted & set(alg._no_cache)
        assert set(alg._no_cache) < set(cache)


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
        a = alg.M(0, 1) * alg.P(2) + alg.P(0).times_h(1)
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
        redone = alg.mul_terms(a.num, alg.one().num, alg.mono_product, a.den)
        assert redone == (a.num, a.den)

    def test_context_mismatch(self, eta4, eta3):
        a4 = PoincareAlgebra(eta4, 2)
        a3 = PoincareAlgebra(eta3, 2)
        with pytest.raises(ContextMismatchError):
            a4.P(0) * a3.P(0)
        # the same metric truncated at another order is another context
        a4_3 = PoincareAlgebra(eta4, 3)
        with pytest.raises(ContextMismatchError):
            a4.P(0) + a4_3.P(0)
        with pytest.raises(ContextMismatchError):
            a4.P(0) * a4_3.P(0)

    def test_shifted_and_clean_tables_do_not_mix(self, eta3):
        # with [P_0, P_1] += P_2 the product of P_1 and P_0 depends on the table
        shifted = PoincareAlgebra(eta3, 2, shift={(9, 10): {11: 1}})
        clean = PoincareAlgebra(eta3, 2)
        for x, y in ((shifted.P(1), clean.P(0)), (clean.P(1), shifted.P(0))):
            with pytest.raises(ContextMismatchError):
                x * y
            with pytest.raises(ContextMismatchError):
                x + y
        # the same table stated another way, or a shift that vanishes, is the same algebra
        restated = PoincareAlgebra(eta3, 2, shift={(10, 9): {11: -1}})
        assert (shifted.P(1) * restated.P(0)).terms == (shifted.P(1) * shifted.P(0)).terms
        assert clean.compatible(PoincareAlgebra(eta3, 2, shift={(9, 10): {11: 0}}))
        # the rescaled contexts of the Hopf suite share the shifted table
        ctx = DeformationContext(eta3, (1, 0, 0), 2, algebra=shifted)
        assert verify_hopf(ctx, ["rescaling-invariance"]).checks


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
        a = alg.M(0, 1) * alg.P(0) * I + alg.P(2).times_h(1) + alg.one()
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
        conv = {
            key: [
                sum((cs[i] * dense[k - i] for i in range(k + 1)), GaussRational(0))
                for k in range(order + 1)
            ]
            for key, cs in x.items()
        }
        shifted = alg.zero()
        for k in range(order + 1):
            shifted = shifted + a.times_h(k, dense[k])
        assert shifted.terms == flat(conv)

        for k in range(order + 1):
            assert a.h_coefficient(k).terms == {(key, k): cs[k] for key, cs in x.items() if cs[k]}
        for r in (Fraction(2), Fraction(-1, 3)):
            assert a.rescale_h(r).terms == flat(map_ref(x, lambda k, c: c * (1 / r) ** k))

        counit = x.get((), [GaussRational(0)] * (order + 1))
        assert a.counit() == AlgebraElement(alg, flat({(): counit}))


# -- times_h against a dense shift ---------------------------------------------------

SHIFT_COEFFS = [1, 0, -2, Fraction(3, 2), GaussRational(5), I, GaussRational(Fraction(1, 2), -1)]


def dense_times_h(x, k, c, order) -> dict:
    """The flat terms of c h^k x, from each key's dense list of coefficients."""
    dense = {}
    for (key, j), v in x.terms.items():
        dense.setdefault(key, [0] * (order + 1))[j] = v
    shifted = {key: ([0] * k + [v * c for v in cs])[: order + 1] for key, cs in dense.items()}
    return {(key, j): v for key, cs in shifted.items() for j, v in enumerate(cs) if v}


def in_coefficient_form(v) -> bool:
    """An int when integral, a Fraction when not, a GaussRational only when
    not real."""
    t = type(v)
    return t is int or (t is Fraction and v.denominator != 1) or (t is GaussRational and v.imag)


class TestTimesH:
    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        dim=st.sampled_from((2, 3)),
        k=st.integers(0, 4),
        c=st.sampled_from(SHIFT_COEFFS),
    )
    def test_against_dense_shift(self, seed, dim, k, c):
        rng = random.Random(seed)
        metric = random_metric(rng, dim)
        ctx = DeformationContext(metric, random_tau(rng, metric), 2)
        alg = ctx.algebra
        gens = [ctx.gen_element(code) for code in alg.generator_codes()]
        a = ctx.pi * rng.choice(gens) + ctx.pi_inv * Fraction(rng.randint(1, 3), rng.randint(1, 3))
        coords = {
            ((rng.randrange(dim),) * rng.randint(0, 2), j): Fraction(2 * rng.randint(-2, 2) + 1, 2)
            for j in range(3)
        }
        elements = (
            a,
            ctx.coproduct_of(a),
            TensorElement.of(a, ctx.pi_inv, rng.choice(gens)),
            MinkowskiElement(ctx, coords),
        )
        for x in elements:
            got = x.times_h(k, c)
            assert type(got) is type(x)
            assert getattr(got, "legs", None) == getattr(x, "legs", None)
            assert got.terms == dense_times_h(x, k, c, alg.order)
            assert all(map(in_coefficient_form, got.terms.values()))
            # past the order, or by zero, everything is dropped
            assert x.times_h(alg.order + 1, c).is_zero
            assert x.times_h(k, 0).is_zero
            assert x.times_h(0) == x
        with pytest.raises(ValueError):
            a.times_h(-1)

    def test_add_cancellation(self, eta2):
        # (1 + h) + (2 - h) = 3
        one = PoincareAlgebra(eta2, 2).one()
        assert (one + one.times_h(1)) + (one * 2 - one.times_h(1)) == one * 3

    def test_truncation_drops_overflow(self, eta2):
        # h^2 + h^3 at N=2: the h^3 term does not exist at this order
        one = PoincareAlgebra(eta2, 2).one()
        assert one.times_h(2) + one.times_h(3) == one.times_h(2)
        assert one.times_h(3).terms == {}

    def test_series_groups_powers(self, eta2):
        # each key's nonzero powers in increasing order, rotations written in M
        alg = PoincareAlgebra(eta2, 3)
        p, m = alg.P(0), alg.M(0, 1)
        a = p.times_h(2, Fraction(-1, 8)) + p + m.times_h(1, 3) + p.times_h(3, 0)
        (kp,) = p.series()
        (km,) = m.series()
        assert a.series() == {kp: ((0, 1), (2, Fraction(-1, 8))), km: ((1, 3),)}


# -- the integer kernels against Fraction arithmetic ----------------------------------


def fraction_sum(*parts) -> dict:
    """sum of scale * terms over (scale, terms) pairs, in Fraction arithmetic."""
    out = {}
    for scale, terms in parts:
        for t, c in terms.items():
            out[t] = out.get(t, 0) + scale * c
    return {t: c for t, c in out.items() if c}


def fraction_product(ta, tb, rule, order) -> dict:
    """sum of c1 c2 (n / d) h^(k1 + k2 + j) m over the term pairs of ta and tb
    and the pairs ((m, j), n) of rule(m1, m2) = (d, pairs), an extend image,
    in Fraction arithmetic."""
    out = {}
    for (m1, k1), c1 in ta.items():
        for (m2, k2), c2 in tb.items():
            if k1 + k2 > order:
                continue
            d, pairs = rule(m1, m2)
            for (m, j), n in pairs:
                if k1 + k2 + j <= order:
                    t = (m, k1 + k2 + j)
                    out[t] = out.get(t, 0) + c1 * c2 * n * Fraction(1, d)
    return {t: c for t, c in out.items() if c}


def fraction_extension(terms, image, order) -> dict:
    """sum of c h^k image(key), image(key, budget) an element, in Fraction
    arithmetic."""
    out = {}
    for (key, k), c in terms.items():
        for (m, j), v in image(key, order - k).terms.items():
            if k + j <= order:
                out[(m, k + j)] = out.get((m, k + j), 0) + c * v
    return {t: c for t, c in out.items() if c}


def canonical(x) -> bool:
    """int (or int-part Gaussian) nonzero numerators over an int denominator
    >= 1, all in lowest terms."""
    parts = [p for c in x.num.values() for p in (c.real, c.imag)]
    return (
        type(x.den) is int
        and x.den >= 1
        and all(x.num.values())
        and all(type(p) is int for p in parts)
        and gcd(x.den, *parts) == 1
    )


class TestIntegerKernels:
    """mul_terms, extend and the linear operations, which run on int
    numerators over one denominator, against Fraction arithmetic on the
    coefficients they stand for."""

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), dim=st.sampled_from((2, 3)))
    def test_against_fraction_reference(self, seed, dim):
        rng = random.Random(seed)
        metric = random_metric(rng, dim)
        ctx = DeformationContext(metric, random_tau(rng, metric), 2)
        alg = ctx.algebra
        order = alg.order
        gens = [ctx.gen_element(code) for code in alg.generator_codes()]
        gauss = GaussRational(Fraction(rng.randint(-3, 3), 2), Fraction(rng.choice((-1, 1)), 3))
        a = ctx.pi * rng.choice(gens) + ctx.pi_inv * Fraction(rng.randint(1, 3), rng.randint(2, 5))
        b = ctx.c_tau * rng.choice(gens) * gauss + rng.choice(gens).times_h(1, Fraction(1, 7))
        ta, tb = a.terms, b.terms
        t, u = ctx.coproduct_of(a), ctx.coproduct_of(b)
        shifted = {(m, k + 1): c * gauss for (m, k), c in ta.items() if k < order}
        cases = [
            (a * b, fraction_product(ta, tb, alg.mono_product, order)),
            (alg.bracket(a, b), fraction_product(ta, tb, alg.mono_commutator, order)),
            (t * u, fraction_product(t.terms, u.terms, legwise_rule(alg), order)),
            (tensor_commutator(t, u), fraction_sum((1, (t * u).terms), (-1, (u * t).terms))),
            (t, fraction_extension(ta, ctx.mono_coproduct.image, order)),
            (ctx.antipode_of(b), fraction_extension(tb, ctx.mono_antipode.image, order)),
            (a + b, fraction_sum((1, ta), (1, tb))),
            (a - b, fraction_sum((1, ta), (-1, tb))),
            (b - b, {}),
            (a.times_h(1, gauss), shifted),
        ]
        cases += [(b * s, fraction_sum((s, tb))) for s in (6, Fraction(-3, 4), gauss)]
        for got, want in cases:
            assert got.terms == want
            assert canonical(got)


def _is_image(out, order: int) -> bool:
    """Whether out is an extend image: (d, ((key, power of h), numerator)
    pairs), d a nonzero int, each key a tuple, 0 <= power <= order and each
    numerator a nonzero int."""
    d, pairs = out
    return type(d) is int and d != 0 and all(
        type(key) is tuple and type(k) is int and 0 <= k <= order and type(c) is int and c
        for (key, k), c in pairs
    )


class TestProductLoop:
    """PBWAlgebra.mul_terms is the one loop that pairs the terms of two
    operands under a rule that returns an extend image: PBW key products,
    kappa-Minkowski word products and the action's (monomial, word) images."""

    @pytest.fixture(scope="class")
    def ctx(self, eta3):
        return DeformationContext(eta3, (1, 0, 0), 3)

    @staticmethod
    def _operands(ctx):
        """PBW operands and coordinate operands with terms at several powers of h."""
        alg = ctx.algebra
        a = ctx.pi * alg.X(0, 1) + ctx.pi_inv
        b = ctx.c_tau * alg.P(1) + alg.X(1, 2).times_h(1)
        y0, y1, y2 = (coordinate(ctx, mu) for mu in range(3))
        u = y2 * y1 + (y1 * y0).times_h(1) + y2.times_h(2)
        v = y1 * y0 * y2 + y0.times_h(1)
        return a, b, u, v

    @staticmethod
    def _check(alg, x, y, rule, cap) -> list:
        """x*y under rule through mul_terms at cap, against fraction_product;
        returns the powers of h of each image the rule returned."""
        calls = []

        def counted(key_x, key_y):
            out = rule(key_x, key_y)
            calls.append([k for (_, k), _ in out[1]])
            return out

        num, den = alg.mul_terms(x.num, y.num, counted, x.den * y.den, cap)
        fits = sum(1 for _, k1 in x.num for _, k2 in y.num if k1 + k2 <= cap)
        assert len(calls) == fits  # one call per pair of terms that fits, none past cap
        assert all(k <= cap for _, k in num)
        want = fraction_product(x.terms, y.terms, rule, cap)
        assert {t: Fraction(c, den) for t, c in num.items()} == want
        return calls

    @pytest.mark.parametrize("cap", [0, 1, 2])
    def test_mono_product_below_the_order(self, ctx, cap):
        a, b, _, _ = self._operands(ctx)
        alg = ctx.algebra
        assert cap < alg.order
        self._check(alg, a, b, alg.mono_product, cap)
        self._check(alg, b, a, alg.mono_commutator, cap)

    @pytest.mark.parametrize("cap", [1, 2, 3])
    def test_y_product(self, ctx, cap):
        _, _, u, v = self._operands(ctx)
        calls = self._check(ctx.algebra, u, v, ctx.coordinate_algebra.y_product, cap)
        assert any(k > 0 for powers in calls for k in powers)

    @pytest.mark.parametrize("cap", [1, 3])
    def test_action_image(self, ctx, cap):
        a, b, u, v = self._operands(ctx)
        rule = partial(minkowski._image, ctx)
        calls = []
        for op, y in ((a, v), (b, u), (a * b, v)):
            calls += self._check(ctx.algebra, op, y, rule, cap)
        assert any(k > 0 for powers in calls for k in powers)

    def test_every_producer_returns_extend_images(self, ctx):
        alg, order = ctx.algebra, ctx.algebra.order
        x01, x12 = (alg.rotation_code(mu, nu)[0] for mu, nu in ((0, 1), (1, 2)))
        p0, p2 = alg.momentum_code(0), alg.momentum_code(2)
        words = [(p2, x12, p0), (p0, x01, x12), (x12, x01)]
        monos = [(x01, p2), (x12, p0), (x01, x12, p0, p2), (p0,)]
        images = [alg.normal_order(w) for w in words]
        images += [rule(m1, m2) for m1 in monos for m2 in monos
                   for rule in (alg.mono_product, alg.mono_commutator)]
        ywords = [(), (0,), (2, 1), (1, 0, 2), (2, 2, 0)]
        images += [ctx.coordinate_algebra.y_product(w1, w2) for w1 in ywords for w2 in ywords]
        images += [ctx.mono_coproduct.pairs(m, budget) for m in monos for budget in range(order + 1)]
        images += [minkowski._image(ctx, m, tuple(sorted(w))) for m in monos for w in ywords]
        assert all(_is_image(out, order) for out in images)
        assert any(k for _, pairs in images for (_, k), _ in pairs)
