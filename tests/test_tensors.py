import random
from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kdeform import (
    AlgebraElement,
    GaussRational,
    Metric,
    PoincareAlgebra,
    TensorElement,
    VectorTau,
    classify_orbit,
    omega,
    r_matrix,
    schouten_square,
    tensor_exp,
    tensor_invert,
    wedge,
)
from kdeform import algebra
from kdeform.errors import ContextMismatchError, InvalidVectorError
from kdeform.hopf import DeformationContext
from kdeform.minkowski import coordinate_monomial
from kdeform.render import wedge_series
from kdeform.tensors import tensor_commutator

from conftest import brute_combined, brute_outer, random_metric, random_tau

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


def _random_factor(rng, alg, terms=5):
    """A PBW element of up to two generators per word at every power of h
    from 0 to the order, with coefficients over mixed denominators."""
    codes = alg.generator_codes()
    num = {}
    for _ in range(terms):
        word = tuple(sorted(rng.choices(codes, k=rng.randint(0, 2))))
        c = Fraction(rng.randint(-4, 4), rng.choice((1, 2, 3, 5)))
        num[word, rng.randint(0, alg.order)] = c
    return AlgebraElement(alg, num)


class TestOuterProduct:
    """TensorElement.of concatenates keys and adds powers of h; it must agree
    with the term-by-term product on coefficients."""

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), legs=st.sampled_from((2, 3)))
    def test_matches_brute_force(self, seed, legs):
        rng = random.Random(seed)
        alg = PoincareAlgebra(random_metric(rng, rng.choice((2, 3))), rng.choice((2, 3)))
        factors = [_random_factor(rng, alg) for _ in range(legs)]
        got, want = TensorElement.of(*factors), brute_outer(*factors)
        assert (got.legs, got.num, got.den) == (want.legs, want.num, want.den)

    def test_terms_at_the_order_and_past_it(self, eta3):
        alg = PoincareAlgebra(eta3, 2)
        x, y = alg.P(0).times_h(2), alg.X(0, 1) + alg.P(1).times_h(1)
        # h^2 P_0 (x) X_01 stays, h^3 P_0 (x) P_1 is past the order
        t = TensorElement.of(x, y)
        assert t == brute_outer(x, y)
        assert [k for _, k in t.num] == [2]
        assert TensorElement.of(x, y, x).is_zero

    def test_colliding_splits_cancel(self, eta3):
        alg = PoincareAlgebra(eta3, 2)
        x, y = alg.P(0), alg.X(0, 1)
        # x (1 + h) (x) y (1 - h) = x (x) y (1 - h^2): the two h^1 splits cancel
        t = TensorElement.of(x + x.times_h(1), y - y.times_h(1))
        assert t == brute_outer(x, y) - brute_outer(x, y).times_h(2)
        assert sorted(k for _, k in t.num) == [0, 2]

    def test_lowest_terms(self, eta3):
        alg = PoincareAlgebra(eta3, 2)
        t = TensorElement.of(alg.P(0) * Fraction(1, 2), alg.P(1) * 2)
        assert (t.num, t.den) == ({(((alg.momentum_code(0),), (alg.momentum_code(1),)), 0): 1}, 1)

    def test_foreign_factor_rejected(self, eta3, eta2):
        alg, other = PoincareAlgebra(eta3, 2), PoincareAlgebra(eta2, 2)
        with pytest.raises(ContextMismatchError):
            TensorElement.of(alg.P(0), other.P(0))
        with pytest.raises(ContextMismatchError):
            TensorElement.of(alg.P(0), PoincareAlgebra(eta3, 3).P(0))

    def test_needs_two_factors(self, eta3):
        # the leg-grouped kernel reads a first and a last leg
        alg = PoincareAlgebra(eta3, 2)
        for factors in ((), (alg.P(0) + alg.X(0, 1),)):
            with pytest.raises(ValueError, match="at least two factors"):
                TensorElement.of(*factors)


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
    """Products and commutators of tensors of two and three legs and the
    tensor series run through one leg-grouped kernel (tensors._combine);
    merge_legs and the kappa-Minkowski product through PoincareAlgebra.extend:
    each must agree with the products of its factors."""

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


def _grouped_tensor(rng, alg, rights, terms=12):
    """A 2-leg tensor of many terms over the few right legs given: PBW words of
    up to two generators on the left, powers of h from 0 to the order (so many
    pairs of terms sum past it) and rational coefficients."""
    codes = alg.generator_codes()
    num = {}
    for _ in range(terms):
        left = tuple(sorted(rng.choices(codes, k=rng.randint(0, 2))))
        key = ((left, rng.choice(rights)), rng.randint(0, alg.order))
        num[key] = Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 3))
    return TensorElement(alg, 2, num)


class TestTwoLegCommutator:
    """tensor_commutator on two legs groups the terms by right leg; it must
    agree with the two products it never forms."""

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1), dim=st.sampled_from((2, 3)), shifted=st.booleans()
    )
    def test_matches_products(self, seed, dim, shifted):
        rng = random.Random(seed)
        mom0 = dim * dim
        # [P_0, P_1] += M_01 turns the momentum shortcuts off
        shift = {(mom0, mom0 + 1): {1: 1}} if shifted else None
        alg = PoincareAlgebra(random_metric(rng, dim), rng.choice((2, 3)), shift=shift)
        rotations = [c for c in alg.generator_codes() if c < mom0]
        shared = (rng.choice(rotations),)
        rights = [shared, (rotations[-1],), (), (mom0,), (mom0 + 1,), (1, mom0)]
        s = _grouped_tensor(rng, alg, [shared])
        t = _grouped_tensor(rng, alg, rights)
        u = _grouped_tensor(rng, alg, rights, terms=4) * Fraction(2, 7)
        for x, y in ((s, t), (t, s), (t, u), (s, s)):
            assert tensor_commutator(x, y) == x * y - y * x

    def test_kleinian_coproducts(self, kleinian):
        ctx = DeformationContext(kleinian, (1, 1, 1, 1), 3)
        codes = ctx.generator_codes()
        for i, x in enumerate(codes):
            for y in codes[i + 1 :]:
                dx, dy = ctx.coproduct(x), ctx.coproduct(y)
                assert tensor_commutator(dx, dy) == dx * dy - dy * dx, (x, y)

    def test_no_lookup_that_no_pair_of_terms_needs(self, eta3):
        alg = PoincareAlgebra(eta3, 2)
        x01, x02, x12 = alg.X(0, 1), alg.X(0, 2), alg.X(1, 2)
        # every pair of terms sums past h^2
        s = TensorElement.of(x01, x02).times_h(2) + TensorElement.of(x12, x01).times_h(2)
        t = TensorElement.of(x02, x12).times_h(1) + TensorElement.of(x12, x02).times_h(1)
        s3 = TensorElement.of(x01, x02, x12).times_h(2) + TensorElement.of(x12, x01, x02).times_h(2)
        t3 = TensorElement.of(x02, x12, x01).times_h(1) + TensorElement.of(x12, x02, x01).times_h(1)
        # every leg commutes by structure, so no product of legs, an
        # unsorted word, is ever needed
        w = TensorElement.of(x01, x01 * x12)
        w3 = TensorElement.of(x01 * x12, x01, x01 * x12)
        before = len(alg._no_cache), len(alg._comm_cache)
        for x, y in ((s, t), (t, s), (w, w), (s3, t3), (t3, s3), (w3, w3)):
            assert tensor_commutator(x, y).is_zero
        assert (len(alg._no_cache), len(alg._comm_cache)) == before


class TestMomentumBlockSkip:
    """A two-leg commutator forms no [A, A'] for two groups whose first legs
    are all central (empty or in the commuting block), and no [b, b'] for
    central right legs too; bracket pairs no two central words.  Coproducts
    and antipodes of momenta are made of such words."""

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), dim=st.sampled_from((2, 3)), shifted=st.booleans())
    def test_matches_products(self, seed, dim, shifted):
        rng = random.Random(seed)
        metric = random_metric(rng, dim)
        mom0 = dim * dim
        # [P_0, P_1] += M_01 empties the commuting block
        alg = PoincareAlgebra(metric, 2, shift={(mom0, mom0 + 1): {1: 1}} if shifted else None)
        ctx = DeformationContext(metric, random_tau(rng, metric), 2, algebra=alg)
        rot = alg.X(0, dim - 1)
        deltas = [ctx.coproduct(alg.momentum_code(mu)) for mu in range(dim)]
        series = (ctx.pi, ctx.pi_inv, ctx.c_tau, ctx.antipode(alg.momentum_code(rng.randrange(dim))))

        def pick():
            return rng.choice(series)

        s = rng.choice(deltas) + TensorElement.of(pick(), pick()) + TensorElement.of(alg.one(), pick())
        t = rng.choice(deltas) + TensorElement.of(pick(), pick() * rot) + TensorElement.of(rot * pick(), pick())
        for x, y in ((s, t), (t, s), (s, s + t), (deltas[0], deltas[-1])):
            assert tensor_commutator(x, y) == x * y - y * x

    def test_momentum_pairs_make_no_call(self, kleinian):
        ctx = DeformationContext(kleinian, (1, 1, 1, 1), 3)
        alg = ctx.algebra
        momenta = [alg.momentum_code(mu) for mu in range(4)]
        deltas = [ctx.coproduct(c) for c in momenta]
        antipodes = [ctx.antipode(c) for c in momenta]
        calls = []
        rule = alg.mono_commutator
        alg.mono_commutator = lambda m1, m2: calls.append((m1, m2)) or rule(m1, m2)
        for i in range(4):
            for j in range(i + 1, 4):
                assert tensor_commutator(deltas[i], deltas[j]).is_zero
                assert alg.bracket(antipodes[i], antipodes[j]).is_zero
        assert calls == []
        assert not alg._id_comms  # nor any id-level commutator of two words
        # one rotation word in a group of first legs, or in an operand, still pairs
        x01 = (alg.rotation_code(0, 1)[0],)
        t = deltas[1] + TensorElement.of(alg.X(0, 1), alg.P(1))
        assert tensor_commutator(deltas[0], t) == deltas[0] * t - t * deltas[0]
        assert any(x01 in pair for pair in calls)
        calls.clear()
        y = antipodes[1] + alg.X(0, 1)
        assert alg.bracket(antipodes[0], y) == antipodes[0] * y - y * antipodes[0]
        assert any(x01 in pair for pair in calls)


class TestWordTables:
    """The tensor kernel reads every leg as an id of the multiplying
    algebra's word table, and an id means something only in the table that
    issued it: an operand from another, compatible algebra is regrouped on
    the multiplying algebra's ids."""

    def test_equal_contexts_mix(self, eta3):
        one, two = (DeformationContext(eta3, (1, 1, 0), 2) for _ in range(2))
        assert one.algebra is not two.algebra and one.algebra.compatible(two.algebra)
        codes = one.generator_codes()
        d1 = [one.coproduct(c) for c in codes]
        d2 = [two.coproduct(c) for c in reversed(codes)][::-1]
        # the second table issues its ids in another order than the first
        for x in reversed(d2):
            for y in reversed(d2):
                tensor_commutator(x, y), x * y
        pairs = [(i, j) for i in range(len(codes)) for j in range(len(codes))]
        want = {(i, j): (d1[i] * d1[j], tensor_commutator(d1[i], d1[j])) for i, j in pairs}
        assert one.algebra._words != two.algebra._words
        for i, j in pairs:
            for x, y in ((d1[i], d2[j]), (d2[i], d1[j])):
                assert (x * y, tensor_commutator(x, y)) == want[i, j], (codes[i], codes[j])

    def test_full_table_raises(self, eta3, monkeypatch):
        monkeypatch.setattr(algebra, "ID_BITS", 2)
        alg = PoincareAlgebra(eta3, 2)
        assert [alg.word_id((n,)) for n in range(4)] == [0, 1, 2, 3]
        with pytest.raises(MemoryError):
            alg.word_id((4,))
        assert alg.word_id((3,)) == 3


def _random_tensor(rng, alg, legs, terms=3):
    """A sum of tensor products of PBW sums of two words of up to two
    generators each (about one leg in five the unit), each product at a
    random power of h, coefficients over mixed denominators; at three legs
    also a 2-leg such sum embedded with a unit leg."""
    codes = alg.generator_codes()

    def leg():
        if rng.random() < 0.2:
            return alg.one()
        words = (tuple(sorted(rng.choices(codes, k=rng.randint(0, 2)))) for _ in range(2))
        return AlgebraElement(
            alg, {(w, 0): Fraction(rng.randint(1, 4), rng.choice((-1, 2, 3, -5))) for w in words}
        )

    out = TensorElement(alg, legs, {})
    for _ in range(terms):
        term = TensorElement.of(*(leg() for _ in range(legs)))
        out = out + term.times_h(rng.randint(0, alg.order))
    if legs == 3:
        out = out + _random_tensor(rng, alg, 2, terms=2).embed(rng.choice(("12", "13", "23")))
    return out


class TestLegKernel:
    """Products and commutators of tensors of two to four legs, against the
    term-by-term leg-wise rule of conftest.legwise_rule, at every cap below
    the order too, over mixed denominators and on shifted tables."""

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        legs=st.sampled_from((2, 3, 4)),
        shifted=st.booleans(),
    )
    def test_matches_legwise_rule(self, seed, legs, shifted):
        rng = random.Random(seed)
        dim = rng.choice((2, 3))
        metric = random_metric(rng, dim)
        codes = PoincareAlgebra(metric, 2).generator_codes()
        # a shifted table need not satisfy Jacobi: the leg-wise rules hold all the same
        shift = {tuple(rng.sample(codes, 2)): {rng.choice(codes): Fraction(1, 2)}}
        alg = PoincareAlgebra(metric, rng.choice((2, 3)), shift=shift if shifted else None)
        t, u = _random_tensor(rng, alg, legs), _random_tensor(rng, alg, legs)
        for cap in range(alg.order):
            assert t._mul(u, cap) == brute_combined(t, u, cap), cap
        assert t * u == brute_combined(t, u, alg.order)
        assert tensor_commutator(t, u) == brute_combined(t, u, alg.order, commutator=True)
        assert tensor_commutator(t, t).is_zero


class TestMapLeg:
    def test_zero_takes_the_leg_count_of_the_map(self, eta3):
        # a zero mapped by the coproduct has three legs, like any other image
        ctx = DeformationContext(eta3, (1, 0, 0), 2)
        alg = ctx.algebra
        zero = TensorElement(alg, 2, {}).map_leg(0, ctx.mono_coproduct)
        assert zero.legs == 3
        t3 = TensorElement.of(alg.P(0), alg.P(1), alg.X(0, 1))
        assert zero - t3 == -t3
        assert TensorElement(alg, 3, {}).map_leg(1, ctx.mono_antipode).legs == 3


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
    def test_order_flips_sign(self, eta4):
        # a ^ b = a (x) b - b (x) a, and b ^ a = -(a ^ b)
        alg = PoincareAlgebra(eta4, 2)
        a, b = alg.momentum_code(0), alg.momentum_code(1)
        w = wedge(alg, 2, {(b, a): GaussRational(3)})
        assert w == -wedge(alg, 2, {(a, b): GaussRational(3)})
        p0, p1 = alg.P(0), alg.P(1)
        assert w == (TensorElement.of(p1, p0) - TensorElement.of(p0, p1)) * 3
        c = alg.momentum_code(2)
        assert wedge(alg, 3, {(c, a, b): 1}) == wedge(alg, 3, {(a, b, c): 1})
        assert wedge(alg, 3, {(b, a, c): 1}) == -wedge(alg, 3, {(a, b, c): 1})

    def test_repeated_entries_vanish(self, eta4):
        alg = PoincareAlgebra(eta4, 2)
        a, b = alg.momentum_code(0), alg.momentum_code(1)
        assert wedge(alg, 2, {(a, a): GaussRational(5)}).is_zero
        assert wedge(alg, 3, {(a, b, a): GaussRational(5)}).is_zero

    def test_series_reads_sorted_coordinates(self, eta4):
        # one coordinate per set of generators, in the paper's M = iX
        alg = PoincareAlgebra(eta4, 2)
        a, b = alg.momentum_code(0), alg.momentum_code(1)
        x = alg.rotation_code(0, 1)[0]
        w = wedge(alg, 2, {(b, a): GaussRational(3)})
        assert wedge_series(w) == {(a, b): ((0, -3),)}
        w = wedge(alg, 3, {(b, x, a): Fraction(1, 2)})
        assert wedge_series(w) == {(x, a, b): ((0, Fraction(1, 2) * -I),)}

    def test_term_length_must_match_legs(self, eta4):
        alg = PoincareAlgebra(eta4, 2)
        codes = tuple(alg.momentum_code(mu) for mu in range(3))
        with pytest.raises(ValueError, match="P_0 \\^ P_1 \\^ P_2"):
            wedge(alg, 2, {codes: 1})


def _sign(perm: tuple) -> int:
    """The sign of a permutation, by counting transpositions as it is sorted."""
    perm, sign = list(perm), 1
    for i in range(len(perm)):
        while perm[i] != i:
            j = perm[i]
            perm[i], perm[j] = perm[j], perm[i]
            sign = -sign
    return sign


def _cybe_oracle(r: TensorElement) -> TensorElement:
    """2 ([r12, r13] + [r12, r23] + [r13, r23]) through PBW products: the
    Schouten square as the classical Yang-Baxter sum, from tensor_commutator."""
    r12, r13, r23 = (r.embed(p) for p in ("12", "13", "23"))
    return (
        tensor_commutator(r12, r13) + tensor_commutator(r12, r23) + tensor_commutator(r13, r23)
    ) * 2


class TestRMatrix:
    def test_timelike_form(self, eta4):
        # r = M_0i ^ P^i = sum_i M_0i ^ P_i for the mostly-plus metric
        alg = PoincareAlgebra(eta4, 2)
        r = r_matrix(alg, VectorTau(eta4, [1, 0, 0, 0]))
        terms = {}
        for i in (1, 2, 3):
            terms[(alg.rotation_code(0, i)[0], alg.momentum_code(i))] = GaussRational(1)
        assert r == wedge(alg, 2, terms)

    def test_spacelike_direct_contraction(self, eta4):
        alg = PoincareAlgebra(eta4, 2)
        r = r_matrix(alg, VectorTau(eta4, [0, 0, 0, 1]))
        terms = {(alg.rotation_code(0, 3)[0], alg.momentum_code(0)): GaussRational(1)}
        for i in (1, 2):
            terms[(alg.rotation_code(i, 3)[0], alg.momentum_code(i))] = GaussRational(-1)
        assert r == wedge(alg, 2, terms)

    def test_lightlike_after_basis_change(self, eta4):
        # in the light-cone adapted basis: r_LC = M_{+-} ^ P_+ + M_{+a} ^ P^a
        from kdeform.bases import adapted_context

        _, ctx = adapted_context(eta4, VectorTau(eta4, [1, 0, 0, 1]), 2)
        alg = ctx.algebra
        r = r_matrix(alg, ctx.tau)
        d = alg.dim
        terms = {(alg.rotation_code(0, d - 1)[0], alg.momentum_code(0)): GaussRational(1)}
        ginv = alg.metric.inverse
        for a in range(1, d - 1):
            for b in range(1, d - 1):
                if ginv[a][b]:
                    terms[(alg.rotation_code(0, a)[0], alg.momentum_code(b))] = GaussRational(
                        ginv[a][b]
                    )
        assert r == wedge(alg, 2, terms)

    def test_zero_tau_rejected(self, eta4):
        alg = PoincareAlgebra(eta4, 2)
        with pytest.raises(InvalidVectorError):
            r_matrix(alg, VectorTau(eta4, [0, 0, 0, 0]))


class TestOmega:
    def test_d2_hand_expansion(self):
        # Omega = M_mn ^ P^m ^ P^n; D=2 with g = antidiag: P^0 = P_1, P^1 = P_0
        alg = PoincareAlgebra(Metric([[0, 1], [1, 0]]), 2)
        w = omega(alg)
        key = (alg.rotation_code(0, 1)[0], alg.momentum_code(0), alg.momentum_code(1))
        assert w == wedge(alg, 3, {key: GaussRational(-2)})

    def test_d2_diagonal(self):
        alg = PoincareAlgebra(Metric([[2, 0], [0, -3]]), 2)
        w = omega(alg)
        key = (alg.rotation_code(0, 1)[0], alg.momentum_code(0), alg.momentum_code(1))
        assert w == wedge(alg, 3, {key: GaussRational(Fraction(2, -6))})


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
        assert schouten_square(wedge(alg, 2, {})).is_zero

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

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), dim=st.sampled_from((2, 3)))
    def test_matches_yang_baxter_commutators(self, seed, dim):
        rng = random.Random(seed)
        metric = random_metric(rng, dim)
        r = r_matrix(PoincareAlgebra(metric, 2), random_tau(rng, metric))
        assert schouten_square(r) == _cybe_oracle(r)

    @pytest.mark.parametrize(
        "metric, tau", [("eta4", [1, 0, 0, 1]), ("kleinian", [1, 1, 1, 1])]
    )
    def test_matches_yang_baxter_commutators_d4(self, request, metric, tau):
        metric = request.getfixturevalue(metric)
        r = r_matrix(PoincareAlgebra(metric, 2), VectorTau(metric, tau))
        assert schouten_square(r) == _cybe_oracle(r)


class TestAntisymmetry:
    @pytest.mark.parametrize("which", ["r_matrix", "omega", "schouten_square"])
    @pytest.mark.parametrize("dim", [2, 3])
    def test_transpose_by_sign(self, which, dim):
        rng = random.Random(200 + dim)
        metric = random_metric(rng, dim)
        alg = PoincareAlgebra(metric, 2)
        r = r_matrix(alg, random_tau(rng, metric))
        t = {"r_matrix": r, "omega": omega(alg), "schouten_square": schouten_square(r)}[which]
        assert not t.is_zero
        for perm in permutations(range(t.legs)):
            assert t.transpose(perm) == t * _sign(perm)


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
