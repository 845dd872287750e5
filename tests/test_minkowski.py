"""The coordinate algebra and the action, in the engine's real coordinates
y = -i x and rotations X = -iM: [y^mu, y^nu] = h (tau^mu y^nu - tau^nu y^mu),
P_mu |> y^nu = -delta and X_mn |> y^rho = y_m delta_n^rho - y_n delta_m^rho."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import coordinate_swap_normal_order, random_metric, random_null_pair, random_tau
from kdeform import GaussRational, jsonio
from kdeform.algebra import AlgebraElement, PoincareAlgebra
from kdeform.errors import ContextMismatchError
from kdeform.hopf import DeformationContext
from kdeform.minkowski import (
    MinkowskiElement,
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
        assert y1 * y0 == y0 * y1 - y1.times_h(1)
        # the paper's x = i y: x1 x0 = x0 x1 - i h x1
        x0, x1 = y0 * I, y1 * I
        assert x1 * x0 == x0 * x1 - x1.times_h(1, I)

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
        op = alg.P(1).times_h(2)
        assert act(ctx_t, op, y1) == scalar_mink(ctx_t, -1).times_h(2)


class TestBadInput:
    @pytest.mark.parametrize("metric", ["kleinian", "eta3"])
    def test_operator_of_another_metric(self, ctx_t, request, metric):
        g = request.getfixturevalue(metric)
        y = coordinate(ctx_t, 1)
        other_order = PoincareAlgebra(ctx_t.metric, 2).P(1)
        for op in (PoincareAlgebra(g, 3).P(1), PoincareAlgebra(g, 3).X(0, 1) * 2, other_order):
            with pytest.raises(ContextMismatchError):
                act(ctx_t, op, y)
            with pytest.raises(ContextMismatchError):
                act_on_product(ctx_t, op, y, y)

    @pytest.mark.parametrize("tau, order", [([0, 0, 0, 1], 3), ([1, 0, 0, 0], 2)])
    def test_coordinates_of_another_context_or_order(self, ctx_t, eta4, tau, order):
        y = coordinate(DeformationContext(eta4, tau, order), 1)
        p1 = ctx_t.algebra.P(1)
        with pytest.raises(ContextMismatchError):
            act(ctx_t, p1, y)
        with pytest.raises(ContextMismatchError):
            act(ctx_t, ctx_t.algebra.momentum_code(1), y)
        with pytest.raises(ContextMismatchError):
            act_on_product(ctx_t, p1, coordinate(ctx_t, 0), y)

    @pytest.mark.parametrize("code", [99, 0, 5, -1])
    def test_code_that_is_not_a_generator(self, ctx_t, code):
        # D=4: rotations are mu*4 + nu with mu < nu, momenta 16..19
        y = coordinate(ctx_t, 1)
        with pytest.raises(ValueError, match=f"^{code} is not a generator code"):
            act(ctx_t, code, y)
        with pytest.raises(ValueError, match=f"^{code} is not a generator code"):
            act_on_product(ctx_t, code, y, y)


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
        rep = verify_covariance(ctx_t)
        assert rep.all_passed, [f"{c.name} {c.generator}" for c in rep.failures()[:4]]

    def test_lightlike(self, eta4):
        ctx = DeformationContext(eta4, [1, 0, 0, 1], 3)
        rep = verify_covariance(ctx)
        assert rep.all_passed

    def test_relation_check_is_not_vacuous(self, ctx_t):
        # the two orderings are expanded independently before normal ordering
        alg = ctx_t.algebra
        x0, x1 = coordinate(ctx_t, 0), coordinate(ctx_t, 1)
        boost = ctx_t.gen_element(alg.rotation_code(0, 1)[0])
        lhs = act_on_product(ctx_t, boost, x0, x1)
        rhs = act_on_product(ctx_t, boost, x1, x0)
        assert lhs != rhs  # orderings differ before the relation is imposed

    def test_corrupted_coproduct_fails(self, eta4):
        # a unit bump 1 (x) 1 on the coproduct of M_01 (code 1), as verify --corrupt
        ctx = DeformationContext(eta4, [1, 0, 0, 0], 2, shift={1: {(((), ()), 0): 1}})
        rep = verify_covariance(ctx)
        failed = rep.failures()
        assert {c.name for c in failed} == {
            "relation-preserved-under-action",
            "successive-action-representation",
            "leibniz-compatibility",
            "casimir-action-commutes",
        }
        for c in failed:
            back = jsonio.mink_from_json(c.residual_json, ctx)
            assert not back.is_zero
            assert jsonio.mink_to_json(back) == c.residual_json

    def test_no_passing_summary_after_a_failure(self, eta4):
        # a check that records only its failures adds its unlabelled passing
        # summary only when none was recorded
        ctx = DeformationContext(eta4, [1, 0, 0, 0], 2, shift={1: {(((), ()), 0): 1}})
        rep = verify_covariance(ctx)
        failed = {c.name for c in rep.failures()}
        summaries = {c.name for c in rep.checks if c.passed and c.generator is None}
        assert "successive-action-representation" in failed
        assert "star-anti-involution" in summaries
        assert not failed & summaries

    @pytest.mark.parametrize(
        "code, power", ((1, 0), (1, 1), (17, 0)), ids=("M01-h0", "M01-h1", "P1-h0")
    )
    def test_corrupted_coproduct_fails_leibniz_past_the_first_cut(self, eta4, code, power):
        # act on a word already splits it at its first letter, so a cut-1
        # comparison is one computation twice and cannot see a bad coproduct;
        # the check compares from cut 2, and must still fail
        ctx = DeformationContext(eta4, [1, 0, 0, 0], 2, shift={code: {(((), ()), power): 1}})
        for gen in ctx.generator_codes():
            for mono in ((0, 1, 3), (1, 1, 2)):
                a, b = coordinate_monomial(ctx, mono[:1]), coordinate_monomial(ctx, mono[1:])
                assert act(ctx, gen, a * b) == act_on_product(ctx, gen, a, b)
        failed = [c for c in verify_covariance(ctx).failures() if c.name == "leibniz-compatibility"]
        assert failed
        assert all(c.generator.endswith("split 2") for c in failed)


# -- independent references for the normal forms and the action -------------------------
# Elements are plain {(word, power of h): Fraction} maps truncated at the order.
# The reference normal orders coordinate words one adjacent swap at a time (see
# conftest) and applies one generator at a time, through ctx.coproduct and the
# Leibniz rule on longer words.


def _tau_of_kind(rng: random.Random, dim: int, kind: str):
    """(metric, tau components) with tau null, non-null, or with some components zero."""
    if kind == "null":
        metric, tau = random_null_pair(rng, dim)
        return metric, tau.components
    metric = random_metric(rng, dim)
    tau = random_tau(rng, metric)
    while kind == "non-null" and not tau.tau_sq:
        tau = random_tau(rng, metric)
    comps = list(tau.components)
    if kind == "zeros":
        keep = rng.randrange(dim)
        comps[keep] = comps[keep] or Fraction(1)
        for mu in rng.sample([mu for mu in range(dim) if mu != keep], rng.randint(1, dim - 1)):
            comps[mu] = Fraction(0)
    return metric, comps


@pytest.mark.parametrize("order", (2, 3, 4))
@pytest.mark.parametrize("kind", ("null", "non-null", "zeros"))
@pytest.mark.parametrize("seed", range(3))
def test_normal_forms_match_adjacent_swaps(seed, kind, order):
    """Random coordinate words of length 1-5, normal-ordered through the
    an(D-1) table and the power of h their rewriting removed letters, against
    one adjacent swap at a time on the y-relations, alone and as a product of
    the normal forms of their two parts."""
    rng = random.Random(100 * seed + 10 * order + len(kind))
    dim = rng.choice((2, 3, 4))
    metric, tau = _tau_of_kind(rng, dim, kind)
    ctx = DeformationContext(metric, tau, order)
    cache = {}
    for _ in range(40):
        word = tuple(rng.randrange(dim) for _ in range(rng.randint(1, 5)))
        want = coordinate_swap_normal_order(ctx.tau.components, order, word, cache)
        assert coordinate_monomial(ctx, word).terms == want, word
        cut = rng.randint(0, len(word))
        a, b = coordinate_monomial(ctx, word[:cut]), coordinate_monomial(ctx, word[cut:])
        assert (a * b).terms == want, (word, cut)


def _add(acc: dict, terms: dict, c, k: int, order: int):
    """acc += c h^k terms, truncated at the order."""
    for (w, j), v in terms.items():
        if j + k <= order:
            acc[(w, j + k)] = acc.get((w, j + k), 0) + c * v


def _clean(terms: dict) -> dict:
    return {t: v for t, v in terms.items() if v}


def _ref_word(ctx, word: tuple, memo: dict) -> dict:
    return coordinate_swap_normal_order(ctx.tau.components, ctx.algebra.order, word, memo)


def _ref_product(ctx, a: dict, b: dict, memo: dict) -> dict:
    out = {}
    for (w1, j1), c1 in a.items():
        for (w2, j2), c2 in b.items():
            _add(out, _ref_word(ctx, w1 + w2, memo["words"]), c1 * c2, j1 + j2, ctx.algebra.order)
    return _clean(out)


def _ref_gen_on_word(ctx, code: int, word: tuple, memo: dict) -> dict:
    key = (code, word)
    if key in memo["gens"]:
        return memo["gens"][key]
    d, g = ctx.algebra.dim, ctx.metric.rows
    out = {}
    if len(word) == 1:
        (mu,) = word
        if code >= d * d:  # P_nu |> y^mu = -delta
            if code - d * d == mu:
                out[((), 0)] = Fraction(-1)
        else:  # X_rs |> y^mu = y_r delta_s^mu - y_s delta_r^mu, y_r = g_rn y^n
            r, s = divmod(code, d)
            for low, sign in ((r, 1 if s == mu else 0), (s, -1 if r == mu else 0)):
                for n in range(d):
                    out[((n,), 0)] = out.get(((n,), 0), 0) + sign * g[low][n]
    elif word:
        head, tail = {(word[:1], 0): 1}, {(word[1:], 0): 1}
        for ((m1, m2), k), c in ctx.coproduct(code).terms.items():
            left = _ref_mono(ctx, m1, head, memo)
            right = _ref_mono(ctx, m2, tail, memo)
            _add(out, _ref_product(ctx, left, right, memo), c, k, ctx.algebra.order)
    memo["gens"][key] = out = _clean(out)
    return out


def _ref_mono(ctx, mono: tuple, a: dict, memo: dict) -> dict:
    """A PBW monomial acts as its generators do, right to left."""
    for code in reversed(mono):
        out = {}
        for (w, j), c in a.items():
            _add(out, _ref_gen_on_word(ctx, code, w, memo), c, j, ctx.algebra.order)
        a = _clean(out)
    return a


def _ref_act(ctx, op: AlgebraElement, a: dict, memo: dict) -> dict:
    out = {}
    for (mono, k), c in op.terms.items():
        _add(out, _ref_mono(ctx, mono, a, memo), c, k, ctx.algebra.order)
    return _clean(out)


def _random_coords(rng: random.Random, ctx, max_degree: int) -> dict:
    out = {}
    for _ in range(rng.randint(1, 3)):
        degree = rng.randint(0, max_degree)
        word = tuple(sorted(rng.randrange(ctx.algebra.dim) for _ in range(degree)))
        out[(word, rng.randint(0, 1))] = Fraction(rng.randint(-3, 3) or 1, rng.randint(1, 3))
    return out


def _random_pbw(rng: random.Random, ctx) -> AlgebraElement:
    codes = ctx.generator_codes()
    terms = {}
    for _ in range(rng.randint(1, 3)):
        mono = tuple(sorted(rng.choice(codes) for _ in range(rng.randint(1, 3))))
        terms[(mono, rng.randint(0, 1))] = Fraction(rng.randint(-3, 3) or 1, rng.randint(1, 3))
    return AlgebraElement(ctx.algebra, terms)


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    dim=st.sampled_from((2, 3)),
    null=st.booleans(),
    order=st.sampled_from((2, 3)),
)
def test_action_matches_reference(seed, dim, null, order):
    """act and act_on_product on random PBW elements and coordinate elements
    over random metrics, null and non-null tau, against the reference."""
    rng = random.Random(seed)
    if null:
        metric, tau = random_null_pair(rng, dim)
    else:
        metric = random_metric(rng, dim)
        tau = random_tau(rng, metric)
    ctx = DeformationContext(metric, tau, order)
    memo = {"words": {}, "gens": {}}
    for _ in range(3):
        op = _random_pbw(rng, ctx)
        a, b = _random_coords(rng, ctx, 2), _random_coords(rng, ctx, 2)
        ya, yb = MinkowskiElement(ctx, a), MinkowskiElement(ctx, b)
        ab = _ref_product(ctx, a, b, memo)
        assert (ya * yb).terms == ab
        assert act(ctx, op, ya).terms == _ref_act(ctx, op, a, memo)
        assert act(ctx, op, ya * yb).terms == _ref_act(ctx, op, ab, memo)
        assert act_on_product(ctx, op, ya, yb).terms == _ref_act(ctx, op, ab, memo)
        word = tuple(rng.randrange(dim) for _ in range(3))
        assert coordinate_monomial(ctx, word).terms == _ref_word(ctx, word, memo["words"])


@pytest.mark.parametrize("metric, tau", [("eta4", (1, 0, 0, 1)), ("kleinian", (1, 1, 1, 1))])
def test_action_matches_reference_d4(request, metric, tau):
    """At D=4 and N=3, on words up to degree 3: every generator code, which
    acts through its coproduct grouped by left leg and cached per context, and
    random PBW elements, whose coproducts are formed afresh, against the
    term-by-term reference."""
    ctx = DeformationContext(request.getfixturevalue(metric), tau, 3)
    rng = random.Random(sum(tau))
    memo = {"words": {}, "gens": {}}
    ops = [*ctx.generator_codes(), *(_random_pbw(rng, ctx) for _ in range(6))]
    for op in ops * 3:
        elem = op if isinstance(op, AlgebraElement) else ctx.gen_element(op)
        a, b, c = _random_coords(rng, ctx, 2), _random_coords(rng, ctx, 1), _random_coords(rng, ctx, 3)
        ya, yb, yc = (MinkowskiElement(ctx, t) for t in (a, b, c))
        ab = _ref_product(ctx, a, b, memo)
        assert (ya * yb).terms == ab
        assert act(ctx, op, yc).terms == _ref_act(ctx, elem, c, memo)
        assert act(ctx, op, ya * yb).terms == _ref_act(ctx, elem, ab, memo)
        assert act_on_product(ctx, op, ya, yb).terms == _ref_act(ctx, elem, ab, memo)
