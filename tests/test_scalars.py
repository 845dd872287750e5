from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kdeform import GaussRational, HSeries, binom_half
from kdeform.errors import NonInvertibleError, OrderMismatchError


def hs(order, *coeffs):
    cs = list(coeffs) + [0] * (order + 1 - len(coeffs))
    return HSeries(order, cs)


class TestGaussRational:
    def test_gaussian_unit(self):
        i = GaussRational(0, 1)
        assert i * i == GaussRational(-1)
        assert i * i == -1

    def test_canonical_form_equality(self):
        assert GaussRational(Fraction(2, 4), Fraction(-3, 6)) == GaussRational(
            Fraction(1, 2), Fraction(-1, 2)
        )

    def test_division(self):
        a = GaussRational(1, 2)
        b = GaussRational(3, -1)
        assert (a / b) * b == a

    def test_conjugate(self):
        assert GaussRational(1, 2).conjugate() == GaussRational(1, -2)

    def test_hash_matches_int_for_real(self):
        assert hash(GaussRational(5)) == hash(5)
        assert GaussRational(5) == 5


class TestHSeriesExamples:
    def test_add_cancellation(self):
        # (1 + h) + (2 - h) = 3
        assert hs(2, 1, 1) + hs(2, 2, -1) == hs(2, 3)

    def test_add_identity(self):
        a = hs(2, 0, 5, -1)
        assert hs(2) + a == a

    def test_add_truncation_drops_overflow(self):
        # h^2 + h^3 at N=2: the h^3 term does not exist at this order
        assert hs(2, 0, 0, 1) + HSeries.h_power(2, 3) == hs(2, 0, 0, 1)

    def test_mul_telescopes(self):
        assert hs(2, 1, 1) * hs(2, 1, -1) == hs(2, 1, 0, -1)

    def test_mul_truncation(self):
        assert HSeries.h_power(1, 1) * HSeries.h_power(1, 1) == HSeries(1)

    def test_invert_geometric(self):
        assert hs(2, 1, 1).invert() == hs(2, 1, -1, 1)

    def test_invert_constant(self):
        assert HSeries.constant(3, 2).invert() == HSeries.constant(3, Fraction(1, 2))

    def test_invert_no_constant_term(self):
        with pytest.raises(NonInvertibleError):
            HSeries.h_power(2, 1).invert()

    def test_order_mismatch(self):
        with pytest.raises(OrderMismatchError):
            hs(2, 1) + hs(3, 1)
        with pytest.raises(OrderMismatchError):
            hs(2, 1) * hs(3, 1)

    def test_rescale_h(self):
        a = hs(2, 1, 2, 4)
        assert a.rescale_h(2) == hs(2, 1, 1, 1)

    def test_shift(self):
        assert hs(2, 1, 1).shift(1) == hs(2, 0, 1, 1)

    def test_binom_half(self):
        assert binom_half(0) == 1
        assert binom_half(1) == Fraction(1, 2)
        assert binom_half(2) == Fraction(-1, 8)
        assert binom_half(3) == Fraction(1, 16)


gauss = st.builds(
    GaussRational,
    st.fractions(max_denominator=20, min_value=-10, max_value=10),
    st.fractions(max_denominator=20, min_value=-10, max_value=10),
)


def series(order):
    return st.lists(gauss, min_size=order + 1, max_size=order + 1).map(
        lambda cs: HSeries(order, cs)
    )


class TestHSeriesProperties:
    @settings(max_examples=60, deadline=None)
    @given(series(3), series(3), series(3))
    def test_ring_axioms(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c

    @settings(max_examples=40, deadline=None)
    @given(series(4))
    def test_two_sided_inverse(self, a):
        if not a.constant_term():
            with pytest.raises(NonInvertibleError):
                a.invert()
            return
        inv = a.invert()
        one = HSeries.one(4)
        assert a * inv == one
        assert inv * a == one

    @settings(max_examples=40, deadline=None)
    @given(series(4), series(4))
    def test_truncation_is_ring_homomorphism(self, a, b):
        for m in (1, 2, 3):
            assert (a * b).truncate(m) == a.truncate(m) * b.truncate(m)
            assert (a + b).truncate(m) == a.truncate(m) + b.truncate(m)


# -- reference arithmetic ---------------------------------------------------------
#
# Gaussian rationals as (re, im) pairs of Fractions and series as dense lists of
# such pairs, written independently of kdeform.scalars.  The strategies draw
# zero-heavy coefficients mixing zero, pure-real, pure-imaginary and fully
# complex values, which exercises every fast path and the general one.

ZERO = (Fraction(0), Fraction(0))


def p_add(x, y):
    return (x[0] + y[0], x[1] + y[1])


def p_neg(x):
    return (-x[0], -x[1])


def p_sub(x, y):
    return p_add(x, p_neg(y))


def p_mul(x, y):
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def p_div(x, y):
    n = y[0] * y[0] + y[1] * y[1]
    return ((x[0] * y[0] + x[1] * y[1]) / n, (x[1] * y[0] - x[0] * y[1]) / n)


def p_conj(x):
    return (x[0], -x[1])


def pair(g):
    return (g.re, g.im)


small = st.fractions(min_value=-5, max_value=5, max_denominator=6)
part = st.one_of(st.just(Fraction(1)), st.just(Fraction(-1)), small)
gauss_mixed = st.one_of(
    st.just(GaussRational(0)),
    st.just(GaussRational(0)),
    part.map(lambda r: GaussRational(r, 0)),
    part.map(lambda i: GaussRational(0, i)),
    st.builds(GaussRational, small, small),
)
rational_scalar = st.one_of(st.integers(-3, 3), small)


def dense_lists(order):
    return st.lists(gauss_mixed, min_size=order + 1, max_size=order + 1).map(
        lambda cs: [pair(c) for c in cs]
    )


@st.composite
def series_pairs(draw, count=2):
    """(order, [dense reference list] * count) at an order in 0..4."""
    order = draw(st.integers(0, 4))
    return order, [draw(dense_lists(order)) for _ in range(count)]


def build(ref):
    return HSeries(len(ref) - 1, [GaussRational(*p) for p in ref])


def d_mul(x, y):
    n = len(x) - 1
    out = [ZERO] * (n + 1)
    for i, a in enumerate(x):
        for j, b in enumerate(y[: n + 1 - i]):
            out[i + j] = p_add(out[i + j], p_mul(a, b))
    return out


def d_invert(x):
    n = len(x) - 1
    inv0 = p_div((Fraction(1), Fraction(0)), x[0])
    out = [inv0]
    for k in range(1, n + 1):
        s = ZERO
        for j in range(k):
            s = p_add(s, p_mul(out[j], x[k - j]))
        out.append(p_neg(p_mul(inv0, s)))
    return out


def assert_matches(hs, ref):
    """hs holds exactly the dense reference: sorted zero-free nz, and every
    derived view agrees."""
    order = len(ref) - 1
    expect_nz = tuple((k, p) for k, p in enumerate(ref) if p != ZERO)
    assert hs.order == order
    assert tuple((k, pair(c)) for k, c in hs.nz) == expect_nz
    assert all(type(c) is GaussRational for _, c in hs.nz)
    assert [pair(c) for c in hs.coeffs] == ref
    assert hs.valuation == (expect_nz[0][0] if expect_nz else order + 1)
    assert [pair(hs.coeff(k)) for k in range(order + 1)] == ref
    assert pair(hs.constant_term()) == ref[0]
    assert hs.is_zero is (not expect_nz)
    assert bool(hs) is bool(expect_nz)
    assert hs == build(ref)


class TestGaussRationalReference:
    @settings(max_examples=300, deadline=None)
    @given(gauss_mixed, gauss_mixed)
    def test_ring_operations(self, x, y):
        px, py = pair(x), pair(y)
        assert pair(x + y) == p_add(px, py)
        assert pair(x - y) == p_sub(px, py)
        assert pair(x * y) == p_mul(px, py)
        assert pair(-x) == p_neg(px)
        assert pair(x.conjugate()) == p_conj(px)
        assert (x == y) is (px == py)
        assert bool(x) is (px != ZERO)
        if py != ZERO:
            assert pair(x / y) == p_div(px, py)

    @settings(max_examples=200, deadline=None)
    @given(gauss_mixed, rational_scalar)
    def test_mixed_with_rationals(self, x, r):
        px, pr = pair(x), (Fraction(r), Fraction(0))
        for got, want in (
            (x + r, p_add(px, pr)),
            (r + x, p_add(px, pr)),
            (x - r, p_sub(px, pr)),
            (r - x, p_sub(pr, px)),
            (x * r, p_mul(px, pr)),
            (r * x, p_mul(px, pr)),
        ):
            assert type(got) is GaussRational
            assert pair(got) == want
        if r:
            assert pair(x / r) == p_div(px, pr)


class TestHSeriesReference:
    @settings(max_examples=200, deadline=None)
    @given(series_pairs())
    def test_views_and_ring_operations(self, drawn):
        _, (x, y) = drawn
        a, b = build(x), build(y)
        assert_matches(a, x)
        assert_matches(a + b, [p_add(p, q) for p, q in zip(x, y)])
        assert_matches(a - b, [p_sub(p, q) for p, q in zip(x, y)])
        assert_matches(-a, [p_neg(p) for p in x])
        assert_matches(a * b, d_mul(x, y))
        assert_matches(a.conjugate(), [p_conj(p) for p in x])
        assert (a == b) is (x == y)

    @settings(max_examples=120, deadline=None)
    @given(series_pairs(count=1), gauss_mixed, rational_scalar)
    def test_scalar_operations(self, drawn, g, r):
        _, (x,) = drawn
        a = build(x)
        for s in (g, r):
            ps = pair(s) if isinstance(s, GaussRational) else (Fraction(s), Fraction(0))
            const = [ps] + [ZERO] * (len(x) - 1)
            assert_matches(a * s, [p_mul(p, ps) for p in x])
            assert_matches(s * a, [p_mul(p, ps) for p in x])
            assert_matches(a + s, [p_add(p, q) for p, q in zip(x, const)])
            assert_matches(s + a, [p_add(p, q) for p, q in zip(x, const)])
            assert_matches(a - s, [p_sub(p, q) for p, q in zip(x, const)])
            assert_matches(s - a, [p_sub(q, p) for p, q in zip(x, const)])
            assert_matches(HSeries.constant(len(x) - 1, s), const)

    @settings(max_examples=120, deadline=None)
    @given(series_pairs(count=1), st.integers(0, 5), st.integers(0, 4))
    def test_shift_truncate_h_power(self, drawn, k, m):
        order, (x,) = drawn
        a = build(x)
        assert_matches(a.shift(k), ([ZERO] * k + x)[: order + 1])
        if m <= order:
            assert_matches(a.truncate(m), x[: m + 1])
        for g in (GaussRational(1), GaussRational(0, -2), GaussRational(0)):
            want = [ZERO] * (order + 1)
            if k <= order:
                want[k] = pair(g)
            assert_matches(HSeries.h_power(order, k, g), want)

    @settings(max_examples=120, deadline=None)
    @given(series_pairs(count=1), st.sampled_from([2, -3, Fraction(1, 2), Fraction(-2, 5)]))
    def test_rescale_h(self, drawn, s):
        _, (x,) = drawn
        s = Fraction(s)
        assert_matches(build(x).rescale_h(s), [(p[0] / s**k, p[1] / s**k) for k, p in enumerate(x)])

    @settings(max_examples=120, deadline=None)
    @given(series_pairs(count=1), st.integers(0, 3))
    def test_invert_and_powers(self, drawn, n):
        _, (x,) = drawn
        a = build(x)
        want = [(Fraction(1), Fraction(0))] + [ZERO] * (len(x) - 1)
        for _ in range(n):
            want = d_mul(want, x)
        assert_matches(a**n, want)
        if x[0] == ZERO:
            with pytest.raises(NonInvertibleError):
                a.invert()
            return
        inv = d_invert(x)
        assert_matches(a.invert(), inv)
        want = [(Fraction(1), Fraction(0))] + [ZERO] * (len(x) - 1)
        for _ in range(n):
            want = d_mul(want, inv)
        assert_matches(a ** (-n), want)
