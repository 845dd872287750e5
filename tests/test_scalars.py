from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kdeform import GaussRational, HSeries, binom_half
from kdeform.errors import OrderMismatchError


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

    def test_order_mismatch(self):
        with pytest.raises(OrderMismatchError):
            hs(2, 1) + hs(3, 1)

    def test_binom_half(self):
        assert binom_half(0) == 1
        assert binom_half(1) == Fraction(1, 2)
        assert binom_half(2) == Fraction(-1, 8)
        assert binom_half(3) == Fraction(1, 16)


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
    """(real, imaginary) of a GaussRational or of a plain rational."""
    return (Fraction(g.real), Fraction(g.imag))


def assert_form(g):
    """The coefficient form: a GaussRational exactly when the value is not
    real, otherwise an int when integral and a Fraction when not."""
    re, im = pair(g)
    if im:
        assert type(g) is GaussRational
    else:
        assert type(g) is (int if re.denominator == 1 else Fraction)


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


def assert_matches(hs, ref):
    """hs holds exactly the dense reference: sorted zero-free nz, and every
    derived view agrees."""
    order = len(ref) - 1
    expect_nz = tuple((k, p) for k, p in enumerate(ref) if p != ZERO)
    assert hs.order == order
    assert tuple((k, pair(c)) for k, c in hs.nz) == expect_nz
    for _, c in hs.nz:
        assert_form(c)
    assert hs.is_zero is (not expect_nz)
    assert bool(hs) is bool(expect_nz)
    assert hs == build(ref)


class TestGaussRationalReference:
    @settings(max_examples=300, deadline=None)
    @given(gauss_mixed, gauss_mixed)
    def test_ring_operations(self, x, y):
        px, py = pair(x), pair(y)
        results = [
            (x + y, p_add(px, py)),
            (x - y, p_sub(px, py)),
            (x * y, p_mul(px, py)),
            (-x, p_neg(px)),
            (x.conjugate(), p_conj(px)),
        ]
        if py != ZERO:
            results.append((x / y, p_div(px, py)))
        for got, want in results:
            assert pair(got) == want
            assert_form(got)
        assert (x == y) is (px == py)
        assert bool(x) is (px != ZERO)

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
            assert_form(got)
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
    @given(series_pairs(count=1), st.integers(0, 5))
    def test_h_power(self, drawn, k):
        order, _ = drawn
        for g in (GaussRational(1), GaussRational(0, -2), GaussRational(0)):
            want = [ZERO] * (order + 1)
            if k <= order:
                want[k] = pair(g)
            assert_matches(HSeries.h_power(order, k, g), want)
