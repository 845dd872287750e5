from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kdeform import GaussRational, binom_half
from kdeform.render import LATEX, series_text


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


def test_binom_half():
    assert binom_half(0) == 1
    assert binom_half(1) == Fraction(1, 2)
    assert binom_half(2) == Fraction(-1, 8)
    assert binom_half(3) == Fraction(1, 16)


@pytest.mark.parametrize(
    "nz, text, latex",
    [
        ((), "0", "0"),
        (((1, 1),), "h", "h"),
        (((0, 1), (2, Fraction(-1, 8))), "1 + -1/8*h^2", "1 + \\tfrac{-1}{8}\\, h^{2}"),
        (
            ((0, GaussRational(0, 1)), (1, GaussRational(2, -3)), (3, 1)),
            "i + (2-3i)*h + h^3",
            "i + \\left(2 - 3i\\right)\\, h + h^{3}",
        ),
    ],
)
def test_series_output(nz, text, latex):
    # a series ((k, c), ...) as TermElement.series gives it
    assert series_text(nz) == text
    assert series_text(nz, LATEX) == latex


# -- reference arithmetic ---------------------------------------------------------
#
# Gaussian rationals as (re, im) pairs of Fractions, written independently of
# kdeform.scalars.  The strategies draw
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
