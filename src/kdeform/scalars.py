"""Exact coefficients: the engine's integers and the boundary's rationals.

The engine works in the anti-Hermitian rotations X = -iM, where every
structure constant, coproduct, antipode and twist exponent is rational, so
every coefficient it computes is real.  The engine stores them as int
numerators over one int denominator (see split), and an int or Fraction
comes back only at the boundary (see ratio).  GaussRational is the boundary
type for the values that really are non-real: the paper's rotations M = iX,
JSON input with imaginary parts, and perturbations stated in the paper's
generators; its numerators have int parts and share + and * with int.

Powers of h = 1/kappa are not scalars here: every element stores its terms
flat as {(key, power of h): numerator}, modulo h^(N+1) for a fixed
truncation order N, and TermElement.times_h multiplies by c h^k.  No floating
point enters anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

_F1 = Fraction(1)


def as_fraction(x) -> Fraction:
    """Coerce int / Fraction / 'num/den' string to an exact Fraction; reject floats."""
    if type(x) is Fraction:
        return x
    if isinstance(x, (int, str)):
        return Fraction(x)
    if isinstance(x, Fraction):
        return x
    raise TypeError(f"cannot interpret {x!r} as an exact rational")


def rational(x):
    """A rational as an int when it is integral, else the Fraction itself:
    the engine's coefficient form, in which integral arithmetic stays on
    Python ints.  Any other value is returned unchanged."""
    if type(x) is Fraction and x.denominator == 1:
        return x.numerator
    return x


def exact(x):
    """x as a coefficient: rational(x) for an int, Fraction or 'num/den'
    string, and a GaussRational only when its imaginary part is nonzero."""
    t = type(x)
    if t is int:
        return x
    if t is GaussRational:
        return gauss(x.real, x.imag)
    return rational(as_fraction(x))


def split(x) -> tuple:
    """An exact scalar as (numerator, denominator) in lowest terms: an int, or
    a GaussRational with int parts, over an int >= 1."""
    x = exact(x)
    if type(x) is not GaussRational:
        return x.numerator, x.denominator
    d = lcm(x.real.denominator, x.imag.denominator)
    return GaussRational(x.real * d, x.imag * d), d


def split_map(values: dict) -> tuple:
    """(numerators, denominator) of a map of exact scalars: the nonzero values
    over their least common denominator, coprime to the numerators."""
    parts = {k: split(v) for k, v in values.items() if v}
    den = lcm(*(d for _, d in parts.values()))
    return {k: n * (den // d) for k, (n, d) in parts.items()}, den


def ratio(n, d: int):
    """The coefficient n / d of a numerator over a denominator, as exact gives it."""
    return n if d == 1 else rational(Fraction(n, d)) if type(n) is int else n * Fraction(1, d)


def gauss(real, imag=0):
    """real + imag*i: a GaussRational, or a plain rational when imag is 0."""
    return GaussRational(real, imag) if imag else rational(real)


class GaussRational:
    """A Gaussian rational real + imag*i with exact rational parts.

    Values are immutable.  Every operator returns a plain rational when the
    imaginary part cancels (see gauss), so a real value computed here is never
    a GaussRational and equality stays structural.  int and Fraction carry
    .real and .imag as well, so the parts of any exact operand read alike.
    """

    __slots__ = ("real", "imag")

    def __init__(self, real=0, imag=0):
        self.real = exact(real)
        self.imag = exact(imag)

    def conjugate(self):
        return gauss(self.real, -self.imag)

    def __bool__(self):
        return bool(self.imag) or bool(self.real)

    def __eq__(self, other):
        if not isinstance(other, _EXACT):
            return NotImplemented
        return self.real == other.real and self.imag == other.imag

    def __hash__(self):
        # real values hash like their rational so x == n implies hash(x) == hash(n)
        return hash((self.real, self.imag)) if self.imag else hash(self.real)

    def __neg__(self):
        return gauss(-self.real, -self.imag)

    def __add__(self, other):
        if not isinstance(other, _EXACT):
            return NotImplemented
        return gauss(self.real + other.real, self.imag + other.imag)

    __radd__ = __add__

    def __sub__(self, other):
        return self + -other if isinstance(other, _EXACT) else NotImplemented

    def __rsub__(self, other):
        if not isinstance(other, _EXACT):
            return NotImplemented
        return gauss(other.real - self.real, other.imag - self.imag)

    def __mul__(self, other):
        if not isinstance(other, _EXACT):
            return NotImplemented
        a, b, c, d = self.real, self.imag, other.real, other.imag
        return gauss(a * c - b * d, a * d + b * c)

    __rmul__ = __mul__

    def __floordiv__(self, n: int):
        """Both parts divided by a common int divisor n (see algebra.reduced)."""
        return gauss(self.real // n, self.imag // n)

    def __truediv__(self, other):
        return self * _inverse(other) if isinstance(other, _EXACT) else NotImplemented

    def __rtruediv__(self, other):
        return _inverse(self) * other if isinstance(other, _EXACT) else NotImplemented

    def __repr__(self):
        if not self.imag:
            return str(self.real)
        if not self.real:
            if self.imag == 1:
                return "i"
            if self.imag == -1:
                return "-i"
            return f"{self.imag}i"
        sign = "+" if self.imag > 0 else "-"
        mag = abs(self.imag)
        istr = "i" if mag == 1 else f"{mag}i"
        return f"({self.real}{sign}{istr})"

    __str__ = __repr__


_EXACT = (int, Fraction, GaussRational)


def _inverse(x):
    c, d = x.real, x.imag
    n = Fraction(c * c + d * d)
    if not n:
        raise ZeroDivisionError("division by zero")
    return gauss(c / n, -d / n)


# i^k for k mod 4: the phases that carry a value between X and M = iX
I_POWERS = (1, GaussRational(0, 1), -1, GaussRational(0, -1))


def times_i(c, k: int):
    """c i^k, a plain rational whenever it is real."""
    k %= 4
    return c if not k else -c if k == 2 else c * I_POWERS[k]


def binom_half(n: int) -> Fraction:
    """Binomial coefficient (1/2 choose n), exactly."""
    num = _F1
    half = Fraction(1, 2)
    for k in range(n):
        num *= half - k
    for k in range(2, n + 1):
        num /= k
    return num
