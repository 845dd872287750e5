"""Exact coefficients, and truncated series in h = 1/kappa as scalar values.

The engine works in the anti-Hermitian rotations X = -iM, where every
structure constant, coproduct, antipode and twist exponent is rational, so
every coefficient it computes is real: a plain int when it is integral, else a
Fraction (see rational).  GaussRational is the boundary type for the values
that really are non-real: the paper's rotations M = iX, JSON input with
imaginary parts, and perturbations stated in the paper's generators.

Everything downstream computes modulo h^(N+1) for a fixed truncation order N.
No floating point enters anywhere.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import OrderMismatchError

_F1 = Fraction(1)
_new = object.__new__


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


class HSeries:
    """A polynomial sum_k c_k h^k truncated at k = order: a scalar value.
    Elements store their coefficients flat, one per (key, power of h); a
    series is what multiplies them (h^k and its multiples), what the counit
    returns, and what output groups each key's powers into.

    Only the nonzero coefficients are stored, each in the form exact() gives:
    nz = ((power, coefficient), ...) with increasing powers and no zero
    coefficient, so equality is structural.  Addition is performed modulo
    h^(order+1); combining two series of different orders is an error rather
    than a silent coercion.
    """

    __slots__ = ("order", "nz")

    def __init__(self, order: int, coeffs=None):
        if order < 0:
            raise ValueError("truncation order must be non-negative")
        nz = ()
        if coeffs is not None:
            cs = list(coeffs)
            if len(cs) != order + 1:
                raise ValueError("coefficient list length must be order + 1")
            nz = tuple((k, c) for k, c in enumerate(map(exact, cs)) if c)
        self.order = order
        self.nz = nz

    @classmethod
    def from_nz(cls, order: int, nz: tuple) -> "HSeries":
        """The series with nonzero coefficients nz: increasing powers up to
        order, no zero coefficient.  The caller guarantees the form."""
        out = _new(cls)
        out.order = order
        out.nz = nz
        return out

    # -- constructors ------------------------------------------------------

    @classmethod
    def constant(cls, order: int, value) -> "HSeries":
        return cls.h_power(order, 0, value)

    @classmethod
    def one(cls, order: int) -> "HSeries":
        return cls.h_power(order, 0)

    @classmethod
    def h_power(cls, order: int, k: int, value=1) -> "HSeries":
        """value * h^k, or zero when k exceeds the truncation order."""
        if order < 0 or k < 0:
            raise ValueError("truncation order and power of h must be non-negative")
        c = exact(value)
        return cls.from_nz(order, ((k, c),) if c and k <= order else ())

    # -- queries -----------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.nz

    def __bool__(self):
        return bool(self.nz)

    def __eq__(self, other):
        if isinstance(other, HSeries):
            return self.order == other.order and self.nz == other.nz
        if isinstance(other, _EXACT):
            return self == HSeries.constant(self.order, other)
        return NotImplemented

    def __repr__(self):
        if not self.nz:
            return "0"
        parts = []
        for k, c in self.nz:
            if k == 0:
                parts.append(str(c))
            else:
                hk = "h" if k == 1 else f"h^{k}"
                parts.append(hk if c == 1 else f"{c}*{hk}")
        return " + ".join(parts)

    # -- linear operations ---------------------------------------------------

    def _check(self, other: "HSeries"):
        if self.order != other.order:
            raise OrderMismatchError(
                f"series truncated at h^{self.order} and h^{other.order} "
                "live in different truncation contexts"
            )

    def __add__(self, other):
        if isinstance(other, _EXACT):
            other = HSeries.constant(self.order, other)
        if not isinstance(other, HSeries):
            return NotImplemented
        self._check(other)
        row = dict(self.nz)
        for k, c in other.nz:
            row[k] = row[k] + c if k in row else c
        nz = tuple(sorted((k, rational(c)) for k, c in row.items() if c))
        return HSeries.from_nz(self.order, nz)

    __radd__ = __add__

    def __neg__(self):
        return HSeries.from_nz(self.order, tuple((k, -c) for k, c in self.nz))

    def __sub__(self, other):
        return self + -other if isinstance(other, (HSeries, *_EXACT)) else NotImplemented

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        """Multiplication by a scalar coefficient."""
        if isinstance(other, _EXACT):
            other = exact(other)
            if not other:
                return HSeries.from_nz(self.order, ())
            # Q(i) has no zero divisors: no product of nonzero values vanishes
            return HSeries.from_nz(self.order, tuple((k, rational(c * other)) for k, c in self.nz))
        return NotImplemented

    __rmul__ = __mul__

