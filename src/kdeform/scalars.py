"""Exact coefficient arithmetic: Gaussian rationals, and truncated series in
h = 1/kappa as scalar values.

Everything downstream computes modulo h^(N+1) for a fixed truncation order N,
with coefficients in Q(i).  No floating point enters anywhere.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import OrderMismatchError

_F0 = Fraction(0)
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


class GaussRational:
    """A Gaussian rational re + im*i with exact rational parts.

    Values are immutable by convention; all operators return fresh objects
    (or an operand itself, when the other one is zero).  Fractions keep
    themselves in lowest terms with positive denominator, so structural
    equality is equality of canonical forms.

    The engine's coefficients are almost all single-part: pure real or pure
    imaginary.  + - * and negation take a fast path when both operands are
    single-part, doing one Fraction operation and skipping zero parts (and
    none at all for a product with 1 or a sum with 0); fully complex values
    take the general path.
    """

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = re if type(re) is Fraction else as_fraction(re)
        self.im = im if type(im) is Fraction else as_fraction(im)

    def conjugate(self) -> "GaussRational":
        return GaussRational(self.re, -self.im) if self.im else self

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    def __eq__(self, other):
        if isinstance(other, GaussRational):
            return self.re == other.re and self.im == other.im
        if isinstance(other, (int, Fraction)):
            return not self.im and self.re == other
        return NotImplemented

    def __hash__(self):
        # real values hash like their Fraction so x == n implies hash(x) == hash(n)
        if not self.im:
            return hash(self.re)
        return hash((self.re, self.im))

    def __neg__(self):
        a, b = self.re, self.im
        if not b:
            return GaussRational(-a, _F0) if a else self
        if not a:
            return GaussRational(_F0, -b)
        return GaussRational(-a, -b)

    def __add__(self, other):
        if isinstance(other, GaussRational):
            a, b, c, d = self.re, self.im, other.re, other.im
            if not d:
                if not c:
                    return self
                if not b:
                    return GaussRational(a + c, _F0) if a else other
                return GaussRational(a + c, b)
            if not c:
                if not a:
                    return GaussRational(_F0, b + d) if b else other
                return GaussRational(a, b + d)
            return GaussRational(a + c, b + d)
        if isinstance(other, (int, Fraction)):
            return GaussRational(self.re + other, self.im)
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, GaussRational):
            a, b, c, d = self.re, self.im, other.re, other.im
            if not d:
                if not c:
                    return self
                if not b:
                    return GaussRational(a - c if a else -c, _F0)
                return GaussRational(a - c, b)
            if not c:
                if not a:
                    return GaussRational(_F0, b - d if b else -d)
                return GaussRational(a, b - d)
            return GaussRational(a - c, b - d)
        if isinstance(other, (int, Fraction)):
            return GaussRational(self.re - other, self.im)
        return NotImplemented

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        if isinstance(other, GaussRational):
            a, b, c, d = self.re, self.im, other.re, other.im
            if not b:
                if a == 1:
                    return other
                if not d:
                    if c == 1:
                        return self
                    return GaussRational(a * c, _F0)
                if not c:
                    return GaussRational(_F0, a * d)
                return GaussRational(a * c, a * d)
            if not a:
                if not d:
                    return GaussRational(_F0, b * c)
                if not c:
                    return GaussRational(-(b * d), _F0)
                return GaussRational(-(b * d), b * c)
            if not d:
                return GaussRational(a * c, b * c)
            if not c:
                return GaussRational(-(b * d), a * d)
            return GaussRational(a * c - b * d, a * d + b * c)
        if isinstance(other, (int, Fraction)):
            a, b = self.re, self.im
            if not b:
                return GaussRational(a * other, _F0)
            if not a:
                return GaussRational(_F0, b * other)
            return GaussRational(a * other, b * other)
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            if not other:
                raise ZeroDivisionError("division by zero")
            return GaussRational(self.re / other, self.im / other)
        if isinstance(other, GaussRational):
            n = other.re * other.re + other.im * other.im
            if not n:
                raise ZeroDivisionError("division by zero")
            return (self * other.conjugate()) / n
        return NotImplemented

    def __rtruediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return GaussRational(other).__truediv__(self)
        return NotImplemented

    def __repr__(self):
        if not self.im:
            return str(self.re)
        if not self.re:
            if self.im == 1:
                return "i"
            if self.im == -1:
                return "-i"
            return f"{self.im}i"
        sign = "+" if self.im > 0 else "-"
        mag = abs(self.im)
        istr = "i" if mag == 1 else f"{mag}i"
        return f"({self.re}{sign}{istr})"


GR_ZERO = GaussRational(0)
GR_ONE = GaussRational(1)
GR_I = GaussRational(0, 1)
GR_MINUS_I = GaussRational(0, -1)


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
    """A polynomial sum_k c_k h^k truncated at k = order, c_k Gaussian rational:
    a scalar value.  Elements store their coefficients flat, one
    GaussRational per (key, power of h); a series is what multiplies them
    (h^k and its multiples), what the counit returns, and what output
    groups each key's powers into.

    Only the nonzero coefficients are stored: nz = ((power, coefficient), ...)
    with increasing powers and no zero coefficient, so equality is structural.
    Addition is performed modulo h^(order+1); combining two series of
    different orders is an error rather than a silent coercion.
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
            gs = (c if isinstance(c, GaussRational) else GaussRational(c) for c in cs)
            nz = tuple((k, c) for k, c in enumerate(gs) if c)
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
    def h_power(cls, order: int, k: int, value=GR_ONE) -> "HSeries":
        """value * h^k, or zero when k exceeds the truncation order."""
        if order < 0 or k < 0:
            raise ValueError("truncation order and power of h must be non-negative")
        c = value if isinstance(value, GaussRational) else GaussRational(value)
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
        if isinstance(other, (int, Fraction, GaussRational)):
            return self == HSeries.constant(self.order, other)
        return NotImplemented

    def __repr__(self):
        if not self.nz:
            return "0"
        parts = []
        for k, c in self.nz:
            if k == 0:
                parts.append(repr(c))
            else:
                hk = "h" if k == 1 else f"h^{k}"
                parts.append(hk if c == 1 else f"{c!r}*{hk}")
        return " + ".join(parts)

    # -- linear operations ---------------------------------------------------

    def _check(self, other: "HSeries"):
        if self.order != other.order:
            raise OrderMismatchError(
                f"series truncated at h^{self.order} and h^{other.order} "
                "live in different truncation contexts"
            )

    def __add__(self, other):
        if isinstance(other, HSeries):
            self._check(other)
            return HSeries.from_nz(self.order, _merge_nz(self.nz, other.nz, False))
        if isinstance(other, (int, Fraction, GaussRational)):
            return self + HSeries.constant(self.order, other)
        return NotImplemented

    __radd__ = __add__

    def __neg__(self):
        return HSeries.from_nz(self.order, tuple((k, -c) for k, c in self.nz))

    def __sub__(self, other):
        if isinstance(other, HSeries):
            self._check(other)
            return HSeries.from_nz(self.order, _merge_nz(self.nz, other.nz, True))
        if isinstance(other, (int, Fraction, GaussRational)):
            return self - HSeries.constant(self.order, other)
        return NotImplemented

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        """Multiplication by a scalar coefficient."""
        if isinstance(other, (int, Fraction, GaussRational)):
            if not other:
                return HSeries.from_nz(self.order, ())
            # Q(i) has no zero divisors: no product of nonzero values vanishes
            return HSeries.from_nz(self.order, tuple((k, c * other) for k, c in self.nz))
        return NotImplemented

    __rmul__ = __mul__


def _merge_nz(nz1, nz2, subtract: bool) -> tuple:
    """nz1 + nz2 (or nz1 - nz2) on sorted nonzero-coefficient tuples."""
    row = dict(nz1)
    for k, c in nz2:
        cur = row.get(k)
        if cur is None:
            row[k] = -c if subtract else c
        else:
            row[k] = cur - c if subtract else cur + c
    return tuple(sorted((k, c) for k, c in row.items() if c))
