"""Exact coefficient arithmetic: Gaussian rationals and truncated series in h = 1/kappa.

Everything downstream computes modulo h^(N+1) for a fixed truncation order N,
with coefficients in Q(i).  No floating point enters anywhere.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import NonInvertibleError, OrderMismatchError

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


def convolve_nz(nz1, nz2, N: int, negate: bool = False):
    """Convolution of two sparse coefficient lists ((power, coeff), ...) modulo
    h^(N+1); the workhorse of every product loop."""
    if len(nz1) == 1 and len(nz2) == 1:
        k1, c1 = nz1[0]
        k2, c2 = nz2[0]
        k = k1 + k2
        if k > N:
            return ()
        c = c1 * c2
        return ((k, -c if negate else c),)
    acc = {}
    for k1, c1 in nz1:
        for k2, c2 in nz2:
            k = k1 + k2
            if k > N:
                continue
            p = c1 * c2
            cur = acc.get(k)
            acc[k] = p if cur is None else cur + p
    if negate:
        return tuple((k, -c) for k, c in acc.items() if c)
    return tuple((k, c) for k, c in acc.items() if c)


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
    """A polynomial sum_k c_k h^k truncated at k = order, c_k Gaussian rational.

    Only the nonzero coefficients are stored: nz = ((power, coefficient), ...)
    with increasing powers and no zero coefficient, so equality is structural.
    Every series the engine builds is homogeneous (one nonzero power), so nz
    is almost always one pair or empty.  coeffs is the dense view
    (c_0, ..., c_order), built on demand for output and tests.

    Addition and multiplication are performed modulo h^(order+1); combining two
    series of different orders is an error rather than a silent coercion.
    """

    __slots__ = ("order", "nz", "valuation")

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
        self.valuation = nz[0][0] if nz else order + 1  # order + 1: the zero series

    @classmethod
    def from_nz(cls, order: int, nz: tuple) -> "HSeries":
        """The series with nonzero coefficients nz: increasing powers up to
        order, no zero coefficient.  The caller guarantees the form."""
        out = _new(cls)
        out.order = order
        out.nz = nz
        out.valuation = nz[0][0] if nz else order + 1
        return out

    @classmethod
    def from_row(cls, order: int, row: dict) -> "HSeries":
        """The series of a sparse row {power: coefficient}; zeros are dropped."""
        if len(row) == 1:
            ((k, c),) = row.items()
            return cls.from_nz(order, ((k, c),) if c else ())
        return cls.from_nz(order, tuple(sorted(((k, c) for k, c in row.items() if c), key=_power)))

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
    def coeffs(self) -> tuple:
        """The dense coefficients (c_0, ..., c_order)."""
        cs = [GR_ZERO] * (self.order + 1)
        for k, c in self.nz:
            cs[k] = c
        return tuple(cs)

    def coeff(self, k: int) -> GaussRational:
        if not 0 <= k <= self.order:
            raise IndexError(f"h^{k} is outside a series truncated at h^{self.order}")
        for j, c in self.nz:
            if j == k:
                return c
        return GR_ZERO

    @property
    def is_zero(self) -> bool:
        return not self.nz

    def constant_term(self) -> GaussRational:
        return self.nz[0][1] if self.valuation == 0 else GR_ZERO

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

    # -- ring operations ---------------------------------------------------

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
        if isinstance(other, HSeries):
            self._check(other)
            N = self.order
            if self.valuation + other.valuation > N:
                return HSeries.from_nz(N, ())
            pairs = convolve_nz(self.nz, other.nz, N)
            if len(pairs) > 1:
                pairs = tuple(sorted(pairs, key=_power))
            return HSeries.from_nz(N, pairs)
        if isinstance(other, (int, Fraction, GaussRational)):
            if not other:
                return HSeries.from_nz(self.order, ())
            # Q(i) has no zero divisors: no product of nonzero values vanishes
            return HSeries.from_nz(self.order, tuple((k, c * other) for k, c in self.nz))
        return NotImplemented

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            return self.invert() ** (-n)
        out = HSeries.one(self.order)
        for _ in range(n):
            out = out * self
        return out

    def shift(self, k: int) -> "HSeries":
        """Multiply by h^k (k >= 0), dropping coefficients pushed past the order."""
        if k < 0:
            raise ValueError("shift takes a non-negative power of h")
        if k == 0:
            return self
        N = self.order
        return HSeries.from_nz(N, tuple((j + k, c) for j, c in self.nz if j + k <= N))

    def invert(self) -> "HSeries":
        """Multiplicative inverse modulo h^(order+1), by geometric recursion."""
        if self.valuation:
            raise NonInvertibleError("series with zero constant term has no inverse")
        N = self.order
        inv0 = GR_ONE / self.nz[0][1]
        tail = self.nz[1:]
        out = [inv0] + [GR_ZERO] * N
        for n in range(1, N + 1):
            s = GR_ZERO
            for k, c in tail:
                if k > n:
                    break
                if out[n - k]:
                    s = s + out[n - k] * c
            out[n] = -inv0 * s
        return HSeries(N, out)

    def conjugate(self) -> "HSeries":
        return HSeries.from_nz(self.order, tuple((k, c.conjugate()) for k, c in self.nz))

    def truncate(self, order: int) -> "HSeries":
        """Project onto a lower truncation order."""
        if order > self.order:
            raise OrderMismatchError("cannot extend a truncated series")
        if order < 0:
            raise ValueError("truncation order must be non-negative")
        return HSeries.from_nz(order, tuple(p for p in self.nz if p[0] <= order))

    def rescale_h(self, s) -> "HSeries":
        """Substitute h -> h/s for a nonzero rational s (coefficient c_k -> c_k / s^k)."""
        s = as_fraction(s)
        if not s:
            raise ZeroDivisionError("rescaling parameter must be nonzero")
        return HSeries.from_nz(self.order, tuple((k, c / s**k if k else c) for k, c in self.nz))


def _power(pair):
    return pair[0]


def _merge_nz(nz1, nz2, subtract: bool) -> tuple:
    """nz1 + nz2 (or nz1 - nz2) on sorted nonzero-coefficient tuples."""
    if not nz2:
        return nz1
    if not nz1:
        return tuple((k, -c) for k, c in nz2) if subtract else nz2
    if len(nz1) == 1 and len(nz2) == 1 and nz1[0][0] == nz2[0][0]:
        k, c = nz1[0]
        s = c - nz2[0][1] if subtract else c + nz2[0][1]
        return ((k, s),) if s else ()
    row = dict(nz1)
    for k, c in nz2:
        cur = row.get(k)
        if cur is None:
            row[k] = -c if subtract else c
        else:
            row[k] = cur - c if subtract else cur + c
    return tuple(sorted(((k, c) for k, c in row.items() if c), key=_power))
