"""Exact coefficient arithmetic: Gaussian rationals and truncated series in h = 1/kappa.

Everything downstream computes modulo h^(N+1) for a fixed truncation order N,
with coefficients in Q(i).  No floating point enters anywhere.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import NonInvertibleError, OrderMismatchError

_F0 = Fraction(0)
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


class GaussRational:
    """A Gaussian rational re + im*i with exact rational parts.

    Values are immutable by convention; all operators return fresh objects.
    Fractions keep themselves in lowest terms with positive denominator, so
    structural equality is equality of canonical forms.
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
        return GaussRational(-self.re, -self.im)

    def __add__(self, other):
        if isinstance(other, GaussRational):
            return GaussRational(self.re + other.re, self.im + other.im)
        if isinstance(other, (int, Fraction)):
            return GaussRational(self.re + other, self.im)
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, GaussRational):
            return GaussRational(self.re - other.re, self.im - other.im)
        if isinstance(other, (int, Fraction)):
            return GaussRational(self.re - other, self.im)
        return NotImplemented

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        if isinstance(other, GaussRational):
            a, b, c, d = self.re, self.im, other.re, other.im
            if not b:
                return GaussRational(a * c, a * d)
            if not d:
                return GaussRational(a * c, b * c)
            return GaussRational(a * c - b * d, a * d + b * c)
        if isinstance(other, (int, Fraction)):
            return GaussRational(self.re * other, self.im * other)
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

    Addition and multiplication are performed modulo h^(order+1); combining two
    series of different orders is an error rather than a silent coercion.
    """

    __slots__ = ("order", "coeffs", "valuation", "_nz")

    def __init__(self, order: int, coeffs=None):
        if order < 0:
            raise ValueError("truncation order must be non-negative")
        self.order = order
        if coeffs is None:
            self.coeffs = (GR_ZERO,) * (order + 1)
        else:
            cs = list(coeffs)
            if len(cs) != order + 1:
                raise ValueError("coefficient list length must be order + 1")
            self.coeffs = tuple(
                c if isinstance(c, GaussRational) else GaussRational(c) for c in cs
            )
        val = order + 1
        for k, c in enumerate(self.coeffs):
            if c:
                val = k
                break
        self.valuation = val  # order + 1 means the zero series
        self._nz = None

    @property
    def nz(self):
        """The nonzero coefficients as ((power, coefficient), ...), cached."""
        if self._nz is None:
            self._nz = tuple((k, c) for k, c in enumerate(self.coeffs) if c)
        return self._nz

    # -- constructors ------------------------------------------------------

    @classmethod
    def constant(cls, order: int, value) -> "HSeries":
        c = value if isinstance(value, GaussRational) else GaussRational(value)
        return cls(order, (c,) + (GR_ZERO,) * order)

    @classmethod
    def one(cls, order: int) -> "HSeries":
        return cls.constant(order, GR_ONE)

    @classmethod
    def h_power(cls, order: int, k: int, value=GR_ONE) -> "HSeries":
        """value * h^k, or zero when k exceeds the truncation order."""
        c = value if isinstance(value, GaussRational) else GaussRational(value)
        cs = [GR_ZERO] * (order + 1)
        if k <= order:
            cs[k] = c
        return cls(order, cs)

    # -- queries -----------------------------------------------------------

    def coeff(self, k: int) -> GaussRational:
        return self.coeffs[k]

    @property
    def is_zero(self) -> bool:
        return self.valuation > self.order

    def constant_term(self) -> GaussRational:
        return self.coeffs[0]

    def __bool__(self):
        return not self.is_zero

    def __eq__(self, other):
        if isinstance(other, HSeries):
            return self.order == other.order and self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction, GaussRational)):
            return self == HSeries.constant(self.order, other)
        return NotImplemented

    def __repr__(self):
        if self.is_zero:
            return "0"
        parts = []
        for k, c in enumerate(self.coeffs):
            if not c:
                continue
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
            return HSeries(self.order, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))
        if isinstance(other, (int, Fraction, GaussRational)):
            cs = list(self.coeffs)
            cs[0] = cs[0] + other
            return HSeries(self.order, cs)
        return NotImplemented

    __radd__ = __add__

    def __neg__(self):
        return HSeries(self.order, tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        if isinstance(other, HSeries):
            return self + (-other)
        if isinstance(other, (int, Fraction, GaussRational)):
            cs = list(self.coeffs)
            cs[0] = cs[0] - other
            return HSeries(self.order, cs)
        return NotImplemented

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, HSeries):
            self._check(other)
            N = self.order
            if self.valuation + other.valuation > N:
                return HSeries(N)
            out = [GR_ZERO] * (N + 1)
            for k, a in enumerate(self.coeffs):
                if not a:
                    continue
                for l in range(N - k + 1):
                    b = other.coeffs[l]
                    if b:
                        out[k + l] = out[k + l] + a * b
            return HSeries(N, out)
        if isinstance(other, (int, Fraction, GaussRational)):
            if not other:
                return HSeries(self.order)
            return HSeries(self.order, tuple(c * other for c in self.coeffs))
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
        """Multiply by h^k, dropping coefficients pushed past the order."""
        if k == 0:
            return self
        N = self.order
        cs = [GR_ZERO] * (N + 1)
        for j in range(N + 1 - k):
            cs[j + k] = self.coeffs[j]
        return HSeries(N, cs)

    def invert(self) -> "HSeries":
        """Multiplicative inverse modulo h^(order+1), by geometric recursion."""
        a0 = self.coeffs[0]
        if not a0:
            raise NonInvertibleError("series with zero constant term has no inverse")
        N = self.order
        inv0 = GR_ONE / a0
        out = [inv0] + [GR_ZERO] * N
        for n in range(1, N + 1):
            s = GR_ZERO
            for j in range(n):
                c = self.coeffs[n - j]
                if c and out[j]:
                    s = s + out[j] * c
            out[n] = -inv0 * s
        return HSeries(N, out)

    def conjugate(self) -> "HSeries":
        return HSeries(self.order, tuple(c.conjugate() for c in self.coeffs))

    def truncate(self, order: int) -> "HSeries":
        """Project onto a lower truncation order."""
        if order > self.order:
            raise OrderMismatchError("cannot extend a truncated series")
        return HSeries(order, self.coeffs[: order + 1])

    def rescale_h(self, s) -> "HSeries":
        """Substitute h -> h/s for a nonzero rational s (coefficient c_k -> c_k / s^k)."""
        s = as_fraction(s)
        if not s:
            raise ZeroDivisionError("rescaling parameter must be nonzero")
        cs = []
        p = _F1
        for c in self.coeffs:
            cs.append(c / p if c else GR_ZERO)
            p *= s
        return HSeries(self.order, cs)
