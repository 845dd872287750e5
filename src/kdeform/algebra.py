"""The enveloping algebra of iso(g) over truncated h-series coefficients.

Generators are encoded as small integers so that monomials are plain int
tuples: a rotation M_{mu nu} (mu < nu) gets code mu*D + nu, a momentum P_mu
gets code D*D + mu.  The PBW order "rotations lexicographically, then momenta
by index" is then just increasing code order, and a monomial is in normal form
iff its code tuple is nondecreasing.  Products are reduced by rewriting the
leftmost out-of-order adjacent pair via x y = y x + [x, y]; each step lowers a
(degree, inversions) measure, so rewriting terminates.
"""

from __future__ import annotations

from fractions import Fraction

from . import exactla
from .errors import ContextMismatchError, InvalidVectorError, NonInvertibleError
from .scalars import GR_ONE, GR_ZERO, GaussRational, HSeries, as_fraction, convolve_nz

_F0 = Fraction(0)


class Metric:
    """A symmetric nondegenerate rational D x D bilinear form.

    The exact inverse and the signature (positives, negatives) are computed at
    construction, so Metric objects are immutable and freely shareable.
    """

    __slots__ = ("dim", "rows", "inverse", "signature", "_key")

    def __init__(self, rows):
        rows = exactla.freeze(tuple(tuple(as_fraction(x) for x in row) for row in rows))
        d = len(rows)
        if d < 2 or any(len(r) != d for r in rows):
            raise ValueError("metric must be a square matrix of dimension >= 2")
        for i in range(d):
            for j in range(i):
                if rows[i][j] != rows[j][i]:
                    raise ValueError("metric must be symmetric")
        self.dim = d
        self.rows = rows
        self.inverse = exactla.invert(rows)
        self.signature = exactla.signature(rows)
        self._key = (d, rows)

    def apply(self, u, v) -> Fraction:
        """The bilinear form g(u, v) on rational component vectors."""
        return sum(
            (self.rows[i][j] * u[i] * v[j] for i in range(self.dim) for j in range(self.dim) if u[i] and v[j]),
            _F0,
        )

    def lower(self, v):
        """Covariant components g_{mu nu} v^nu."""
        return exactla.mat_vec(self.rows, v)

    def congruence(self, columns) -> "Metric":
        """The form in the basis whose vectors are the given columns: A^T g A."""
        a = exactla.freeze(columns)
        return Metric(exactla.mat_mul(exactla.transpose(a), exactla.mat_mul(self.rows, a)))

    def __eq__(self, other):
        return isinstance(other, Metric) and self._key == other._key

    def __hash__(self):
        return hash(self._key)

    def __repr__(self):
        return f"Metric({[list(map(str, r)) for r in self.rows]})"


class VectorTau:
    """The deforming vector: contravariant components, with the covariant
    components and tau^2 = g(tau, tau) cached against the metric."""

    __slots__ = ("metric", "components", "covariant", "tau_sq")

    def __init__(self, metric: Metric, components):
        comps = tuple(as_fraction(x) for x in components)
        if len(comps) != metric.dim:
            raise InvalidVectorError("vector length does not match the metric dimension")
        self.metric = metric
        self.components = comps
        self.covariant = metric.lower(comps)
        self.tau_sq = metric.apply(comps, comps)

    @property
    def is_zero(self) -> bool:
        return not any(self.components)

    def scaled(self, s) -> "VectorTau":
        s = as_fraction(s)
        return VectorTau(self.metric, tuple(s * c for c in self.components))

    def __repr__(self):
        return f"VectorTau({[str(c) for c in self.components]})"


class PoincareAlgebra:
    """U(iso(g)) over h-series coefficients at a fixed truncation order.

    Owns the structure-constant table and the normal-ordering cache; elements
    hold a reference back here.  All values are immutable once built, so a
    context can be shared freely.
    """

    def __init__(self, metric: Metric, order: int):
        if order < 1:
            raise ValueError("truncation order must be >= 1")
        self.metric = metric
        self.order = order
        self.dim = metric.dim
        self._mom0 = metric.dim * metric.dim  # first momentum code
        self._brackets = {}
        self._no_cache = {}
        self._prod_cache = {}
        self._casimir = None
        self._key = (metric._key, order)

    # -- generator codes ----------------------------------------------------

    def momentum_code(self, mu: int) -> int:
        if not 0 <= mu < self.dim:
            raise IndexError(f"momentum index {mu} out of range for D={self.dim}")
        return self._mom0 + mu

    def rotation_code(self, mu: int, nu: int):
        """Return (code, sign) canonicalizing M_{nu mu} = -M_{mu nu}; sign 0 for mu == nu."""
        d = self.dim
        if not (0 <= mu < d and 0 <= nu < d):
            raise IndexError(f"rotation indices ({mu},{nu}) out of range for D={d}")
        if mu == nu:
            return (0, 0)
        if mu < nu:
            return (mu * d + nu, 1)
        return (nu * d + mu, -1)

    def decode(self, code: int):
        """Return ('P', mu) or ('M', (mu, nu)) for a generator code."""
        if code >= self._mom0:
            return ("P", code - self._mom0)
        return ("M", divmod(code, self.dim))

    def generator_codes(self):
        """All basis generator codes in PBW order (rotations, then momenta)."""
        d = self.dim
        rots = [mu * d + nu for mu in range(d) for nu in range(mu + 1, d)]
        return rots + [self._mom0 + mu for mu in range(d)]

    # -- element constructors ------------------------------------------------

    def zero(self) -> "AlgebraElement":
        return AlgebraElement(self, {})

    def one(self) -> "AlgebraElement":
        return AlgebraElement(self, {(): HSeries.one(self.order)})

    def scalar(self, value) -> "AlgebraElement":
        hs = value if isinstance(value, HSeries) else HSeries.constant(self.order, value)
        if hs.order != self.order:
            raise ContextMismatchError("scalar series has the wrong truncation order")
        return AlgebraElement(self, {(): hs} if hs else {})

    def h(self, k: int = 1) -> HSeries:
        return HSeries.h_power(self.order, k)

    def P(self, mu: int) -> "AlgebraElement":
        return AlgebraElement(self, {(self.momentum_code(mu),): HSeries.one(self.order)})

    def M(self, mu: int, nu: int) -> "AlgebraElement":
        code, sign = self.rotation_code(mu, nu)
        if sign == 0:
            return self.zero()
        return AlgebraElement(self, {(code,): HSeries.constant(self.order, sign)})

    def from_codes(self, coeff_map) -> "AlgebraElement":
        """Element from {generator code: GaussRational}; degree-one terms only."""
        one = HSeries.one(self.order)
        return AlgebraElement(
            self, {(c,): one * v for c, v in coeff_map.items() if v}
        )

    # -- structure constants --------------------------------------------------

    def bracket_codes(self, a: int, b: int) -> dict:
        """[a, b] for basis generators, as {generator code: GaussRational}."""
        out = self._brackets.get((a, b))
        if out is None:
            out = self._bracket_uncached(a, b)
            self._brackets[(a, b)] = out
        return out

    def _bracket_uncached(self, a: int, b: int) -> dict:
        d = self.dim
        mom0 = self._mom0
        g = self.metric.rows
        if a >= mom0 and b >= mom0:
            return {}
        if a < mom0 and b >= mom0:
            # [M_{mu nu}, P_rho] = i (g_{nu rho} P_mu - g_{mu rho} P_nu)
            mu, nu = divmod(a, d)
            rho = b - mom0
            out = {}
            if g[nu][rho]:
                accumulate(out, mom0 + mu, GaussRational(0, g[nu][rho]))
            if g[mu][rho]:
                accumulate(out, mom0 + nu, GaussRational(0, -g[mu][rho]))
            return out
        if a >= mom0 and b < mom0:
            return {c: -v for c, v in self.bracket_codes(b, a).items()}
        # [M_{mu nu}, M_{rho lam}] = i (g_{mu lam} M_{nu rho} - g_{nu lam} M_{mu rho}
        #                               + g_{nu rho} M_{mu lam} - g_{mu rho} M_{nu lam})
        mu, nu = divmod(a, d)
        rho, lam = divmod(b, d)
        out = {}
        for f, p, q in (
            (g[mu][lam], nu, rho),
            (-g[nu][lam], mu, rho),
            (g[nu][rho], mu, lam),
            (-g[mu][rho], nu, lam),
        ):
            if not f:
                continue
            code, sign = self.rotation_code(p, q)
            if sign:
                accumulate(out, code, GaussRational(0, f * sign))
        return {c: v for c, v in out.items() if v}

    # -- PBW normal ordering ---------------------------------------------------

    def mono_product(self, m1: tuple, m2: tuple) -> dict:
        """Product of two normal-ordered monomials as {monomial: GaussRational}.

        Results are cached: the same monomial pairs recur across every tensor
        product in the verification suites."""
        key = (m1, m2)
        out = self._prod_cache.get(key)
        if out is not None:
            return out
        if not m1:
            out = {m2: GR_ONE}
        elif not m2:
            out = {m1: GR_ONE}
        elif m1[-1] <= m2[0]:
            out = {m1 + m2: GR_ONE}
        elif m1[0] >= self._mom0 and m2[0] >= self._mom0:
            # both words pure momentum: sorted merge, momenta commute
            out = {tuple(sorted(m1 + m2)): GR_ONE}
        else:
            out = self.normal_order(m1 + m2)
        self._prod_cache[key] = out
        return out

    def normal_order(self, word: tuple) -> dict:
        out = self._no_cache.get(word)
        if out is None:
            out = self._normal_order_uncached(word)
            self._no_cache[word] = out
        return out

    def _normal_order_uncached(self, word: tuple) -> dict:
        for i in range(len(word) - 1):
            if word[i] > word[i + 1]:
                break
        else:
            return {word: GR_ONE}
        a, b = word[i], word[i + 1]
        head, tail = word[:i], word[i + 2:]
        acc = {}
        for m, c in self.normal_order(head + (b, a) + tail).items():
            accumulate(acc, m, c)
        for gen, cb in self.bracket_codes(a, b).items():
            for m, c in self.normal_order(head + (gen,) + tail).items():
                accumulate(acc, m, c * cb)
        return {m: c for m, c in acc.items() if c}

    # -- products of term maps ---------------------------------------------------

    def mul_terms(
        self, ta: dict, tb: dict, acc: dict | None = None, sign: int = 1, key_product=None
    ) -> dict:
        """Accumulate the product of two term maps into mutable coefficient rows.

        This is the one product kernel: PBW elements, tensors of any leg count
        and kappa-Minkowski coordinates differ only in key_product(k1, k2),
        which yields the (key, coefficient) pairs of the product of two keys.
        A coefficient is a GaussRational (GR_ONE itself takes a fast path) or
        an HSeries for an h-weighted key product.  The default rule is the
        PBW product of monomials.

        acc maps key -> sparse row {power of h: GaussRational}, holding only
        the powers some product reached; pass the same acc to several calls
        to fuse sums of products (finalize with finalize_rows)."""
        N = self.order
        if acc is None:
            acc = {}
        if key_product is None:
            mono_product = self.mono_product

            def key_product(m1, m2):
                return mono_product(m1, m2).items()

        items_b = [(m, h.valuation, h.nz) for m, h in tb.items() if h.valuation <= N]
        negate = sign < 0
        for m1, h1 in ta.items():
            v1 = h1.valuation
            if v1 > N:
                continue
            nz1 = h1.nz
            for m2, v2, nz2 in items_b:
                if v1 + v2 > N:
                    continue
                pairs = convolve_nz(nz1, nz2, N, negate)
                if not pairs:
                    continue
                for m, c in key_product(m1, m2):
                    if c is GR_ONE:
                        terms = pairs
                    elif type(c) is HSeries:
                        terms = convolve_nz(pairs, c.nz, N)
                    else:
                        terms = [(k, hc * c) for k, hc in pairs]
                    row = acc.get(m)
                    if row is None:
                        acc[m] = dict(terms)
                        continue
                    for k, hc in terms:
                        cur = row.get(k)
                        row[k] = hc if cur is None else cur + hc
        return acc

    def add_scaled(self, acc: dict, terms: dict, hs: HSeries) -> dict:
        """Accumulate terms * hs, for a scalar series hs, into the rows of acc.
        A sum of n scaled pieces then costs one finalize_rows, not n copies
        of a growing term map."""
        return self.mul_terms(terms, {(): hs}, acc=acc, key_product=_left_key)

    def finalize_rows(self, acc: dict) -> dict:
        """Turn sparse coefficient rows back into {key: HSeries}, dropping the
        keys whose coefficients all cancelled."""
        N = self.order
        out = {}
        for m, row in acc.items():
            hs = HSeries.from_row(N, row)
            if hs:
                out[m] = hs
        return out

    # -- derived elements ---------------------------------------------------------

    def casimir(self) -> "AlgebraElement":
        """The quadratic Casimir C = g^{mu nu} P_mu P_nu."""
        if self._casimir is None:
            acc = {}
            ginv = self.metric.inverse
            mom0 = self._mom0
            for mu in range(self.dim):
                for nu in range(self.dim):
                    f = ginv[mu][nu]
                    if not f:
                        continue
                    key = (mom0 + mu, mom0 + nu) if mu <= nu else (mom0 + nu, mom0 + mu)
                    acc[key] = acc.get(key, GR_ZERO) + f
            one = HSeries.one(self.order)
            self._casimir = AlgebraElement(
                self, {k: one * v for k, v in acc.items() if v}
            )
        return self._casimir

    def momentum_raised(self, alpha: int) -> "AlgebraElement":
        """P^alpha = g^{alpha beta} P_beta."""
        ginv = self.metric.inverse
        return self.from_codes(
            {
                self._mom0 + beta: GaussRational(ginv[alpha][beta])
                for beta in range(self.dim)
                if ginv[alpha][beta]
            }
        )

    def contract_tau(self, tau: VectorTau):
        """(P_tau, [M_{tau lam} for lam in 0..D-1]) for a vector tau."""
        if tau.metric is not self.metric and tau.metric != self.metric:
            raise ContextMismatchError("vector belongs to a different metric")
        p_tau = self.from_codes(
            {self._mom0 + mu: GaussRational(c) for mu, c in enumerate(tau.components) if c}
        )
        m_tau = []
        for lam in range(self.dim):
            acc = {}
            for alpha, c in enumerate(tau.components):
                if not c:
                    continue
                code, sign = self.rotation_code(alpha, lam)
                if sign:
                    accumulate(acc, code, GaussRational(c * sign))
            m_tau.append(self.from_codes(acc))
        return p_tau, m_tau

    def bracket(self, x: "AlgebraElement", y: "AlgebraElement") -> "AlgebraElement":
        acc = self.mul_terms(x.terms, y.terms)
        self.mul_terms(y.terms, x.terms, acc=acc, sign=-1)
        return AlgebraElement(self, self.finalize_rows(acc))

    # -- compatibility -------------------------------------------------------------

    def compatible(self, other: "PoincareAlgebra") -> bool:
        return self is other or self._key == other._key

    def __repr__(self):
        p, q = self.metric.signature
        return f"PoincareAlgebra(iso({p},{q}), D={self.dim}, order={self.order})"


def _left_key(key, _unit):
    """Key-product rule of a product with a scalar: the key is kept."""
    return ((key, GR_ONE),)


def accumulate(acc: dict, key, val):
    """acc[key] += val, for sparse maps whose zero sums are filtered later."""
    cur = acc.get(key)
    acc[key] = val if cur is None else cur + val


def dict_sub(a: dict, b: dict) -> dict:
    """a - b on sparse coefficient maps; cancelled keys are dropped."""
    out = dict(a)
    for k, v in b.items():
        cur = out.get(k)
        s = -v if cur is None else cur - v
        if s:
            out[k] = s
        elif cur is not None:
            del out[k]
    return out


_SCALARS = (int, Fraction, GaussRational, HSeries)


class TermElement:
    """The linear structure shared by every sparse element {key: HSeries}:
    PBW elements, tensors and kappa-Minkowski coordinates.  Zero coefficients
    are never stored, so equality is structural.

    A subclass says what its keys are: _with builds an element of the same
    kind, _compatible says which elements combine, _scalar embeds a scalar
    (where scalars have a place), and products go through
    PoincareAlgebra.mul_terms with the subclass's key-product rule.
    """

    __slots__ = ("algebra", "terms")

    def _with(self, terms: dict, algebra: PoincareAlgebra | None = None):
        raise NotImplementedError

    def _compatible(self, other) -> bool:
        return self.algebra.compatible(other.algebra)

    def _scalar(self, value):
        return NotImplemented

    def _coerce(self, other):
        if type(other) is type(self):
            return other
        return self._scalar(other) if isinstance(other, _SCALARS) else NotImplemented

    def _check(self, other):
        if not self._compatible(other):
            raise ContextMismatchError(f"{type(self).__name__}s from incompatible contexts")

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self._compatible(other) and self.terms == other.terms

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        self._check(other)
        out = dict(self.terms)
        for k, hs in other.terms.items():
            cur = out.get(k)
            s = hs if cur is None else cur + hs
            if s:
                out[k] = s
            elif cur is not None:
                del out[k]
        return self._with(out)

    __radd__ = __add__

    def __neg__(self):
        return self._with({k: -hs for k, hs in self.terms.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        self._check(other)
        return self._with(dict_sub(self.terms, other.terms))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        """Multiplication by a scalar; subclasses handle their own products."""
        if not isinstance(other, _SCALARS):
            return NotImplemented
        if isinstance(other, HSeries) and other.order != self.algebra.order:
            raise ContextMismatchError("series has the wrong truncation order")
        out = {}
        for k, hs in self.terms.items():
            p = hs * other
            if p:
                out[k] = p
        return self._with(out)

    def __rmul__(self, other):
        # scalar coefficients commute with everything
        if isinstance(other, _SCALARS):
            return self.__mul__(other)
        return NotImplemented

    def _star_by(self, reorder):
        """The antilinear map conjugating coefficients and sending each key to
        reorder(key), an iterable of (key, coefficient)."""
        acc = {}
        for key, hs in self.terms.items():
            conj = hs.conjugate()
            for k, c in reorder(key):
                accumulate(acc, k, conj * c)
        return self._with({k: v for k, v in acc.items() if v})

    def h_coefficient(self, k: int) -> dict:
        """{key: GaussRational} at a fixed power of h."""
        return {key: c for key, hs in self.terms.items() if (c := hs.coeff(k))}

    def project_to(self, algebra: PoincareAlgebra):
        """Truncate to a lower-order context over the same metric."""
        if algebra.metric != self.algebra.metric or algebra.order > self.algebra.order:
            raise ContextMismatchError("projection target must be a truncation of this context")
        out = {}
        for key, hs in self.terms.items():
            t = hs.truncate(algebra.order)
            if t:
                out[key] = t
        return self._with(out, algebra)

    def rescale_h(self, s):
        """Substitute h -> h/s in every coefficient."""
        return self._with({key: hs.rescale_h(s) for key, hs in self.terms.items()})


class AlgebraElement(TermElement):
    """A sparse element of U(iso(g))[[h]]: {PBW monomial: HSeries}.

    Monomials are nondecreasing tuples of generator codes.
    """

    __slots__ = ()

    def __init__(self, algebra: PoincareAlgebra, terms: dict):
        self.algebra = algebra
        self.terms = terms

    def _with(self, terms: dict, algebra: PoincareAlgebra | None = None) -> "AlgebraElement":
        return AlgebraElement(algebra or self.algebra, terms)

    def _scalar(self, value) -> "AlgebraElement":
        return self.algebra.scalar(value)

    def __mul__(self, other):
        if isinstance(other, AlgebraElement):
            self._check(other)
            alg = self.algebra
            return AlgebraElement(alg, alg.finalize_rows(alg.mul_terms(self.terms, other.terms)))
        return TermElement.__mul__(self, other)

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative powers: use series_invert instead")
        out = self.algebra.one()
        for _ in range(n):
            out = out * self
        return out

    # -- structure maps ------------------------------------------------------

    def counit(self) -> HSeries:
        """Coefficient of the empty monomial."""
        return self.terms.get((), HSeries(self.algebra.order))

    def star(self) -> "AlgebraElement":
        """Antilinear anti-involution: fixes generators, conjugates coefficients,
        reverses monomials (then re-normal-orders)."""
        normal_order = self.algebra.normal_order
        return self._star_by(lambda mono: normal_order(tuple(reversed(mono))).items())

    def max_degree(self) -> int:
        return max((len(m) for m in self.terms), default=0)

    def __repr__(self):
        from .render import element_text

        return element_text(self)


# -- series calculus on elements with commuting/valuation structure --------------


def series_invert(a: AlgebraElement) -> AlgebraElement:
    """(1 + X)^-1 = sum (-X)^k for a = c + X with invertible constant part c."""
    alg = a.algebra
    c = a.terms.get((), None)
    if c is None or not c.constant_term():
        raise NonInvertibleError("element has no invertible scalar part")
    c_inv = c.invert()
    x = (a - alg.scalar(c)) * c_inv  # strictly positive h-valuation not guaranteed; degree > 0 or h > 0
    out = alg.one()
    term = alg.one()
    for _ in range(_nilpotency_bound(x)):
        term = term * (-x)
        if term.is_zero:
            break
        out = out + term
    return out * c_inv


def series_log_one_plus(x: AlgebraElement) -> AlgebraElement:
    """log(1 + x) for x of positive h-valuation."""
    _require_h_positive(x, "logarithm")
    alg = x.algebra
    out = alg.zero()
    term = alg.one()
    for k in range(1, alg.order + 1):
        term = term * x
        if term.is_zero:
            break
        out = out + term * Fraction((-1) ** (k + 1), k)
    return out


def series_exp(x: AlgebraElement) -> AlgebraElement:
    """exp(x) for x of positive h-valuation; the sum terminates at the order."""
    _require_h_positive(x, "exponential")
    alg = x.algebra
    out = alg.one()
    term = alg.one()
    fact = 1
    for k in range(1, alg.order + 1):
        term = term * x
        if term.is_zero:
            break
        fact *= k
        out = out + term * Fraction(1, fact)
    return out


def divide_h(a: AlgebraElement, k: int = 1) -> AlgebraElement:
    """Exact division by h^k: every coefficient must vanish below h^k.

    The top k coefficients of the result are unknown (they would require
    information beyond the truncation order) and are set to zero.  A quotient
    wanted exact at order N is therefore computed at order N + k and projected
    back, which drops the unknown slots; bases.kappa_quotients does this with
    k = 1 for kappa ln Pi_tau and the kappa terms of the Majid-Ruegg brackets.
    """
    alg = a.algebra
    N = alg.order
    out = {}
    for m, hs in a.terms.items():
        if hs.valuation < k:
            raise NonInvertibleError(
                f"division by h^{k} of a series with valuation {hs.valuation}"
            )
        out[m] = HSeries.from_nz(N, tuple((j - k, c) for j, c in hs.nz))
    return AlgebraElement(alg, out)


def _require_h_positive(x: AlgebraElement, what: str):
    if any(hs.valuation == 0 for hs in x.terms.values()):
        raise NonInvertibleError(f"{what} requires an argument of positive h-valuation")


def _nilpotency_bound(x: AlgebraElement) -> int:
    # X with positive h-valuation dies after order steps; a nonzero h^0 part
    # cannot occur here for the inverses we build (pi, twists), but guard anyway
    if any(hs.valuation == 0 for hs in x.terms.values()):
        raise NonInvertibleError("series inversion requires the non-scalar part to be O(h)")
    return x.algebra.order
