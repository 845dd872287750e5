"""The enveloping algebra of iso(g) over truncated h-series coefficients.

Every element stores its terms flat: {(key, k): coefficient}, one entry per
key and power k of h with 0 <= k <= N, and never a zero coefficient.

The rotations are the anti-Hermitian X_{mu nu} = -i M_{mu nu}, in which every
structure constant is rational:

    [X_{mu nu}, P_rho]      = g_{nu rho} P_mu - g_{mu rho} P_nu
    [X_{mu nu}, X_{rho lam}] = g_{mu lam} X_{nu rho} - g_{nu lam} X_{mu rho}
                              + g_{nu rho} X_{mu lam} - g_{mu rho} X_{nu lam}

so every coefficient the engine computes is real: an int when it is
integral, else a Fraction.  The paper's M = iX comes back only in output (see
TermElement.series) and in the boundary constructor PoincareAlgebra.M.

Generators are encoded as small integers so that monomials are plain int
tuples: a rotation X_{mu nu} (mu < nu) gets code mu*D + nu, a momentum P_mu
gets code D*D + mu.  The PBW order "rotations lexicographically, then momenta
by index" is then just increasing code order, and a monomial is in normal form
iff its code tuple is nondecreasing.  Products are reduced by rewriting the
leftmost out-of-order adjacent pair via x y = y x + [x, y]; each step lowers a
(degree, inversions) measure, so rewriting terminates.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from . import exactla
from .errors import ContextMismatchError, InvalidVectorError, NonInvertibleError
from .scalars import I_POWERS, GaussRational, HSeries, as_fraction, exact, rational, times_i

_F0 = Fraction(0)
_F1 = Fraction(1)
_ONE = 1  # a key product by 1 takes the kernels' fast path: the cached int 1


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

    shift perturbs the structure constants, for negative controls:
    {(a, b): {c: value}} adds value * c to [a, b] (and its negative to
    [b, a]), stated in the paper's generators M and P.
    """

    def __init__(self, metric: Metric, order: int, shift=None):
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
        # [M_a, M_b] = i^(#a + #b) [X_a, X_b], and a term v M_c is v i^#c X_c
        self._shift = {}
        for (a, b), row in (shift or {}).items():
            for pair, sign in (((a, b), 1), ((b, a), -1)):
                out = self._shift.setdefault(pair, {})
                for c, v in row.items():
                    n = self.i_count((c,)) - self.i_count((a, b))
                    accumulate(out, c, times_i(exact(v) * sign, n))

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
        """Return ('P', mu) or ('M', (mu, nu)) for a generator code; a rotation
        code names X_{mu nu} = -i M_{mu nu}."""
        if code >= self._mom0:
            return ("P", code - self._mom0)
        return ("M", divmod(code, self.dim))

    def i_count(self, mono: tuple) -> int:
        """The number of rotations in a word: the power of i between its
        product of X's and the same product of the paper's M = iX."""
        mom0 = self._mom0
        return sum(1 for c in mono if c < mom0)

    def generator_codes(self):
        """All basis generator codes in PBW order (rotations, then momenta)."""
        d = self.dim
        rots = [mu * d + nu for mu in range(d) for nu in range(mu + 1, d)]
        return rots + [self._mom0 + mu for mu in range(d)]

    # -- element constructors ------------------------------------------------

    def zero(self) -> "AlgebraElement":
        return AlgebraElement(self, {})

    def one(self) -> "AlgebraElement":
        return AlgebraElement(self, {((), 0): _ONE})

    def scalar(self, value) -> "AlgebraElement":
        return self.one() * value

    def h(self, k: int = 1) -> HSeries:
        return HSeries.h_power(self.order, k)

    def P(self, mu: int) -> "AlgebraElement":
        return AlgebraElement(self, {((self.momentum_code(mu),), 0): _ONE})

    def X(self, mu: int, nu: int) -> "AlgebraElement":
        """The rotation X_{mu nu} = -i M_{mu nu} the engine computes with."""
        code, sign = self.rotation_code(mu, nu)
        return self.from_codes({code: sign} if sign else {})

    def M(self, mu: int, nu: int) -> "AlgebraElement":
        """The paper's rotation M_{mu nu} = i X_{mu nu}: a boundary value with
        an imaginary coefficient."""
        return self.X(mu, nu) * I_POWERS[1]

    def from_codes(self, coeff_map) -> "AlgebraElement":
        """Element from {generator code: coefficient}; degree-one terms only."""
        return AlgebraElement(self, {((c,), 0): rational(v) for c, v in coeff_map.items() if v})

    # -- structure constants --------------------------------------------------

    def bracket_codes(self, a: int, b: int) -> dict:
        """[a, b] for basis generators, as {generator code: coefficient}."""
        out = self._brackets.get((a, b))
        if out is None:
            out = self._bracket_uncached(a, b)
            for c, v in self._shift.get((a, b), {}).items():
                accumulate(out, c, v)
            out = {c: rational(v) for c, v in out.items() if v}
            self._brackets[(a, b)] = out
        return out

    def _bracket_uncached(self, a: int, b: int) -> dict:
        d = self.dim
        mom0 = self._mom0
        g = self.metric.rows
        if a >= mom0 and b >= mom0:
            return {}
        if a < mom0 and b >= mom0:
            # [X_{mu nu}, P_rho] = g_{nu rho} P_mu - g_{mu rho} P_nu, mu != nu
            mu, nu = divmod(a, d)
            rho = b - mom0
            return {mom0 + mu: g[nu][rho], mom0 + nu: -g[mu][rho]}
        if a >= mom0 and b < mom0:
            return {c: -v for c, v in self._bracket_uncached(b, a).items()}
        # [X_{mu nu}, X_{rho lam}] = g_{mu lam} X_{nu rho} - g_{nu lam} X_{mu rho}
        #                           + g_{nu rho} X_{mu lam} - g_{mu rho} X_{nu lam}
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
                accumulate(out, code, f * sign)
        return out

    # -- PBW normal ordering ---------------------------------------------------

    def mono_product(self, m1: tuple, m2: tuple) -> dict:
        """Product of two normal-ordered monomials as {monomial: coefficient}.

        Results are cached: the same monomial pairs recur across every tensor
        product in the verification suites."""
        key = (m1, m2)
        out = self._prod_cache.get(key)
        if out is not None:
            return out
        if not m1:
            out = {m2: _ONE}
        elif not m2:
            out = {m1: _ONE}
        elif m1[-1] <= m2[0]:
            out = {m1 + m2: _ONE}
        elif m1[0] >= self._mom0 and m2[0] >= self._mom0:
            # both words pure momentum: sorted merge, momenta commute
            out = {tuple(sorted(m1 + m2)): _ONE}
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
            return {word: _ONE}
        a, b = word[i], word[i + 1]
        head, tail = word[:i], word[i + 2:]
        acc = {}
        for m, c in self.normal_order(head + (b, a) + tail).items():
            accumulate(acc, m, c)
        for gen, cb in self.bracket_codes(a, b).items():
            for m, c in self.normal_order(head + (gen,) + tail).items():
                accumulate(acc, m, c * cb)
        return {m: rational(c) for m, c in acc.items() if c}

    # -- products and linear extensions of term maps ----------------------------

    def pbw_product(self, m1: tuple, m2: tuple):
        """Key-product rule of PBW elements: the product of two monomials."""
        return self.mono_product(m1, m2).items()

    def mul_terms(
        self, ta: dict, tb: dict, key_product=None, commutator: bool = False, cap: int | None = None
    ) -> dict:
        """The product of two flat term maps, as a flat term map.

        This is the one product kernel: PBW elements and tensors of any leg
        count differ only in key_product(k1, k2), which yields the
        (key, coefficient) pairs of the product of two keys (the int 1 takes
        a fast path: a third of all key products are by 1).  The default rule
        is pbw_product.  With commutator=True the result is ta*tb - tb*ta,
        both products accumulated into one map.  Powers of h above cap
        (default: the order) are never formed.

        Rational operands are scaled to ints by the least common denominator
        of their coefficients, so that the loop runs on Python ints, and each
        sum is divided by the product of the two once."""
        N = self.order if cap is None else cap
        if key_product is None:
            key_product = self.pbw_product
        da, db = _denominator(ta), _denominator(tb)
        d = da * db if da and db else 1
        if d > 1:
            ta, tb = _scaled(ta, da), _scaled(tb, db)
        acc = {}
        passes = ((ta, tb, False), (tb, ta, True)) if commutator else ((ta, tb, False),)
        for left, right, negate in passes:
            items_b = [(m, k, c) for (m, k), c in right.items()]
            for (m1, k1), c1 in left.items():
                if negate:
                    c1 = -c1
                budget = N - k1
                for m2, k2, c2 in items_b:
                    if k2 > budget:
                        continue
                    k = k1 + k2
                    c = c1 if c2 is _ONE else c2 if c1 is _ONE else c1 * c2
                    for m, cm in key_product(m1, m2):
                        t = (m, k)
                        p = c if cm is _ONE else c * cm
                        cur = acc.get(t)
                        acc[t] = p if cur is None else cur + p
        if d > 1:
            inv = Fraction(1, d)  # never int / int, which would be a float
            return {t: rational(c * inv) for t, c in acc.items() if c}
        return {t: rational(c) for t, c in acc.items() if c}

    def extend(self, terms: dict, image) -> dict:
        """The linear extension sum_key terms[key] * image(key), as a flat term
        map.  A term c h^k key can only contribute the image's powers of h up
        to N - k, so image(key, budget) is called with that budget and yields
        the flat ((key, power of h), coefficient) pairs of the image; a rule
        need build nothing past the budget, and whatever it yields past it is
        dropped here.  Every structure map reaches elements this way:
        coproducts, antipodes, basis changes, leg maps, the kappa-Minkowski
        product and action, and the star maps."""
        N = self.order
        acc = {}
        for (key, k1), c1 in terms.items():
            budget = N - k1
            for (k2, j), c2 in image(key, budget):
                if j > budget:
                    continue
                t = (k2, k1 + j)
                p = c1 if c2 is _ONE else c2 if c1 is _ONE else c1 * c2
                cur = acc.get(t)
                acc[t] = p if cur is None else cur + p
        return {t: rational(c) for t, c in acc.items() if c}

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
                    acc[key] = acc.get(key, 0) + f
            self._casimir = AlgebraElement(self, {(k, 0): rational(v) for k, v in acc.items() if v})
        return self._casimir

    def momentum_raised(self, alpha: int) -> "AlgebraElement":
        """P^alpha = g^{alpha beta} P_beta."""
        ginv = self.metric.inverse
        return self.from_codes({self._mom0 + beta: ginv[alpha][beta] for beta in range(self.dim)})

    def contract_tau(self, tau: VectorTau):
        """(P_tau, [X_{tau lam} for lam in 0..D-1]) for a vector tau."""
        if tau.metric is not self.metric and tau.metric != self.metric:
            raise ContextMismatchError("vector belongs to a different metric")
        p_tau = self.from_codes({self._mom0 + mu: c for mu, c in enumerate(tau.components)})
        x_tau = []
        for lam in range(self.dim):
            acc = {}
            for alpha, c in enumerate(tau.components):
                if not c:
                    continue
                code, sign = self.rotation_code(alpha, lam)
                if sign:
                    accumulate(acc, code, c * sign)
            x_tau.append(self.from_codes(acc))
        return p_tau, x_tau

    def bracket(self, x: "AlgebraElement", y: "AlgebraElement") -> "AlgebraElement":
        return AlgebraElement(self, self.mul_terms(x.terms, y.terms, commutator=True))

    # -- compatibility -------------------------------------------------------------

    def compatible(self, other: "PoincareAlgebra") -> bool:
        return self is other or self._key == other._key

    def __repr__(self):
        p, q = self.metric.signature
        return f"PoincareAlgebra(iso({p},{q}), D={self.dim}, order={self.order})"


def accumulate(acc: dict, key, val):
    """acc[key] += val, for sparse maps whose zero sums are filtered later."""
    cur = acc.get(key)
    acc[key] = val if cur is None else cur + val


def _denominator(terms: dict) -> int:
    """The least common denominator of the coefficients, or 0 when one of
    them is not rational."""
    d = 1
    for c in terms.values():
        t = type(c)
        if t is Fraction:
            d = lcm(d, c.denominator)
        elif t is not int:
            return 0
    return d


def _scaled(terms: dict, d: int) -> dict:
    """The coefficients times d, a multiple of every denominator: ints."""
    if d == 1:
        return terms
    return {
        t: c * d if type(c) is int else c.numerator * (d // c.denominator)
        for t, c in terms.items()
    }


def dict_sub(a: dict, b: dict) -> dict:
    """a - b on sparse coefficient maps; cancelled keys are dropped."""
    out = dict(a)
    for k, v in b.items():
        cur = out.get(k)
        s = -v if cur is None else cur - v
        if s:
            out[k] = rational(s)
        elif cur is not None:
            del out[k]
    return out


_SCALARS = (int, Fraction, GaussRational, HSeries)


class TermElement:
    """The linear structure shared by every sparse element, stored flat as
    {(key, power of h): coefficient}: PBW elements, tensors and
    kappa-Minkowski coordinates.  Powers run from 0 to the truncation order
    and zero coefficients are never stored, so equality is structural.

    A subclass says what its keys are: _with builds an element of the same
    kind, _compatible says which elements combine, _scalar embeds a scalar
    (where scalars have a place), _key_product gives the rule by which
    PoincareAlgebra.mul_terms multiplies two of its keys (where the kind has
    such a product), and _i_count(key) is the power of i between the key's
    symbols and the paper's (M = iX, x = iy).
    """

    __slots__ = ("algebra", "terms")

    def _with(self, terms: dict, algebra: PoincareAlgebra | None = None):
        raise NotImplementedError

    def _compatible(self, other) -> bool:
        return self.algebra.compatible(other.algebra)

    def _scalar(self, value):
        return NotImplemented

    def _key_product(self):
        raise NotImplementedError

    def _i_count(self, key) -> int:
        raise NotImplementedError

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
        for t, c in other.terms.items():
            cur = out.get(t)
            s = c if cur is None else cur + c
            if s:
                out[t] = rational(s)
            elif cur is not None:
                del out[t]
        return self._with(out)

    __radd__ = __add__

    def __neg__(self):
        return self._with({t: -c for t, c in self.terms.items()})

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
        if isinstance(other, HSeries):
            if other.order != self.algebra.order:
                raise ContextMismatchError("series has the wrong truncation order")
            nz = other.nz

            def shifted(key, _budget):
                return [((key, j), c) for j, c in nz]

            return self._with(self.algebra.extend(self.terms, shifted))
        if not isinstance(other, _SCALARS):
            return NotImplemented
        other = exact(other)
        if not other:
            return self._with({})
        # Q(i) has no zero divisors: no product of nonzero values vanishes
        return self._with({t: rational(c * other) for t, c in self.terms.items()})

    def __rmul__(self, other):
        # scalar coefficients commute with everything
        if isinstance(other, _SCALARS):
            return self.__mul__(other)
        return NotImplemented

    def _star_by(self, image):
        """The antilinear map conjugating coefficients and sending each key to
        image(key, budget), an extend rule."""
        conj = {t: c.conjugate() for t, c in self.terms.items()}
        return self._with(self.algebra.extend(conj, image))

    def in_symbols(self, s: int):
        """Each coefficient times i^(s n), n = _i_count(key): s = -1 gives the
        coefficients of the paper's symbols M = iX and x = iy (a boundary
        value), and s = 1 takes them back to the engine's."""
        count = self._i_count
        return self._with({t: times_i(c, s * count(t[0])) for t, c in self.terms.items()})

    def series(self) -> dict:
        """{key: HSeries} in the paper's symbols (see in_symbols), each key's
        powers of h gathered into one series: the form output is written in."""
        rows = {}
        for (key, k), c in self.in_symbols(-1).terms.items():
            rows.setdefault(key, []).append((k, c))
        N = self.algebra.order
        return {key: HSeries.from_nz(N, tuple(sorted(row))) for key, row in rows.items()}

    def h_coefficient(self, k: int) -> dict:
        """{key: coefficient} at a fixed power of h."""
        return {key: c for (key, j), c in self.terms.items() if j == k}

    def project_to(self, algebra: PoincareAlgebra):
        """Truncate to a lower-order context over the same metric."""
        if algebra.metric != self.algebra.metric or algebra.order > self.algebra.order:
            raise ContextMismatchError("projection target must be a truncation of this context")
        N = algebra.order
        return self._with({t: c for t, c in self.terms.items() if t[1] <= N}, algebra)

    def rescale_h(self, s):
        """Substitute h -> h/s in every coefficient."""
        s = as_fraction(s)
        if not s:
            raise ZeroDivisionError("rescaling parameter must be nonzero")
        return self._with({(key, k): exact(c / s**k) for (key, k), c in self.terms.items()})


class AlgebraElement(TermElement):
    """A sparse element of U(iso(g))[[h]]: {(PBW monomial, power of h): coefficient}.

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

    def _key_product(self):
        return self.algebra.pbw_product

    def _i_count(self, key) -> int:
        return self.algebra.i_count(key)

    def __mul__(self, other):
        if isinstance(other, AlgebraElement):
            self._check(other)
            alg = self.algebra
            return AlgebraElement(alg, alg.mul_terms(self.terms, other.terms))
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
        """The series coefficient of the empty monomial."""
        N = self.algebra.order
        get = self.terms.get
        return HSeries.from_nz(N, tuple((k, c) for k in range(N + 1) if (c := get(((), k)))))

    def star(self) -> "AlgebraElement":
        """Antilinear anti-involution: fixes P and M, so X* = -X; conjugates
        coefficients, reverses monomials (then re-normal-orders)."""
        alg = self.algebra
        return self._star_by(
            lambda mono, _: [
                ((m, 0), c * (-1) ** alg.i_count(mono))
                for m, c in alg.normal_order(tuple(reversed(mono))).items()
            ]
        )

    def max_degree(self) -> int:
        return max((len(m) for m, _ in self.terms), default=0)

    def __repr__(self):
        from .render import element_text

        return element_text(self)


class MonomialMap:
    """The multiplicative extension of a generator map to PBW monomials,
    memoised per (monomial, cap): the image modulo h^(cap+1).  The image of a
    generator at cap c is its full image with the powers of h above c removed;
    the image of a longer monomial is the cap-c image of its prefix times that
    of its last generator (the other way round when anti is set, for the
    antipode), a product that never forms a power of h above c.  one is the
    image of the empty monomial; its kind supplies the key-product rule."""

    __slots__ = ("_images", "_one", "_gen_image", "_anti", "_rule")

    def __init__(self, one: TermElement, gen_image, anti: bool = False):
        self._images = {}
        self._one = one
        self._gen_image = gen_image
        self._anti = anti
        self._rule = one._key_product()

    def image(self, mono: tuple, cap: int) -> TermElement:
        """The image of a monomial with every power of h above cap removed."""
        img = self._images.get((mono, cap))
        if img is None:
            if len(mono) > 1:
                head, last = self.image(mono[:-1], cap), self.image(mono[-1:], cap)
                left, right = (last, head) if self._anti else (head, last)
                terms = head.algebra.mul_terms(left.terms, right.terms, self._rule, cap=cap)
                img = head._with(terms)
            else:
                full = self._gen_image(mono[0]) if mono else self._one
                img = full._with({t: c for t, c in full.terms.items() if t[1] <= cap})
            self._images[(mono, cap)] = img
        return img

    def pairs(self, mono: tuple, budget: int):
        """The flat term pairs of the image to the budget: the extend rule."""
        return self.image(mono, budget).terms.items()


# -- series calculus, once for every element kind ----------------------------------
#
# unit is the unit element of the kind (the algebra's one, the k-legged tensor
# unit); every series terminates at the truncation order because its argument
# is O(h).


def invert_in(unit: TermElement, a: TermElement) -> TermElement:
    """a^-1 = c^-1 sum_k (-X)^k for a = c (1 + X), c the h^0 coefficient of
    the unit's key and X of positive h-valuation."""
    ((t, _),) = unit.terms.items()
    c = a.terms.get(t)
    if c is None:
        raise NonInvertibleError("element has no invertible scalar part")
    c_inv = exact(_F1 / c)  # never int / int, which would be a float
    x = a * c_inv - unit
    _require_h_positive(x, "series inversion")
    out = term = unit
    for _ in range(unit.algebra.order):
        term = term * (-x)
        if term.is_zero:
            break
        out = out + term
    return out * c_inv


def exp_in(unit: TermElement, x: TermElement) -> TermElement:
    """exp(x) for x of positive h-valuation."""
    _require_h_positive(x, "exponential")
    out = term = unit
    fact = 1
    for k in range(1, unit.algebra.order + 1):
        term = term * x
        if term.is_zero:
            break
        fact *= k
        out = out + term * Fraction(1, fact)
    return out


def series_invert(a: AlgebraElement) -> AlgebraElement:
    """(c + X)^-1 for an element with invertible constant part c."""
    return invert_in(a.algebra.one(), a)


def series_exp(x: AlgebraElement) -> AlgebraElement:
    """exp(x) for x of positive h-valuation; the sum terminates at the order."""
    return exp_in(x.algebra.one(), x)


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


def divide_h(a: AlgebraElement, k: int = 1) -> AlgebraElement:
    """Exact division by h^k: every coefficient must vanish below h^k.

    The top k coefficients of the result are unknown (they would require
    information beyond the truncation order) and are set to zero.  A quotient
    wanted exact at order N is therefore computed at order N + k and projected
    back, which drops the unknown slots; bases.kappa_quotients does this with
    k = 1 for kappa ln Pi_tau and the kappa terms of the Majid-Ruegg brackets.
    """
    low = min((j for _, j in a.terms), default=k)
    if low < k:
        raise NonInvertibleError(f"division by h^{k} of a series with valuation {low}")
    return AlgebraElement(a.algebra, {(m, j - k): c for (m, j), c in a.terms.items()})


def _require_h_positive(x: TermElement, what: str):
    if any(k == 0 for _, k in x.terms):
        raise NonInvertibleError(f"{what} requires an argument of positive h-valuation")
