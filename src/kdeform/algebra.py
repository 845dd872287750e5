"""The enveloping algebra of iso(g) over truncated h-series coefficients.

Every element stores its terms flat, one per key and power k of h with
0 <= k <= N, as int numerators over one denominator (see TermElement).  Every
rule the kernels read returns one pair format, an extend image (d, ((key,
power of h), numerator) pairs): PBW normal forms, key products and
commutators (at power 0), structure-map images and the kappa-Minkowski word
products and action images.  So one linear loop (extend) and one bilinear
loop (mul_terms) form every product and extension, on ints.

The rotations are the anti-Hermitian X_{mu nu} = -i M_{mu nu}, in which every
structure constant is rational:

    [X_{mu nu}, P_rho]      = g_{nu rho} P_mu - g_{mu rho} P_nu
    [X_{mu nu}, X_{rho lam}] = g_{mu lam} X_{nu rho} - g_{nu lam} X_{mu rho}
                              + g_{nu rho} X_{mu lam} - g_{mu rho} X_{nu lam}

so every coefficient the engine computes is real and its numerator an int.
The paper's M = iX comes back only in output (see TermElement.series) and in
the boundary constructor PoincareAlgebra.M.

PBWAlgebra normal-orders words over a bracket table whose generators are small
integer codes, in increasing code order: a monomial is a plain int tuple, in
normal form iff nondecreasing.  A word is reduced at its first inversion: the
out-of-order letter moves left across the whole run of larger letters before
it via x y = y x + [x, y], which leaves one word with fewer inversions plus
words of lower degree, so rewriting terminates.  PoincareAlgebra is that
engine over iso(g), where X_{mu nu} (mu < nu) gets code mu*D + nu and P_mu
code D*D + mu ("rotations lexicographically, then momenta by index"), and
CoordinateAlgebra over the kappa-Minkowski coordinates' an(D-1).
"""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction
from math import gcd, lcm

from . import exactla
from .errors import ContextMismatchError, InvalidVectorError, NonInvertibleError
from .render import element_text
from .scalars import I_POWERS, GaussRational, as_fraction, exact, ratio, split, split_map, times_i

_F0 = Fraction(0)
_EMPTY = (1, ())  # the (denominator, pairs) of a key product or image that vanishes


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


class PBWAlgebra:
    """PBW normal forms, products and commutators over a bracket table, at a
    fixed truncation order.  A subclass supplies the table, _bracket_uncached(a,
    b) = [a, b] of codes as {code: coefficient}, and its properties: the codes
    from _commuting on commute pairwise (none do if it is past every code), so
    their words multiply by sorting; _lie, unless cleared, says it obeys Jacobi."""

    def __init__(self, order: int):
        if order < 1:
            raise ValueError("truncation order must be >= 1")
        self.order = order
        self._lie = True
        self._brackets = {}
        self._no_cache = {}
        self._comm_cache = {}

    def bracket_codes(self, a: int, b: int) -> dict:
        """[a, b] for basis generators, as {generator code: coefficient}."""
        d, num = self._bracket(a, b)
        return {c: ratio(n, d) for c, n in num.items()}

    def _bracket(self, a: int, b: int) -> tuple:
        """[a, b] as (denominator, {generator code: numerator})."""
        out = self._brackets.get((a, b))
        if out is None:
            num, d = split_map(self._bracket_uncached(a, b))
            out = self._brackets[(a, b)] = (d, num)
        return out

    # -- PBW normal ordering ---------------------------------------------------
    # A normal form, key product or commutator is an extend image (d, pairs):
    # ((monomial, 0), numerator) pairs over d; -d negates them.

    def mono_product(self, m1: tuple, m2: tuple) -> tuple:
        """Product of two normal-ordered monomials as (d, pairs).

        A pair whose concatenation is sorted (an empty word among them), or
        two words of the commuting block, is answered without a lookup.  The
        other products are the normal forms of the concatenated word, which
        normal_order caches once for every pair that spells it."""
        if not m1 or not m2 or m1[-1] <= m2[0]:
            return 1, (((m1 + m2, 0), 1),)
        word = m1 + m2
        if m1[0] >= self._commuting and m2[0] >= self._commuting:
            return 1, (((tuple(sorted(word)), 0), 1),)
        out = self._no_cache.get(word)
        return self.normal_order(word) if out is None else out

    def mono_commutator(self, m1: tuple, m2: tuple) -> tuple:
        """[m1, m2] = m1 m2 - m2 m1 of two normal-ordered monomials, as (d, pairs).

        A pair that commutes by structure (an empty word, a word with itself,
        or two words of the commuting block) is answered without a lookup and
        never stored.  The other pairs are cached in one orientation, m1 < m2;
        the reversed pair returns the same pairs under -d.  A miss forms neither
        product: [a, b] = sum_ij NO(b[:j] a[:i] [a_i, b_j] a[i+1:] b[j+1:]) by
        the Leibniz rule, which needs the unique normal forms of a Lie table
        (the diamond lemma); a table that can break Jacobi takes NO(ab) - NO(ba)."""
        if not m1 or not m2 or m1 == m2 or m1[0] >= self._commuting <= m2[0]:
            return _EMPTY
        rev = m2 < m1
        key = (m2, m1) if rev else (m1, m2)
        out = self._comm_cache.get(key)
        if out is None:
            a, b = key
            if not self._lie:
                (d1, p1), (d2, p2) = self.mono_product(a, b), self.mono_product(b, a)
                accs, splices = {d1: dict(p1), -d2: dict(p2)}, ()
            else:
                accs, splices = {}, ((b[:j] + a[:i], br, a[i + 1:] + b[j + 1:])
                                     for i, x in enumerate(a) for j, y in enumerate(b)
                                     if (br := self._bracket(x, y))[1])
            out = self._comm_cache[key] = self._splice(accs, splices)
        return (-out[0], out[1]) if rev else out

    def normal_order(self, word: tuple) -> tuple:
        """The normal form of a generator word, as (d, pairs), cached per
        unsorted word: a sorted word is its own normal form."""
        out = self._no_cache.get(word)
        if out is None:
            for i in range(len(word) - 1):
                if word[i] > word[i + 1]:
                    out = self._no_cache[word] = self._reorder(word, i)
                    break
            else:
                return 1, (((word, 0), 1),)
        return out

    def _reorder(self, word: tuple, i: int) -> tuple:
        """The normal form of a word whose first inversion is at i:
        head run g tail = head g run tail + sum_j head run[:j] [run_j, g]
        run[j+1:] tail, the words of one adjacent swap at a time, less those
        with g part of the way across the run."""
        g = word[i + 1]
        lo = bisect_right(word, g, 0, i + 1)
        head, run, tail = word[:lo], word[lo:i + 1], word[i + 2:]
        d, moved = self.normal_order(head + (g,) + run + tail)
        return self._splice({d: dict(moved)}, (
            (head + run[:j], br, run[j + 1:] + tail)
            for j, x in enumerate(run) if (br := self._bracket(x, g))[1]
        ))

    def _splice(self, accs: dict, splices) -> tuple:
        """accs (see collect) plus NO(left [x, y] right) over the splices, as (d, pairs)."""
        for left, (db, rule), right in splices:
            for gen, cb in rule.items():
                d, pairs = self.normal_order(left + (gen,) + right)
                acc = accs.setdefault(db * d, {})
                for m, c in pairs:
                    accumulate(acc, m, c * cb)
        num, d = collect(accs)
        return d, tuple(num.items())

    # -- products and linear extensions of term maps ----------------------------

    def mul_terms(self, ta: dict, tb: dict, rule, den: int = 1, cap: int | None = None) -> tuple:
        """sum ta[x] tb[y] rule(x, y) of two flat numerator maps over den, as a
        canonical (numerators, denominator): the one bilinear loop, one
        accumulator per rule denominator (see collect).  rule(x, y) is an
        extend image: mono_product, mono_commutator (ta*tb - tb*ta without
        either product), y_product or the action's.  It is never asked for
        a pair of terms whose powers of h sum past cap (default: the order),
        and no power past cap is kept.  Tensors use tensors._combine."""
        N = self.order if cap is None else cap
        accs = {}
        items_b = [(y, k, c) for (y, k), c in tb.items()]
        for (x, k1), c1 in ta.items():
            top = N - k1
            for y, k2, c2 in items_b:
                if k2 > top:
                    continue
                budget, k, c = top - k2, k1 + k2, c1 * c2
                d, pairs = rule(x, y)
                acc = accs.get(d)
                if acc is None:
                    acc = accs[d] = {}
                for (key, j), cm in pairs:
                    if j <= budget:
                        t = (key, k + j)
                        cur = acc.get(t)
                        acc[t] = c * cm if cur is None else cur + c * cm
        return collect(accs, den)

    def extend(self, terms: dict, image, den: int = 1) -> tuple:
        """The linear extension sum_key terms[key] * image(key) of a flat
        numerator map over den, as a canonical (numerators, denominator).  A
        term c h^k key can only contribute the image's powers of h up to
        N - k, so image(key, budget) is called with that budget and returns
        (d, flat ((key, power of h), numerator) pairs), an element's (den,
        num.items()); a rule need build nothing past the budget, and whatever
        it yields past it is dropped here.  Coproducts, antipodes, basis
        changes, leg maps and the star reach elements this way."""
        N = self.order
        accs = {}
        for (key, k1), c1 in terms.items():
            budget = N - k1
            d, pairs = image(key, budget)
            acc = accs.get(d)
            if acc is None:
                acc = accs[d] = {}
            for (k2, j), c2 in pairs:
                if j > budget:
                    continue
                t = (k2, k1 + j)
                cur = acc.get(t)
                acc[t] = c1 * c2 if cur is None else cur + c1 * c2
        return collect(accs, den)


class PoincareAlgebra(PBWAlgebra):
    """U(iso(g)) at a fixed truncation order: the PBW engine over the iso(g)
    table, its momenta the commuting block; elements hold a reference back here.

    shift perturbs the structure constants, for negative controls:
    {(a, b): {c: value}} adds value * c to [a, b] (and its negative to
    [b, a]), stated in the paper's generators M and P.
    """

    def __init__(self, metric: Metric, order: int, shift=None):
        super().__init__(order)
        self.metric = metric
        self.dim = d = metric.dim
        self._mom0 = mom0 = d * d  # first momentum code
        rotations = tuple(mu * d + nu for mu in range(d) for nu in range(mu + 1, d))
        self._codes = rotations + tuple(range(d * d, d * d + d))  # PBW order
        # [M_a, M_b] = i^(#a + #b) [X_a, X_b], and a term v M_c is v i^#c X_c
        self._shift = {}
        for (a, b), row in (shift or {}).items():
            for pair, sign in (((a, b), 1), ((b, a), -1)):
                out = self._shift.setdefault(pair, {})
                for c, v in row.items():
                    n = self.i_count((c,)) - self.i_count((a, b))
                    accumulate(out, c, times_i(exact(v) * sign, n))
        table = sorted((p, c, v) for p, row in self._shift.items() for c, v in row.items() if v)
        self._key = (metric._key, order, tuple(table))  # tables that differ do not mix
        # the momenta commute unless a shift names a pair of them; a shift can break Jacobi
        momenta = any(a >= mom0 and b >= mom0 for a, b in self._shift)
        self._commuting = mom0 + d if momenta else mom0
        self._lie = not self._shift

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
        """All basis generator codes in PBW order (rotations, then momenta), as a tuple."""
        return self._codes

    # -- element constructors ------------------------------------------------

    def zero(self) -> "AlgebraElement":
        return AlgebraElement(self, {}, 1)

    def one(self) -> "AlgebraElement":
        return AlgebraElement(self, {((), 0): 1}, 1)

    def scalar(self, value) -> "AlgebraElement":
        return self.one() * value

    def P(self, mu: int) -> "AlgebraElement":
        return AlgebraElement(self, {((self.momentum_code(mu),), 0): 1}, 1)

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
        return AlgebraElement(self, {((c,), 0): v for c, v in coeff_map.items()})

    # -- structure constants --------------------------------------------------

    def _bracket_uncached(self, a: int, b: int) -> dict:
        """[a, b] in iso(g), plus the shift's terms."""
        d = self.dim
        mom0 = self._mom0
        g = self.metric.rows
        out = {}
        if (a < mom0) != (b < mom0):
            # [X_{mu nu}, P_rho] = g_{nu rho} P_mu - g_{mu rho} P_nu = -[P_rho, X_{mu nu}]
            (x, p), s = ((a, b), 1) if a < mom0 else ((b, a), -1)
            mu, nu = divmod(x, d)
            rho = p - mom0
            out = {mom0 + mu: s * g[nu][rho], mom0 + nu: -s * g[mu][rho]}
        elif a < mom0:
            # [X_{mu nu}, X_{rho lam}] = g_{mu lam} X_{nu rho} - g_{nu lam} X_{mu rho}
            #                           + g_{nu rho} X_{mu lam} - g_{mu rho} X_{nu lam}
            mu, nu = divmod(a, d)
            rho, lam = divmod(b, d)
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
        for c, v in self._shift.get((a, b), {}).items():
            accumulate(out, c, v)
        return out

    # -- derived elements ---------------------------------------------------------

    def casimir(self) -> "AlgebraElement":
        """The quadratic Casimir C = g^{mu nu} P_mu P_nu."""
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
        return AlgebraElement(self, {(k, 0): v for k, v in acc.items()})

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
        return AlgebraElement(self, *self.mul_terms(x.num, y.num, self.mono_commutator, x.den * y.den))

    # -- compatibility -------------------------------------------------------------

    def compatible(self, other: "PoincareAlgebra") -> bool:
        return self is other or self._key == other._key

    def __repr__(self):
        p, q = self.metric.signature
        return f"PoincareAlgebra(iso({p},{q}), D={self.dim}, order={self.order})"


class CoordinateAlgebra(PBWAlgebra):
    """The PBW engine over the an(D-1) table of the kappa-Minkowski coordinates
    z = y / h, each index its own code: [z^mu, z^nu] = tau^mu z^nu - tau^nu z^mu."""

    def __init__(self, tau: VectorTau, order: int):
        super().__init__(order)
        self.tau = tau.components
        self._commuting = len(self.tau)  # no two coordinates commute by structure
        self._y_products = {}

    def _bracket_uncached(self, mu: int, nu: int) -> dict:
        return {nu: self.tau[mu], mu: -self.tau[nu]} if mu != nu else {}

    def y_product(self, w1: tuple, w2: tuple) -> tuple:
        """w1 w2 for words of y = h z as an extend rule's image, cached per pair:
        the normal form sum_v c_v z^v read in y, v at h^(|w1| + |w2| - |v|) <= h^N."""
        out = self._y_products.get((w1, w2))
        if out is None:
            n, (d, pairs) = len(w1) + len(w2), self.normal_order(w1 + w2)
            out = d, tuple(((v, n - len(v)), c) for (v, _), c in pairs if n - len(v) <= self.order)
            self._y_products[(w1, w2)] = out
        return out


def accumulate(acc: dict, key, val):
    """acc[key] += val, for sparse maps whose zero sums are filtered later."""
    cur = acc.get(key)
    acc[key] = val if cur is None else cur + val


def reduced(num: dict, den: int) -> tuple:
    """(num, den) over the gcd of den and every numerator (of its parts, for a
    Gaussian one): lowest terms.  num holds no zero."""
    if den == 1 or not num:
        return num, 1
    try:
        g = gcd(den, *num.values())
    except TypeError:  # a GaussRational numerator
        g = gcd(den, *(p for c in num.values() for p in (c.real, c.imag)))
    if g == 1:
        return num, den
    return {t: c // g for t, c in num.items()}, den // g


def collect(accs: dict, den: int = 1) -> tuple:
    """The canonical (numerators, denominator) of accumulators keyed by their
    denominator: each is rescaled to the lcm L of the keys (a negative key
    negates it), zero sums are dropped, and the sum is over den * L."""
    if len(accs) == 1:
        ((L, num),) = accs.items()
        if L < 0:
            L, num = -L, {t: -c for t, c in num.items()}
    else:
        L = lcm(*accs)
        num = accs.pop(L, {})
        for d, acc in accs.items():
            f = L // d
            for t, c in acc.items():
                cur = num.get(t)
                num[t] = c * f if cur is None else cur + c * f
    num = {t: c for t, c in num.items() if c}
    den *= L
    return (num, 1) if den == 1 else reduced(num, den)


_SCALARS = (int, Fraction, GaussRational)


class TermElement:
    """The linear structure shared by every sparse element (PBW elements,
    tensors of any leg count and kappa-Minkowski coordinates), stored flat as int
    numerators {(key, power of h): numerator} over one int den >= 1.
    Powers run from 0 to the truncation order, no numerator is zero and den
    is coprime to them all, so equality is structural.  A value that is not
    real (alg.M, report phases, shifts stated in M) has GaussRational
    numerators with int parts.  terms is the coefficient view, for output.

    Sums, scalar and same-kind products, star() and the series views are
    written here once, for every kind.  A kind says only what its keys are:
    _with builds an element of the kind from canonical (num, den), _compatible
    says which elements combine, _scalar embeds a scalar (where scalars have a
    place), _mul(other, cap) is the product of two of its elements with no
    power of h past cap, _reversed(key) is the normal form of the reversed key
    (of each leg, for tensors) as an extend rule's image, and _i_count(key) is
    the power of i between the key's symbols and the paper's (M = iX, x = iy).
    Constructors take {(key, power of h): coefficient}, or canonical num with
    its den.
    """

    __slots__ = ("algebra", "num", "den")

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
    def terms(self) -> dict:
        """{(key, power of h): coefficient}, each an int, Fraction or
        GaussRational: a fresh view of the element, for output."""
        d = self.den
        return {t: ratio(c, d) for t, c in self.num.items()}

    @property
    def is_zero(self) -> bool:
        return not self.num

    def __bool__(self):
        return bool(self.num)

    def __eq__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self._compatible(other) and self.den == other.den and self.num == other.num

    def _plus(self, other, sign: int):
        """self + sign * other over the lcm of the two denominators."""
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        self._check(other)
        da, db = self.den, other.den
        den = da if da == db else lcm(da, db)
        fa, fb = den // da, sign * (den // db)
        out = dict(self.num) if fa == 1 else {t: c * fa for t, c in self.num.items()}
        for t, c in other.num.items():
            cur = out.get(t)
            s = c * fb if cur is None else cur + c * fb
            if s:
                out[t] = s
            elif cur is not None:
                del out[t]
        return self._with(*reduced(out, den))

    def __add__(self, other):
        return self._plus(other, 1)

    __radd__ = __add__

    def __neg__(self):
        return self._with({t: -c for t, c in self.num.items()}, self.den)

    def __sub__(self, other):
        return self._plus(other, -1)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        """The product with a scalar, or with an element of the same kind at
        the truncation order (see _mul)."""
        if type(other) is type(self):
            self._check(other)
            return self._mul(other, self.algebra.order)
        if not isinstance(other, _SCALARS):
            return NotImplemented
        n, d = split(other)
        if not n:
            return self._with({})
        # Q(i) has no zero divisors: no product of nonzero values vanishes
        return self._with(*reduced({t: c * n for t, c in self.num.items()}, self.den * d))

    def __rmul__(self, other):
        # scalar coefficients commute with everything
        if isinstance(other, _SCALARS):
            return self.__mul__(other)
        return NotImplemented

    def times_h(self, k: int, c=1):
        """c h^k times the element: every power of h raised by k, those past
        the truncation order dropped."""
        if k < 0:
            raise ValueError("power of h must be non-negative")
        top = self.algebra.order - k
        num = {(key, j + k): v for (key, j), v in self.num.items() if j <= top}
        shifted = self._with(*reduced(num, self.den))
        return shifted if c == 1 else shifted * c

    def star(self):
        """The antilinear anti-involution fixing the paper's generators and
        coordinates, so X* = -X and y* = -y: coefficients are conjugated and
        each key goes to (-1)^_i_count(key) times its reversal (see _reversed)."""

        def image(key, _):
            d, pairs = self._reversed(key)
            return d * (-1) ** self._i_count(key), pairs

        conj = {t: c.conjugate() for t, c in self.num.items()}
        return self._with(*self.algebra.extend(conj, image, self.den))

    def in_symbols(self, s: int):
        """Each coefficient times i^(s n), n = _i_count(key): s = -1 gives the
        coefficients of the paper's symbols M = iX and x = iy (a boundary
        value), and s = 1 takes them back to the engine's."""
        count = self._i_count
        return self._with({t: times_i(c, s * count(t[0])) for t, c in self.num.items()}, self.den)

    def series(self) -> dict:
        """{key: ((k, c), ...)} in the paper's symbols (see in_symbols), each
        key's nonzero coefficients c of h^k in increasing k: the form output
        is written in."""
        rows = {}
        for (key, k), c in self.in_symbols(-1).terms.items():
            rows.setdefault(key, []).append((k, c))
        return {key: tuple(sorted(row)) for key, row in rows.items()}

    def h_coefficient(self, k: int):
        """The terms at h^k, still at h^k, as an element of the same kind."""
        return self._with(*reduced({t: c for t, c in self.num.items() if t[1] == k}, self.den))

    def rescale_h(self, s):
        """Substitute h -> h/s = h q/p: c h^k becomes c q^k p^(N-k) / p^N."""
        s = as_fraction(s)
        if not s:
            raise ZeroDivisionError("rescaling parameter must be nonzero")
        p, q, n = s.numerator, s.denominator, self.algebra.order
        sign = -1 if p**n < 0 else 1
        num = {(key, k): sign * c * q**k * p ** (n - k) for (key, k), c in self.num.items()}
        return self._with(*reduced(num, self.den * abs(p) ** n))


class AlgebraElement(TermElement):
    """A sparse element of U(iso(g))[[h]]: {(PBW monomial, power of h): numerator}
    over a denominator (see TermElement).

    Monomials are nondecreasing tuples of generator codes.
    """

    __slots__ = ()

    def __init__(self, algebra: PoincareAlgebra, terms: dict, den: int | None = None):
        self.algebra = algebra
        self.num, self.den = split_map(terms) if den is None else (terms, den)

    def _with(self, num: dict, den: int = 1) -> "AlgebraElement":
        return AlgebraElement(self.algebra, num, den)

    def _scalar(self, value) -> "AlgebraElement":
        return self.algebra.scalar(value)

    def _i_count(self, key) -> int:
        return self.algebra.i_count(key)

    def _mul(self, other: "AlgebraElement", cap: int) -> "AlgebraElement":
        """The product with no power of h past cap formed."""
        den = self.den * other.den
        alg = self.algebra
        return self._with(*alg.mul_terms(self.num, other.num, alg.mono_product, den, cap))

    def _reversed(self, mono: tuple) -> tuple:
        return self.algebra.normal_order(mono[::-1])

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative powers: use series_invert instead")
        out = self.algebra.one()
        for _ in range(n):
            out = out * self
        return out

    # -- structure maps ------------------------------------------------------

    def counit(self) -> "AlgebraElement":
        """epsilon(a) 1: the terms of the empty monomial."""
        return self._with(*reduced({t: c for t, c in self.num.items() if not t[0]}, self.den))

    __repr__ = element_text


class MonomialMap:
    """The multiplicative extension of a generator map to PBW monomials,
    memoised per (monomial, cap): the image modulo h^(cap+1).  The image of a
    generator at cap c is its full image with the powers of h above c removed;
    the image of a longer monomial is the cap-c image of its prefix times that
    of its last generator (the other way round when anti is set, for the
    antipode), a product that never forms a power of h above c.  one is the
    image of the empty monomial; its kind supplies that capped product, _mul."""

    __slots__ = ("_images", "_one", "_gen_image", "_anti")

    def __init__(self, one: TermElement, gen_image, anti: bool = False):
        self._images = {}
        self._one = one
        self._gen_image = gen_image
        self._anti = anti

    def image(self, mono: tuple, cap: int) -> TermElement:
        """The image of a monomial with every power of h above cap removed."""
        img = self._images.get((mono, cap))
        if img is None:
            if len(mono) > 1:
                head, last = self.image(mono[:-1], cap), self.image(mono[-1:], cap)
                img = last._mul(head, cap) if self._anti else head._mul(last, cap)
            else:
                full = self._gen_image(mono[0]) if mono else self._one
                num = {t: c for t, c in full.num.items() if t[1] <= cap}
                img = full._with(*reduced(num, full.den))
            self._images[(mono, cap)] = img
        return img

    def pairs(self, mono: tuple, budget: int):
        """The image to the budget as an extend rule returns it."""
        img = self.image(mono, budget)
        return img.den, img.num.items()


# -- series calculus, once for every element kind ----------------------------------
#
# unit is the unit element of the kind (the algebra's one, the k-legged tensor
# unit); every series terminates at the truncation order because its argument
# is O(h).


def invert_in(unit: TermElement, a: TermElement) -> TermElement:
    """a^-1 = c^-1 sum_k (-X)^k for a = c (1 + X), c the h^0 coefficient of
    the unit's key and X of positive h-valuation."""
    ((t, _),) = unit.num.items()
    n = a.num.get(t)
    if n is None:
        raise NonInvertibleError("element has no invertible scalar part")
    c_inv = exact(Fraction(a.den) / n)  # never int / int, which would be a float
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


def kappa_log(q: AlgebraElement) -> AlgebraElement:
    """ln(1 + h q) / h = sum_{k>=1} (-1)^(k+1) h^(k-1) q^k / k: kappa ln Pi_tau
    for q = kappa (Pi_tau - 1).  Each term reads q only up to the order, so
    the quotient by h is exact there."""
    hq = q.times_h(1)
    out = term = q
    for k in range(2, q.algebra.order + 2):
        term = term * hq
        if term.is_zero:
            break
        out = out + term * Fraction((-1) ** (k + 1), k)
    return out


def _require_h_positive(x: TermElement, what: str):
    if any(k == 0 for _, k in x.num):
        raise NonInvertibleError(f"{what} requires an argument of positive h-valuation")
