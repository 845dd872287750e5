"""Multi-legged tensors over U(iso(g)), antisymmetric wedges, and the
Schouten-bracket machinery for the r-matrix family r_tau = tau _| Omega.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import exactla
from .algebra import (
    AlgebraElement,
    Metric,
    MonomialMap,
    PoincareAlgebra,
    TermElement,
    VectorTau,
    accumulate,
    exp_in,
    invert_in,
)
from .errors import ContextMismatchError, InvalidVectorError
from .scalars import GaussRational, exact, rational, times_i

_F0 = Fraction(0)
_ONE = 1  # the kernels' fast path for a product by 1 (see PoincareAlgebra.mul_terms)


class TensorElement(TermElement):
    """A k-legged tensor: {((monomial, ..., monomial), power of h): coefficient},
    each leg a PBW monomial.  The product acts leg-wise:
    (a (x) b)(c (x) d) = ac (x) bd."""

    __slots__ = ("legs",)

    def __init__(self, algebra: PoincareAlgebra, legs: int, terms: dict):
        self.algebra = algebra
        self.legs = legs
        self.terms = terms

    def _with(self, terms: dict, algebra: PoincareAlgebra | None = None) -> "TensorElement":
        return TensorElement(algebra or self.algebra, self.legs, terms)

    def _compatible(self, other: "TensorElement") -> bool:
        return self.legs == other.legs and self.algebra.compatible(other.algebra)

    def _key_product(self):
        return _leg_product(self.algebra, self.legs)

    def _i_count(self, key) -> int:
        return sum(map(self.algebra.i_count, key))

    # -- constructors --------------------------------------------------------

    @classmethod
    def unit(cls, algebra: PoincareAlgebra, legs: int) -> "TensorElement":
        return cls(algebra, legs, {(((),) * legs, 0): 1})

    @classmethod
    def of(cls, *factors: AlgebraElement) -> "TensorElement":
        """The tensor product a1 (x) a2 (x) ... of algebra elements."""
        alg = factors[0].algebra
        terms = {((), 0): 1}
        for f in factors:
            if not alg.compatible(f.algebra):
                raise ContextMismatchError("tensor factors from incompatible contexts")
            terms = alg.mul_terms(terms, f.terms, key_product=_append_leg)
        return cls(alg, len(factors), terms)

    def __mul__(self, other):
        if isinstance(other, TensorElement):
            self._check(other)
            alg = self.algebra
            return self._with(alg.mul_terms(self.terms, other.terms, self._key_product()))
        return TermElement.__mul__(self, other)

    # -- leg surgery ------------------------------------------------------------

    def transpose(self, perm) -> "TensorElement":
        """Permute legs: new leg i carries what old leg perm[i] carried."""
        return self._with(
            {(tuple(key[p] for p in perm), k): c for (key, k), c in self.terms.items()}
        )

    def flip(self) -> "TensorElement":
        if self.legs != 2:
            raise ContextMismatchError("flip is defined for 2-legged tensors")
        return self.transpose((1, 0))

    def embed(self, placement: str) -> "TensorElement":
        """Insert a unit leg: a 2-tensor placed at legs '12', '13' or '23' of 3."""
        if self.legs != 2:
            raise ContextMismatchError("embed supports 2-legged tensors into 3 legs")
        perm = {"12": (0, 1, 2), "13": (0, 2, 1), "23": (2, 0, 1)}.get(placement)
        if perm is None:
            raise ValueError(f"invalid placement {placement!r}; expected 12, 13 or 23")
        terms = {((m1, m2, ()), k): c for ((m1, m2), k), c in self.terms.items()}
        return TensorElement(self.algebra, 3, terms).transpose(perm)

    def map_leg(self, i: int, fn) -> "TensorElement":
        """Replace leg i by its image under fn: monomial -> AlgebraElement or
        TensorElement; other legs are carried along, coefficients multiply.
        A MonomialMap builds each image only to the power of h that survives;
        a plain callable's image is cut there before any key is spliced."""
        image = fn.image if isinstance(fn, MonomialMap) else (lambda mono, _: fn(mono))

        def spliced(key, budget):
            img = image(key[i], budget)
            head, tail = key[:i], key[i + 1 :]
            pairs = [(m, j, c) for (m, j), c in img.terms.items() if j <= budget]
            if isinstance(img, TensorElement):
                return [((head + m + tail, j), c) for m, j, c in pairs]
            return [((head + (m,) + tail, j), c) for m, j, c in pairs]

        terms = self.algebra.extend(self.terms, spliced)
        legs = len(next(iter(terms))[0]) if terms else self.legs  # zero: the count is moot
        return TensorElement(self.algebra, legs, terms)

    def contract_counit(self, i: int):
        """Apply the counit to leg i (keep only unit monomials there)."""
        acc = {}
        for (key, k), c in self.terms.items():
            if not key[i]:
                accumulate(acc, (key[:i] + key[i + 1 :], k), c)
        terms = {t: c for t, c in acc.items() if c}
        if self.legs == 2:
            return AlgebraElement(self.algebra, {(key[0], k): c for (key, k), c in terms.items()})
        return TensorElement(self.algebra, self.legs - 1, terms)

    def merge_legs(self) -> AlgebraElement:
        """Multiply all legs together left-to-right in U(iso(g)).

        The tensor is paired with the unit in mul_terms, whose rule maps a
        key to the PBW product of its legs."""
        alg = self.algebra
        mono_product = alg.mono_product

        def merged(key, _unit):
            word = {key[0]: 1}
            for mono in key[1:]:
                nxt = {}
                for m, c in word.items():
                    for m2, c2 in mono_product(m, mono).items():
                        accumulate(nxt, m2, c * c2)
                word = nxt
            return [(m, c) for m, c in word.items() if c]

        return AlgebraElement(alg, alg.mul_terms(self.terms, alg.one().terms, key_product=merged))

    def star_legs(self) -> "TensorElement":
        """(a (x) b)* = a* (x) b*: star each leg, no flip (X* = -X)."""
        normal_order = self.algebra.normal_order
        return self._star_by(
            lambda key, _: [
                ((ms, 0), c * (-1) ** self._i_count(key))
                for ms, c in _leg_combos(normal_order(tuple(reversed(m))) for m in key)
            ]
        )

    def __repr__(self):
        from .render import tensor_text

        return tensor_text(self)


def _append_leg(key: tuple, mono: tuple):
    """Key-product rule of the tensor product: the monomial becomes a new leg."""
    return ((key + (mono,), 1),)


def _leg_combos(leg_maps) -> list:
    """[(key, coefficient)] of the outer product of per-leg {monomial: coefficient}."""
    combos = [((), 1)]
    for prods in leg_maps:
        combos = [(ms + (m,), c * cm) for ms, c in combos for m, cm in prods.items()]
    return combos


def _leg_product(alg: PoincareAlgebra, legs: int):
    """Key-product rule of legs-legged tensors: leg-wise PBW products.  Two
    legs, the common case, read the two mono_product tables directly."""
    mono_product = alg.mono_product
    if legs != 2:
        return lambda k1, k2: _leg_combos(map(mono_product, k1, k2))

    def product(k1, k2):
        pb = mono_product(k1[1], k2[1])
        for ma, ca in mono_product(k1[0], k2[0]).items():
            for mb, cb in pb.items():
                yield (ma, mb), (cb if ca is _ONE else ca if cb is _ONE else ca * cb)

    return product


def _leg_commutator(alg: PoincareAlgebra, legs: int):
    """Key rule of the commutator of legs-legged tensors, by the leg-wise
    Leibniz rule: [a (x) b, a' (x) b'] = [a, a'] (x) bb' + a'a (x) [b, b'].
    For k legs, term i carries [a_i, b_i] on leg i, b_j a_j on the legs
    before it and a_j b_j on the legs after it; a leg whose pair commutes
    contributes nothing.  Two legs read the tables directly."""
    mono_product, mono_commutator = alg.mono_product, alg.mono_commutator
    if legs != 2:

        def commutator(k1, k2):
            out = []
            for i, (a, b) in enumerate(zip(k1, k2)):
                comm = mono_commutator(a, b)
                if comm:
                    before = map(mono_product, k2[:i], k1[:i])
                    after = map(mono_product, k1[i + 1 :], k2[i + 1 :])
                    out += _leg_combos((*before, dict(comm), *after))
            return out

        return commutator

    def commutator(k1, k2):
        (a1, b1), (a2, b2) = k1, k2
        out = []
        comm = mono_commutator(a1, a2)
        if comm:
            pb = mono_product(b1, b2).items()
            out += [((ma, mb), ca * cb) for ma, ca in comm for mb, cb in pb]
        comm = mono_commutator(b1, b2)
        if comm:
            pa = mono_product(a2, a1).items()
            out += [((ma, mb), ca * cb) for ma, ca in pa for mb, cb in comm]
        return out

    return commutator


def tensor_commutator(a: TensorElement, b: TensorElement) -> TensorElement:
    """a*b - b*a, from the commutators of keys: the two products that cancel
    are never formed."""
    a._check(b)
    alg = a.algebra
    return a._with(alg.mul_terms(a.terms, b.terms, _leg_commutator(alg, a.legs)))


def tensor_invert(t: TensorElement) -> TensorElement:
    """t^-1 for a tensor whose unit coefficient has an invertible constant term
    and whose other terms are O(h)."""
    return invert_in(TensorElement.unit(t.algebra, t.legs), t)


def tensor_exp(t: TensorElement) -> TensorElement:
    """exp of a tensor of positive h-valuation; terminates at the truncation order."""
    return exp_in(TensorElement.unit(t.algebra, t.legs), t)


# -- wedges ---------------------------------------------------------------------


class WedgeElement:
    """A fully antisymmetric degree-2 or -3 tensor over the Lie algebra, stored
    on strictly increasing code tuples (rotations X) with rational
    coefficients.  Wedge coefficients carry no h-dependence: r-matrices and
    Omega are classical objects."""

    __slots__ = ("algebra", "degree", "terms")

    def __init__(self, algebra: PoincareAlgebra, degree: int, terms=None):
        if degree not in (2, 3):
            raise ValueError("wedge degree must be 2 or 3")
        self.algebra = algebra
        self.degree = degree
        self.terms = dict(terms) if terms else {}

    def add(self, gens: tuple, coeff):
        """Accumulate coeff * (g1 ^ g2 [^ g3]), canonicalizing with sign."""
        if not coeff:
            return
        sign, key = _sort_parity(gens)
        if sign == 0:
            return
        cur = self.terms.get(key)
        s = coeff * sign if cur is None else cur + coeff * sign
        if s:
            self.terms[key] = rational(s)
        elif cur is not None:
            del self.terms[key]

    def coefficient(self, gens: tuple):
        """Signed coefficient of an arbitrary (possibly unsorted) key."""
        sign, key = _sort_parity(gens)
        return self.terms.get(key, 0) * sign

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        if isinstance(other, WedgeElement):
            return (
                self.algebra.compatible(other.algebra)
                and self.degree == other.degree
                and self.terms == other.terms
            )
        return NotImplemented

    def __add__(self, other):
        if not isinstance(other, WedgeElement) or other.degree != self.degree:
            return NotImplemented
        out = WedgeElement(self.algebra, self.degree, self.terms)
        for k, c in other.terms.items():
            out.add(k, c)
        return out

    def __neg__(self):
        return self * -1

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, scalar):
        if isinstance(scalar, (int, Fraction, GaussRational)):
            scalar = exact(scalar)
            if not scalar:
                return WedgeElement(self.algebra, self.degree)
            return WedgeElement(
                self.algebra, self.degree, {k: rational(c * scalar) for k, c in self.terms.items()}
            )
        return NotImplemented

    __rmul__ = __mul__

    def in_symbols(self, s: int) -> "WedgeElement":
        """Each coefficient times i^(s n), n the rotations of its key (see
        TermElement.in_symbols)."""
        count = self.algebra.i_count
        return WedgeElement(
            self.algebra, self.degree, {k: times_i(c, s * count(k)) for k, c in self.terms.items()}
        )

    def to_tensor(self) -> TensorElement:
        """Tensor realization of a degree-2 wedge: x ^ y -> x (x) y - y (x) x.

        This is the normalization under which the classical-limit formula
        h-part of (coproduct - opposite) = [primitive coproduct, r] holds with
        the real structure constants of X = -iM; it is pinned by the
        acceptance tests.
        """
        if self.degree != 2:
            raise ValueError("tensor realization implemented for degree 2")
        acc = {}
        for (x, y), c in self.terms.items():
            accumulate(acc, (((x,), (y,)), 0), c)
            accumulate(acc, (((y,), (x,)), 0), -c)
        return TensorElement(self.algebra, 2, {t: c for t, c in acc.items() if c})

    def __repr__(self):
        from .render import wedge_text

        return wedge_text(self)


def _sort_parity(gens: tuple):
    """Sort a code tuple, tracking permutation parity; sign 0 on repeats."""
    lst = list(gens)
    sign = 1
    for i in range(1, len(lst)):
        j = i
        while j > 0 and lst[j - 1] > lst[j]:
            lst[j - 1], lst[j] = lst[j], lst[j - 1]
            sign = -sign
            j -= 1
    for i in range(1, len(lst)):
        if lst[i - 1] == lst[i]:
            return 0, ()
    return sign, tuple(lst)


def r_matrix(algebra: PoincareAlgebra, tau: VectorTau) -> WedgeElement:
    """tau^alpha X_{alpha mu} ^ P^mu, indices raised with the exact inverse
    metric: the paper's r_tau = tau^alpha M_{alpha mu} ^ P^mu is i times it."""
    if tau.is_zero:
        raise InvalidVectorError("the r-matrix requires a nonzero deforming vector")
    d = algebra.dim
    ginv = algebra.metric.inverse
    w = WedgeElement(algebra, 2)
    for alpha, t in enumerate(tau.components):
        if not t:
            continue
        for mu in range(d):
            code, sign = algebra.rotation_code(alpha, mu)
            if not sign:
                continue
            for nu in range(d):
                f = ginv[mu][nu]
                if f:
                    w.add((code, algebra.momentum_code(nu)), t * f * sign)
    return w


def omega(algebra: PoincareAlgebra) -> WedgeElement:
    """X_{mu nu} ^ P^mu ^ P^nu, the invariant 3-wedge: the paper's
    Omega = M_{mu nu} ^ P^mu ^ P^nu is i times it."""
    d = algebra.dim
    ginv = algebra.metric.inverse
    w = WedgeElement(algebra, 3)
    for mu in range(d):
        for nu in range(d):
            if mu == nu:
                continue
            code, sign = algebra.rotation_code(mu, nu)
            for al in range(d):
                f1 = ginv[mu][al]
                if not f1:
                    continue
                for be in range(d):
                    f2 = ginv[nu][be]
                    if f2:
                        w.add(
                            (code, algebra.momentum_code(al), algebra.momentum_code(be)),
                            f1 * f2 * sign,
                        )
    return w


def schouten_square(r: WedgeElement) -> WedgeElement:
    """[[r, r]] for a degree-2 wedge over the Lie algebra, as a degree-3 wedge.

    Expands [r12, r13] + [r12, r23] + [r13, r23] on the tensor realization of r
    and antisymmetrizes back onto wedge coordinates.  The overall normalization
    is anchored so that the time-like r over the Lorentzian metric squares to
    exactly +Omega, matching -g(tau, tau) * Omega across the family; both
    sides are in X = -iM, where the paper's identity is i times this one.
    """
    if r.degree != 2:
        raise ValueError("the Schouten square takes a degree-2 wedge")
    alg = r.algebra
    # tensor terms (a, b, coeff) of the realization x (x) y - y (x) x
    terms = []
    for (x, y), c in r.terms.items():
        terms.append((x, y, c))
        terms.append((y, x, -c))
    t3 = {}
    for a1, b1, c1 in terms:
        for a2, b2, c2 in terms:
            c12 = c1 * c2
            for g, cb in alg.bracket_codes(a1, a2).items():
                accumulate(t3, (g, b1, b2), c12 * cb)
            for g, cb in alg.bracket_codes(b1, a2).items():
                accumulate(t3, (a1, g, b2), c12 * cb)
            for g, cb in alg.bracket_codes(b1, b2).items():
                accumulate(t3, (a1, a2, g), c12 * cb)
    # antisymmetrize (1/6) and normalize (2); add sorts each key with its sign
    third = Fraction(1, 3)
    out = WedgeElement(alg, 3)
    for key, c in t3.items():
        out.add(key, c * third)
    return out


# -- orbit classification ----------------------------------------------------------


@dataclass(frozen=True)
class OrbitClassification:
    """tau^2 sign, Yang-Baxter type, and the stability-group label of the orbit."""

    tau_sq: Fraction
    yb_type: str  # "MYBE" | "CYBE"
    stability_kind: str  # "SO" | "ISO"
    stability_pq: tuple

    @property
    def tau_sq_sign(self) -> int:
        return (self.tau_sq > 0) - (self.tau_sq < 0)

    @property
    def stability_label(self) -> str:
        p, q = self.stability_pq
        inner = f"{p}" if q == 0 else (f"{q}" if p == 0 else f"{p},{q}")
        return f"{self.stability_kind}({inner})"

    @property
    def suggested_basis(self) -> str:
        return "lightcone" if self.yb_type == "CYBE" else "orthogonal"


def tau_orthogonal_complement(metric: Metric, tau: VectorTau):
    """A rational basis of the g-orthogonal complement of a non-null tau."""
    d = metric.dim
    t2 = tau.tau_sq
    cands = []
    for k in range(d):
        e = [_F0] * d
        e[k] = Fraction(1)
        lam = metric.apply(tau.components, tuple(e)) / t2
        v = tuple(e[i] - lam * tau.components[i] for i in range(d))
        if any(v):
            cands.append(v)
    return exactla.select_independent(cands, d - 1)


def hyperbolic_pair_complement(metric: Metric, tau: VectorTau):
    """(tau_tilde, transverse basis) for a null tau: g(tau, tt) = 1, g(tt, tt) = 0,
    transverse vectors g-orthogonal to both."""
    d = metric.dim
    row = tuple(metric.apply(tau.components, _unit(d, j)) for j in range(d))
    w = exactla.solve_single(row, 1)
    lam = metric.apply(w, w) / 2
    tt = tuple(w[i] - lam * tau.components[i] for i in range(d))
    cands = []
    for k in range(d):
        e = _unit(d, k)
        a = metric.apply(e, tt)  # component along tau
        b = metric.apply(e, tau.components)  # component along tau_tilde
        v = tuple(e[i] - a * tau.components[i] - b * tt[i] for i in range(d))
        if any(v):
            cands.append(v)
    trans = exactla.select_independent(cands, d - 2) if d > 2 else []
    return tt, trans


def _unit(d, k):
    e = [_F0] * d
    e[k] = Fraction(1)
    return tuple(e)


def classify_orbit(metric: Metric, tau: VectorTau) -> OrbitClassification:
    """Orbit data for (g, tau): YB type from tau^2 and the stability group of tau.

    For tau^2 != 0 the stability group is SO of g restricted to the orthogonal
    complement of tau; for tau^2 = 0 it is ISO of the transverse block after
    splitting off the hyperbolic plane spanned by tau and its null partner.
    """
    if tau.is_zero:
        raise InvalidVectorError("cannot classify the orbit of the zero vector")
    t2 = tau.tau_sq
    if t2:
        basis = tau_orthogonal_complement(metric, tau)
        gram = _gram(metric, basis)
        pq = exactla.signature(gram)
        return OrbitClassification(t2, "MYBE", "SO", pq)
    p, q = metric.signature
    if p == 0 or q == 0:
        raise InvalidVectorError(
            "a nonzero null vector cannot exist for a definite metric; inconsistent input"
        )
    tt, trans = hyperbolic_pair_complement(metric, tau)
    if trans:
        gram = _gram(metric, trans)
        pq = exactla.signature(gram)
    else:
        pq = (0, 0)
    return OrbitClassification(t2, "CYBE", "ISO", pq)


def _gram(metric: Metric, basis):
    return tuple(tuple(metric.apply(u, v) for v in basis) for u in basis)
