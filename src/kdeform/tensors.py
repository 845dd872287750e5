"""Multi-legged tensors over U(iso(g)), wedges as antisymmetric tensors of
generators, and the Schouten-bracket machinery for the r-matrix family
r_tau = tau _| Omega.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, permutations
from math import lcm

from . import exactla
from .algebra import (
    AlgebraElement,
    Metric,
    MonomialMap,
    PoincareAlgebra,
    TermElement,
    VectorTau,
    accumulate,
    collect,
    exp_in,
    invert_in,
    reduced,
)
from .errors import ContextMismatchError, InvalidVectorError
from .render import gen_text, tensor_text
from .scalars import split_map

_ONE = 1  # the kernels' fast path for a product by 1 (see PoincareAlgebra.mul_terms)


class TensorElement(TermElement):
    """A k-legged tensor: {((monomial, ..., monomial), power of h): numerator}
    over a denominator (see TermElement), each leg a PBW monomial.  The
    product acts leg-wise: (a (x) b)(c (x) d) = ac (x) bd."""

    __slots__ = ("legs",)

    def __init__(self, algebra: PoincareAlgebra, legs: int, terms: dict, den: int | None = None):
        self.algebra = algebra
        self.legs = legs
        self.num, self.den = split_map(terms) if den is None else (terms, den)

    def _with(self, num: dict, den: int = 1) -> "TensorElement":
        return TensorElement(self.algebra, self.legs, num, den)

    def _compatible(self, other: "TensorElement") -> bool:
        return self.legs == other.legs and self.algebra.compatible(other.algebra)

    def _key_product(self):
        return _leg_product(self.algebra, self.legs)

    def _i_count(self, key) -> int:
        return sum(map(self.algebra.i_count, key))

    # -- constructors --------------------------------------------------------

    @classmethod
    def unit(cls, algebra: PoincareAlgebra, legs: int) -> "TensorElement":
        return cls(algebra, legs, {(((),) * legs, 0): 1}, 1)

    @classmethod
    def of(cls, *factors: AlgebraElement) -> "TensorElement":
        """The tensor product a1 (x) a2 (x) ... of algebra elements: keys
        concatenate and powers of h add, those past the order dropped."""
        alg = factors[0].algebra
        num, den = {((), 0): 1}, 1
        for f in factors:
            if not alg.compatible(f.algebra):
                raise ContextMismatchError("tensor factors from incompatible contexts")
            num, den = _outer(num, f.num, alg.order), den * f.den
        return cls(alg, len(factors), *collect({1: num}, den))

    def __mul__(self, other):
        if isinstance(other, TensorElement):
            self._check(other)
            alg = self.algebra
            rule = self._key_product()
            return self._with(*alg.mul_terms(self.num, other.num, rule, den=self.den * other.den))
        return TermElement.__mul__(self, other)

    # -- leg surgery ------------------------------------------------------------

    def transpose(self, perm) -> "TensorElement":
        """Permute legs: new leg i carries what old leg perm[i] carried."""
        return self._with(
            {(tuple(key[p] for p in perm), k): c for (key, k), c in self.num.items()}, self.den
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
        num = {((m1, m2, ()), k): c for ((m1, m2), k), c in self.num.items()}
        return TensorElement(self.algebra, 3, num, self.den).transpose(perm)

    def map_leg(self, i: int, fn) -> "TensorElement":
        """Replace leg i by its image under fn: monomial -> AlgebraElement or
        TensorElement; other legs are carried along, coefficients multiply.
        A MonomialMap builds each image only to the power of h that survives;
        a plain callable's image is cut there before any key is spliced."""
        image = fn.image if isinstance(fn, MonomialMap) else (lambda mono, _: fn(mono))

        def spliced(key, budget):
            img = image(key[i], budget)
            head, tail = key[:i], key[i + 1 :]
            pairs = [(m, j, c) for (m, j), c in img.num.items() if j <= budget]
            if isinstance(img, TensorElement):
                return img.den, [((head + m + tail, j), c) for m, j, c in pairs]
            return img.den, [((head + (m,) + tail, j), c) for m, j, c in pairs]

        unit = image((), 0)  # the image of 1: leg i becomes as many legs as it has
        legs = self.legs - 1 + (unit.legs if isinstance(unit, TensorElement) else 1)
        return TensorElement(self.algebra, legs, *self.algebra.extend(self.num, spliced, self.den))

    def contract_counit(self, i: int):
        """Apply the counit to leg i (keep only unit monomials there)."""
        acc = {}
        for (key, k), c in self.num.items():
            if not key[i]:
                accumulate(acc, (key[:i] + key[i + 1 :], k), c)
        num, den = collect({1: acc}, self.den)
        if self.legs == 2:
            return AlgebraElement(self.algebra, {(m[0], k): c for (m, k), c in num.items()}, den)
        return TensorElement(self.algebra, self.legs - 1, num, den)

    def merge_legs(self) -> AlgebraElement:
        """Multiply all legs together left-to-right in U(iso(g)).

        The tensor is paired with the unit in mul_terms, whose rule maps a
        key to the PBW product of its legs, one leg at a time."""
        alg = self.algebra
        mono_product, mul_terms = alg.mono_product, alg.mul_terms

        def merged(key, _unit):
            d, pairs = mono_product(key[0], key[1])
            for mono in key[2:]:
                num, d = mul_terms({(m, 0): c for m, c in pairs}, {(mono, 0): 1}, den=d)
                pairs = [(m, c) for (m, _), c in num.items()]
            return d, pairs

        one = alg.one()
        return AlgebraElement(alg, *alg.mul_terms(self.num, one.num, merged, den=self.den))

    def star_legs(self) -> "TensorElement":
        """(a (x) b)* = a* (x) b*: star each leg, no flip (X* = -X)."""
        normal_order = self.algebra.normal_order

        def image(key, _):
            d, combos = _leg_combos(normal_order(tuple(reversed(m))) for m in key)
            return d * (-1) ** self._i_count(key), [((ms, 0), c) for ms, c in combos]

        return self._star_by(image)

    def __repr__(self):
        return tensor_text(self)


def _outer(num: dict, leg: dict, N: int) -> dict:
    """The numerators of num (x) leg, powers past N dropped: each key gains
    the leg's monomial.  Two splits of one power of h can meet on a key, so
    the products accumulate (and may cancel; collect drops the zeros)."""
    acc = {}
    terms = [(m, j, c) for (m, j), c in leg.items()]
    for (key, k), c1 in num.items():
        budget = N - k
        for m, j, c2 in terms:
            if j <= budget:
                t = (key + (m,), k + j)
                cur = acc.get(t)
                acc[t] = c1 * c2 if cur is None else cur + c1 * c2
    return acc


def _leg_combos(leg_products) -> tuple:
    """(d, [(key, numerator)]) of the outer product of per-leg (d, pairs)."""
    den, combos = 1, [((), 1)]
    for d, pairs in leg_products:
        den *= d
        combos = [(ms + (m,), c * cm) for ms, c in combos for m, cm in pairs]
    return den, combos


def _leg_product(alg: PoincareAlgebra, legs: int):
    """Key-product rule of legs-legged tensors: leg-wise PBW products.  Two
    legs, the common case, read the two mono_product tables directly."""
    mono_product = alg.mono_product
    if legs != 2:
        return lambda k1, k2: _leg_combos(map(mono_product, k1, k2))

    def product(k1, k2):
        da, pa = mono_product(k1[0], k2[0])
        db, pb = mono_product(k1[1], k2[1])
        return da * db, [
            ((ma, mb), cb if ca is _ONE else ca if cb is _ONE else ca * cb)
            for ma, ca in pa
            for mb, cb in pb
        ]

    return product


def _leg_commutator(alg: PoincareAlgebra):
    """Key rule of the commutator of tensors, by the leg-wise Leibniz rule:
    term i carries [a_i, b_i] on leg i, b_j a_j on the legs before it and
    a_j b_j on the legs after it; a leg whose pair commutes contributes
    nothing.  Two legs take tensor_commutator's grouped loop instead."""
    mono_product, mono_commutator = alg.mono_product, alg.mono_commutator

    def commutator(k1, k2):
        out = []
        for i, (a, b) in enumerate(zip(k1, k2)):
            comm = mono_commutator(a, b)
            if comm[1]:
                before = map(mono_product, k2[:i], k1[:i])
                after = map(mono_product, k1[i + 1 :], k2[i + 1 :])
                out.append(_leg_combos((*before, comm, *after)))
        d = lcm(*(dp for dp, _ in out))  # the terms' sum over the lcm
        return d, [(m, c * (d // dp)) for dp, pairs in out for m, c in pairs]

    return commutator


def _by_right_leg(num: dict) -> list:
    """[(right leg, [(left leg, power of h, numerator)] by rising power)]."""
    groups = {}
    for ((a, b), k), c in sorted(num.items(), key=lambda t: t[0][1]):
        groups.setdefault(b, []).append((a, k, c))
    return list(groups.items())


def _gather(accs: dict, d: int, pairs, k: int, c: int):
    """accs[d][(m, k)] += c * cm for each (m, cm) of a key rule's pairs."""
    acc = accs.setdefault(d, {})
    for m, cm in pairs:
        accumulate(acc, (m, k), c * cm)


def tensor_commutator(a: TensorElement, b: TensorElement) -> TensorElement:
    """a*b - b*a, from the commutators of keys: the two products that cancel
    are never formed.  Two legs group the terms by right leg and follow
    [a (x) b, a' (x) b'] = [a, a'] (x) bb' + a'a (x) [b, b']: per pair of
    groups, [b, b'] is read once (bb' only if some [a, a'] is nonzero) and
    the left-leg sums are multiplied out once.  A pair of groups whose lowest
    powers of h sum past the order makes no lookup."""
    a._check(b)
    alg, den = a.algebra, a.den * b.den
    if a.legs != 2:
        return a._with(*alg.mul_terms(a.num, b.num, _leg_commutator(alg), den=den))
    N, mono_product, mono_commutator = alg.order, alg.mono_product, alg.mono_commutator
    accs, right = {}, _by_right_leg(b.num)
    for b1, terms1 in _by_right_leg(a.num):
        for b2, terms2 in right:
            if terms1[0][1] + terms2[0][1] > N:
                continue
            comm_b = mono_commutator(b1, b2)
            comms, prods = {}, {}  # per denominator: {(left leg, power of h): numerator}
            for a1, k1, c1 in terms1:
                for a2, k2, c2 in terms2:
                    if k1 + k2 > N:
                        break
                    d, pairs = mono_commutator(a1, a2)
                    if pairs:
                        _gather(comms, d, pairs, k1 + k2, c1 * c2)
                    if comm_b[1]:
                        _gather(prods, *mono_product(a2, a1), k1 + k2, c1 * c2)
            parts = [(prods, comm_b)]
            if comms:
                parts.append((comms, mono_product(b1, b2)))
            for lefts, (d_right, rights) in parts:
                for d, acc in lefts.items():
                    out = accs.setdefault(d * d_right, {})
                    for (m, k), c in acc.items():
                        for mb, cb in rights:
                            accumulate(out, ((m, mb), k), c * cb)
    return a._with(*collect(accs, den))


def tensor_invert(t: TensorElement) -> TensorElement:
    """t^-1 for a tensor whose unit coefficient has an invertible constant term
    and whose other terms are O(h)."""
    return invert_in(TensorElement.unit(t.algebra, t.legs), t)


def tensor_exp(t: TensorElement) -> TensorElement:
    """exp of a tensor of positive h-valuation; terminates at the truncation order."""
    return exp_in(TensorElement.unit(t.algebra, t.legs), t)


# -- wedges: antisymmetric tensors of generators ------------------------------------


def wedge(algebra: PoincareAlgebra, legs: int, terms: dict) -> TensorElement:
    """The antisymmetric legs-legged tensor of {generator tuple: coefficient}:
    each term c (g_1 ^ ... ^ g_k) is the signed sum over permutations s of
    sign(s) c g_s(1) (x) ... (x) g_s(k), so a tuple may come in any order and
    a repeated generator gives zero.  Wedges carry no h-dependence: r-matrices
    and Omega are classical objects, read back in sorted coordinates by
    render.wedge_series."""
    for gens in terms:
        if len(gens) != legs:
            names = " ^ ".join(gen_text(g, algebra.dim) for g in gens)
            raise ValueError(f"wedge term {names} has {len(gens)} generators, expected {legs}")
    num, den = split_map(terms)
    # the sign of each permutation, (-1) to the number of its inversions
    signs = [
        (p, (-1) ** sum(a > b for a, b in combinations(p, 2))) for p in permutations(range(legs))
    ]
    acc = {}
    for gens, c in num.items():
        for p, sign in signs:
            accumulate(acc, (tuple((gens[i],) for i in p), 0), c * sign)
    return TensorElement(algebra, legs, *collect({1: acc}, den))


def r_matrix(algebra: PoincareAlgebra, tau: VectorTau) -> TensorElement:
    """tau^alpha X_{alpha mu} ^ P^mu, indices raised with the exact inverse
    metric, as a 2-leg wedge: the paper's r_tau = tau^alpha M_{alpha mu} ^ P^mu
    is i times it.  With x ^ y = x (x) y - y (x) x the classical limit
    h-part of (coproduct - opposite) = [primitive coproduct, r] holds in the
    real structure constants of X = -iM, as the acceptance tests pin."""
    if tau.is_zero:
        raise InvalidVectorError("the r-matrix requires a nonzero deforming vector")
    d = algebra.dim
    ginv = algebra.metric.inverse
    acc = {}
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
                    accumulate(acc, (code, algebra.momentum_code(nu)), t * f * sign)
    return wedge(algebra, 2, acc)


def omega(algebra: PoincareAlgebra) -> TensorElement:
    """X_{mu nu} ^ P^mu ^ P^nu, the invariant 3-wedge: the paper's
    Omega = M_{mu nu} ^ P^mu ^ P^nu is i times it."""
    d = algebra.dim
    ginv = algebra.metric.inverse
    acc = {}
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
                        key = (code, algebra.momentum_code(al), algebra.momentum_code(be))
                        accumulate(acc, key, f1 * f2 * sign)
    return wedge(algebra, 3, acc)


def schouten_square(r: TensorElement) -> TensorElement:
    """[[r, r]] of a 2-leg wedge (as wedge returns it), as a 3-leg wedge.

    Expands 2 ([r12, r13] + [r12, r23] + [r13, r23]) on r's terms through the
    structure constants, which tensor_commutator would reach only through
    PBW products.  The normalization 2 is anchored so that the time-like r
    over the Lorentzian metric squares to exactly +Omega, matching
    -g(tau, tau) * Omega across the family; both sides are in X = -iM, where
    the paper's identity is i times this one.
    """
    if r.legs != 2:
        raise ValueError("the Schouten square takes a 2-leg wedge")
    alg = r.algebra
    terms = [(x, y, c) for (((x,), (y,)), _), c in r.num.items()]
    accs = {}
    for a1, b1, c1 in terms:
        for a2, b2, c2 in terms:
            for (d, rule), head, tail in (
                (alg._bracket(a1, a2), (), (b1, b2)),
                (alg._bracket(b1, a2), (a1,), (b2,)),
                (alg._bracket(b1, b2), (a1, a2), ()),
            ):
                acc = accs.setdefault(d, {})
                for g, cb in rule.items():
                    accumulate(acc, head + (g,) + tail, c1 * c2 * cb)
    t3, d = collect(accs, r.den * r.den)
    num = {(tuple((g,) for g in codes), 0): 2 * c for codes, c in t3.items()}
    return TensorElement(alg, 3, *reduced(num, d))


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
    for e in exactla.identity(d):
        lam = metric.apply(tau.components, e) / t2
        v = tuple(e[i] - lam * tau.components[i] for i in range(d))
        if any(v):
            cands.append(v)
    return exactla.select_independent(cands, d - 1)


def hyperbolic_pair_complement(metric: Metric, tau: VectorTau):
    """(tau_tilde, transverse basis) for a null tau: g(tau, tt) = 1, g(tt, tt) = 0,
    transverse vectors g-orthogonal to both."""
    d = metric.dim
    units = exactla.identity(d)
    row = tuple(metric.apply(tau.components, e) for e in units)
    w = exactla.solve_single(row, 1)
    lam = metric.apply(w, w) / 2
    tt = tuple(w[i] - lam * tau.components[i] for i in range(d))
    cands = []
    for e in units:
        a = metric.apply(e, tt)  # component along tau
        b = metric.apply(e, tau.components)  # component along tau_tilde
        v = tuple(e[i] - a * tau.components[i] - b * tt[i] for i in range(d))
        if any(v):
            cands.append(v)
    trans = exactla.select_independent(cands, d - 2) if d > 2 else []
    return tt, trans


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
