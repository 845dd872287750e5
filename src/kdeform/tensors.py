"""Multi-legged tensors over U(iso(g)), wedges as antisymmetric tensors of
generators, and the Schouten-bracket machinery for the r-matrix family
r_tau = tau _| Omega.
"""

from __future__ import annotations

from itertools import combinations, permutations

from .algebra import (
    AlgebraElement,
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
from .render import tensor_text, wedge_key_text
from .scalars import split_map


class TensorElement(TermElement):
    """A k-legged tensor: {((monomial, ..., monomial), power of h): numerator}
    over a denominator (see TermElement), each leg a PBW monomial.  The
    product acts leg-wise: (a (x) b)(c (x) d) = ac (x) bd, through _combine
    on the terms grouped by last leg, once per element."""

    __slots__ = ("legs", "_tree")

    def __init__(self, algebra: PoincareAlgebra, legs: int, terms: dict, den: int | None = None):
        self.algebra = algebra
        self.legs = legs
        self.num, self.den = split_map(terms) if den is None else (terms, den)
        self._tree = None

    def _with(self, num: dict, den: int = 1) -> "TensorElement":
        return TensorElement(self.algebra, self.legs, num, den)

    def _compatible(self, other: "TensorElement") -> bool:
        return self.legs == other.legs and self.algebra.compatible(other.algebra)

    def _leg_tree(self) -> list:
        """The terms grouped by last leg down the legs (see _grouped)."""
        if self._tree is None:
            self._tree = _grouped(self.num, self.legs)
        return self._tree

    def _mul(self, other: "TensorElement", cap: int) -> "TensorElement":
        """The product with no power of h past cap formed."""
        return self._with(*_combined(self, other, cap, False))

    def _i_count(self, key) -> int:
        return sum(map(self.algebra.i_count, key))

    def _reversed(self, key: tuple) -> tuple:
        """Each leg reversed in place, no flip: (a (x) b)* = a* (x) b*."""
        den, combos = 1, [((), 1)]
        for m in key:
            d, pairs = self.algebra.normal_order(m[::-1])
            den *= d
            combos = [(ms + (p,), c * cp) for ms, c in combos for (p, _), cp in pairs]
        return den, [((ms, 0), c) for ms, c in combos]

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
        extend drops what a plain callable's image holds past it."""
        image = fn.image if isinstance(fn, MonomialMap) else (lambda mono, _: fn(mono))

        def spliced(key, budget):
            img = image(key[i], budget)
            head, tail = key[:i], key[i + 1 :]
            if isinstance(img, TensorElement):
                return img.den, [((head + m + tail, j), c) for (m, j), c in img.num.items()]
            return img.den, [((head + (m,) + tail, j), c) for (m, j), c in img.num.items()]

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
        """Multiply all legs together left-to-right in U(iso(g)): the linear
        extension of the map from a key to the normal form of its legs'
        concatenation."""
        alg = self.algebra
        return AlgebraElement(alg, *alg.extend(self.num, lambda k, _: alg.normal_order(sum(k, ())), self.den))

    __repr__ = tensor_text


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


def _grouped(num: dict, legs: int) -> list:
    """The terms of a legs-legged numerator map as a tree by last leg:
    [(last leg, lowest power of h, rest)], where rest lists the group's
    (first leg, power of h, numerator) by rising power at two legs, and is
    the tree of the group's other legs past two."""
    groups = {}
    if legs == 2:
        for ((a, b), k), c in sorted(num.items(), key=lambda t: t[0][1]):
            groups.setdefault(b, []).append((a, k, c))
        return [(b, rest[0][1], rest) for b, rest in groups.items()]
    for (key, k), c in num.items():
        groups.setdefault(key[-1], {})[key[:-1], k] = c
    return [(b, min(k for _, k in rest), _grouped(rest, legs - 1)) for b, rest in groups.items()]


def _combine(alg: PoincareAlgebra, x: list, y: list, legs: int, cap: int, comm: bool) -> dict:
    """The product of two leg trees (see _grouped), or their commutator if
    comm, as accumulators {d: {(key, power of h): numerator}} (see collect)
    with no power of h past cap.  Per pair of groups (b, b') whose lowest
    powers fit the cap it forms AA' (x) bb', or [A, A'] (x) bb' + A'A (x) [b, b'],
    where A and A' combine by the same rule one leg down; at two legs, a
    flat loop over pairs of PBW words through mono_product and
    mono_commutator.  bb' is read only once some AA' or [A, A'] term is
    nonzero, and A'A only if [b, b'] is."""
    mono_product, mono_commutator = alg.mono_product, alg.mono_commutator
    accs = {}
    for b1, low1, rest1 in x:
        for b2, low2, rest2 in y:
            if low1 + low2 > cap:
                continue
            # (left operands, commutator?, right factor): None stands for bb'
            passes = [(rest1, rest2, comm, None)]
            if comm:
                comm_b = mono_commutator(b1, b2)
                if comm_b[1]:
                    passes.append((rest2, rest1, False, comm_b))
            for r1, r2, comm_a, right in passes:
                if legs > 2:
                    lefts = _combine(alg, r1, r2, legs - 1, cap, comm_a)
                    if not lefts:
                        continue
                    d_right, rights = right or mono_product(b1, b2)
                    for d, acc in lefts.items():
                        out = accs.setdefault(d * d_right, {})
                        for (m, k), c in acc.items():
                            for (mb, _), cb in rights:
                                t = (m + (mb,), k)
                                cur = out.get(t)
                                out[t] = c * cb if cur is None else cur + c * cb
                    continue
                rule = mono_commutator if comm_a else mono_product
                for a1, k1, c1 in r1:
                    budget = cap - k1
                    for a2, k2, c2 in r2:
                        if k2 > budget:
                            break
                        d, pairs = rule(a1, a2)
                        if not pairs:
                            continue
                        if right is None:
                            right = mono_product(b1, b2)
                        d_right, rights = right
                        out = accs.get(d * d_right)
                        if out is None:
                            out = accs[d * d_right] = {}
                        k, c = k1 + k2, c1 * c2
                        for (m, _), cm in pairs:
                            p = c * cm
                            for (mb, _), cb in rights:
                                t = ((m, mb), k)
                                cur = out.get(t)
                                out[t] = p * cb if cur is None else cur + p * cb
    return accs


def _combined(a: TensorElement, b: TensorElement, cap: int, comm: bool) -> tuple:
    """The canonical (numerators, denominator) of a*b, or of [a, b] if comm,
    with no power of h past cap (see _combine)."""
    alg, den = a.algebra, a.den * b.den
    if a.legs == 1:  # PBW elements, each word in a 1-tuple
        ta, tb = ({(m, k): c for ((m,), k), c in t.num.items()} for t in (a, b))
        rule = alg.mono_commutator if comm else alg.mono_product
        num, den = alg.mul_terms(ta, tb, rule, den, cap)
        return {((m,), k): c for (m, k), c in num.items()}, den
    return collect(_combine(alg, a._leg_tree(), b._leg_tree(), a.legs, cap, comm), den)


def tensor_commutator(a: TensorElement, b: TensorElement) -> TensorElement:
    """a*b - b*a by the leg-grouped kernel (see _combine): the two products
    that cancel are never formed, and a pair of groups whose lowest powers of
    h sum past the order makes no lookup."""
    a._check(b)
    return a._with(*_combined(a, b, a.algebra.order, True))


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
            names = wedge_key_text(gens, algebra.dim)
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
