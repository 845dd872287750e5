"""The kappa-Minkowski module algebra: noncommutative coordinates with

    [x^mu, x^nu] = i h (tau^mu x^nu - tau^nu x^mu),

computed in the real coordinates y = -i x, where

    [y^mu, y^nu] = h (tau^mu y^nu - tau^nu y^mu),

and the covariant Hopf action of the deformed symmetry through the
generalized Leibniz rule

    L |> (a . b) = (L_(1) |> a) . (L_(2) |> b)

with the deformed coproduct supplying the legs.  Words are normal-ordered by
the PBW engine over the an(D-1) table of z = y / h (CoordinateAlgebra, one per
context), [z^mu, z^nu] = tau^mu z^nu - tau^nu z^mu: a word w of y's is
sum_v c_v h^(|w|-|v|) y^v for the normal form sum_v c_v z^v of w, truncated
at h^N, and CoordinateAlgebra.y_product caches that form of each pair of
words with its powers of h attached.  Generators act classically on single
coordinates as P_mu = -i d_mu and M_mn = i(x_m d_n - x_n d_m), which
represent the brackets; in X = -iM and y that is P_mu |> y^nu = -delta and
X_mn |> y^rho = y_m delta_n^rho - y_n delta_m^rho, with the coordinate index
lowered by the metric; constants are hit with the counit.  The product and
the action are PBWAlgebra.mul_terms, the one bilinear loop: of y_product over
two elements, and of the images of (PBW monomial, word) pairs over an
operator and an element.  The images are extend images cached per context:
a monomial's first generator acts on the image of the rest, and a generator
on a longer word expands by the Leibniz rule through its coproduct grouped
by left leg, cached per context; a left leg whose images are all zero is
skipped by those lookups, and each other left leg forms one product with its
right legs' sum acting on the second factor.  A check on degree-d
words of the paper's x records its y-form residual with the phase d (plus one
per rotation): x = iy.
"""

from __future__ import annotations

import time
from functools import partial
from itertools import combinations_with_replacement

from .algebra import _EMPTY, AlgebraElement, TermElement, accumulate, collect, reduced
from .errors import ContextMismatchError
from .hopf import DeformationContext
from .render import mink_text
from .reports import VerificationReport
from .scalars import split_map


class MinkowskiElement(TermElement):
    """Sparse element of the coordinate algebra in y = -i x:
    {(nondecreasing index tuple, power of h): numerator} over a denominator
    (see TermElement).  Terms given without den are checked by checked_word."""

    __slots__ = ("context",)

    def __init__(self, context: DeformationContext, terms: dict, den: int | None = None):
        self.context = context
        self.algebra = context.algebra
        if den is None:
            for word, _ in terms:
                checked_word(word, context.algebra.dim)
        self.num, self.den = split_map(terms) if den is None else (terms, den)

    def _with(self, num: dict, den: int = 1) -> "MinkowskiElement":
        return MinkowskiElement(self.context, num, den)

    def _compatible(self, other: "MinkowskiElement") -> bool:
        return _same_coordinates(self.context, other.context)

    def _scalar(self, value) -> "MinkowskiElement":
        return scalar_mink(self.context, value)

    def _i_count(self, key) -> int:
        return len(key)

    def _mul(self, other: "MinkowskiElement", cap: int) -> "MinkowskiElement":
        """The product, which is only formed at the order: cap is not read."""
        return mink_multiply(self, other)

    def _reversed(self, word: tuple) -> tuple:
        return self.context.coordinate_algebra.y_product(word[::-1], ())

    __repr__ = mink_text


def checked_word(word, dim: int) -> tuple:
    """word, if it is a normal-ordered key: a nondecreasing tuple of indices in range(dim)."""
    indices = type(word) is tuple and all(type(mu) is int and 0 <= mu < dim for mu in word)
    if not indices or any(a > b for a, b in zip(word, word[1:])):
        raise ValueError(f"coordinate word {word!r} is not nondecreasing in range({dim})")
    return word


def _same_coordinates(c1: DeformationContext, c2: DeformationContext) -> bool:
    """Whether two contexts share one coordinate algebra: metric, order and tau."""
    return c1.algebra.compatible(c2.algebra) and c1.tau.components == c2.tau.components


def scalar_mink(ctx: DeformationContext, value) -> MinkowskiElement:
    return MinkowskiElement(ctx, {((), 0): 1}, 1) * value


def coordinate(ctx: DeformationContext, mu: int) -> MinkowskiElement:
    """The real coordinate y^mu = -i x^mu."""
    return coordinate_monomial(ctx, (mu,))


def coordinate_monomial(ctx: DeformationContext, indices) -> MinkowskiElement:
    """The product y^mu1 ... y^muk: the normal form of its word."""
    word = tuple(indices)
    for mu in word:
        if not 0 <= mu < ctx.algebra.dim:
            raise IndexError(f"coordinate index {mu} out of range")
    d, pairs = ctx.coordinate_algebra.y_product(word, ())
    return MinkowskiElement(ctx, *reduced(dict(pairs), d))


def mink_multiply(a: MinkowskiElement, b: MinkowskiElement) -> MinkowskiElement:
    """a . b: the bilinear extension of CoordinateAlgebra.y_product."""
    y_product = a.context.coordinate_algebra.y_product
    return MinkowskiElement(a.context, *a.algebra.mul_terms(a.num, b.num, y_product, a.den * b.den))


# -- the Hopf action ---------------------------------------------------------------


def act(ctx: DeformationContext, op, a: MinkowskiElement) -> MinkowskiElement:
    """The module action of U(iso(g))[[h]] on the coordinate algebra: the
    bilinear extension, over the terms of op and of a, of the cached images of
    (PBW monomial, word) pairs.

    op may be an element of ctx's algebra or a generator code; products of
    generators act by successive action, scalars through the counit."""
    _check_operands(ctx, op, a)
    num, den = (op.num, op.den) if isinstance(op, AlgebraElement) else ({((op,), 0): 1}, 1)
    return MinkowskiElement(ctx, *ctx.algebra.mul_terms(num, a.num, partial(_image, ctx), den * a.den))


def _check_operands(ctx: DeformationContext, op, *coords: MinkowskiElement):
    """Reject an operator that is neither an element of ctx's algebra nor one
    of its generator codes, and coordinates of another coordinate algebra."""
    if isinstance(op, AlgebraElement):
        if not ctx.algebra.compatible(op.algebra):
            raise ContextMismatchError("operator from an incompatible algebra")
    elif op not in ctx.generator_codes():
        raise ValueError(f"{op!r} is not a generator code of {ctx.algebra!r}")
    for y in coords:
        if y.context is not ctx and not _same_coordinates(ctx, y.context):
            raise ContextMismatchError("coordinates from an incompatible context")


def _image(ctx: DeformationContext, mono: tuple, word: tuple) -> tuple:
    """A PBW monomial on a coordinate word, as (d, pairs), cached per context
    as plain tuples.  A monomial acts as its generators do one after another,
    right to left: its first generator acts on the image of the rest."""
    out = ctx._act_cache.get((mono, word))
    if out is None:
        if not mono:
            out = 1, (((word, 0), 1),)
        elif len(mono) == 1:
            out = _act_gen_word(ctx, mono[0], word)
        else:
            d, pairs = _image(ctx, mono[1:], word)
            num, den = ctx.algebra.extend(dict(pairs), lambda w, _: _image(ctx, mono[:1], w), d)
            out = den, tuple(num.items())
        ctx._act_cache[(mono, word)] = out
    return out


def _act_gen_word(ctx: DeformationContext, code: int, word: tuple) -> tuple:
    """A single generator on a single coordinate word, as (d, pairs): the
    counit (zero) on the empty word, the classical action on a coordinate,
    and the Leibniz rule through the deformed coproduct on longer words."""
    if len(word) > 1:
        head, tail = coordinate(ctx, word[0]), coordinate_monomial(ctx, word[1:])
        num, den = _leibniz(ctx, _left_legs(ctx, code), head, tail)
    elif not word:
        return _EMPTY
    else:
        (mu,) = word
        kind, idx = ctx.algebra.decode(code)
        if kind == "P":
            terms = {((), 0): -(idx == mu)}
        else:  # X_rs |> y^mu = y_r delta_s^mu - y_s delta_r^mu (r < s: not both)
            (r, s), g = idx, ctx.metric.rows
            row = g[r] if s == mu else [-c for c in g[s]] if r == mu else ()
            terms = {((n,), 0): c for n, c in enumerate(row)}
        num, den = split_map(terms)
    return den, tuple(num.items())


def act_on_product(
    ctx: DeformationContext, op, a: MinkowskiElement, b: MinkowskiElement
) -> MinkowskiElement:
    """The top-level Leibniz expansion L |> (a . b) = sum (L_(1) |> a)(L_(2) |> b),
    computed without multiplying a and b first (this is what makes the
    covariance check non-vacuous).  op is as in act."""
    _check_operands(ctx, op, a, b)
    coproduct = _by_left_leg(ctx.coproduct_of(op)) if isinstance(op, AlgebraElement) else _left_legs(ctx, op)
    return MinkowskiElement(ctx, *_leibniz(ctx, coproduct, a, b))


def _left_legs(ctx: DeformationContext, code: int) -> tuple:
    """_by_left_leg of a generator's coproduct, kept per context under its code."""
    out = ctx._act_cache.get(code)
    if out is None:
        out = ctx._act_cache[code] = _by_left_leg(ctx.coproduct(code))
    return out


def _by_left_leg(coproduct) -> tuple:
    """A coproduct as (den, ((left leg, {(right leg, power of h): numerator}), ...))."""
    groups = {}
    for ((m1, m2), k), c in coproduct.num.items():
        groups.setdefault(m1, {})[(m2, k)] = c
    return coproduct.den, tuple(groups.items())


def _leibniz(ctx: DeformationContext, coproduct: tuple, a: MinkowskiElement, b: MinkowskiElement):
    """sum (L_(1) |> a)(L_(2) |> b) over a coproduct of L by left leg, as (num,
    den): a left leg whose images on the words of a are all zero is skipped by
    those lookups alone, and any other forms one product with its right legs' sum on b."""
    den, groups = coproduct
    mul_terms, rule, y_product = ctx.algebra.mul_terms, partial(_image, ctx), ctx.coordinate_algebra.y_product
    accs = {}
    for m1, rights in groups:
        if not any(_image(ctx, m1, w)[1] for w, _ in a.num):
            continue
        left, dl = mul_terms({(m1, 0): 1}, a.num, rule, a.den)
        right, dr = mul_terms(rights, b.num, rule, b.den)
        num, d = mul_terms(left, right, y_product, dl * dr)
        acc = accs.setdefault(d, {})
        for t, c in num.items():
            accumulate(acc, t, c)
    return collect(accs, den)


MAX_DEGREE = 3  # of the coordinate words the covariance checks act on


def verify_covariance(ctx: DeformationContext) -> VerificationReport:
    """Module-algebra covariance of the coordinate relations.

    Checks, exactly modulo h^(N+1): every generator annihilates the defining
    relation (computed through the two orderings before normal ordering);
    the representation property (L1 L2) |> a = L1 |> (L2 |> a) across the PBW
    rewrite; the Leibniz compatibility on split monomials; unit/counit axioms;
    centrality of the Casimir action; and the reality of the relations, on
    words up to degree MAX_DEGREE.  The representation, Leibniz, Casimir and
    reality checks record each failure, or one passing summary if none."""
    t0 = time.monotonic()
    rep = VerificationReport("kappa-minkowski")
    alg = ctx.algebra
    d = alg.dim
    codes = ctx.generator_codes()
    tau = ctx.tau.components
    ph = alg.i_count

    for code in codes:
        name = ctx.gen_name(code)
        for mu in range(d):
            for nu in range(mu + 1, d):
                xmu, xnu = coordinate(ctx, mu), coordinate(ctx, nu)
                lhs = act_on_product(ctx, code, xmu, xnu) - act_on_product(ctx, code, xnu, xmu)
                rhs = (act(ctx, code, xnu) * tau[mu] - act(ctx, code, xmu) * tau[nu]).times_h(1)
                label, n = f"{name} on [x{mu},x{nu}]", ph((code,)) + 2
                rep.record("relation-preserved-under-action", lhs - rhs, label, phase=n)

    monomials = [m for k in range(1, MAX_DEGREE + 1) for m in combinations_with_replacement(range(d), k)]
    coords = {m: coordinate_monomial(ctx, m) for m in [(), *monomials]}

    after = {(c2, mono): act(ctx, c2, coords[mono]) for c2 in codes[:-1] for mono in monomials}
    for i, c1 in enumerate(codes):
        e1 = ctx.gen_element(c1)
        for c2 in codes[:i]:  # out of PBW order, so e1 * e2 is rewritten
            e2 = ctx.gen_element(c2)
            prod = e1 * e2
            for mono in monomials:
                a = coords[mono]
                lhs = act(ctx, prod, a)
                rhs = act(ctx, c1, after[c2, mono])
                residual = lhs - rhs
                if not residual.is_zero:
                    label = f"{ctx.gen_name(c1)} {ctx.gen_name(c2)} on x{list(mono)}"
                    n = ph((c1, c2)) + len(mono)
                    rep.record("successive-action-representation", residual, label, phase=n)
    _summary(rep, "successive-action-representation", "all pairs, all monomials")

    # act on a word splits it at its first letter (_act_gen_word), so cut 1 compares it with itself
    for code in codes:
        for mono in monomials:
            for cut in range(2, len(mono)):
                a = coords[mono[:cut]]
                b = coords[mono[cut:]]
                lhs = act(ctx, code, a * b)
                rhs = act_on_product(ctx, code, a, b)
                residual = lhs - rhs
                if not residual.is_zero:
                    label = f"{ctx.gen_name(code)} on x{list(mono)} split {cut}"
                    n = ph((code,)) + len(mono)
                    rep.record("leibniz-compatibility", residual, label, phase=n)
    _summary(rep, "leibniz-compatibility", "all generators, all splits")

    some = [m for m in monomials if len(m) <= 2]
    for mono in some:
        a = coords[mono]
        rep.record("unit-acts-as-identity", act(ctx, alg.one(), a) - a, phase=len(mono))
    for code in codes:
        residual = act(ctx, code, scalar_mink(ctx, 1))
        rep.record("action-on-unit-is-counit", residual, ctx.gen_name(code), phase=ph((code,)))

    cas = ctx.casimir
    for code in codes:
        for mono in some:
            a = coords[mono]
            lhs = act(ctx, cas, act(ctx, code, a))
            rhs = act(ctx, code, act(ctx, cas, a))
            residual = lhs - rhs
            if not residual.is_zero:
                label, n = f"{ctx.gen_name(code)} on x{list(mono)}", ph((code,)) + len(mono)
                rep.record("casimir-action-commutes", residual, label, phase=n)
    _summary(rep, "casimir-action-commutes", "degree <= 2")

    for mono in monomials:
        for cut in range(0, len(mono) + 1):
            a = coords[mono[:cut]]
            b = coords[mono[cut:]]
            residual = (a * b).star() - b.star() * a.star()
            if not residual.is_zero:
                label = f"x{list(mono)} split {cut}"
                rep.record("star-anti-involution", residual, label, phase=-len(mono))
    _summary(rep, "star-anti-involution", "reality of the relations")

    rep.seconds = time.monotonic() - t0
    return rep


def _summary(rep: VerificationReport, name: str, note: str):
    """The passing summary of a check that records only its failures, if none."""
    if not any(c.name == name for c in rep.failures()):
        rep.record_bool(name, True, note=note)
