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
at h^N; two normal-ordered words multiply by the engine's mono_product, which
answers a sorted concatenation without a scan.  Generators act classically on
single coordinates as P_mu = -i d_mu and M_mn = i(x_m d_n - x_n d_m), which
represent the brackets; in X = -iM and y that is P_mu |> y^nu = -delta and
X_mn |> y^rho = y_m delta_n^rho - y_n delta_m^rho, with the coordinate index
lowered by the metric; constants are hit with the counit.  The action is the
linear extension of the images of (PBW monomial, word) pairs, cached per
context as (d, pairs) tuples: a monomial's first generator acts on the image
of the rest, and a generator on a longer word expands by the Leibniz rule, in
which each distinct leg monomial acts once per expansion and a term whose
left leg annihilates is dropped.  A check on degree-d words of the paper's x
records its y-form residual with the phase d (plus one per rotation): x = iy.
"""

from __future__ import annotations

import time
from itertools import combinations_with_replacement

from .algebra import _EMPTY, AlgebraElement, TermElement, reduced
from .errors import ContextMismatchError
from .hopf import DeformationContext
from .render import mink_text
from .reports import VerificationReport
from .scalars import split_map


class MinkowskiElement(TermElement):
    """Sparse element of the coordinate algebra in y = -i x:
    {(nondecreasing index tuple, power of h): numerator} over a denominator
    (see TermElement)."""

    __slots__ = ("context",)

    def __init__(self, context: DeformationContext, terms: dict, den: int | None = None):
        self.context = context
        self.algebra = context.algebra
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
        return _in_y(len(word), self.context.coordinate_algebra.normal_order(word[::-1]))

    __repr__ = mink_text


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
    d, pairs = _in_y(len(word), ctx.coordinate_algebra.normal_order(word))
    return MinkowskiElement(ctx, *reduced({t: c for t, c in pairs if t[1] <= ctx.order}, d))


def _in_y(length: int, image: tuple) -> tuple:
    """The normal form (d, pairs) in z = y / h of a word of the given length,
    read in y as an extend rule's image: each word v at h^(length - |v|)."""
    d, pairs = image
    return d, [((v, length - len(v)), c) for v, c in pairs]


def mink_multiply(a: MinkowskiElement, b: MinkowskiElement) -> MinkowskiElement:
    """a . b: the linear extension over a of each word's product with b, and
    over b of each product of two normal-ordered words, mono_product of the
    coordinates' table read in y (see _in_y)."""
    ctx = a.context
    extend, mono_product = a.algebra.extend, ctx.coordinate_algebra.mono_product

    def times_b(w1, _budget):
        num, den = extend(b.num, lambda w2, _: _in_y(len(w1) + len(w2), mono_product(w1, w2)), b.den)
        return den, num.items()

    return MinkowskiElement(ctx, *extend(a.num, times_b, a.den))


# -- the Hopf action ---------------------------------------------------------------


def act(ctx: DeformationContext, op, a: MinkowskiElement) -> MinkowskiElement:
    """The module action of U(iso(g))[[h]] on the coordinate algebra: the
    linear extension, over the terms of op and of a, of the cached images of
    (PBW monomial, word) pairs.

    op may be an element of ctx's algebra or a generator code; products of
    generators act by successive action, scalars through the counit."""
    _check_operands(ctx, op, a)
    if isinstance(op, AlgebraElement):
        num, den = ctx.algebra.extend(op.num, lambda m, _: _act_mono(ctx, m, a).as_image(), op.den)
        return MinkowskiElement(ctx, num, den)
    return _act_mono(ctx, (op,), a)


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


def _act_mono(ctx: DeformationContext, mono: tuple, a: MinkowskiElement) -> MinkowskiElement:
    """A PBW monomial on an element: the linear extension of its word images."""
    num, den = ctx.algebra.extend(a.num, lambda w, _: _image(ctx, mono, w), a.den)
    return MinkowskiElement(ctx, num, den)


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
        num, den = _leibniz(ctx, ctx.coproduct(code), head, tail)
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
    coproduct = ctx.coproduct_of(op) if isinstance(op, AlgebraElement) else ctx.coproduct(op)
    return MinkowskiElement(ctx, *_leibniz(ctx, coproduct, a, b))


def _leibniz(ctx: DeformationContext, coproduct, a: MinkowskiElement, b: MinkowskiElement):
    """sum (L_(1) |> a)(L_(2) |> b) over the terms of a coproduct of L, as
    (num, den).  Each distinct leg monomial acts once per call, and a term
    whose left leg acts as zero is skipped before its right leg acts."""
    lefts, rights = {}, {}

    def image(key, _budget):
        m1, m2 = key
        left = lefts.get(m1)
        if left is None:
            left = lefts[m1] = _act_mono(ctx, m1, a)
        if not left:
            return _EMPTY
        right = rights.get(m2)
        if right is None:
            right = rights[m2] = _act_mono(ctx, m2, b)
        return (left * right).as_image() if right else _EMPTY

    return ctx.algebra.extend(coproduct.num, image, coproduct.den)


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

    for i, c1 in enumerate(codes):
        e1 = ctx.gen_element(c1)
        for c2 in codes[:i]:  # out of PBW order, so e1 * e2 is rewritten
            e2 = ctx.gen_element(c2)
            prod = e1 * e2
            for mono in monomials:
                a = coords[mono]
                lhs = act(ctx, prod, a)
                rhs = act(ctx, c1, act(ctx, c2, a))
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
