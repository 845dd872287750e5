"""The kappa-Minkowski module algebra: noncommutative coordinates with

    [x^mu, x^nu] = i h (tau^mu x^nu - tau^nu x^mu),

computed in the real coordinates y = -i x, where

    [y^mu, y^nu] = h (tau^mu y^nu - tau^nu y^mu),

normal-ordered on nondecreasing index words, and the covariant Hopf action of
the deformed symmetry through the generalized Leibniz rule

    L |> (a . b) = (L_(1) |> a) . (L_(2) |> b)

with the deformed coproduct supplying the legs.  Generators act classically on
single coordinates as P_mu = -i d_mu and M_mn = i(x_m d_n - x_n d_m), which
represent the brackets; in X = -iM and y that is P_mu |> y^nu = -delta and
X_mn |> y^rho = y_m delta_n^rho - y_n delta_m^rho, with the coordinate index
lowered by the metric; constants are hit with the counit.  A series leg acting
on a degree-d word is finite: every momentum word longer than d annihilates
it.  A check on degree-d words of the paper's x records its y-form residual
with the phase d (plus one per rotation): x = iy.
"""

from __future__ import annotations

import time

from .algebra import AlgebraElement, TermElement, accumulate
from .scalars import rational
from .errors import ContextMismatchError
from .hopf import DeformationContext
from .reports import VerificationReport


class MinkowskiElement(TermElement):
    """Sparse element of the coordinate algebra in y = -i x:
    {(nondecreasing index tuple, power of h): coefficient}."""

    __slots__ = ("context",)

    def __init__(self, context: DeformationContext, terms: dict):
        self.context = context
        self.algebra = context.algebra
        self.terms = terms

    def _with(self, terms: dict, algebra=None) -> "MinkowskiElement":
        # coordinates live in their deformation context; a projection can
        # only target the context's own algebra
        if algebra is not None and not algebra.compatible(self.algebra):
            raise ContextMismatchError("coordinate elements cannot change their context")
        return MinkowskiElement(self.context, terms)

    def _compatible(self, other: "MinkowskiElement") -> bool:
        return self.algebra.compatible(other.algebra) and (
            self.context.tau.components == other.context.tau.components
        )

    def _scalar(self, value) -> "MinkowskiElement":
        return scalar_mink(self.context, value)

    def _i_count(self, key) -> int:
        return len(key)

    def __mul__(self, other):
        if isinstance(other, MinkowskiElement):
            self._check(other)
            return mink_multiply(self, other)
        return TermElement.__mul__(self, other)

    def star(self) -> "MinkowskiElement":
        """Antilinear anti-involution fixing the coordinates x (tau real), so
        y* = -y."""
        ctx = self.context
        return self._star_by(
            lambda mono, _: [
                (t, c * (-1) ** len(mono))
                for t, c in _coord_normal_order(ctx, tuple(reversed(mono))).items()
            ]
        )

    def degree(self) -> int:
        return max((len(m) for m, _ in self.terms), default=0)

    def __repr__(self):
        from .render import mink_text

        return mink_text(self)


def scalar_mink(ctx: DeformationContext, value) -> MinkowskiElement:
    return MinkowskiElement(ctx, {((), 0): 1}) * value


def coordinate(ctx: DeformationContext, mu: int) -> MinkowskiElement:
    """The real coordinate y^mu = -i x^mu."""
    if not 0 <= mu < ctx.algebra.dim:
        raise IndexError(f"coordinate index {mu} out of range")
    return MinkowskiElement(ctx, {((mu,), 0): 1})


def coordinate_monomial(ctx: DeformationContext, indices) -> MinkowskiElement:
    out = scalar_mink(ctx, 1)
    for mu in indices:
        out = out * coordinate(ctx, mu)
    return out


def _coord_normal_order(ctx: DeformationContext, word: tuple) -> dict:
    """Normal order a coordinate word, as flat terms {(word, power of h):
    coefficient}.  Each swap of an out-of-order adjacent pair (mu > nu)
    emits the linear correction h (tau^mu y^nu - tau^nu y^mu), one power of
    h up: the only key product that shifts h."""
    cache = ctx._mink_no_cache
    out = cache.get(word)
    if out is not None:
        return out
    for i in range(len(word) - 1):
        if word[i] > word[i + 1]:
            break
    else:
        out = {(word, 0): 1}
        cache[word] = out
        return out
    N = ctx.algebra.order
    mu, nu = word[i], word[i + 1]
    head, tail = word[:i], word[i + 2 :]
    acc = dict(_coord_normal_order(ctx, head + (nu, mu) + tail))
    tau = ctx.tau.components
    for comp, keep in ((tau[mu], nu), (-tau[nu], mu)):
        if not comp:
            continue
        for (m, j), c in _coord_normal_order(ctx, head + (keep,) + tail).items():
            if j < N:
                accumulate(acc, (m, j + 1), c * comp)
    out = {t: rational(c) for t, c in acc.items() if c}
    cache[word] = out
    return out


def mink_multiply(a: MinkowskiElement, b: MinkowskiElement) -> MinkowskiElement:
    """a . b: every pair of words is concatenated and normal ordered, which
    weights the corrections by powers of h.  The product is bilinear, so it
    is the linear extension over a of each word's product with b."""
    ctx = a.context
    extend = a.algebra.extend

    def times_b(w1, _budget):
        return extend(b.terms, lambda w2, _: _coord_normal_order(ctx, w1 + w2).items()).items()

    return MinkowskiElement(ctx, extend(a.terms, times_b))


# -- the Hopf action ---------------------------------------------------------------


def act(ctx: DeformationContext, op, a: MinkowskiElement) -> MinkowskiElement:
    """The module action of U(iso(g))[[h]] on the coordinate algebra.

    op may be an AlgebraElement or a generator code; products of generators act
    by successive action, scalars through the counit."""
    if isinstance(op, AlgebraElement):
        terms = ctx.algebra.extend(op.terms, lambda mono, _: _act_word(ctx, mono, a).terms.items())
        return MinkowskiElement(ctx, terms)
    return _act_word(ctx, (op,), a)


def _act_word(ctx: DeformationContext, word: tuple, a: MinkowskiElement) -> MinkowskiElement:
    for code in reversed(word):
        a = _act_gen(ctx, code, a)
    return a


def _act_gen(ctx: DeformationContext, code: int, a: MinkowskiElement) -> MinkowskiElement:
    terms = ctx.algebra.extend(
        a.terms, lambda mono, _: _act_gen_mono(ctx, code, mono).terms.items()
    )
    return MinkowskiElement(ctx, terms)


def _act_gen_mono(ctx: DeformationContext, code: int, cmono: tuple) -> MinkowskiElement:
    """A single generator on a single coordinate word, via the Leibniz rule
    through the deformed coproduct; cached per context."""
    cache = ctx._act_cache
    key = (code, cmono)
    out = cache.get(key)
    if out is not None:
        return out
    if not cmono:
        out = scalar_mink(ctx, 0)  # generators have vanishing counit
    elif len(cmono) == 1:
        out = _act_gen_coordinate(ctx, code, cmono[0])
    else:
        head, tail = cmono[:1], cmono[1:]
        head_elem = MinkowskiElement(ctx, {(head, 0): 1})
        tail_elem = MinkowskiElement(ctx, {(tail, 0): 1})
        out = _leibniz(ctx, ctx.coproduct(code), head_elem, tail_elem)
    cache[key] = out
    return out


def _act_gen_coordinate(ctx: DeformationContext, code: int, mu: int) -> MinkowskiElement:
    alg = ctx.algebra
    kind, idx = alg.decode(code)
    if kind == "P":
        return scalar_mink(ctx, -1 if idx == mu else 0)
    rho, sig = idx
    g = ctx.metric.rows
    # y_rho when sig == mu, -y_sig when rho == mu (rho < sig: not both)
    if sig == mu:
        lowered, sign = g[rho], 1
    elif rho == mu:
        lowered, sign = g[sig], -1
    else:
        return scalar_mink(ctx, 0)
    return MinkowskiElement(
        ctx, {((nu,), 0): rational(sign * c) for nu, c in enumerate(lowered) if c}
    )


def act_on_product(
    ctx: DeformationContext, op: AlgebraElement, a: MinkowskiElement, b: MinkowskiElement
) -> MinkowskiElement:
    """The top-level Leibniz expansion L |> (a . b) = sum (L_(1) |> a)(L_(2) |> b),
    computed without multiplying a and b first (this is what makes the
    covariance check non-vacuous)."""
    return _leibniz(ctx, ctx.coproduct_of(op), a, b)


def _leibniz(ctx: DeformationContext, coproduct, a: MinkowskiElement, b: MinkowskiElement):
    """sum (L_(1) |> a)(L_(2) |> b) over the terms of a coproduct of L."""

    def image(key, _budget):
        left = _act_word(ctx, key[0], a)
        if left.is_zero:
            return ()
        right = _act_word(ctx, key[1], b)
        return (left * right).terms.items() if right else ()

    return MinkowskiElement(ctx, ctx.algebra.extend(coproduct.terms, image))


def verify_covariance(ctx: DeformationContext, max_degree: int = 3) -> VerificationReport:
    """Module-algebra covariance of the coordinate relations.

    Checks, exactly modulo h^(N+1): every generator annihilates the defining
    relation (computed through the two orderings before normal ordering);
    the representation property (L1 L2) |> a = L1 |> (L2 |> a) across the PBW
    rewrite; the Leibniz compatibility on split monomials; unit/counit axioms;
    centrality of the Casimir action; and the reality of the relations."""
    t0 = time.monotonic()
    rep = VerificationReport("kappa-minkowski")
    alg = ctx.algebra
    d = alg.dim
    codes = ctx.generator_codes()
    tau = ctx.tau.components
    h1 = alg.h(1)
    ph = alg.i_count

    for code in codes:
        name = ctx.gen_name(code)
        for mu in range(d):
            for nu in range(mu + 1, d):
                xmu, xnu = coordinate(ctx, mu), coordinate(ctx, nu)
                gen_elem = ctx.gen_element(code)
                lhs = act_on_product(ctx, gen_elem, xmu, xnu) - act_on_product(
                    ctx, gen_elem, xnu, xmu
                )
                rhs = (act(ctx, code, xnu) * tau[mu] - act(ctx, code, xmu) * tau[nu]) * h1
                label, n = f"{name} on [x{mu},x{nu}]", ph((code,)) + 2
                rep.record("relation-preserved-under-action", lhs - rhs, label, phase=n)

    monomials = _monomials_up_to(d, max_degree)

    for i, c1 in enumerate(codes):
        e1 = ctx.gen_element(c1)
        for c2 in codes[:i]:  # out of PBW order, so e1 * e2 is rewritten
            e2 = ctx.gen_element(c2)
            prod = e1 * e2
            for mono in monomials:
                a = coordinate_monomial(ctx, mono)
                lhs = act(ctx, prod, a)
                rhs = act(ctx, c1, act(ctx, c2, a))
                residual = lhs - rhs
                if not residual.is_zero:
                    label = f"{ctx.gen_name(c1)} {ctx.gen_name(c2)} on x{list(mono)}"
                    n = ph((c1, c2)) + len(mono)
                    rep.record("successive-action-representation", residual, label, phase=n)
    rep.record_bool("successive-action-representation", True, note="all pairs, all monomials")

    for code in codes:
        gen_elem = ctx.gen_element(code)
        for mono in monomials:
            for cut in range(1, len(mono)):
                a = coordinate_monomial(ctx, mono[:cut])
                b = coordinate_monomial(ctx, mono[cut:])
                lhs = act(ctx, gen_elem, a * b)
                rhs = act_on_product(ctx, gen_elem, a, b)
                residual = lhs - rhs
                if not residual.is_zero:
                    label = f"{ctx.gen_name(code)} on x{list(mono)} split {cut}"
                    n = ph((code,)) + len(mono)
                    rep.record("leibniz-compatibility", residual, label, phase=n)
    rep.record_bool("leibniz-compatibility", True, note="all generators, all splits")

    some = [m for m in monomials if len(m) <= 2]
    for mono in some:
        a = coordinate_monomial(ctx, mono)
        rep.record("unit-acts-as-identity", act(ctx, alg.one(), a) - a, phase=len(mono))
    for code in codes:
        residual = act(ctx, code, scalar_mink(ctx, 1))
        rep.record("action-on-unit-is-counit", residual, ctx.gen_name(code), phase=ph((code,)))

    cas = ctx.casimir
    for code in codes:
        for mono in some:
            a = coordinate_monomial(ctx, mono)
            lhs = act(ctx, cas, act(ctx, code, a))
            rhs = act(ctx, code, act(ctx, cas, a))
            residual = lhs - rhs
            if not residual.is_zero:
                label, n = f"{ctx.gen_name(code)} on x{list(mono)}", ph((code,)) + len(mono)
                rep.record("casimir-action-commutes", residual, label, phase=n)
    rep.record_bool("casimir-action-commutes", True, note="degree <= 2")

    for mono in monomials:
        for cut in range(0, len(mono) + 1):
            a = coordinate_monomial(ctx, mono[:cut])
            b = coordinate_monomial(ctx, mono[cut:])
            residual = (a * b).star() - b.star() * a.star()
            if not residual.is_zero:
                label = f"x{list(mono)} split {cut}"
                rep.record("star-anti-involution", residual, label, phase=-len(mono))
    rep.record_bool("star-anti-involution", True, note="reality of the relations")

    rep.seconds = time.monotonic() - t0
    return rep


def _monomials_up_to(d: int, max_degree: int):
    out = []
    frontier = [()]
    for _ in range(max_degree):
        nxt = []
        for m in frontier:
            start = m[-1] if m else 0
            for mu in range(start, d):
                nxt.append(m + (mu,))
        out.extend(nxt)
        frontier = nxt
    return out
