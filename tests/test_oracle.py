"""An oracle that shares no code with the PBW engine.

U(iso(g)) acts on polynomials Q[x] as differential operators,

    P_mu -> d_mu,    X_{mu nu} -> x_mu d_nu - x_nu d_mu,    x_mu = g_{mu a} x^a,

with X = -iM, and a k-legged tensor acts on Q[x, x', ...] with one copy of
the coordinates per leg.  h stays a formal variable: an operator series acts
on {power of h: polynomial}, truncated at h^N.  P lowers the degree, so every
series in P (Pi, Pi^-1, C_tau) terminates on a polynomial and the evaluation
is exact.

The engine's coproduct tables are read as data (their flat terms) and
evaluated here as compositions of operators; nothing below multiplies PBW
words, so a fault in the product kernels or the normal ordering cannot hide
behind itself.  The realization is not faithful (scalar fields kill the
Pauli-Lubanski square, for example), so agreement is a necessary condition
only.
"""

import itertools
import random
from fractions import Fraction

import pytest

from kdeform import Metric
from kdeform.hopf import DeformationContext

ETA3 = Metric([[-1, 0, 0], [0, 1, 0], [0, 0, 1]])
N = 2


# -- the bracket formulas, written out ------------------------------------------


def rotation(mu, nu, d):
    """(code, sign) of X_{mu nu} = -X_{nu mu}: code mu*D + nu for mu < nu."""
    if mu == nu:
        return None, 0
    return (mu * d + nu, 1) if mu < nu else (nu * d + mu, -1)


def written_bracket(a, b, g):
    """[a, b] of two generator codes, from the formulas
    [X_{mu nu}, P_rho] = g_{nu rho} P_mu - g_{mu rho} P_nu and
    [X_{mu nu}, X_{rho lam}] = g_{mu lam} X_{nu rho} - g_{nu lam} X_{mu rho}
                               + g_{nu rho} X_{mu lam} - g_{mu rho} X_{nu lam}."""
    d = len(g)
    mom0 = d * d
    out = {}

    def add(code, c):
        if code is not None and c:
            out[code] = out.get(code, 0) + c

    if a >= mom0 and b >= mom0:
        return {}
    if a >= mom0:
        return {c: -v for c, v in written_bracket(b, a, g).items()}
    mu, nu = divmod(a, d)
    if b >= mom0:
        rho = b - mom0
        add(mom0 + mu, g[nu][rho])
        add(mom0 + nu, -g[mu][rho])
    else:
        rho, lam = divmod(b, d)
        for f, p, q in (
            (g[mu][lam], nu, rho),
            (-g[nu][lam], mu, rho),
            (g[nu][rho], mu, lam),
            (-g[mu][rho], nu, lam),
        ):
            code, sign = rotation(p, q, d)
            add(code, f * sign)
    return {c: v for c, v in out.items() if v}


# -- polynomials and the operators -------------------------------------------------


def poly_add(acc, f, scale=1):
    for e, c in f.items():
        s = acc.get(e, 0) + c * scale
        if s:
            acc[e] = s
        else:
            acc.pop(e, None)
    return acc


def derivative(f, var):
    out = {}
    for e, c in f.items():
        if e[var]:
            lowered = e[:var] + (e[var] - 1,) + e[var + 1 :]
            poly_add(out, {lowered: c * e[var]})
    return out


def times_lowered(f, g, copy, mu):
    """x_mu f = g_{mu a} x^a f in one coordinate copy."""
    d = len(g)
    out = {}
    for a in range(d):
        if g[mu][a]:
            var = copy * d + a
            shifted = {e[:var] + (e[var] + 1,) + e[var + 1 :]: c for e, c in f.items()}
            poly_add(out, shifted, g[mu][a])
    return out


def generator(code, copy, f, g):
    d = len(g)
    if code >= d * d:
        return derivative(f, copy * d + code - d * d)
    mu, nu = divmod(code, d)
    out = times_lowered(derivative(f, copy * d + nu), g, copy, mu)
    return poly_add(out, times_lowered(derivative(f, copy * d + mu), g, copy, nu), -1)


def word(mono, copy, f, g):
    """A PBW word a_1 ... a_n acts as a_1(a_2(... a_n(f)))."""
    for code in reversed(mono):
        if not f:
            break
        f = generator(code, copy, f, g)
    return f


def act(terms, copies, hf, g):
    """A tensor's flat terms {(key, power of h): c} acting on {k: polynomial},
    leg i of each key on coordinate copy copies[i]; a one-legged key is a
    monomial."""
    out = {}
    for (key, k), c in terms.items():
        legs = key if copies[1:] else (key,)
        for j, f in hf.items():
            if k + j > N:
                continue
            for copy, mono in zip(copies, legs):
                f = word(mono, copy, f, g)
            if f:
                poly_add(out.setdefault(k + j, {}), f, c)
    return {k: f for k, f in out.items() if f}


def hsum(*parts):
    """sum of (scale, {k: polynomial}) pairs."""
    out = {}
    for scale, hf in parts:
        for k, f in hf.items():
            poly_add(out.setdefault(k, {}), f, scale)
    return {k: f for k, f in out.items() if f}


def random_poly(rng, d, copies, terms=6):
    """{0: f} for a random f of degree 1 to 3 in each of the coordinate
    copies, so that every h^2 term of a coproduct (up to three momenta across
    two legs) can reach it."""
    f = {}
    for _ in range(terms):
        e = [0] * (d * copies)
        for copy in range(copies):
            for _ in range(rng.randint(1, 3)):
                e[copy * d + rng.randrange(d)] += 1
        poly_add(f, {tuple(e): Fraction(rng.randint(-3, 3) or 1, rng.randint(1, 2))})
    return {0: f}


def as_terms(coefficients):
    """{code: c} as the flat terms of a degree-one element."""
    return {((code,), 0): c for code, c in coefficients.items()}


# -- the checks ----------------------------------------------------------------------


@pytest.fixture(scope="module", params=[(1, 0, 0), (1, 1, 0)], ids=["eta3-timelike", "eta3-null"])
def ctx(request):
    return DeformationContext(ETA3, request.param, N)


def test_realization_reproduces_the_written_brackets():
    g = ETA3.rows
    d = len(g)
    codes = [c for c in range(d * d + d) if c >= d * d or c // d < c % d]
    rng = random.Random(1)
    f = random_poly(rng, d, 1)
    for a, b in itertools.product(codes, repeat=2):
        ab = act(as_terms({a: 1}), (0,), act(as_terms({b: 1}), (0,), f, g), g)
        ba = act(as_terms({b: 1}), (0,), act(as_terms({a: 1}), (0,), f, g), g)
        rhs = act(as_terms(written_bracket(a, b, g)), (0,), f, g)
        assert hsum((1, ab), (-1, ba), (-1, rhs)) == {}, (a, b)


def test_written_brackets_are_the_engines_table(ctx):
    alg = ctx.algebra
    for a, b in itertools.product(alg.generator_codes(), repeat=2):
        assert alg.bracket_codes(a, b) == written_bracket(a, b, ctx.metric.rows), (a, b)


def test_coproduct_is_a_homomorphism(ctx):
    """D([x, y]) = [D(x), D(y)] on two coordinate copies, for every pair."""
    g = ctx.metric.rows
    codes = ctx.generator_codes()
    table = {x: ctx.coproduct(x).terms for x in codes}
    rng = random.Random(2)
    f = random_poly(rng, len(g), 2)
    image = {x: act(table[x], (0, 1), f, g) for x in codes}
    for x, y in itertools.combinations(codes, 2):
        xy = act(table[x], (0, 1), image[y], g)
        yx = act(table[y], (0, 1), image[x], g)
        lhs = hsum(*((c, image[z]) for z, c in written_bracket(x, y, g).items()))
        assert hsum((1, lhs), (-1, xy), (1, yx)) == {}, (ctx.gen_name(x), ctx.gen_name(y))


def test_coproduct_is_coassociative(ctx):
    """(D (x) id) D(x) = (id (x) D) D(x) on three coordinate copies: each leg
    word a_1 ... a_n of D(x) becomes D(a_1) ... D(a_n) on two of them."""
    g = ctx.metric.rows
    codes = ctx.generator_codes()
    table = {x: ctx.coproduct(x).terms for x in codes}
    rng = random.Random(3)
    f = random_poly(rng, len(g), 3)

    def expanded(terms, split):
        """D applied to leg split of terms: that leg on copies split,
        split + 1, the other leg on the remaining copy."""
        out = {}
        for (legs, k), c in terms.items():
            hf = act({(legs[1 - split], k): c}, (2 * (1 - split),), f, g)
            for code in reversed(legs[split]):
                hf = act(table[code], (split, split + 1), hf, g)
            out = hsum((1, out), (1, hf))
        return out

    for x in codes:
        left = expanded(table[x], 0)
        right = expanded(table[x], 1)
        assert hsum((1, left), (-1, right)) == {}, ctx.gen_name(x)
