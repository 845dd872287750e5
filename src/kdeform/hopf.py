"""The deformed Hopf structure on U(iso(g))[[h]] in the classical basis.

For a pair (metric g, vector tau) the deformation is carried entirely by the
coproducts and antipodes; the commutation relations stay classical.  The
building blocks are

    Pi_tau = h P_tau + sqrt(1 + h^2 tau^2 C)          (group-like)
    C_tau  = 2 sum_{n>=1} binom(1/2, n) (tau^2)^{n-1} h^{2n-2} C^n
    q      = kappa (Pi_tau - 1) = P_tau + tau^2/2 h C_tau

with C the quadratic Casimir.  C_tau is defined by the explicit series with
(tau^2)^{n-1} so the null case tau^2 = 0 is exact and uniform (C_tau = C).
q is exact at order N because C_tau is, so every series the Majid-Ruegg
generators and the twist divide by h is a series in q (see algebra.kappa_log).

The generator coproducts are

    D(P_mu) = P_mu (x) Pi + 1 (x) P_mu
              - h tau_mu (P^a Pi^-1) (x) P_a
              - h^2/2 tau_mu (C_tau Pi^-1) (x) P_tau
    D(X_mn) = X_mn (x) 1 + 1 (x) X_mn
              + h (P^a Pi^-1) (x) (tau_n X_{a mu} - tau_mu X_{a nu})
              - h^2/2 (C_tau Pi^-1) (x) (tau_mu X_{tau nu} - tau_nu X_{tau mu})

and the antipodes

    S(P_mu) = -(P_mu + h tau_mu (C + h/2 P_tau C_tau)) Pi^-1
    S(X_mn) = -X_mn + h P^a (tau_n X_{a mu} - tau_mu X_{a nu})
              + h^2/2 C_tau (tau_n X_{tau mu} - tau_mu X_{tau nu})

all with summation over the raised index a, and all rational.  Both rotation
formulas are linear in the rotations, so the paper's D(M_mn) and S(M_mn) are
i times them.  tau = 0 is accepted and yields the undeformed Hopf algebra.

A check about the paper's generators records the residual of its X-form
together with the power of i that turns it back into the residual of the
M-form identity: the number of rotations among the generators it is about.
"""

from __future__ import annotations

import time
import weakref
from fractions import Fraction
from functools import cached_property

from .algebra import (
    AlgebraElement,
    CoordinateAlgebra,
    Metric,
    MonomialMap,
    PoincareAlgebra,
    VectorTau,
    accumulate,
    collect,
    series_invert,
)
from .errors import InternalConsistencyError
from .reports import VerificationReport
from .scalars import I_POWERS, binom_half, split
from .tensors import TensorElement, r_matrix, tensor_commutator
from .render import gen_text

_HALF = Fraction(1, 2)


class DeformationContext:
    """Everything derived from (g, tau, N): the algebra, the deformation series
    C_tau, q = kappa (Pi_tau - 1) (pi_quotient), Pi_tau and Pi_tau^-1, and the
    coproduct and antipode tables with their memoised monomial images.
    Immutable after construction; caches are fill-once.

    shift perturbs the coproduct tables, for negative controls: {code:
    {(key, power of h): value}} adds those terms to the coproduct of the
    paper's generator with that code (M or P), stated in M and P."""

    def __init__(
        self, metric: Metric, tau, order: int, algebra: PoincareAlgebra | None = None, shift=None
    ):
        if algebra is not None and (algebra.metric != metric or algebra.order != order):
            raise ValueError("supplied algebra does not match the metric/order")
        self.algebra = algebra if algebra is not None else PoincareAlgebra(metric, order)
        self.metric = metric
        self.order = order
        self.tau = tau if isinstance(tau, VectorTau) else VectorTau(metric, tau)
        alg = self.algebra

        self.p_tau, self.x_tau = alg.contract_tau(self.tau)
        self.casimir = alg.casimir()

        self._p_raised = [alg.momentum_raised(a) for a in range(alg.dim)]
        self.c_tau = self._build_c_tau()
        self.pi_quotient = self.p_tau + self.c_tau.times_h(1, _HALF * self.tau.tau_sq)
        self.pi = alg.one() + self.pi_quotient.times_h(1)
        self.pi_inv = self._build_pi_inv()

        self._coproducts = {}
        self._antipodes = {}
        # D(X) = -i D(M), in the engine's symbols
        self._shift = {
            code: TensorElement(alg, 2, terms).in_symbols(1) * I_POWERS[-alg.i_count((code,)) % 4]
            for code, terms in (shift or {}).items()
        }
        # the coproduct, undeformed coproduct and antipode of PBW monomials;
        # the maps reach this context through a weak reference, so that a
        # dropped context is freed at once, not by the cyclic collector
        me = weakref.proxy(self)
        unit2 = TensorElement.unit(alg, 2)
        self.mono_coproduct = MonomialMap(unit2, lambda code: me.coproduct(code))
        self.mono_primitive = MonomialMap(unit2, lambda code: me._primitive_gen(code))
        self.mono_antipode = MonomialMap(alg.one(), lambda code: me.antipode(code), anti=True)
        # kappa-Minkowski: the coordinates' table; action images and grouped coproducts
        self.coordinate_algebra = CoordinateAlgebra(self.tau, order)
        self._act_cache = {}

    # -- deformation series -------------------------------------------------

    def _build_pi_inv(self) -> AlgebraElement:
        """Pi^-1 two ways: plain series inversion, and the closed form
        (Pi - 2 h P_tau) / (1 + h^2 (tau^2 C - P_tau^2)) expanded geometrically,
        whose numerator is sqrt(1 + h^2 tau^2 C) - h P_tau.  Disagreement is a
        defect, not bad input."""
        alg = self.algebra
        route_a = series_invert(self.pi)
        t2 = self.tau.tau_sq
        denom = alg.one() + (self.casimir * t2 - self.p_tau * self.p_tau).times_h(2)
        route_b = (self.pi - self.p_tau.times_h(1, 2)) * series_invert(denom)
        if route_a != route_b:
            raise InternalConsistencyError(
                "series inverse and closed form of Pi_tau^-1 disagree"
            )
        return route_a

    def _build_c_tau(self) -> AlgebraElement:
        alg = self.algebra
        t2 = self.tau.tau_sq
        out = alg.zero()
        cpow = alg.one()
        for n in range(1, alg.order // 2 + 2):
            cpow = cpow * self.casimir
            c = 2 * binom_half(n) * t2 ** (n - 1)
            out = out + cpow.times_h(2 * n - 2, c)
        return out

    # -- structure maps on generators ------------------------------------------

    @cached_property
    def _shared_lefts(self) -> list:
        """W_a = h U_a + h^2/2 tau^a V for U_a = P^a Pi^-1 and V = C_tau Pi^-1,
        each formed once: the left legs of every coproduct's O(h) part."""
        v = self.c_tau * self.pi_inv
        return [
            (p * self.pi_inv).times_h(1) + v.times_h(2, _HALF * t)
            for p, t in zip(self._p_raised, self.tau.components)
        ]

    @cached_property
    def _antipode_tail(self) -> AlgebraElement:
        """(C + h/2 P_tau C_tau) Pi^-1, shared by every S(P_mu)."""
        extra = self.casimir + (self.p_tau * self.c_tau).times_h(1, _HALF)
        return extra * self.pi_inv

    @cached_property
    def _rotation_tails(self) -> list:
        """Y_l + Z_l for Y_l = h P^a X_{a l} and Z_l = h^2/2 C_tau X_{tau l},
        each formed once: S(X_mn) = -X_mn + tau_n (Y_m + Z_m) - tau_m (Y_n + Z_n)."""
        alg = self.algebra
        return [
            sum((p * alg.X(a, lam) for a, p in enumerate(self._p_raised)), alg.zero()).times_h(1)
            + (self.c_tau * x).times_h(2, _HALF)
            for lam, x in enumerate(self.x_tau)
        ]

    def coproduct(self, code: int) -> TensorElement:
        """The deformed coproduct of a basis generator."""
        t = self._coproducts.get(code)
        if t is None:
            t = self._coproduct_uncached(code)
            if code in self._shift:
                t = t + self._shift[code]
            self._coproducts[code] = t
        return t

    def _coproduct_uncached(self, code: int) -> TensorElement:
        """The module docstring's formulas with P_tau = tau^a P_a and
        X_{tau l} = tau^a X_{a l}: g (x) Pi for g = P_mu, g (x) 1 for g = X_mn,
        plus 1 (x) g, plus sum_a W_a (x) w_a, where w_a is -tau_mu P_a or
        tau_n X_{a mu} - tau_mu X_{a nu}.  Every term is a key rewrite."""
        alg = self.algebra
        kind, idx = alg.decode(code)
        cov = self.tau.covariant
        right = self.pi if kind == "P" else alg.one()
        accs = {right.den: {(((code,), m), k): c for (m, k), c in right.num.items()}}
        accumulate(accs.setdefault(1, {}), (((), (code,)), 0), 1)
        if kind == "P":
            legs = [(a, -cov[idx], alg.momentum_code(a), 1) for a in range(alg.dim)]
        else:
            mu, nu = idx
            legs = [
                (a, f, *alg.rotation_code(a, lam))
                for a in range(alg.dim)
                for lam, f in ((mu, cov[nu]), (nu, -cov[mu]))
            ]
        for a, f, g, sign in legs:
            if f and sign:
                n, d = split(f * sign)
                w = self._shared_lefts[a]
                acc = accs.setdefault(w.den * d, {})
                for (m, k), c in w.num.items():
                    accumulate(acc, ((m, (g,)), k), c * n)
        return TensorElement(alg, 2, *collect(accs))

    def antipode(self, code: int) -> AlgebraElement:
        a = self._antipodes.get(code)
        if a is None:
            a = self._antipode_uncached(code)
            self._antipodes[code] = a
        return a

    def _antipode_uncached(self, code: int) -> AlgebraElement:
        alg = self.algebra
        kind, idx = alg.decode(code)
        cov = self.tau.covariant
        gen = self.gen_element(code)
        if kind == "P":
            out = -(gen * self.pi_inv)
            return out - self._antipode_tail.times_h(1, cov[idx]) if cov[idx] else out
        mu, nu = idx
        return self._rotation_tails[mu] * cov[nu] - self._rotation_tails[nu] * cov[mu] - gen

    # -- multiplicative extensions -----------------------------------------------

    def coproduct_of(self, a: AlgebraElement) -> TensorElement:
        """Linear-multiplicative extension of the deformed coproduct."""
        alg = self.algebra
        return TensorElement(alg, 2, *alg.extend(a.num, self.mono_coproduct.pairs, a.den))

    def primitive_of(self, a: AlgebraElement) -> TensorElement:
        """Extension of the undeformed coproduct D0(x) = x (x) 1 + 1 (x) x."""
        alg = self.algebra
        return TensorElement(alg, 2, *alg.extend(a.num, self.mono_primitive.pairs, a.den))

    def _primitive_gen(self, code: int) -> TensorElement:
        gen, one = self.gen_element(code), self.algebra.one()
        return TensorElement.of(gen, one) + TensorElement.of(one, gen)

    def antipode_of(self, a: AlgebraElement) -> AlgebraElement:
        """Anti-multiplicative extension of the antipode."""
        alg = self.algebra
        return AlgebraElement(alg, *alg.extend(a.num, self.mono_antipode.pairs, a.den))

    # -- convenience -------------------------------------------------------------

    def generator_codes(self):
        return self.algebra.generator_codes()

    def gen_element(self, code: int) -> AlgebraElement:
        return self.algebra.from_codes({code: 1})

    def gen_name(self, code: int) -> str:
        return gen_text(code, self.algebra.dim)

    def __repr__(self):
        return (
            f"DeformationContext(D={self.algebra.dim}, order={self.order}, "
            f"tau={[str(c) for c in self.tau.components]})"
        )


# -- internal-consistency identities ------------------------------------------------


def pi_identities_report(ctx: DeformationContext) -> VerificationReport:
    """The closed-form identities tying Pi, Pi^-1, C_tau and C together:
    Pi Pi^-1 = 1, the C = C_tau(1 + tau^2 C_tau / 4k^2) inversion, the
    decomposition identity 1 - tau^2/2 h^2 C_tau Pi^-1 - h P_tau Pi^-1 = Pi^-1,
    and the h^2-scaled form of the defining relation for tau^2 C_tau."""
    t0 = time.monotonic()
    rep = VerificationReport("pi-identities")
    alg = ctx.algebra
    one = alg.one()
    t2 = ctx.tau.tau_sq
    rep.record("pi-times-pi-inverse-is-one", ctx.pi * ctx.pi_inv - one)
    rep.record(
        "casimir-recovered-from-deformed-casimir",
        ctx.c_tau * (one + ctx.c_tau.times_h(2, Fraction(t2, 4))) - ctx.casimir,
    )
    rep.record(
        "pi-inverse-decomposition-identity",
        one - (ctx.c_tau * ctx.pi_inv).times_h(2, Fraction(t2, 2))
        - (ctx.p_tau * ctx.pi_inv).times_h(1) - ctx.pi_inv,
    )
    lhs = ctx.c_tau.times_h(2, t2)
    rhs = (
        ctx.pi
        + ctx.pi_inv
        - alg.scalar(2)
        + ((ctx.casimir * t2 - ctx.p_tau * ctx.p_tau) * ctx.pi_inv).times_h(2)
    )
    rep.record("deformed-casimir-defining-relation-h2-scaled", lhs - rhs)
    rep.record("antipode-of-pi-is-pi-inverse", ctx.antipode_of(ctx.pi) - ctx.pi_inv)
    rep.record("counit-of-pi-is-one", ctx.pi.counit() - one)
    rep.seconds = time.monotonic() - t0
    return rep


# -- the Hopf verification suite ------------------------------------------------------


HOPF_CHECKS = (
    "coproduct-respects-commutators",
    "coassociativity",
    "counit-axioms",
    "antipode-axiom",
    "antipode-antihomomorphism",
    "antipode-squared-similarity",
    "group-likeness",
    "classical-limit-cobracket",
    "star-compatibility",
    "rescaling-invariance",
)


def verify_hopf(ctx: DeformationContext, checks=None) -> VerificationReport:
    """Run the Hopf-axiom suite; every identity is exact modulo h^(N+1).

    checks: optional iterable of 1-based check numbers or names to run; an
    unknown name or a number outside 1..len(HOPF_CHECKS) is a ValueError.
    """
    t0 = time.monotonic()
    rep = VerificationReport("hopf")
    selected = _select(checks)
    alg = ctx.algebra
    codes = ctx.generator_codes()
    ph = alg.i_count

    if "coproduct-respects-commutators" in selected:
        for i, x in enumerate(codes):
            for y in codes[i + 1 :]:
                xe, ye = ctx.gen_element(x), ctx.gen_element(y)
                lhs = ctx.coproduct_of(alg.bracket(xe, ye))
                rhs = tensor_commutator(ctx.coproduct(x), ctx.coproduct(y))
                rep.record(
                    "coproduct-respects-commutators",
                    lhs - rhs,
                    generator=f"[{ctx.gen_name(x)},{ctx.gen_name(y)}]",
                    phase=ph((x, y)),
                )

    if "coassociativity" in selected:
        for x in codes:
            d = ctx.coproduct(x)
            left = d.map_leg(0, ctx.mono_coproduct)
            right = d.map_leg(1, ctx.mono_coproduct)
            rep.record("coassociativity", left - right, generator=ctx.gen_name(x), phase=ph((x,)))

    if "counit-axioms" in selected:
        for x in codes:
            d, xe = ctx.coproduct(x), ctx.gen_element(x)
            for leg, side in ((0, "eps (x) id"), (1, "id (x) eps")):
                label = f"({side}) {ctx.gen_name(x)}"
                rep.record("counit-axioms", d.contract_counit(leg) - xe, label, phase=ph((x,)))

    if "antipode-axiom" in selected:
        for x in codes:
            d = ctx.coproduct(x)
            # both sides must equal eps(x) 1 = 0 for a generator
            for leg, side in ((0, "S (x) id"), (1, "id (x) S")):
                residual = d.map_leg(leg, ctx.mono_antipode).merge_legs()
                label = f"m({side})Delta {ctx.gen_name(x)}"
                rep.record("antipode-axiom", residual, label, phase=ph((x,)))

    if "antipode-antihomomorphism" in selected:
        for i, x in enumerate(codes):
            for y in codes[i + 1 :]:
                xe, ye = ctx.gen_element(x), ctx.gen_element(y)
                lhs = ctx.antipode_of(alg.bracket(xe, ye))
                sx, sy = ctx.antipode(x), ctx.antipode(y)
                rep.record(
                    "antipode-antihomomorphism",
                    lhs - alg.bracket(sy, sx),
                    generator=f"[{ctx.gen_name(x)},{ctx.gen_name(y)}]",
                    phase=ph((x, y)),
                )

    if "antipode-squared-similarity" in selected:
        d = alg.dim
        pi_pow = ctx.pi ** (d - 1)
        pi_inv_pow = ctx.pi_inv ** (d - 1)
        for x in codes:
            xe = ctx.gen_element(x)
            lhs = ctx.antipode_of(ctx.antipode(x))
            rep.record(
                "antipode-squared-similarity",
                lhs - pi_pow * xe * pi_inv_pow,
                generator=ctx.gen_name(x),
                phase=ph((x,)),
            )

    if "group-likeness" in selected:
        for name, g in (("Pi", ctx.pi), ("Pi^-1", ctx.pi_inv)):
            rep.record("group-likeness", ctx.coproduct_of(g) - TensorElement.of(g, g), name)

    if "classical-limit-cobracket" in selected:
        if ctx.tau.is_zero:
            rep.record_bool(
                "classical-limit-cobracket", True, note="tau = 0: no r-matrix, nothing to check"
            )
        else:
            r_t = r_matrix(alg, ctx.tau)
            for x in codes:
                d = ctx.coproduct(x)
                d0 = ctx.primitive_of(ctx.gen_element(x))
                rhs = tensor_commutator(d0, r_t).times_h(1)
                residual = (d - d.flip() - rhs).h_coefficient(1)
                rep.record("classical-limit-cobracket", residual, ctx.gen_name(x), phase=ph((x,)))

    if "star-compatibility" in selected:
        # X* = -X: the M-form residual D(M)* - D(M) is -i (D(X)* + D(X))
        for x in codes:
            d = ctx.coproduct(x)
            n = ph((x,))
            rep.record(
                "star-compatibility",
                d.star() - d * (-1) ** n,
                generator=ctx.gen_name(x),
                phase=-n,
            )

    if "rescaling-invariance" in selected:
        for s in (Fraction(2), Fraction(-3)):
            scaled = DeformationContext(ctx.metric, ctx.tau.scaled(s), ctx.order, algebra=alg)
            for x in codes:
                rep.record(
                    "rescaling-invariance",
                    scaled.coproduct(x).rescale_h(s) - ctx.coproduct(x),
                    generator=f"{ctx.gen_name(x)} (s={s})",
                    phase=ph((x,)),
                )

    rep.seconds = time.monotonic() - t0
    return rep


def _select(checks):
    out = set()
    for c in HOPF_CHECKS if checks is None else checks:
        if isinstance(c, int) and 1 <= c <= len(HOPF_CHECKS):
            c = HOPF_CHECKS[c - 1]
        if c not in HOPF_CHECKS:
            raise ValueError(f"unknown Hopf check {c!r}: expected a name or 1..{len(HOPF_CHECKS)}")
        out.add(c)
    return out
