"""Adapted bases: the 1+(D-1) orthogonal decomposition with the Majid-Ruegg
generators, and the 2+(D-2) light-cone decomposition for null tau.  tau^2
alone picks which of the two is adapted to tau, for adapted_context, for the
predicate in_adapted_basis tests, and for classify_orbit, which reads the
stability group of tau off the metric in that basis.

A BasisChange carries the new basis vectors as columns A (new in old
components); the metric transforms by congruence g' = A^T g A, the vector by
tau' = A^-1 tau, and generators tensorially, so Lie brackets transform
covariantly.  All arithmetic is exact rational: basis vectors are never
normalized to unit length (no square roots), which the rescaling-invariance
of the coproducts makes harmless.
"""

from __future__ import annotations

import time
import weakref
from dataclasses import dataclass
from fractions import Fraction

from . import exactla
from .algebra import (
    AlgebraElement,
    Metric,
    MonomialMap,
    PoincareAlgebra,
    VectorTau,
    accumulate,
    kappa_log,
    series_exp,
)
from .errors import BasisError, InvalidVectorError
from .hopf import DeformationContext
from .reports import VerificationReport
from .tensors import TensorElement


class BasisChange:
    """A rational change of basis on V together with the induced maps."""

    def __init__(self, old_metric: Metric, columns):
        self.old_metric = old_metric
        self.columns = exactla.freeze(columns)  # column j = new e_j in old coords
        self.inverse = exactla.invert(self.columns)
        self.new_metric = old_metric.congruence(self.columns)
        self._mono_maps = {}

    def transform_vector(self, v):
        """Components of an old-basis vector in the new basis."""
        return exactla.mat_vec(self.inverse, tuple(v))

    def transform_tau(self, tau: VectorTau) -> VectorTau:
        return VectorTau(self.new_metric, self.transform_vector(tau.components))

    def generator_image(self, code: int, target: PoincareAlgebra) -> AlgebraElement:
        """An old-basis generator as a linear combination of new-basis ones,
        built afresh: push reads it memoised through _monomials."""
        b = self.inverse
        d = target.dim
        kind, idx = target.decode(code)
        acc = {}
        if kind == "P":
            rho = idx
            for mu in range(d):
                if b[mu][rho]:
                    accumulate(acc, target.momentum_code(mu), b[mu][rho])
        else:
            rho, sig = idx
            for mu in range(d):
                if not b[mu][rho]:
                    continue
                for nu in range(d):
                    if not b[nu][sig]:
                        continue
                    c, sign = target.rotation_code(mu, nu)
                    if sign:
                        accumulate(acc, c, b[mu][rho] * b[nu][sig] * sign)
        return target.from_codes(acc)

    def push(self, elem: AlgebraElement, target: PoincareAlgebra) -> AlgebraElement:
        """Multiplicative-linear extension of the generator map to U(iso(g)).
        The images carry no h, so every monomial is asked at cap 0."""
        images = self._monomials(target)
        num, den = target.extend(elem.num, lambda mono, _: images.pairs(mono, 0), elem.den)
        return AlgebraElement(target, num, den)

    def push_tensor(self, t: TensorElement, target: PoincareAlgebra) -> TensorElement:
        """(push (x) ... (x) push)(t): push applied to every leg.  The terms
        are grouped by their right legs: per group, the sum of the left legs
        is pushed once, each right leg once, and the images multiply out as
        one tensor product."""
        images = self._monomials(target)
        groups = {}
        for (key, k), c in t.num.items():
            groups.setdefault(key[1:], {})[key[0], k] = c
        out = TensorElement(target, t.legs, {})
        for rights, lefts in groups.items():
            left = self.push(AlgebraElement(target, lefts, t.den), target)
            out = out + TensorElement.of(left, *(images.image(m, 0) for m in rights))
        return out

    def _monomials(self, target: PoincareAlgebra) -> MonomialMap:
        """The images of PBW monomials, memoised per target context.  The map
        reaches self through a weak proxy, so a dropped change is freed without
        the cyclic collector."""
        images = self._mono_maps.get(target._key)
        if images is None:
            me = weakref.proxy(self)
            images = MonomialMap(target.one(), lambda code: me.generator_image(code, target))
            self._mono_maps[target._key] = images
        return images


def orthogonal_decompose(metric: Metric, tau: VectorTau) -> BasisChange:
    """Basis with e_0 = tau and g(e_0, e_i) = 0, by rational Gram-Schmidt
    rejection of the standard basis against tau.  The (D-1)-block need not be
    diagonal.  Requires tau^2 != 0."""
    if tau.is_zero:
        raise InvalidVectorError("cannot adapt a basis to the zero vector")
    t2 = tau.tau_sq
    if not t2:
        raise BasisError(
            "tau is null (tau^2 = 0): the orthogonal decomposition does not exist; "
            "use lightcone_decompose"
        )
    d = metric.dim
    cands = []
    for e in exactla.identity(d):
        lam = metric.apply(tau.components, e) / t2
        v = tuple(e[i] - lam * tau.components[i] for i in range(d))
        if any(v):
            cands.append(v)
    rest = exactla.select_independent(cands, d - 1)
    cols = exactla.transpose((tau.components,) + tuple(rest))
    return BasisChange(metric, cols)


def lightcone_decompose(metric: Metric, tau: VectorTau) -> BasisChange:
    """Basis (tau, e_a ..., tau_tilde) with g(tau,tau) = g(tt,tt) = 0,
    g(tau,tt) = 1 and the transverse block orthogonal to both: new index 0 is
    the tau direction ('+'), new index D-1 the null partner ('-'), and the
    middle indices the transverse block.

    tau_tilde is pinned by minimal-index pivoting with no components outside
    the pivot direction and tau itself; any valid choice satisfies the same
    Gram conditions."""
    if tau.is_zero:
        raise InvalidVectorError("cannot adapt a basis to the zero vector")
    if tau.tau_sq:
        raise BasisError(
            f"tau^2 = {tau.tau_sq} != 0: the light-cone decomposition requires a "
            "null vector; use orthogonal_decompose"
        )
    p, q = metric.signature
    if p == 0 or q == 0:
        raise InvalidVectorError("definite signature admits no null directions")
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
    cols = exactla.transpose((tau.components,) + tuple(trans) + (tt,))
    change = BasisChange(metric, cols)
    if not _lightcone_gram(change.new_metric.rows):
        raise BasisError("light-cone Gram conditions failed; defective decomposition")
    return change


def _lightcone_gram(g) -> bool:
    """g(e_0, e_0) = g(e_-, e_-) = 0, g(e_0, e_-) = 1 for e_- the last basis
    vector, and the transverse block orthogonal to both."""
    last = len(g) - 1
    return (
        not g[0][0]
        and not g[last][last]
        and g[0][last] == 1
        and all(not g[0][a] and not g[last][a] for a in range(1, last))
    )


def _tau_is_e0(ctx: DeformationContext) -> bool:
    return ctx.tau.components == (1,) + (0,) * (ctx.algebra.dim - 1)


def is_orthogonally_adapted(ctx: DeformationContext) -> bool:
    g = ctx.metric.rows
    return _tau_is_e0(ctx) and all(not g[0][i] for i in range(1, ctx.algebra.dim))


def is_lightcone_adapted(ctx: DeformationContext) -> bool:
    return _tau_is_e0(ctx) and _lightcone_gram(ctx.metric.rows)


def _adapted_kind(tau: VectorTau) -> tuple:
    """(decompose, is_adapted) for the basis adapted to tau: orthogonal for
    tau^2 != 0, light-cone for null tau."""
    if tau.tau_sq:
        return orthogonal_decompose, is_orthogonally_adapted
    return lightcone_decompose, is_lightcone_adapted


def adapted_context(metric: Metric, tau: VectorTau, order: int, shift=None):
    """(BasisChange, DeformationContext) in the basis adapted to tau:
    orthogonal for tau^2 != 0, light-cone for tau^2 = 0.  shift goes to the
    context (see DeformationContext)."""
    change = _adapted_kind(tau)[0](metric, tau)
    ctx = DeformationContext(change.new_metric, change.transform_tau(tau), order, shift=shift)
    return change, ctx


def in_adapted_basis(ctx: DeformationContext) -> tuple:
    """(adapted, tie) for a suite that runs in the basis adapted to tau,
    orthogonal or light-cone as tau^2 decides (see adapted_context).

    When ctx already is in that basis, adapted is ctx itself, so the suite
    reads the caller's own tables, and tie is None.  Otherwise adapted is a
    fresh context in the adapted basis, and tie(rep) records the check
    caller-coproduct-in-adapted-basis: the caller's coproduct tables, carried
    through the basis change, are the adapted context's,
    (push (x) push)(Delta(x)) = Delta'(push(x)) for every generator x."""
    if _adapted_kind(ctx.tau)[1](ctx):
        return ctx, None
    change, adapted = adapted_context(ctx.metric, ctx.tau, ctx.order)
    target = adapted.algebra

    def tie(rep: VerificationReport):
        for code in ctx.generator_codes():
            lhs = change.push_tensor(ctx.coproduct(code), target)
            rhs = adapted.coproduct_of(change.generator_image(code, target))
            n = ctx.algebra.i_count((code,))
            rep.record("caller-coproduct-in-adapted-basis", lhs - rhs, ctx.gen_name(code), phase=n)

    return adapted, tie


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


def classify_orbit(metric: Metric, tau: VectorTau) -> OrbitClassification:
    """Orbit data for (g, tau): YB type from tau^2 and the stability group of
    tau, read off the metric in the adapted basis.

    For tau^2 != 0 the stability group is SO of the block on indices 1..D-1,
    the orthogonal complement of tau; for null tau it is ISO of the transverse
    block 1..D-2, left once the hyperbolic plane of tau and its null partner
    is split off (empty at D = 2)."""
    if tau.is_zero:
        raise InvalidVectorError("cannot classify the orbit of the zero vector")
    t2 = tau.tau_sq
    g = _adapted_kind(tau)[0](metric, tau).new_metric.rows
    yb_type, kind, stop = ("MYBE", "SO", len(g)) if t2 else ("CYBE", "ISO", len(g) - 1)
    return OrbitClassification(t2, yb_type, kind, exactla.signature([r[1:stop] for r in g[1:stop]]))


# -- the Majid-Ruegg generators -------------------------------------------------


@dataclass
class MRGenerators:
    """The nonlinear generators of the bicrossproduct presentation:
    p_tilde_tau = kappa ln Pi_tau (primitive), p_tilde[i] = P_i Pi^-1, and the
    series kappa_term = kappa (1 - Pi^-2 - tau^2/kappa^2 P~_k P~^k) of the
    deformed bracket [M_{tau i}, P~_j].  Elements live in the context they were
    built from; the rotations are the unchanged X_{0i} (= X_{tau i}) and X_{ij}."""

    context: DeformationContext
    p_tilde_tau: AlgebraElement
    p_tilde: list
    kappa_term: AlgebraElement


def _raised(ctx: DeformationContext, lowered: list, k: int) -> AlgebraElement:
    """x^k = g^{kl} x_l over the spatial block, for lowered = [x_1, ..., x_{D-1}]."""
    alg = ctx.algebra
    ginv = ctx.metric.inverse
    out = alg.zero()
    for l in range(1, alg.dim):
        if ginv[k][l]:
            out = out + lowered[l - 1] * ginv[k][l]
    return out


def _p_tilde(ctx: DeformationContext) -> list:
    return [ctx.algebra.P(i) * ctx.pi_inv for i in range(1, ctx.algebra.dim)]


def _mr_kappa_term(ctx: DeformationContext) -> AlgebraElement:
    """kappa (1 - Pi^-2) - tau^2 h P~_k P~^k, with kappa (1 - Pi^-2) =
    q Pi^-1 (1 + Pi^-1) for q = kappa (Pi - 1)."""
    alg = ctx.algebra
    ptil = _p_tilde(ctx)
    pp = alg.zero()
    for k in range(1, alg.dim):
        pp = pp + ptil[k - 1] * _raised(ctx, ptil, k)
    jump = ctx.pi_quotient * ctx.pi_inv  # kappa (1 - Pi^-1)
    return jump * (alg.one() + ctx.pi_inv) - pp.times_h(1, ctx.tau.tau_sq)


def mr_generators(ctx: DeformationContext) -> MRGenerators:
    """Build the Majid-Ruegg generators in an orthogonally adapted context.

    Only p_tilde_tau and kappa_term divide by h: both are series in
    q = ctx.pi_quotient, so every element is exact modulo h^(N+1)."""
    if not is_orthogonally_adapted(ctx):
        raise BasisError(
            "Majid-Ruegg generators need the adapted basis (e_0 = tau, g_0i = 0); "
            "apply orthogonal_decompose first"
        )
    return MRGenerators(ctx, kappa_log(ctx.pi_quotient), _p_tilde(ctx), _mr_kappa_term(ctx))


def verify_mr(ctx: DeformationContext) -> VerificationReport:
    """The Majid-Ruegg suite: the four bicrossproduct coproducts, the deformed
    commutators including the exp(-2 p_tilde_tau / kappa) term, the reduced
    1+(D-1) coproducts against the universal ones, and the classical limits.

    Every residual is computed at the order N of the adapted context (see
    in_adapted_basis): ctx itself when it is orthogonally adapted, otherwise
    (e.g. space-like tau, the CLI's tachyonic example) a freshly built one
    tied to the caller's tables.  Only p_tilde_tau and the kappa term divide
    by h; mr_generators reads both off q = kappa (Pi - 1) at order N."""
    t0 = time.monotonic()
    rep = VerificationReport("majid-ruegg")
    if ctx.tau.is_zero or not ctx.tau.tau_sq:
        rep.skipped = "Majid-Ruegg basis requires tau^2 != 0"
        return rep
    ctx, tie = in_adapted_basis(ctx)
    note = None if tie is None else "verified in the orthogonally adapted basis"

    alg = ctx.algebra
    d = alg.dim
    t2 = ctx.tau.tau_sq
    mr = mr_generators(ctx)
    pt, ptil = mr.p_tilde_tau, mr.p_tilde
    pi_inv = ctx.pi_inv
    one = alg.one()

    rep.record("exp-of-p-tilde-tau-recovers-pi", series_exp(pt.times_h(1)) - ctx.pi, note=note)

    # classical limits at h = 0
    rep.record(
        "p-tilde-tau-classical-limit",
        (pt - ctx.p_tau).h_coefficient(0),
    )
    for i in range(1, d):
        rep.record(
            "p-tilde-classical-limit",
            (ptil[i - 1] - alg.P(i)).h_coefficient(0),
            generator=f"P~_{i}",
        )

    # -- bicrossproduct coproducts ------------------------------------------
    prim = TensorElement.of(pt, one) + TensorElement.of(one, pt)
    rep.record("coproduct-p-tilde-tau-primitive", ctx.coproduct_of(pt) - prim)

    for i in range(1, d):
        for j in range(1, d):
            if i >= j:
                continue
            code, _ = alg.rotation_code(i, j)
            residual = ctx.coproduct(code) - ctx._primitive_gen(code)
            rep.record("coproduct-m-ij-primitive", residual, f"M_{i}{j}", phase=1)

    for i in range(1, d):
        lhs = ctx.coproduct_of(ptil[i - 1])
        rhs = TensorElement.of(pi_inv, ptil[i - 1]) + TensorElement.of(ptil[i - 1], one)
        rep.record("coproduct-p-tilde-i", lhs - rhs, generator=f"P~_{i}")

    for j in range(1, d):
        code, _ = alg.rotation_code(0, j)
        lhs = ctx.coproduct(code)
        x0j = alg.X(0, j)
        rhs = TensorElement.of(x0j, one) + TensorElement.of(pi_inv, x0j)
        for k in range(1, d):
            ptk = _raised(ctx, ptil, k)
            if ptk:
                rhs = rhs - TensorElement.of(ptk, alg.X(k, j)).times_h(1, t2)
        rep.record("coproduct-m-tau-j-bicrossproduct", lhs - rhs, generator=f"M_0{j}", phase=1)

    # -- reduced 1+(D-1) coproducts against the universal ones ----------------
    _reduced_coproducts_report(rep, ctx)

    # -- commutators: each linear in one rotation, so X-form with phase 1 -------
    for i in range(1, d):
        x0i = alg.X(0, i)
        residual = alg.bracket(x0i, pt) + ptil[i - 1] * t2
        rep.record("bracket-m-tau-i-with-p-tilde-tau", residual, f"[M_0{i}, P~_tau]", phase=1)
        for j in range(i + 1, d):
            residual, label = alg.bracket(alg.X(i, j), pt), f"[M_{i}{j}, P~_tau]"
            rep.record("bracket-m-ij-with-p-tilde-tau-vanishes", residual, label, phase=1)

    g = ctx.metric.rows
    for i in range(1, d):
        for j in range(1, d):
            if i >= j:
                continue
            for k in range(1, d):
                lhs = alg.bracket(alg.X(i, j), ptil[k - 1])
                rhs = ptil[i - 1] * g[j][k] - ptil[j - 1] * g[i][k]
                label = f"[M_{i}{j}, P~_{k}]"
                rep.record("bracket-m-ij-with-p-tilde-k-classical", lhs - rhs, label, phase=1)

    # [M_{tau i}, P~_j] = i/2 kappa g_ij (1 - exp(-2 P~_tau/kappa) - tau^2/kappa^2 P~_k P~^k)
    #                     + i tau^2/kappa P~_j P~_i
    half_kappa_part = mr.kappa_term * Fraction(1, 2)
    for i in range(1, d):
        x0i = alg.X(0, i)
        for j in range(1, d):
            lhs = alg.bracket(x0i, ptil[j - 1])
            rhs = half_kappa_part * g[i][j] + (ptil[j - 1] * ptil[i - 1]).times_h(1, t2)
            label = f"[M_0{i}, P~_{j}]"
            rep.record("bracket-m-tau-i-with-p-tilde-j-deformed", lhs - rhs, label, phase=1)

    if tie is not None:
        tie(rep)

    rep.seconds = time.monotonic() - t0
    return rep


def _reduced_coproducts_report(rep, ctx):
    """(DPtau)-(DMtau): the universal coproducts collapse to the quoted reduced
    forms in the adapted basis."""
    alg = ctx.algebra
    d = alg.dim
    t2 = ctx.tau.tau_sq
    one = alg.one()
    pi, pi_inv = ctx.pi, ctx.pi_inv

    p_low = [alg.P(k) for k in range(1, d)]
    p_up = [None] + [_raised(ctx, p_low, j) for j in range(1, d)]

    lhs = ctx.coproduct_of(ctx.p_tau)
    rhs = TensorElement.of(ctx.p_tau, pi) + TensorElement.of(pi_inv, ctx.p_tau)
    for j in range(1, d):
        rhs = rhs - TensorElement.of(p_up[j] * pi_inv, alg.P(j)).times_h(1, t2)
    rep.record("reduced-coproduct-p-tau", lhs - rhs, generator="P_tau")

    for i in range(1, d):
        lhs = ctx.coproduct(alg.momentum_code(i))
        rhs = TensorElement.of(alg.P(i), pi) + TensorElement.of(one, alg.P(i))
        rep.record("reduced-coproduct-p-i", lhs - rhs, generator=f"P_{i}")

    for i in range(1, d):
        code, _ = alg.rotation_code(0, i)
        lhs = ctx.coproduct(code)
        x0i = alg.X(0, i)
        rhs = TensorElement.of(x0i, one) + TensorElement.of(pi_inv, x0i)
        for j in range(1, d):
            rhs = rhs + TensorElement.of(p_up[j] * pi_inv, alg.X(i, j)).times_h(1, t2)
        rep.record("reduced-coproduct-m-tau-i", lhs - rhs, generator=f"M_0{i}", phase=1)
