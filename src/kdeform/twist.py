"""The extended Jordanian twist for null tau in the light-cone basis, the
triangular R-matrix, and the verification that twisted and universal
coproducts describe the same Hopf algebra.

With Pi_+ = 1 + h P_+ and X = -iM the twist is

    F = exp(-i M_{+-} (x) ln Pi_+) exp(-i h M_{+a} (x) P^a Pi_+^-1)
      = exp(X_{+-} (x) ln Pi_+) exp(h X_{+a} (x) P^a Pi_+^-1)
      = exp(h X_{+a} (x) P^a) exp(X_{+-} (x) ln Pi_+)

(both factorization orders are computed and must agree exactly).  Every
exponent is real and O(h) leg-wise, so all series terminate at the
truncation order.

The partial Majid-Ruegg relations checked here are the ones forced by the
definitions P~_+ = kappa ln Pi_+ and P~_a = P_a Pi_+^-1 together with the
light-cone brackets:

    [M_{+-}, P~_+] = i kappa (1 - exp(-P~_+/kappa))
    [M_{+a}, P~_b] = i g_ab kappa (1 - exp(-P~_+/kappa)),   [M_{+a}, P~_+] = 0
    [M_{+-}, P~_a] = -i P~_a (1 - exp(-P~_+/kappa))
    [M_{-a}, P~_+] = -i P~_a

each an exact identity of truncated series, verified with zero residual in
X = -iM, where every i cancels.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction

from .algebra import AlgebraElement, kappa_log, series_exp
from .errors import BasisError, InternalConsistencyError, InvalidVectorError
from .hopf import DeformationContext
from .reports import VerificationReport
from .tensors import TensorElement, tensor_commutator, tensor_exp, tensor_invert
from .bases import in_adapted_basis, is_lightcone_adapted

_HALF = Fraction(1, 2)


@dataclass
class TwistData:
    """The twist and its derived tensors, with both factorization witnesses,
    and P~_+ = kappa ln Pi_+, the Jordanian exponent's second leg over h."""

    context: DeformationContext
    p_tilde_plus: AlgebraElement
    twist: TensorElement  # F
    twist_inv: TensorElement  # F^-1
    r_quantum: TensorElement  # R = F_21 F^-1
    r_quantum_inv: TensorElement  # R^-1 = F F_21^-1
    factor_jordanian_first: TensorElement
    factor_transverse_first: TensorElement


def build_twist(ctx: DeformationContext) -> TwistData:
    """Assemble F, F^-1 and R in a light-cone adapted context (tau^2 = 0)."""
    if ctx.tau.tau_sq or ctx.tau.is_zero:
        raise InvalidVectorError(
            "the extended Jordanian twist exists only for null tau (CYBE case); "
            f"here tau^2 = {ctx.tau.tau_sq}"
        )
    if not is_lightcone_adapted(ctx):
        raise BasisError("build_twist needs the light-cone adapted context")
    alg = ctx.algebra
    d = alg.dim
    minus = d - 1

    p_tilde_plus = kappa_log(ctx.pi_quotient)
    jordanian = tensor_exp(TensorElement.of(alg.X(0, minus), p_tilde_plus.times_h(1)))

    x_ext = TensorElement(alg, 2, {})
    x_ext_bare = TensorElement(alg, 2, {})
    for a in range(1, minus):
        p_up = alg.momentum_raised(a)
        x_ext = x_ext + TensorElement.of(alg.X(0, a), p_up * ctx.pi_inv)
        x_ext_bare = x_ext_bare + TensorElement.of(alg.X(0, a), p_up)

    f_jordanian_first = jordanian * tensor_exp(x_ext.times_h(1))
    f_transverse_first = tensor_exp(x_ext_bare.times_h(1)) * jordanian
    if f_jordanian_first != f_transverse_first:
        raise InternalConsistencyError(
            "the two factorization orders of the extended Jordanian twist disagree"
        )
    f = f_jordanian_first
    f_inv = tensor_invert(f)
    r = f.flip() * f_inv
    r_inv = f * f_inv.flip()
    return TwistData(ctx, p_tilde_plus, f, f_inv, r, r_inv, f_jordanian_first, f_transverse_first)


def verify_twist(ctx: DeformationContext) -> VerificationReport:
    """The light-cone/twist suite: cocycle, factorization equality,
    triangularity, quantum Yang-Baxter, reduced coproducts against universal
    ones, the R-conjugation bridge, the P_- Casimir identity, and the partial
    Majid-Ruegg relations.  Exact modulo h^(N+1).  A context that is not
    light-cone adapted is checked in a fresh adapted one, tied to the
    caller's coproduct tables (see bases.in_adapted_basis)."""
    t0 = time.monotonic()
    rep = VerificationReport("lightcone-twist")
    if ctx.tau.is_zero or ctx.tau.tau_sq:
        rep.skipped = "the twist suite requires null tau (tau^2 = 0)"
        return rep
    ctx, tie = in_adapted_basis(ctx)

    alg = ctx.algebra
    d = alg.dim
    minus = d - 1
    data = build_twist(ctx)
    f, f_inv, r, r_inv = data.twist, data.twist_inv, data.r_quantum, data.r_quantum_inv
    unit2 = TensorElement.unit(alg, 2)

    rep.record(
        "twist-factorizations-agree",
        data.factor_jordanian_first - data.factor_transverse_first,
    )
    rep.record("twist-times-inverse", f * f_inv - unit2)
    rep.record("triangularity", r.flip() * r - unit2)

    # 2-cocycle: (F (x) 1)(D0 (x) id)(F) = (1 (x) F)(id (x) D0)(F)
    lhs = f.embed("12") * f.map_leg(0, ctx.mono_primitive)
    rhs = f.embed("23") * f.map_leg(1, ctx.mono_primitive)
    rep.record("two-cocycle", lhs - rhs)

    # quantum Yang-Baxter for R (implied by triangularity + cocycle; asserted directly)
    r12, r13, r23 = r.embed("12"), r.embed("13"), r.embed("23")
    rep.record("quantum-yang-baxter", r12 * r13 * r23 - r23 * r13 * r12)

    # twisted coproducts: D_LC(x) = F D0(x) F^-1 equals the opposite of the universal
    # coproduct, and conjugating by R lands on the universal one.  Both conjugations
    # are y + [T, y] T^-1, exact as T T^-1 = 1 (twist-times-inverse, triangularity)
    primitive_set = set()
    for a in range(1, minus):
        primitive_set.add(alg.rotation_code(0, a)[0])
        for b in range(a + 1, minus):
            primitive_set.add(alg.rotation_code(a, b)[0])
    for code in alg.generator_codes():
        name, n = ctx.gen_name(code), alg.i_count((code,))
        d0 = ctx._primitive_gen(code)
        d_lc = d0 + tensor_commutator(f, d0) * f_inv
        d_tau = ctx.coproduct(code)
        rep.record(
            "twisted-coproduct-is-opposite-universal", d_lc - d_tau.flip(), generator=name, phase=n
        )
        residual = d_lc + tensor_commutator(r, d_lc) * r_inv - d_tau
        rep.record("r-conjugation-gives-universal", residual, generator=name, phase=n)
        is_prim = (d_lc - d0).is_zero
        rep.record_bool(
            "twisted-primitivity-iff-stability",
            is_prim == (code in primitive_set),
            generator=name,
        )

    _reduced_lightcone_report(rep, ctx)

    # P_- + h/2 C = P_- Pi_+ + h/2 P^a P_a  (the C_+ = C bookkeeping identity)
    p_minus = alg.P(minus)
    papa = alg.zero()
    for a in range(1, minus):
        papa = papa + alg.momentum_raised(a) * alg.P(a)
    rep.record(
        "p-minus-casimir-identity",
        (p_minus + ctx.casimir.times_h(1, _HALF)) - (p_minus * ctx.pi + papa.times_h(1, _HALF)),
    )

    _partial_mr_report(rep, ctx, data.p_tilde_plus)
    if tie is not None:
        tie(rep)

    rep.seconds = time.monotonic() - t0
    return rep


def _reduced_lightcone_report(rep: VerificationReport, ctx: DeformationContext):
    """The reduced light-cone coproducts against the universal ones."""
    alg = ctx.algebra
    d = alg.dim
    minus = d - 1
    one = alg.one()
    pi, pi_inv = ctx.pi, ctx.pi_inv

    for a in range(1, minus):
        code, _ = alg.rotation_code(0, a)
        rep.record(
            "reduced-coproduct-m-plus-a-primitive",
            ctx.coproduct(code) - ctx._primitive_gen(code),
            generator=f"M_+{a}",
            phase=1,
        )
        for b in range(a + 1, minus):
            code, _ = alg.rotation_code(a, b)
            rep.record(
                "reduced-coproduct-m-ab-primitive",
                ctx.coproduct(code) - ctx._primitive_gen(code),
                generator=f"M_{a}{b}",
                phase=1,
            )

    for mu in [0, *range(1, minus)]:
        p = alg.P(mu)
        lhs = ctx.coproduct(alg.momentum_code(mu))
        rhs = TensorElement.of(p, pi) + TensorElement.of(one, p)
        rep.record(
            "reduced-coproduct-p-plus-and-transverse",
            lhs - rhs,
            generator=f"P_{'+' if mu == 0 else mu}",
        )

    p_minus = alg.P(minus)
    p_plus = alg.P(0)
    dressed = (p_minus + ctx.casimir.times_h(1, _HALF)) * pi_inv
    lhs = ctx.coproduct(alg.momentum_code(minus))
    rhs = (
        TensorElement.of(p_minus, pi)
        + TensorElement.of(pi_inv, p_minus)
        - TensorElement.of(dressed, p_plus).times_h(1)
    )
    for a in range(1, minus):
        rhs = rhs - TensorElement.of(alg.momentum_raised(a) * pi_inv, alg.P(a)).times_h(1)
    rep.record("reduced-coproduct-p-minus", lhs - rhs, generator="P_-")

    # the rotation coproducts are linear in the rotations: X-form, phase 1
    x_pm = alg.X(0, minus)
    lhs = ctx.coproduct(alg.rotation_code(0, minus)[0])
    rhs = TensorElement.of(x_pm, one) + TensorElement.of(pi_inv, x_pm)
    for a in range(1, minus):
        rhs = rhs - TensorElement.of(alg.momentum_raised(a) * pi_inv, alg.X(0, a)).times_h(1)
    rep.record("reduced-coproduct-m-plus-minus", lhs - rhs, generator="M_+-", phase=1)

    for a in range(1, minus):
        x_ma = alg.X(minus, a)
        lhs = ctx.coproduct_of(x_ma)
        rhs = (
            TensorElement.of(x_ma, one)
            + TensorElement.of(pi_inv, x_ma)
            - TensorElement.of(dressed, alg.X(0, a)).times_h(1)
        )
        for b in range(1, minus):
            rhs = rhs - TensorElement.of(alg.momentum_raised(b) * pi_inv, alg.X(b, a)).times_h(1)
        rep.record("reduced-coproduct-m-minus-a", lhs - rhs, generator=f"M_-{a}", phase=1)


def _partial_mr_report(rep: VerificationReport, ctx: DeformationContext, p_tilde_plus):
    """The partial Majid-Ruegg scheme in the light-cone basis, with the
    kappa factors and the sign forced by P~_+ = kappa ln Pi_+.  Only P~_+ and
    kappa (1 - exp(-P~_+ / kappa)) = q Pi_+^-1 divide by h; both are series in
    q = ctx.pi_quotient.  Each relation is linear in one rotation: its X-form
    has no i, phase 1."""
    alg = ctx.algebra
    d = alg.dim
    minus = d - 1
    one = alg.one()
    pi, pi_inv = ctx.pi, ctx.pi_inv

    kappa_jump = ctx.pi_quotient * pi_inv
    p_tilde = {a: alg.P(a) * pi_inv for a in range(1, minus)}

    rep.record("partial-mr-exp-recovers-pi", series_exp(p_tilde_plus.times_h(1)) - pi)
    x_pm = alg.X(0, minus)
    rep.record(
        "partial-mr-bracket-m-plus-minus-with-p-tilde-plus",
        alg.bracket(x_pm, p_tilde_plus) - kappa_jump,
        note="kappa normalization forced by [M_+-, P_+] = i P_+",
        phase=1,
    )
    for a in range(1, minus):
        x_pa = alg.X(0, a)
        rep.record(
            "partial-mr-bracket-m-plus-a-with-p-tilde-plus-vanishes",
            alg.bracket(x_pa, p_tilde_plus),
            generator=f"[M_+{a}, P~_+]",
            phase=1,
        )
        for b in range(1, minus):
            g_ab = ctx.metric.rows[a][b]
            rep.record(
                "partial-mr-bracket-m-plus-a-with-p-tilde-b",
                alg.bracket(x_pa, p_tilde[b]) - kappa_jump * g_ab,
                generator=f"[M_+{a}, P~_{b}]",
                phase=1,
            )
        jump = one - pi_inv  # 1 - exp(-P~_+ / kappa)
        rep.record(
            "partial-mr-bracket-m-plus-minus-with-p-tilde-a",
            alg.bracket(x_pm, p_tilde[a]) + p_tilde[a] * jump,
            generator=f"[M_+-, P~_{a}]",
            note="sign forced by [M_+-, Pi_+^-1] = -i h P_+ Pi_+^-2",
            phase=1,
        )
        rep.record(
            "partial-mr-bracket-m-minus-a-with-p-tilde-plus",
            alg.bracket(alg.X(minus, a), p_tilde_plus) + p_tilde[a],
            generator=f"[M_-{a}, P~_+]",
            note="normalization forced by [M_-a, P_+] = -i P_a",
            phase=1,
        )
