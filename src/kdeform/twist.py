"""The extended Jordanian twist for null tau in the light-cone basis, the
triangular R-matrix, and the verification that twisted and universal
coproducts describe the same Hopf algebra.

With Pi_+ = 1 + h P_+ the twist is

    F = exp(-i M_{+-} (x) ln Pi_+) exp(-i h M_{+a} (x) P^a Pi_+^-1)
      = exp(-i h M_{+a} (x) P^a) exp(-i M_{+-} (x) ln Pi_+)

(both factorization orders are computed and must agree exactly).  Every
exponent is O(h) leg-wise, so all series terminate at the truncation order.

The partial Majid-Ruegg relations checked here are the ones forced by the
definitions P~_+ = kappa ln Pi_+ and P~_a = P_a Pi_+^-1 together with the
light-cone brackets:

    [M_{+-}, P~_+] = i kappa (1 - exp(-P~_+/kappa))
    [M_{+a}, P~_b] = i g_ab kappa (1 - exp(-P~_+/kappa)),   [M_{+a}, P~_+] = 0
    [M_{+-}, P~_a] = -i P~_a (1 - exp(-P~_+/kappa))
    [M_{-a}, P~_+] = -i P~_a

each an exact identity of truncated series, verified with zero residual.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction

from .algebra import Metric, VectorTau, series_exp, series_log_one_plus
from .errors import BasisError, InternalConsistencyError, InvalidVectorError
from .hopf import DeformationContext
from .reports import VerificationReport
from .scalars import GR_I, GR_MINUS_I, GaussRational, HSeries
from .tensors import TensorElement, tensor_exp, tensor_invert
from .bases import adapted_context, in_adapted_basis, kappa_quotients

_F0 = Fraction(0)
_F1 = Fraction(1)


@dataclass
class TwistData:
    """The twist and its derived tensors, with both factorization witnesses."""

    context: DeformationContext
    twist: TensorElement  # F
    twist_inv: TensorElement  # F^-1
    r_quantum: TensorElement  # R = F_21 F^-1
    r_quantum_inv: TensorElement  # R^-1 = F F_21^-1
    factor_jordanian_first: TensorElement
    factor_transverse_first: TensorElement


def is_lightcone_adapted(ctx: DeformationContext) -> bool:
    d = ctx.algebra.dim
    g = ctx.metric.rows
    if ctx.tau.components != (_F1,) + (_F0,) * (d - 1):
        return False
    last = d - 1
    return (
        not g[0][0]
        and not g[last][last]
        and g[0][last] == 1
        and all(not g[0][a] and not g[last][a] for a in range(1, last))
    )


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
    h1 = alg.h(1)

    ln_pi = series_log_one_plus(ctx.pi - alg.one())
    m_pm = alg.M(0, minus)
    jordanian = tensor_exp(TensorElement.of(m_pm, ln_pi) * GR_MINUS_I)

    x_ext = TensorElement(alg, 2, {})
    x_ext_bare = TensorElement(alg, 2, {})
    for a in range(1, minus):
        p_up = alg.momentum_raised(a)
        x_ext = x_ext + TensorElement.of(alg.M(0, a), p_up * ctx.pi_inv)
        x_ext_bare = x_ext_bare + TensorElement.of(alg.M(0, a), p_up)
    minus_ih = h1 * GR_MINUS_I

    f_jordanian_first = jordanian * tensor_exp(x_ext * minus_ih)
    f_transverse_first = tensor_exp(x_ext_bare * minus_ih) * jordanian
    if f_jordanian_first != f_transverse_first:
        raise InternalConsistencyError(
            "the two factorization orders of the extended Jordanian twist disagree"
        )
    f = f_jordanian_first
    f_inv = tensor_invert(f)
    r = f.flip() * f_inv
    r_inv = f * f_inv.flip()
    return TwistData(ctx, f, f_inv, r, r_inv, f_jordanian_first, f_transverse_first)


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
    ctx, tie = in_adapted_basis(ctx, is_lightcone_adapted)

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

    # twisted coproducts: D_LC(x) = F D0(x) F^-1 equals the opposite of the
    # universal coproduct, and conjugating by R lands on the universal one
    primitive_set = set()
    for a in range(1, minus):
        primitive_set.add(alg.rotation_code(0, a)[0])
        for b in range(a + 1, minus):
            primitive_set.add(alg.rotation_code(a, b)[0])
    for code in alg.generator_codes():
        name = ctx.gen_name(code)
        d0 = ctx._primitive_gen(code)
        d_lc = f * d0 * f_inv
        d_tau = ctx.coproduct(code)
        rep.record("twisted-coproduct-is-opposite-universal", d_lc - d_tau.flip(), generator=name)
        rep.record("r-conjugation-gives-universal", r * d_lc * r_inv - d_tau, generator=name)
        is_prim = (d_lc - d0).is_zero
        rep.record_bool(
            "twisted-primitivity-iff-stability",
            is_prim == (code in primitive_set),
            generator=name,
        )

    _reduced_lightcone_report(rep, ctx)

    # P_- + h/2 C = P_- Pi_+ + h/2 P^a P_a  (the C_+ = C bookkeeping identity)
    half_h = HSeries.h_power(alg.order, 1, GaussRational(Fraction(1, 2)))
    p_minus = alg.P(minus)
    papa = alg.zero()
    for a in range(1, minus):
        papa = papa + alg.momentum_raised(a) * alg.P(a)
    rep.record(
        "p-minus-casimir-identity",
        (p_minus + ctx.casimir * half_h) - (p_minus * ctx.pi + papa * half_h),
    )

    _partial_mr_report(rep, ctx)
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
    h1 = alg.h(1)
    half_h = HSeries.h_power(alg.order, 1, GaussRational(Fraction(1, 2)))

    for a in range(1, minus):
        code, _ = alg.rotation_code(0, a)
        rep.record(
            "reduced-coproduct-m-plus-a-primitive",
            ctx.coproduct(code) - ctx._primitive_gen(code),
            generator=f"M_+{a}",
        )
        for b in range(a + 1, minus):
            code, _ = alg.rotation_code(a, b)
            rep.record(
                "reduced-coproduct-m-ab-primitive",
                ctx.coproduct(code) - ctx._primitive_gen(code),
                generator=f"M_{a}{b}",
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
    dressed = (p_minus + ctx.casimir * half_h) * pi_inv
    lhs = ctx.coproduct(alg.momentum_code(minus))
    rhs = (
        TensorElement.of(p_minus, pi)
        + TensorElement.of(pi_inv, p_minus)
        - TensorElement.of(dressed, p_plus) * h1
    )
    for a in range(1, minus):
        rhs = rhs - TensorElement.of(alg.momentum_raised(a) * pi_inv, alg.P(a)) * h1
    rep.record("reduced-coproduct-p-minus", lhs - rhs, generator="P_-")

    m_pm = alg.M(0, minus)
    lhs = ctx.coproduct(alg.rotation_code(0, minus)[0])
    rhs = TensorElement.of(m_pm, one) + TensorElement.of(pi_inv, m_pm)
    for a in range(1, minus):
        rhs = rhs - TensorElement.of(alg.momentum_raised(a) * pi_inv, alg.M(0, a)) * h1
    rep.record("reduced-coproduct-m-plus-minus", lhs - rhs, generator="M_+-")

    for a in range(1, minus):
        m_ma = alg.M(minus, a)
        lhs = ctx.coproduct_of(m_ma)
        rhs = (
            TensorElement.of(m_ma, one)
            + TensorElement.of(pi_inv, m_ma)
            - TensorElement.of(dressed, alg.M(0, a)) * h1
        )
        for b in range(1, minus):
            rhs = rhs - TensorElement.of(alg.momentum_raised(b) * pi_inv, alg.M(b, a)) * h1
        rep.record("reduced-coproduct-m-minus-a", lhs - rhs, generator=f"M_-{a}")


def _partial_mr_report(rep: VerificationReport, ctx: DeformationContext):
    """The partial Majid-Ruegg scheme in the light-cone basis, with the
    kappa factors and the sign forced by P~_+ = kappa ln Pi_+.  Only P~_+ and
    kappa (1 - exp(-P~_+ / kappa)) divide by h; kappa_quotients builds them."""
    alg = ctx.algebra
    d = alg.dim
    minus = d - 1
    one = alg.one()
    pi, pi_inv = ctx.pi, ctx.pi_inv

    p_tilde_plus, kappa_jump = kappa_quotients(ctx, lambda up: up.algebra.one() - up.pi_inv)
    p_tilde = {a: alg.P(a) * pi_inv for a in range(1, minus)}

    rep.record("partial-mr-exp-recovers-pi", series_exp(p_tilde_plus * alg.h()) - pi)
    m_pm = alg.M(0, minus)
    rep.record(
        "partial-mr-bracket-m-plus-minus-with-p-tilde-plus",
        alg.bracket(m_pm, p_tilde_plus) - kappa_jump * GR_I,
        note="kappa normalization forced by [M_+-, P_+] = i P_+",
    )
    for a in range(1, minus):
        m_pa = alg.M(0, a)
        rep.record(
            "partial-mr-bracket-m-plus-a-with-p-tilde-plus-vanishes",
            alg.bracket(m_pa, p_tilde_plus),
            generator=f"[M_+{a}, P~_+]",
        )
        for b in range(1, minus):
            g_ab = ctx.metric.rows[a][b]
            rep.record(
                "partial-mr-bracket-m-plus-a-with-p-tilde-b",
                alg.bracket(m_pa, p_tilde[b]) - kappa_jump * GaussRational(0, g_ab),
                generator=f"[M_+{a}, P~_{b}]",
            )
        jump = one - pi_inv  # 1 - exp(-P~_+ / kappa)
        rep.record(
            "partial-mr-bracket-m-plus-minus-with-p-tilde-a",
            alg.bracket(m_pm, p_tilde[a]) + p_tilde[a] * jump * GR_I,
            generator=f"[M_+-, P~_{a}]",
            note="sign forced by [M_+-, Pi_+^-1] = -i h P_+ Pi_+^-2",
        )
        m_ma = alg.M(minus, a)
        rep.record(
            "partial-mr-bracket-m-minus-a-with-p-tilde-plus",
            alg.bracket(m_ma, p_tilde_plus) + p_tilde[a] * GR_I,
            generator=f"[M_-{a}, P~_+]",
            note="normalization forced by [M_-a, P_+] = -i P_a",
        )


def lc_structure_check(metric: Metric, tau: VectorTau, order: int = 1) -> VerificationReport:
    """All light-cone brackets against the generic structure constants pushed
    through the basis change, plus Abelian-ness of the two building subalgebras
    Gamma_+ = gen{M_+-, P^a} and Gamma_- = gen{P_+, M_+a}."""
    rep = VerificationReport("lightcone-structure")
    if tau.tau_sq or tau.is_zero:
        rep.skipped = "light-cone structure requires null tau"
        return rep
    _, ctx = adapted_context(metric, tau, order)
    alg = ctx.algebra
    d = alg.dim
    minus = d - 1
    g = ctx.metric.rows
    i_ = GR_I

    m_pm = alg.M(0, minus)
    p_plus, p_minus = alg.P(0), alg.P(minus)
    rep.record("bracket-m-plus-minus-p-plus", alg.bracket(m_pm, p_plus) - p_plus * i_)
    rep.record("bracket-m-plus-minus-p-minus", alg.bracket(m_pm, p_minus) + p_minus * i_)
    for a in range(1, minus):
        m_pa, m_ma, p_a = alg.M(0, a), alg.M(minus, a), alg.P(a)
        rep.record(
            "bracket-m-plus-minus-p-a-vanishes", alg.bracket(m_pm, p_a), generator=f"P_{a}"
        )
        rep.record(
            "bracket-m-plus-minus-m-plus-a",
            alg.bracket(m_pm, m_pa) - m_pa * i_,
            generator=f"M_+{a}",
        )
        rep.record(
            "bracket-m-plus-minus-m-minus-a",
            alg.bracket(m_pm, m_ma) + m_ma * i_,
            generator=f"M_-{a}",
        )
        rep.record(
            "bracket-m-plus-a-p-plus-vanishes", alg.bracket(m_pa, p_plus), generator=f"M_+{a}"
        )
        rep.record(
            "bracket-m-minus-a-p-minus-vanishes",
            alg.bracket(m_ma, p_minus),
            generator=f"M_-{a}",
        )
        rep.record(
            "bracket-m-plus-a-p-minus",
            alg.bracket(m_pa, p_minus) + p_a * i_,
            generator=f"M_+{a}",
        )
        rep.record(
            "bracket-m-minus-a-p-plus",
            alg.bracket(m_ma, p_plus) + p_a * i_,
            generator=f"M_-{a}",
        )
        for b in range(1, minus):
            m_pb, m_mb, p_b = alg.M(0, b), alg.M(minus, b), alg.P(b)
            rep.record(
                "bracket-m-plus-a-p-b",
                alg.bracket(m_pa, p_b) - p_plus * GaussRational(0, g[a][b]),
                generator=f"[M_+{a}, P_{b}]",
            )
            rep.record(
                "bracket-m-minus-a-p-b",
                alg.bracket(m_ma, p_b) - p_minus * GaussRational(0, g[a][b]),
                generator=f"[M_-{a}, P_{b}]",
            )
            rep.record(
                "bracket-m-plus-a-m-plus-b-vanishes",
                alg.bracket(m_pa, m_pb),
                generator=f"[M_+{a}, M_+{b}]",
            )
            rep.record(
                "bracket-m-minus-a-m-minus-b-vanishes",
                alg.bracket(m_ma, m_mb),
                generator=f"[M_-{a}, M_-{b}]",
            )
            rep.record(
                "bracket-m-plus-a-m-minus-b",
                alg.bracket(m_pa, m_mb) + (alg.M(a, b) + m_pm * GaussRational(g[a][b])) * i_,
                generator=f"[M_+{a}, M_-{b}]",
            )
            for c in range(1, minus):
                lhs = alg.bracket(m_pa, alg.M(b, c))
                rhs = alg.M(0, c) * GaussRational(0, g[a][b]) - alg.M(0, b) * GaussRational(
                    0, g[a][c]
                )
                rep.record(
                    "bracket-m-plus-a-m-bc",
                    lhs - rhs,
                    generator=f"[M_+{a}, M_{b}{c}]",
                )
    # Abelian building blocks of the twist
    gamma_plus = [m_pm] + [alg.momentum_raised(a) for a in range(1, minus)]
    gamma_minus = [p_plus] + [alg.M(0, a) for a in range(1, minus)]
    for name, gens in (("gamma-plus-abelian", gamma_plus), ("gamma-minus-abelian", gamma_minus)):
        for i, x in enumerate(gens):
            for y in gens[i + 1 :]:
                rep.record(name, alg.bracket(x, y))
    return rep
