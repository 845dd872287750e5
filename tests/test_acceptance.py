"""Acceptance suite: every criterion at its stated truncation order, exact
(zero residual) throughout.  Prints one PASS/FAIL line per criterion; run with
`pytest tests/test_acceptance.py -v -s` to see them live."""

import itertools
import random
import time
from contextlib import contextmanager
from fractions import Fraction

from kdeform import (
    GaussRational,
    Metric,
    PoincareAlgebra,
    VectorTau,
    omega,
    r_matrix,
    schouten_square,
)
from kdeform.bases import verify_mr
from kdeform.hopf import DeformationContext, pi_identities_report, verify_hopf
from kdeform.minkowski import verify_covariance
from kdeform.twist import verify_twist

from conftest import random_metric, random_tau

ETA4 = Metric([[-1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
ETA3 = Metric([[-1, 0, 0], [0, 1, 0], [0, 0, 1]])
ETA2 = Metric([[-1, 0], [0, 1]])
KLEINIAN = Metric([[1, 0, 0, 0], [0, -1, 0, 0], [0, 0, 1, 0], [0, 0, 0, -1]])
NONDIAG = Metric(
    [[-1, 0, 0, Fraction(1, 3)], [0, 1, 0, 0], [0, 0, 1, 0], [Fraction(1, 3), 0, 0, 1]]
)

# every context of criterion 2, reused by criteria 3 and 4
HOPF_CONTEXTS = [
    ("eta4-timelike", ETA4, (1, 0, 0, 0)),
    ("eta4-spacelike", ETA4, (0, 0, 0, 1)),
    ("eta4-lightlike", ETA4, (1, 0, 0, 1)),
    ("nondiag-lorentzian", NONDIAG, (1, 0, 0, 0)),
    ("kleinian", KLEINIAN, (1, 1, 1, 1)),
    ("eta3-timelike", ETA3, (1, 0, 0)),
    ("eta2-timelike", ETA2, (1, 0)),
]

_CTX_CACHE = {}


def get_ctx(name, metric, tau, order) -> DeformationContext:
    key = (name, order)
    ctx = _CTX_CACHE.get(key)
    if ctx is None:
        ctx = DeformationContext(metric, tau, order)
        _CTX_CACHE[key] = ctx
    return ctx


@contextmanager
def criterion(number, slug):
    try:
        yield
    except BaseException:
        print(f"\n[acceptance] criterion {number} ({slug}): FAIL")
        raise
    print(f"\n[acceptance] criterion {number} ({slug}): PASS")


def test_criterion_1_schouten_identity():
    with criterion(1, "schouten-identity"):
        t0 = time.monotonic()
        cases = []
        for dim, metric in ((2, ETA2), (3, ETA3), (4, ETA4)):
            time_like = (1,) + (0,) * (dim - 1)
            space_like = (0,) * (dim - 1) + (1,)
            light_like = (1,) + (0,) * (dim - 2) + (1,)
            for tau in (time_like, space_like, light_like):
                cases.append((metric, VectorTau(metric, tau)))
        rng = random.Random(20260809)
        count = 0
        while count < 20:
            dim = rng.choice((2, 3, 4))
            metric = random_metric(rng, dim)
            cases.append((metric, random_tau(rng, metric)))
            count += 1
        for metric, tau in cases:
            alg = PoincareAlgebra(metric, 2)
            lhs = schouten_square(r_matrix(alg, tau))
            rhs = omega(alg) * GaussRational(-tau.tau_sq)
            assert lhs == rhs, f"Schouten residual for tau={tau}"
        elapsed = time.monotonic() - t0
        assert elapsed < 5.0, f"criterion 1 took {elapsed:.1f}s (budget 5s)"


def test_criterion_2_hopf_axiom_suite():
    with criterion(2, "hopf-axioms-checks-1-to-7"):
        for name, metric, tau in HOPF_CONTEXTS:
            for order in (3, 4):
                ctx = get_ctx(name, metric, tau, order)
                t0 = time.monotonic()
                rep = verify_hopf(ctx, checks=range(1, 8))
                elapsed = time.monotonic() - t0
                assert rep.all_passed, (
                    f"{name} N={order}: "
                    + "; ".join(f"{c.name}[{c.generator}]" for c in rep.failures()[:3])
                )
                if metric.dim == 4 and order == 4:
                    assert elapsed < 120, f"{name} N=4 took {elapsed:.0f}s (budget 120s)"


def test_criterion_3_classical_limit_cobracket():
    with criterion(3, "classical-limit-cobracket"):
        for name, metric, tau in HOPF_CONTEXTS:
            for order in (3, 4):
                ctx = get_ctx(name, metric, tau, order)
                rep = verify_hopf(ctx, checks=[8])
                assert rep.all_passed, f"{name} N={order}"


def test_criterion_4_rescaling_invariance():
    with criterion(4, "rescaling-invariance"):
        for name, metric, tau in HOPF_CONTEXTS[:2]:  # time-like and space-like
            ctx = get_ctx(name, metric, tau, 4)
            rep = verify_hopf(ctx, checks=[10])
            assert rep.all_passed, f"{name}"
            # the check covers s in {2, -3} for every generator coproduct
            assert len(rep.checks) == 2 * len(ctx.generator_codes())


def test_criterion_5_majid_ruegg_suite():
    with criterion(5, "majid-ruegg-suite"):
        for name, metric, tau in HOPF_CONTEXTS[:2]:
            ctx = get_ctx(name, metric, tau, 4)
            rep = verify_mr(ctx)
            assert rep.all_passed, (
                f"{name}: " + "; ".join(f"{c.name}[{c.generator}]" for c in rep.failures()[:3])
            )
            names = {c.name for c in rep.checks}
            assert "bracket-m-tau-i-with-p-tilde-j-deformed" in names  # the exp(-2P~/k) term
            assert "coproduct-m-tau-j-bicrossproduct" in names


def test_criterion_6_lightcone_twist_suite():
    with criterion(6, "lightcone-twist-suite"):
        t0 = time.monotonic()
        for name, metric, tau in (
            ("eta4-lightlike", ETA4, (1, 0, 0, 1)),
            ("kleinian", KLEINIAN, (1, 1, 1, 1)),
        ):
            ctx = DeformationContext(metric, tau, 3)
            rep = verify_twist(ctx)
            assert rep.all_passed, (
                f"{name}: " + "; ".join(f"{c.name}[{c.generator}]" for c in rep.failures()[:3])
            )
            names = {c.name for c in rep.checks}
            for required in (
                "two-cocycle",
                "twist-factorizations-agree",
                "triangularity",
                "quantum-yang-baxter",
                "reduced-coproduct-p-minus",
                "reduced-coproduct-m-minus-a",
                "r-conjugation-gives-universal",
            ):
                assert required in names, required
        elapsed = time.monotonic() - t0
        assert elapsed < 300, f"criterion 6 took {elapsed:.0f}s (budget 300s)"


def test_criterion_7_kappa_minkowski_covariance():
    with criterion(7, "kappa-minkowski-covariance"):
        for name, metric, tau in (
            ("eta4-timelike", ETA4, (1, 0, 0, 0)),
            ("eta4-lightlike", ETA4, (1, 0, 0, 1)),
        ):
            ctx = get_ctx(name, metric, tau, 3)
            rep = verify_covariance(ctx)
            assert rep.all_passed, (
                f"{name}: " + "; ".join(f"{c.name}[{c.generator}]" for c in rep.failures()[:3])
            )
            names = {c.name for c in rep.checks}
            assert "relation-preserved-under-action" in names
            assert "successive-action-representation" in names
            assert "leibniz-compatibility" in names


def test_criterion_8_internal_consistency_oracles():
    with criterion(8, "internal-consistency-oracles"):
        for name, metric, tau in HOPF_CONTEXTS[:5]:
            ctx = get_ctx(name, metric, tau, 4)
            # construction itself asserts the two pi_tau_inv routes agree;
            # recompute the closed form here as an explicit witness
            from kdeform.algebra import series_invert

            alg = ctx.algebra
            t2 = ctx.tau.tau_sq
            denom = alg.one() + (ctx.casimir * t2 - ctx.p_tau * ctx.p_tau).times_h(2)
            # numerator sqrt(1 + h^2 tau^2 C) - h P_tau, with sqrt = Pi - h P_tau
            closed = (ctx.pi - ctx.p_tau.times_h(1) * 2) * series_invert(denom)
            assert closed == ctx.pi_inv, f"{name}: closed-form route"
            assert series_invert(ctx.pi) == ctx.pi_inv, f"{name}: series route"
            rep = pi_identities_report(ctx)
            assert rep.all_passed, f"{name}: " + "; ".join(
                c.name for c in rep.failures()
            )


# -- criterion 9: negative controls ------------------------------------------------


def _lie_table(alg):
    codes = alg.generator_codes()
    return {(a, b): dict(alg.bracket_codes(a, b)) for a in codes for b in codes}


def _jacobi_holds(table, codes):
    def brk(a, b):
        return table[(a, b)]

    for x, y, z in itertools.combinations(codes, 3):
        acc = {}
        for first, second, third in ((x, y, z), (y, z, x), (z, x, y)):
            inner = brk(second, third)
            for w, cw in inner.items():
                for v, cv in brk(first, w).items():
                    acc[v] = acc.get(v, GaussRational(0)) + cw * cv
        if any(acc.values()):
            return False
    return True


def _perturbed_algebra(metric, order, x, y, z):
    """[g_x, g_y] += g_z for the paper's generators (M, P), and so
    [g_y, g_x] -= g_z."""
    return PoincareAlgebra(metric, order, shift={(x, y): {z: 1}})


def _hopf_subset_fails(ctx, focus_codes):
    """True when any cheap Hopf check fails on the given generators."""
    alg = ctx.algebra
    from kdeform.tensors import tensor_commutator

    for x in focus_codes:
        d = ctx.coproduct(x)
        xe = ctx.gen_element(x)
        if (d.contract_counit(0) - xe) or (d.contract_counit(1) - xe):
            return True
        left = d.map_leg(0, ctx.mono_coproduct)
        right = d.map_leg(1, ctx.mono_coproduct)
        if left - right:
            return True
    for x in focus_codes:
        for y in ctx.generator_codes():
            if y == x:
                continue
            lhs = ctx.coproduct_of(alg.bracket(ctx.gen_element(x), ctx.gen_element(y)))
            rhs = tensor_commutator(ctx.coproduct(x), ctx.coproduct(y))
            if lhs - rhs:
                return True
    return False


def test_criterion_9_negative_controls():
    with criterion(9, "negative-controls"):
        metric, order = ETA3, 2
        base = PoincareAlgebra(metric, order)
        codes = base.generator_codes()

        # (a) every structure constant, perturbed consistently with antisymmetry
        survivors = []
        for i, x in enumerate(codes):
            for y in codes[i + 1 :]:
                for z in codes:
                    alg = _perturbed_algebra(metric, order, x, y, z)
                    if not _jacobi_holds(_lie_table(alg), codes):
                        continue
                    survivors.append((x, y, z, alg))
        for x, y, z, alg in survivors:
            ctx = DeformationContext(metric, (1, 0, 0), order, algebra=alg)
            assert _hopf_subset_fails(ctx, (x, y)), (
                f"structure-constant perturbation ({x},{y})->{z} passed every check"
            )

        # (b) every coefficient of every generator coproduct
        combos = 0
        for code in codes:
            clean = DeformationContext(metric, (1, 0, 0), order)
            d0 = clean.coproduct(code)
            slots = list(d0.terms)
            slots.append((((), ()), 0))  # a fresh scalar slot
            for key, k in slots:
                # the coefficient of the M, P term key h^k in Delta(g_code) += 1
                ctx = DeformationContext(metric, (1, 0, 0), order, shift={code: {(key, k): 1}})
                assert _hopf_subset_fails(ctx, (code,)), (
                    f"coproduct perturbation {ctx.gen_name(code)} {key} h^{k} "
                    "passed every check"
                )
                combos += 1
        assert combos > 30
