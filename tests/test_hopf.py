import gc
import random
import weakref
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import brute_outer, random_metric, random_null_pair, random_tau
from kdeform import GaussRational, Metric, TensorElement
from kdeform.bases import adapted_context, mr_generators, verify_mr
from kdeform.cli import EXAMPLES
from kdeform.hopf import DeformationContext, pi_identities_report, verify_hopf
from kdeform.jsonio import config_from_json
from kdeform.minkowski import coordinate, verify_covariance
from kdeform.reports import VerificationReport
from kdeform.twist import build_twist, verify_twist

I = GaussRational(0, 1)


def primitivity_report(ctx: DeformationContext, stability_codes) -> VerificationReport:
    """Check that the deformed coproduct is primitive exactly on the given
    generators (the stability subalgebra of tau)."""
    rep = VerificationReport("stability-primitivity")
    for code in ctx.generator_codes():
        d = ctx.coproduct(code)
        prim = ctx._primitive_gen(code)
        is_prim = (d - prim).is_zero
        should = code in stability_codes
        rep.record_bool(
            "coproduct-primitive-iff-stability",
            is_prim == should,
            generator=ctx.gen_name(code),
            note="primitive" if is_prim else "deformed",
        )
    return rep


class TestPiTau:
    def test_null_series_terminates(self, eta4):
        ctx = DeformationContext(eta4, [1, 0, 0, 1], 4)
        alg = ctx.algebra
        assert ctx.pi == alg.one() + (alg.P(0) + alg.P(3)).times_h(1)

    def test_timelike_hand_expansion(self, eta4):
        # tau^2 = -1: Pi = 1 + h P_0 - h^2/2 C at N = 3
        ctx = DeformationContext(eta4, [1, 0, 0, 0], 3)
        alg = ctx.algebra
        expect = alg.one() + alg.P(0).times_h(1) - ctx.casimir.times_h(
            2, GaussRational(Fraction(1, 2))
        )
        assert ctx.pi == expect

    def test_zero_tau(self, eta4):
        ctx = DeformationContext(eta4, [0, 0, 0, 0], 3)
        assert ctx.pi == ctx.algebra.one()


class TestPiTauInverse:
    def test_null_geometric(self, eta4):
        ctx = DeformationContext(eta4, [1, 0, 0, 1], 3)
        alg = ctx.algebra
        pt = alg.P(0) + alg.P(3)
        expect = (
            alg.one() - pt.times_h(1) + (pt * pt).times_h(2) - (pt * pt * pt).times_h(3)
        )
        assert ctx.pi_inv == expect

    def test_defining_property(self, eta4):
        ctx = DeformationContext(eta4, [0, 0, 0, 1], 4)
        assert ctx.pi * ctx.pi_inv == ctx.algebra.one()

    def test_timelike_hand_expansion_n2(self, eta4):
        ctx = DeformationContext(eta4, [1, 0, 0, 0], 2)
        alg = ctx.algebra
        expect = (
            alg.one()
            - alg.P(0).times_h(1)
            + (alg.P(0) * alg.P(0) + ctx.casimir * Fraction(1, 2)).times_h(2)
        )
        assert ctx.pi_inv == expect


class TestCTau:
    def test_null_case_is_casimir(self, eta4):
        ctx = DeformationContext(eta4, [1, 0, 0, 1], 4)
        assert ctx.c_tau == ctx.casimir

    def test_generic_order_h2(self, eta4):
        # C_tau = C - tau^2/4 h^2 C^2 + O(h^4)
        ctx = DeformationContext(eta4, [0, 0, 0, 1], 2)
        c = ctx.casimir
        expect = c - (c * c).times_h(2, GaussRational(Fraction(1, 4)))
        assert ctx.c_tau == expect

    def test_inversion_identity(self, eta4, kleinian):
        for metric, tau in ((eta4, [1, 0, 0, 0]), (kleinian, [1, 1, 1, 1])):
            ctx = DeformationContext(metric, tau, 4)
            t2 = ctx.tau.tau_sq
            quarter = GaussRational(Fraction(t2, 4))
            assert ctx.c_tau * (ctx.algebra.one() + ctx.c_tau.times_h(2, quarter)) == ctx.casimir


class TestCoproduct:
    def test_spatial_momentum_form(self, eta4):
        ctx = DeformationContext(eta4, [1, 0, 0, 0], 3)
        alg = ctx.algebra
        d = ctx.coproduct(alg.momentum_code(1))
        assert d == TensorElement.of(alg.P(1), ctx.pi) + TensorElement.of(
            alg.one(), alg.P(1)
        )

    def test_order_h_expansion(self, eta4):
        ctx = DeformationContext(eta4, [1, 0, 0, 0], 3)
        alg = ctx.algebra
        d = ctx.coproduct(alg.momentum_code(1))
        p1, p0 = (alg.momentum_code(1),), (alg.momentum_code(0),)
        assert d.h_coefficient(0).terms == {
            ((p1, ()), 0): GaussRational(1), (((), p1), 0): GaussRational(1)
        }
        assert d.h_coefficient(1).terms == {((p1, p0), 1): GaussRational(1)}

    def test_zero_tau_primitive(self, eta4):
        ctx = DeformationContext(eta4, [0, 0, 0, 0], 2)
        for code in ctx.generator_codes():
            assert ctx.coproduct(code) == ctx._primitive_gen(code)

    def test_stability_primitivity_timelike(self, eta4):
        # G_tau = SO(3): exactly the spatial rotations stay primitive
        ctx = DeformationContext(eta4, [1, 0, 0, 0], 2)
        alg = ctx.algebra
        stability = {alg.rotation_code(i, j)[0] for (i, j) in [(1, 2), (1, 3), (2, 3)]}
        rep = primitivity_report(ctx, stability)
        assert rep.all_passed


class TestCoproductExtension:
    def test_unit(self, eta4):
        ctx = DeformationContext(eta4, [1, 0, 0, 0], 2)
        assert ctx.coproduct_of(ctx.algebra.one()) == TensorElement.unit(ctx.algebra, 2)

    def test_pi_group_like(self, eta4):
        ctx = DeformationContext(eta4, [0, 0, 0, 1], 3)
        assert ctx.coproduct_of(ctx.pi) == TensorElement.of(ctx.pi, ctx.pi)

    def test_sqrt_display_with_corrected_coefficient(self, eta4):
        # Delta(sqrt(1 + h^2 tau^2 C)) = sqrt (x) Pi - h Pi^-1 (x) P_tau
        #   + h^2 tau^2 P^a Pi^-1 (x) P_a - h^2 P_tau Pi^-1 (x) P_tau
        # (the last coefficient is h^2, forced by the rescaling symmetry)
        ctx = DeformationContext(eta4, [0, 0, 0, 1], 3)
        alg = ctx.algebra
        t2 = ctx.tau.tau_sq
        sqrt_term = ctx.pi - ctx.p_tau.times_h(1)
        rhs = TensorElement.of(sqrt_term, ctx.pi)
        rhs = rhs - TensorElement.of(ctx.pi_inv, ctx.p_tau).times_h(1)
        for a in range(alg.dim):
            rhs = rhs + TensorElement.of(
                alg.momentum_raised(a) * ctx.pi_inv, alg.P(a)
            ).times_h(2, GaussRational(t2))
        rhs = rhs - TensorElement.of(ctx.p_tau * ctx.pi_inv, ctx.p_tau).times_h(2)
        assert ctx.coproduct_of(sqrt_term) == rhs


class TestAntipode:
    def test_momentum_with_vanishing_covariant_component(self, eta4):
        ctx = DeformationContext(eta4, [1, 0, 0, 0], 3)
        alg = ctx.algebra
        assert ctx.antipode(alg.momentum_code(1)) == -(alg.P(1) * ctx.pi_inv)

    def test_spatial_rotation_classical(self, eta4):
        ctx = DeformationContext(eta4, [1, 0, 0, 0], 3)
        alg = ctx.algebra
        # the table holds S(X_12) for X = -iM, so S(M_12) = -M_12 alike
        assert ctx.antipode(alg.rotation_code(1, 2)[0]) == -alg.X(1, 2)

    def test_zero_tau_classical(self, eta4):
        ctx = DeformationContext(eta4, [0, 0, 0, 0], 2)
        for code in ctx.generator_codes():
            assert ctx.antipode(code) == -ctx.gen_element(code)


class TestCounit:
    def test_values(self, eta4):
        ctx = DeformationContext(eta4, [1, 0, 0, 0], 2)
        alg = ctx.algebra
        one = alg.one()
        assert one.counit() == one
        assert (alg.P(0) + alg.M(0, 1) * 3).counit().is_zero
        assert ctx.pi.counit() == one
        assert (one * 2 + alg.P(0) + one.times_h(2, I)).counit() == one * 2 + one.times_h(2, I)


class TestStarStructure:
    def test_pi_self_conjugate(self, eta4):
        ctx = DeformationContext(eta4, [1, 0, 0, 0], 3)
        assert ctx.pi.star() == ctx.pi
        assert ctx.pi_inv.star() == ctx.pi_inv


class TestMomentumSubalgebra:
    def test_cached_series_commute_pairwise(self, eta4, kleinian):
        # Pi, Pi^-1, C_tau, P_tau, C all live in the commutative momentum
        # subalgebra; their products are order-independent
        for metric, tau in ((eta4, [1, 0, 0, 0]), (kleinian, [1, 1, 1, 1])):
            ctx = DeformationContext(metric, tau, 3)
            series = [ctx.pi, ctx.pi_inv, ctx.c_tau, ctx.p_tau, ctx.casimir]
            for a in series:
                assert all(code >= ctx.algebra._mom0 for m, _ in a.terms for code in m)
                for b in series:
                    assert a * b == b * a


class TestLifetime:
    def test_dropped_context_is_freed_without_the_cyclic_collector(self, eta3):
        # the rescaling check builds and drops contexts: they must not wait
        # for a cyclic collection, or peak memory depends on its timing
        gc.disable()
        try:
            ctx = DeformationContext(eta3, [1, 1, 0], 2)
            for code in ctx.generator_codes():
                ctx.coproduct_of(ctx.gen_element(code) * ctx.gen_element(code))
                ctx.antipode_of(ctx.gen_element(code) * ctx.pi)
            refs = weakref.ref(ctx), weakref.ref(ctx.algebra)
            del ctx
            assert [r() for r in refs] == [None, None]
        finally:
            gc.enable()

    @pytest.mark.parametrize(
        "suite, tau",
        [
            (verify_mr, [0, 0, 0, 1]),
            (verify_twist, [1, 0, 0, 1]),
            (verify_covariance, [1, 0, 0, 1]),
        ],
    )
    def test_adapted_suites_leave_no_cycles(self, eta4, suite, tau):
        # the MR and twist suites build a basis change and an adapted context,
        # and drop them; the covariance suite fills the action caches of the
        # caller's context: nothing may be left for the cyclic collector
        gc.collect()
        gc.disable()
        try:
            assert suite(DeformationContext(eta4, tau, 2)).all_passed
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestPiIdentities:
    @pytest.mark.parametrize(
        "tau", [[1, 0, 0, 0], [0, 0, 0, 1], [1, 0, 0, 1], [0, 0, 0, 0]]
    )
    def test_all(self, eta4, tau):
        ctx = DeformationContext(eta4, tau, 4)
        assert pi_identities_report(ctx).all_passed

    def test_reports_its_time(self, eta3):
        rep = pi_identities_report(DeformationContext(eta3, [1, 0, 0], 2))
        assert rep.seconds > 0


class TestVerifyHopfSmall:
    """Full ten-check suite on cheap contexts; the heavy D=4 N=4 sweeps live in
    the acceptance module."""

    def test_d3_timelike(self, eta3):
        ctx = DeformationContext(eta3, [1, 0, 0], 3)
        rep = verify_hopf(ctx)
        assert rep.all_passed, [str(c) for c in rep.failures()[:3]]

    def test_d2_lightlike(self):
        lc = Metric([[0, 1], [1, 0]])
        ctx = DeformationContext(lc, [1, 0], 3)
        rep = verify_hopf(ctx)
        assert rep.all_passed

    def test_nondiagonal_perturbed(self, nondiag_lorentzian):
        ctx = DeformationContext(nondiag_lorentzian, [1, 0, 0, 0], 2)
        rep = verify_hopf(ctx)
        assert rep.all_passed

    def test_report_shape(self, eta3):
        ctx = DeformationContext(eta3, [1, 0, 0], 2)
        rep = verify_hopf(ctx, checks=[2, 3])
        names = {c.name for c in rep.checks}
        assert names == {"coassociativity", "counit-axioms"}
        data = rep.to_json()
        assert data["passed"] is True and data["suite"] == "hopf"

    @pytest.mark.parametrize("checks", [["coassociativty"], [0], [-1], [11], [2, "antipode"]])
    def test_unknown_check_rejected(self, eta3, checks):
        # a misspelt name must not run nothing and pass, nor a number wrap round
        ctx = DeformationContext(eta3, [1, 0, 0], 2)
        with pytest.raises(ValueError, match="unknown Hopf check"):
            verify_hopf(ctx, checks)

    def test_cobracket_failure_names_its_tensor(self, eta3):
        # a bump h 1 (x) P_1 on the coproduct of M_01 (code 1) survives the
        # flip: the failed residual is the two-leg tensor at h, in the paper's M
        ctx = DeformationContext(eta3, [1, 0, 0], 2, shift={1: {(((), (10,)), 1): 1}})
        (failed,) = verify_hopf(ctx, checks=["classical-limit-cobracket"]).failures()
        assert failed.generator == "M_01"
        assert failed.residual == "h*[1 (x) P_1] + -1*h*[P_1 (x) 1]"
        assert failed.residual_json["legs"] == 2


class TestRandomizedSuites:
    """The Hopf suite and the suite of the orbit, Majid-Ruegg for tau^2 != 0
    and the twist for tau^2 = 0, on random non-diagonal rational metrics."""

    @staticmethod
    def _suites_pass(metric, tau):
        ctx = DeformationContext(metric, tau, 2)
        assert verify_hopf(ctx).all_passed
        orbit_suite = verify_mr if tau.tau_sq else verify_twist
        rep = orbit_suite(ctx)
        assert rep.skipped is None and rep.all_passed, rep.failures()

    @settings(max_examples=8, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), dim=st.sampled_from((2, 3)))
    def test_random_tau(self, seed, dim):
        rng = random.Random(seed)
        metric = random_metric(rng, dim)
        self._suites_pass(metric, random_tau(rng, metric))

    @settings(max_examples=8, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), dim=st.sampled_from((2, 3)))
    def test_random_null_tau(self, seed, dim):
        self._suites_pass(*random_null_pair(random.Random(seed), dim))


def _structure_faults(ctx):
    """Every fault of the stored elements and tables of a context, by name:
    a denominator that is not an int >= 1, a numerator that is not a nonzero
    int (a Fraction, a float, or a GaussRational: a phase the real form of
    the engine never has), numerators that share a factor with their
    denominator, an out-of-range term, and a term off the element's weight.
    The weight of a term is the number of momenta minus the power of h
    (P: 1, X: 0, h: -1), and minus the word length for the coordinates y
    (y: -1)."""
    alg = ctx.algebra
    codes = alg.generator_codes()
    weight = {c: 1 - alg.i_count((c,)) for c in codes}  # P: 1, X: 0
    faults = []

    def stored(name, den, numerators):
        if type(den) is not int or den < 1:
            faults.append(f"{name}: denominator {den!r} of type {type(den).__name__}")
        bad = [c for c in numerators if type(c) is not int or not c]
        for c in bad:
            faults.append(f"{name}: coefficient numerator {c!r} of type {type(c).__name__}")
        if not bad and type(den) is int and gcd(den, *numerators) != 1:
            faults.append(f"{name}: numerators share a factor with the denominator {den}")

    def element(name, elem, w, word_weight=None):
        word_weight = word_weight or (lambda key: sum(weight[c] for c in key))
        legs = getattr(elem, "legs", None)
        stored(name, elem.den, list(elem.num.values()))
        for key, k in elem.num:
            if type(k) is not int or not 0 <= k <= alg.order:
                faults.append(f"{name}: power h^{k} out of range")
            kw = sum(map(word_weight, key)) if legs else word_weight(key)
            if kw - k != w:
                faults.append(f"{name}: term {key} h^{k} has weight {kw - k}, not {w}")

    element("Pi", ctx.pi, 0)
    element("Pi^-1", ctx.pi_inv, 0)
    element("C_tau", ctx.c_tau, 2)
    for x in codes:
        name = ctx.gen_name(x)
        element(f"coproduct {name}", ctx.coproduct(x), weight[x])
        element(f"antipode {name}", ctx.antipode(x), weight[x])
        for y in codes:
            for z in alg.bracket_codes(x, y):
                if weight[z] != weight[x] + weight[y]:
                    faults.append(f"bracket [{x},{y}]: {z} off weight")
            if x < y:
                d, pairs = alg.mono_commutator((x,), (y,))
                stored(f"commutator [{x},{y}]", d, [c for _, c in pairs])
            for word in ((x, y), (y, x, y)):
                d, pairs = alg.normal_order(word)
                stored(f"normal order {word}", d, [c for _, c in pairs])
                for (m, k), _ in pairs:
                    if sum(weight[g] for g in m) - k != sum(weight[g] for g in word):
                        faults.append(f"normal order {word}: {m} h^{k} off weight")
    ys = [coordinate(ctx, mu) for mu in range(alg.dim)]
    for name, elem, w in (
        ("y1 y0 y1", ys[1] * ys[0] * ys[-1], -3),
        ("(y1 y0)*", (ys[-1] * ys[0]).star(), -2),
    ):
        element(f"kappa-Minkowski {name}", elem, w, word_weight=lambda key: -len(key))
    if ctx.tau.tau_sq:
        _, adapted = adapted_context(ctx.metric, ctx.tau, ctx.order)
        mr = mr_generators(adapted)
        for name, elem in [("P~_tau", mr.p_tilde_tau), ("kappa term", mr.kappa_term)] + [
            (f"P~_{i + 1}", p) for i, p in enumerate(mr.p_tilde)
        ]:
            element(f"Majid-Ruegg {name}", elem, 1)
    elif not ctx.tau.is_zero:
        _, adapted = adapted_context(ctx.metric, ctx.tau, ctx.order)
        twist = build_twist(adapted)
        element("twist F", twist.twist, 0)
        element("R-matrix", twist.r_quantum, 0)
    return faults


class TestFlatTerms:
    """Structural invariants of every stored element and table: int
    numerators over an int denominator in lowest terms, and one weight per
    element."""

    def test_every_element_stores_flat_nonzero_coefficients(self):
        # lightcone-adapted eta_4 (g_03 = 1, tau = e_0) at N=3: the twist suite's context
        metric = Metric([[0, 0, 0, 1], [0, 1, 0, 0], [0, 0, 1, 0], [1, 0, 0, 0]])
        assert _structure_faults(DeformationContext(metric, [1, 0, 0, 0], 3)) == []

    @pytest.mark.parametrize("example", sorted(EXAMPLES))
    def test_builtin_examples(self, example):
        cfg = config_from_json({k: v for k, v in EXAMPLES[example].items() if k != "description"})
        assert _structure_faults(DeformationContext(cfg.metric, cfg.tau, 2)) == []

    @settings(max_examples=6, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), dim=st.sampled_from((2, 3)), null=st.booleans())
    def test_random_metric_and_tau(self, seed, dim, null):
        rng = random.Random(seed)
        if null:
            metric, tau = random_null_pair(rng, dim)
        else:
            metric = random_metric(rng, dim)
            tau = random_tau(rng, metric)
        assert _structure_faults(DeformationContext(metric, tau, 2)) == []

    def test_off_weight_bump_fails_by_name(self, eta3):
        # h^1 (1 (x) 1) has weight -1: added to Delta(P_1), of weight 1, it
        # must be named; at h^0 on Delta(M_01) it has the right weight 0
        alg = DeformationContext(eta3, [1, 0, 0], 2).algebra
        p1, m01 = alg.momentum_code(1), alg.rotation_code(0, 1)[0]
        bumped = DeformationContext(eta3, [1, 0, 0], 2, shift={p1: {(((), ()), 1): 1}})
        fault = "coproduct P_1: term ((), ()) h^1 has weight -1, not 1"
        assert _structure_faults(bumped) == [fault]
        level = DeformationContext(eta3, [1, 0, 0], 2, shift={m01: {(((), ()), 0): 1}})
        faults = _structure_faults(level)
        assert faults and all(f.startswith("coproduct M_01: coefficient") for f in faults)


# -- the tables against the module formulas, term by term --------------------------


def reference_coproduct(ctx: DeformationContext, code: int) -> TensorElement:
    """D(code) from the module docstring's formulas one term at a time, every
    tensor product taken on coefficients (brute_outer)."""
    alg, one, half = ctx.algebra, ctx.algebra.one(), Fraction(1, 2)
    kind, idx = alg.decode(code)
    cov, gen = ctx.tau.covariant, ctx.gen_element(code)
    raised = [alg.momentum_raised(a) * ctx.pi_inv for a in range(alg.dim)]
    cp = ctx.c_tau * ctx.pi_inv
    out = brute_outer(gen, ctx.pi if kind == "P" else one) + brute_outer(one, gen)
    if kind == "P":
        for a in range(alg.dim):
            out = out - brute_outer(raised[a], alg.P(a)).times_h(1, cov[idx])
        return out - brute_outer(cp, ctx.p_tau).times_h(2, half * cov[idx])
    mu, nu = idx
    for a in range(alg.dim):
        w = alg.X(a, mu) * cov[nu] - alg.X(a, nu) * cov[mu]
        out = out + brute_outer(raised[a], w).times_h(1)
    w2 = ctx.x_tau[nu] * cov[mu] - ctx.x_tau[mu] * cov[nu]
    return out - brute_outer(cp, w2).times_h(2, half)


def reference_antipode(ctx: DeformationContext, code: int):
    """S(code) from the module docstring's formulas one term at a time."""
    alg, half = ctx.algebra, Fraction(1, 2)
    kind, idx = alg.decode(code)
    cov, gen = ctx.tau.covariant, ctx.gen_element(code)
    if kind == "P":
        extra = ctx.casimir + (ctx.p_tau * ctx.c_tau).times_h(1, half)
        return -((gen + extra.times_h(1, cov[idx])) * ctx.pi_inv)
    mu, nu = idx
    out = -gen
    for a in range(alg.dim):
        w = alg.X(a, mu) * cov[nu] - alg.X(a, nu) * cov[mu]
        out = out + (alg.momentum_raised(a) * w).times_h(1)
    w2 = ctx.x_tau[mu] * cov[nu] - ctx.x_tau[nu] * cov[mu]
    return out + (ctx.c_tau * w2).times_h(2, half)


def _table_mismatches(ctx: DeformationContext, shifted=None) -> list:
    """The generators whose coproduct or antipode is not stored exactly as the
    reference's numerators over its denominator.  shifted: {code: tensor}
    added to the reference coproduct, as the context's shift= adds it."""
    bad = []
    for code in ctx.generator_codes():
        want, got = reference_coproduct(ctx, code), ctx.coproduct(code)
        if shifted and code in shifted:
            want = want + shifted[code]
        if (got.num, got.den) != (want.num, want.den):
            bad.append(f"coproduct {ctx.gen_name(code)}")
        want, got = reference_antipode(ctx, code), ctx.antipode(code)
        if (got.num, got.den) != (want.num, want.den):
            bad.append(f"antipode {ctx.gen_name(code)}")
    return bad


class TestTablesAgainstFormulas:
    """The coproduct and antipode tables, assembled from the shared left
    factors W_a by key rewrites, are the paper's formulas exactly."""

    @pytest.mark.parametrize("order", (2, 3, 4))
    @pytest.mark.parametrize("example", sorted(EXAMPLES))
    def test_builtin_examples(self, example, order):
        cfg = config_from_json({k: v for k, v in EXAMPLES[example].items() if k != "description"})
        assert _table_mismatches(DeformationContext(cfg.metric, cfg.tau, order)) == []

    @settings(max_examples=8, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), dim=st.sampled_from((2, 3)), null=st.booleans())
    def test_random_metric_and_tau(self, seed, dim, null):
        rng = random.Random(seed)
        if null:
            metric, tau = random_null_pair(rng, dim)
        else:
            metric = random_metric(rng, dim)
            tau = random_tau(rng, metric)
        ctx = DeformationContext(metric, tau, rng.choice((2, 3)))
        assert _table_mismatches(ctx) == []

    @pytest.mark.parametrize("tau", ((0, 2, 0, -1), (0, 0, 0, 0), (3, 0, 0, 0)))
    def test_zero_components(self, nondiag_lorentzian, tau):
        assert _table_mismatches(DeformationContext(nondiag_lorentzian, tau, 3)) == []

    def test_shift_is_added_after_assembly(self, eta3):
        probe = DeformationContext(eta3, [1, 0, 1], 3)
        p1, m01 = probe.algebra.momentum_code(1), probe.algebra.rotation_code(0, 1)[0]
        bump = {(((), ()), 1): 1}
        ctx = DeformationContext(eta3, [1, 0, 1], 3, shift={p1: bump, m01: bump})
        # stated in M: D(X_01) = -i D(M_01) carries -i times the bump
        t = TensorElement(ctx.algebra, 2, bump)
        assert _table_mismatches(ctx, {p1: t, m01: t * -I}) == []
        assert _table_mismatches(ctx) == ["coproduct M_01", "coproduct P_1"]
