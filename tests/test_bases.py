import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import brute_outer, random_metric, random_null_pair, random_tau
from kdeform import (
    AlgebraElement,
    GaussRational,
    Metric,
    PoincareAlgebra,
    TensorElement,
    VectorTau,
    r_matrix,
)
from kdeform.bases import (
    BasisChange,
    adapted_context,
    is_orthogonally_adapted,
    lightcone_decompose,
    mr_generators,
    orthogonal_decompose,
    verify_mr,
)
from kdeform.errors import BasisError, InvalidVectorError
from kdeform.hopf import DeformationContext
from kdeform.algebra import MonomialMap, series_exp
from kdeform.reports import VerificationReport
from kdeform.twist import build_twist, verify_twist

# an h^1 (1 (x) 1) bump on one generator coproduct, stated in M and P
H_BUMP = {(((), ()), 1): 1}


def pushforward_consistency_report(
    change: BasisChange, source: PoincareAlgebra, target: PoincareAlgebra
) -> VerificationReport:
    """Brackets commute with the basis change: push([x, y]) = [push(x), push(y)]
    for all generator pairs."""
    rep = VerificationReport("pushforward-consistency")
    codes = source.generator_codes()
    for i, x in enumerate(codes):
        for y in codes[i + 1 :]:
            xe = source.from_codes({x: 1})
            ye = source.from_codes({y: 1})
            lhs = change.push(source.bracket(xe, ye), target)
            rhs = target.bracket(change.push(xe, target), change.push(ye, target))
            n = source.i_count((x, y))
            rep.record("bracket-commutes-with-basis-change", lhs - rhs, f"codes ({x},{y})", phase=n)
    return rep


class TestOrthogonalDecompose:
    def test_identity_for_aligned_tau(self, eta4):
        ch = orthogonal_decompose(eta4, VectorTau(eta4, [1, 0, 0, 0]))
        ident = tuple(
            tuple(Fraction(int(i == j)) for j in range(4)) for i in range(4)
        )
        assert ch.columns == ident
        assert ch.new_metric == eta4

    def test_null_tau_rejected_with_pointer(self, eta4):
        with pytest.raises(BasisError, match="lightcone_decompose"):
            orthogonal_decompose(eta4, VectorTau(eta4, [1, 1, 0, 0]))

    def test_boosted_tau(self, eta4):
        # tau = (2,1,0,0), tau^2 = -3; e_1 lands along (1,2,0,0)
        tau = VectorTau(eta4, [2, 1, 0, 0])
        assert tau.tau_sq == -3
        ch = orthogonal_decompose(eta4, tau)
        g = ch.new_metric.rows
        assert g[0][0] == -3
        assert all(g[0][i] == 0 for i in range(1, 4))
        e1 = tuple(ch.columns[i][1] for i in range(4))
        assert e1[0] * 2 == e1[1]  # proportional to (1, 2, 0, 0)
        # tau has components (1, 0, 0, 0) in the new basis
        assert ch.transform_tau(tau).components == (1, 0, 0, 0)

    def test_nondiagonal_metric(self, nondiag_lorentzian):
        tau = VectorTau(nondiag_lorentzian, [1, 0, 0, 0])
        ch = orthogonal_decompose(nondiag_lorentzian, tau)
        g = ch.new_metric.rows
        assert all(g[0][i] == 0 for i in range(1, 4))


class TestLightconeDecompose:
    def test_lorentzian_null(self, eta4):
        lc = lightcone_decompose(eta4, VectorTau(eta4, [1, 0, 0, 1]))
        ttilde = tuple(lc.columns[i][3] for i in range(4))
        assert ttilde == (Fraction(-1, 2), 0, 0, Fraction(1, 2))
        g = lc.new_metric.rows
        assert g[0][0] == 0 and g[3][3] == 0 and g[0][3] == 1
        assert g[0][1] == g[0][2] == g[3][1] == g[3][2] == 0

    def test_kleinian(self, kleinian):
        lc = lightcone_decompose(kleinian, VectorTau(kleinian, [1, 1, 1, 1]))
        g = lc.new_metric.rows
        assert g[0][0] == 0 and g[3][3] == 0 and g[0][3] == 1
        from kdeform import exactla

        block = [[g[i][j] for j in (1, 2)] for i in (1, 2)]
        assert exactla.signature(block) == (1, 1)

    def test_timelike_rejected(self, eta4):
        with pytest.raises(BasisError):
            lightcone_decompose(eta4, VectorTau(eta4, [1, 0, 0, 0]))

    def test_euclidean_rejected(self):
        g = Metric([[1, 0], [0, 1]])
        with pytest.raises(InvalidVectorError):
            lightcone_decompose(g, VectorTau(g, [0, 0]))


class TestPushforward:
    @pytest.mark.parametrize("tau_comps", [[2, 1, 0, 0], [1, 0, 0, 1]])
    def test_brackets_commute_with_change(self, eta4, tau_comps):
        tau = VectorTau(eta4, tau_comps)
        if tau.tau_sq:
            ch = orthogonal_decompose(eta4, tau)
        else:
            ch = lightcone_decompose(eta4, tau)
        src = PoincareAlgebra(eta4, 2)
        dst = PoincareAlgebra(ch.new_metric, 2)
        rep = pushforward_consistency_report(ch, src, dst)
        assert rep.all_passed


class _RecordingMap(MonomialMap):
    """A MonomialMap that records every (monomial, cap) it is asked for."""

    def __init__(self, change: BasisChange, target: PoincareAlgebra):
        super().__init__(target.one(), lambda code: change.generator_image(code, target))
        self.asked = set()

    def image(self, mono, cap):
        self.asked.add((mono, cap))
        return super().image(mono, cap)


def _legwise_push(images: MonomialMap, t: TensorElement, target: PoincareAlgebra):
    """(push (x) ... (x) push)(t) one term at a time: every leg's image to the
    term's budget, multiplied out on coefficients."""
    out = TensorElement(target, t.legs, {})
    for (key, k), c in t.terms.items():
        legs = (images.image(m, target.order - k) for m in key)
        out = out + brute_outer(*legs).times_h(k, c)
    return out


class TestPushTensor:
    """push_tensor pushes each group's left-leg sum once and each right leg
    once: it must agree with the push term by term, and ask for no monomial
    image at a cap that no term's budget asks for."""

    @staticmethod
    def _check(change, t, target, monkeypatch):
        grouped, reference = _RecordingMap(change, target), _RecordingMap(change, target)
        monkeypatch.setattr(change, "_monomials", lambda _: grouped)
        got, want = change.push_tensor(t, target), _legwise_push(reference, t, target)
        assert (got.legs, got.num, got.den) == (want.legs, want.num, want.den)
        assert grouped.asked <= reference.asked

    @pytest.mark.parametrize("tau", ([2, 1, 0, 0], [1, 0, 0, 1]))
    def test_coproducts(self, eta4, tau, monkeypatch):
        # an orthogonal and a light-cone change; N=3 puts terms at h^N
        ctx = DeformationContext(eta4, tau, 3)
        change, adapted = adapted_context(eta4, ctx.tau, 3)
        for code in ctx.generator_codes():
            self._check(change, ctx.coproduct(code), adapted.algebra, monkeypatch)

    def test_three_legs(self, nondiag_lorentzian, monkeypatch):
        ctx = DeformationContext(nondiag_lorentzian, [1, 0, 0, 2], 2)
        alg = ctx.algebra
        change, adapted = adapted_context(nondiag_lorentzian, ctx.tau, 2)
        p0, p1, x01 = alg.P(0), alg.P(1), alg.X(0, 1)
        t = (
            r_matrix(alg, ctx.tau).embed("13")
            + ctx.coproduct(alg.momentum_code(3)).embed("12").times_h(1)
            + TensorElement.of(p0 * x01, p1, x01).times_h(2, Fraction(3, 4))
        )
        self._check(change, t, adapted.algebra, monkeypatch)


class TestMRGenerators:
    def test_requires_adapted_basis(self, eta4):
        ctx = DeformationContext(eta4, [0, 0, 0, 1], 3)
        assert not is_orthogonally_adapted(ctx)
        with pytest.raises(BasisError):
            mr_generators(ctx)

    def test_classical_limits(self, eta4):
        ctx = DeformationContext(eta4, [1, 0, 0, 0], 3)
        mr = mr_generators(ctx)
        alg = ctx.algebra
        assert mr.p_tilde_tau.h_coefficient(0) == alg.P(0).h_coefficient(0)
        for i in (1, 2, 3):
            assert mr.p_tilde[i - 1].h_coefficient(0) == alg.P(i).h_coefficient(0)

    def test_exponential_recovers_pi(self, eta4):
        ctx = DeformationContext(eta4, [1, 0, 0, 0], 3)
        assert series_exp(mr_generators(ctx).p_tilde_tau.times_h(1)) == ctx.pi

    def test_p_tilde_i_definition(self, eta4):
        ctx = DeformationContext(eta4, [1, 0, 0, 0], 3)
        mr = mr_generators(ctx)
        assert mr.p_tilde[0] == ctx.algebra.P(1) * ctx.pi_inv


class TestVerifyMR:
    def test_timelike(self, eta4):
        rep = verify_mr(DeformationContext(eta4, [1, 0, 0, 0], 3))
        assert rep.all_passed, [f"{c.name} {c.generator}" for c in rep.failures()[:4]]

    def test_spacelike_auto_adapts(self, eta4):
        rep = verify_mr(DeformationContext(eta4, [0, 0, 0, 1], 3))
        assert rep.all_passed

    def test_d2(self, eta2):
        rep = verify_mr(DeformationContext(eta2, [1, 0], 3))
        assert rep.all_passed

    def test_null_tau_skipped(self, eta4):
        rep = verify_mr(DeformationContext(eta4, [1, 0, 0, 1], 3))
        assert rep.skipped

    @pytest.mark.parametrize(
        "gen,must_fail",
        [
            ("P_1", {"reduced-coproduct-p-i", "coproduct-p-tilde-i"}),
            ("M_01", {"coproduct-m-tau-j-bicrossproduct"}),
        ],
    )
    def test_corrupted_coproduct_table_fails(self, eta3, gen, must_fail):
        # the suite checks the caller's own coproduct tables: an h^1 bump on
        # one generator coproduct must fail the checks that read it
        alg = PoincareAlgebra(eta3, 2)
        code = alg.momentum_code(1) if gen == "P_1" else alg.rotation_code(0, 1)[0]
        ctx = DeformationContext(eta3, [1, 0, 0], 2, shift={code: H_BUMP})
        rep = verify_mr(ctx)
        assert not rep.all_passed
        assert must_fail <= {c.name for c in rep.failures()}

    @pytest.mark.parametrize("gen", ["P_1", "M_01"])
    def test_corrupted_table_fails_in_auto_adapted_basis(self, eta3, gen):
        # space-like tau: the suite runs in a freshly adapted context, and the
        # caller's own tables must still be read through the basis change
        alg = PoincareAlgebra(eta3, 2)
        code = alg.momentum_code(1) if gen == "P_1" else alg.rotation_code(0, 1)[0]
        assert verify_mr(DeformationContext(eta3, [0, 0, 1], 2)).all_passed
        rep = verify_mr(DeformationContext(eta3, [0, 0, 1], 2, shift={code: H_BUMP}))
        assert not rep.all_passed
        assert {(c.name, c.generator) for c in rep.failures()} == {
            ("caller-coproduct-in-adapted-basis", gen)
        }


def _over_h(up: DeformationContext, x: AlgebraElement, order: int) -> AlgebraElement:
    """x / h at the lower order: x, computed at order N + 2, has no h^0 term;
    each power of h drops by one, and the powers above N are cut."""
    assert all(k for _, k in x.terms)
    terms = {(key, k - 1): c for (key, k), c in x.terms.items() if k <= order + 1}
    return AlgebraElement(PoincareAlgebra(up.metric, order), terms)


def _log(x: AlgebraElement) -> AlgebraElement:
    """ln(1 + x) for x of positive h-valuation, written out."""
    out, term = x.algebra.zero(), x.algebra.one()
    for k in range(1, x.algebra.order + 1):
        term = term * x
        out = out + term * Fraction((-1) ** (k + 1), k)
    return out


class TestKappaQuotients:
    """The quotients by h come from q = kappa (Pi - 1) at order N; the
    reference divides the same series, built at order N + 2, by h."""

    @settings(max_examples=16, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        dim=st.sampled_from((2, 3)),
        order=st.sampled_from((2, 3)),
        null=st.booleans(),
    )
    def test_closed_forms_match_division_at_higher_order(self, seed, dim, order, null):
        rng = random.Random(seed)
        if null:
            metric, tau = random_null_pair(rng, dim)
        else:
            metric = random_metric(rng, dim)
            tau = random_tau(rng, metric)
            assume(tau.tau_sq)
        _, ctx = adapted_context(metric, tau, order)
        assert ctx.pi == ctx.algebra.one() + ctx.pi_quotient.times_h(1)

        up = DeformationContext(ctx.metric, ctx.tau, order + 2)
        alg, one = up.algebra, up.algebra.one()
        log_pi = _over_h(up, _log(up.pi - one), order)
        if null:
            data = build_twist(ctx)
            assert data.p_tilde_plus == log_pi
            assert ctx.pi_quotient * ctx.pi_inv == _over_h(up, one - up.pi_inv, order)
            rep = verify_twist(DeformationContext(metric, tau, order))
        else:
            mr = mr_generators(ctx)
            ginv = up.metric.inverse
            ptil = {k: alg.P(k) * up.pi_inv for k in range(1, dim)}
            pp = alg.zero()
            for k in range(1, dim):
                for l in range(1, dim):
                    pp = pp + ptil[k] * ptil[l] * GaussRational(ginv[k][l])
            inner = one - up.pi_inv * up.pi_inv - pp.times_h(2, GaussRational(up.tau.tau_sq))
            assert mr.p_tilde_tau == log_pi
            assert mr.kappa_term == _over_h(up, inner, order)
            rep = verify_mr(DeformationContext(metric, tau, order))
        assert rep.all_passed, [f"{c.name} {c.generator}" for c in rep.failures()[:4]]


class TestAdaptedContext:
    def test_roundtrip_classification(self, eta4):
        from kdeform import classify_orbit

        tau = VectorTau(eta4, [2, 1, 0, 0])
        ch, ctx = adapted_context(eta4, tau, 2)
        before = classify_orbit(eta4, tau)
        after = classify_orbit(ctx.metric, ctx.tau)
        assert before.stability_pq == after.stability_pq
        assert before.yb_type == after.yb_type
