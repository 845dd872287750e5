"""Every structure map reaches elements through one linear extension of its
images on PBW monomials (PoincareAlgebra.extend); these properties check that
the extensions are (anti-)multiplicative on random multi-term elements over
random non-diagonal metrics, and that the series calculus inverts tensors.
The extension builds each monomial's image only to the power of h that
survives; the degree-3 words at N=3 reach every cap up to 3."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_metric, random_tau
from kdeform import GaussRational, Metric, TensorElement, VectorTau, tensor_invert
from kdeform.algebra import AlgebraElement, PoincareAlgebra
from kdeform.bases import adapted_context, lightcone_decompose, orthogonal_decompose
from kdeform.hopf import DeformationContext
from kdeform.minkowski import act, coordinate_monomial


def random_element(rng: random.Random, ctx: DeformationContext) -> AlgebraElement:
    """A sum of up to three PBW words of degree <= 2, each with a random
    Gaussian-rational coefficient at h^0 or h^1."""
    alg = ctx.algebra
    codes = ctx.generator_codes()
    out = alg.zero()
    for _ in range(rng.randint(2, 3)):
        word = alg.one()
        for _ in range(rng.randint(0, 2)):
            word = word * ctx.gen_element(rng.choice(codes))
        c = GaussRational(Fraction(rng.randint(-3, 3), rng.randint(1, 3)), rng.randint(-1, 1))
        out = out + word.times_h(rng.randint(0, 1), c)
    return out


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), dim=st.sampled_from((2, 3)))
def test_extensions_are_multiplicative(seed, dim):
    rng = random.Random(seed)
    metric = random_metric(rng, dim)
    ctx = DeformationContext(metric, random_tau(rng, metric), 2)
    alg = ctx.algebra
    a, b = random_element(rng, ctx), random_element(rng, ctx)
    ab = a * b

    assert ctx.coproduct_of(ab) == ctx.coproduct_of(a) * ctx.coproduct_of(b)
    assert ctx.primitive_of(ab) == ctx.primitive_of(a) * ctx.primitive_of(b)
    assert ctx.antipode_of(ab) == ctx.antipode_of(b) * ctx.antipode_of(a)

    change, adapted = adapted_context(metric, ctx.tau, 2)
    target = adapted.algebra
    assert change.push(ab, target) == change.push(a, target) * change.push(b, target)

    for _ in range(2):
        x = coordinate_monomial(ctx, [rng.randrange(dim) for _ in range(rng.randint(1, 2))])
        assert act(ctx, ab, x) == act(ctx, a, act(ctx, b, x))

    t = ctx.coproduct_of(a)
    for leg in (0, 1):
        assert t.map_leg(leg, lambda m: AlgebraElement(alg, {(m, 0): GaussRational(1)})) == t
        # a plain callable with an h^1 term: its image is cut at each term's budget
        one = GaussRational(1)
        times = t.map_leg(leg, lambda m: AlgebraElement(alg, {(m, 0): one, (m, 1): one}))
        assert times == t + t.times_h(1)

    unit = TensorElement.unit(alg, 2)
    u = unit * 2 + TensorElement.of(a, b).times_h(1)
    assert tensor_invert(u) * u == unit
    assert u * tensor_invert(u) == unit


def _degree3_contexts():
    eta3 = Metric([[-1, 0, 0], [0, 1, 0], [0, 0, 1]])
    rng = random.Random(7)
    metric = random_metric(rng, 3)
    return [
        pytest.param(eta3, VectorTau(eta3, (1, 1, 0)), id="eta3-null"),
        pytest.param(metric, random_tau(rng, metric), id="random-D3"),
    ]


@pytest.mark.parametrize("metric,tau", _degree3_contexts())
def test_degree3_words_at_every_cap(metric, tau):
    """Every degree-3 generator word xyz at N=3: the extension of each
    structure map equals the product of the generator images, so the cap-3
    images of degree-3 monomials are complete."""
    ctx = DeformationContext(metric, tau, 3)
    if tau.tau_sq:
        change = orthogonal_decompose(metric, tau)
    else:
        change = lightcone_decompose(metric, tau)
    target = PoincareAlgebra(change.new_metric, 3)
    codes = ctx.generator_codes()
    gens = {x: ctx.gen_element(x) for x in codes}
    cop = {x: ctx.coproduct(x) for x in codes}
    prim = {x: ctx.primitive_of(gens[x]) for x in codes}
    anti = {x: ctx.antipode(x) for x in codes}
    push = {x: change.push(gens[x], target) for x in codes}
    for x, y in itertools.product(codes, repeat=2):
        xy = gens[x] * gens[y]
        cop_xy, prim_xy = cop[x] * cop[y], prim[x] * prim[y]
        anti_yx, push_xy = anti[y] * anti[x], push[x] * push[y]
        for z in codes:
            xyz = xy * gens[z]
            assert ctx.coproduct_of(xyz) == cop_xy * cop[z]
            assert ctx.primitive_of(xyz) == prim_xy * prim[z]
            assert ctx.antipode_of(xyz) == anti[z] * anti_yx
            assert change.push(xyz, target) == push_xy * push[z]
