"""Every structure map reaches elements through one linear extension of its
images on PBW monomials (PoincareAlgebra.extend); these properties check that
the extensions are (anti-)multiplicative on random multi-term elements over
random non-diagonal metrics, and that the series calculus inverts tensors."""

import random
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_metric, random_tau
from kdeform import GaussRational, HSeries, TensorElement, tensor_invert
from kdeform.algebra import AlgebraElement
from kdeform.bases import LightconeBasis, adapted_context
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
        out = out + word * HSeries.h_power(alg.order, rng.randint(0, 1), c)
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
    if isinstance(change, LightconeBasis):
        change = change.change
    target = adapted.algebra
    assert change.push(ab, target) == change.push(a, target) * change.push(b, target)

    for _ in range(2):
        x = coordinate_monomial(ctx, [rng.randrange(dim) for _ in range(rng.randint(1, 2))])
        assert act(ctx, ab, x) == act(ctx, a, act(ctx, b, x))

    t = ctx.coproduct_of(a)
    for leg in (0, 1):
        assert t.map_leg(leg, lambda m: AlgebraElement(alg, {(m, 0): GaussRational(1)})) == t

    unit = TensorElement.unit(alg, 2)
    u = unit * 2 + TensorElement.of(a, b) * alg.h(1)
    assert tensor_invert(u) * u == unit
    assert u * tensor_invert(u) == unit
