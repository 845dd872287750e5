import random
from fractions import Fraction

import pytest

from kdeform import Metric, TensorElement, VectorTau
from kdeform.algebra import accumulate, collect


@pytest.fixture(scope="session")
def eta4():
    return Metric([[-1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])


@pytest.fixture(scope="session")
def eta3():
    return Metric([[-1, 0, 0], [0, 1, 0], [0, 0, 1]])


@pytest.fixture(scope="session")
def eta2():
    return Metric([[-1, 0], [0, 1]])


@pytest.fixture(scope="session")
def kleinian():
    return Metric([[1, 0, 0, 0], [0, -1, 0, 0], [0, 0, 1, 0], [0, 0, 0, -1]])


@pytest.fixture(scope="session")
def nondiag_lorentzian():
    return Metric(
        [
            [-1, 0, 0, Fraction(1, 3)],
            [0, 1, 0, 0],
            [0, 0, 1, 0],
            [Fraction(1, 3), 0, 0, 1],
        ]
    )


def random_metric(rng: random.Random, dim: int) -> Metric:
    """A random symmetric nondegenerate rational metric (not diagonal in general)."""
    while True:
        rows = [
            [Fraction(rng.randint(-3, 3), rng.choice([1, 2, 3])) for _ in range(dim)]
            for _ in range(dim)
        ]
        for i in range(dim):
            for j in range(i):
                rows[i][j] = rows[j][i]
        try:
            return Metric(rows)
        except Exception:
            continue


def random_tau(rng: random.Random, metric: Metric) -> VectorTau:
    while True:
        comps = [Fraction(rng.randint(-3, 3)) for _ in range(metric.dim)]
        if any(comps):
            return VectorTau(metric, comps)


def random_null_pair(rng: random.Random, dim: int):
    """(metric, tau) with tau null: a random_metric whose g_00 is solved for
    g(tau, tau) = 0 with a random integer tau, tau^0 != 0."""
    while True:
        rows = [list(r) for r in random_metric(rng, dim).rows]
        comps = [Fraction(rng.randint(-3, 3)) for _ in range(dim)]
        if not comps[0]:
            continue
        rest = sum(
            rows[i][j] * comps[i] * comps[j]
            for i in range(dim)
            for j in range(dim)
            if i or j
        )
        rows[0][0] = -rest / (comps[0] * comps[0])
        try:
            metric = Metric(rows)
        except Exception:
            continue
        return metric, VectorTau(metric, comps)


def brute_outer(*factors) -> TensorElement:
    """a1 (x) a2 (x) ... term by term on the coefficient views, the powers of
    h past the order dropped: a reference that shares no code with
    TensorElement.of."""
    alg = factors[0].algebra
    out = {((), 0): 1}
    for f in factors:
        nxt = {}
        for (key, k), c in out.items():
            for (m, j), cf in f.terms.items():
                if k + j <= alg.order:
                    t = (key + (m,), k + j)
                    nxt[t] = c * cf if t not in nxt else nxt[t] + c * cf
        out = nxt
    return TensorElement(alg, len(factors), out)


def adjacent_swap_normal_order(alg, word: tuple, cache: dict) -> tuple:
    """The normal form of a generator word, as (d, pairs), by rewriting the
    leftmost out-of-order adjacent pair via x y = y x + [x, y], one swap at a
    time, every intermediate word memoised in cache: a reference that shares
    only the bracket table and collect with PoincareAlgebra.normal_order."""
    out = cache.get(word)
    if out is None:
        out = cache[word] = _adjacent_swap(alg, word, cache)
    return out


def _adjacent_swap(alg, word: tuple, cache: dict) -> tuple:
    for i in range(len(word) - 1):
        if word[i] > word[i + 1]:
            break
    else:
        return 1, ((word, 1),)
    a, b = word[i], word[i + 1]
    head, tail = word[:i], word[i + 2:]
    d, swapped = adjacent_swap_normal_order(alg, head + (b, a) + tail, cache)
    accs = {d: dict(swapped)}
    db, rule = alg._bracket(a, b)
    for gen, cb in rule.items():
        d, pairs = adjacent_swap_normal_order(alg, head + (gen,) + tail, cache)
        acc = accs.setdefault(db * d, {})
        for m, c in pairs:
            accumulate(acc, m, c * cb)
    num, d = collect(accs)
    return d, tuple(num.items())


def legwise_rule(alg, commutator=False):
    """A rule on pairs of tensor keys, one pair at a time, as (1, [(key,
    Fraction)]): the leg-wise product (a_1 b_1, ..., a_k b_k), or with
    commutator the leg-wise Leibniz rule, whose term i carries [a_i, b_i] on
    leg i, b_j a_j on the legs before it and a_j b_j on the legs after it.
    Each leg is read from mono_product or mono_commutator: a reference that
    shares no grouping or accumulation with tensors._combine."""

    def outer(legs):
        combos = {(): Fraction(1)}
        for d, pairs in legs:
            f = Fraction(1, d)
            combos = {ms + (m,): c * cm * f for ms, c in combos.items() for m, cm in pairs}
        return combos

    def rule(k1, k2):
        if not commutator:
            return 1, list(outer(map(alg.mono_product, k1, k2)).items())
        out = {}
        for i in range(len(k1)):
            legs = [alg.mono_product(b, a) for a, b in zip(k1[:i], k2[:i])]
            legs.append(alg.mono_commutator(k1[i], k2[i]))
            legs += [alg.mono_product(a, b) for a, b in zip(k1[i + 1:], k2[i + 1:])]
            for m, c in outer(legs).items():
                out[m] = out.get(m, 0) + c
        return 1, list(out.items())

    return rule


def brute_combined(t, u, cap, commutator=False) -> TensorElement:
    """t*u, or [t, u] with commutator, term by term on the coefficient views
    through legwise_rule, no power of h past cap."""
    rule, out = legwise_rule(t.algebra, commutator), {}
    for (k1, j1), c1 in t.terms.items():
        for (k2, j2), c2 in u.terms.items():
            if j1 + j2 <= cap:
                for m, c in rule(k1, k2)[1]:
                    out[m, j1 + j2] = out.get((m, j1 + j2), 0) + c1 * c2 * c
    return TensorElement(t.algebra, t.legs, {key: c for key, c in out.items() if c})
