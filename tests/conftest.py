import random
from fractions import Fraction

import pytest

from kdeform import Metric, VectorTau


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
