"""Text and LaTeX output of a PBW element, a two-leg tensor and a wedge:
terms in (size, key) order, a coefficient spanning several powers of h
grouped, complex and negative coefficients, and the unit key."""

from fractions import Fraction

import pytest

from kdeform import GaussRational, TensorElement
from kdeform.algebra import PoincareAlgebra
from kdeform.render import LATEX, TEXT, element_text, tensor_text, wedge_text
from kdeform.tensors import wedge

I = GaussRational(0, 1)


@pytest.fixture(scope="module")
def alg(eta3):
    return PoincareAlgebra(eta3, 2)


def _element(alg):
    p0, p1, x01 = alg.P(0), alg.P(1), alg.X(0, 1)
    return p1 * p0 + p1 * 2 + p1.times_h(1, Fraction(-1, 2)) - 3 + x01.times_h(2, GaussRational(1, 2))


def _tensor(alg):
    p0p1 = TensorElement.of(alg.P(0), alg.P(1))
    return p0p1 - p0p1.times_h(1, I) - TensorElement.of(alg.one(), alg.X(0, 1)).times_h(2, 3)


def _wedge(alg):
    m01 = alg.rotation_code(0, 1)[0]
    p0, p1, p2 = (alg.momentum_code(mu) for mu in range(3))
    return wedge(alg, 2, {(m01, p2): Fraction(-2, 3), (p0, p1): I * -2})


@pytest.mark.parametrize(
    "build, render, text, latex",
    [
        (
            _element,
            element_text,
            "-3 + (2-i)*h^2*M_01 + (2 + -1/2*h)*P_1 + P_0 P_1",
            "-3 + \\left(2 - i\\right)\\, h^{2}\\, M_{01}"
            " + \\left(2 + \\tfrac{-1}{2}\\, h\\right)\\, P_{1} + P_{0} P_{1}",
        ),
        (
            _tensor,
            tensor_text,
            "3i*h^2*[1 (x) M_01] + (1 + -i*h)*[P_0 (x) P_1]",
            "3i\\, h^{2}\\, 1 \\otimes M_{01} + \\left(1 - i\\, h\\right)\\, P_{0} \\otimes P_{1}",
        ),
        (
            _wedge,
            wedge_text,
            "2/3i*M_01 ^ P_2 + -2i*P_0 ^ P_1",
            "\\tfrac{2}{3}i\\, M_{01} \\wedge P_{2} - 2i\\, P_{0} \\wedge P_{1}",
        ),
    ],
    ids=("element", "tensor", "wedge"),
)
def test_output(alg, build, render, text, latex):
    x = build(alg)
    assert render(x) == render(x, TEXT) == text
    assert render(x, LATEX) == latex
