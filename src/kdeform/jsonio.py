"""JSON encodings of every expression type, and run-configuration ingestion.

Element JSON is an output format only; the one JSON input is the run
configuration, whose rationals are exact "num/den" strings or plain integers
(floats are rejected outright).  Series are arrays of
{h_power, re_num, re_den, im_num, im_den} with zero coefficients omitted;
h_power is a plain integer >= 0.  Expressions are written in the paper's
symbols M = iX and x = iy (see TermElement.in_symbols).
"""

from __future__ import annotations

from fractions import Fraction

from .algebra import AlgebraElement, Metric, VectorTau
from .bases import OrbitClassification
from .minkowski import MinkowskiElement
from .render import ordered, tensor_size, wedge_series
from .tensors import TensorElement


def rational_to_str(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def parse_rational(x) -> Fraction:
    if isinstance(x, bool) or isinstance(x, float):
        raise ValueError(f"rationals must be exact ints or 'num/den' strings, got {x!r}")
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        try:
            return Fraction(x)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {x!r}") from None
    raise ValueError(f"cannot parse rational from {x!r}")


def _rational_list(x, what: str, parse=parse_rational) -> list:
    if not isinstance(x, list):
        raise ValueError(f"{what} must be a list, got {x!r}")
    return [parse(v) for v in x]


def gauss_to_json(c) -> dict:
    """A rational or GaussRational coefficient; both carry .real and .imag."""
    re, im = c.real, c.imag
    return {
        "re_num": re.numerator,
        "re_den": re.denominator,
        "im_num": im.numerator,
        "im_den": im.denominator,
    }


def series_to_json(nz: tuple) -> list:
    """A series ((k, c), ...) as in TermElement.series."""
    return [{"h_power": k, **gauss_to_json(c)} for k, c in nz]


def _gen_descriptor(code: int, dim: int) -> dict:
    if code >= dim * dim:
        return {"P": code - dim * dim}
    mu, nu = divmod(code, dim)
    return {"M": [mu, nu]}


def _terms_to_json(elem, field: str, key_json, size=len) -> list:
    """The JSON term list of an element of any kind: each key of its series
    under field, as key_json writes it, with its coefficients, in output
    order (see render.ordered)."""
    return [{field: key_json(key), "coeff": series_to_json(nz)}
            for key, nz in ordered(elem.series(), size)]


def _mono_json(mono: tuple, dim: int) -> list:
    return [_gen_descriptor(c, dim) for c in mono]


def element_to_json(elem: AlgebraElement) -> dict:
    dim = elem.algebra.dim
    return {"terms": _terms_to_json(elem, "monomial", lambda m: _mono_json(m, dim))}


def tensor_to_json(t: TensorElement) -> dict:
    dim = t.algebra.dim

    def key_json(key):
        return [_mono_json(m, dim) for m in key]

    return {"legs": t.legs, "terms": _terms_to_json(t, "monomials", key_json, tensor_size)}


def wedge_to_json(t: TensorElement) -> dict:
    """An antisymmetric tensor of generators (see tensors.wedge) in its sorted
    wedge coordinates."""
    dim = t.algebra.dim
    return {
        "degree": t.legs,
        "terms": [
            {
                "generators": _mono_json(key, dim),
                "coeff": gauss_to_json(c),
            }
            for key, ((_, c),) in sorted(wedge_series(t).items())
        ],
    }


def mink_to_json(elem: MinkowskiElement) -> dict:
    return {"terms": _terms_to_json(elem, "monomial", lambda mono: [{"x": mu} for mu in mono])}


def orbit_to_json(o: OrbitClassification) -> dict:
    return {
        "tau_sq": rational_to_str(o.tau_sq),
        "tau_sq_sign": o.tau_sq_sign,
        "yb_type": o.yb_type,
        "stability": {
            "kind": o.stability_kind,
            "p": o.stability_pq[0],
            "q": o.stability_pq[1],
        },
        "label": o.stability_label,
        "suggested_basis": o.suggested_basis,
    }


_WRITERS = {
    AlgebraElement: element_to_json, TensorElement: tensor_to_json, MinkowskiElement: mink_to_json
}


def residual_to_json(residual) -> dict:
    """The JSON encoding of a failed check's residual, an element of any kind."""
    return _WRITERS[type(residual)](residual)


# -- run configuration ------------------------------------------------------------


BASIS_CHOICES = ("auto", "identity", "orthogonal", "lightcone")
FORMAT_CHOICES = ("text", "json", "latex")


class RunConfig:
    """Validated CLI configuration: dimension, metric, tau, truncation order,
    preferred basis and output format."""

    __slots__ = ("metric", "tau", "truncation_order", "basis", "output_format")

    def __init__(self, metric: Metric, tau: VectorTau, truncation_order: int | None = None, basis: str = "auto",
                 output_format: str = "text"):
        self.metric, self.tau, self.truncation_order = metric, tau, truncation_order
        self.basis, self.output_format = basis, output_format

    @property
    def dimension(self) -> int:
        return self.metric.dim

    def order_for(self, suite: str) -> int:
        """Default N = 4, but N = 3 for the twist and module-algebra suites
        whose tensor growth is cubic; an explicit order wins."""
        if self.truncation_order is not None:
            return self.truncation_order
        return 3 if suite in ("twist", "minkowski") else 4


def config_from_json(data: dict) -> RunConfig:
    if not isinstance(data, dict):
        raise ValueError("configuration must be a JSON object")
    try:
        rows = _rational_list(data["metric"], "metric", lambda r: _rational_list(r, "a metric row"))
        tau_comps = _rational_list(data["tau"], "tau")
    except KeyError as e:
        raise ValueError(f"configuration is missing the {e.args[0]!r} field") from None
    dim = data.get("dimension", len(rows))
    if type(dim) is not int or dim != len(rows):
        raise ValueError(f"dimension must be an integer equal to the metric size, got {dim!r}")
    metric = Metric(rows)
    tau = VectorTau(metric, tau_comps)
    order = data.get("truncation_order")
    if order is not None and (type(order) is not int or order < 1):
        raise ValueError("truncation_order must be an integer >= 1")
    basis = data.get("basis", "auto")
    if basis not in BASIS_CHOICES:
        raise ValueError(f"basis must be one of {BASIS_CHOICES}")
    fmt = data.get("output_format", "text")
    if fmt not in FORMAT_CHOICES:
        raise ValueError(f"output_format must be one of {FORMAT_CHOICES}")
    return RunConfig(metric, tau, order, basis, fmt)
