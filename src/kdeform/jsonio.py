"""JSON encodings of every expression type, and run-configuration ingestion.

Rationals travel as exact "num/den" strings (plain integers are accepted);
floats are rejected outright.  Series are arrays of
{h_power, re_num, re_den, im_num, im_den} with zero coefficients omitted;
h_power is a plain integer >= 0.  Expressions are written in the paper's
symbols M = iX and x = iy (see TermElement.in_symbols) and read back into the
engine's.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .algebra import AlgebraElement, Metric, PoincareAlgebra, VectorTau
from .minkowski import MinkowskiElement
from .scalars import gauss
from .tensors import OrbitClassification, TensorElement, WedgeElement


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


def gauss_from_json(d: dict):
    return gauss(
        Fraction(d["re_num"], d["re_den"]), Fraction(d.get("im_num", 0), d.get("im_den", 1))
    )


def series_to_json(nz: tuple) -> list:
    """A series ((k, c), ...) as in TermElement.series."""
    return [{"h_power": k, **gauss_to_json(c)} for k, c in nz]


def _coeffs_from_json(data: list, order: int) -> dict:
    """{power of h: nonzero coefficient} of a JSON series, truncated at the
    order; a later entry for the same power replaces an earlier one."""
    out = {}
    for item in data:
        k = item["h_power"]
        if type(k) is not int or k < 0:
            raise ValueError(f"h_power must be an integer >= 0, got {k!r}")
        if k <= order:
            out[k] = gauss_from_json(item)
    return {k: c for k, c in out.items() if c}


def _terms_from_json(data: dict, order: int, key_of) -> dict:
    """Flat terms {(key, power of h): coefficient} of a JSON term list, in the
    paper's symbols."""
    terms = {}
    for item in data["terms"]:
        key = key_of(item)
        for k, c in _coeffs_from_json(item["coeff"], order).items():
            terms[(key, k)] = c
    return terms


def _gen_descriptor(code: int, dim: int) -> dict:
    if code >= dim * dim:
        return {"P": code - dim * dim}
    mu, nu = divmod(code, dim)
    return {"M": [mu, nu]}


def _gen_from_descriptor(d: dict, alg: PoincareAlgebra) -> int:
    if "P" in d:
        return alg.momentum_code(d["P"])
    mu, nu = d["M"]
    code, sign = alg.rotation_code(mu, nu)
    if sign != 1:
        raise ValueError(f"rotation descriptor {d} is not in canonical order")
    return code


def element_to_json(elem: AlgebraElement) -> dict:
    dim = elem.algebra.dim
    return {
        "terms": [
            {
                "monomial": [_gen_descriptor(c, dim) for c in mono],
                "coeff": series_to_json(nz),
            }
            for mono, nz in sorted(elem.series().items(), key=lambda kv: (len(kv[0]), kv[0]))
        ]
    }


def element_from_json(data: dict, alg: PoincareAlgebra) -> AlgebraElement:
    def monomial(item):
        return tuple(_gen_from_descriptor(d, alg) for d in item["monomial"])

    return AlgebraElement(alg, _terms_from_json(data, alg.order, monomial)).in_symbols(1)


def tensor_to_json(t: TensorElement) -> dict:
    dim = t.algebra.dim
    return {
        "legs": t.legs,
        "terms": [
            {
                "monomials": [[_gen_descriptor(c, dim) for c in mono] for mono in key],
                "coeff": series_to_json(nz),
            }
            for key, nz in sorted(
                t.series().items(), key=lambda kv: (sum(len(m) for m in kv[0]), kv[0])
            )
        ],
    }


def tensor_from_json(data: dict, alg: PoincareAlgebra) -> TensorElement:
    def legs(item):
        return tuple(
            tuple(_gen_from_descriptor(d, alg) for d in mono) for mono in item["monomials"]
        )

    return TensorElement(alg, data["legs"], _terms_from_json(data, alg.order, legs)).in_symbols(1)


def wedge_to_json(w: WedgeElement) -> dict:
    dim = w.algebra.dim
    return {
        "degree": w.degree,
        "terms": [
            {
                "generators": [_gen_descriptor(c, dim) for c in key],
                "coeff": gauss_to_json(c),
            }
            for key, ((_, c),) in sorted(w.series().items())
        ],
    }


def wedge_from_json(data: dict, alg: PoincareAlgebra) -> WedgeElement:
    w = WedgeElement(alg, data["degree"])
    for item in data["terms"]:
        key = tuple(_gen_from_descriptor(d, alg) for d in item["generators"])
        w.add(key, gauss_from_json(item["coeff"]))
    return w.in_symbols(1)


def mink_to_json(elem: MinkowskiElement) -> dict:
    return {
        "terms": [
            {
                "monomial": [{"x": mu} for mu in mono],
                "coeff": series_to_json(nz),
            }
            for mono, nz in sorted(elem.series().items(), key=lambda kv: (len(kv[0]), kv[0]))
        ]
    }


def mink_from_json(data: dict, ctx) -> MinkowskiElement:
    def word(item):
        return tuple(d["x"] for d in item["monomial"])

    return MinkowskiElement(ctx, _terms_from_json(data, ctx.algebra.order, word)).in_symbols(1)


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


def orbit_from_json(data: dict) -> OrbitClassification:
    return OrbitClassification(
        parse_rational(data["tau_sq"]),
        data["yb_type"],
        data["stability"]["kind"],
        (data["stability"]["p"], data["stability"]["q"]),
    )


def basischange_to_json(change) -> dict:
    """Matrix of new basis vectors (columns, in old components) plus the
    transformed metric."""
    return {
        "matrix": [[rational_to_str(x) for x in row] for row in change.columns],
        "transformed_metric": [
            [rational_to_str(x) for x in row] for row in change.new_metric.rows
        ],
    }


def residual_to_json(residual):
    """Best-effort JSON encoding of a failed check's residual."""
    from .algebra import AlgebraElement
    from .minkowski import MinkowskiElement
    from .tensors import TensorElement, WedgeElement

    if isinstance(residual, AlgebraElement):
        return element_to_json(residual)
    if isinstance(residual, TensorElement):
        return tensor_to_json(residual)
    if isinstance(residual, WedgeElement):
        return wedge_to_json(residual)
    if isinstance(residual, MinkowskiElement):
        return mink_to_json(residual)
    if isinstance(residual, dict):
        return {repr(k): str(v) for k, v in residual.items()}
    return None


# -- run configuration ------------------------------------------------------------


BASIS_CHOICES = ("auto", "identity", "orthogonal", "lightcone")
FORMAT_CHOICES = ("text", "json", "latex")


@dataclass
class RunConfig:
    """Validated CLI configuration: dimension, metric, tau, truncation order,
    preferred basis and output format."""

    metric: Metric
    tau: VectorTau
    truncation_order: int | None = None
    basis: str = "auto"
    output_format: str = "text"

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
    if dim != len(rows):
        raise ValueError("dimension field disagrees with the metric size")
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


def config_to_json(cfg: RunConfig) -> dict:
    return {
        "dimension": cfg.dimension,
        "metric": [[rational_to_str(x) for x in row] for row in cfg.metric.rows],
        "tau": [rational_to_str(x) for x in cfg.tau.components],
        "truncation_order": cfg.truncation_order,
        "basis": cfg.basis,
        "output_format": cfg.output_format,
    }
