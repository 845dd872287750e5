"""JSON encodings of every expression type, and run-configuration ingestion.

Rationals travel as exact "num/den" strings (plain integers are accepted);
floats are rejected outright.  Series are arrays of
{h_power, re_num, re_den, im_num, im_den} with zero coefficients omitted.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .algebra import AlgebraElement, Metric, PoincareAlgebra, VectorTau
from .minkowski import MinkowskiElement
from .scalars import GR_ZERO, GaussRational, HSeries
from .tensors import OrbitClassification, TensorElement, WedgeElement


def rational_to_str(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def parse_rational(x) -> Fraction:
    if isinstance(x, bool) or isinstance(x, float):
        raise ValueError(f"rationals must be exact ints or 'num/den' strings, got {x!r}")
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise ValueError(f"cannot parse rational from {x!r}")


def gauss_to_json(c: GaussRational) -> dict:
    return {
        "re_num": c.re.numerator,
        "re_den": c.re.denominator,
        "im_num": c.im.numerator,
        "im_den": c.im.denominator,
    }


def gauss_from_json(d: dict) -> GaussRational:
    return GaussRational(
        Fraction(d["re_num"], d["re_den"]), Fraction(d.get("im_num", 0), d.get("im_den", 1))
    )


def hseries_to_json(hs: HSeries) -> list:
    return [{"h_power": k, **gauss_to_json(c)} for k, c in hs.nz]


def hseries_from_json(data: list, order: int) -> HSeries:
    cs = [GR_ZERO] * (order + 1)
    for item in data:
        k = item["h_power"]
        if k <= order:
            cs[k] = gauss_from_json(item)
    return HSeries(order, cs)


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
                "coeff": hseries_to_json(hs),
            }
            for mono, hs in sorted(elem.terms.items(), key=lambda kv: (len(kv[0]), kv[0]))
        ]
    }


def element_from_json(data: dict, alg: PoincareAlgebra) -> AlgebraElement:
    terms = {}
    for item in data["terms"]:
        mono = tuple(_gen_from_descriptor(d, alg) for d in item["monomial"])
        hs = hseries_from_json(item["coeff"], alg.order)
        if hs:
            terms[mono] = hs
    return AlgebraElement(alg, terms)


def tensor_to_json(t: TensorElement) -> dict:
    dim = t.algebra.dim
    return {
        "legs": t.legs,
        "terms": [
            {
                "monomials": [[_gen_descriptor(c, dim) for c in mono] for mono in key],
                "coeff": hseries_to_json(hs),
            }
            for key, hs in sorted(
                t.terms.items(), key=lambda kv: (sum(len(m) for m in kv[0]), kv[0])
            )
        ],
    }


def tensor_from_json(data: dict, alg: PoincareAlgebra) -> TensorElement:
    terms = {}
    for item in data["terms"]:
        key = tuple(
            tuple(_gen_from_descriptor(d, alg) for d in mono) for mono in item["monomials"]
        )
        hs = hseries_from_json(item["coeff"], alg.order)
        if hs:
            terms[key] = hs
    return TensorElement(alg, data["legs"], terms)


def wedge_to_json(w: WedgeElement) -> dict:
    dim = w.algebra.dim
    return {
        "degree": w.degree,
        "terms": [
            {
                "generators": [_gen_descriptor(c, dim) for c in key],
                "coeff": gauss_to_json(c),
            }
            for key, c in sorted(w.terms.items())
        ],
    }


def wedge_from_json(data: dict, alg: PoincareAlgebra) -> WedgeElement:
    w = WedgeElement(alg, data["degree"])
    for item in data["terms"]:
        key = tuple(_gen_from_descriptor(d, alg) for d in item["generators"])
        w.add(key, gauss_from_json(item["coeff"]))
    return w


def mink_to_json(elem: MinkowskiElement) -> dict:
    return {
        "terms": [
            {
                "monomial": [{"x": mu} for mu in mono],
                "coeff": hseries_to_json(hs),
            }
            for mono, hs in sorted(elem.terms.items(), key=lambda kv: (len(kv[0]), kv[0]))
        ]
    }


def mink_from_json(data: dict, ctx) -> MinkowskiElement:
    terms = {}
    for item in data["terms"]:
        mono = tuple(d["x"] for d in item["monomial"])
        hs = hseries_from_json(item["coeff"], ctx.algebra.order)
        if hs:
            terms[mono] = hs
    return MinkowskiElement(ctx, terms)


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
        return {repr(k): repr(v) for k, v in residual.items()}
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
        rows = [[parse_rational(x) for x in row] for row in data["metric"]]
        tau_comps = [parse_rational(x) for x in data["tau"]]
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
