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
from .bases import OrbitClassification
from .minkowski import MinkowskiElement
from .render import gen_text, mink_mono_text, mono_text, ordered, tensor_size, wedge_series
from .scalars import gauss
from .tensors import TensorElement, wedge


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


def _terms_from_json(data: dict, order: int, key_of, name) -> dict:
    """Flat terms {(key, power of h): coefficient} of a JSON term list, in the
    paper's symbols, truncated at the order.  A term given twice (the same
    key and power of h) is malformed; name(key) names it in the error."""
    terms = {}
    for item in data["terms"]:
        key = key_of(item)
        for entry in item["coeff"]:
            k = entry["h_power"]
            if type(k) is not int or k < 0:
                raise ValueError(f"h_power must be an integer >= 0, got {k!r}")
            if (key, k) in terms:
                raise ValueError(f"repeated term {name(key)} at h^{k}")
            terms[(key, k)] = gauss_from_json(entry)
    return {t: c for t, c in terms.items() if t[1] <= order and c}


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


def _monomial(descriptors: list, alg: PoincareAlgebra) -> tuple:
    """The PBW monomial of a list of generator descriptors, which must come
    in PBW order: a nondecreasing code tuple."""
    mono = tuple(_gen_from_descriptor(d, alg) for d in descriptors)
    if any(a > b for a, b in zip(mono, mono[1:])):
        raise ValueError(f"monomial {mono_text(mono, alg.dim)} is not in PBW order")
    return mono


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


def element_from_json(data: dict, alg: PoincareAlgebra) -> AlgebraElement:
    def monomial(item):
        return _monomial(item["monomial"], alg)

    terms = _terms_from_json(data, alg.order, monomial, lambda m: mono_text(m, alg.dim))
    return AlgebraElement(alg, terms).in_symbols(1)


def tensor_to_json(t: TensorElement) -> dict:
    dim = t.algebra.dim

    def key_json(key):
        return [_mono_json(m, dim) for m in key]

    return {"legs": t.legs, "terms": _terms_to_json(t, "monomials", key_json, tensor_size)}


def tensor_from_json(data: dict, alg: PoincareAlgebra) -> TensorElement:
    legs = data["legs"]

    def name(key):
        return "[" + " (x) ".join(mono_text(m, alg.dim) for m in key) + "]"

    def key_of(item):
        key = tuple(_monomial(mono, alg) for mono in item["monomials"])
        if len(key) != legs:
            raise ValueError(f"tensor term {name(key)} has {len(key)} legs, expected {legs}")
        return key

    terms = _terms_from_json(data, alg.order, key_of, name)
    return TensorElement(alg, legs, terms).in_symbols(1)


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


def wedge_from_json(data: dict, alg: PoincareAlgebra) -> TensorElement:
    """A wedge term may list its generators in any order (see tensors.wedge),
    so two terms over the same generators repeat one wedge coordinate."""
    terms, seen = {}, set()
    for item in data["terms"]:
        key = tuple(_gen_from_descriptor(d, alg) for d in item["generators"])
        coords = tuple(sorted(key))
        if coords in seen:
            raise ValueError(f"repeated term {' ^ '.join(gen_text(g, alg.dim) for g in key)}")
        seen.add(coords)
        terms[key] = gauss_from_json(item["coeff"])
    return wedge(alg, data["degree"], terms).in_symbols(1)


def mink_to_json(elem: MinkowskiElement) -> dict:
    return {"terms": _terms_to_json(elem, "monomial", lambda mono: [{"x": mu} for mu in mono])}


def mink_from_json(data: dict, ctx) -> MinkowskiElement:
    dim = ctx.algebra.dim

    def word(item):
        mono = tuple(d["x"] for d in item["monomial"])
        if not all(type(mu) is int and 0 <= mu < dim for mu in mono) or list(mono) != sorted(mono):
            raise ValueError(f"coordinate word {mono!r} is not nondecreasing in range({dim})")
        return mono

    terms = _terms_from_json(data, ctx.algebra.order, word, mink_mono_text)
    return MinkowskiElement(ctx, terms).in_symbols(1)


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


_WRITERS = {
    AlgebraElement: element_to_json, TensorElement: tensor_to_json, MinkowskiElement: mink_to_json
}


def residual_to_json(residual):
    """Best-effort JSON encoding of a failed check's residual."""
    writer = _WRITERS.get(type(residual))
    if writer is not None:
        return writer(residual)
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


def config_to_json(cfg: RunConfig) -> dict:
    return {
        "dimension": cfg.dimension,
        "metric": [[rational_to_str(x) for x in row] for row in cfg.metric.rows],
        "tau": [rational_to_str(x) for x in cfg.tau.components],
        "truncation_order": cfg.truncation_order,
        "basis": cfg.basis,
        "output_format": cfg.output_format,
    }
