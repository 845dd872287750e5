"""Text and LaTeX rendering of series, elements, tensors and wedges (read
through wedge_series), in the paper's symbols: every kind comes in through
TermElement.series, which restores M = iX and x = iy and groups each key's
nonzero coefficients c of h^k as a series nz = ((k, c), ...) in increasing k.

Text and LaTeX are two Styles of one renderer: one term walk (_sum) and one
series writer lay the terms out, and the style spells each piece.  Every
renderer takes the style last, TEXT by default, so the text forms are reprs."""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Callable, NamedTuple


class Style(NamedTuple):
    """How an output format spells each piece of a term."""

    script: str  # base, mark ('_' or '^') and index: P_0, M_01, h^2
    coeff: Callable  # a rational or GaussRational coefficient
    times: str  # between a coefficient and what it multiplies
    group: str  # a coefficient of several powers of h
    legs: str  # a tensor key, its legs joined by leg_sep
    leg_sep: str
    wedge: str  # between the generators of a wedge key
    tidy: Callable  # the final string: LaTeX writes '+ -' as '- '


def gauss_latex(c) -> str:
    """A rational or GaussRational coefficient; both carry .real and .imag."""

    def frac(f):
        if f.denominator == 1:
            return str(f.numerator)
        return f"\\tfrac{{{f.numerator}}}{{{f.denominator}}}"

    re, im = c.real, c.imag
    if not im:
        return frac(re)
    mag = frac(abs(im))
    mag = "" if mag == "1" else mag
    if not re:
        return f"{'-' if im < 0 else ''}{mag}i"
    return f"\\left({frac(re)} {'+' if im > 0 else '-'} {mag}i\\right)"


_FRAC_I = re.compile(r"(\d+/\d+)i")  # a fractional imaginary part: text writes (2/3)i, not 2/(3i)
TEXT = Style("{}{}{}", lambda c: _FRAC_I.sub(r"(\1)i", str(c)), "*", "({})", "[{}]", " (x) ", " ^ ", str)
LATEX = Style(
    "{}{}{{{}}}", gauss_latex, "\\, ", "\\left({}\\right)", "{}", " \\otimes ", " \\wedge ",
    lambda out: out.replace("+ -", "- "),
)


def gen_text(code: int, dim: int, style: Style = TEXT) -> str:
    if code >= dim * dim:
        return style.script.format("P", "_", code - dim * dim)
    mu, nu = divmod(code, dim)
    return style.script.format("M", "_", f"{mu}{nu}")


def mono_text(mono: tuple, dim: int, style: Style = TEXT) -> str:
    return " ".join(gen_text(c, dim, style) for c in mono) if mono else "1"


def series_text(nz: tuple, style: Style = TEXT) -> str:
    if not nz:
        return "0"
    parts = []
    for k, c in nz:
        cs = style.coeff(c)
        if k == 0:
            parts.append(cs)
            continue
        hk = "h" if k == 1 else style.script.format("h", "^", k)
        parts.append(hk if cs == "1" else "-" + hk if cs == "-1" else f"{cs}{style.times}{hk}")
    return style.tidy(" + ".join(parts))


def ordered(terms: dict, size=len) -> list:
    """The (key, series) items of {key: series} by (size(key), key): the
    order every output writes terms in."""
    return sorted(terms.items(), key=lambda kv: (size(kv[0]), kv[0]))


def tensor_size(key) -> int:
    """The size a tensor key is ordered by: its generators over all legs."""
    return sum(len(m) for m in key)


def _sum(terms: dict, body, style: Style, size=len) -> str:
    """{key: series} as 'coefficient times body' terms joined by ' + ', in
    output order (see ordered): a coefficient of 1 or -1 leaves only its
    sign, one of several powers of h is grouped, and the empty key is the unit."""
    if not terms:
        return "0"
    parts = []
    for key, nz in ordered(terms, size):
        pre = series_text(nz, style)
        if len(nz) > 1:
            pre = style.group.format(pre)
        if not key:
            parts.append(pre)
        else:
            parts.append(pre[:-1] + body(key) if pre in ("1", "-1") else f"{pre}{style.times}{body(key)}")
    return style.tidy(" + ".join(parts))


def element_text(elem, style: Style = TEXT) -> str:
    dim = elem.algebra.dim
    return _sum(elem.series(), lambda m: mono_text(m, dim, style), style)


def legs_text(key: tuple, dim: int, style: Style = TEXT) -> str:
    """A tensor key: the monomials of its legs."""
    return style.legs.format(style.leg_sep.join(mono_text(m, dim, style) for m in key))


def tensor_text(t, style: Style = TEXT) -> str:
    dim = t.algebra.dim
    return _sum(t.series(), lambda key: legs_text(key, dim, style), style, tensor_size)


def wedge_series(t) -> dict:
    """{strictly increasing code tuple: series} of an antisymmetric tensor of
    generators (see tensors.wedge): its wedge coordinates, read off the keys
    whose legs are single generators in increasing order."""
    out = {}
    for key, nz in t.series().items():
        codes = tuple(c for m in key for c in m)
        if len(codes) == len(key) and all(a < b for a, b in zip(codes, codes[1:])):
            out[codes] = nz
    return out


def wedge_key_text(gens: tuple, dim: int, style: Style = TEXT) -> str:
    return style.wedge.join(gen_text(g, dim, style) for g in gens)


def wedge_text(t, style: Style = TEXT) -> str:
    dim = t.algebra.dim
    return _sum(wedge_series(t), lambda key: wedge_key_text(key, dim, style), style)


def _kappa_term(coeff, kappa_power: int, body: str) -> str | None:
    """'+ \\tfrac{n}{d \\kappa^p} body' with the sign pulled out; None when zero."""
    if not coeff:
        return None
    sign = "-" if coeff < 0 else "+"
    mag = abs(coeff)
    kp = "\\kappa" if kappa_power == 1 else f"\\kappa^{{{kappa_power}}}"
    den = f"{mag.denominator}\\," if mag.denominator != 1 else ""
    return f"{sign} \\tfrac{{{mag.numerator}}}{{{den}{kp}}}\\, {body}"


def coproduct_latex_symbolic(ctx, code: int) -> str:
    """The deformed coproduct in the conventional symbols: Pi_tau and C_tau
    stay unexpanded, terms with vanishing covariant tau-components drop."""
    alg = ctx.algebra
    kind, idx = alg.decode(code)
    cov = ctx.tau.covariant
    g = gen_text(code, alg.dim, LATEX)
    pap = "P^{\\alpha} \\Pi_\\tau^{-1}"
    cp = "C_\\tau \\Pi_\\tau^{-1}"
    if kind == "P":
        mu = idx
        terms = [
            _kappa_term(-cov[mu], 1, f"{pap} \\otimes P_{{\\alpha}}"),
            _kappa_term(-Fraction(cov[mu], 2), 2, f"{cp} \\otimes P_\\tau"),
        ]
        head = f"{g} \\otimes \\Pi_\\tau + 1 \\otimes {g}"
    else:
        mu, nu = idx
        terms = [
            _kappa_term(cov[nu], 1, f"{pap} \\otimes M_{{\\alpha {mu}}}"),
            _kappa_term(-cov[mu], 1, f"{pap} \\otimes M_{{\\alpha {nu}}}"),
            _kappa_term(-Fraction(cov[mu], 2), 2, f"{cp} \\otimes M_{{\\tau {nu}}}"),
            _kappa_term(Fraction(cov[nu], 2), 2, f"{cp} \\otimes M_{{\\tau {mu}}}"),
        ]
        head = f"{g} \\otimes 1 + 1 \\otimes {g}"
    return " ".join([head] + [t for t in terms if t])


def antipode_latex_symbolic(ctx, code: int) -> str:
    alg = ctx.algebra
    kind, idx = alg.decode(code)
    cov = ctx.tau.covariant
    g = gen_text(code, alg.dim, LATEX)
    if kind == "P":
        mu = idx
        if not cov[mu]:
            return f"-{g}\\, \\Pi_\\tau^{{-1}}"
        inner = _kappa_term(
            cov[mu], 1, "\\left(C + \\tfrac{1}{2\\kappa} P_\\tau C_\\tau\\right)"
        )
        return f"-\\left({g} {inner}\\right) \\Pi_\\tau^{{-1}}"
    mu, nu = idx
    terms = [
        _kappa_term(cov[nu], 1, f"P^{{\\alpha}} M_{{\\alpha {mu}}}"),
        _kappa_term(-cov[mu], 1, f"P^{{\\alpha}} M_{{\\alpha {nu}}}"),
        _kappa_term(Fraction(cov[nu], 2), 2, f"C_\\tau M_{{\\tau {mu}}}"),
        _kappa_term(-Fraction(cov[mu], 2), 2, f"C_\\tau M_{{\\tau {nu}}}"),
    ]
    return " ".join([f"-{g}"] + [t for t in terms if t])


def mink_mono_text(mono: tuple) -> str:
    return " ".join(f"x{mu}" for mu in mono) if mono else "1"


def mink_text(elem) -> str:
    return _sum(elem.series(), mink_mono_text, TEXT)
