"""Text and LaTeX rendering of series, elements, tensors and wedges, in the
paper's symbols: every kind comes in through TermElement.series, which
restores M = iX and x = iy and groups each key's nonzero coefficients c of
h^k as a series nz = ((k, c), ...) in increasing k."""

from __future__ import annotations

from fractions import Fraction


def gen_text(code: int, dim: int) -> str:
    if code >= dim * dim:
        return f"P_{code - dim * dim}"
    mu, nu = divmod(code, dim)
    return f"M_{mu}{nu}"


def gen_latex(code: int, dim: int) -> str:
    if code >= dim * dim:
        return f"P_{{{code - dim * dim}}}"
    mu, nu = divmod(code, dim)
    return f"M_{{{mu}{nu}}}"


def mono_text(mono: tuple, dim: int) -> str:
    if not mono:
        return "1"
    return "".join(gen_text(c, dim) + " " for c in mono).strip()


def mono_latex(mono: tuple, dim: int) -> str:
    if not mono:
        return "1"
    return " ".join(gen_latex(c, dim) for c in mono)


def gauss_latex(c) -> str:
    """A rational or GaussRational coefficient; both carry .real and .imag."""

    def frac(f):
        if f.denominator == 1:
            return str(f.numerator)
        return f"\\tfrac{{{f.numerator}}}{{{f.denominator}}}"

    re, im = c.real, c.imag
    if not im:
        return frac(re)
    if not re:
        mag = frac(abs(im))
        s = "-" if im < 0 else ""
        return f"{s}{'' if mag == '1' else mag}i"
    s = "+" if im > 0 else "-"
    mag = frac(abs(im))
    return f"\\left({frac(re)} {s} {'' if mag == '1' else mag}i\\right)"


def series_text(nz: tuple) -> str:
    if not nz:
        return "0"
    parts = []
    for k, c in nz:
        if k == 0:
            parts.append(str(c))
        else:
            hk = "h" if k == 1 else f"h^{k}"
            parts.append(hk if c == 1 else f"{c}*{hk}")
    return " + ".join(parts)


def series_latex(nz: tuple) -> str:
    if not nz:
        return "0"
    parts = []
    for k, c in nz:
        if k == 0:
            parts.append(gauss_latex(c))
            continue
        hk = "h" if k == 1 else f"h^{{{k}}}"
        cs = gauss_latex(c)
        parts.append(hk if cs == "1" else f"{cs}\\, {hk}")
    return " + ".join(parts).replace("+ -", "- ")


def _coeff_prefix(nz: tuple, text: bool) -> str:
    """Coefficient rendered for juxtaposition with a monomial."""
    if len(nz) == 1 and nz[0][0] == 0 and nz[0][1] == 1:
        return ""
    s = series_text(nz) if text else series_latex(nz)
    if len(nz) > 1:
        return f"({s})" if text else f"\\left({s}\\right)"
    return s


def _sum(terms: dict, body, text: bool, size=len) -> str:
    """{key: series} as 'coefficient*body' terms joined by ' + ', ordered by
    (size(key), key); the empty key is the unit."""
    if not terms:
        return "0"
    parts = []
    for key in sorted(terms, key=lambda k: (size(k), k)):
        pre = _coeff_prefix(terms[key], text)
        if not key:
            parts.append(pre or "1")
        elif not pre:
            parts.append(body(key))
        else:
            parts.append(f"{pre}*{body(key)}" if text else f"{pre}\\, {body(key)}")
    out = " + ".join(parts)
    return out if text else out.replace("+ -", "- ")


def _legs(key) -> int:
    return sum(len(m) for m in key)


def element_text(elem) -> str:
    dim = elem.algebra.dim
    return _sum(elem.series(), lambda m: mono_text(m, dim), True)


def element_latex(elem) -> str:
    dim = elem.algebra.dim
    return _sum(elem.series(), lambda m: mono_latex(m, dim), False)


def tensor_text(t) -> str:
    dim = t.algebra.dim

    def body(key):
        return "[" + " (x) ".join(mono_text(m, dim) for m in key) + "]"

    return _sum(t.series(), body, True, _legs)


def tensor_latex(t) -> str:
    dim = t.algebra.dim

    def body(key):
        return " \\otimes ".join(mono_latex(m, dim) for m in key)

    return _sum(t.series(), body, False, _legs)


def wedge_text(w) -> str:
    dim = w.algebra.dim
    return _sum(w.series(), lambda key: " ^ ".join(gen_text(g, dim) for g in key), True)


def wedge_latex(w) -> str:
    dim = w.algebra.dim

    def body(key):
        return " \\wedge ".join(gen_latex(g, dim) for g in key)

    return _sum(w.series(), body, False)


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
    g = gen_latex(code, alg.dim)
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
    g = gen_latex(code, alg.dim)
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
    return _sum(elem.series(), mink_mono_text, True)
