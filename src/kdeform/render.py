"""Text and LaTeX rendering of series, elements, tensors and wedges."""

from __future__ import annotations

from .scalars import GaussRational, HSeries


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


def gauss_text(c: GaussRational) -> str:
    return repr(c)


def gauss_latex(c: GaussRational) -> str:
    def frac(f):
        if f.denominator == 1:
            return str(f.numerator)
        return f"\\tfrac{{{f.numerator}}}{{{f.denominator}}}"

    if not c.im:
        return frac(c.re)
    if not c.re:
        mag = frac(abs(c.im))
        s = "-" if c.im < 0 else ""
        return f"{s}{'' if mag == '1' else mag}i"
    s = "+" if c.im > 0 else "-"
    mag = frac(abs(c.im))
    return f"\\left({frac(c.re)} {s} {'' if mag == '1' else mag}i\\right)"


def hseries_text(hs: HSeries) -> str:
    return repr(hs)


def hseries_latex(hs: HSeries) -> str:
    if hs.is_zero:
        return "0"
    parts = []
    for k, c in hs.nz:
        if k == 0:
            parts.append(gauss_latex(c))
            continue
        hk = "h" if k == 1 else f"h^{{{k}}}"
        cs = gauss_latex(c)
        parts.append(hk if cs == "1" else f"{cs}\\, {hk}")
    return " + ".join(parts).replace("+ -", "- ")


def _coeff_prefix(hs: HSeries, text: bool) -> str:
    """Coefficient rendered for juxtaposition with a monomial."""
    render = hseries_text if text else hseries_latex
    nz = hs.nz
    if len(nz) == 1 and nz[0][0] == 0 and nz[0][1] == 1:
        return ""
    s = render(hs)
    if len(nz) > 1:
        return f"({s})" if text else f"\\left({s}\\right)"
    return s


def _sorted_keys(terms):
    return sorted(terms, key=lambda k: (len(k) if isinstance(k, tuple) else 0, k))


def element_text(elem) -> str:
    if not elem.terms:
        return "0"
    dim = elem.algebra.dim
    terms = elem.series()
    parts = []
    for mono in _sorted_keys(terms):
        pre = _coeff_prefix(terms[mono], text=True)
        body = mono_text(mono, dim)
        if not mono:
            parts.append(pre if pre else "1")
        else:
            parts.append(f"{pre}{'*' if pre else ''}{body}")
    return " + ".join(parts)


def element_latex(elem) -> str:
    if not elem.terms:
        return "0"
    dim = elem.algebra.dim
    terms = elem.series()
    parts = []
    for mono in _sorted_keys(terms):
        pre = _coeff_prefix(terms[mono], text=False)
        body = mono_latex(mono, dim)
        if not mono:
            parts.append(pre if pre else "1")
        else:
            parts.append(f"{pre}\\, {body}" if pre else body)
    return " + ".join(parts).replace("+ -", "- ")


def tensor_text(t) -> str:
    if not t.terms:
        return "0"
    dim = t.algebra.dim
    terms = t.series()
    parts = []
    for key in sorted(terms, key=lambda k: (sum(len(m) for m in k), k)):
        pre = _coeff_prefix(terms[key], text=True)
        body = " (x) ".join(mono_text(m, dim) for m in key)
        parts.append(f"{pre}{'*' if pre else ''}[{body}]")
    return " + ".join(parts)


def tensor_latex(t) -> str:
    if not t.terms:
        return "0"
    dim = t.algebra.dim
    terms = t.series()
    parts = []
    for key in sorted(terms, key=lambda k: (sum(len(m) for m in k), k)):
        pre = _coeff_prefix(terms[key], text=False)
        body = " \\otimes ".join(mono_latex(m, dim) for m in key)
        parts.append(f"{pre}\\, {body}" if pre else body)
    return " + ".join(parts).replace("+ -", "- ")


def wedge_text(w) -> str:
    if not w.terms:
        return "0"
    dim = w.algebra.dim
    parts = []
    for key in sorted(w.terms):
        c = w.terms[key]
        pre = "" if c == 1 else f"{gauss_text(c)}*"
        parts.append(pre + " ^ ".join(gen_text(g, dim) for g in key))
    return " + ".join(parts)


def wedge_latex(w) -> str:
    if not w.terms:
        return "0"
    dim = w.algebra.dim
    parts = []
    for key in sorted(w.terms):
        c = w.terms[key]
        pre = "" if c == 1 else f"{gauss_latex(c)}\\, "
        parts.append(pre + " \\wedge ".join(gen_latex(g, dim) for g in key))
    return " + ".join(parts).replace("+ -", "- ")


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
    from fractions import Fraction

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
    from fractions import Fraction

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
    if not mono:
        return "1"
    return " ".join(f"x{mu}" for mu in mono)


def mink_text(elem) -> str:
    if not elem.terms:
        return "0"
    terms = elem.series()
    parts = []
    for mono in _sorted_keys(terms):
        pre = _coeff_prefix(terms[mono], text=True)
        body = mink_mono_text(mono)
        if not mono:
            parts.append(pre if pre else "1")
        else:
            parts.append(f"{pre}{'*' if pre else ''}{body}")
    return " + ".join(parts)
