"""Command-line front end: orbit classification, expression emission, and the
verification suites.

Exit codes: 0 success, 1 verification failure, 2 invalid input, 3 internal
defect (two routes or contexts disagreed, or any other exception was raised).
"""

from __future__ import annotations

import argparse
import json
import sys
import traceback

from . import jsonio, render
from .bases import adapted_context, classify_orbit, verify_mr
from .errors import BasisError, ContextMismatchError, InternalConsistencyError
from .hopf import DeformationContext, pi_identities_report, verify_hopf
from .minkowski import verify_covariance
from .reports import VerificationReport
from .scalars import I_POWERS
from .tensors import omega, r_matrix, schouten_square
from .twist import build_twist, verify_twist

EXAMPLES = {
    "time-like": {
        "description": "Lorentzian metric, tau = (1,0,0,0): the original deformation, stability SO(3)",
        "metric": [[-1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
        "tau": [1, 0, 0, 0],
    },
    "tachyonic": {
        "description": "Lorentzian metric, space-like tau = (0,0,0,1), stability SO(2,1)",
        "metric": [[-1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
        "tau": [0, 0, 0, 1],
    },
    "light-like": {
        "description": "Lorentzian metric, null tau = (1,0,0,1): twistable, stability ISO(2)",
        "metric": [[-1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
        "tau": [1, 0, 0, 1],
    },
    "kleinian": {
        "description": "Neutral signature diag(1,-1,1,-1), null tau = (1,1,1,1), stability ISO(1,1)",
        "metric": [[1, 0, 0, 0], [0, -1, 0, 0], [0, 0, 1, 0], [0, 0, 0, -1]],
        "tau": [1, 1, 1, 1],
    },
    "non-diagonal-lorentzian": {
        "description": "Lorentzian metric with an off-diagonal block, time-like tau",
        "metric": [
            [-1, 0, 0, "1/3"],
            [0, 1, 0, 0],
            [0, 0, 1, 0],
            ["1/3", 0, 0, 1],
        ],
        "tau": [1, 0, 0, 0],
    },
}

EMIT_OBJECTS = ("coproduct", "antipode", "pi", "c_tau", "r_matrix", "twist", "schouten")
SUITES = ("hopf", "mr", "twist", "minkowski", "all")


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="kdeform",
        description="Exact kappa-deformations of inhomogeneous orthogonal Hopf algebras",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        src = sp.add_mutually_exclusive_group()
        src.add_argument("--config", metavar="PATH", help="JSON configuration file")
        src.add_argument("--example", choices=sorted(EXAMPLES), help="built-in example")
        sp.add_argument("--order", type=int, metavar="N", help="truncation order override")
        sp.add_argument(
            "--format", choices=jsonio.FORMAT_CHOICES, default=None, help="output format"
        )

    sp = sub.add_parser("classify", help="orbit type, YB equation and stability group")
    common(sp)

    sp = sub.add_parser("emit", help="render a deformation object")
    sp.add_argument("object", choices=EMIT_OBJECTS)
    sp.add_argument(
        "--generator",
        metavar='"P mu" | "M mu nu"',
        help="generator for coproduct/antipode",
    )
    common(sp)

    sp = sub.add_parser("verify", help="run verification suites")
    sp.add_argument("--suite", choices=SUITES, default="all")
    sp.add_argument("--corrupt", action="store_true", help=argparse.SUPPRESS)
    common(sp)

    sp = sub.add_parser("examples", help="list built-in example configurations")
    sp.add_argument("--example", choices=sorted(EXAMPLES), help="show one example as JSON")

    return p


def load_config(args) -> jsonio.RunConfig:
    if getattr(args, "example", None) and args.command != "examples":
        data = dict(EXAMPLES[args.example])
        data.pop("description", None)
    elif getattr(args, "config", None):
        with open(args.config) as f:
            data = json.load(f)
    else:
        raise ValueError("provide --config PATH or --example NAME")
    cfg = jsonio.config_from_json(data)
    if args.order is not None:
        if args.order < 1:
            raise ValueError("--order must be >= 1")
        cfg.truncation_order = args.order
    if getattr(args, "format", None):
        cfg.output_format = args.format
    return cfg


def _parse_generator(text: str, alg):
    parts = text.replace(",", " ").split()
    try:
        if parts[0].upper() == "P" and len(parts) == 2:
            return alg.momentum_code(int(parts[1]))
        if parts[0].upper() == "M" and len(parts) == 3:
            code, sign = alg.rotation_code(int(parts[1]), int(parts[2]))
            if sign != 1:
                raise ValueError("use rotation indices in increasing order")
            return code
    except (IndexError, ValueError) as e:
        raise ValueError(f'cannot parse generator {text!r}: {e}') from None
    raise ValueError(f'cannot parse generator {text!r}; expected "P mu" or "M mu nu"')


def cmd_classify(cfg: jsonio.RunConfig) -> int:
    orbit = classify_orbit(cfg.metric, cfg.tau)
    if cfg.output_format == "json":
        print(json.dumps(jsonio.orbit_to_json(orbit), indent=2))
    elif cfg.output_format == "latex":
        sign = {1: "> 0", -1: "< 0", 0: "= 0"}[orbit.tau_sq_sign]
        print(
            f"\\tau^2 {sign}, \\quad \\text{{{orbit.yb_type}}}, \\quad "
            f"G_\\tau \\cong {orbit.stability_label}"
        )
    else:
        print(f"tau^2 = {jsonio.rational_to_str(orbit.tau_sq)} (sign {orbit.tau_sq_sign:+d})")
        print(f"Yang-Baxter type: {orbit.yb_type}")
        print(f"stability group: {orbit.stability_label}")
        print(f"suggested basis: {orbit.suggested_basis}")
    return 0


def _check_basis(cfg: jsonio.RunConfig):
    if cfg.basis == "orthogonal" and cfg.tau.tau_sq == 0:
        raise BasisError("orthogonal basis requires tau^2 != 0")
    if cfg.basis == "lightcone" and cfg.tau.tau_sq != 0:
        raise BasisError("light-cone basis requires tau^2 = 0")


def _context(cfg: jsonio.RunConfig, order: int, shift=None) -> DeformationContext:
    """The deformation context in the configured basis, which is checked
    against tau before anything is built."""
    _check_basis(cfg)
    if cfg.basis in ("identity", "auto"):
        return DeformationContext(cfg.metric, cfg.tau, order, shift=shift)
    return adapted_context(cfg.metric, cfg.tau, order, shift=shift)[1]


def cmd_emit(cfg: jsonio.RunConfig, obj: str, generator: str | None) -> int:
    order = cfg.order_for("twist" if obj == "twist" else "emit")
    fmt = cfg.output_format

    if obj in ("r_matrix", "schouten"):
        from .algebra import PoincareAlgebra

        alg = PoincareAlgebra(cfg.metric, order)
        w = r_matrix(alg, cfg.tau)
        if obj == "schouten":
            w = schouten_square(w)
        w = w * I_POWERS[1]  # the paper's r and [[r, r]] are i times their X-forms
        _print_one(fmt, w, jsonio.wedge_to_json, render.wedge_text)
        return 0

    if obj == "twist":
        if cfg.tau.tau_sq != 0 or cfg.tau.is_zero:
            print(
                "error: the twist exists only in the CYBE case tau^2 = 0 "
                "(non-null tau gives the MYBE/standard deformation, which has no "
                "twist in this family)",
                file=sys.stderr,
            )
            return 2
        _, ctx = adapted_context(cfg.metric, cfg.tau, order)
        data = build_twist(ctx)
        if fmt == "json":
            print(
                json.dumps(
                    {
                        "twist": jsonio.tensor_to_json(data.twist),
                        "r_matrix": jsonio.tensor_to_json(data.r_quantum),
                    },
                    indent=2,
                )
            )
        elif fmt == "latex":
            print("\\mathcal{F} = " + render.tensor_text(data.twist, render.LATEX))
            print("\\mathcal{R} = " + render.tensor_text(data.r_quantum, render.LATEX))
        else:
            print("F =", render.tensor_text(data.twist))
            print("R =", render.tensor_text(data.r_quantum))
        return 0

    ctx = _context(cfg, order)
    if obj == "pi":
        _print_one(fmt, ctx.pi, jsonio.element_to_json, render.element_text,
                   label="Pi_tau", latex_label="\\Pi_\\tau")
        return 0
    if obj == "c_tau":
        _print_one(fmt, ctx.c_tau, jsonio.element_to_json, render.element_text,
                   label="C_tau", latex_label="C_\\tau")
        return 0

    if not generator:
        print(f"error: emit {obj} needs --generator", file=sys.stderr)
        return 2
    code = _parse_generator(generator, ctx.algebra)
    to_m = I_POWERS[ctx.algebra.i_count((code,))]  # D(M) = i D(X), S(M) = i S(X)
    if obj == "coproduct":
        if fmt == "latex":
            # conventional symbols: Pi_tau, C_tau unexpanded
            print(
                f"\\Delta_\\tau({render.gen_text(code, ctx.algebra.dim, render.LATEX)}) = "
                + render.coproduct_latex_symbolic(ctx, code)
            )
            return 0
        t = ctx.coproduct(code) * to_m
        _print_one(fmt, t, jsonio.tensor_to_json, render.tensor_text,
                   label=f"Delta({ctx.gen_name(code)})")
    else:
        if fmt == "latex":
            print(
                f"S_\\tau({render.gen_text(code, ctx.algebra.dim, render.LATEX)}) = "
                + render.antipode_latex_symbolic(ctx, code)
            )
            return 0
        s = ctx.antipode(code) * to_m
        _print_one(fmt, s, jsonio.element_to_json, render.element_text,
                   label=f"S({ctx.gen_name(code)})")
    return 0


def _print_one(fmt, value, to_json, to_text, label=None, latex_label=None):
    """Print a value as JSON, or through its renderer in the format's style."""
    if fmt == "json":
        print(json.dumps(to_json(value), indent=2))
        return
    latex = fmt == "latex"
    head = latex_label if latex else label
    print((f"{head} = " if head else "") + to_text(value, render.LATEX if latex else render.TEXT))


def _schouten_report(cfg: jsonio.RunConfig, order: int) -> VerificationReport:
    from .algebra import PoincareAlgebra

    rep = VerificationReport("schouten")
    if cfg.tau.is_zero:
        rep.skipped = "tau = 0: no r-matrix, nothing to check"
        return rep
    alg = PoincareAlgebra(cfg.metric, order)
    w = r_matrix(alg, cfg.tau)
    rep.record(
        "schouten-square-is-minus-tau-squared-omega",
        schouten_square(w) - omega(alg) * -cfg.tau.tau_sq,
        phase=1,
    )
    return rep


# The reports of each suite on its deformation context, in output order.
_SUITE_REPORTS = {
    "hopf": lambda ctx: [verify_hopf(ctx), pi_identities_report(ctx)],
    "mr": lambda ctx: [verify_mr(ctx)],
    "twist": lambda ctx: [verify_twist(ctx)],
    "minkowski": lambda ctx: [verify_covariance(ctx)],
}


def cmd_verify(cfg: jsonio.RunConfig, suite: str, corrupt: bool = False) -> int:
    _check_basis(cfg)
    reports = []
    wanted = SUITES[:-1] if suite == "all" else (suite,)

    if suite == "all":
        reports.append(_schouten_report(cfg, cfg.order_for("hopf")))

    # negative control: a unit bump 1 (x) 1 on the coproduct of M_01, the
    # first generator
    shift = {1: {(((), ()), 0): 1}} if corrupt else None
    for name in wanted:
        ctx = _context(cfg, cfg.order_for(name), shift)
        reports.extend(_SUITE_REPORTS[name](ctx))

    if cfg.output_format == "json":
        print(json.dumps([r.to_json() for r in reports], indent=2))
    else:
        for r in reports:
            print(r)
            print()

    executed = [r for r in reports if not r.skipped]
    return 0 if all(r.all_passed for r in executed) else 1


def cmd_examples(name: str | None) -> int:
    if name:
        data = dict(EXAMPLES[name])
        data.pop("description", None)
        print(json.dumps(data, indent=2))
        return 0
    width = max(len(n) for n in EXAMPLES)
    for n in sorted(EXAMPLES):
        print(f"{n:<{width}}  {EXAMPLES[n]['description']}")
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "examples":
            return cmd_examples(args.example)
        cfg = load_config(args)
        if args.command == "classify":
            return cmd_classify(cfg)
        if args.command == "emit":
            return cmd_emit(cfg, args.object, args.generator)
        if args.command == "verify":
            return cmd_verify(cfg, args.suite, args.corrupt)
        raise AssertionError(args.command)
    # the mismatch errors are ValueErrors, so they must be caught first
    except (InternalConsistencyError, ContextMismatchError) as e:
        print(f"internal error: {e}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except Exception as e:  # any other defect, with the traceback that locates it
        print(f"internal error: {e}", file=sys.stderr)
        traceback.print_exc()
        return 3


if __name__ == "__main__":
    sys.exit(main())
