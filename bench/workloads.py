"""The benchmark workloads: the inputs each one generates, the kdeform calls
it makes, and the check counts a correct pass must reach.

A workload's inputs are a list of configurations, plain JSON data that the
harness generates from the seed and hands to each worker process:

    {"metric": [["-1", "0"], ...], "tau": ["1", "0"], "steps": [["hopf", 4], ...]}

Each step names a suite and its truncation order.  The calls mirror
``kdeform verify``: a context per suite, built from the parsed config, then the
suite's report; the Hopf suite runs one check at a time on one warm context.
"""

from __future__ import annotations

import hashlib
import json
import random
from fractions import Fraction
from pathlib import Path

ETA4 = [["-1", "0", "0", "0"], ["0", "1", "0", "0"], ["0", "0", "1", "0"], ["0", "0", "0", "1"]]
KLEINIAN = [["1", "0", "0", "0"], ["0", "-1", "0", "0"], ["0", "0", "1", "0"], ["0", "0", "0", "-1"]]

# hopf-kleinian and mr-timelike run one order below the paper's N=4: at N=4
# one pass takes 35-45 s, which leaves no room for repeated passes per run.
# all-lightlike keeps the CLI's default orders.  sweep-random runs every suite
# at N=2, so that eight configurations fit in one pass.
FIXED = {
    "hopf-kleinian": [
        {"metric": KLEINIAN, "tau": ["1", "1", "1", "1"], "steps": [["hopf", 3]]},
    ],
    "mr-timelike": [
        {"metric": ETA4, "tau": ["1", "0", "0", "0"], "steps": [["mr", 3]]},
    ],
    "all-lightlike": [
        {
            "metric": ETA4,
            "tau": ["1", "0", "0", "1"],
            "steps": [["schouten", 4], ["hopf", 4], ["mr", 4], ["twist", 3], ["minkowski", 3]],
        },
    ],
}
WORKLOADS = tuple(FIXED) + ("sweep-random",)

# Four strata (dimension, null tau) with the same number of configurations
# each, so that seeds differ only in the rational entries, not in the mix.
SWEEP_STRATA = ((2, False), (2, True), (3, False), (3, True))
SWEEP_CONFIGS = 8

EXPECTED_PATH = Path(__file__).with_name("expected_checks.json")


def configs_for(workload: str, seed: int) -> list:
    if workload == "sweep-random":
        return sweep_configs(seed, SWEEP_CONFIGS)
    return FIXED[workload]


def with_order(configs: list, order: int) -> list:
    """The same configurations with every step at one truncation order."""
    return [dict(c, steps=[[suite, order] for suite, _ in c["steps"]]) for c in configs]


def digest(configs: list) -> str:
    text = json.dumps(configs, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# -- sweep-random: seeded non-diagonal rational metrics -------------------------


def sweep_configs(seed: int, count: int) -> list:
    rng = random.Random(seed)
    out = []
    for i in range(count):
        dim, null = SWEEP_STRATA[i % len(SWEEP_STRATA)]
        metric, tau = _random_pair(rng, dim, null)
        last = ["twist", 2] if null else ["mr", 2]
        out.append(
            {
                "metric": [[str(x) for x in row] for row in metric],
                "tau": [str(x) for x in tau],
                "steps": [["schouten", 2], ["hopf", 2], last],
            }
        )
    return out


def _random_pair(rng: random.Random, dim: int, null: bool):
    """g = A^T eta A for a random rational A and a diagonal eta of signs; a null
    tau is A^-1 (e_i + s e_j) with eta_i = -eta_j, so tau^T g tau = 0 exactly.
    Only generic pairs are kept: every entry of g and every component of tau
    and of g tau is nonzero, so that seeds differ in values, not in sparsity."""
    while True:
        signs = [rng.choice((-1, 1)) for _ in range(dim)]
        if null and len(set(signs)) == 1:
            continue
        a = [[Fraction(rng.randint(-2, 2), rng.choice((1, 2))) for _ in range(dim)] for _ in range(dim)]
        a_inv = _invert(a)
        if a_inv is None:
            continue
        g = [
            [sum(a[k][i] * signs[k] * a[k][j] for k in range(dim)) for j in range(dim)]
            for i in range(dim)
        ]
        if null:
            v = [Fraction(0)] * dim
            v[signs.index(-1)], v[signs.index(1)] = Fraction(1), Fraction(rng.choice((-1, 1)))
            tau = [sum(a_inv[r][k] * v[k] for k in range(dim)) for r in range(dim)]
        else:
            tau = [Fraction(rng.choice((-2, -1, 1, 2))) for _ in range(dim)]
        lowered = [sum(g[i][j] * tau[j] for j in range(dim)) for i in range(dim)]
        tau_sq = sum(t * l for t, l in zip(tau, lowered))
        if all(all(row) for row in g) and all(tau) and all(lowered) and bool(tau_sq) != null:
            return g, tau


def _invert(rows):
    """Gauss-Jordan inverse over Fraction; None when singular."""
    n = len(rows)
    m = [list(r) + [Fraction(int(i == j)) for j in range(n)] for i, r in enumerate(rows)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col]), None)
        if pivot is None:
            return None
        m[col], m[pivot] = m[pivot], m[col]
        p = m[col][col]
        m[col] = [x / p for x in m[col]]
        for r in range(n):
            if r != col and m[r][col]:
                f = m[r][col]
                m[r] = [x - f * y for x, y in zip(m[r], m[col])]
    return [row[n:] for row in m]


# -- expected check counts ------------------------------------------------------


def sweep_class(config: dict) -> str:
    null = config["steps"][-1][0] == "twist"
    return f"D{len(config['metric'])}-{'null' if null else 'nonnull'}"


def expected_counts(workload: str, configs: list) -> dict:
    """{"suite/check": count} that every pass must record as passed."""
    table = json.loads(EXPECTED_PATH.read_text())
    if workload != "sweep-random":
        return dict(table[workload])
    out = {}
    for c in configs:
        for key, n in table["sweep-random"][sweep_class(c)].items():
            out[key] = out.get(key, 0) + n
    return out


def count_checks(reports) -> tuple:
    """({"suite/check": passed}, {"suite/check": failed}) over the reports."""
    passed, failed = {}, {}
    for r in reports:
        for c in r.checks:
            into = passed if c.passed else failed
            key = f"{r.suite}/{c.name}"
            into[key] = into.get(key, 0) + 1
    return passed, failed


# -- the kdeform calls ------------------------------------------------------------


def prepare(kd, configs: list) -> list:
    """Parse every config and build every DeformationContext its steps use."""
    from kdeform.jsonio import config_from_json

    prepared = []
    for c in configs:
        cfg = config_from_json({"metric": c["metric"], "tau": c["tau"]})
        steps = []
        for suite, order in c["steps"]:
            ctx = None if suite == "schouten" else kd.DeformationContext(cfg.metric, cfg.tau, order)
            steps.append((suite, order, ctx))
        prepared.append((cfg, steps))
    return prepared


def run(kd, prepared: list, span) -> list:
    """Run every step and return the reports, in the order verify prints them.
    span(name) is a context manager around each Hopf check."""
    reports = []
    for cfg, steps in prepared:
        for suite, order, ctx in steps:
            if suite == "schouten":
                reports.append(_schouten(kd, cfg, order))
            elif suite == "hopf":
                reports.append(_hopf_by_check(kd, ctx, span))
                reports.append(kd.pi_identities_report(ctx))
            elif suite == "mr":
                reports.append(kd.verify_mr(ctx))
            elif suite == "twist":
                reports.append(kd.verify_twist(ctx))
            elif suite == "minkowski":
                reports.append(kd.verify_covariance(ctx))
            else:
                raise ValueError(f"unknown suite {suite!r}")
    return reports


def _schouten(kd, cfg, order):
    rep = kd.VerificationReport("schouten")
    alg = kd.PoincareAlgebra(cfg.metric, order)
    w = kd.r_matrix(alg, cfg.tau)
    rep.record(
        "schouten-square-is-minus-tau-squared-omega",
        kd.schouten_square(w) - kd.omega(alg) * kd.GaussRational(-cfg.tau.tau_sq),
    )
    return rep


def _hopf_by_check(kd, ctx, span):
    """verify_hopf one check at a time, merged into one report as verify_hopf
    would return it."""
    from kdeform.hopf import HOPF_CHECKS

    rep = kd.VerificationReport("hopf")
    for name in HOPF_CHECKS:
        with span(f"hopf.check.{name}"):
            part = kd.verify_hopf(ctx, [name])
        rep.extend(part)
        rep.seconds += part.seconds
    return rep
