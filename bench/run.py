"""kdeform benchmark: time to verdict, set-up time and peak memory per workload,
with a correctness gate, a negative control and an optional traced run.

    python3 bench/run.py --workload hopf-kleinian --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all            # every workload in turn

Each pass runs in a fresh worker process (bench/worker.py).  Untraced runs
repeat full passes, each followed by a set-up-only pass, while another can end
within --seconds, and report medians of host-adjusted times: a probe thread in
every pass measures how much other tenants slow the host (see host_adjusted).
A traced run (--trace 1) alternates untraced and traced passes and reports the
per-layer metrics.  The last line of stdout is one JSON object {"correct",
"attempted", "failed", "metrics"}; the metric names and units are those
declared in BENCHMARK.json.  The exit code is 0 only when
every check passed, no check went missing and the negative control failed as
it must.  A full record of every run goes to .bench_out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
# worker.probe() on an idle core of the 2-core Xeon host the benchmark was
# written on (Python 3.11.7): times are reported as if every pass had run there
REFERENCE_PROBE_S = 0.00036
PROBE_CAP = 4
TIME_LIMIT_S = 170  # per workload, for every pass and the negative control


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=workloads.WORKLOADS + ("all",), default="all")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=25)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--order", type=int, help="run every suite at this truncation order (smoke test)")
    args = p.parse_args(argv)
    # SystemExit inside subprocess.run kills and reaps the running worker
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (ROOT / "src" / "kdeform" / "__init__.py").is_file():
        print(f"error: no kdeform source tree at {ROOT / 'src'}", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    info = provenance()
    print("provenance " + json.dumps(info))
    results = {}
    for name in names:
        results[name] = measure(name, args, declared, info)

    if len(names) == 1:
        out = results[names[0]]
    else:
        out = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{m}": v for w, r in results.items() for m, v in r["metrics"].items()},
        }
    print(json.dumps(out))
    return 0 if out["correct"] else 1


def measure(workload: str, args, declared: dict, info: dict) -> dict:
    start = time.monotonic()
    configs = workloads.configs_for(workload, args.seed)
    if args.order:
        configs = workloads.with_order(configs, args.order)
    expected = workloads.expected_counts(workload, configs)
    print(
        f"workload {workload} seed {args.seed} configs {len(configs)} "
        f"digest {workloads.digest(configs)} expected_checks {sum(expected.values())}"
    )

    def run_pass(trace: bool, setup_only: bool = False):
        job = {"workload": workload, "configs": configs, "trace": trace, "setup_only": setup_only}
        return run_worker(job, TIME_LIMIT_S - (time.monotonic() - start))

    # untimed: writes the bytecode caches and warms the file cache
    warm = run_pass(False, setup_only=True)
    plain, traced, setups = [], [], []
    t0 = time.monotonic()
    deadline = t0 + args.seconds
    while True:
        trace = bool(args.trace) and len(traced) < len(plain)
        (traced if trace else plain).append(run_pass(trace))
        if plain[-1] is None or (traced and traced[-1] is None):
            break
        if not args.trace:
            setups.append(run_pass(False, setup_only=True))
        # start another pass only if it can end before the deadline
        done = len(plain) + len(traced)
        if (not args.trace or traced) and time.monotonic() + (time.monotonic() - t0) / done > deadline:
            break
    control = negative_control(TIME_LIMIT_S - (time.monotonic() - start))

    attempted = failed = 0
    for sample in plain + traced:
        a, f = tally(expected, sample)
        attempted += a
        failed += f
    correct = failed == 0 and control["ok"] and warm is not None and all(setups)

    good = [s for s in plain if s is not None]
    good_traced = [s for s in traced if s is not None]
    slowdowns = [slowdown(s) for s in good]
    setup_walls = [s["setup_s"] for s in good + setups if s is not None]
    samples = {
        "host.calib_s": [s["calib_s"] for s in good + good_traced],
        "host.slowdown": slowdowns,
        "verdict_wall_s": [s["verdict_s"] for s in good],
        "setup_wall_s": setup_walls,
        "verdict_s": [host_adjusted(s) for s in good],
        # set-up windows are too short to probe well: the run's slowdown
        "setup_s": [x / median(slowdowns) for x in setup_walls],
        "peak_rss_mb": [s["peak_rss_mb"] for s in good],
    }
    units = {"host.slowdown": "x", "peak_rss_mb": "MB"}
    for name, xs in samples.items():
        if xs:
            print(f"{workload} {name} {median(xs):.4g} {units.get(name, 's')} "
                  f"(median of {len(xs)}, min {min(xs):.4g}, max {max(xs):.4g})")
    print(f"{workload} checks_failed_frac {failed / attempted:.4g} ({failed} of {attempted} checks in {len(plain) + len(traced)} passes)")
    print(f"{workload} negative control: exit {control['exit']}, failed hopf checks {control['failed_checks']}"
          f" -> {'ok' if control['ok'] else 'FAILED'}")

    if args.trace:
        declared_metrics = declared["per_layer"]
        values = layer_metrics(declared_metrics, good_traced, good)
        for name, value in values.items():
            print(f"{workload} {name} {value:.6g}")
        for name in absent_metrics(declared_metrics, good_traced):
            print(f"{workload} {name} absent: its entry points no longer exist")
    else:
        declared_metrics = declared["end_to_end"]
        values = {name: median(samples[name]) for name in ("verdict_s", "setup_s", "peak_rss_mb")}
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared_metrics}

    record = {
        "workload": workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "order_override": args.order,
        "digest": workloads.digest(configs),
        "configs": configs,
        "provenance": info,
        "negative_control": control,
        "passes": plain,
        "traced_passes": traced,
        "setup_only_passes": setups,
        "warm_up_pass": warm,
        "result": {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics},
    }
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    (out_dir / f"{workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))
    return record["result"]


def tally(expected: dict, sample) -> tuple:
    """(attempted, failed) for one pass.  A check that failed, went missing or
    raised counts as failed; a pass that crashed misses every check."""
    if sample is None:
        total = sum(expected.values())
        return total, total
    passed, failing = sample["passed"], sample["failed"]
    bad = sum(max(failing.get(k, 0), n - passed.get(k, 0)) for k, n in expected.items())
    extra = sum(n for k, n in failing.items() if k not in expected)
    return sum(expected.values()) + extra, bad + extra


def layer_metrics(declared: list, traced: list, plain: list) -> dict:
    """Median over traced passes of each declared per-layer metric.  A metric
    name is a span name plus ".calls", ".self_s" or "_s" (total time); a bare
    counter name is its call count.  Times are divided by the pass's slowdown,
    like verdict_s."""
    out = {}
    for spec in declared:
        name = spec["name"]
        if name == "trace.overhead_frac":
            out[name] = median([host_adjusted(s) for s in traced]) / median([host_adjusted(s) for s in plain]) - 1
            continue
        for suffix, field in ((".calls", 0), (".self_s", 2), ("_s", 1), ("", 0)):
            if name.endswith(suffix):
                span = name[: len(name) - len(suffix)]
                break
        scale = (lambda s: 1) if field == 0 else slowdown
        out[name] = median([s["trace"]["stats"].get(span, [0, 0.0, 0.0])[field] / scale(s) for s in traced])
    return out


def absent_metrics(declared: list, traced: list) -> list:
    targets = {**tracing.SPANS, **tracing.COUNTERS}
    missing = set(traced[0]["trace"]["absent"]) if traced else set()
    gone = {span for span, ts in targets.items() if set(ts) <= missing}
    return [m["name"] for m in declared if any(m["name"].startswith(span) for span in gone)]


def slowdown(sample: dict) -> float:
    """How much slower than REFERENCE_PROBE_S the host ran the probe while a
    pass made its verdicts: the mean of the probes in that window over it.  A
    probe slower than PROBE_CAP times the reference was interrupted, not only
    slowed, and counts as PROBE_CAP times."""
    begin, end = sample["verdict_window"]
    cap = PROBE_CAP * REFERENCE_PROBE_S
    inside = [d for t, d in sample["probes"] if begin <= t and t + d <= end]
    # a verdict shorter than the probe interval holds none: use the whole pass
    speed = [min(d, cap) for d in inside or [d for _, d in sample["probes"]]]
    return statistics.fmean(speed) / REFERENCE_PROBE_S


def host_adjusted(sample: dict) -> float:
    """verdict_s of a pass, less the probes run inside it, over the slowdown."""
    begin, end = sample["verdict_window"]
    probed = sum(d for t, d in sample["probes"] if begin <= t and t + d <= end)
    return (end - begin - probed) / slowdown(sample)


def median(xs: list) -> float:
    return statistics.median(xs) if xs else float("nan")


def run_worker(job: dict, timeout: float):
    """One pass in a fresh process; None when it crashed or timed out."""
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "worker.py")],
            input=json.dumps(job),
            capture_output=True,
            text=True,
            timeout=max(timeout, 1),
            cwd=ROOT,
        )
    except subprocess.TimeoutExpired:
        print("error: a pass exceeded the time limit", file=sys.stderr)
        return None
    if proc.returncode != 0:
        print(f"error: a pass exited {proc.returncode}:\n{proc.stderr[-2000:]}", file=sys.stderr)
        return None
    return json.loads(proc.stdout.splitlines()[-1])


def negative_control(timeout: float) -> dict:
    """A corrupted coproduct table must make `kdeform verify` exit 1 and name
    the Hopf checks it breaks; a checker that passes it is vacuous."""
    cmd = [sys.executable, "-m", "kdeform.cli", "verify", "--example", "time-like",
           "--order", "2", "--suite", "hopf", "--corrupt", "--format", "json"]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=max(timeout, 1), cwd=ROOT, env=env)
    except subprocess.TimeoutExpired:
        return {"ok": False, "exit": None, "failed_checks": []}
    try:
        reports = json.loads(proc.stdout)
        failed = sorted({c["name"] for r in reports if r["suite"] == "hopf" for c in r["checks"] if not c["passed"]})
    except (json.JSONDecodeError, KeyError, TypeError):
        failed = []
    return {"ok": proc.returncode == 1 and bool(failed), "exit": proc.returncode, "failed_checks": failed}


def provenance() -> dict:
    def git(*cmd):
        try:
            proc = subprocess.run(["git", *cmd], capture_output=True, text=True, timeout=30, cwd=ROOT)
        except (OSError, subprocess.TimeoutExpired):
            return None
        return proc.stdout.strip() if proc.returncode == 0 else None

    sha = git("rev-parse", "HEAD")
    status = git("status", "--porcelain") if sha else None
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": sha,
        "git_dirty": None if status is None else bool(status),
    }


if __name__ == "__main__":
    sys.exit(main())
