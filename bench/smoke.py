"""Smoke test of the benchmark harness: every workload at truncation order 1,
untraced and traced, must pass its correctness gate and emit exactly the
metrics BENCHMARK.json declares; without a source tree the harness must fail
without printing a result.

    python3 bench/smoke.py            # or: python3 -m pytest bench/smoke.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in DECLARED["workloads"]]


def run_bench(root: Path, workload: str, trace: int, *extra: str):
    cmd = [sys.executable, *DECLARED["command"][1:], "--workload", workload, "--seed", "3",
           "--seconds", "1", "--trace", str(trace), *extra]
    return subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=300)


def result_of(proc) -> dict:
    assert proc.returncode == 0, proc.stderr[-2000:]
    out = json.loads(proc.stdout.splitlines()[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True and out["failed"] == 0 and out["attempted"] >= 1
    return out


def test_untraced_runs_emit_every_end_to_end_metric():
    for workload in WORKLOADS:
        out = result_of(run_bench(ROOT, workload, 0, "--order", "1"))
        declared = {m["name"]: m["unit"] for m in DECLARED["end_to_end"]}
        assert {k: v["unit"] for k, v in out["metrics"].items()} == declared, workload
        assert all(v["value"] > 0 for v in out["metrics"].values()), (workload, out)


def test_traced_runs_emit_every_per_layer_metric():
    declared = {m["name"]: m["unit"] for m in DECLARED["per_layer"]}
    seen = set()
    for workload in WORKLOADS:
        proc = run_bench(ROOT, workload, 1, "--order", "1")
        out = result_of(proc)
        assert {k: v["unit"] for k, v in out["metrics"].items()} == declared, workload
        assert "absent" not in proc.stdout, proc.stdout
        seen |= {k for k, v in out["metrics"].items() if v["value"]}
    # every layer is exercised by at least one workload
    unmeasured = set(declared) - seen - {"trace.overhead_frac"}
    assert not unmeasured, unmeasured


def test_fails_without_source_tree():
    bare = ROOT / ".bench_out" / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in DECLARED["paths"]:
        shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(bare, WORKLOADS[0], 0)
    shutil.rmtree(bare)
    assert proc.returncode != 0
    assert not proc.stdout.strip().endswith("}"), proc.stdout


if __name__ == "__main__":
    for name, fn in list(globals().items()):
        if name.startswith("test_"):
            fn()
            print(f"ok {name}")
