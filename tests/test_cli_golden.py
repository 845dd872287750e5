"""Byte-for-byte snapshot of the CLI's classify, emit and verify output.

The snapshot in tests/data/cli_golden.json covers `classify` for every
built-in example and `emit` of every object that applies to it at --order 2,
each in text, latex and json.  tests/data/cli_golden_verify.json pins the
verdicts: `verify --suite all --order 2` in text for every built-in example,
and the three `--corrupt` negative controls, with the per-suite timings
masked.  That fixes every check name, count and verdict, and the first-term
residual text of each failure.  Regenerate both (only when an output change
is intended) with

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import contextlib
import io
import json
import re
import sys
from pathlib import Path

import pytest

from kdeform.cli import EMIT_OBJECTS, EXAMPLES, main
from kdeform.jsonio import FORMAT_CHOICES, config_from_json

GOLDEN = Path(__file__).parent / "data" / "cli_golden.json"
GOLDEN_VERIFY = Path(__file__).parent / "data" / "cli_golden_verify.json"
_TIMING = re.compile(r" \(\d+\.\d\ds\)$", re.M)


def _generators(dim: int):
    rots = [f"M {mu} {nu}" for mu in range(dim) for nu in range(mu + 1, dim)]
    return rots + [f"P {mu}" for mu in range(dim)]


def cases():
    """Every (argv) the snapshot pins, in a fixed order."""
    out = []
    for name in sorted(EXAMPLES):
        cfg = config_from_json({k: v for k, v in EXAMPLES[name].items() if k != "description"})
        null = not cfg.tau.tau_sq
        for fmt in FORMAT_CHOICES:
            base = ["--example", name, "--format", fmt]
            out.append(["classify", *base])
            for obj in EMIT_OBJECTS:
                if obj == "twist" and not null:
                    continue
                emit = ["emit", obj, *base, "--order", "2"]
                if obj in ("coproduct", "antipode"):
                    out.extend([*emit, "--generator", g] for g in _generators(cfg.dimension))
                else:
                    out.append(emit)
    return out


def verify_cases():
    """Every verify (argv) the verdict snapshot pins: each example's full run,
    then the negative controls of the CI."""
    out = [["verify", "--example", name, "--suite", "all", "--order", "2"] for name in sorted(EXAMPLES)]
    for name, suite in (("time-like", "hopf"), ("light-like", "twist"), ("tachyonic", "mr")):
        out.append(["verify", "--example", name, "--suite", suite, "--order", "2", "--corrupt"])
    return out


def run_cli(argv) -> dict:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(list(argv))
    stdout = buf.getvalue()
    if argv[0] == "verify":
        stdout = _TIMING.sub(" (x.xxs)", stdout)
    return {"argv": " ".join(argv), "exit": code, "stdout": stdout}


def _load(path):
    return {entry["argv"]: entry for entry in json.loads(path.read_text())}


@pytest.fixture(scope="module")
def golden():
    return _load(GOLDEN)


@pytest.fixture(scope="module")
def golden_verify():
    return _load(GOLDEN_VERIFY)


def test_snapshot_covers_every_case(golden, golden_verify):
    assert sorted(golden) == sorted(" ".join(argv) for argv in cases())
    assert sorted(golden_verify) == sorted(" ".join(argv) for argv in verify_cases())


def _assert_matches(snapshot, argv):
    got = run_cli(argv)
    want = snapshot[got["argv"]]
    assert got["exit"] == want["exit"]
    assert got["stdout"] == want["stdout"]


@pytest.mark.parametrize("argv", cases(), ids=" ".join)
def test_output_matches_snapshot(golden, argv):
    _assert_matches(golden, argv)


@pytest.mark.parametrize("argv", verify_cases(), ids=" ".join)
def test_verdicts_match_snapshot(golden_verify, argv):
    _assert_matches(golden_verify, argv)


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    for path, argvs in ((GOLDEN, cases()), (GOLDEN_VERIFY, verify_cases())):
        path.write_text(json.dumps([run_cli(argv) for argv in argvs], indent=1) + "\n")
        print(f"wrote {path}", file=sys.stderr)
