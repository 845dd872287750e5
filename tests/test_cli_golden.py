"""Byte-for-byte snapshot of the CLI's classify and emit output.

The snapshot in tests/data/cli_golden.json covers `classify` for every
built-in example and `emit` of every object that applies to it at --order 2,
each in text, latex and json.  Regenerate it (only when an output change is
intended) with

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

from kdeform.cli import EMIT_OBJECTS, EXAMPLES, main
from kdeform.jsonio import FORMAT_CHOICES, config_from_json

GOLDEN = Path(__file__).parent / "data" / "cli_golden.json"


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


def run_cli(argv) -> dict:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(list(argv))
    return {"argv": " ".join(argv), "exit": code, "stdout": buf.getvalue()}


@pytest.fixture(scope="module")
def golden():
    return {entry["argv"]: entry for entry in json.loads(GOLDEN.read_text())}


def test_snapshot_covers_every_case(golden):
    assert sorted(golden) == sorted(" ".join(argv) for argv in cases())


@pytest.mark.parametrize("argv", cases(), ids=" ".join)
def test_output_matches_snapshot(golden, argv):
    got = run_cli(argv)
    want = golden[got["argv"]]
    assert got["exit"] == want["exit"]
    assert got["stdout"] == want["stdout"]


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps([run_cli(argv) for argv in cases()], indent=1) + "\n")
    print(f"wrote {GOLDEN}", file=sys.stderr)
