import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from kdeform import cli, jsonio
from kdeform.cli import EXAMPLES, main
from kdeform.errors import ContextMismatchError, InternalConsistencyError


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestClassify:
    @pytest.mark.parametrize(
        "name,yb,label",
        [
            ("time-like", "MYBE", "SO(3)"),
            ("light-like", "CYBE", "ISO(2)"),
            ("tachyonic", "MYBE", "SO(2,1)"),
            ("kleinian", "CYBE", "ISO(1,1)"),
            ("non-diagonal-lorentzian", "MYBE", "SO(3)"),
        ],
    )
    def test_builtin_examples(self, capsys, name, yb, label):
        code, out, _ = run(capsys, "classify", "--example", name)
        assert code == 0
        assert yb in out and label in out

    def test_json_format(self, capsys):
        code, out, _ = run(capsys, "classify", "--example", "light-like", "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert data["yb_type"] == "CYBE"
        assert data["stability"] == {"kind": "ISO", "p": 2, "q": 0}

    def test_config_file(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"metric": [["-1", 0], [0, 1]], "tau": [1, 0]}))
        code, out, _ = run(capsys, "classify", "--config", str(cfg))
        assert code == 0 and "MYBE" in out

    def test_bad_config_exits_2(self, capsys, tmp_path):
        cfg = tmp_path / "bad.json"
        for bad in (
            {"metric": [[1.5, 0], [0, 1]], "tau": [1, 0]},
            {"metric": [[-1, 0], [0, 1]], "tau": [1, 0], "truncation_order": True},
            {"metric": 5, "tau": [1, 0]},
            {"metric": [[-1, 0], [0, 1]], "tau": None},
            {"metric": [["1/0", 0], [0, 1]], "tau": [1, 0]},
            {"metric": [[-1, 0], [0, 1]], "tau": ["1/0", 0]},
            {"metric": [5, [0, 1]], "tau": [1, 0]},
        ):
            cfg.write_text(json.dumps(bad))
            code, _, err = run(capsys, "classify", "--config", str(cfg))
            assert code == 2 and "error" in err, bad

    def test_missing_source_exits_2(self, capsys):
        code, _, err = run(capsys, "classify")
        assert code == 2


class TestEmit:
    def test_coproduct_timelike(self, capsys):
        code, out, _ = run(
            capsys, "emit", "coproduct", "--generator", "P 1",
            "--example", "time-like", "--order", "2",
        )
        assert code == 0
        assert "P_1 (x) 1" in out or "1 (x) P_1" in out

    def test_coproduct_json_round_trips(self, capsys, eta4):
        code, out, _ = run(
            capsys, "emit", "coproduct", "--generator", "P 1",
            "--example", "time-like", "--order", "2", "--format", "json",
        )
        assert code == 0
        from kdeform.hopf import DeformationContext

        data = json.loads(out)
        ctx = DeformationContext(eta4, [1, 0, 0, 0], 2)
        parsed = jsonio.tensor_from_json(data, ctx.algebra)
        assert parsed == ctx.coproduct(ctx.algebra.momentum_code(1))

    def test_schouten_lightlike_is_zero(self, capsys):
        code, out, _ = run(capsys, "emit", "schouten", "--example", "light-like", "--order", "2")
        assert code == 0 and out.strip() == "0"

    def test_twist_on_timelike_exits_2(self, capsys):
        code, _, err = run(capsys, "emit", "twist", "--example", "time-like", "--order", "2")
        assert code == 2
        assert "tau^2" in err

    def test_twist_lightlike(self, capsys):
        code, out, _ = run(
            capsys, "emit", "twist", "--example", "light-like", "--order", "2",
            "--format", "json",
        )
        assert code == 0
        data = json.loads(out)
        assert set(data) == {"twist", "r_matrix"}

    def test_latex(self, capsys):
        code, out, _ = run(
            capsys, "emit", "pi", "--example", "time-like", "--order", "2",
            "--format", "latex",
        )
        assert code == 0 and "\\Pi_\\tau" in out

    def test_generator_required(self, capsys):
        code, _, err = run(capsys, "emit", "coproduct", "--example", "time-like", "--order", "2")
        assert code == 2

    def test_bad_generator(self, capsys):
        code, _, err = run(
            capsys, "emit", "coproduct", "--generator", "Q 7",
            "--example", "time-like", "--order", "2",
        )
        assert code == 2


class TestVerify:
    def test_hopf_suite_small(self, capsys, tmp_path):
        cfg = tmp_path / "d2.json"
        cfg.write_text(
            json.dumps({"metric": [["-1", 0], [0, 1]], "tau": [1, 0], "truncation_order": 2})
        )
        code, out, _ = run(capsys, "verify", "--suite", "hopf", "--config", str(cfg))
        assert code == 0
        assert "PASS" in out

    def test_all_suites_lightlike_d2(self, capsys, tmp_path):
        cfg = tmp_path / "lc2.json"
        cfg.write_text(
            json.dumps({"metric": [[0, 1], [1, 0]], "tau": [1, 0], "truncation_order": 2})
        )
        code, out, _ = run(capsys, "verify", "--suite", "all", "--config", str(cfg))
        assert code == 0
        assert "skipped" in out  # the MR suite does not apply to null tau
        # a suite that checked nothing neither passed nor failed
        assert "suite majid-ruegg: SKIPPED\n" in out and "suite majid-ruegg: PASS" not in out

    def test_all_suites_zero_tau(self, capsys, tmp_path):
        # every suite alone accepts tau = 0, so all of them together must too;
        # the Schouten report has no r-matrix to check and says so
        cfg = tmp_path / "zero.json"
        data = {"metric": [[-1, 0, 0], [0, 1, 0], [0, 0, 1]], "tau": [0, 0, 0]}
        cfg.write_text(json.dumps({**data, "truncation_order": 2}))
        argv = ("verify", "--suite", "all", "--config", str(cfg), "--format", "json")
        code, out, _ = run(capsys, *argv)
        assert code == 0
        schouten = json.loads(out)[0]
        assert schouten["suite"] == "schouten" and "no r-matrix" in schouten["skipped"]
        assert all(r["passed"] is (None if "skipped" in r else True) for r in json.loads(out))
        code, out, _ = run(capsys, *argv, "--corrupt")
        assert code == 1
        assert any(r["passed"] is False for r in json.loads(out))

    @staticmethod
    def _null_eta3(tmp_path, basis):
        cfg = tmp_path / f"{basis}.json"
        data = {"metric": [[-1, 0, 0], [0, 1, 0], [0, 0, 1]], "tau": [1, 0, 1]}
        cfg.write_text(json.dumps({**data, "truncation_order": 2, "basis": basis}))
        return str(cfg)

    def test_verify_runs_in_the_configured_basis(self, capsys, tmp_path):
        # the twist suite ties a caller's context that is not light-cone
        # adapted to a fresh adapted one; in the light-cone basis it needs no tie
        tie = "caller-coproduct-in-adapted-basis"
        for basis, tied in (("auto", True), ("lightcone", False)):
            cfg = self._null_eta3(tmp_path, basis)
            code, out, _ = run(capsys, "verify", "--config", cfg, "--suite", "twist")
            assert code == 0
            assert (tie in out) is tied, basis

    def test_verify_rejects_a_basis_tau_does_not_admit(self, capsys, tmp_path, monkeypatch):
        def build(*args):
            raise AssertionError("a context was built before the basis was checked")

        monkeypatch.setattr(cli, "DeformationContext", build)
        monkeypatch.setattr(cli, "adapted_context", build)
        monkeypatch.setattr(cli, "_schouten_report", build)
        code, _, err = run(capsys, "verify", "--config", self._null_eta3(tmp_path, "orthogonal"))
        assert code == 2
        assert "orthogonal basis requires tau^2 != 0" in err

    def test_corrupted_coproduct_fails(self, capsys, tmp_path):
        cfg = tmp_path / "d2.json"
        cfg.write_text(
            json.dumps({"metric": [["-1", 0], [0, 1]], "tau": [1, 0], "truncation_order": 2})
        )
        code, out, _ = run(
            capsys, "verify", "--suite", "hopf", "--config", str(cfg), "--corrupt"
        )
        assert code == 1
        assert "FAILED" in out

    @pytest.mark.parametrize(
        "example,suite", [("light-like", "twist"), ("tachyonic", "mr"), ("time-like", "hopf")]
    )
    def test_corrupt_fails_every_suite(self, capsys, example, suite):
        # every suite bumps its context the same way; light-like and tachyonic
        # are checked in a freshly adapted basis, tied to the bumped tables
        argv = ("verify", "--example", example, "--suite", suite, "--order", "2")
        assert run(capsys, *argv)[0] == 0
        code, out, _ = run(capsys, *argv, "--corrupt")
        assert code == 1
        assert "FAILED" in out

    @pytest.mark.parametrize("exc", [InternalConsistencyError, ContextMismatchError])
    def test_internal_defect_exits_3(self, capsys, monkeypatch, exc):
        def broken(ctx):
            raise exc("routes disagree")

        monkeypatch.setattr(cli, "verify_mr", broken)
        code, _, err = run(
            capsys, "verify", "--suite", "mr", "--example", "time-like", "--order", "1"
        )
        assert code == 3
        assert err.startswith("internal error: routes disagree")

    def test_json_report(self, capsys, tmp_path):
        cfg = tmp_path / "d2.json"
        cfg.write_text(
            json.dumps({"metric": [["-1", 0], [0, 1]], "tau": [1, 0], "truncation_order": 2})
        )
        code, out, _ = run(
            capsys, "verify", "--suite", "hopf", "--config", str(cfg), "--format", "json"
        )
        assert code == 0
        data = json.loads(out)
        assert all(r["passed"] for r in data)


class TestExamples:
    def test_listing(self, capsys):
        code, out, _ = run(capsys, "examples")
        assert code == 0
        for name in EXAMPLES:
            assert name in out

    def test_show_one_loads(self, capsys):
        for name in EXAMPLES:
            code, out, _ = run(capsys, "examples", "--example", name)
            assert code == 0
            jsonio.config_from_json(json.loads(out))


def test_python_dash_m_runs_the_cli():
    """python -m kdeform is the kdeform console script."""
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    args = ["verify", "--example", "time-like", "--suite", "hopf", "--order", "2"]
    done = subprocess.run(
        [sys.executable, "-m", "kdeform", *args], env=env, capture_output=True, text=True
    )
    assert done.returncode == 0, done.stderr
    assert "hopf" in done.stdout
