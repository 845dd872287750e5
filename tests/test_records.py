"""The plain record classes: what they keep of a record's behaviour, and the
import path they keep free of dataclasses and inspect."""

import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from kdeform import OrbitClassification, VerificationReport
from kdeform.jsonio import RunConfig, config_from_json
from kdeform.reports import CheckResult


def test_import_path_loads_no_dataclasses_or_inspect():
    """Start-up cost: dataclasses pulls in inspect, ast, dis and tokenize.
    Only the modules the imports add count, not those the interpreter loaded."""
    probe = (
        "import json, sys\n"
        "before = set(sys.modules)\n"
        "import kdeform, kdeform.jsonio, kdeform.cli\n"
        "print(json.dumps(sorted(set(sys.modules) - before)))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    added = set(json.loads(done.stdout))
    assert "kdeform.cli" in added
    heavy = added & {"dataclasses", "inspect"}
    assert not heavy, f"the import path loads {sorted(heavy)}"


class TestReports:
    def test_checks_are_not_shared(self):
        a, b = VerificationReport("a"), VerificationReport("b")
        a.record_bool("x", True)
        assert a.checks is not b.checks
        assert b.checks == []

    def test_keywords_construct(self):
        c = CheckResult(name="c", passed=False, generator="P_0", residual="h*P_0",
                        residual_json={"terms": []}, note="n")
        rep = VerificationReport("s", checks=[c], seconds=1.5, skipped=None)
        assert rep.checks == [c] and rep.seconds == 1.5 and not rep.all_passed
        assert VerificationReport("t", [], 0.0, "why").skipped == "why"

    def test_check_json(self):
        assert CheckResult("a", True).to_json() == {"name": "a", "passed": True}
        full = CheckResult("b", False, "P_0", "h*P_0", {"terms": []}, "n")
        assert full.to_json() == {
            "name": "b", "passed": False, "generator": "P_0", "residual": {"terms": []}, "note": "n"
        }

    def test_report_text(self):
        rep = VerificationReport("hopf", seconds=0.25)
        rep.record_bool("counit", True, generator="P_1")
        rep.checks.append(CheckResult("antipode", False, residual="h*P_0"))
        assert str(rep) == (
            "suite hopf: FAIL (0.25s)\n"
            "  ok  counit [P_1]\n"
            "  FAILED antipode\n"
            "         residual: h*P_0"
        )
        assert str(VerificationReport("twist", skipped="null tau only")) == (
            "suite twist: SKIPPED\n  skipped: null tau only"
        )


def test_orbit_classification_is_a_frozen_value():
    o = OrbitClassification(Fraction(-1), "MYBE", "SO", (3, 0))
    copy = OrbitClassification(Fraction(-1), "MYBE", "SO", (3, 0))
    assert o == copy and hash(o) == hash(copy)
    assert o != OrbitClassification(Fraction(-1), "MYBE", "SO", (2, 1))
    assert (o.tau_sq_sign, o.stability_label, o.suggested_basis) == (-1, "SO(3)", "orthogonal")
    with pytest.raises(AttributeError):
        o.yb_type = "CYBE"
    with pytest.raises(AttributeError):
        o.extra = 1


def test_run_config_cli_fields_are_assignable():
    cfg = config_from_json({"metric": [[-1, 0], [0, 1]], "tau": [1, 0]})
    assert isinstance(cfg, RunConfig)
    assert (cfg.truncation_order, cfg.basis, cfg.output_format) == (None, "auto", "text")
    cfg.truncation_order, cfg.output_format = 3, "json"
    assert cfg.order_for("hopf") == 3 and cfg.output_format == "json"
