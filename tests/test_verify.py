"""Build-invariant runner: check registry, failure capture, ordering."""

import os
import subprocess
import sys
import textwrap

import pytest

import tsrforge
from tsrforge import verify
from tsrforge.verify import CheckResult, first_failure, run_checks

QUICK_NAMES = [
    "field_arithmetic",
    "subfield_maps",
    "primitivity_known",
    "minimal_polynomial",
    "conjugate_product",
    "closed_form_counts",
    "matrix_census",
    "special_enumerations",
    "tsr_charpoly",
    "search_small",
    "conjecture_smoke",
    "r_small",
    "element_tally",
    "quadratic_census",
    "r_bound",
    "tables_quick",
    "guards",
    "bruteforce_theorem",
]

FULL_EXTRA_NAMES = [
    "r_deep",
    "base3_enumerations",
    "conjecture_grid",
    "composition_gap",
    "tables_full",
]


def test_quick_checks_all_pass():
    results = run_checks("quick")
    assert [r.name for r in results] == QUICK_NAMES
    assert all(r.ok for r in results), [r for r in results if not r.ok]
    assert first_failure(results) is None


def test_full_level_appends_deep_checks():
    results = run_checks("full")
    assert [r.name for r in results] == QUICK_NAMES + FULL_EXTRA_NAMES
    assert all(r.ok for r in results), [r for r in results if not r.ok]


def test_unknown_level_rejected():
    with pytest.raises(ValueError):
        run_checks("paranoid")


def test_check_failures_are_captured_not_raised(monkeypatch):
    def fails():
        assert False, "tripwire"

    def crashes():
        raise RuntimeError("kaboom")

    def passes():
        return "42 happy values"

    rigged = (("a", passes), ("b", fails), ("c", crashes))
    monkeypatch.setattr(verify, "QUICK_CHECKS", rigged)
    results = run_checks("quick")
    assert [(r.name, r.ok) for r in results] == [("a", True), ("b", False), ("c", False)]
    assert results[0].detail == "42 happy values"
    assert results[1].detail.startswith("tripwire")
    assert results[2].detail == "RuntimeError: kaboom"
    assert first_failure(results).name == "b"


def test_first_failure_none_when_green():
    results = [CheckResult("x", True, ""), CheckResult("y", True, "")]
    assert first_failure(results) is None


def test_checks_fail_under_python_O():
    # python -O strips assert statements; a broken primitivity test must still be caught
    code = textwrap.dedent("""
        from tsrforge import cli, verify

        verify.is_primitive_poly = lambda f: (True, None)  # accepts everything
        print("exit", cli.main(["verify"]), __debug__)
    """)
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(tsrforge.__file__)))
    res = subprocess.run([sys.executable, "-O", "-c", code], env=env, capture_output=True,
                         text=True, timeout=300)
    assert res.returncode == 0, res.stderr
    lines = res.stdout.splitlines()
    assert "FAIL primitivity_known - order-5 quartic accepted as primitive" in lines
    assert "first broken invariant: primitivity_known" in lines
    assert lines[-1] == "exit 1 False"
