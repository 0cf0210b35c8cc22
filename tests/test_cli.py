"""Command-line behaviour: exit codes, JSON shape, determinism."""

import json
import math
import os

import pytest

from tsrforge import cli
from tsrforge.fields import make_field
from tsrforge.guards import ENV_VAR
from tsrforge.polys import format_poly, parse_poly
from tsrforge.primitivity import is_primitive_poly
from tsrforge.search import search_primitive_tsr
from tsrforge.tsr import tsr_period
from tsrforge.verify import CheckResult


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def json_lines(out):
    return [json.loads(line) for line in out.splitlines() if line.startswith("{")]


def test_field_extension(capsys):
    code, out, _ = run_cli(capsys, "field", "9")
    assert code == 0
    (info,) = json_lines(out)
    assert info == {
        "order": 9,
        "characteristic": 3,
        "degree": 2,
        "modulus": "x^2 + 2x + 2",
        "generator": "a",
        "generator_primitive": True,
    }


def test_field_prime_has_no_modulus(capsys):
    code, out, _ = run_cli(capsys, "field", "7")
    assert code == 0
    (info,) = json_lines(out)
    assert info["order"] == 7
    assert info["degree"] == 1
    assert info["modulus"] is None
    assert info["generator"] is None
    assert info["generator_primitive"] is None


def test_field_rejects_non_prime_power(capsys):
    code, _, err = run_cli(capsys, "field", "12")
    assert code == 2
    assert "bad arguments" in err


def test_unknown_subcommand_exits_2():
    with pytest.raises(SystemExit) as exc:
        cli.main(["frobnicate"])
    assert exc.value.code == 2


def test_test_primitive_accepts(capsys):
    code, out, _ = run_cli(capsys, "test-primitive", "2", "x^4 + x + 1")
    assert code == 0
    (rec,) = json_lines(out)
    assert rec["primitive"] is True
    cert = rec["certificate"]
    assert cert["group_order"] == 15
    assert cert["factors"] == [[3, 1], [5, 1]]
    assert sorted(cert["witnesses"]) == ["3", "5"]
    for text in cert["witnesses"].values():
        parse_poly(text, make_field(2))


def test_test_primitive_rejects_irreducible_non_primitive(capsys):
    # x^4 + x^3 + x^2 + x + 1 is irreducible over F_2 but X has order 5, not 15
    code, out, _ = run_cli(capsys, "test-primitive", "2", "x^4 + x^3 + x^2 + x + 1")
    assert code == 1
    (rec,) = json_lines(out)
    assert rec["primitive"] is False
    assert rec["certificate"] is None


def test_test_primitive_norm_decides_past_the_factorization_bound(capsys):
    # x^41 + 2x + 2 is irreducible over F_3 and 3^41 - 1 > 2^64, but its norm
    # (-1)^41 * 2 = 1 is not primitive in F_3, so no factorization is needed
    code, out, err = run_cli(capsys, "test-primitive", "3", "x^41 + 2x + 2")
    assert (code, err) == (1, "")
    assert json_lines(out) == [{"certificate": None, "field_order": 3,
                                "poly": "x^41 + 2x + 2", "primitive": False}]
    # over F_2 the norm is always 1: these still need 2^n - 1 factored
    for text in ("x^89 + x^38 + 1", "x^65 + x^18 + 1"):
        code, out, err = run_cli(capsys, "test-primitive", "2", text)
        assert (code, out) == (2, "")
        assert "scale limit" in err and "2^64 factorization bound" in err


def test_test_primitive_rejects_garbage_text(capsys):
    code, _, err = run_cli(capsys, "test-primitive", "2", "x^^2 +")
    assert code == 2
    assert "bad arguments" in err


def test_test_primitive_refuses_a_trailing_sign(capsys):
    for q, text in (("2", "x^4+x+1+"), ("4", "x^2+(a+)x+1")):
        code, out, err = run_cli(capsys, "test-primitive", q, text)
        assert (code, out) == (2, "")
        assert "bad arguments" in err and "sign with no term after it" in err


def test_search_tsr_result_is_verifiable(capsys):
    code, out, _ = run_cli(capsys, "search-tsr", "2", "2", "3")
    assert code == 0
    (rec,) = json_lines(out)
    assert rec["q"] == 2 and rec["m"] == 2 and rec["n"] == 3
    # taps are c_1..c_{n-1}; c_0 = 1 is implicit in the normalized form
    assert len(rec["taps"]) == 2
    assert len(rec["block"]) == 2 and all(len(row) == 2 for row in rec["block"])
    assert rec["group_order"] == 2 ** 6 - 1
    charpoly = parse_poly(rec["charpoly"], make_field(2))
    assert charpoly.degree == 6
    ok, cert = is_primitive_poly(charpoly)
    assert ok and cert.group_order == 63


def test_search_tsr_provenance_trace(capsys):
    code, out, _ = run_cli(capsys, "search-tsr", "3", "2", "3", "--emit", "provenance")
    assert code == 0
    rec, prov = json_lines(out)
    assert rec["charpoly"] == "x^6 + 2x^5 + 2x^4 + 2x^3 + x^2 + 2"
    assert rec["group_order"] == 728
    assert prov["f"] == "x^2 + x + 2"
    assert prov["g"] == "x^3 + x"
    assert prov["h"] == "x^2 + 2x + 2"
    assert prov["step8"] == rec["charpoly"]


@pytest.mark.parametrize("q, m, n, alpha, lam", [("4", "3", "3", "a^2+a+1", "a^4+a^3+a^2+a"),
                                                  ("9", "2", "3", "a^3+a+2", "2a^2+2a")])
def test_search_tsr_provenance_alpha_over_prime_powers(capsys, q, m, n, alpha, lam):
    # alpha is the least root of f in the default F_{q^m}, lam its inverse
    code, out, _ = run_cli(capsys, "search-tsr", q, m, n, "--emit", "provenance")
    assert code == 0
    rec, prov = json_lines(out)
    assert (prov["alpha"], prov["lam"]) == (alpha, lam)
    assert prov["step8"] == rec["charpoly"]


_M1_SEARCH = {  # q: (taps, block, charpoly, f, g, alpha, lam, h)
    2: (["0", "1"], "1", "x^3 + x^2 + 1", "x + 1", "x^3 + x", "1", "1", "x + 1"),
    3: (["0", "2"], "2", "x^3 + 2x^2 + 1", "x + 1", "x^3 + 2x", "2", "2", "x + 1"),
    4: (["1", "1"], "a+1", "x^3 + (a+1)x^2 + (a+1)x + (a+1)", "x + a", "x^3 + x^2 + x", "a", "a+1",
        "x + (a+1)"),
    5: (["0", "3"], "2", "x^3 + 4x^2 + 3", "x + 2", "x^3 + 3x", "3", "2", "x + 3"),
    9: (["0", "1"], "2a+1", "x^3 + (a+2)x^2 + (a+2)", "x + a", "x^3 + x", "2a", "2a+1", "x + (a+2)"),
}


@pytest.mark.parametrize("q", sorted(_M1_SEARCH))
def test_search_tsr_at_m1_is_a_pinned_lfsr(capsys, q):
    # m = 1: alpha is -f(0), the root of the linear f in F_q, and lam = 1/alpha is the block
    taps, block, charpoly, f, g, alpha, lam, h = _M1_SEARCH[q]
    code, out, err = run_cli(capsys, "search-tsr", str(q), "1", "3", "--emit", "provenance")
    assert (code, err) == (0, "")
    rec, prov = json_lines(out)
    assert rec == {"q": q, "m": 1, "n": 3, "taps": taps, "block": [[block]], "charpoly": charpoly,
                   "group_order": q ** 3 - 1}
    assert prov == {"f": f, "g": g, "alpha": alpha, "lam": lam, "step5": charpoly, "h": h, "step8": charpoly}
    assert tsr_period(search_primitive_tsr(q, 1, 3).spec) == q ** 3 - 1


def test_search_tsr_budget_exhaustion_exits_3(capsys):
    # (2, 2, 7) first hits at pair 6
    code, _, err = run_cli(capsys, "search-tsr", "2", "2", "7", "--budget", "5")
    assert code == 3
    assert err == "budget exhausted: no primitive register found after 5 candidate pairs\n"


def test_search_tsr_rejects_negative_budget(capsys):
    code, out, err = run_cli(capsys, "search-tsr", "2", "2", "3", "--budget", "-1")
    assert code == 2
    assert out == ""
    assert "bad arguments" in err and "budget = -1" in err
    # a zero budget still means "try nothing"
    code, _, err = run_cli(capsys, "search-tsr", "2", "2", "3", "--budget", "0")
    assert code == 3
    assert "after 0 candidate pairs" in err


def test_search_tsr_rejects_even_n_for_odd_q(capsys):
    # refused only where q^m = 3 (mod 4) empties the f(g(X)) family, in no time whatever the scan's size
    for q, n in (("3", "14"), ("7", "8")):
        assert run_cli(capsys, "search-tsr", q, "1", n) == (2, "", (
            f"bad arguments: n = {n} even and q^m = {q}^1 = 3 (mod 4): the norm f(0) of f(g(X)) "
            "is never primitive, so the f(g(X)) family is empty\n"))
    code, out, err = run_cli(capsys, "search-tsr", "3", "2", "2")
    assert (code, err) == (0, "") and json_lines(out)[0]["group_order"] == 80


def test_enumerate_closed_forms(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "sigma_prim", "2", "2", "2")
    assert code == 0
    (rec,) = json_lines(out)
    assert rec["count"] == 16

    code, out, _ = run_cli(capsys, "enumerate", "gl_order", "2", "3")
    assert code == 0
    (rec,) = json_lines(out)
    assert rec["count"] == 168


def test_enumerate_census_lists_every_member(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "P_mnq", "2", "2", "3", "--list")
    assert code == 0
    recs = json_lines(out)
    head, members = recs[0], recs[1:]
    assert head["count"] == 2 == len(members)
    texts = [m["poly"] for m in members]
    assert texts == ["x^3 + x^2 + x + (a+1)", "x^3 + x^2 + x + a"]
    big = make_field(4)
    for text in texts:
        assert format_poly(parse_poly(text, big)) == text


def test_enumerate_census_requires_m_and_n(capsys):
    code, _, err = run_cli(capsys, "enumerate", "P_qmn", "2", "2")
    assert code == 2
    assert "bad arguments" in err


def test_enumerate_tsrp_bruteforce(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "tsrp", "2", "2", "2", "--list")
    assert code == 0
    recs = json_lines(out)
    assert recs[0]["count"] == 2
    assert len(recs) == 3
    for rec in recs[1:]:
        assert len(rec["taps"]) == 1
        assert len(rec["block"]) == 2


def test_count_r_csv(capsys):
    code, out, _ = run_cli(capsys, "count-r")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "# table r_table"
    assert lines[1] == "m,r,P2m2"
    rows = [line.split(",") for line in lines[2:]]
    assert [int(r[0]) for r in rows] == list(range(2, 11))
    assert [int(r[1]) for r in rows] == [1, 1, 1, 2, 3, 6, 7, 16, 25]
    assert [int(r[2]) for r in rows] == [2, 3, 4, 10, 18, 42, 56, 144, 250]


def test_count_r_deep_stdout_is_pinned(capsys):
    code, out, err = run_cli(capsys, "count-r", "--deep")
    assert code == 0
    assert err == ""
    assert out == ("# table r_table\nm,r,P2m2\n"
                   "2,1,2\n3,1,3\n4,1,4\n5,2,10\n6,3,18\n7,6,42\n8,7,56\n"
                   "9,16,144\n10,25,250\n11,57,627\n12,68,816\n")


def test_count_r_guard_refusal(capsys, monkeypatch):
    monkeypatch.setenv(ENV_VAR, "24")
    code, out, err = run_cli(capsys, "--guard-bits", "9", "count-r")
    assert code == 2
    assert out == ""
    assert err == "guard violation: census field of 1024 exceeds the 2^9 guard\n"


def test_tables_out_file_matches_stdout_and_threads(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "tables", "t2")
    assert code == 0
    one = tmp_path / "one.csv"
    four = tmp_path / "four.csv"
    assert cli.main(["tables", "t2", "--out", str(one)]) == 0
    assert cli.main(["tables", "t2", "--out", str(four), "--threads", "4"]) == 0
    capsys.readouterr()
    assert one.read_text() == out
    assert one.read_bytes() == four.read_bytes()


@pytest.mark.parametrize("argv, threads", [
    (["search-tsr", "2", "2", "7"], "4"),
    (["enumerate", "P_mnq", "2", "2", "5", "--list"], "3"),
    (["enumerate", "tsrp", "2", "2", "2", "--list"], "2"),
])
def test_threads_never_changes_output(argv, threads, capsys):
    # --threads is parsed for compatibility and reaches no library call
    plain = run_cli(capsys, *argv)
    assert run_cli(capsys, *argv, "--threads", threads) == plain
    assert plain[0] == 0 and plain[1] and plain[2] == ""


@pytest.mark.parametrize("argv", [["search-tsr", "3", "2", "2"], ["search-tsr", "3", "3", "2"],
                                  ["search-tsr", "5", "3", "2", "--emit", "provenance"], ["search-tsr", "2", "2", "3"],
                                  ["search-tsr", "2", "2", "7", "--budget", "5"]])
def test_allow_even_n_never_changes_output(argv, capsys):
    # --allow-even-n is parsed for compatibility and reaches no library call
    assert run_cli(capsys, *argv, "--allow-even-n") == run_cli(capsys, *argv)


def test_tables_cells_are_comma_free(capsys):
    code, out, _ = run_cli(capsys, "tables", "t2")
    assert code == 0
    for line in out.splitlines()[2:]:
        key, count, entries = line.split(",")
        assert int(count) == len([e for e in entries.split(";") if e])


def test_tables_report_flags_each_bundled_entry(capsys):
    code, out, _ = run_cli(capsys, "tables", "t1", "--report")
    assert code == 0
    recs = json_lines(out)
    assert len(recs) == 16
    assert sum(1 for r in recs if r["accepted"]) == 7
    rejected = {r["entry"] for r in recs if not r["accepted"]}
    assert "x^3 + x^2 + a+10" in rejected
    for r in recs:
        assert r["note"] is None or isinstance(r["note"], str)


def test_verify_quick_all_green(capsys):
    code, out, _ = run_cli(capsys, "verify")
    assert code == 0
    lines = out.splitlines()
    assert lines[-1] == "all 18 checks passed"
    assert all(line.startswith("ok  ") for line in lines[:-1])


def test_verify_names_first_broken_invariant(capsys, monkeypatch):
    rigged = [
        CheckResult("alpha", True, "fine"),
        CheckResult("beta", False, "boom"),
        CheckResult("gamma", False, "also boom"),
    ]
    monkeypatch.setattr(cli, "run_checks", lambda level: rigged)
    code, out, _ = run_cli(capsys, "verify")
    assert code == 1
    assert "FAIL beta - boom" in out
    assert out.splitlines()[-1] == "first broken invariant: beta"


def test_bound_includes_class_count_only_for_q2(capsys):
    code, out, _ = run_cli(capsys, "bound", "2", "3", "2")
    assert code == 0
    (rec,) = json_lines(out)
    assert rec["tsrp_upper_bound"] == 48
    assert rec["class_count_upper_bound"] == 2

    code, out, _ = run_cli(capsys, "bound", "3", "2", "3")
    assert code == 0
    (rec,) = json_lines(out)
    assert rec["tsrp_upper_bound"] == 96
    assert "class_count_upper_bound" not in rec


def test_bound_rejects_bad_shape(capsys):
    for argv, name in ((("2", "2", "0"), "n = 0"), (("2", "0", "2"), "m = 0"),
                       (("6", "2", "2"), "6 is not a prime power"),
                       (("-3", "2", "2"), "-3 is not a prime power"),
                       (("1", "2", "2"), "1 is not a prime power")):
        code, out, err = run_cli(capsys, "bound", *argv)
        assert code == 2
        assert out == ""
        assert "bad arguments" in err and name in err


def test_search_and_enumerate_reject_bad_shape(capsys):
    for argv, name in ((("search-tsr", "2", "2", "-1"), "n = -1"),
                       (("search-tsr", "2", "-1", "3"), "m = -1"),
                       (("enumerate", "tsrp", "2", "2", "-1"), "n = -1"),
                       (("enumerate", "P_mnq", "2", "0", "3"), "m = 0")):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert "bad arguments" in err and name in err


def test_enumerate_censuses_name_a_q_that_is_not_a_prime_power(capsys):
    for form in ("P_mnq", "P_qmn"):
        for q in ("1", "0", "6"):
            code, out, err = run_cli(capsys, "enumerate", form, q, "2", "2")
            assert code == 2
            assert out == ""
            assert err == f"bad arguments: {q} is not a prime power\n"


def test_guard_names_a_size_too_long_to_print_by_its_bit_length(capsys, monkeypatch):
    monkeypatch.delenv(ENV_VAR, raising=False)
    for argv, what in ((("2", "1", "99999"), "tap space"), (("2", "99999", "1"), "block field")):
        code, out, err = run_cli(capsys, "search-tsr", *argv)
        assert code == 2
        assert out == ""
        assert err == f"guard violation: {what} of a 100000-bit number exceeds the 2^24 guard\n"
        assert "Traceback" not in err
    # a size that prints is still printed in full
    code, _, err = run_cli(capsys, "search-tsr", "2", "1", "30")
    assert code == 2
    assert err == "guard violation: tap space of 1073741824 exceeds the 2^24 guard\n"


def test_guard_bits_flag_tightens_both_guards(capsys, monkeypatch):
    # pin the variable so the flag's os.environ write is rolled back afterwards
    monkeypatch.setenv(ENV_VAR, "24")
    code, _, err = run_cli(capsys, "--guard-bits", "3",
                           "enumerate", "P_qmn", "2", "4", "3")
    assert code == 2
    assert "guard violation" in err
    assert "exceeds the 2^3 guard" in err


def test_guard_bits_flag_leaves_the_environment_unchanged(capsys, monkeypatch):
    monkeypatch.delenv(ENV_VAR, raising=False)
    assert run_cli(capsys, "--guard-bits", "30", "bound", "2", "2", "2")[0] == 0
    assert ENV_VAR not in os.environ
    monkeypatch.setenv(ENV_VAR, "24")
    assert run_cli(capsys, "--guard-bits", "30", "bound", "2", "2", "2")[0] == 0
    assert os.environ[ENV_VAR] == "24"


def test_factorization_bound_exits_2(capsys):
    # 2^65: factoring the field order runs past the 2^64 bound at once
    code, out, err = run_cli(capsys, "field", "36893488147419103232")
    assert code == 2
    assert out == ""
    assert "2^64 factorization bound" in err


def test_guard_env_variable(capsys, monkeypatch):
    monkeypatch.setenv(ENV_VAR, "3")
    code, _, err = run_cli(capsys, "enumerate", "P_qmn", "2", "4", "3")
    assert code == 2
    assert "guard violation" in err


def test_bad_guard_bits_are_refused_by_name(capsys, monkeypatch):
    monkeypatch.setenv(ENV_VAR, "24")
    # the flag is refused before any command runs, by its own name
    for argv in (("enumerate", "P_qmn", "2", "2", "2"), ("field", "4"), ("search-tsr", "2", "2", "3")):
        for value in ("-1", "-3"):
            code, out, err = run_cli(capsys, "--guard-bits", value, *argv)
            assert (code, out) == (2, ""), argv
            assert err == f"bad arguments: --guard-bits {value} must be an integer >= 0\n"
            assert os.environ[ENV_VAR] == "24"
    for value in ("-3", "abc"):
        monkeypatch.setenv(ENV_VAR, value)
        code, out, err = run_cli(capsys, "enumerate", "P_qmn", "2", "2", "2")
        assert (code, out) == (2, "")
        assert err == f"bad arguments: TSRFORGE_GUARD_BITS = '{value}' must be an integer >= 0\n"


def test_bad_guard_variable_is_refused_before_any_command_runs(capsys, monkeypatch):
    # field 4 reads no guard, yet the variable is checked once, up front
    for value in ("-3", "abc", "+3"):
        monkeypatch.setenv(ENV_VAR, value)
        for argv in (("field", "4"), ("bound", "2", "2", "2"), ("count-r",)):
            code, out, err = run_cli(capsys, *argv)
            assert (code, out) == (2, ""), argv
            assert err == f"bad arguments: TSRFORGE_GUARD_BITS = '{value}' must be an integer >= 0\n"
        # --guard-bits overrides the variable for its call, and the bad value is back after it
        code, out, _ = run_cli(capsys, "--guard-bits", "24", "field", "4")
        assert code == 0 and json_lines(out)[0]["order"] == 4
        assert os.environ[ENV_VAR] == value
        code, _, err = run_cli(capsys, "--guard-bits", "-1", "field", "4")
        assert (code, err) == (2, "bad arguments: --guard-bits -1 must be an integer >= 0\n")


def test_enumerate_closed_forms_refuse_bad_arguments(capsys):
    for argv, name in ((("lfsr_prim", "2"), "requires the register length n"),
                       (("lfsr_prim", "6", "4"), "6 is not a prime power"),
                       (("lfsr_prim", "6", "1", "4"), "6 is not a prime power"),
                       (("gl_order", "2", "0"), "m = 0"),
                       (("sigma_prim", "2", "2"), "requires the register length n"),
                       (("tsr_order1", "2"), "requires the block size m"),
                       (("tsr_m1", "2", "1", "0"), "n = 0")):
        code, out, err = run_cli(capsys, "enumerate", *argv)
        assert code == 2
        assert out == ""
        assert "bad arguments" in err and name in err


# one process, many calls: the parser is built once and reused
_REPEATED = (["test-primitive", "2", "x^4 + x + 1"], ["--guard-bits", "9", "count-r"],
             ["count-r"], ["frobnicate"], ["search-tsr", "2", "2", "3"],
             ["--guard-bits", "3", "enumerate", "P_qmn", "2", "4", "3"],
             ["enumerate", "P_qmn", "2", "2", "2"], ["test-primitive", "2", "x^2 + 1"],
             ["field", "9"], ["search-tsr", "2", "2"])


def test_repeated_main_calls_match_fresh_processes(capsys, monkeypatch):
    import subprocess
    import sys

    monkeypatch.delenv(ENV_VAR, raising=False)
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
    fresh = [subprocess.run([sys.executable, "-m", "tsrforge.cli", *argv], env=env,
                            capture_output=True, text=True, timeout=120) for argv in _REPEATED]
    for argv, res in list(zip(_REPEATED, fresh)) * 2:
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # a usage error, from argparse
            code = exc.code
        out, err = capsys.readouterr()
        assert (code, out, err) == (res.returncode, res.stdout, res.stderr), argv
        assert ENV_VAR not in os.environ


_CAPPED = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (1 << 29, 1 << 29))
from tsrforge import cli
raise SystemExit(cli.main(sys.argv[1:]))
"""
_R_TABLE = "# table r_table\nm,r,P2m2\n2,1,2\n3,1,3\n4,1,4\n5,2,10\n6,3,18\n7,6,42\n8,7,56\n9,16,144\n10,25,250\n"
# guard bit counts past any int that could be built: 2^63 - 1 and 10^20
_HUGE_GUARD_BITS = ("9223372036854775807", "99999999999999999999")
# inputs that such a guard passes and 512 MB cannot hold: a 2^99999999998 tap space, a degree-99999999999 list
_PAST_MEMORY = (["search-tsr", "2", "2", "99999999999"], ["test-primitive", "2", "x^99999999999"])
_OUT_OF_MEMORY = "out of memory: memory ran out under a raised guard\n"


def _run_capped(argv, guard_env=None):
    """cli.main(argv) in a child under a 512 MB address-space cap, with TSRFORGE_GUARD_BITS = guard_env."""
    import subprocess
    import sys

    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
    env.pop(ENV_VAR, None)
    if guard_env is not None:
        env[ENV_VAR] = guard_env
    return subprocess.run([sys.executable, "-c", _CAPPED, *argv], env=env,
                          capture_output=True, text=True, timeout=60)


@pytest.mark.parametrize("argv, code, stream, text", [
    (["test-primitive", "2", "x^99999999999"], 2, "stderr",
     "guard violation: polynomial degree of 99999999999 exceeds the 2^22 guard\n"),
    # a^N is the power of the modulus root: a^99999999999 = a^0 = 1 in F_4
    (["test-primitive", "4", "x^2+x+a^99999999999"], 1, "stdout",
     '{"certificate": null, "field_order": 4, "poly": "x^2 + x + 1", "primitive": false}\n'),
    # digit strings past int()'s 4300-digit limit: the degree is refused by its
    # digit count, and a^N is read as N mod (q - 1) (10^5000 - 1 = 0 mod 3)
    (["test-primitive", "2", "x^" + "9" * 5000 + "+1"], 2, "stderr",
     "guard violation: polynomial degree of a 5000-digit number exceeds the 2^22 guard\n"),
    (["test-primitive", "4", "x+a^" + "9" * 5000], 1, "stdout",
     '{"certificate": null, "field_order": 4, "poly": "x + 1", "primitive": false}\n'),
    # a power q^e whose bit length alone passes the guard and 2^24 bits is refused untaken
    (["search-tsr", "2", "2", "99999999999"], 2, "stderr",
     "guard violation: tap space of 2^99999999999 exceeds the 2^24 guard\n"),
    (["search-tsr", "2", "99999999999", "1"], 2, "stderr",
     "guard violation: block field of 2^99999999999 exceeds the 2^24 guard\n"),
    (["enumerate", "P_mnq", "2", "99999999999", "3"], 2, "stderr",
     "guard violation: coefficient field of 2^99999999999 exceeds the 2^24 guard\n"),
    (["enumerate", "tsrp", "2", "2", "99999999999"], 2, "stderr",
     "guard violation: candidate space of 2^99999999998 exceeds the 2^22 guard\n"),
    # a smaller one is still taken, and refused by its size as before
    (["search-tsr", "2", "2", "20000"], 2, "stderr",
     "guard violation: tap space of a 20001-bit number exceeds the 2^24 guard\n"),
    # q^n - 1 past int-to-str conversion's 4300 digits, named by its bit length
    (["enumerate", "P_mnq", "2", "20000", "1"], 2, "stderr",
     "scale limit: a 20000-bit number exceeds the 2^64 factorization bound\n"),
    (["bound", "2", "99999", "99999"], 2, "stderr",
     "scale limit: a 99999-bit number exceeds the 2^64 factorization bound\n"),
    (["enumerate", "lfsr_prim", "2", "1", "99999999"], 2, "stderr",
     "scale limit: a 99999999-bit number exceeds the 2^64 factorization bound\n"),
    # the register census refuses GL_m(q) by m^2 log2 q - 2 before taking its order
    (["enumerate", "tsrp", "2", "3000", "1"], 2, "stderr",
     "guard violation: matrix group GL_3000(2) of more than 2^8999998 elements exceeds the 2^22 guard\n"),
    (["enumerate", "tsrp", "2", "99999999999", "2"], 2, "stderr",
     "guard violation: matrix group GL_99999999999(2) of more than 2^9999999999799999999999 elements "
     "exceeds the 2^22 guard\n"),
    # closed-form counts past int-to-str conversion's 4300 digits, named by kind and bit size;
    # one on |GL_m(q)| is refused before that order is taken when m^2 log2 q - 2 passes that limit
    pytest.param(["enumerate", "gl_order", "2", "119", "1"], 0, "stdout",
                 '{"count": %d, "kind": "gl_order", "m": 119, "n": 1, "q": 2}\n'
                 % math.prod(2 ** 119 - 2 ** i for i in range(119)), id="gl_order-2-119-1-prints"),
    (["enumerate", "gl_order", "2", "120", "1"], 2, "stderr",
     "guard violation: gl_order count over GL_120(2) of more than 2^14398 elements "
     "exceeds the 4300-digit limit of int-to-str conversion\n"),
    (["enumerate", "gl_order", "3", "110", "1"], 2, "stderr",
     "guard violation: gl_order count of a 19178-bit number exceeds the 4300-digit limit of int-to-str conversion\n"),
    (["enumerate", "gl_order", "2", "3000", "1"], 2, "stderr",
     "guard violation: gl_order count over GL_3000(2) of more than 2^8999998 elements "
     "exceeds the 4300-digit limit of int-to-str conversion\n"),
    (["enumerate", "gl_order", "2", "99999999999", "1"], 2, "stderr",
     "guard violation: gl_order count over GL_99999999999(2) of more than 2^9999999999799999999999 elements "
     "exceeds the 4300-digit limit of int-to-str conversion\n"),
    # the factorization refusal of phi(2^3000 - 1) comes before |GL_3000(2)| is taken
    pytest.param(["enumerate", "tsr_order1", "2", "3000", "1"], 2, "stderr",
                 "scale limit: %d exceeds the 2^64 factorization bound\n" % (2 ** 3000 - 1),
                 id="tsr_order1-2-3000-1-factorization-first"),
    # q^k - 1 past 2^24 bits is refused untaken: by its bit length over a power of two, else as q^k - 1
    (["enumerate", "lfsr_prim", "2", "1", "99999999999"], 2, "stderr",
     "scale limit: a 99999999999-bit number exceeds the 2^64 factorization bound\n"),
    (["enumerate", "tsr_m1", "2", "1", "99999999999"], 2, "stderr",
     "scale limit: a 99999999999-bit number exceeds the 2^64 factorization bound\n"),
    (["enumerate", "sigma_prim", "2", "2", "99999999999"], 2, "stderr",
     "scale limit: a 199999999998-bit number exceeds the 2^64 factorization bound\n"),
    (["enumerate", "tsr_order1", "2", "99999999999"], 2, "stderr",
     "scale limit: a 99999999999-bit number exceeds the 2^64 factorization bound\n"),
    (["bound", "2", "99999999999", "1"], 2, "stderr",
     "scale limit: a 99999999999-bit number exceeds the 2^64 factorization bound\n"),
    (["enumerate", "lfsr_prim", "3", "1", "99999999"], 2, "stderr",
     "scale limit: 3^99999999 - 1 exceeds the 2^64 factorization bound\n"),
    # a power in a count or bound past 2^24 bits is refused untaken by the digit limit it would pass
    (["enumerate", "lfsr_irr", "2", "1", "99999999999"], 2, "stderr",
     "guard violation: lfsr_irr count term of 2^99999999999 exceeds the 4300-digit limit of int-to-str conversion\n"),
    (["enumerate", "sigma_irr", "2", "2", "99999999999"], 2, "stderr",
     "guard violation: sigma_irr count term of 2^199999999998 exceeds the 4300-digit limit of int-to-str conversion\n"),
    (["enumerate", "sigma_irr", "3", "2", "9999999"], 2, "stderr",
     "guard violation: sigma_irr count term of 3^19999998 exceeds the 4300-digit limit of int-to-str conversion\n"),
    (["enumerate", "sigma_irr", "2", "119", "140000"], 2, "stderr",
     "guard violation: sigma_irr count term of 2^1965865958 exceeds the 4300-digit limit of int-to-str conversion\n"),
    (["bound", "3", "1", "99999999999"], 2, "stderr",
     "guard violation: tsrp_upper_bound over a tap space of 3^99999999998 exceeds the 4300-digit limit "
     "of int-to-str conversion\n"),
    (["bound", "2", "2", "99999999999"], 2, "stderr",
     "guard violation: tsrp_upper_bound over a tap space of 2^99999999998 exceeds the 4300-digit limit "
     "of int-to-str conversion\n"),
    # a bound too long to print is named by its bit length
    (["bound", "2", "2", "20000"], 2, "stderr",
     "guard violation: tsrp_upper_bound of a 20000-bit number exceeds the 4300-digit limit of int-to-str conversion\n"),
    # a guard is compared by its bit count, never built: 2^(2^63 - 1) was a MemoryError, 2^(10^20) an OverflowError
    *[pytest.param(["--guard-bits", bits, "count-r"], 0, "stdout", _R_TABLE, id=f"guard-bits-{bits}-count-r")
      for bits in _HUGE_GUARD_BITS],
    # a guard raised past what memory holds lets the work start; the MemoryError is named
    *[pytest.param(["--guard-bits", _HUGE_GUARD_BITS[1], *argv], 2, "stderr", _OUT_OF_MEMORY,
                   id=f"guard-bits-{_HUGE_GUARD_BITS[1]}-{argv[0]}-out-of-memory") for argv in _PAST_MEMORY],
])
def test_huge_exponents_are_settled_without_allocating(argv, code, stream, text):
    # a child under a 512 MB address-space cap and a time limit: before the degree
    # guard, a^N by a power and the guarded powers q^e, each ended in a MemoryError traceback
    res = _run_capped(argv)
    assert res.returncode == code and getattr(res, stream) == text, res.stderr
    assert "Traceback" not in res.stderr


@pytest.mark.parametrize("argv", _PAST_MEMORY)
def test_memory_past_a_raised_guard_in_the_environment_is_named(argv):
    res = _run_capped(argv, _HUGE_GUARD_BITS[1])
    assert (res.returncode, res.stdout, res.stderr) == (2, "", _OUT_OF_MEMORY)


@pytest.mark.parametrize("bits", _HUGE_GUARD_BITS)
@pytest.mark.parametrize("argv", [["count-r"], ["search-tsr", "2", "3", "5"]])
def test_huge_guard_bits_in_the_environment_change_no_output(argv, bits):
    # TSRFORGE_GUARD_BITS takes the same rule as --guard-bits: the default-guard answer, no traceback
    default, res = _run_capped(argv), _run_capped(argv, bits)
    assert (default.returncode, res.returncode, res.stderr) == (0, 0, ""), res.stderr
    assert res.stdout == default.stdout and default.stdout


def test_long_constants_and_multipliers_are_read_mod_p(capsys):
    # 1...1 (5000 ones) = 2 and 2 * 10^5000 = 2 mod 3; 3...3 (4301 threes) = 1 mod 2 in F_4
    code, out, err = run_cli(capsys, "test-primitive", "3", "x^2+" + "1" * 5000 + "x+2" + "0" * 5000)
    assert (code, err) == (0, "") and json_lines(out)[0]["poly"] == "x^2 + 2x + 2"
    code, out, err = run_cli(capsys, "test-primitive", "4", "x^2+x+" + "3" * 4301 + "a")
    assert (code, err) == (0, "") and json_lines(out)[0]["poly"] == "x^2 + x + a"
    # a zero exponent of x as long as that is still x^0
    code, out, err = run_cli(capsys, "test-primitive", "2", "x^2+x+x^" + "0" * 5000)
    assert (code, err) == (0, "") and json_lines(out)[0]["poly"] == "x^2 + x + 1"


def test_degree_guard_moves_with_guard_bits(capsys):
    assert run_cli(capsys, "--guard-bits", "3", "test-primitive", "2", "x^9 + x + 1") == \
        (2, "", "guard violation: polynomial degree of 9 exceeds the 2^3 guard\n")
    assert run_cli(capsys, "--guard-bits", "4", "test-primitive", "2", "x^9 + x + 1")[0] in (0, 1)
