"""Command-line behaviour: exit codes, JSON shape, determinism."""

import json
import os

import pytest

from tsrforge import cli
from tsrforge.fields import make_field
from tsrforge.guards import ENV_VAR
from tsrforge.polys import format_poly, parse_poly
from tsrforge.primitivity import is_primitive_poly
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


def test_search_tsr_budget_exhaustion_exits_3(capsys):
    code, _, err = run_cli(capsys, "search-tsr", "3", "3", "2",
                           "--allow-even-n", "--budget", "5")
    assert code == 3
    assert "budget exhausted" in err


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
    code, _, err = run_cli(capsys, "search-tsr", "3", "2", "2")
    assert code == 2
    assert "bad arguments" in err


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
    code, out, err = run_cli(capsys, "--guard-bits", "16", "count-r")
    assert code == 2
    assert out == ""
    assert err == "guard violation: coset exponent space of 262143 exceeds the 2^16 guard\n"


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
