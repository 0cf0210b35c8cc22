"""Tests of the benchmark itself (not of tsrforge).

    PYTHONPATH=src python3 -m pytest perfbench/test_perfbench.py -q
"""

import copy
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import oracle  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

WORKLOADS = sorted(workloads.WORKLOADS)
MIXES = [mix for w in WORKLOADS for mix in workloads.WORKLOADS[w]]
TSRFORGE = run.import_program()


def plan(workload, seed, rounds=2):
    expected = workloads.load_expected(workload)
    return [workloads.plan_round(workload, seed, r, expected, 2) for r in range(rounds)]


def plan_mix(mix, seed):
    """The requests of one mix in the first round of its workload."""
    workload = next(w for w, mixes in workloads.WORKLOADS.items() if mix in mixes)
    return [r for r in plan(workload, seed, 1)[0] if r["mix"] == mix]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_same_requests(workload):
    assert plan(workload, 7) == plan(workload, 7)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_other_seed_other_requests_from_the_same_slots(workload):
    a, b = plan(workload, 7), plan(workload, 8)
    assert a != b
    for ra, rb in zip(a, b):
        # one request per slot in every round, whatever the seed
        assert sorted((r["mix"], r["slot"]) for r in ra) == sorted(
            (r["mix"], r["slot"]) for r in rb)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_rounds_mix_their_parts(workload):
    mixes = [r["mix"] for r in plan(workload, 3, 1)[0]]
    assert set(mixes) == set(workloads.WORKLOADS[workload])
    # shuffled together, not one mix after the other
    assert mixes != sorted(mixes, key=workloads.WORKLOADS[workload].index)


def test_scan_and_census_rounds_are_permutations_of_their_pools():
    for mix in ("scan", "census"):
        a, b = plan_mix(mix, 1), plan_mix(mix, 2)
        assert sorted(r["argv"][2:] for r in a) == sorted(r["argv"][2:] for r in b)


def test_benchmark_json_names_the_printed_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def test_hd_quantile_is_a_weighted_order_statistic():
    assert run.beta_cdf(2, 3, 0.4) == pytest.approx(0.5248)
    assert run.hd_quantile([7.5] * 30, 0.8) == pytest.approx(7.5)
    sample = [1.0, 2.0, 3.0, 4.0, 10.0]
    # symmetric weights: the median estimate sits between the middle values
    assert 2.0 < run.hd_quantile(sample, 0.5) < 4.0
    assert run.hd_quantile(sample, 0.2) < run.hd_quantile(sample, 0.5) < run.hd_quantile(
        sample, 0.8)
    # one wild sample far from the quantile barely moves it
    spread = [float(v) for v in range(1, 82)]
    assert run.hd_quantile(spread, 0.5) == pytest.approx(41.0)
    assert run.hd_quantile(spread[:-1] + [1e6], 0.5) == pytest.approx(41.0, rel=1e-6)


def test_certify_known_answers_agree_with_the_oracle():
    for req in plan_mix("certify", 3):
        exp = req["expect"]
        if exp["degree"] > 40:
            continue  # keep the test quick; make_expected.py checks every pool
        F = oracle.GF(exp["q"])
        f = parse_with_oracle(exp["q"], exp["poly"])
        assert oracle.is_primitive(F, f) == exp["primitive"], req["id"]


def parse_with_oracle(q, text):
    """Coefficients of tsrforge's canonical text, found by matching oracle.poly_text."""
    f = TSRFORGE.parse_poly(text, TSRFORGE.make_field(q))
    coeffs = [c.int_value for c in f.coeffs]
    assert oracle.poly_text(q, coeffs) == text
    return coeffs


def test_census_answers_obey_the_fibration_theorem():
    expected = workloads.load_expected("count")["census"]
    assert workloads.fibration_count(3, 2, expected["special"]["3,2,3"]) == 36
    for req in plan_mix("census", 1):
        if req["argv"][:2] == ["enumerate", "tsrp"]:
            q, m, n = (int(v) for v in req["argv"][2:5])
            key = f"{q},{m},{n}"
            assert req["expect"]["count"] == workloads.fibration_count(
                q, m, expected["special"][key])


def test_oracle_moduli_match_the_program_fields():
    for q, (p, mod) in oracle.MODULI.items():
        field = TSRFORGE.make_field(q)
        assert field.modulus_coeffs == mod


def cheap_requests(mix, count=3):
    """The quickest requests of a mix in one round, to keep the tests short."""
    reqs = plan_mix(mix, 5)
    cost = {
        "scan": lambda r: int(r["argv"][2]) * int(r["argv"][3]),
        "census": lambda r: r["id"].startswith("census tsrp 2,2,"),
        "certify": lambda r: r["expect"]["degree"] * (r["expect"]["q"] > 2),
        "walk": lambda r: r["walk"]["q"] ** (r["walk"]["m"] * r["walk"]["n"]),
    }[mix]
    if mix == "census":
        return [r for r in reqs if cost(r)][:count]
    return sorted(reqs, key=cost)[:count]


@pytest.mark.parametrize("mix", MIXES)
def test_traced_and_untraced_outputs_are_byte_identical(mix):
    reqs = cheap_requests(mix)
    plain = [run.execute(TSRFORGE, r) for r in reqs]
    t = tracer.Tracer()
    with t:
        traced = [run.execute(TSRFORGE, r) for r in reqs]
    assert traced == plain
    assert t.spans
    for req, res in zip(reqs, plain):
        assert workloads.check(req, res) is None, req["id"]
    # uninstall restored every original function
    assert TSRFORGE.tsr_period is TSRFORGE.tsr.tsr_period
    assert not hasattr(TSRFORGE.poly_modpow, "__wrapped__")


def corruptions(mix, res):
    """Wrong answers a check must reject."""
    out = res["stdout"]
    yield dict(res, code=1 if res["code"] == 0 else 0)
    yield dict(res, traceback="Traceback (most recent call last):\nAssertionError\n")
    if mix == "walk":
        doc = json.loads(out)
        yield dict(res, stdout=json.dumps(dict(doc, period=doc["period"] * 2)))
        yield dict(res, stdout=json.dumps(dict(doc, orbit=doc["orbit"] + 1)))
        return
    digit = next(i for i, ch in enumerate(out) if ch.isdigit())
    yield dict(res, stdout=out[:digit] + str((int(out[digit]) + 1) % 10) + out[digit + 1:])
    yield dict(res, stdout=out.replace("true", "false") if "true" in out else out + "x")


@pytest.mark.parametrize("mix", MIXES)
def test_each_check_rejects_a_corrupted_answer(mix):
    for req in cheap_requests(mix, 2):
        res = run.execute(TSRFORGE, req)
        assert workloads.check(req, res) is None
        for bad in corruptions(mix, copy.deepcopy(res)):
            assert workloads.check(req, bad) is not None, (req["id"], bad)


def test_certify_primitive_check_rejects_a_wrong_certificate():
    req = next(r for r in plan_mix("certify", 2) if r["slot"].startswith("tri_")
               and r["expect"]["degree"] < 32)
    res = run.execute(TSRFORGE, req)
    doc = json.loads(res["stdout"])
    doc["certificate"]["factors"] = doc["certificate"]["factors"][1:]
    assert workloads.check(req, dict(res, stdout=json.dumps(doc))) is not None


def test_over_bound_requests_pass_only_with_a_verdict_or_a_named_refusal():
    req = workloads.known_defect_requests(workloads.load_expected("construct"))[0]
    assert req["slot"] == "over_bound"
    refusal = {"code": 2, "stdout": "", "stderr": "guard violation: exceeds the 2^64 bound",
               "traceback": None}
    assert workloads.check(req, refusal) is None
    today = {"code": 1, "stdout": "", "stderr": "verification failure: exceeds the bound",
             "traceback": None}
    assert workloads.check(req, today) is not None


def run_bench(*args, cwd, env=None):
    return subprocess.run([sys.executable, str(cwd / "perfbench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170, env=env)


def test_guard_variable_stops_the_run_without_a_result():
    env = dict(os.environ, **{workloads.GUARD_ENV: "30"})
    done = run_bench("--workload", "construct", "--seed", "1", "--seconds", "1", cwd=HERE.parent,
                     env=env)
    assert done.returncode != 0 and '"metrics"' not in done.stdout


def test_without_the_program_sources_the_run_fails_without_a_result():
    # a checkout holding only the benchmark, inside the gitignored .perfbench/
    bare = HERE.parent / ".perfbench" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(HERE.parent / "BENCHMARK.json", bare / "BENCHMARK.json")
        done = run_bench("--workload", "count", "--seed", "1", "--seconds", "1", cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert done.returncode != 0 and '"metrics"' not in done.stdout
