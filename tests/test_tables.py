import pytest

from tsrforge.counting import UnknownKind
from tsrforge.fields import make_field
from tsrforge.polys import parse_poly, format_poly
from tsrforge.primitivity import is_primitive_element, is_primitive_poly
from tsrforge.tables import (TABLES, fiber_census, generate_table,
                             membership_report, regenerate_row, row_counts)


def test_row_counts_all_tables():
    assert row_counts("t1") == {2: 2, 3: 0, 5: 4, 7: 2, 11: 6}
    assert row_counts("t2") == {3: 3, 4: 4, 5: 10, 6: 6}
    assert row_counts("t3") == {4: 2, 5: 2, 6: 2, 7: 28}
    assert row_counts("t4") == {3: 0, 4: 24}
    assert row_counts("t5") == {2: 2, 3: 0, 5: 4, 7: 2, 11: 14, 13: 10}


def test_fiber_census_members_are_primitive():
    got = fiber_census(2, 2, (0, 1, 1, 1))
    assert [format_poly(p) for p in got] == [
        "x^3 + x^2 + x + a", "x^3 + x^2 + x + (a+1)"]
    for p in got:
        assert is_primitive_poly(p)[0]
        assert is_primitive_element(p.constant_term)
    # a shape with g(0) != 0 is outside the g(X) + lam family and is refused
    with pytest.raises(ValueError, match=r"g\(0\) = 0"):
        fiber_census(2, 2, (1, 1, 1, 1))


@pytest.mark.parametrize("table_id", ["t1", "t2", "t3", "t4", "t5"])
def test_fiber_census_tests_one_candidate_per_frobenius_orbit(table_id, monkeypatch):
    from tsrforge import counting
    from tsrforge.fields import subfield_maps
    from tsrforge.polys import Polynomial
    tested = []
    monkeypatch.setattr(counting, "is_primitive_poly", lambda f: tested.append(f) or is_primitive_poly(f))
    for key, q, ext, shapes, _ in TABLES[table_id]:
        big = make_field(q ** ext)
        base, embed, _ = subfield_maps(big, q)
        lams = [x for x in big.elements() if not x.is_zero() and is_primitive_element(x)]
        for shape in shapes:
            cands = [Polynomial.make(big, [lam] + [embed(base.element(c)) for c in shape[1:]]) for lam in lams]
            del tested[:]
            # the census equals the per-candidate filter, with one test per
            # orbit of lam -> lam^q, whose ext members share the verdict
            assert fiber_census(q, ext, shape) == [f for f in cands if is_primitive_poly(f)[0]], (key, shape)
            assert len(tested) * ext == len(cands), (key, shape)


def test_fiber_census_lambda_ascending():
    got = fiber_census(5, 2, (0, 1, 1, 1))
    encs = [p.constant_term.int_value for p in got]
    assert encs == sorted(encs)


def test_generate_table_csv_shape():
    text = generate_table("t2")
    lines = text.strip().splitlines()
    assert lines[0] == "# table t2"
    assert lines[1] == "key,count,entries"
    assert len(lines) == 6
    for line in lines[2:]:
        key, count, entries = line.split(",", 2)
        members = entries.split(";") if entries else []
        assert int(count) == len(members)
        assert line.count(",") == 2


def test_generate_table_round_trips():
    for tid in ("t1", "t2", "t3", "t4", "t5"):
        rows = {str(r[0]): r for r in TABLES[tid]}
        for line in generate_table(tid).strip().splitlines()[2:]:
            key, count, entries = line.split(",", 2)
            if not entries:
                continue
            _, q, ext, _, _ = rows[key]
            big = make_field(q ** ext)
            for text in entries.split(";"):
                assert format_poly(parse_poly(text, big)) == text


def test_generate_r_table():
    text = generate_table("r_table")
    lines = text.strip().splitlines()
    assert lines[0] == "# table r_table"
    assert lines[1] == "m,r,P2m2"
    assert lines[2:] == ["2,1,2", "3,1,3", "4,1,4", "5,2,10", "6,3,18",
                         "7,6,42", "8,7,56", "9,16,144", "10,25,250"]


def test_generate_table_unknown():
    with pytest.raises(UnknownKind):
        generate_table("t9")
    with pytest.raises(UnknownKind):
        membership_report("r_table")


def test_membership_t2_fully_accepted():
    rep = membership_report("t2")
    assert len(rep) == 23
    assert all(ok for _, _, ok, _ in rep)


def test_membership_t1_accept_pattern():
    rep = membership_report("t1")
    by_key = {}
    for key, text, ok, note in rep:
        by_key.setdefault(key, []).append((text, ok, note))
        if not ok:
            assert note == "no match under this field construction"
    assert all(ok for _, ok, _ in by_key[2])
    assert not any(ok for _, ok, _ in by_key[3])
    assert not any(ok for _, ok, _ in by_key[5])
    assert not any(ok for _, ok, _ in by_key[7])
    # five of the six degree-3 entries with no linear term re-validate
    accepted_11 = [t for t, ok, _ in by_key[11] if ok]
    rejected_11 = [t for t, ok, _ in by_key[11] if not ok]
    assert len(accepted_11) == 5
    assert rejected_11 == ["x^3 + x^2 + a+10"]


def test_membership_t3_only_quintic_texts_rejected():
    rep = membership_report("t3")
    rejected = [(k, t) for k, t, ok, _ in rep if not ok]
    assert rejected == [(5, "x^4 + x^3 + x^2 + x + a"),
                        (5, "x^4 + x^3 + x^2 + x + a+1")]
    assert sum(1 for _, _, ok, _ in rep if ok) == 32


def test_membership_never_silent():
    # every bundled entry yields exactly one verdict line
    for tid in ("t1", "t2", "t3", "t4", "t5"):
        bundled = sum(len(row[4]) for row in TABLES[tid])
        assert len(membership_report(tid)) == bundled


def test_membership_t4_duplicates_surface():
    rep = membership_report("t4")
    texts = [t for k, t, _, _ in rep if k == 4]
    assert len(texts) == 36
    # the bundled listing repeats six values; reports keep every occurrence
    assert len(set(texts)) == 28
    dupes = sorted({t for t in texts if texts.count(t) > 1})
    assert len(dupes) == 8
    # the m = 3 row is empty, so nothing re-validates
    assert not any(ok for k, _, ok, _ in rep if k == 3)


def test_membership_t5_overlap():
    rep = membership_report("t5")
    accepted = {k: [] for k, *_ in rep}
    for k, t, ok, _ in rep:
        if ok:
            accepted[k].append(t)
    assert len(accepted[2]) == 2
    assert accepted[3] == [] and accepted[5] == [] and accepted[7] == []
    assert len(accepted[11]) == 4
    assert accepted[13] == []
