import dataclasses
import os
import pickle
import random
import subprocess
import sys
import textwrap
from math import lcm, prod

import pytest

import tsrforge
import tsrforge.tsr as tsr
from tsrforge.errors import DimensionMismatch, SingularB
from tsrforge.factorint import merged_factorization, multiplicative_order_from
from tsrforge.fields import FieldElement, base_digits, make_extension_field, make_field
from tsrforge.matrices import Matrix, matrix_charpoly
from tsrforge.polys import Polynomial, format_poly, parse_poly, poly_gcd
from tsrforge.primitivity import is_primitive_poly
from tsrforge.tsr import (TsrSpec, TsrState, build_transition_matrix,
                          is_primitive_tsr, mn_decompose, tap_polynomial,
                          tsr_charpoly_direct, tsr_charpoly_formula,
                          tsr_period, tsr_step)


def _derivative(f):
    """f' as a reference: coefficient i scaled by the integer i mod p."""
    return Polynomial.make(f.field, [c.scale_int(i) for i, c in enumerate(f.coeffs)][1:])


def _spec(q, m, n, c_ints, b_rows):
    field = make_field(q)
    c = tuple(field.element(v) for v in c_ints)
    B = Matrix.from_rows(field, b_rows)
    return TsrSpec(field, m, n, c, B)


def _fib_spec():
    # m=2, n=2, c_1=1, B = [[0,1],[1,1]] over F_2
    return _spec(2, 2, 2, [1], [[0, 1], [1, 1]])


def _random_spec(rng, q, m, n):
    return _random_spec_over(rng, make_field(q), m, n)


def _random_spec_over(rng, field, m, n):
    q = field.order
    from tsrforge.matrices import matrix_is_invertible
    while True:
        B = Matrix.from_rows(field, [[field.element(rng.randrange(q))
                                      for _ in range(m)] for _ in range(m)])
        if matrix_is_invertible(B):
            break
    c = tuple(field.element(rng.randrange(q)) for _ in range(n - 1))
    return TsrSpec(field, m, n, c, B)


def test_spec_validation():
    field = make_field(2)
    good_b = Matrix.from_rows(field, [[0, 1], [1, 1]])
    with pytest.raises(DimensionMismatch):
        TsrSpec(field, 2, 2, (), good_b)
    with pytest.raises(SingularB):
        TsrSpec(field, 2, 2, (field.one(),), Matrix.from_rows(field, [[1, 1], [1, 1]]))
    with pytest.raises(DimensionMismatch):
        TsrSpec(field, 3, 2, (field.one(),), good_b)


def test_tap_polynomial():
    spec = _spec(3, 2, 3, [2, 1], [[1, 0], [0, 1]])
    assert format_poly(tap_polynomial(spec)) == "x^2 + 2x + 1"


def test_transition_matrix_block_structure():
    # m=2, n=2, c_1=1, B = companion(x^2+x+1): subdiagonal identity block,
    # last block-column (B, c_1 B); states act as row vectors on the right
    spec = _fib_spec()
    T = build_transition_matrix(spec)
    assert [[e.int_value for e in T.row(i)] for i in range(4)] == [
        [0, 0, 0, 1],
        [0, 0, 1, 1],
        [1, 0, 0, 1],
        [0, 1, 1, 1],
    ]
    assert format_poly(matrix_charpoly(T)) == "x^4 + x^3 + 1"


def test_transition_matrix_degenerate_n1():
    spec = _spec(3, 2, 1, [], [[1, 2], [1, 1]])
    assert build_transition_matrix(spec) == spec.B


def test_transition_matrix_m1_fibonacci():
    spec = _spec(2, 1, 2, [1], [[1]])
    assert [[e.int_value for e in build_transition_matrix(spec).row(i)]
            for i in range(2)] == [[0, 1], [1, 1]]


def _row_times(vec, T):
    field = T.field
    out = []
    for t in range(T.cols):
        acc = field.zero()
        for r in range(T.rows):
            acc = acc + vec[r] * T.at(r, t)
        out.append(acc)
    return tuple(out)


def test_step_agrees_with_transition_matrix():
    rng = random.Random(67)
    for q, m, n in ((2, 2, 2), (2, 2, 3), (3, 2, 2), (3, 1, 3), (2, 3, 2)):
        spec = _random_spec(rng, q, m, n)
        T = build_transition_matrix(spec)
        state = TsrState.from_ints(spec, [rng.randrange(q) for _ in range(m * n)])
        vec = state.flatten()
        for _ in range(8):
            state = tsr_step(spec, state)
            vec = _row_times(vec, T)
            assert state.flatten() == vec
        assert state.step_index == 8


DIFFERENTIAL_FIELDS = [make_field(q) for q in (2, 3, 4, 9, 25)] + [
    make_extension_field(2, 4, modulus=(1, 1, 1, 1, 1)),  # irreducible, X of order 5
    make_field(2 ** 17),  # above the exp/log table bound
    make_field(65537),  # prime field above 2^16
]
FIELD_IDS = ("F2", "F3", "F4", "F9", "F25", "F16_x_of_order_5", "F2^17", "F65537")


@pytest.mark.parametrize("field", DIFFERENTIAL_FIELDS, ids=FIELD_IDS)
def test_step_matches_field_element_row_times_matrix(field):
    # _row_times multiplies with FieldElement * and +, outside the int kernel
    rng = random.Random(field.order)
    max_m = 3 if field.order <= 1 << 16 else 1
    for m in range(1, max_m + 1):
        for n in range(1, 4):
            spec = _random_spec_over(rng, field, m, n)
            T = build_transition_matrix(spec)
            state = TsrState.from_ints(spec, [rng.randrange(field.order) for _ in range(m * n)])
            vec = state.flatten()
            for _ in range(4):
                state = tsr_step(spec, state)
                vec = _row_times(vec, T)
                assert state.flatten() == vec


def test_step_refuses_state_over_another_field():
    # same order, different modulus; the foreign entry sits in a block whose tap is zero
    spec = _spec(16, 1, 2, [0], [[3]])
    other = make_extension_field(2, 4, modulus=(1, 1, 1, 1, 1))
    state = TsrState(((spec.field.one(),), (FieldElement(other, 1),)))
    with pytest.raises(ValueError, match="elements belong to different fields"):
        tsr_step(spec, state)


def test_hand_built_state_refusals():
    spec = _spec(16, 2, 2, [1], [[0, 1], [1, 1]])
    field = spec.field
    other = make_extension_field(2, 4, modulus=(1, 1, 1, 1, 1))
    refusals = [
        (TsrState(((1, 16), (0, 0))), ValueError, r"encoding 16 is outside GF\(16\)"),
        (TsrState(((1, 0),)), DimensionMismatch, "state shape does not match the spec"),
        (TsrState(((1, 0, 0), (0, 0, 0))), DimensionMismatch, "state shape does not match the spec"),
        # a state that carries the spec's field is checked for shape only
        (TsrState(((1, 0),), 0, field), DimensionMismatch, "state shape does not match the spec"),
        (TsrState(((1,), (0,)), 0, field), DimensionMismatch, "state shape does not match the spec"),
        (TsrState(((FieldElement(other, 1), FieldElement(other, 0)),
                   (FieldElement(other, 0), FieldElement(other, 0)))),
         ValueError, "elements belong to different fields"),
        (TsrState(((field.one(), FieldElement(other, 1)), (field.zero(), field.zero()))),
         ValueError, "elements belong to different fields"),
    ]
    for state, error, message in refusals:
        with pytest.raises(error, match=message):
            tsr_step(spec, state)
    with pytest.raises(DimensionMismatch, match=r"state needs m\*n entries"):
        TsrState.from_ints(spec, [1, 2, 3])


def test_a_state_built_with_a_field_refuses_blocks_of_different_widths():
    # over F_2 with m = n = 2 this state used to step to ((1,), (0, 0)) without a word
    spec = _spec(2, 2, 2, [1], [[0, 1], [1, 1]])
    with pytest.raises(DimensionMismatch, match="state blocks differ in width"):
        tsr_step(spec, TsrState(((1, 0), (1,)), 0, spec.field))
    with pytest.raises(DimensionMismatch, match="state blocks differ in width"):
        TsrState(((1,), (1, 0)), 3, spec.field)


def test_hand_built_states_step_like_from_ints():
    spec = _spec(16, 2, 2, [7], [[0, 1], [1, 1]])
    rows = ((1, 2), (3, 15))
    by_ints = TsrState.from_ints(spec, [v for row in rows for v in row])
    by_elements = TsrState(tuple(tuple(spec.field.element(v) for v in row) for row in rows))
    assert by_elements.blocks == by_ints.blocks == rows
    assert by_elements.field is spec.field
    stepped = tsr_step(spec, by_ints)
    assert tsr_step(spec, by_elements) == stepped
    assert tsr_step(spec, TsrState(rows)) == stepped
    assert all(type(v) is int for v in stepped.blocks[-1])


# mn <= 6 and q^(mn) <= 6561, so every state's orbit can be walked
ORBIT_CASES = [(2, 2, 3), (2, 3, 2), (2, 1, 6), (3, 2, 3), (3, 3, 2),
               (4, 2, 3), (8, 2, 2), (9, 2, 2), (9, 1, 3)]


@pytest.mark.parametrize("q, m, n", ORBIT_CASES)
def test_orbits_match_the_transition_matrix_and_the_period(q, m, n):
    # every nonzero state is stepped once: q^(mn) - 1 steps over at most q^m blocks
    # per tap, so the tap tables are hit
    spec = _random_spec(random.Random(q * 100 + m * 10 + n), q, m, n)
    T = build_transition_matrix(spec)
    seen, period = set(), 1
    for code in range(1, q ** (m * n)):
        vals = tuple(base_digits(code, q, m * n))
        if vals in seen:
            continue
        s0 = TsrState.from_ints(spec, vals)
        s, length = s0, 0
        while True:
            vec = s.flatten()
            seen.add(tuple(c.int_value for c in vec))
            s, length = tsr_step(spec, s), length + 1
            assert s.flatten() == _row_times(vec, T)
            if s.blocks == s0.blocks:
                break
        period = lcm(period, length)
    assert len(seen) == q ** (m * n) - 1
    assert period == tsr_period(spec)


def test_step_past_the_table_cap_over_f65537():
    spec = _spec(65537, 1, 2, [3], [[5]])
    T = build_transition_matrix(spec)
    state = TsrState.from_ints(spec, [1, 0])
    vec = state.flatten()
    # the sequence repeats a value about 200 times in these steps, so both tables fill
    for _ in range(tsr.TAP_TABLE_CAP + 1000):
        state, vec = tsr_step(spec, state), _row_times(vec, T)
        assert state.flatten() == vec
    _, _, decoder, tables = spec._taps
    assert [len(table) for _, table in tables] == [tsr.TAP_TABLE_CAP] * 2
    assert len(decoder) == tsr.TAP_TABLE_CAP


# (q, m, n) with q^(mn) <= 6561, blocks of 1 to 4 F_p digits
WHOLE_ORBIT_CASES = [(2, 3, 3), (2, 4, 2), (3, 2, 3), (4, 2, 2), (8, 2, 2), (9, 2, 2),
                     (16, 1, 3), (16, 2, 1), (25, 1, 2), (25, 2, 1)]


@pytest.mark.parametrize("q, m, n", WHOLE_ORBIT_CASES)
def test_every_state_of_a_whole_orbit_matches_the_transition_matrix(q, m, n):
    # a primitive register: the orbit of any nonzero state is all q^(mn) - 1 of them
    rng = random.Random(q * 1000 + m * 10 + n)
    spec = next(s for s in (_random_spec(rng, q, m, n) for _ in range(1000)) if is_primitive_tsr(s))
    T = build_transition_matrix(spec)
    s0 = TsrState.from_ints(spec, [1] + [0] * (m * n - 1))
    state, vec = s0, s0.flatten()
    for steps in range(1, q ** (m * n)):
        state, vec = tsr_step(spec, state), _row_times(vec, T)
        assert state.flatten() == vec
        assert state.step_index == steps
    assert state.blocks == s0.blocks
    _, _, decoder, tables = spec._taps
    assert all(len(table) <= q ** m for _, table in tables) and len(decoder) <= q ** m


def test_tables_and_decoder_stay_under_a_small_cap(monkeypatch):
    # past the cap every missing block and sum is computed again, over F_16 and F_9
    monkeypatch.setattr(tsr, "TAP_TABLE_CAP", 5)
    for q in (16, 9):
        spec = _random_spec(random.Random(q), q, 2, 3)
        T = build_transition_matrix(spec)
        state = TsrState.from_ints(spec, [1, 2, 0, 3, 1, 1])
        vec = state.flatten()
        for _ in range(300):
            state, vec = tsr_step(spec, state), _row_times(vec, T)
            assert state.flatten() == vec
        _, _, decoder, tables = spec._taps
        assert [len(table) for _, table in tables] == [5] * len(tables)
        assert len(decoder) == 5


@pytest.mark.parametrize("q", [2, 9, 25, 65537])
def test_hand_built_states_step_like_from_ints_over_each_field(q):
    spec = _random_spec(random.Random(q), q, 2, 3)
    field = spec.field
    values = [1, q - 1, 0, 2 % q, 0, 1]
    rows = (tuple(values[0:2]), tuple(values[2:4]), tuple(values[4:6]))
    expected = TsrState.from_ints(spec, values)
    for hand_built in (TsrState(rows), TsrState(tuple(tuple(field.element(v) for v in r) for r in rows))):
        state, reference = hand_built, expected
        for _ in range(5):
            state, reference = tsr_step(spec, state), tsr_step(spec, reference)
            assert state == reference
    other = make_field(3 if q == 2 else 2)
    with pytest.raises(ValueError, match="elements belong to different fields"):
        tsr_step(spec, TsrState(tuple(tuple(FieldElement(other, 1) for _ in r) for r in rows)))


def test_a_stepped_state_is_an_ordinary_tsr_state():
    spec = _fib_spec()
    stepped = tsr_step(spec, tsr_step(spec, TsrState.from_ints(spec, [1, 0, 0, 1])))
    built = TsrState(stepped.blocks, 2, spec.field)
    assert type(stepped) is TsrState
    assert stepped == built and hash(stepped) == hash(built) and {built: 1}[stepped] == 1
    assert repr(stepped) == repr(built)
    assert vars(stepped) == vars(built)
    assert stepped.flatten() == built.flatten()
    assert dataclasses.replace(stepped, step_index=0) == TsrState(stepped.blocks, 0, spec.field)
    with pytest.raises(dataclasses.FrozenInstanceError):
        stepped.step_index = 3
    restored = pickle.loads(pickle.dumps(stepped))
    assert restored == built and tsr_step(spec, restored) == tsr_step(spec, built)
    # a spec that has stepped pickles without its tables, and steps alike when restored
    spec_back = pickle.loads(pickle.dumps(spec))
    assert spec_back == spec and tsr_step(spec_back, built) == tsr_step(spec, built)


def test_out_of_range_encodings_are_refused():
    with pytest.raises(ValueError, match=r"encoding 5 is outside GF\(4\)"):
        TsrSpec.from_json({"q": 4, "m": 1, "n": 2, "c": [5], "B": [[3]]})
    with pytest.raises(ValueError, match=r"encoding 7 is outside GF\(4\)"):
        TsrSpec.from_json({"q": 4, "m": 1, "n": 2, "c": [1], "B": [[7]]})
    spec = _spec(4, 1, 2, [1], [[3]])
    with pytest.raises(ValueError, match=r"encoding 9 is outside GF\(4\)"):
        TsrState.from_ints(spec, [9, 1])
    with pytest.raises(ValueError, match=r"encoding -1 is outside GF\(4\)"):
        TsrState.from_ints(spec, [1, -1])
    assert TsrSpec.from_json(spec.to_json()) == spec


def test_step_fibonacci_bit_sequence():
    # s_{i+2} = s_i + s_{i+1} over F_2 from (1, 0)
    spec = _spec(2, 1, 2, [1], [[1]])
    state = TsrState.from_ints(spec, [1, 0])
    bits = [state.blocks[0][0]]
    for _ in range(7):
        state = tsr_step(spec, state)
        bits.append(state.blocks[0][0])
    assert bits == [1, 0, 1, 1, 0, 1, 1, 0]


def test_step_zero_state_stays_zero():
    spec = _fib_spec()
    state = TsrState.from_ints(spec, [0, 0, 0, 0])
    assert tsr_step(spec, state).blocks == state.blocks


def test_charpoly_formula_equals_direct_random():
    rng = random.Random(71)
    for q in (2, 3, 5):
        for m in (1, 2, 3):
            for n in (1, 2, 3):
                for _ in range(5):
                    spec = _random_spec(rng, q, m, n)
                    formula = tsr_charpoly_formula(spec)
                    assert formula == tsr_charpoly_direct(spec)
                    assert formula == matrix_charpoly(build_transition_matrix(spec))
                    assert formula.degree == m * n


def test_charpoly_m1_is_lfsr_case():
    # m=1, B=[b]: the register is a scalar LFSR with char poly X^n - b*g reversed
    spec = _spec(5, 1, 3, [2, 3], [[4]])
    chi = tsr_charpoly_formula(spec)
    assert chi.degree == 3
    assert chi.is_monic()
    # Psi_B = x - 4; formula gives X^3 g^0 (Psi0 term) ... verified against direct
    assert chi == tsr_charpoly_direct(spec)


def test_fibonacci_period():
    spec = _fib_spec()
    assert tsr_period(spec) == 15
    assert is_primitive_tsr(spec)


def test_period_known_nonprimitive():
    # identity B with trivial taps shifts cyclically: period n for B = I
    spec = _spec(2, 2, 2, [0], [[1, 0], [0, 1]])
    assert not is_primitive_tsr(spec)
    period = tsr_period(spec)
    state = TsrState.from_ints(spec, [1, 0, 0, 1])
    cur = state
    for _ in range(period):
        cur = tsr_step(spec, cur)
    assert cur.blocks == state.blocks
    assert period < 15


def test_period_with_repeated_charpoly_factor_over_f8():
    # charpoly (X^2 + X + 1)^2 is not squarefree; T = C (x) I with C of order 3
    spec = _spec(8, 2, 2, [1], [[1, 0], [0, 1]])
    assert tsr_period(spec) == 3
    assert build_transition_matrix(spec).power(3) == Matrix.identity(spec.field, 4)


def _matrix_route_period(spec):
    """Order of T by matrix powers, the exponent padded by the first p^t >= mn."""
    q, mn, p = spec.q, spec.m * spec.n, spec.field.characteristic
    factors = merged_factorization(q ** d - 1 for d in range(1, mn + 1))
    while p ** factors.get(p, 0) < mn:
        factors[p] = factors.get(p, 0) + 1
    exponent = prod(prime ** mult for prime, mult in factors.items())
    T, ident = build_transition_matrix(spec), Matrix.identity(spec.field, mn)
    assert T.power(exponent) == ident
    return multiplicative_order_from(T.power, ident, exponent, factors)


def _repeated_factor_registers():
    """Scalar and Jordan B with n = 1, 2, 3, and m = 1 with n = p, over F_2..F_9."""
    for q in (2, 3, 4, 8, 9):
        field = make_field(q)
        p = field.characteristic
        for lam in sorted({1, q - 1, (q + 1) // 2}):
            for k in (2, 3):
                for jordan in (False, True):
                    B = Matrix.from_rows(field, [[lam if i == j else int(jordan and j == i + 1)
                                                  for j in range(k)] for i in range(k)])
                    for n, c in ((1, ()), (2, (1,)), (2, (q - 1,)), (3, (0, 1))):
                        if k * n <= 6:
                            yield TsrSpec(field, k, n, tuple(field.element(v) for v in c), B)
            yield TsrSpec(field, 1, p, (field.zero(),) * (p - 1), Matrix.from_rows(field, [[lam]]))


def test_period_with_repeated_factors_matches_the_matrix_route():
    periods = []
    for spec in _repeated_factor_registers():
        psi = tsr_charpoly_formula(spec)
        assert poly_gcd(psi, _derivative(psi)).degree > 0
        period = tsr_period(spec)
        assert period == _matrix_route_period(spec)
        periods.append((spec.field.characteristic, period))
    # the p-padding is exercised in both characteristics
    assert {p for p, period in periods if period % p == 0} == {2, 3}
    # Jordan B = [[1, 1], [0, 1]]: period p over F_3 at n = 1, 2p over F_2 at n = 2, c = (1)
    assert tsr_period(_spec(3, 2, 1, [], [[1, 1], [0, 1]])) == 3
    assert tsr_period(_spec(2, 2, 2, [1], [[1, 1], [0, 1]])) == 6


def test_period_exponent_is_bounded_by_the_minimal_polynomial(monkeypatch):
    # B = I_4 over F_2 and 2 I_3 over F_3 at n = 2, c = (1): mu_T = X^2 + X + 1 has
    # degree 2, so lcm(q - 1, q^2 - 1) already annihilates X (or does after one p)
    calls = []
    modpow = tsr.poly_modpow
    monkeypatch.setattr(tsr, "poly_modpow", lambda *args: calls.append(args) or modpow(*args))
    for q, m, lam, modpows in ((2, 4, 1, 2), (3, 3, 2, 6)):
        calls.clear()
        B = [[lam if i == j else 0 for j in range(m)] for i in range(m)]
        assert tsr_period(_spec(q, m, 2, [1], B)) == 3
        assert len(calls) == modpows


def test_period_equals_orbit_walk():
    rng = random.Random(73)
    for q, m, n in ((2, 2, 2), (3, 1, 2), (2, 1, 4), (3, 2, 1)):
        spec = _random_spec(rng, q, m, n)
        declared = tsr_period(spec)
        T = build_transition_matrix(spec)
        # matrix order by brute force
        acc = T
        order = 1
        I = Matrix.identity(spec.field, m * n)
        while acc != I:
            acc = acc * T
            order += 1
        assert declared == order


def test_primitive_iff_charpoly_primitive():
    rng = random.Random(79)
    for _ in range(25):
        spec = _random_spec(rng, 2, 2, 2)
        assert is_primitive_tsr(spec) == is_primitive_poly(tsr_charpoly_formula(spec))[0]


def test_primitive_orbit_is_full():
    spec = _fib_spec()
    seen = set()
    state = TsrState.from_ints(spec, [0, 0, 0, 1])
    for _ in range(15):
        seen.add(state.blocks)
        state = tsr_step(spec, state)
    assert state.blocks in seen
    assert len(seen) == 15


@pytest.mark.parametrize("q", [2, 3, 4, 9])
def test_homogenize_matches_polynomial_arithmetic(q):
    """g^m h(X^n / g) against sum of h_k X^{nk} g^{m-k} in Polynomial arithmetic, deg h <= m."""
    field, rng = make_field(q), random.Random(q)
    for trial in range(60):
        m, n = rng.randrange(4), (1, rng.randrange(1, 5))[trial % 2]
        h = Polynomial.make(field, [rng.randrange(q) for _ in range(rng.randrange(m + 2))])
        g = Polynomial.make(field, [1] + [rng.randrange(q) for _ in range(rng.randrange(4))])
        ref = Polynomial.zero(field)
        for k, hk in enumerate(h.coeffs):
            ref = ref + g.pow(m - k).shift(n * k).scale(hk)
        assert tsr._homogenize(h, g, m, n) == ref, (h, g, m, n)


def test_mn_decompose_round_trip():
    rng = random.Random(83)
    for q, m, n in ((2, 2, 2), (2, 2, 3), (3, 2, 2), (5, 2, 3), (2, 3, 2)):
        for _ in range(8):
            spec = _random_spec(rng, q, m, n)
            chi = tsr_charpoly_formula(spec)
            if chi.constant_term.is_zero():
                continue
            dec = mn_decompose(chi, m, n)
            assert dec is not None
            assert dec.g.coeff(0) == spec.field.one()
            assert dec.h.is_monic() and dec.h.degree == m
            assert dec.recompose() == chi


def test_mn_decompose_finds_block_charpoly():
    # for the decomposition of a register charpoly, h tracks a conjugate of Psi_B
    spec = _fib_spec()
    chi = tsr_charpoly_formula(spec)
    dec = mn_decompose(chi, 2, 2)
    assert dec.g == tap_polynomial(spec)
    assert dec.h == matrix_charpoly(spec.B)


def test_mn_decompose_none_when_impossible():
    f2 = make_field(2)
    # x^4 + x^3 + x^2 + x + 1 is irreducible, so no (g, h) with m = n = 2 exists
    p = parse_poly("x^4 + x^3 + x^2 + x + 1", f2)
    assert mn_decompose(p, 2, 2) is None


def _run_optimized(code):
    """stdout of `code` run by python -O, which strips assert statements."""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(tsrforge.__file__)))
    res = subprocess.run([sys.executable, "-O", "-c", textwrap.dedent(code)], env=env,
                         capture_output=True, text=True, timeout=300)
    assert res.returncode == 0, res.stderr
    return res.stdout.strip()


def test_period_cross_check_survives_python_O():
    # the annihilation check must still raise without assert statements
    out = _run_optimized("""
        import tsrforge.tsr as tsr
        from tsrforge.errors import ExistenceViolation
        from tsrforge.fields import make_field
        from tsrforge.matrices import Matrix

        field = make_field(2)
        spec = tsr.TsrSpec(field, 2, 3, (field.one(), field.one()),
                           Matrix.from_rows(field, [[0, 1], [1, 1]]))
        tsr.poly_modpow = lambda base, e, mod: base  # a wrong power
        try:
            tsr.tsr_period(spec)
        except ExistenceViolation as exc:
            print(__debug__, exc)
    """)
    assert out == "False exponent bound must annihilate X mod psi"


def test_field_refusals_survive_python_O():
    out = _run_optimized("""
        from tsrforge.errors import DimensionMismatch
        from tsrforge.fields import FieldElement, make_extension_field, make_field
        from tsrforge.matrices import Matrix
        from tsrforge.tsr import TsrSpec, TsrState, tsr_step

        spec = TsrSpec.from_json({"q": 16, "m": 1, "n": 2, "c": [1], "B": [[1]]})
        other = make_extension_field(2, 4, modulus=(1, 1, 1, 1, 1))
        attempts = [
            lambda: Matrix.zeros(make_field(2), 2, 2) * Matrix.zeros(make_field(4), 2, 2),
            lambda: tsr_step(spec, TsrState(((FieldElement(other, 1),), (FieldElement(other, 0),)))),
            lambda: TsrState.from_ints(spec, [1, 16]),
            lambda: tsr_step(spec, TsrState(((16,), (0,)))),
            lambda: tsr_step(spec, TsrState(((spec.field.one(),), (FieldElement(other, 1),)))),
            lambda: tsr_step(spec, TsrState(((1,),), 0, spec.field)),
            lambda: TsrState.from_ints(spec, [1]),
        ]
        for attempt in attempts:
            try:
                attempt()
            except (ValueError, DimensionMismatch) as exc:
                print(__debug__, exc)
    """)
    assert out.splitlines() == ["False elements belong to different fields",
                                "False elements belong to different fields",
                                "False encoding 16 is outside GF(16)",
                                "False encoding 16 is outside GF(16)",
                                "False elements belong to different fields",
                                "False state shape does not match the spec",
                                "False state needs m*n entries"]
