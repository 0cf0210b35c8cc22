import os

import pytest

from tsrforge.errors import ScaleExceeded
from tsrforge.guards import (ENV_VAR, check_custom, check_enumeration,
                             check_field, guard_bits)
from tsrforge.parallel import deterministic_map, first_hit


def test_deterministic_map_preserves_order():
    xs = list(range(5000))
    want = [x * x for x in xs]
    assert deterministic_map(lambda x: x * x, xs) == want
    assert deterministic_map(lambda x: x * x, []) == []


def test_first_hit_minimal_in_scan_order():
    probe = lambda i: ("hit", i) if i % 997 == 5 else None
    assert first_hit(probe, 10000) == (5, ("hit", 5))


def test_first_hit_skips_earlier_blocks_without_hits():
    # the hit sits deep in a later block; earlier blocks must not mask it
    probe = lambda i: i if i == 4321 else None
    assert first_hit(probe, 5000) == (4321, 4321)


def test_first_hit_stops_at_the_first_hit():
    calls = []

    def probe(i):
        calls.append(i)
        return i if i == 5 else None

    assert first_hit(probe, 10000) == (5, 5)
    assert len(calls) <= 6


def test_first_hit_none():
    assert first_hit(lambda i: None, 3000) is None
    assert first_hit(lambda i: None, 0) is None


def test_guard_defaults():
    os.environ.pop(ENV_VAR, None)
    assert guard_bits("enumeration") == 22
    assert guard_bits("field") == 24
    check_enumeration(1 << 22)
    with pytest.raises(ScaleExceeded):
        check_enumeration((1 << 22) + 1)
    check_field(1 << 24)
    with pytest.raises(ScaleExceeded):
        check_field((1 << 24) + 1)


def test_guard_env_override():
    os.environ[ENV_VAR] = "10"
    try:
        assert guard_bits("enumeration") == 10
        assert guard_bits("field") == 10
        with pytest.raises(ScaleExceeded):
            check_enumeration(2000)
        check_enumeration(1000)
    finally:
        os.environ.pop(ENV_VAR, None)


def test_guard_message_names_bound():
    with pytest.raises(ScaleExceeded) as info:
        check_custom(100, 5, "sample space")
    assert "2^5" in str(info.value)
    assert "sample space" in str(info.value)
    assert "100" in str(info.value)
