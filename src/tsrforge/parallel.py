"""Order-preserving map and first-hit scan, both serial: the scans are
pure-Python CPU work, which threads cannot overlap."""


def deterministic_map(fn, items) -> list:
    """[fn(x) for x in items]."""
    return [fn(x) for x in items]


def first_hit(probe, total: int):
    """(index, value) for the least index where probe(i) is not None, else None."""
    for i in range(total):
        v = probe(i)
        if v is not None:
            return i, v
    return None
