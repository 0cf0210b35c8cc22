"""Order-preserving map and first-hit scan.

threads is accepted, never changes a result, and the work runs serially:
the scans are pure-Python CPU work, which threads cannot overlap.
"""


def deterministic_map(fn, items, threads: int = 1) -> list:
    """[fn(x) for x in items]."""
    return [fn(x) for x in items]


def first_hit(probe, total: int, threads: int = 1):
    """(index, value) for the least index where probe(i) is not None, else None."""
    for i in range(total):
        v = probe(i)
        if v is not None:
            return i, v
    return None
