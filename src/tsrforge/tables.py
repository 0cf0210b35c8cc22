"""Bundled reference tables and their regeneration.

Each table row fixes a base field F_q, an extension F_{q^m}, and one or more
tap shapes g (monic over F_q, g(0) = 0); the regenerated row is the census of
primitive g(X) + lam over F_{q^m} with lam primitive, lam ascending within
each shape.  The bundled entry texts are re-parsed under our field
construction and checked against the regenerated census; entries that do not
match are reported, never dropped.  Row entry names depend on the generator
choice, so a non-member entry may reflect a different generator rather than
an arithmetic disagreement; counts do not depend on the generator.
"""

from .cosets import count_trace_one_classes
from .counting import _fiber, _orbit_flags
from .errors import TsrforgeError, UnknownKind
from .fields import _subfield_ints, make_field
from .polys import Polynomial, format_poly, parse_poly
from .primitivity import primitive_elements

# shapes, little-endian over F_q
_CUBIC_111 = (0, 1, 1, 1)        # x^3 + x^2 + x
_CUBIC_110 = (0, 0, 1, 1)        # x^3 + x^2
_CUBIC_101 = (0, 1, 0, 1)        # x^3 + x

# row records: (key, q, extension_degree, shapes, bundled entry texts)
_T1 = (
    (2, 2, 2, (_CUBIC_111,), ("x^3 + x^2 + x + a", "x^3 + x^2 + x + a+1")),
    (3, 3, 2, (_CUBIC_111,), ("x^3 + x^2 + x + a", "x^3 + x^2 + x + 2a+1")),
    (5, 5, 2, (_CUBIC_111,), ("x^3 + x^2 + x + 3a", "x^3 + x^2 + x + 2a+3")),
    (7, 7, 2, (_CUBIC_111,), ("x^3 + x^2 + x + 3a+1", "x^3 + x^2 + x + 3a+3",
                              "x^3 + x^2 + x + 4a+4", "x^3 + x^2 + x + 4a+6")),
    (11, 11, 2, (_CUBIC_110,), ("x^3 + x^2 + 7a+1", "x^3 + x^2 + a+10",
                                "x^3 + x^2 + a+7", "x^3 + x^2 + 4a+7",
                                "x^3 + x^2 + 3a", "x^3 + x^2 + 8a+1")),
)

_T2 = (
    (3, 2, 3, (_CUBIC_110,), ("x^3 + x^2 + a", "x^3 + x^2 + a^2", "x^3 + x^2 + a^2+a")),
    (4, 2, 4, (_CUBIC_110,), ("x^3 + x^2 + a^3+a+1", "x^3 + x^2 + a^3+a^2+a",
                              "x^3 + x^2 + a^3+a^2+1", "x^3 + x^2 + a^3+1")),
    (5, 2, 5, (_CUBIC_110,), ("x^3 + x^2 + a^4+a^2", "x^3 + x^2 + a^2+a+1",
                              "x^3 + x^2 + a^4+a^3+a^2", "x^3 + x^2 + a^4+a^3+a^2+1",
                              "x^3 + x^2 + a^2+a", "x^3 + x^2 + a^4+a^3",
                              "x^3 + x^2 + a^4+a^2+1", "x^3 + x^2 + a^4+a^3+1",
                              "x^3 + x^2 + a^4+a^2+a+1", "x^3 + x^2 + a^4+a^2+a")),
    (6, 2, 6, (_CUBIC_110,), ("x^3 + x^2 + a^4+a^3+1", "x^3 + x^2 + a^5+a^4+a^3+a",
                              "x^3 + x^2 + a^5+a^3+a^2", "x^3 + x^2 + a^4+a^3",
                              "x^3 + x^2 + a^5+a^4+a^3+a+1", "x^3 + x^2 + a^5+a^3+a^2+1")),
)

# the n=5 row lists degree-4 texts; the regenerated census uses the degree
# the row declares, so those texts are surfaced by the membership report
_T3 = (
    (4, 2, 2, ((0, 0, 1, 1, 1),), ("x^4 + x^3 + x^2 + a", "x^4 + x^3 + x^2 + a+1")),
    (5, 2, 2, ((0, 1, 1, 1, 1, 1),), ("x^4 + x^3 + x^2 + x + a", "x^4 + x^3 + x^2 + x + a+1")),
    (6, 2, 2, ((0, 1, 0, 0, 0, 1, 1),), ("x^6 + x^5 + x + a", "x^6 + x^5 + x + a+1")),
    (7, 2, 2, (
        (0, 0, 0, 0, 0, 1, 1, 1),       # x^7+x^6+x^5
        (0, 0, 0, 0, 1, 0, 1, 1),       # x^7+x^6+x^4
        (0, 0, 0, 1, 1, 0, 0, 1),       # x^7+x^4+x^3
        (0, 0, 0, 1, 1, 0, 1, 1),       # x^7+x^6+x^4+x^3
        (0, 0, 1, 0, 0, 0, 1, 1),       # x^7+x^6+x^2
        (0, 0, 1, 0, 1, 1, 0, 1),       # x^7+x^5+x^4+x^2
        (0, 0, 1, 1, 1, 1, 1, 1),       # x^7+x^6+x^5+x^4+x^3+x^2
        (0, 1, 0, 0, 1, 1, 0, 1),       # x^7+x^5+x^4+x
        (0, 1, 0, 0, 1, 1, 1, 1),       # x^7+x^6+x^5+x^4+x
        (0, 1, 0, 1, 0, 0, 0, 1),       # x^7+x^3+x
        (0, 1, 0, 1, 1, 1, 0, 1),       # x^7+x^5+x^4+x^3+x
        (0, 1, 1, 1, 0, 1, 0, 1),       # x^7+x^5+x^3+x^2+x
        (0, 1, 1, 1, 0, 1, 1, 1),       # x^7+x^6+x^5+x^3+x^2+x
        (0, 1, 1, 1, 1, 0, 1, 1),       # x^7+x^6+x^4+x^3+x^2+x
    ), (
        "x^7 + x^6 + x^5 + a", "x^7 + x^6 + x^5 + a+1",
        "x^7 + x^6 + x^4 + a", "x^7 + x^6 + x^4 + a+1",
        "x^7 + x^4 + x^3 + a", "x^7 + x^4 + x^3 + a+1",
        "x^7 + x^6 + x^4 + x^3 + a", "x^7 + x^6 + x^4 + x^3 + a+1",
        "x^7 + x^6 + x^2 + a", "x^7 + x^6 + x^2 + a+1",
        "x^7 + x^5 + x^4 + x^2 + a", "x^7 + x^5 + x^4 + x^2 + a+1",
        "x^7 + x^6 + x^5 + x^4 + x^3 + x^2 + a", "x^7 + x^6 + x^5 + x^4 + x^3 + x^2 + a+1",
        "x^7 + x^5 + x^4 + x + a", "x^7 + x^5 + x^4 + x + a+1",
        "x^7 + x^6 + x^5 + x^4 + x + a", "x^7 + x^6 + x^5 + x^4 + x + a+1",
        "x^7 + x^3 + x + a", "x^7 + x^3 + x + a+1",
        "x^7 + x^5 + x^4 + x^3 + x + a", "x^7 + x^5 + x^4 + x^3 + x + a+1",
        "x^7 + x^5 + x^3 + x^2 + x + a", "x^7 + x^5 + x^3 + x^2 + x + a+1",
        "x^7 + x^6 + x^5 + x^3 + x^2 + x + a", "x^7 + x^6 + x^5 + x^3 + x^2 + x + a+1",
        "x^7 + x^6 + x^4 + x^3 + x^2 + x + a", "x^7 + x^6 + x^4 + x^3 + x^2 + x + a+1",
    )),
)

_T4 = (
    (3, 3, 3, (_CUBIC_110,), ("x^3 + x^2 + a", "x^3 + x^2 + a+2", "x^3 + x^2 + a^2+2a+2",
                              "x^3 + x^2 + a+1", "x^3 + x^2 + a^2+a+2", "x^3 + x^2 + 2a^2+a",
                              "x^3 + x^2 + a^2+1", "x^3 + x^2 + 2a^2+2a", "x^3 + x^2 + 2a^2+1")),
    (4, 3, 4, (_CUBIC_101,), ("x^3 + x + a", "x^3 + x + a^3", "x^3 + x + 2a^3+a^2+a+1",
                              "x^3 + x + a^3+a^2+2a", "x^3 + x + a^3+a+2", "x^3 + x + 2a^3+a^2+2a",
                              "x^3 + x + 2a^3+2a", "x^3 + x + a^3+2a+2", "x^3 + x + 2a^2+a+1",
                              "x^3 + x + a^3+2a^2+1", "x^3 + x + a^2+a", "x^3 + x + 2a^3+a^2+2a+2",
                              "x^3 + x + 2a", "x^3 + x + 2a^3", "x^3 + x + a^3+2a^2+2a+2",
                              "x^3 + x + a^3+2a^2+a", "x^3 + x + 2a^3+2a+1", "x^3 + x + a^3+2a^2+a",
                              "x^3 + x + a^3+a", "x^3 + x + 2a^3+a+1", "x^3 + x + a^2+2a+2",
                              "x^3 + x + 2a^3+a^2+2", "x^3 + x + 2a^2+2", "x^3 + x + a^3+2a^2+a+1",
                              "x^3 + x + 2a^3+a^2+a+1", "x^3 + x + 2a^3+2a^2+a+1",
                              "x^3 + x + a^3+2a+2", "x^3 + x + 2a^2+a+1", "x^3 + x + a^2+a",
                              "x^3 + x + 2a^3+1", "x^3 + x + 2a+1", "x^3 + x + 2a^3+a^2",
                              "x^3 + x + a^3+2a^2+2a+2", "x^3 + x + 2a^3+a+1", "x^3 + x + a^2+2a+2",
                              "x^3 + x + 2a^2+2a")),
)

_T5 = _T1[:4] + (  # t1's rows for q = 2, 3, 5, 7, then its own
    (11, 11, 2, (_CUBIC_111,), ("x^3 + x^2 + x + 9a+2", "x^3 + x^2 + x + 9a+6",
                                "x^3 + x^2 + x + 6a+5", "x^3 + x^2 + x + 5a",
                                "x^3 + x^2 + x + 6a+4", "x^3 + x^2 + x + 6a+9",
                                "x^3 + x^2 + x + 2a+9", "x^3 + x^2 + x + 2a+5",
                                "x^3 + x^2 + x + 5a+6", "x^3 + x^2 + x + 6a",
                                "x^3 + x^2 + x + 5a+7", "x^3 + x^2 + x + 5a+2")),
    (13, 13, 2, (_CUBIC_111,), ("x^3 + x^2 + x + a", "x^3 + x^2 + x + 12a+6",
                                "x^3 + x^2 + x + 10a+9", "x^3 + x^2 + x + 12a+1",
                                "x^3 + x^2 + x + 11a+9", "x^3 + x^2 + x + 7a+5",
                                "x^3 + x^2 + x + 9a+5", "x^3 + x^2 + x + 10a+11",
                                "x^3 + x^2 + x + 2a+7", "x^3 + x^2 + x + a+5",
                                "x^3 + x^2 + x + 4a+1", "x^3 + x^2 + x + 9a")),
)

TABLES = {"t1": _T1, "t2": _T2, "t3": _T3, "t4": _T4, "t5": _T5}
TABLE_IDS = ("t1", "t2", "t3", "t4", "t5", "r_table")


def fiber_census(q: int, ext: int, shape: tuple[int, ...]) -> list[Polynomial]:
    """Primitive g(X) + lam over F_{q^ext} for the fixed shape g, lam ascending."""
    big = make_field(q ** ext)
    base, up, _ = _subfield_ints(big, q)
    lams = primitive_elements(big)
    cands = _fiber(big, base, up, shape, lams)
    return [f for f, ok in zip(cands, _orbit_flags(lams, q, cands)) if ok]


def regenerate_row(row) -> list[Polynomial]:
    """Census union over the row's shapes, shape-major, lam ascending."""
    key, q, ext, shapes, _ = row
    out = []
    for shape in shapes:
        out.extend(fiber_census(q, ext, shape))
    return out


def generate_table(table_id: str, deep: bool = False) -> str:
    """Deterministic CSV regeneration of the named reference table."""
    if table_id == "r_table":
        lines = ["# table r_table", "m,r,P2m2"]
        for m in range(2, 13 if deep else 11):
            r, p2m2 = count_trace_one_classes(m)
            lines.append(f"{m},{r},{p2m2}")
        return "\n".join(lines) + "\n"
    lines = [f"# table {table_id}", "key,count,entries"]
    for row in _rows(table_id):
        census = regenerate_row(row)
        entries = ";".join(format_poly(f) for f in census)
        lines.append(f"{row[0]},{len(census)},{entries}")
    return "\n".join(lines) + "\n"


def membership_report(table_id: str) -> list[tuple]:
    """(key, entry text, accepted, note) for every bundled entry of the table.

    An entry is accepted when it parses under our field construction and
    equals a member of the regenerated row census.
    """
    report = []
    for row in _rows(table_id):
        key, q, ext, shapes, texts = row
        big = make_field(q ** ext)
        census = set(regenerate_row(row))
        for text in texts:
            try:
                p = parse_poly(text, big)
            except (TsrforgeError, ValueError) as exc:
                report.append((key, text, False, f"parse failed: {exc}"))
                continue
            if p in census:
                report.append((key, text, True, ""))
            else:
                report.append((key, text, False, "no match under this field construction"))
    return report


def row_counts(table_id: str) -> dict:
    """key -> regenerated census size for the named table."""
    return {row[0]: len(regenerate_row(row)) for row in _rows(table_id)}


def _rows(table_id: str) -> tuple:
    if table_id not in TABLES:
        raise UnknownKind(f"unknown table {table_id!r}")
    return TABLES[table_id]
