"""Gate parsing by columns against the row walk of ``unitary._gate_row``.

``serialization._parse_gates`` reads a plain gate list (every gate a dict
with exactly its kind's fields, int axes and lines, int or float angles)
column by column, and walks any other list gate by gate.  The arrays of
the sequence, and the error a bad list raises, must be those of the row
walk (``helpers.row_walk_sequence``).
"""

import numpy as np
import pytest

from dgsim import serialization as ser

from helpers import row_walk_sequence


def random_docs(rng, n, count, int_angles=0.3):
    """``count`` valid gate documents on n lines, all three kinds, some angles ints (some large)."""
    docs = []
    for _ in range(count):
        kind = rng.choice(["matchgate", "line1", "fswap"] if n > 1 else ["matchgate", "line1"])
        if rng.random() < int_angles:
            angle = int(rng.choice([0, 1, -3, 7, 2**53 + 1, -(2**62), 10**300]))
        else:
            angle = float(rng.uniform(-10, 10))
        if kind == "fswap":
            docs.append({"kind": "fswap", "line": int(rng.integers(0, n - 1))})
            continue
        if kind == "line1":
            axes = rng.choice([0, 1, 2 * n], 2, replace=False)
        else:
            start = 2 * int(rng.integers(0, n))
            axes = rng.choice([a for a in range(start, start + 4) if a < 2 * n], 2, replace=False)
        doc = {"kind": str(kind), "axes": [int(a) for a in axes], "angle": angle}
        docs.append(dict(reversed(doc.items())) if rng.random() < 0.2 else doc)
    return docs


def same_sequence(a, b):
    arrays = [(a.kind, b.kind), (a.axes, b.axes), (a.line, b.line), (a.angle, b.angle)]
    return a.n == b.n and all(x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()
                              for x, y in arrays)


@pytest.mark.parametrize("n", [1, 2, 3, 17, 250, 1000])
def test_plain_lists_give_the_row_walk_arrays(n):
    rng = np.random.default_rng(n)
    for count in (0, 1, 5, 2 * n, 3000):
        docs = random_docs(rng, n, count)
        assert ser._plain_columns(docs) is not None
        assert same_sequence(ser._parse_gates(docs, n), row_walk_sequence(docs, n))


def plane(drop=None, **fields):
    """The plane gate {"kind": "matchgate", "axes": [2, 3], "angle": 0.25} with ``fields`` set, ``drop`` removed."""
    doc = {"kind": "matchgate", "axes": [2, 3], "angle": 0.25, **fields}
    doc.pop(drop, None)
    return doc


# Each mutation is the gate put in place of a valid one.
MUTATIONS = {
    "not a dict": ["matchgate", [2, 3], 0.25],
    "null gate": None,
    "unknown kind": plane(kind="toffoli"),
    "kind list": plane(kind=["matchgate"]),
    "kind missing": plane(drop="kind"),
    "angle missing": plane(drop="angle"),
    "line missing": {"kind": "fswap"},
    "extra key": plane(line=0),
    "fswap extra key": {"kind": "fswap", "line": 0, "angle": 0.5},
    "fswap with axes": {"kind": "fswap", "axes": [0, 1]},
    "axes of length 3": plane(axes=[2, 3, 4]),
    "axes of length 1": plane(axes=[2]),
    "axes a string": plane(axes="23"),
    "bool axis": plane(axes=[True, 3]),
    "float axis": plane(axes=[2, 3.0]),
    "equal axes": plane(axes=[3, 3]),
    "axis past int64": plane(axes=[2, 2**64]),
    "bool angle": plane(angle=True),
    "string angle": plane(angle="0.25"),
    "null angle": plane(angle=None),
    "angle 10**400": plane(angle=10**400),
    "bool line": {"kind": "fswap", "line": True},
    "float line": {"kind": "fswap", "line": 0.0},
    "line past int64": {"kind": "fswap", "line": -(2**63) - 1},
    # Register rules, checked in array steps after every field.
    "outside every window": plane(axes=[0, 5]),
    "line1 off the first line": {"kind": "line1", "axes": [0, 3], "angle": 1},
    "fswap line out of range": {"kind": "fswap", "line": 9},
}
FIELD_RULES = [name for name in MUTATIONS if name not in
               ("outside every window", "line1 off the first line", "fswap line out of range")]


def raised(parse, docs, n):
    with pytest.raises(ser.SchemaError) as info:
        parse(docs, n)
    return str(info.value), info.value.location


@pytest.mark.parametrize("name", MUTATIONS)
@pytest.mark.parametrize("where", [0, 1000, 1999])
def test_mutation_gives_the_row_walk_error(name, where):
    n = 10
    docs = random_docs(np.random.default_rng(where), n, 2000)
    docs[where] = MUTATIONS[name]
    got = raised(ser._parse_gates, docs, n)
    assert got == raised(row_walk_sequence, docs, n)
    assert got[1].startswith(f"$.gates[{where}]")
    assert (ser._plain_columns(docs) is None) == (name in FIELD_RULES)


@pytest.mark.parametrize("first, second", [("bool axis", "unknown kind"), ("outside every window", "bool line"),
                                           ("equal axes", "string angle")])
def test_first_field_error_wins(first, second):
    # A field error anywhere comes before a register error; among field
    # errors, the first gate's.
    n = 10
    docs = random_docs(np.random.default_rng(3), n, 2000)
    docs[700] = MUTATIONS[first]
    docs[1500] = MUTATIONS[second]
    got = raised(ser._parse_gates, docs, n)
    assert got == raised(row_walk_sequence, docs, n)
    assert got[1].startswith("$.gates[1500]" if first == "outside every window" else "$.gates[700]")
