"""Structured text (JSON) schemas for circuits, operators, and results.

All documents carry a versioned ``schema`` field.  Parsing is strict:
unknown fields are rejected with their location; integer fields
(``n``, gate lines and axes, measured lines, outcome bits, ``shots``,
``seed``) must be JSON integers, and float fields (``lambdas``,
``bloch``, ``M``, ``mu``, ``h``, ``d``, ``matrix``, gate angles) JSON
numbers, never booleans or strings (``antisym._is_int`` and
``_is_number``).  The parsers return checked library objects, by the
library's rules located here at their field: a gate's fields follow
``unitary._gate_row``, the rule a ``Gate`` follows, and the measure
block's lines ``antisym.as_indices``.  Serialization is
byte-deterministic -- keys are emitted in sorted order and floats with
17 significant digits -- so fixture files are diffable and stable.

A result that holds a NaN or an infinity raises
NumericalAdmissibilityError (exit 3) from one check,
``_refuse_non_finite``.  A float ndarray of one or two axes (a carrier,
a mean vector) is written by ``_emit_floats`` and a GateSequence by
``_emit_gates``, both with the bytes of the per-element path, which
every other value takes (an empty array too; a 0-d one as its scalar).
"""

from __future__ import annotations

import json
from functools import partial
from math import isfinite

import numpy as np

from .antisym import _check_fields, _is_int, _is_number, as_indices, wrap_angles
from .simulator import Circuit, MeasurementOp, NumericalAdmissibilityError, Sampling, prepare_product, sampling_arg
from .state import DGaussState, from_diagonal
from .unitary import _FSWAP, FSWAP, KINDS, DGUnitary, GateError, GateSequence, _gate_row

SCHEMA_VERSION = "dgsim/1"


class SchemaError(ValueError):
    """Input document violates the schema; message carries the location."""

    def __init__(self, message: str, location: str = "$"):
        super().__init__(f"{location}: {message}")
        self.location = location


def _take(obj, required, optional, loc):
    """Validate a JSON object's keys and return it; reject unknowns."""
    return _check_fields(obj, required, optional, lambda message: SchemaError(message, loc))


def _check_numbers(value, loc):
    """Refuse anything but a number or nested lists of numbers (errors at ``loc``).

    A list whose entries are all plain ints and floats is accepted with one
    ``set(map(type, ...))``; any other list is walked entry by entry.
    """
    if isinstance(value, list):
        if not set(map(type, value)) <= {int, float}:
            for v in value:
                _check_numbers(v, loc)
    elif not _is_number(value):
        raise SchemaError("entries must be JSON numbers", loc)


def _real_matrix(value, loc):
    _check_numbers(value, loc)
    try:
        arr = np.array(value, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise SchemaError(f"not a numeric array: {exc}", loc) from None
    return arr


def _complex_matrix(value, loc):
    arr = _real_matrix(value, loc)
    if arr.ndim != 3 or arr.shape[2] != 2:
        raise SchemaError("complex matrix must be [[ [re, im], ... ], ...]", loc)
    return arr[..., 0] + 1j * arr[..., 1]


def _covariance(obj, n: int, loc: str) -> tuple[np.ndarray, np.ndarray]:
    """(M, mu) of a covariance object at ``loc``: M 2n x 2n, mu of length 2n.

    Errors name ``loc.M``, ``loc.mu``, or ``loc`` for a shape that does not fit.
    """
    M = _real_matrix(obj["M"], f"{loc}.M")
    mu = _real_matrix(obj["mu"], f"{loc}.mu")
    if M.shape != (2 * n, 2 * n) or mu.shape != (2 * n,):
        raise SchemaError("M must be 2n x 2n and mu length 2n", loc)
    return M, mu


def _header(obj, fields, optional=()) -> int:
    """The size ``n`` of a document with these fields besides schema and n.

    Errors name ``$`` for the keys and the schema, ``$.n`` for the size,
    a positive integer.
    """
    _take(obj, {"schema", "n", *fields}, optional, "$")
    if obj["schema"] != SCHEMA_VERSION:
        raise SchemaError(f"schema field must be {SCHEMA_VERSION!r}, got {obj['schema']!r}", "$")
    n = obj["n"]
    if not _is_int(n):
        raise SchemaError("n must be an integer", "$.n")
    if n < 1:
        raise SchemaError("n must be positive", "$.n")
    return int(n)


def _parse_gates(docs, n: int) -> GateSequence:
    """The gate list as a GateSequence: one pass over the dicts, then array steps.

    Every document is checked for structure before any register rule,
    so a schema error comes first wherever it is.  Angles are
    normalized once, as ``Gate(...)`` does.
    """
    if not isinstance(docs, list):
        raise SchemaError("gates must be a list", "$.gates")
    try:
        rows = [_gate_row(obj, i) for i, obj in enumerate(docs)]
        kind, j, k, line, angle = zip(*rows) if rows else ((),) * 5
        return GateSequence._from_columns(n, kind, j, k, line, wrap_angles(angle))
    except GateError as exc:
        field = f".{exc.field}" if exc.field else ""
        raise SchemaError(str(exc), f"$.gates[{exc.index}]{field}") from None


def _located(loc: str, check, *args):
    """``check(*args)``, its ValueError or IndexError raised as a SchemaError at ``loc``."""
    try:
        return check(*args)
    except (ValueError, IndexError) as exc:
        raise SchemaError(str(exc), loc) from None


def _parse_measure(obj, n: int) -> MeasurementOp | Sampling:
    """The measure block as a MeasurementOp or a Sampling request, by the simulator's rules."""
    ms = _take(obj, {"lines"}, {"x", "shots", "seed"}, "$.measure")
    if not isinstance(ms["lines"], list):
        raise SchemaError("lines must be a list", "$.measure.lines")
    K = _located("$.measure.lines", as_indices, ms["lines"], n, "measured line")
    if "x" in ms:
        if "shots" in ms or "seed" in ms:
            raise SchemaError("x excludes shots/seed", "$.measure")
        if not isinstance(ms["x"], list):
            raise SchemaError("x must be a list", "$.measure.x")
        return _located("$.measure.x", MeasurementOp, K, ms["x"])
    if "shots" not in ms or "seed" not in ms:
        raise SchemaError("measure needs x, or shots and seed", "$.measure")
    return Sampling(K, *(_located(f"$.measure.{name}", sampling_arg, name, ms[name])
                         for name in ("shots", "seed")))


def parse_circuit(obj) -> tuple[Circuit, MeasurementOp | Sampling | None]:
    """Parse a circuit document into (Circuit, its measurement or None).

    The input state is built, and checked, once: after every schema
    check of the document, so a schema error anywhere comes first.
    """
    n = _header(obj, {"input", "gates"}, {"measure"})
    inp = _take(obj["input"], set(), {"lambdas", "bloch", "covariance"}, "$.input")
    if len(inp) != 1:
        raise SchemaError(
            "input needs exactly one of lambdas / bloch / covariance", "$.input"
        )
    if "lambdas" in inp:
        lam = _real_matrix(inp["lambdas"], "$.input.lambdas")
        if lam.shape != (n,):
            raise SchemaError(f"expected {n} entries", "$.input.lambdas")
        build = partial(from_diagonal, lam)
    elif "bloch" in inp:
        bl = _real_matrix(inp["bloch"], "$.input.bloch")
        if bl.shape != (n, 3):
            raise SchemaError(f"expected {n} 3-vectors", "$.input.bloch")
        build = partial(prepare_product, bl)
    else:
        cov = _take(inp["covariance"], {"M", "mu"}, set(), "$.input.covariance")
        build = partial(DGaussState, n, *_covariance(cov, n, "$.input.covariance"))
    seq = _parse_gates(obj["gates"], n)
    measure = _parse_measure(obj["measure"], n) if "measure" in obj else None
    return Circuit(build(), seq), measure


def parse_hamiltonian(obj) -> DGUnitary:
    """Parse a generator document into its DGUnitary."""
    n = _header(obj, {"h"}, {"d"})
    h = _real_matrix(obj["h"], "$.h")
    if h.shape != (2 * n, 2 * n):
        raise SchemaError("h must be 2n x 2n", "$.h")
    d = _real_matrix(obj["d"], "$.d") if "d" in obj else np.zeros(2 * n)
    if d.shape != (2 * n,):
        raise SchemaError("d must have length 2n", "$.d")
    return _located("$.h", DGUnitary.from_generator, n, h, d)


def parse_state(obj) -> DGaussState:
    """Parse a covariance state document."""
    n = _header(obj, {"M", "mu"})
    return DGaussState(n, *_covariance(obj, n, "$"))


def parse_dense_operator(obj) -> np.ndarray:
    """Parse a dense operator document (state or unitary matrix)."""
    n = _header(obj, {"matrix"})
    A = _complex_matrix(obj["matrix"], "$.matrix")
    if A.shape != (1 << n, 1 << n):
        raise SchemaError("matrix must be 2^n x 2^n", "$.matrix")
    return A


# Entries per panel of rows, which bounds its object arrays and its template.
_PANEL = 1 << 16
# Template tokens, NUL-padded, by code: sign bit + 2 * (entry != 0) + 4 at a row's end.
_TOKENS = np.array([b"0,", b"-0,", b"%s,", b"-%s,", b"0],[", b"-0],[", b"%s],[", b"-%s],["])


def _emit_floats(a: np.ndarray, out):
    """A finite nonempty 1-D or 2-D float array, one panel of rows at a time.

    A panel is a ``%`` template of its entries' tokens, a zero written in
    it as ``0`` or ``-0`` by its sign bit, filled with the magnitudes of
    the nonzeros, which one ``%`` call formats.  A matrix equal to minus
    its transpose formats its upper triangle alone: an entry below takes
    its mirror's magnitude, held in ``pending`` until its panel comes.
    For a finite x != 0, ``"%.17g" % x`` is ``"%.17g" % abs(x)`` behind a
    ``-`` when x < 0, so the bytes are those of formatting each element on
    its own.
    """
    rows = a if a.ndim == 2 else a[None]  # a vector is one row, without the outer brackets
    m = rows.shape[1]
    b = max(1, _PANEL // m)
    mirror = a.ndim == 2 and len(a) == m and all((a[r:r + b] == -a[:, r:r + b].T).all() for r in range(0, m, b))
    pending: dict[int, list] = {}
    out.append("[" if a.ndim == 2 else "")
    for r0 in range(0, len(rows), b):
        panel = rows[r0:r0 + b]
        nz = panel != 0
        up = np.triu(nz, r0 + 1) if mirror else nz  # a mirror formats right of the diagonal
        vals = np.abs(panel[up])
        mags = np.empty(panel.shape, dtype=object)
        mags[up] = ("%.17g," * len(vals) % tuple(vals.tolist())).split(",")[:-1]
        if mirror:
            for c0 in range(r0, m, b):
                pending.setdefault(c0, []).append((r0, mags[:, c0:c0 + b][up[:, c0:c0 + b]]))
            for p0, above in pending.pop(r0):  # where ``up`` of panel p0 was, transposed
                mags[:, p0:p0 + b].T[np.triu(a[p0:p0 + b, r0:r0 + b] != 0, p0 - r0 + 1)] = above
        code = np.signbit(panel) + 2 * nz
        code[:, -1] += 4
        template = _TOKENS[code].tobytes().translate(None, b"\0").decode()[:-3]  # less the last "],["
        out.extend(("," if r0 else "", "[", template % tuple(mags[nz].tolist()), "]"))
    out.append("]" if a.ndim == 2 else "")


def _refuse_non_finite(a):
    """Raise NumericalAdmissibilityError at the first NaN or infinity of ``a``, an array or a float."""
    finite = np.isfinite(a)
    if not finite.all():
        raise NumericalAdmissibilityError(f"result holds the non-finite number {np.asarray(a)[~finite][0]}")


def _emit(value, out):
    if isinstance(value, np.ndarray) and not value.ndim:
        value = value[()]  # a 0-d array is written as its scalar
    if isinstance(value, np.ndarray) and value.dtype.kind == "f" and value.size and value.ndim <= 2:
        _refuse_non_finite(value)
        _emit_floats(value, out)
    elif value is None or isinstance(value, (bool, np.bool_)):
        out.append("null" if value is None else "true" if value else "false")
    elif isinstance(value, (int, np.integer)):
        out.append(str(int(value)))
    elif isinstance(value, (float, np.floating)):
        _refuse_non_finite(value)
        out.append(format(float(value), ".17g"))
    elif isinstance(value, str):
        out.append(json.dumps(value))
    elif isinstance(value, dict):
        out.append("{")
        for i, key in enumerate(sorted(value)):
            if i:
                out.append(",")
            out.append(json.dumps(str(key)) + ":")
            _emit(value[key], out)
        out.append("}")
    elif isinstance(value, (list, tuple, np.ndarray)):
        out.append("[")
        for i, item in enumerate(value):
            if i:
                out.append(",")
            _emit(item, out)
        out.append("]")
    elif isinstance(value, GateSequence):
        _emit_gates(value, out)
    else:
        raise TypeError(f"cannot serialize {type(value).__name__}")


# One template per kind code: a gate's document with sorted keys.
_GATE_TEMPLATES = tuple(
    '{"kind":"fswap","line":%d}' if kind == FSWAP
    else '{"angle":%.17g,"axes":[%d,%d],"kind":' + json.dumps(kind) + "}"
    for kind in KINDS
)


def _emit_gates(seq: GateSequence, out):
    """A gate list as its documents, one ``%`` call per gate from the columns.

    The angles are checked for NaN and infinities once.  An fswap reads
    {"kind", "line"}, a plane gate {"angle", "axes", "kind"}: the bytes
    of emitting each gate's dict.
    """
    _refuse_non_finite(seq.angle)
    columns = zip(seq.kind.tolist(), seq.axes.tolist(), seq.line.tolist(), seq.angle.tolist())
    out.append("[" + ",".join([
        _GATE_TEMPLATES[code] % ((line,) if code == _FSWAP else (angle, j, k))
        for code, (j, k), line, angle in columns
    ]) + "]")


def dumps(doc) -> str:
    """Deterministic JSON: sorted keys, 17-significant-digit floats.

    A NaN or infinity raises NumericalAdmissibilityError: JSON has no
    spelling for it, so nothing is emitted.
    """
    out: list[str] = []
    _emit(doc, out)
    out.append("\n")
    return "".join(out)


def _reject_constant(token: str):
    raise SchemaError(f"non-finite number {token} is not allowed")


def _finite_float(token: str) -> float:
    value = float(token)
    if not isfinite(value):
        raise SchemaError(f"number {token} overflows a double")
    return value


def loads(text: str):
    """Parse a JSON document; NaN, infinities and overflowing numbers are rejected."""
    try:
        return json.loads(text, parse_constant=_reject_constant, parse_float=_finite_float)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"invalid JSON: line {exc.lineno} column {exc.colno}") from None
