"""Structured text (JSON) schemas for circuits, operators, and results.

All documents carry a versioned ``schema`` field.  Parsing is strict:
unknown fields are rejected with their location.  Serialization is
byte-deterministic -- keys are emitted in sorted order and floats with
17 significant digits -- so fixture files are diffable and stable.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .simulator import Circuit
from .state import DGaussState
from .unitary import FSWAP, Gate, GateError, GateSequence

SCHEMA_VERSION = "dgsim/1"


class SchemaError(ValueError):
    """Input document violates the schema; message carries the location."""

    def __init__(self, message: str, location: str = "$"):
        super().__init__(f"{location}: {message}")
        self.location = location


def _take(obj, required, optional, loc):
    """Validate a JSON object's keys and return it; reject unknowns."""
    if not isinstance(obj, dict):
        raise SchemaError(f"expected an object, got {type(obj).__name__}", loc)
    unknown = set(obj) - set(required) - set(optional)
    if unknown:
        raise SchemaError(f"unknown field(s) {sorted(unknown)}", loc)
    missing = set(required) - set(obj)
    if missing:
        raise SchemaError(f"missing field(s) {sorted(missing)}", loc)
    return obj


def _check_schema(obj, loc="$"):
    if obj.get("schema") != SCHEMA_VERSION:
        raise SchemaError(
            f"schema field must be {SCHEMA_VERSION!r}, got {obj.get('schema')!r}", loc
        )


def _real_matrix(value, loc):
    try:
        arr = np.array(value, dtype=float)
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"not a numeric array: {exc}", loc) from None
    return arr


def _complex_matrix(value, loc):
    arr = _real_matrix(value, loc)
    if arr.ndim != 3 or arr.shape[2] != 2:
        raise SchemaError("complex matrix must be [[ [re, im], ... ], ...]", loc)
    return arr[..., 0] + 1j * arr[..., 1]


def complex_matrix_doc(A: np.ndarray):
    A = np.asarray(A, dtype=complex)
    return np.stack([A.real, A.imag], axis=-1).tolist()


def _size(obj) -> int:
    """The document's qubit count ``n``: a positive integer (errors at $.n)."""
    try:
        n = int(obj["n"])
    except (TypeError, ValueError):
        raise SchemaError("n must be an integer", "$.n") from None
    if n < 1:
        raise SchemaError("n must be positive", "$.n")
    return n


def parse_gate(obj, loc) -> Gate:
    _take(obj, {"kind"}, {"axes", "angle", "line"}, loc)
    kind = obj["kind"]
    try:
        if kind == FSWAP:
            _take(obj, {"kind", "line"}, set(), loc)
            g = Gate(kind, line=int(obj["line"]))
        else:
            _take(obj, {"kind", "axes", "angle"}, set(), loc)
            axes = obj["axes"]
            if not (isinstance(axes, list) and len(axes) == 2):
                raise SchemaError("axes must be a pair", loc + ".axes")
            g = Gate(kind, axes=(int(axes[0]), int(axes[1])), angle=float(obj["angle"]))
    except SchemaError:
        raise
    except (TypeError, ValueError) as exc:
        raise SchemaError(str(exc), loc) from None
    return g


def gate_doc(g: Gate):
    if g.kind == FSWAP:
        return {"kind": g.kind, "line": g.line}
    return {"kind": g.kind, "axes": list(g.axes), "angle": g.angle}


def parse_circuit(obj) -> tuple[Circuit, dict]:
    """Parse a circuit document into (Circuit, measure-spec dict)."""
    _take(obj, {"schema", "n", "input", "gates"}, {"measure"}, "$")
    _check_schema(obj)
    n = _size(obj)

    inp = _take(obj["input"], set(), {"lambdas", "bloch", "covariance"}, "$.input")
    if len(inp) != 1:
        raise SchemaError(
            "input needs exactly one of lambdas / bloch / covariance", "$.input"
        )
    if "lambdas" in inp:
        lam = _real_matrix(inp["lambdas"], "$.input.lambdas")
        if lam.shape != (n,):
            raise SchemaError(f"expected {n} entries", "$.input.lambdas")
        spec = ("lambdas", lam.tolist())
    elif "bloch" in inp:
        bl = _real_matrix(inp["bloch"], "$.input.bloch")
        if bl.shape != (n, 3):
            raise SchemaError(f"expected {n} 3-vectors", "$.input.bloch")
        spec = ("bloch", bl.tolist())
    else:
        cov = _take(inp["covariance"], {"M", "mu"}, set(), "$.input.covariance")
        M = _real_matrix(cov["M"], "$.input.covariance.M")
        mu = _real_matrix(cov["mu"], "$.input.covariance.mu")
        if M.shape != (2 * n, 2 * n) or mu.shape != (2 * n,):
            raise SchemaError("M must be 2n x 2n and mu length 2n", "$.input.covariance")
        spec = ("covariance", (M, mu))

    if not isinstance(obj["gates"], list):
        raise SchemaError("gates must be a list", "$.gates")
    gates = tuple(parse_gate(g, f"$.gates[{i}]") for i, g in enumerate(obj["gates"]))
    try:
        seq = GateSequence(n, gates)
    except GateError as exc:
        raise SchemaError(str(exc), f"$.gates[{exc.index}]") from None

    measure = None
    if "measure" in obj:
        ms = _take(obj["measure"], {"lines"}, {"x", "shots", "seed"}, "$.measure")
        lines = ms["lines"]
        if not isinstance(lines, list):
            raise SchemaError("lines must be a list", "$.measure.lines")
        lines = [int(v) for v in lines]
        if any(not 0 <= v < n for v in lines) or sorted(set(lines)) != lines:
            raise SchemaError(
                "lines must be strictly increasing and within range", "$.measure.lines"
            )
        if "x" in ms:
            if "shots" in ms or "seed" in ms:
                raise SchemaError("x excludes shots/seed", "$.measure")
            x = [int(v) for v in ms["x"]]
            if len(x) != len(lines) or any(b not in (0, 1) for b in x):
                raise SchemaError("x must be bits matching lines", "$.measure.x")
            measure = {"mode": "expectation", "lines": lines, "x": x}
        elif "shots" in ms and "seed" in ms:
            measure = {
                "mode": "sample",
                "lines": lines,
                "shots": int(ms["shots"]),
                "seed": int(ms["seed"]),
            }
        else:
            raise SchemaError("measure needs x, or shots and seed", "$.measure")

    return Circuit(n, spec, seq), measure


def circuit_doc(c: Circuit, measure=None):
    kind, payload = c.input_spec
    if kind == "covariance":
        M, mu = payload
        inp = {"covariance": {"M": np.asarray(M).tolist(), "mu": np.asarray(mu).tolist()}}
    else:
        inp = {kind: payload}
    doc = {
        "schema": SCHEMA_VERSION,
        "n": c.n,
        "input": inp,
        "gates": [gate_doc(g) for g in c.gates.gates],
    }
    if measure is not None:
        doc["measure"] = measure
    return doc


def parse_hamiltonian(obj) -> tuple[int, np.ndarray, np.ndarray]:
    """Parse a generator document into (n, h, d)."""
    _take(obj, {"schema", "n", "h"}, {"d"}, "$")
    _check_schema(obj)
    n = _size(obj)
    h = _real_matrix(obj["h"], "$.h")
    if h.shape != (2 * n, 2 * n):
        raise SchemaError("h must be 2n x 2n", "$.h")
    if np.max(np.abs(h + h.T)) > 1e-12:
        raise SchemaError("h must be antisymmetric", "$.h")
    d = _real_matrix(obj.get("d", np.zeros(2 * n)), "$.d")
    if d.shape != (2 * n,):
        raise SchemaError("d must have length 2n", "$.d")
    return n, h, d


def parse_state(obj) -> DGaussState:
    """Parse a covariance state document."""
    _take(obj, {"schema", "n", "M", "mu"}, set(), "$")
    _check_schema(obj)
    n = _size(obj)
    M = _real_matrix(obj["M"], "$.M")
    mu = _real_matrix(obj["mu"], "$.mu")
    if M.shape != (2 * n, 2 * n) or mu.shape != (2 * n,):
        raise SchemaError("M must be 2n x 2n and mu length 2n", "$")
    return DGaussState(n, M, mu)


def parse_dense_operator(obj) -> np.ndarray:
    """Parse a dense operator document (state or unitary matrix)."""
    _take(obj, {"schema", "n", "matrix"}, set(), "$")
    _check_schema(obj)
    n = _size(obj)
    A = _complex_matrix(obj["matrix"], "$.matrix")
    if A.shape != (1 << n, 1 << n):
        raise SchemaError("matrix must be 2^n x 2^n", "$.matrix")
    return A


def _emit(value, out):
    if value is None or isinstance(value, bool):
        out.append(json.dumps(value))
    elif isinstance(value, (int, np.integer)):
        out.append(str(int(value)))
    elif isinstance(value, (float, np.floating)):
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
    else:
        raise TypeError(f"cannot serialize {type(value).__name__}")


def dumps(doc) -> str:
    """Deterministic JSON: sorted keys, 17-significant-digit floats."""
    out: list[str] = []
    _emit(doc, out)
    return "".join(out) + "\n"


def _reject_constant(token: str):
    raise SchemaError(f"non-finite number {token} is not allowed")


def _finite_float(token: str) -> float:
    value = float(token)
    if not math.isfinite(value):
        raise SchemaError(f"number {token} overflows a double")
    return value


def loads(text: str):
    """Parse a JSON document; NaN, infinities and overflowing numbers are rejected."""
    try:
        return json.loads(text, parse_constant=_reject_constant, parse_float=_finite_float)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"invalid JSON: line {exc.lineno} column {exc.colno}") from None
