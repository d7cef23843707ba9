"""Independent checks of dgsim's CLI responses.

No check goes through the code path it checks:

- ``run`` carriers must equal R M_in R^T, with R from
  ``unitary.sequence_rotation`` (not ``simulator.run``) and M_in assembled
  here (``lambdas`` directly, ``bloch`` by the prefix-product formula,
  not by the product-preparation circuit); their canonical values must
  equal the input's.
- single-outcome probabilities must match the determinant formula on
  R_K M_in R_K^T;
- sample counts must add up to the shots, and each line's count of ones
  must lie inside the exact binomial 5-sigma band around its reference
  probability;
- ``compile`` gate lists must be legal gates that recompose to
  ``scipy.linalg.expm`` of the extended generator;
- ``embed`` outputs must repeat the input's M and mu blocks, and (r, c)
  must be a kernel vector of the input's extended carrier whose length
  is the product of its canonical values;
- verdicts, ``ok`` flags and exit codes must be what the generator expects.

``check`` returns ``None`` for a correct response, else the reason.
"""

from __future__ import annotations

import json

import numpy as np
import scipy.linalg
import scipy.stats

from dgsim.unitary import FSWAP, Gate, GateSequence, sequence_rotation

# One-sided tail of a 5-sigma normal deviation.
FIVE_SIGMA_TAIL = float(scipy.stats.norm.sf(5.0))


class Mismatch(Exception):
    pass


def _require(cond, message):
    if not cond:
        raise Mismatch(message)


def _close(name, got, want, atol, rtol=0.0):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    _require(got.shape == want.shape, f"{name}: shape {got.shape}, expected {want.shape}")
    err = float(np.max(np.abs(got - want), initial=0.0))
    scale = float(np.max(np.abs(want), initial=0.0))
    _require(err <= atol + rtol * scale, f"{name}: off by {err:.3g}")


def gate_sequence(n, gate_docs):
    gates = []
    for g in gate_docs:
        if g["kind"] == FSWAP:
            gates.append(Gate(FSWAP, line=g["line"]))
        else:
            gates.append(Gate(g["kind"], axes=tuple(g["axes"]), angle=g["angle"]))
    return GateSequence(n, tuple(gates))


def product_carrier(blochs):
    """Extended carrier of a product of Bloch states, by prefix products of z."""
    b = np.asarray(blochs, dtype=float)
    n = len(b)
    x, y, z = b[:, 0], b[:, 1], b[:, 2]
    between = np.zeros((n, n))  # prod_{q < p < q'} z_p for q < q'
    for q in range(n - 1):
        between[q, q + 1:] = np.concatenate(([1.0], np.cumprod(z[q + 1:n - 1])))
    left = np.stack([y, -x], axis=1)
    right = np.stack([x, y], axis=1)
    M = np.einsum("as,ab,bt->asbt", left, between, right).reshape(2 * n, 2 * n)
    M = M - M.T
    idx = np.arange(n)
    M[2 * idx, 2 * idx + 1] = -z
    M[2 * idx + 1, 2 * idx] = z
    prefix = np.concatenate(([1.0], np.cumprod(z[:-1])))
    mu = np.ravel(np.stack([prefix * x, prefix * y], axis=1))
    return extended(M, mu)


def extended(M, mu):
    m = len(mu)
    Me = np.zeros((m + 1, m + 1))
    Me[:m, :m] = M
    Me[:m, m] = mu
    Me[m, :m] = -np.asarray(mu)
    return Me


def input_carrier(doc):
    n, inp = doc["n"], doc["input"]
    if "lambdas" in inp:
        M = np.zeros((2 * n, 2 * n))
        lam = np.asarray(inp["lambdas"], dtype=float)
        idx = np.arange(n)
        M[2 * idx, 2 * idx + 1] = -lam
        M[2 * idx + 1, 2 * idx] = lam
        return extended(M, np.zeros(2 * n))
    if "bloch" in inp:
        return product_carrier(inp["bloch"])
    cov = inp["covariance"]
    return extended(np.asarray(cov["M"], dtype=float), np.asarray(cov["mu"], dtype=float))


def canonical_values(Me):
    """Canonical values of an odd antisymmetric matrix, descending: its singular values in pairs."""
    s = np.linalg.svd(Me, compute_uv=False)
    return s[0:-1:2]


def outcome_probability(S, x):
    """Determinant formula on the compression S of the carrier to the measured axes."""
    k = len(x)
    C = np.zeros((2 * k, 2 * k))
    for j, bit in enumerate(x):
        c = 1.0 if bit else -1.0
        C[2 * j, 2 * j + 1] = c
        C[2 * j + 1, 2 * j] = -c
    det = float(np.linalg.det(np.eye(2 * k) - S @ C))
    return float(np.sqrt(max(det, 0.0))) / 2**k


def _compressed(doc, lines):
    idx = [a for q in lines for a in (2 * q, 2 * q + 1)]
    R_K = sequence_rotation(gate_sequence(doc["n"], doc["gates"]))[idx]
    return R_K @ input_carrier(doc) @ R_K.T


def _check_state(doc, out):
    n = doc["n"]
    R = sequence_rotation(gate_sequence(n, doc["gates"]))
    Me_in = input_carrier(doc)
    want = R @ Me_in @ R.T
    M, mu = np.asarray(out["M"], dtype=float), np.asarray(out["mu"], dtype=float)
    _require(M.shape == (2 * n, 2 * n) and mu.shape == (2 * n,), "carrier has the wrong shape")
    _close("antisymmetry", M, -M.T, 1e-12)
    _close("M", M, want[:2 * n, :2 * n], 1e-9)
    _close("mu", mu, want[:2 * n, 2 * n], 1e-9)
    _close("canonical values", canonical_values(extended(M, mu)), canonical_values(Me_in), 1e-8)


def _check_expectation(doc, out):
    ms = doc["measure"]
    want = outcome_probability(_compressed(doc, ms["lines"]), ms["x"])
    _close("probability", out["value"], want, 1e-10, 1e-6)


def _check_sample(doc, out):
    ms = doc["measure"]
    k, shots = len(ms["lines"]), ms["shots"]
    _require(out["shots"] == shots and out["seed"] == ms["seed"], "shots or seed not echoed")
    counts = out["counts"]
    _require(all(len(b) == k and set(b) <= {"0", "1"} for b in counts), "malformed outcome")
    _require(all(isinstance(c, int) and c > 0 for c in counts.values()), "non-positive count")
    _require(sum(counts.values()) == shots, f"counts add up to {sum(counts.values())}, not {shots}")
    S = _compressed(doc, ms["lines"])
    for j in range(k):
        p1 = min(max(outcome_probability(S[2 * j:2 * j + 2, 2 * j:2 * j + 2], [1]), 0.0), 1.0)
        ones = sum(c for b, c in counts.items() if b[j] == "1")
        low = scipy.stats.binom.cdf(ones, shots, p1)
        high = scipy.stats.binom.sf(ones - 1, shots, p1)
        _require(min(low, high) >= FIVE_SIGMA_TAIL,
                 f"line {ms['lines'][j]}: {ones}/{shots} ones, reference probability {p1:.4g}")


def _check_run(doc, out):
    mode = (doc.get("measure") or {})
    if not mode:
        _require(out["mode"] == "state", "expected a state result")
        _check_state(doc, out)
    elif "x" in mode:
        _require(out["mode"] == "expectation", "expected an expectation result")
        _check_expectation(doc, out)
    else:
        _require(out["mode"] == "sample", "expected a sample result")
        _check_sample(doc, out)


def _check_compile(doc, out):
    n = doc["n"]
    m = 2 * n
    h, d = np.asarray(doc["h"], dtype=float), np.asarray(doc["d"], dtype=float)
    G = np.zeros((m + 1, m + 1))
    G[:m, :m] = 2 * h
    G[:m, m] = -2 * d
    G[m, :m] = 2 * d
    count = len(out["gates"])
    _require(out["gate_count"] == count, "gate_count differs from the gate list")
    _require(count <= (m + 1) ** 2, f"{count} gates exceed the (2n+1)^2 bound")
    _close("cubic_constant", out["cubic_constant"], count / n**3, 0.0, 1e-15)
    try:
        seq = gate_sequence(n, out["gates"])
    except (TypeError, ValueError, KeyError) as exc:
        raise Mismatch(f"illegal gate: {exc}") from None
    _close("recomposed rotation", sequence_rotation(seq), scipy.linalg.expm(G), 1e-8)
    _require(0.0 <= out["residual"] <= 1e-8, f"reported residual {out['residual']}")


def _check_embed(doc, out, expect):
    n = doc["n"]
    m = 2 * n
    M, mu = np.asarray(doc["M"], dtype=float), np.asarray(doc["mu"], dtype=float)
    sigma = np.asarray(out["M"], dtype=float)
    r, c = np.asarray(out["r"], dtype=float), float(out["c"])
    _require(out["n"] == n + 1 and sigma.shape == (m + 2, m + 2), "embedded state has the wrong size")
    _close("embedded mu", out["mu"], np.zeros(m + 2), 0.0)
    _close("embedded antisymmetry", sigma, -sigma.T, 1e-12)
    _close("M block", sigma[:m, :m], M, 1e-12)
    _close("mu block", sigma[:m, m + 1], mu, 1e-12)
    _close("r block", sigma[:m, m], -r, 1e-12)
    _close("c entry", sigma[m, m + 1], c, 1e-12)
    w = np.append(r, c)
    _close("|(r, c)|", np.linalg.norm(w), expect["prod_lambda"], 1e-12, 1e-7)
    _close("kernel residual", extended(M, mu) @ w, np.zeros(m + 1), 1e-8)


def parse(text):
    """The response document, or None if there is none or it is not JSON."""
    try:
        return json.loads(text) if text else None
    except ValueError:
        return None


def check(verb, doc, expect, code, out):
    """None if the response is correct, else a one-line reason.

    ``out`` is the parsed response document (see ``parse``)."""
    if code != expect["exit"]:
        return f"exit code {code}, expected {expect['exit']}"
    if expect["exit"] not in (0, 1):
        return None  # a predicted rejection: the exit code is the answer
    if not isinstance(out, dict):
        return "no response document"
    try:
        _require(out.get("schema") == "dgsim/1", "missing schema field")
        if verb == "run":
            _check_run(doc, out)
        elif verb == "compile":
            _check_compile(doc, out)
        elif verb == "embed":
            _check_embed(doc, out, expect)
        elif verb in ("test-state", "test-unitary"):
            _require(out["verdict"] is expect["verdict"], f"verdict {out['verdict']}")
            _require(0.0 <= out["deviation"] < float("inf"), "deviation not finite")
        elif verb == "oracle-verify":
            _require(out["ok"] is expect["ok"], f"ok flag {out['ok']}")
            want = {"post_state_carrier"} | ({"measurement_probabilities"} if "measure" in doc else set())
            _require(set(out["checkpoints"]) == want, "unexpected checkpoints")
            _require(all(v < out["tolerance"] for v in out["checkpoints"].values()),
                     "checkpoint above tolerance")
        else:
            return f"unknown verb {verb}"
    except Mismatch as exc:
        return str(exc)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return f"malformed response: {type(exc).__name__}: {exc}"
    return None
