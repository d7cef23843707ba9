"""Seeded document sets for the benchmark workloads.

Every workload is a list of ``Request`` records: the CLI verb, the input
document the program sees, and what the generator knows about the
answer (``expect``), which only the checker reads.

Sizes are stratified: ``count`` values are the midpoints of ``count``
equal strata of the (log-)range.  Other per-document parameters (lines,
shots, pure or mixed input) are paired with the size strata in a fixed
pattern, and only the order in which the documents are sent is shuffled.
So every seed gives the same sizes, and the set as a whole nearly the
same cost profile, while the gates, angles, lines, states and sampling
seeds all change.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

SCHEMA = "dgsim/1"

# Shares of matchgate / fswap / line1 gates in a random circuit.
GATE_WEIGHTS = (0.6, 0.3, 0.1)
# Standard deviation of the entries of a random generator h (and of d).
GENERATOR_SCALE = 0.5
# synth-verify shares of compile / embed / test-state / oracle-verify;
# test-unitary gets the rest.
SYNTH_SHARES = (0.30, 0.30, 0.20, 0.15)


@dataclass
class Request:
    verb: str
    doc: dict
    expect: dict = field(default_factory=dict)
    n: int = 0
    gates: int = 0
    shots: int = 0
    shot_lines: int = 0


def strata(count, lo, hi, log=True, step=1):
    """``count`` integers in [lo, hi], the midpoint of each stratum, ascending.

    With ``step`` coprime to ``count`` the strata are returned in the fixed
    order 0, step, 2*step, ... (mod count), which pairs them with another
    ascending list without tying large to large.
    """
    u = (np.arange(count) + 0.5) / count
    if log:
        v = np.exp(np.log(lo) + u * (np.log(hi + 1) - np.log(lo)))
    else:
        v = lo + u * (hi + 1 - lo)
    v = [int(x) for x in np.clip(np.floor(v), lo, hi)]
    while math.gcd(step, count) > 1:
        step += 1
    return [v[(i * step) % count] for i in range(count)]


def random_gates(rng, n, count):
    """``count`` gates of the alphabet: matchgate / fswap / line1."""
    kinds = rng.choice(3, size=count, p=GATE_WEIGHTS).tolist()
    angles = rng.uniform(-np.pi, np.pi, count).tolist()
    # fswap line, or the first line of a matchgate window (axes 2a..2a+3).
    lines = rng.integers(0, max(n - 1, 1), count).tolist()
    window_pairs = rng.random((count, 4)).argsort(axis=1)[:, :2]
    line1_pairs = rng.random((count, 3)).argsort(axis=1)[:, :2]
    line1_axes = np.array([0, 1, 2 * n])
    gates = []
    for kind, angle, a, wp, lp in zip(kinds, angles, lines, window_pairs, line1_pairs):
        if kind == 1 and n > 1:
            gates.append({"kind": "fswap", "line": a})
        elif kind == 2:
            gates.append({"kind": "line1", "axes": sorted(line1_axes[lp].tolist()), "angle": angle})
        else:
            axes = sorted((2 * a + wp).tolist()) if n > 1 else [0, 1]
            gates.append({"kind": "matchgate", "axes": axes, "angle": angle})
    return gates


def random_lambdas(rng, n, pure=False):
    if pure:
        return [float(x) for x in rng.choice([-1.0, 1.0], n)]
    return [float(x) for x in rng.uniform(-0.95, 0.95, n)]


def random_pure_blochs(rng, n):
    v = rng.normal(size=(n, 3))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    return v.tolist()


def circuit(n, inp, gates, measure=None):
    doc = {"schema": SCHEMA, "n": n, "input": inp, "gates": gates}
    if measure is not None:
        doc["measure"] = measure
    return doc


def run_request(doc, shots=0, lines=0):
    return Request("run", doc, {"exit": 0}, n=doc["n"],
                   gates=len(doc["gates"]), shots=shots, shot_lines=shots * lines)


# ---------------------------------------------------------------------------
# state-out: run without a measure block, so the output is the full carrier.

def state_out(rng, count=100, n_range=(16, 128), bloch_range=(8, 64), bloch_share=0.15):
    n_bloch = round(count * bloch_share)
    reqs = []
    for n in strata(count - n_bloch, *n_range):
        doc = circuit(n, {"lambdas": random_lambdas(rng, n)}, random_gates(rng, n, 4 * n))
        reqs.append(run_request(doc))
    for n in strata(n_bloch, *bloch_range):
        doc = circuit(n, {"bloch": random_pure_blochs(rng, n)}, random_gates(rng, n, 4 * n))
        reqs.append(run_request(doc))
    rng.shuffle(reqs)
    return reqs


# ---------------------------------------------------------------------------
# measured: wide registers, small outputs (one probability or sample counts).

def measured(rng, count=100, n_range=(128, 1024), sample_n_range=(128, 512), x_lines=(4, 16),
             sample_lines=(8, 20), shots_range=(100, 400)):
    # The largest register has n = 1003, the midpoint of the top stratum.  At
    # n >= 1024 the carrier passes 32 MiB, where glibc's malloc always maps
    # and unmaps it, and the worker's peak RSS then varied by 10 % with the
    # order of the documents.
    # Half the documents ask for one outcome, half sample.  The sampled
    # registers are narrower, so that sampling, whose cost does not grow
    # with n, is a large share of the time without a longer pass.
    n_x = strata(count // 2, *n_range)
    n_s = strata(count - count // 2, *sample_n_range)
    reqs = []
    for n, k in zip(n_x, strata(len(n_x), *x_lines, log=False, step=7)):
        lines = sorted(int(q) for q in rng.choice(n, k, replace=False))
        x = [int(b) for b in rng.integers(0, 2, k)]
        doc = circuit(n, {"lambdas": random_lambdas(rng, n)}, random_gates(rng, n, 2 * n),
                      {"lines": lines, "x": x})
        reqs.append(run_request(doc))
    ks = strata(len(n_s), *sample_lines, log=False, step=7)
    shots = strata(len(n_s), *shots_range, log=False, step=11)
    for n, k, s in zip(n_s, ks, shots):
        start = int(rng.integers(0, n - k + 1))
        measure = {"lines": list(range(start, start + k)), "shots": s,
                   "seed": int(rng.integers(0, 2**31))}
        doc = circuit(n, {"lambdas": random_lambdas(rng, n)}, random_gates(rng, n, 2 * n), measure)
        reqs.append(run_request(doc, shots=s, lines=k))
    rng.shuffle(reqs)
    return reqs


# ---------------------------------------------------------------------------
# synth-verify: compiler, embedding and the dense verification paths.

def random_rotation(rng, m):
    """Haar-random special orthogonal m x m matrix."""
    q, r = np.linalg.qr(rng.normal(size=(m, m)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def random_state(rng, n, pure):
    """Covariance data (M, mu) with known canonical values; returns their product."""
    m = 2 * n
    lambdas = np.ones(n) if pure else rng.uniform(0.5, 1.0, n)
    C = np.zeros((m + 1, m + 1))
    for j, lam in enumerate(lambdas):
        C[2 * j, 2 * j + 1] = lam
        C[2 * j + 1, 2 * j] = -lam
    Q = random_rotation(rng, m + 1)
    Me = Q.T @ C @ Q
    Me = (Me - Me.T) / 2
    return Me[:m, :m].tolist(), Me[:m, m].tolist(), float(np.prod(lambdas))


def random_generator(rng, n):
    """A compile document's generator: antisymmetric h and vector d."""
    h = rng.normal(size=(2 * n, 2 * n)) * GENERATOR_SCALE
    d = rng.normal(size=2 * n) * GENERATOR_SCALE
    return {"schema": SCHEMA, "n": n, "h": ((h - h.T) / 2).tolist(), "d": d.tolist()}


def _majoranas(n):
    """Literal Jordan-Wigner Majoranas as dense matrices (small n only)."""
    X = np.array([[0, 1], [1, 0]], dtype=complex)
    Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
    Z = np.diag([1.0, -1.0]).astype(complex)
    out = []
    for q in range(n):
        for P in (X, Y):
            op = np.eye(1, dtype=complex)
            for p in range(n):
                op = np.kron(op, Z if p < q else P if p == q else np.eye(2))
            out.append(op)
    return out


def matrix_doc(n, A):
    A = np.asarray(A, dtype=complex)
    return {"schema": SCHEMA, "n": n, "matrix": np.stack([A.real, A.imag], -1).tolist()}


def quartic_unitary(theta):
    """exp(i theta g0 g1 g2 g3) on two lines: even, not Gaussian for 0 < theta < pi/2."""
    g = _majoranas(2)
    P = g[0] @ g[1] @ g[2] @ g[3]
    return np.cos(theta) * np.eye(4) + 1j * np.sin(theta) * P


def ghz_state(n, phase):
    """(|0..0> + e^{i phase} |1..1>)/sqrt(2): even and pure; not Gaussian for n >= 4."""
    psi = np.zeros(1 << n, dtype=complex)
    psi[0] = 1 / np.sqrt(2)
    psi[-1] = np.exp(1j * phase) / np.sqrt(2)
    return np.outer(psi, psi.conj())


def synth_verify(rng, count=200, compile_range=(8, 28), embed_range=(6, 24), dense_range=(3, 5)):
    n_compile, n_embed, n_state, n_oracle = (round(count * s) for s in SYNTH_SHARES)
    n_unitary = count - n_compile - n_embed - n_state - n_oracle
    reqs = []
    for n in strata(n_compile, *compile_range):
        reqs.append(Request("compile", random_generator(rng, n), {"exit": 0}, n=n))
    for i, n in enumerate(strata(n_embed, *embed_range)):
        M, mu, prod = random_state(rng, n, pure=(3 * i) % 10 < 3)
        doc = {"schema": SCHEMA, "n": n, "M": M, "mu": mu}
        reqs.append(Request("embed", doc, {"exit": 0, "prod_lambda": prod}, n=n))
    n_ghz = n_state // 5
    for i, n in enumerate(strata(n_state - n_ghz, *dense_range, log=False)):
        doc = circuit(n, {"lambdas": random_lambdas(rng, n, pure=(i % 2 == 0))},
                      random_gates(rng, n, 4 * n))
        reqs.append(Request("test-state", doc, {"exit": 0, "verdict": True}, n=n, gates=4 * n))
    for _ in range(n_ghz):
        doc = matrix_doc(4, ghz_state(4, float(rng.uniform(0, 2 * np.pi))))
        reqs.append(Request("test-state", doc, {"exit": 1, "verdict": False}, n=4))
    for i, n in enumerate(strata(n_oracle, *dense_range, log=False)):
        measure = None
        if i % 3:
            k = int(rng.integers(1, min(n, 3) + 1))
            lines = sorted(int(q) for q in rng.choice(n, k, replace=False))
            measure = {"lines": lines, "x": [int(b) for b in rng.integers(0, 2, k)]}
        doc = circuit(n, {"lambdas": random_lambdas(rng, n)}, random_gates(rng, n, 4 * n), measure)
        reqs.append(Request("oracle-verify", doc, {"exit": 0, "ok": True}, n=n, gates=4 * n))
    for i in range(n_unitary):
        if i % 2 == 0:
            reqs.append(Request("test-unitary", random_generator(rng, 2), {"exit": 0, "verdict": True},
                                n=2))
        else:
            U = quartic_unitary(float(rng.uniform(np.pi / 8, 3 * np.pi / 8)))
            reqs.append(Request("test-unitary", matrix_doc(2, U), {"exit": 1, "verdict": False}, n=2))
    rng.shuffle(reqs)
    return reqs


WORKLOADS = {
    "state-out": state_out,
    "measured": measured,
    "synth-verify": synth_verify,
}

# Tiny versions of each workload: warm-up before timing, and self-tests.
TINY = {
    "state-out": dict(count=4, n_range=(3, 6), bloch_range=(2, 4), bloch_share=0.25),
    "measured": dict(count=4, n_range=(8, 16), sample_n_range=(8, 16), x_lines=(2, 4),
                     sample_lines=(2, 4), shots_range=(50, 80)),
    "synth-verify": dict(count=40, compile_range=(2, 4), embed_range=(2, 4), dense_range=(2, 3)),
}


def build(name, seed, tiny=False):
    rng = np.random.default_rng([seed, sorted(WORKLOADS).index(name)])
    return WORKLOADS[name](rng, **(TINY[name] if tiny else {}))
