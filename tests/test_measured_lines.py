"""A circuit that names its measured lines: the reduced output, one carrier, and the line rule.

``run`` of a circuit with ``lines`` returns the output reduced to those
lines.  Every test here compares it with the compression of the full
output, bit for bit, so a later route to the same reduced state (a light
cone, say) can be held to the same tests.
"""

import json
import tracemalloc

import numpy as np
import pytest

from dgsim import cli, serialization as ser, simulator as sim, state as st_mod, unitary as un_mod
from dgsim.antisym import IndexRuleError, bordered, canonical_matrix

from helpers import gather_fold, is_exit_of, natural_order, rand_bloch, rand_gate, rand_sequence

SIZES = [1, 2, 3, 17, 64, 200]


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def circuit_input(rng, n, kind):
    """A circuit input of each kind: lambdas (some of them 0), a Bloch product, a covariance."""
    if kind == "lambdas":
        lams = rng.uniform(-1, 1, n)
        lams[::3] = 0.0
        return lams
    if kind == "bloch":
        return sim.prepare_product([rand_bloch(rng, pure=True) for _ in range(n)])
    out = sim.run(sim.Circuit(rng.uniform(-1, 1, n), rand_sequence(rng, n, 3 * n)))
    return st_mod.DGaussState(n, out.M, out.mu)


def line_sets(n):
    """None, one, all, spread, and a set holding line n - 1."""
    return [(), (n // 2,), tuple(range(n)), tuple(range(0, n, max(1, n // 5))),
            tuple(sorted({n // 3, n - 1}))]


@pytest.mark.parametrize("kind", ["lambdas", "bloch", "covariance"])
@pytest.mark.parametrize("n", SIZES)
def test_reduced_output_is_compression_of_full(n, kind):
    rng = np.random.default_rng(31 * n + len(kind))
    inp, seq = circuit_input(rng, n, kind), rand_sequence(rng, n, 4 * n + 8)
    full = sim.run(sim.Circuit(inp, seq))
    for K in line_sets(n):
        red = sim.run(sim.Circuit(inp, seq, lines=K))
        idx = sim._measured_axes(K)
        assert red.n == len(K)
        assert same_bits(red.M, full.M[np.ix_(idx, idx)]) and same_bits(red.mu, full.mu[idx])
        x = tuple(int(b) for b in rng.integers(0, 2, len(K)))
        p_full = sim.expectation(full, sim.MeasurementOp(K, x))
        p_red = sim.expectation(red, sim.MeasurementOp(range(len(K)), x))
        assert p_full.hex() == p_red.hex()
        shots = 20 if len(K) > 50 else 200
        assert np.array_equal(sim.sample(full, K, shots, 7), sim.sample(red, range(len(K)), shots, 7))


@pytest.mark.parametrize("n, K", [(3, None), (3, (0, 2)), (17, None), (17, (4, 9, 16)), (150, None),
                                  (150, tuple(range(150))), (300, tuple(range(0, 300, 2)))])
def test_run_leaves_through_carrier_state(n, K):
    # State mode and a reduced output alike: (E - E^T) / 2 of the folded
    # carrier E, or of its gather onto K's axes and axis 2n (k = 150 spans
    # two symmetrization blocks).
    rng = np.random.default_rng(n)
    c = sim.Circuit(circuit_input(rng, n, "bloch"), rand_sequence(rng, n, 4 * n), lines=K)
    E = gather_fold(c)
    if K is not None:
        ext = sim._measured_axes(K) + [2 * n]
        E = E[np.ix_(ext, ext)]
    assert is_exit_of(sim.run(c), E)


@pytest.mark.parametrize("n", SIZES)
def test_lambda_route_carrier_is_bordered_canonical(n):
    rng = np.random.default_rng(n)
    lams = rng.uniform(-1, 1, n)
    lams[::2] = 0.0
    c = sim.Circuit(lams, rand_sequence(rng, n, 2 * n))
    w = 2 * n + 1
    # The fold-order carrier: from_diagonal's M_ext with axis 2n first, its
    # row of -0 (the mean's negation) taken as +0.
    order = [w - 1] + list(range(w - 1))
    want = bordered(canonical_matrix(-lams, 2 * n), np.zeros(2 * n))[np.ix_(order, order)]
    assert same_bits(want, st_mod.from_diagonal(lams).M_ext[np.ix_(order, order)])
    assert np.signbit(want[0, 1:]).all() and not np.signbit(want[:, 0]).any()
    want[0] = 0.0
    # Band storage at strides 2 and 4, and the dense (2n+2)-square buffer:
    # the whole buffer holds exactly the band's entries of that carrier, +0
    # elsewhere.
    for stride in (2, 4, w + 1):
        B = c.input_carrier(stride)
        assert B.shape == (w, w) and B.strides == (8 * stride, 8)
        band = np.abs(np.subtract.outer(range(w), range(w))) <= stride // 2
        buf = np.zeros_like(B.base)
        np.ndarray((w, w), buffer=buf, strides=B.strides)[band] = want[band]
        assert same_bits(B.base, buf)
    X = B.base.reshape(w + 1, w + 1)
    assert not X[-1].any() and not X[:, -1].any() and same_bits(X[:-1, :-1], want)
    # A held state's buffer holds its M_ext in the same order, -0 row included.
    held = st_mod.from_diagonal(lams)
    X = sim.Circuit(held, c.gates).input_carrier(w + 1).base.reshape(w + 1, w + 1)
    assert same_bits(natural_order(X), held.M_ext)
    # The held vector and a state built from it fold to the same bits.
    out, ref = sim.run(c), sim.run(sim.Circuit(held, c.gates))
    assert same_bits(out.M, ref.M) and same_bits(out.mu, ref.mu)


def test_circuit_holds_checked_lambdas():
    seq = rand_sequence(np.random.default_rng(0), 2, 3)
    lams = np.array([0.25, -1.0])
    c = sim.Circuit(lams, seq)
    lams[0] = 5.0  # the circuit holds its own checked copy
    assert isinstance(c.state, np.ndarray) and c.n == 2 and c.lines is None
    s = c.input_state()
    assert same_bits(s.M, st_mod.from_diagonal([0.25, -1.0]).M)
    held = st_mod.from_diagonal([0.25, -1.0])
    assert sim.Circuit(held, seq).input_state() is held
    with pytest.raises(st_mod.AdmissibilityError, match=r"diagonal parameters must lie in \[-1, 1\]"):
        sim.Circuit([1.5, 0.0], seq)
    with pytest.raises(ValueError, match="must form a vector"):
        sim.Circuit([[0.5, 0.5]], seq)
    with pytest.raises(ValueError, match="size"):
        sim.Circuit([0.5, 0.5, 0.5], seq)
    assert sim.Circuit([0.5, 0.5], seq, lines=[1]).lines == (1,)
    with pytest.raises(IndexRuleError, match="strictly increasing"):
        sim.Circuit([0.5, 0.5], seq, lines=(1, 0))
    with pytest.raises(IndexRuleError, match="out of range"):
        sim.Circuit([0.5, 0.5], seq, lines=(2,))


def test_parse_keeps_lambda_vector_and_refuses_as_before():
    doc = {"schema": ser.SCHEMA_VERSION, "n": 2, "input": {"lambdas": [0.5, -0.25]}, "gates": []}
    c, _ = ser.parse_circuit(doc)
    assert same_bits(c.state, np.array([0.5, -0.25]))
    doc["input"]["lambdas"] = [0.5, 1.5]
    with pytest.raises(st_mod.AdmissibilityError, match=r"diagonal parameters must lie in \[-1, 1\]"):
        ser.parse_circuit(doc)


def lambda_doc(n, measure=None):
    rng = np.random.default_rng(n)
    gates = [{"kind": "matchgate", "axes": [2 * q, 2 * q + 3], "angle": float(a)}
             for q, a in zip(rng.integers(0, n - 1, 2 * n).tolist(), rng.uniform(-3, 3, 2 * n))]
    doc = {"schema": ser.SCHEMA_VERSION, "n": n, "input": {"lambdas": rng.uniform(-1, 1, n).tolist()},
           "gates": gates}
    if measure is not None:
        doc["measure"] = measure
    return doc


def traced_peak(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_parse_of_lambda_document_builds_no_carrier():
    n = 1000
    doc = lambda_doc(n)
    assert traced_peak(ser.parse_circuit, doc) < 8 * (2 * n) ** 2


@pytest.mark.parametrize("measure", [{"lines": [0, 999], "x": [1, 0]},
                                     {"lines": [3, 4, 5], "shots": 50, "seed": 2}])
def test_measured_run_holds_one_carrier(tmp_path, measure):
    n = 1000
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(lambda_doc(n, measure)))
    argv = ["run", str(path), "--out", str(tmp_path / "out.json")]
    assert traced_peak(cli.main, argv) < 1.5 * 8 * (2 * n + 1) ** 2
    assert json.loads((tmp_path / "out.json").read_text())["n"] == n


# ---------------------------------------------------------------------------
# Inadmissible carriers, as run's unchecked output would hold them after
# drift: each route refuses them, by class and message.

def unchecked(n, lams):
    return st_mod.carrier_state(bordered(canonical_matrix(-np.asarray(lams, dtype=float), 2 * n), np.zeros(2 * n)))


BAD = unchecked(2, [-1.5, 1.5])
EDGE = unchecked(1, [1 + 2e-9])
EDGE_UP = unchecked(1, [-(1 + 1.5e-9)])  # M[0, 1] = 1 + 1.5e-9
# Lines within bounds, drift between them: only conditioning shows it.
OFF = st_mod.carrier_state(bordered(np.array([[0, 0, 1.5, 0], [0, 0, 0, 1.5], [-1.5, 0, 0, 0], [0, -1.5, 0, 0]]),
                                     np.zeros(4)))
GOOD = st_mod.from_diagonal([0.5, 0.25])

REFUSALS = [
    ("expectation 00", lambda: sim.expectation(BAD, sim.MeasurementOp((0, 1), (0, 0))),
     st_mod.AdmissibilityError, "magnitude 1.5 above 1"),
    ("expectation 01", lambda: sim.expectation(BAD, sim.MeasurementOp((0, 1), (0, 1))),
     st_mod.AdmissibilityError, "magnitude 1.5 above 1"),
    ("expectation line 1", lambda: sim.expectation(BAD, sim.MeasurementOp((1,), (1,))),
     st_mod.AdmissibilityError, "magnitude 1.5 above 1"),
    ("expectation past tolerance", lambda: sim.expectation(EDGE, sim.MeasurementOp((0,), (0,))),
     st_mod.AdmissibilityError, "above 1"),
    ("expectation past tolerance, upper", lambda: sim.expectation(EDGE_UP, sim.MeasurementOp((0,), (0,))),
     st_mod.AdmissibilityError, "magnitude 1.0000000015 above 1"),
    ("sample", lambda: sim.sample(BAD, (0, 1), 10, 0), st_mod.AdmissibilityError, "magnitude 1.5 above 1"),
    ("sample past tolerance", lambda: sim.sample(EDGE_UP, (0,), 5, 1),
     st_mod.AdmissibilityError, "magnitude 1.0000000015 above 1"),
    ("sample off the lines", lambda: sim.sample(OFF, (0, 1), 4, 0),
     st_mod.AdmissibilityError, "canonical value of the covariance exceeds 1"),
    ("expectation off the lines", lambda: sim.expectation(OFF, sim.MeasurementOp((0, 1), (0, 0))),
     st_mod.AdmissibilityError, "canonical value of the covariance exceeds 1"),
    ("overlap rho", lambda: sim.overlap(BAD, GOOD), st_mod.AdmissibilityError, "magnitude 1.5 above 1"),
    ("overlap sigma", lambda: sim.overlap(GOOD, BAD), st_mod.AdmissibilityError, "magnitude 1.5 above 1"),
    ("overlap rho off the lines", lambda: sim.overlap(OFF, GOOD),
     st_mod.AdmissibilityError, "canonical value of the covariance exceeds 1"),
    ("overlap sigma off the lines", lambda: sim.overlap(GOOD, OFF),
     st_mod.AdmissibilityError, "canonical value of the covariance exceeds 1"),
]


@pytest.mark.parametrize("route,call,cls,message", REFUSALS, ids=[r[0] for r in REFUSALS])
def test_inadmissible_carrier_is_refused(route, call, cls, message):
    with pytest.raises(cls, match=message):
        call()


@pytest.mark.parametrize("lam", [1.0, -1.0, 1 - 2e-13, -(1 - 2e-13)])
def test_full_rule_passes_pure_carriers(lam):
    # Canonical values at 1, or a round-off below it, on every line: as the
    # input carrier, and spread across lines by 200 even gates (matchgates
    # and fswaps), every route still gives a number.
    n = 6
    rng = np.random.default_rng(11)
    seq = un_mod.GateSequence(n, [g for g in (rand_gate(rng, n) for _ in range(600)) if g.kind != un_mod.LINE1])
    assert len(seq) >= 200
    for s in (st_mod.from_diagonal([lam] * n), sim.run(sim.Circuit(np.full(n, lam), seq))):
        p = sim.expectation(s, sim.MeasurementOp(range(n), [0] * n))
        assert 0.0 <= p <= 1.0 + 1e-9
        assert sim.sample(s, range(n), 50, 3).shape == (50, n)
        assert sim.overlap(s, s) == pytest.approx(1.0)


def test_line_rule_passes_admissible_edges():
    # Within tolerance of 1, and a pure line, still give numbers.
    s = unchecked(1, [1 + 5e-10])
    assert sim.expectation(s, sim.MeasurementOp((0,), (0,))) == pytest.approx(1.0)
    assert sim.expectation(GOOD, sim.MeasurementOp((0, 1), (0, 0))) == pytest.approx(0.75 * 0.625)
    assert sim.overlap(GOOD, GOOD) == pytest.approx(st_mod.purity(GOOD))
