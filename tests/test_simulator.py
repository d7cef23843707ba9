import collections
import hashlib
import math

import numpy as np
import pytest

from dgsim import oracle, simulator as sim, state as st_mod, unitary as un_mod

from helpers import (
    dense_product,
    gate_dense,
    gate_rows,
    measurement_cov,
    rand_bloch,
    rand_pure_state,
    rand_sequence,
    rand_state,
)

rng = np.random.default_rng(2024)


def outcome_strings(bits):
    """One "0"/"1" string per shot, first line first."""
    return ["".join(map(str, row)) for row in bits.tolist()]


def test_measurement_op_validation():
    with pytest.raises(ValueError):
        sim.MeasurementOp((1, 0), (0, 0))
    with pytest.raises(ValueError):
        sim.MeasurementOp((0,), (2,))
    sim.MeasurementOp((0, 2), (1, 0))


@pytest.mark.parametrize("K, x", [((0.7, 2.2), (0, 1)), ((0, 2), (0.4, 1.9)),
                                  ((True, 2), (0, 1)), ((0, 2), (False, 1)), (("0",), (0,))])
def test_measurement_op_refuses_non_integers(K, x):
    # int() would truncate these to valid-looking lines and bits.
    with pytest.raises(ValueError, match="must be an integer"):
        sim.MeasurementOp(K, x)


def test_measurement_op_takes_numpy_integers():
    op = sim.MeasurementOp(np.array([0, 2]), (np.int64(1), np.uint8(0)))
    assert op.K == (0, 2) and op.x == (1, 0) and type(op.K[0]) is int


def test_measurement_cov_canonical_blocks():
    m = measurement_cov(3, sim.MeasurementOp((0,), (0,)))
    want = np.zeros((6, 6))
    want[0, 1], want[1, 0] = -1.0, 1.0
    assert np.max(np.abs(m - want)) < 1e-12
    assert np.max(np.abs(measurement_cov(2, sim.MeasurementOp((), ())))) == 0.0


def test_measurement_cov_dense_projector():
    for n in (2, 3):
        op = sim.MeasurementOp((0, n - 1), (1, 0))
        Mm = measurement_cov(n, op)
        Me = np.zeros((2 * n + 1, 2 * n + 1))
        Me[: 2 * n, : 2 * n] = Mm
        proj = np.eye(1 << n, dtype=complex)
        for line, bit in zip(op.K, op.x):
            Z = oracle.majorana(n, 2 * line) @ oracle.majorana(n, 2 * line + 1) / 1j
            proj = proj @ (np.eye(1 << n) + (-1) ** bit * Z) / 2
        k = len(op.K)
        assert np.max(np.abs(2 ** (n - k) * oracle.gaussian_dense(Me) - proj)) < 1e-9


def test_expectation_matches_born():
    for n in (1, 2, 3):
        s = rand_state(rng, n)
        rho = st_mod.dense(s)
        for kmask in range(1, 1 << n):
            K = tuple(i for i in range(n) if kmask >> i & 1)
            for xv in range(1 << len(K)):
                x = tuple(xv >> i & 1 for i in range(len(K)))
                p = sim.expectation(s, sim.MeasurementOp(K, x))
                assert p == pytest.approx(oracle.born_probability(rho, K, x), abs=1e-8)


def test_expectation_of_no_lines_is_one():
    # The determinant of the empty 0 x 0 matrix is 1, so no line measured has probability 1.
    s = rand_state(rng, 3)
    assert sim.expectation(s, sim.MeasurementOp((), ())) == 1.0


def test_expectation_rejects_negative_line():
    s = st_mod.from_diagonal([1.0, 0.5, -1.0])
    with pytest.raises(IndexError, match="measured line -1 out of range"):
        sim.expectation(s, sim.MeasurementOp((-1,), (1,)))


def test_expectation_rejects_line_past_n():
    s = st_mod.from_diagonal([1.0, 0.5, -1.0])
    with pytest.raises(IndexError, match="measured line 3 out of range"):
        sim.expectation(s, sim.MeasurementOp((3,), (0,)))


def test_probabilities_complete_n12():
    n = 12
    s = rand_state(rng, n)
    K = tuple(range(n))
    total = 0.0
    for xv in range(1 << n):
        x = tuple(xv >> i & 1 for i in range(n))
        total += sim.expectation(s, sim.MeasurementOp(K, x))
    assert total == pytest.approx(1.0, abs=1e-9)


def test_overlap_matches_dense_trace():
    for n in (1, 2, 3):
        a = rand_state(rng, n)
        b = rand_state(rng, n, scale=0.0)
        got = sim.overlap(a, b)
        want = float(np.real(np.trace(st_mod.dense(a) @ st_mod.dense(b))))
        assert got == pytest.approx(want, abs=1e-8)


def test_overlap_requires_even_second():
    a = rand_state(rng, 2)
    b = rand_state(rng, 2, scale=0.5)
    with pytest.raises(ValueError):
        sim.overlap(a, b)


@pytest.mark.parametrize("n", [600, 1100])
def test_overlap_finite_past_float_range(n):
    # det(I - M M) = 4^n overflows a float from n = 512 on, and 2^n from n = 1024 on.
    s = st_mod.from_diagonal([1.0] * n)
    value = sim.overlap(s, s)
    assert math.isfinite(value) and value == pytest.approx(1.0, abs=1e-9)


def test_probability_scaling_keeps_bits():
    # Where sqrt(det) / 2^k is finite, the ldexp scaling gives its bits.
    rng = np.random.default_rng(512)
    for _ in range(200):
        n = int(rng.integers(1, 30))
        s = rand_state(rng, n)
        K = tuple(sorted(rng.choice(n, int(rng.integers(1, n + 1)), replace=False).tolist()))
        m = sim.MeasurementOp(K, tuple(rng.integers(0, 2, len(K)).tolist()))
        idx = sim._measured_axes(K)
        A = np.eye(2 * len(K)) - s.M[np.ix_(idx, idx)] @ sim._outcome_carrier(m)
        det = float(np.real(np.linalg.det(A)))
        assert sim.expectation(s, m).hex() == (float(np.sqrt(max(det, 0.0))) / (1 << len(K))).hex()
        even = st_mod.DGaussState(n, s.M, np.zeros(2 * n))
        det = float(np.real(np.linalg.det(np.eye(2 * n) - s.M @ even.M)))
        assert sim.overlap(s, even).hex() == (float(np.sqrt(max(det, 0.0))) / (1 << n)).hex()


def test_run_matches_dense():
    for n in (2, 3):
        for _ in range(3):
            s = rand_state(rng, n)
            seq = rand_sequence(rng, n, 40)
            out = sim.run(sim.Circuit(s, seq))
            rho = st_mod.dense(s)
            for g in gate_rows(seq):
                Ug = gate_dense(g, n)
                rho = Ug @ rho @ Ug.conj().T
            assert np.max(np.abs(st_mod.dense(out) - rho)) < 1e-7


def test_prepare_product_matches_tensor():
    for trial in range(12):
        n = int(rng.integers(1, 4))
        pure = trial % 2 == 0
        if pure:
            blochs = [rand_bloch(rng, pure=True) for _ in range(n)]
        else:
            # representable mixed product: pure prefix, one mixed, diagonal tail
            cut = int(rng.integers(0, n))
            blochs = [rand_bloch(rng, pure=True) for _ in range(cut)]
            blochs.append(rand_bloch(rng))
            while len(blochs) < n:
                blochs.append(np.array([0.0, 0.0, float(rng.uniform(-1, 1))]))
        s = sim.prepare_product(blochs)
        assert np.max(np.abs(st_mod.dense(s) - dense_product(blochs))) < 1e-8


def test_prepare_product_rejects_non_gaussian_product():
    blochs = [np.array([0.6, 0.0, 0.0]), np.array([0.5, 0.0, 0.0])]
    with pytest.raises(sim.NonGaussianProductError):
        sim.prepare_product(blochs)
    verdict, _ = oracle.is_gaussian(dense_product(blochs))
    assert not verdict


def test_prepare_product_rejects_long_bloch():
    with pytest.raises(ValueError):
        sim.prepare_product([np.array([1.0, 1.0, 1.0])])



def bloch_product(kind, n):
    """A Gaussian product: pure, mixed then diagonal, or pure with lengths 1 + tol / (2n)."""
    pure = [rand_bloch(rng, pure=True) for _ in range(n)]
    if kind == "pure":
        return np.array(pure)
    if kind == "mixed":
        tail = [[0.0, 0.0, float(rng.uniform(-1, 1))] for _ in range(n - n // 2 - 1)]
        return np.array(pure[:n // 2] + [rand_bloch(rng)] + tail)
    return np.array(pure) * (1 + st_mod.ADMISSIBILITY_TOL / (2 * n))


def counted_validate(monkeypatch):
    calls, real = [], st_mod.validate
    monkeypatch.setattr(st_mod, "validate", lambda M_ext: calls.append(1) or real(M_ext))
    return calls


@pytest.mark.parametrize("kind", ["pure", "mixed", "boundary"])
@pytest.mark.parametrize("n", [1, 2, 7, 40])
def test_bloch_rule_is_the_one_check(monkeypatch, kind, n):
    # The O(n) Bloch rule admits these carriers with no validate: their
    # canonical values are the Bloch lengths, or within n times the
    # lengths' excess over 1.
    blochs = bloch_product(kind, n)
    calls = counted_validate(monkeypatch)
    s = sim.prepare_product(blochs)
    assert calls == []
    valid, lambdas = st_mod.validate(s.M_ext)
    assert valid and len(lambdas) == n
    if kind != "boundary":
        assert np.allclose(lambdas, sorted(np.linalg.norm(blochs, axis=1), reverse=True), rtol=0, atol=1e-12)


def test_long_bloch_vectors_keep_the_carrier_check(monkeypatch):
    # Ten transverse vectors of length 1 + 5e-10 pass the Bloch rule, but
    # their carrier's largest canonical value is 1 + 1.7e-9: refused.
    # Diagonal ones of that length have canonical values 1 + 5e-10: kept.
    calls = counted_validate(monkeypatch)
    long = 1 + st_mod.ADMISSIBILITY_TOL / 2
    with pytest.raises(st_mod.AdmissibilityError, match=r"^canonical values exceed 1: \[1\.00000000169"):
        sim.prepare_product([[np.sin(0.3) * long, 0.0, np.cos(0.3) * long]] * 10)
    s = sim.prepare_product([[0.0, 0.0, long]] * 10)
    assert calls == [1, 1] and max(s.canonical_lambdas()) == pytest.approx(long, rel=0, abs=1e-15)


@pytest.mark.parametrize("pure", [True, False])
def test_prepare_product_beyond_oracle_cap(pure):
    n = 48
    if pure:
        blochs = [rand_bloch(rng, pure=True) for _ in range(n)]
    else:
        # representable mixed product: pure prefix, one mixed, diagonal tail
        blochs = [rand_bloch(rng, pure=True) for _ in range(20)] + [rand_bloch(rng)]
        blochs += [np.array([0.0, 0.0, float(rng.uniform(-1, 1))]) for _ in range(n - 21)]
    s = sim.prepare_product(blochs)
    if pure:
        assert np.max(np.abs(np.array(s.canonical_lambdas()) - 1.0)) < 1e-12
    K = tuple(sorted(int(q) for q in rng.choice(n, 6, replace=False)))
    x = tuple(int(b) for b in rng.integers(0, 2, 6))
    want = np.prod([(1 + (-1) ** b * blochs[q][2]) / 2 for q, b in zip(K, x)])
    assert sim.expectation(s, sim.MeasurementOp(K, x)) == pytest.approx(want, abs=1e-12)


def test_sample_deterministic_and_concentrated():
    s = st_mod.from_diagonal([1.0, -1.0, 1.0])
    out = sim.sample(s, (0, 1, 2), shots=50, seed=11)
    assert out.shape == (50, 3) and out.dtype == np.uint8
    assert np.array_equal(out, sim.sample(s, (0, 1, 2), shots=50, seed=11))
    assert set(outcome_strings(out)) == {"010"}


def test_sample_total_variation():
    n = 3
    s = rand_state(rng, n)
    K = (0, 2)
    shots = 100_000
    counts = collections.Counter(outcome_strings(sim.sample(s, K, shots=shots, seed=5)))
    tv = 0.0
    for xv in range(4):
        x = (xv >> 1 & 1, xv & 1)
        p = sim.expectation(s, sim.MeasurementOp(K, x))
        tv += abs(counts["".join(map(str, x))] / shots - p)
    assert tv / 2 < 0.01


def test_sample_validates_lines_and_shots():
    s = st_mod.from_diagonal([0.2, -0.4, 0.6])
    for K in ((1, 0), (0, 0)):
        with pytest.raises(ValueError, match="strictly increasing"):
            sim.sample(s, K, shots=3, seed=0)
    for K in ((0, 3), (-1, 0)):
        with pytest.raises(IndexError, match="measured line .* out of range"):
            sim.sample(s, K, shots=3, seed=0)
    with pytest.raises(ValueError, match="shot"):
        sim.sample(s, (0,), shots=0, seed=0)
    assert sim.sample(s, (), shots=4, seed=0).shape == (4, 0)


@pytest.mark.parametrize("K", [(0.9, 1.5), (True, 2), (0, 2.0)])
def test_sample_refuses_non_integer_lines(K):
    s = st_mod.from_diagonal([0.2, -0.4, 0.6])
    with pytest.raises(ValueError, match="measured line must be an integer"):
        sim.sample(s, K, shots=3, seed=0)


@pytest.mark.parametrize("shots, seed, message", [
    (2.5, 1, "shots must be an integer, got 2.5"),
    (True, 1, "shots must be an integer, got True"),
    (-2, 1, "shots must be at least 1, got -2"),
    (2, -1, "seed must be at least 0, got -1"),
    (2, 1.5, "seed must be an integer, got 1.5"),
    (2, True, "seed must be an integer, got True"),
])
def test_sample_refuses_bad_shots_and_seed(shots, seed, message):
    # The shots/seed rule of the parser and the CLI flags, not numpy's errors.
    s = st_mod.from_diagonal([0.2, -0.4])
    for K in ((0,), ()):
        with pytest.raises(ValueError) as exc:
            sim.sample(s, K, shots, seed)
        assert str(exc.value) == message


def test_sample_takes_numpy_shots_and_seed():
    s = st_mod.from_diagonal([0.2, -0.4])
    got = sim.sample(s, (0, 1), np.int64(7), np.uint8(3))
    assert np.array_equal(got, sim.sample(s, (0, 1), 7, 3))


@pytest.mark.parametrize("bad", [-1.5, float("nan")])
def test_sample_rejects_inadmissible_conditional(bad):
    M = np.zeros((4, 4))
    M[2, 3], M[3, 2] = bad, -bad
    s = st_mod.DGaussState(2, M, np.zeros(4), check=False)
    with pytest.raises(sim.NumericalAdmissibilityError):
        sim.sample(s, (0, 1), shots=5, seed=0)


def test_sample_forced_branch_skips_impossible_bit(monkeypatch):
    # Line 0 has p(0) = 1e-13, round-off level.  A zero uniform would draw
    # bit 0; the sampler takes the likelier bit 1 instead of dividing by
    # the vanishing pivot, and line 1 stays deterministic.
    s = st_mod.from_diagonal([-(1 - 2e-13), 1.0])
    zeros = lambda seed, shots, k, rows: iter([np.zeros((shots, k))])
    monkeypatch.setattr(sim, "_uniform_chunks", zeros)
    assert sim.sample(s, (0, 1), shots=3, seed=0).tolist() == [[1, 0]] * 3


@pytest.mark.parametrize("shots,k,rows", [(1000, 7, 64), (100_001, 3, 4096), (37, 20, 5)])
def test_uniform_chunks_equal_one_block(shots, k, rows):
    whole = np.random.default_rng(17).random((shots, k))
    chunks = list(sim._uniform_chunks(17, shots, k, rows))
    assert max(len(u) for u in chunks) <= rows
    assert np.array_equal(np.concatenate(chunks), whole)


def test_sample_conditionals_multiply_to_born():
    r = np.random.default_rng(31)
    for n in (3, 4, 5, 6):
        for s in (rand_state(r, n), rand_pure_state(r, n)):
            K = tuple(sorted(int(q) for q in r.choice(n, 3 if n % 2 else 4, replace=False)))
            rho = st_mod.dense(s)
            idx = [a for q in K for a in (2 * q, 2 * q + 1)]
            for xv in range(1 << len(K)):
                x = tuple(xv >> (len(K) - 1 - i) & 1 for i in range(len(K)))
                S = s.M[np.ix_(idx, idx)][None]
                p = 1.0
                for bit in x:
                    p0 = (1 - S[0, 0, 1]) / 2
                    p *= 1 - p0 if bit else p0
                    S = sim._condition(S, np.array([bit], dtype=bool))
                assert p == pytest.approx(oracle.born_probability(rho, K, x), abs=1e-10)


def test_sample_marginals_at_n200():
    r = np.random.default_rng(200)
    n, shots = 200, 2000
    c = sim.Circuit(st_mod.from_diagonal(r.uniform(-1, 1, n)), rand_sequence(r, n, 4 * n))
    s = sim.run(c)
    K = tuple(sorted(int(q) for q in r.choice(n, 20, replace=False)))
    out = sim.sample(s, K, shots=shots, seed=3)
    for j, q in enumerate(K):
        p1 = sim.expectation(s, sim.MeasurementOp((q,), (1,)))
        ones = int(out[:, j].sum())
        assert abs(ones - shots * p1) <= 5 * np.sqrt(shots * p1 * (1 - p1))


def test_circuit_input_kinds():
    with pytest.raises(ValueError, match="size"):
        sim.Circuit(st_mod.from_diagonal([0.3, 0.7]), un_mod.GateSequence(3, ()))
    c = sim.Circuit(st_mod.from_diagonal([0.3, 0.7]), un_mod.GateSequence(2, ()))
    assert c.n == 2 and c.input_state() is c.state
    out = sim.run(c)
    assert out.M[0, 1] == pytest.approx(-0.3)


# ---------------------------------------------------------------------------
# Golden sampling fixture.  Outcomes frozen from the determinant chain-rule
# sampler (one 2j x 2j determinant per new prefix); every later sampler
# must reproduce them shot for shot.  Each digest is the first 16 hex
# digits of sha256(",".join(outcomes)).

def _golden_case(name):
    """(state, lines, shots) of a golden case, built from its own seed."""
    r = np.random.default_rng(sum(map(ord, name)))
    if name == "diag-pure":
        return st_mod.from_diagonal([1, -1, -1, 1, 1, -1, 1]), tuple(range(7)), 64
    if name == "diag-pure-subset":
        return st_mod.from_diagonal([1, -1, -1, 1, 1, -1, 1]), (1, 3, 4, 6), 64
    if name == "diag-mixed":
        return st_mod.from_diagonal([1.0, 0.3, -1.0, -0.55, 0.0]), tuple(range(5)), 300
    if name.startswith("rand-n"):
        n = int(name[6:])
        K = tuple(q for q in range(n) if q != 1 or n < 5)
        return rand_state(r, n), K, 500
    if name == "run-n64":
        n = 64
        c = sim.Circuit(st_mod.from_diagonal(r.uniform(-1, 1, n)), rand_sequence(r, n, 512))
        return sim.run(c), tuple(range(24, 40)), 300
    if name == "chunks-k3":
        return rand_state(r, 4), (0, 2, 3), 100_001
    raise KeyError(name)


GOLDEN_SAMPLES = {
    ("diag-pure", 5): "3c903c875b87afb5",
    ("diag-pure", 6): "3c903c875b87afb5",
    ("diag-pure", 7): "3c903c875b87afb5",
    ("diag-pure-subset", 5): "c22355b07ba5afe5",
    ("diag-pure-subset", 6): "c22355b07ba5afe5",
    ("diag-pure-subset", 7): "c22355b07ba5afe5",
    ("diag-mixed", 5): "1bb3b814a9252458",
    ("diag-mixed", 6): "ab6cd81598c6cdbf",
    ("diag-mixed", 7): "e8db03ba90964f3b",
    ("rand-n3", 5): "e7e9bab46a4277e4",
    ("rand-n3", 6): "467349536c4d1fb0",
    ("rand-n3", 7): "a7e6343396f43fe8",
    ("rand-n4", 5): "2f5dd941a3984838",
    ("rand-n4", 6): "320611e54bfc0ac7",
    ("rand-n4", 7): "967f4739f4a40721",
    ("rand-n5", 5): "165f3ca343f3957c",
    ("rand-n5", 6): "ffa16a771e4d6d2a",
    ("rand-n5", 7): "c8bfeda443f80b5f",
    ("rand-n6", 5): "4ec1dd295960347d",
    ("rand-n6", 6): "f78d82daa9669a81",
    ("rand-n6", 7): "f594c5d53fe8fff2",
    ("run-n64", 5): "27656a8ac24c527f",
    ("run-n64", 6): "274ed7835bfdddff",
    ("run-n64", 7): "9849c68835efaa78",
    ("chunks-k3", 5): "85aa33956defcc06",
    ("chunks-k3", 6): "b139447b6043e94d",
    ("chunks-k3", 7): "671f63fed7bd40d7",
}


def _digest(outcomes):
    return hashlib.sha256(",".join(outcomes).encode()).hexdigest()[:16]


@pytest.mark.parametrize("name,seed", sorted(GOLDEN_SAMPLES))
def test_sample_matches_golden(name, seed):
    s, K, shots = _golden_case(name)
    out = sim.sample(s, K, shots=shots, seed=seed)
    assert out.shape == (shots, len(K))
    assert _digest(outcome_strings(out)) == GOLDEN_SAMPLES[name, seed]
