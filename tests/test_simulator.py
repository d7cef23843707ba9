import collections

import numpy as np
import pytest

from dgsim import oracle, simulator as sim, state as st_mod, unitary as un_mod

from helpers import dense_product, rand_bloch, rand_sequence, rand_state

rng = np.random.default_rng(2024)


def test_measurement_op_validation():
    with pytest.raises(ValueError):
        sim.MeasurementOp((1, 0), (0, 0))
    with pytest.raises(ValueError):
        sim.MeasurementOp((0,), (2,))
    sim.MeasurementOp((0, 2), (1, 0))


def test_measurement_cov_canonical_blocks():
    m = sim.measurement_cov(3, sim.MeasurementOp((0,), (0,)))
    want = np.zeros((6, 6))
    want[0, 1], want[1, 0] = -1.0, 1.0
    assert np.max(np.abs(m - want)) < 1e-12
    assert np.max(np.abs(sim.measurement_cov(2, sim.MeasurementOp((), ())))) == 0.0


def test_measurement_cov_dense_projector():
    for n in (2, 3):
        op = sim.MeasurementOp((0, n - 1), (1, 0))
        Mm = sim.measurement_cov(n, op)
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


def test_run_matches_dense():
    for n in (2, 3):
        for _ in range(3):
            s = rand_state(rng, n)
            seq = rand_sequence(rng, n, 40)
            out = sim.run(sim.Circuit(n, ("covariance", (s.M, s.mu)), seq))
            rho = st_mod.dense(s)
            for g in seq.gates:
                Ug = un_mod.gate_dense(g, n)
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
    assert out == sim.sample(s, (0, 1, 2), shots=50, seed=11)
    assert set(out) == {"010"}


def test_sample_total_variation():
    n = 3
    s = rand_state(rng, n)
    K = (0, 2)
    shots = 100_000
    counts = collections.Counter(sim.sample(s, K, shots=shots, seed=5))
    tv = 0.0
    for xv in range(4):
        x = (xv >> 1 & 1, xv & 1)
        p = sim.expectation(s, sim.MeasurementOp(K, x))
        tv += abs(counts["".join(map(str, x))] / shots - p)
    assert tv / 2 < 0.01


def test_circuit_input_kinds():
    with pytest.raises(ValueError):
        sim.Circuit(2, ("nonsense", []), un_mod.GateSequence(2, ()))
    c = sim.Circuit(2, ("lambdas", [0.3, 0.7]), un_mod.GateSequence(2, ()))
    out = sim.run(c)
    assert out.M[0, 1] == pytest.approx(-0.3)
