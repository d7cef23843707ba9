"""Self-consistency checks past the dense oracle's cap (n = 200-500).

No dense reference reaches these sizes, so each check ties two routes
of the covariance simulator together, or tests an identity that every
output must satisfy.
"""

import numpy as np
import scipy.stats

from dgsim import embedding as emb, simulator as sim, state as st_mod, unitary as un_mod

from helpers import rand_pure_state, rand_sequence, rand_unitary


def pure_product(rng, n):
    v = rng.normal(size=(n, 3))
    return sim.prepare_product(v / np.linalg.norm(v, axis=1, keepdims=True))


def benchmark_mix(rng, n, count):
    """Gates in the benchmark's mix: 60 % matchgate, 30 % fswap, 10 % line1."""
    gates = []
    for kind in rng.choice(3, size=count, p=(0.6, 0.3, 0.1)).tolist():
        a = int(rng.integers(0, n - 1))
        if kind == 1:
            gates.append(un_mod.Gate(un_mod.FSWAP, line=a))
            continue
        angle = float(rng.uniform(-np.pi, np.pi))
        if kind == 2:
            axes = tuple(sorted(int(x) for x in rng.choice([0, 1, 2 * n], 2, replace=False)))
            gates.append(un_mod.Gate(un_mod.LINE1, axes=axes, angle=angle))
        else:
            axes = tuple(sorted(2 * a + int(x) for x in rng.choice(4, 2, replace=False)))
            gates.append(un_mod.Gate(un_mod.MATCHGATE, axes=axes, angle=angle))
    return un_mod.GateSequence(n, gates)


def test_run_matches_sequence_rotation_at_n500():
    # run folds gate by gate; sequence_rotation multiplies the rotations.
    rng = np.random.default_rng(500)
    n = 500
    s = pure_product(rng, n)
    seq = rand_sequence(rng, n, 2000)
    out = sim.run(sim.Circuit(s, seq))
    R = un_mod.sequence_rotation(seq)
    assert np.max(np.abs(out.M_ext - R @ s.M_ext @ R.T)) < 1e-12


def test_pure_state_invariant_at_n300():
    # A pure carrier has canonical values 1 and one kernel direction w:
    # M_ext M_ext^T + w w^T = I, with w the one-Pfaffian kernel vector.
    rng = np.random.default_rng(300)
    n = 300
    out = sim.run(sim.Circuit(pure_product(rng, n), rand_sequence(rng, n, 4 * n)))
    Me = out.M_ext
    w = emb._kernel_vector(Me)
    assert np.max(np.abs(Me @ Me.T + np.outer(w, w) - np.eye(2 * n + 1))) < 1e-10


def test_embedding_covariance_at_n200():
    # E(U rho U^dag) = U~ E(rho) U~^dag for the paper's embedding channel.
    rng = np.random.default_rng(200)
    n = 200
    s = rand_pure_state(rng, n, scale=0.3)
    U = rand_unitary(rng, n, scale=0.3)
    lhs = emb.embed_covariance(un_mod.conjugate_state(U, s)).state()
    rhs = un_mod.conjugate_state(emb.embed_unitary(U), emb.embed_covariance(s).state())
    assert np.max(np.abs(lhs.M - rhs.M)) < 1e-10


def test_marginal_consistency_at_n500():
    # p(x_K) = sum_b p(x_K, b_j) for a line j outside K, and sum_x p(x_K) = 1.
    rng = np.random.default_rng(5000)
    n = 500
    s = st_mod.from_diagonal(rng.uniform(-1, 1, n))
    s = sim.run(sim.Circuit(s, rand_sequence(rng, n, 2 * n)))
    lines = sorted(int(q) for q in rng.choice(n, 5, replace=False))
    j = lines.pop(int(rng.integers(5)))
    total = 0.0
    for xv in range(1 << len(lines)):
        x = [(xv >> i) & 1 for i in range(len(lines))]
        p = sim.expectation(s, sim.MeasurementOp(tuple(lines), tuple(x)))
        split = 0.0
        for b in (0, 1):
            joint = sorted(zip(lines + [j], x + [b]))
            K, xb = zip(*joint)
            split += sim.expectation(s, sim.MeasurementOp(K, xb))
        assert abs(p - split) < 1e-12
        total += p
    assert abs(total - 1.0) < 1e-12


# Pearson chi^2 of sampled counts: the bound is the 1 - 1e-6 quantile of
# chi^2 with (bins - 1) degrees of freedom, bins pooled where fewer than
# MIN_EXPECTED counts are expected.  The bound and the pooling rule were
# fixed before the test was first run.
CHI2_TAIL = 1e-6
MIN_EXPECTED = 5.0


def test_sampled_frequencies_match_probabilities_at_n300():
    # sample draws line by line through conditional updates; expectation
    # evaluates each outcome's determinant directly.  Their agreement is
    # checked on all 64 outcomes of 6 lines spread over the register in
    # adjacent pairs: lines far apart are uncorrelated here (total
    # variation from the product of marginals 1e-16), pairs are not (1e-2).
    rng = np.random.default_rng(3000)
    n, shots = 300, 20000
    s = st_mod.from_diagonal(rng.uniform(-0.95, 0.95, n))
    s = sim.run(sim.Circuit(s, benchmark_mix(rng, n, 20 * n)))
    lines = (0, 1, 150, 151, 298, 299)
    k = len(lines)
    outcomes = [tuple((v >> j) & 1 for j in range(k)) for v in range(1 << k)]
    p = np.array([sim.expectation(s, sim.MeasurementOp(lines, x)) for x in outcomes])
    assert abs(p.sum() - 1.0) < 1e-12
    bits = sim.sample(s, lines, shots, 7)
    observed = np.bincount(bits.astype(np.int64) @ (1 << np.arange(k)), minlength=1 << k)
    expected = shots * p
    small = expected < MIN_EXPECTED
    obs = np.append(observed[~small], observed[small].sum())
    exp = np.append(expected[~small], expected[small].sum())
    if exp[-1] < MIN_EXPECTED:  # the pooled bin is too small as well: fold it into the smallest
        i = int(np.argmin(exp[:-1]))
        obs[i], exp[i] = obs[i] + obs[-1], exp[i] + exp[-1]
        obs, exp = obs[:-1], exp[:-1]
    chi2 = float(((obs - exp) ** 2 / exp).sum())
    assert chi2 < scipy.stats.chi2.isf(CHI2_TAIL, len(exp) - 1)
