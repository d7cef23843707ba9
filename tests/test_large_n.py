"""Self-consistency checks past the dense oracle's cap (n = 200-500).

No dense reference reaches these sizes, so each check ties two routes
of the covariance simulator together, or tests an identity that every
output must satisfy.
"""

import numpy as np

from dgsim import embedding as emb, simulator as sim, state as st_mod, unitary as un_mod

from helpers import rand_pure_state, rand_sequence, rand_unitary


def pure_product(rng, n):
    v = rng.normal(size=(n, 3))
    return sim.prepare_product(v / np.linalg.norm(v, axis=1, keepdims=True))


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
