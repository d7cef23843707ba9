"""Prefix-tree sampling against the per-shot sampler, bit for bit.

``simulator.sample`` conditions one compression per distinct bit prefix
and maps every shot to its prefix; ``helpers.per_shot_sample`` conditions
a copy per shot.  Both rest on ``_condition`` giving each matrix of a
stack the bits of conditioning it alone, whether the stack is a stride-0
broadcast, a gathered copy or a single matrix; the first test pins that.
"""

import numpy as np
import pytest

from dgsim import simulator as sim, state as st_mod
from dgsim.antisym import NumericalAdmissibilityError

from helpers import per_shot_sample, rand_antisym, rand_pure_state, rand_state


def same_bits(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def condition_2d(S, bit):
    """One matrix conditioned on one bit with two-dimensional products: ``_condition``'s definition."""
    beta = S[0, 1] + (1.0 if bit else -1.0)
    JRt = np.stack((S[2:, 1], -S[2:, 0])) / beta
    return S[2:, 2:] - S[2:, :2] @ JRt


@pytest.mark.parametrize("m", [2, 3, 5, 12, 24])
def test_condition_is_per_matrix_on_every_stack(m):
    rng = np.random.default_rng(m)
    T = np.stack([rand_antisym(rng, 2 * m) * 0.4 for _ in range(9)])
    T[:, 0, 1] = rng.uniform(-0.9, 0.9, 9)  # pivots away from zero
    T[:, 1, 0] = -T[:, 0, 1]
    for c in (1, 2, 7, 64):
        bits = rng.integers(0, 2, c)
        idx = rng.integers(0, len(T), c)
        gathered = sim._condition(T[idx], bits)
        for i in range(c):
            assert same_bits(gathered[i], condition_2d(T[idx[i]], bits[i]))
            assert same_bits(gathered[i], sim._condition(T[idx[i]][None], bits[i:i + 1])[0])
        broadcast = sim._condition(np.broadcast_to(T[0], (c,) + T[0].shape), bits)
        assert same_bits(broadcast, sim._condition(T[np.zeros(c, dtype=int)], bits))
        assert same_bits(broadcast, sim._condition(T[np.zeros(c, dtype=int)], bits.astype(bool)))


def sampling_state(rng, k, kind):
    """A state on k + 2 lines and k of its lines: mixed, pure, or diagonal with certain and near-certain lines."""
    n = k + 2
    K = tuple(sorted(int(q) for q in rng.choice(n, k, replace=False)))
    if kind == "mixed":
        return rand_state(rng, n), K
    if kind == "pure":
        return rand_pure_state(rng, n), K
    lams = rng.choice([1.0, -1.0, 1 - 2e-13, -(1 - 2e-13), 0.3], n)
    return st_mod.from_diagonal(lams), K


SHOTS = [1, 2, 3, 7, 64, 100, 300, 1000, 10_000, 5, 999, 1, 2500, 33, 10_000, 128,
         4, 700, 10_000, 61, 2, 1500, 17, 10_000]
# Chunks of 1, 7 and 97 rows split the shots across many trees (the
# smaller chunks on the smaller shot counts, to keep the per-shot reference
# quick); None keeps the default budget, one chunk here unless k is large.
CASES = [(k, shots, kind, chunk)
         for k, shots, kind in zip(range(1, 25), SHOTS, ["mixed", "pure", "diagonal"] * 8)
         for chunk in ((None, 1, 7) if shots <= 300 else (None, 7) if shots <= 1000 else (None, 97))]


@pytest.mark.parametrize("k,shots,kind,chunk", CASES)
def test_prefix_tree_matches_per_shot_sampler(monkeypatch, k, shots, kind, chunk):
    rng = np.random.default_rng(1000 * k + shots)
    s, K = sampling_state(rng, k, kind)
    if chunk is not None:
        monkeypatch.setattr(sim, "SAMPLE_CHUNK_BYTES", chunk * 8 * (2 * k) ** 2)
    for seed in (0, 1 + k):
        got = sim.sample(s, K, shots, seed)
        assert got.dtype == np.uint8 and got.shape == (shots, k)
        assert same_bits(got, per_shot_sample(s, K, shots, seed))


@pytest.mark.parametrize("chunk", [None, 1, 7])
def test_prefix_tree_takes_the_forced_branch_as_before(monkeypatch, chunk):
    # With a third of the uniforms exactly 0, a line with p0 = 1e-13 would
    # draw its impossible bit 0; both samplers take bit 1 there.
    real = sim._uniform_chunks

    def with_zeros(seed, shots, k, rows):
        for u in real(seed, shots, k, rows):
            u[u < 1 / 3] = 0.0
            yield u

    monkeypatch.setattr(sim, "_uniform_chunks", with_zeros)
    if chunk is not None:
        monkeypatch.setattr(sim, "SAMPLE_CHUNK_BYTES", chunk * 8 * 12 ** 2)
    lams = [-(1 - 2e-13), 1.0, -1.0, -(1 - 2e-13), 0.3, 1 - 2e-13]
    s = st_mod.from_diagonal(lams)
    for seed in range(3):
        got = sim.sample(s, range(6), 500, seed)
        assert same_bits(got, per_shot_sample(s, range(6), 500, seed))
        assert (got[:, [0, 3]] == 1).all() and (got[:, 1] == 0).all() and (got[:, 2] == 1).all()
    # Certain outcomes reached by conditioning: a pure state's later lines.
    r = np.random.default_rng(8)
    p = rand_pure_state(r, 6)
    for seed in range(3):
        assert same_bits(sim.sample(p, range(6), 500, seed), per_shot_sample(p, range(6), 500, seed))


OFF = st_mod.DGaussState(2, np.array([[0, 0, 1.5, 0], [0, 0, 0, 1.5], [-1.5, 0, 0, 0], [0, -1.5, 0, 0]]),
                         np.zeros(4), check=False)


@pytest.mark.parametrize("seed", range(12))
def test_refusal_names_the_first_shot(seed, monkeypatch):
    # Line 1's p0 is 1.625 after bit 0 and -0.625 after bit 1: the message
    # quotes the first shot's, as the per-shot sampler does.  The full
    # admissibility rule refuses OFF before either sampler draws, so it is
    # lifted here to reach the range check behind it.
    monkeypatch.setattr(sim, "_refuse_inadmissible", lambda S: S)
    messages = []
    for sampler in (sim.sample, per_shot_sample):
        with pytest.raises(NumericalAdmissibilityError) as info:
            sampler(OFF, (0, 1), 9, seed)
        messages.append(str(info.value))
    assert messages[0] == messages[1]
    assert messages[0] in ("conditional probability 1.625 outside [0, 1]",
                           "conditional probability -0.625 outside [0, 1]")
