"""``simulator.run`` on a diagonal input in band storage, against the dense reference fold.

A lambdas input with measured lines folds in a buffer of row stride 2W
that holds only the final band of the carrier, W its half-width; when 2W
reaches 2n + 1, and for state output, it folds in the dense
(2n+2)-square buffer.  Either way
the output must have the bits of ``helpers.gather_fold``, the dense
gathering fold, and a measured run at large n must hold no O(n^2)
buffer.
"""

import tracemalloc

import numpy as np
import pytest

from dgsim import simulator as sim, state as st_mod, unitary as un_mod

from helpers import band_reference, gather_fold, gather_run, is_exit_of, rand_gate, rand_state, same_bits

SIZES = [1, 2, 3, 4, 7, 16, 50, 120, 200]


@pytest.fixture
def layouts(monkeypatch):
    """Records, for each buffer ``run`` asks for, whether it is the dense one (row stride 2n+2)."""
    dense, real = [], sim.Circuit.input_carrier

    def spy(self, stride):
        dense.append(stride == 2 * self.n + 2)
        return real(self, stride)

    monkeypatch.setattr(sim.Circuit, "input_carrier", spy)
    return dense


def descending_gates(n):
    """Plane gates with descending axes, line1 and matchgate, and an fswap at each end."""
    ext = 2 * n
    planes = [(un_mod.LINE1, (ext, 0)), (un_mod.LINE1, (ext, 1)), (un_mod.LINE1, (1, 0)),
              (un_mod.MATCHGATE, (1, 0))]
    if n > 1:
        planes += [(un_mod.MATCHGATE, (3, 0)), (un_mod.MATCHGATE, (ext - 1, ext - 4))]
    gates = [un_mod.Gate(kind, axes=axes, angle=0.7 - 0.3 * i) for i, (kind, axes) in enumerate(planes)]
    return gates + [un_mod.Gate(un_mod.FSWAP, line=a) for a in sorted({0, n - 2}) if n > 1]


def band_sequence(rng, n, count):
    """``count`` random gates with the descending planes and fswaps mixed in."""
    gates = [rand_gate(rng, n) for _ in range(count)] + descending_gates(n)
    return [gates[i] for i in rng.permutation(len(gates))]


def fswap_chain(n):
    """fswaps on lines (0, 1), (1, 2), ...: each widens the band by two rows, to the full carrier."""
    return [un_mod.Gate(un_mod.FSWAP, line=a) for a in range(n - 1)]


def line_sets(rng, n):
    """Lines far apart, so that a band gather reaches past the band, and a random set."""
    return [(0,), (n - 1,), tuple(sorted({0, n // 2, n - 1})),
            tuple(sorted(rng.choice(n, min(n, 6), replace=False).tolist())), tuple(range(n))]


@pytest.mark.parametrize("n", SIZES)
def test_diagonal_input_folds_as_the_dense_reference(n, layouts):
    # Short gate lists keep a narrow band; a chain of fswaps spreads it over
    # the whole carrier, which falls back to the dense buffer.  Lambdas hold
    # +-0 and +-1, so the comparison sees signed zeros.
    rng = np.random.default_rng(7100 + n)
    lams = rng.uniform(-1, 1, n)
    pick = rng.random(n) < 0.5
    lams[pick] = rng.choice([0.0, -0.0, 1.0, -1.0], int(pick.sum()))
    short = band_sequence(rng, n, n // 2 + 1)
    lists = [short, band_sequence(rng, n, 2 * n), short + fswap_chain(n) + band_sequence(rng, n, n)]
    for gates in lists:
        seq = un_mod.GateSequence(n, gates)
        c = sim.Circuit(lams, seq)
        out = sim.run(c)
        M, mu = gather_run(c)
        assert same_bits(out.M, M) and same_bits(out.mu, mu)
        assert layouts.pop()  # state output folds in the dense buffer
        E = gather_fold(c)
        for K in line_sets(rng, n):
            out = sim.run(sim.Circuit(lams, seq, K))
            ext = sim._measured_axes(K) + [2 * n]
            assert is_exit_of(out, E[np.ix_(ext, ext)]), (len(gates), K)
    # The measured runs of the short lists took band storage from n = 4 on;
    # those of the fswap chain filled the band and fell back to dense.
    per_list = len(line_sets(rng, n))
    assert all(layouts[-per_list:])
    if n >= 4:
        assert not any(layouts[:per_list])


@pytest.mark.parametrize("n", [16, 50, 200])
def test_band_products_are_blas_products(n, monkeypatch):
    # NumPy hands a product to BLAS only if one of its operand's strides is
    # the item size and the other, the leading dimension, is positive and at
    # least the size of that operand's other axis; else its own loop runs,
    # whose bits may differ.  In the dense buffer that holds for every view
    # of ascending rows (a descending one takes NumPy's loop in both
    # layouts), so in band storage the row stride must keep it: at least a
    # row view's width.
    views = []

    class Recorded(np.ndarray):
        def __getitem__(self, key):
            out = np.asarray(self)[key]
            if isinstance(key, tuple) and all(isinstance(k, slice) for k in key):
                views.append((out.shape, out.strides))
            return out

    real = sim.Circuit.input_carrier
    monkeypatch.setattr(sim.Circuit, "input_carrier", lambda self, stride: real(self, stride).view(Recorded))
    rng = np.random.default_rng(3500 + n)
    lams, ext = rng.uniform(-1, 1, n), [0, 1, 2 * n - 2, 2 * n - 1, 2 * n]
    gates = 0
    for count in (n // 2, 2 * n, 4 * n):
        seq = un_mod.GateSequence(n, band_sequence(rng, n, count))
        c = sim.Circuit(lams, seq, (0, n - 1))
        assert is_exit_of(sim.run(c), gather_fold(c)[np.ix_(ext, ext)])
        gates += len(seq)
    assert len(views) == 2 * gates  # each gate's rows and columns
    assert any(s1 == 8 and 0 < s0 < 8 * (2 * n + 2) for _, (s0, s1) in views)  # band storage
    for (k, width), (s0, s1) in views:
        assert not (s1 == 8 and 0 < s0 < 8 * width), ("rows", k, width, s0)
        assert not (s0 == 8 and 0 < s1 < 8 * k), ("columns", k, width, s1)


def line1_on_the_extension(rng, n, count):
    """``count`` line1 gates on axis 2n, (0, 2n) or (1, 2n): each joins row 0 to the first line's rows."""
    return [un_mod.Gate(un_mod.LINE1, axes=(int(rng.integers(0, 2)), 2 * n), angle=float(rng.uniform(-3, 3)))
            for _ in range(count)]


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 13, 30, 80])
def test_band_is_its_reachability_definition(n, monkeypatch):
    # Each product's column slice must be the gate's (L, H) of
    # helpers.band_reference, for the gate's rows and for its columns, and
    # the buffer's row stride the one that reference's W picks: 2W for a
    # measured lambdas input whose 2W is below 2n + 1, else the dense 2n + 2.
    spans, strides, banded = [], [], []

    class Recorded(np.ndarray):
        def __getitem__(self, key):
            if isinstance(key, tuple) and all(isinstance(k, slice) for k in key):
                spans.append((key[1].start, key[1].stop))
            return np.asarray(self)[key]

    real = sim.Circuit.input_carrier

    def spy(self, stride):
        B = real(self, stride)
        strides.append(stride)
        return Recorded(B.shape, buffer=B.base, strides=B.strides)  # its base the buffer, as state output reads it

    monkeypatch.setattr(sim.Circuit, "input_carrier", spy)
    rng = np.random.default_rng(3600 + n)
    lams = rng.uniform(-1, 1, n)
    short = band_sequence(rng, n, n // 2 + 1)
    line1 = band_sequence(rng, n, n) + line1_on_the_extension(rng, n, n // 2 + 2)
    gate_lists = [short, [line1[i] for i in rng.permutation(len(line1))],
                  short + fswap_chain(n) + short, fswap_chain(n)[::-1] + line1_on_the_extension(rng, n, 3),
                  band_sequence(rng, n, 3 * n)]
    for state in lams, st_mod.from_diagonal(lams), rand_state(rng, n):
        for gates in gate_lists:
            seq = un_mod.GateSequence(n, gates)
            for lines in None, tuple(sorted({0, n - 1})):
                c = sim.Circuit(state, seq, lines)
                want, W = band_reference(c)
                sim.run(c)
                assert spans[0::2] == spans[1::2] == want, (len(gates), lines)
                band = lines is not None and not isinstance(state, st_mod.DGaussState) and 2 * W < 2 * n + 1
                assert strides == [2 * W if band else 2 * n + 2]
                banded.append(band)
                spans.clear()
                strides.clear()
    assert any(banded) == (n >= 8)  # measured lambdas runs took band storage from n = 8 on


def mixed_sequence(rng, n, count):
    """``count`` gates of the benchmark's mix (matchgate 0.6, fswap 0.3, line1 0.1), built as columns."""
    kind = rng.choice([0, 2, 1], size=count, p=(0.6, 0.3, 0.1))
    start = rng.integers(0, n - 1, count)
    pair = rng.random((count, 4)).argsort(axis=1)[:, :2]
    j, k = np.sort(2 * start[:, None] + pair, axis=1).T
    line1 = np.array([(0, 1), (0, 2 * n), (1, 2 * n)])[rng.integers(0, 3, count)]
    j, k = np.where(kind == 1, line1.T, (j, k))
    fswap = kind == 2
    return un_mod.GateSequence._from_columns(
        n, kind, np.where(fswap, -1, j), np.where(fswap, -1, k), np.where(fswap, start, -1),
        np.where(fswap, 0.0, rng.uniform(-np.pi, np.pi, count)))


def test_measured_run_at_large_n_holds_no_dense_buffer():
    # n = 20 000 with 2n gates: a dense buffer would be 12.8 GB, the band
    # storage of this fold (stride 42) is 13.8 MB.
    n = 20_000
    rng = np.random.default_rng(35)
    c = sim.Circuit(rng.uniform(-1, 1, n), mixed_sequence(rng, n, 2 * n), lines=(0, n // 2, n - 1))
    tracemalloc.start()
    try:
        out = sim.run(c)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.n == 3 and np.array_equal(out.M, -out.M.T)
    assert peak < 64 << 20
