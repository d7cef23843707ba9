"""Golden values of the dense-oracle kernels, n = 1..6.

``data/oracle_golden.npz`` holds inputs and the outputs the per-bitmask
loop implementation of the kernels gave on them: random complex
operators (``pauli_tensor``, ``from_pauli_tensor``, ``moments``), and a
random admissible carrier and a diagonal carrier per n
(``pfaffian_all_restrictions``, ``wick_moment_array``,
``gaussian_dense``).  Every kernel must reproduce them exactly.  The
fixture also holds random complex antisymmetric matrices ``n{n}_K`` and
their all-restrictions Pfaffians ``n{n}_K_pf``, which are no longer
computed: ``pfaffian_all_restrictions`` refuses a complex matrix.  The
K are still drawn, so the carriers after them keep their values.  Outputs
are compared with ``np.array_equal``, not byte digests, because the sign of
an exact zero may differ between implementations.

Running this file as a script rewrites the fixture from the current
code; do that only for a deliberate change of values.
"""

from pathlib import Path

import numpy as np
import pytest

from dgsim import antisym, oracle, state as st_mod

from helpers import rand_state

DATA = Path(__file__).parent / "data" / "oracle_golden.npz"
SIZES = range(1, 7)


def _inputs() -> dict[str, np.ndarray]:
    rng = np.random.default_rng(20240611)
    lams = [1.0, -0.5, 0.0, 0.25, -1.0, 0.75]
    out = {}
    for n in SIZES:
        d = 1 << n
        out[f"n{n}_A"] = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        K = rng.normal(size=(2 * n, 2 * n)) + 1j * rng.normal(size=(2 * n, 2 * n))
        out[f"n{n}_K"] = (K - K.T) / 2
        out[f"n{n}_carrier"] = rand_state(rng, n).M_ext
        out[f"n{n}_diag"] = st_mod.from_diagonal(lams[:n]).M_ext
    return out


def _outputs(inputs: dict[str, np.ndarray], n: int) -> dict[str, np.ndarray]:
    A = inputs[f"n{n}_A"]
    out = {
        f"n{n}_A_pauli_tensor": oracle.pauli_tensor(A),
        f"n{n}_A_from_pauli_tensor": oracle.from_pauli_tensor(A.reshape((4,) * n)),
        f"n{n}_A_moments": oracle.moments(A),
    }
    for name in ("carrier", "diag"):
        M_ext = inputs[f"n{n}_{name}"]
        out[f"n{n}_{name}_pf"] = antisym.pfaffian_all_restrictions(M_ext)
        out[f"n{n}_{name}_wick"] = oracle.wick_moment_array(M_ext)
        out[f"n{n}_{name}_dense"] = oracle.gaussian_dense(M_ext)
    return out


@pytest.fixture(scope="module")
def golden():
    with np.load(DATA) as z:
        return {k: z[k] for k in z.files}


@pytest.mark.parametrize("n", SIZES)
def test_oracle_kernels_match_golden(golden, n):
    got = _outputs(golden, n)
    for key, value in got.items():
        want = golden[key]
        assert value.shape == want.shape and value.dtype == want.dtype, key
        assert np.array_equal(value, want), key


if __name__ == "__main__":
    inputs = _inputs()
    arrays = dict(inputs)
    for n in SIZES:
        arrays.update(_outputs(inputs, n))
    DATA.parent.mkdir(exist_ok=True)
    np.savez_compressed(DATA, **arrays)
    print(f"wrote {DATA} ({DATA.stat().st_size} bytes, {len(arrays)} arrays)")
