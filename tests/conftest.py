import pytest

from dgsim import antisym


@pytest.fixture(scope="session", autouse=True)
def one_blas_thread():
    """Every OpenBLAS pool on one thread for the session, as inside a CLI verb; their counts after.

    The suite's products are small, where a second thread costs more than
    it saves.  A pool mapped later (SciPy's) takes the first pool's count
    (``antisym._scipy_linalg``).  Tests that set counts of their own
    (``test_cli.py``'s ``set_blas_threads``) give them back.
    """
    pools = list(antisym._blas_pools().values())
    saved = [get() for get, _ in pools]
    for _, set_ in pools:
        set_(1)
    yield
    for (_, set_), threads in zip(pools, saved):
        set_(threads)
