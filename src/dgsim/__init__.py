"""dgsim: polynomial-time simulator for displaced fermionic Gaussian circuits.

Submodules:

- ``antisym``: antisymmetric linear algebra (Pfaffians, canonical
  forms, plane-rotation decomposition).
- ``oracle``: dense exponential-cost reference implementations used
  only for testing and verification at small n.
- ``state``: the displaced Gaussian state (covariance + mean carrier).
- ``unitary``: displaced Gaussian unitaries, the gate alphabet, and
  the compiler (n(2n+1) gates, in time about n^2).
- ``simulator``: circuit execution on one carrier (a measured run's
  output reduced to its lines), measurement, and sampling.
- ``embedding``: the even embedding and dense Gaussianity tests.
- ``serialization`` / ``cli``: structured text formats and the
  command-line front end.
"""

__version__ = "0.1.0"

from .state import DGaussState, from_diagonal, from_thermal, to_thermal  # noqa: F401
from .unitary import DGUnitary, Gate, GateSequence, compile  # noqa: F401
from .simulator import (  # noqa: F401
    Circuit,
    MeasurementOp,
    expectation,
    overlap,
    prepare_product,
    run,
    sample,
)
from .embedding import (  # noqa: F401
    displaced_state_test,
    displaced_unitary_test,
    embed_state,
    embed_unitary,
    gaussian_state_test,
    gaussian_unitary_test,
)
