"""Reference checks that only the tests read.

``measure_quotient`` bounds mu(A) from above only when ||I + h A|| is
exact. On an estimated route (an l_p core, 1 < p < inf) the induced norm's
value is the lower end of a bracket, so the quotient is a lower bound on
the exact one and bounds mu(A) in neither direction: under l_3 it read
-1.00000003 at h = 1e-6, for a measure in [0.0674, 0.308]. So those norms
raise NoExactPath.
"""

import numpy as np

from logmeasure import NoExactPath, ValidatedNorm, induced_matrix_norm
from logmeasure.measures import _bind_matrix


def measure_quotient(A, norm: ValidatedNorm, h: float, *, seed=None) -> float:
    """One-sided difference quotient (||I + h A|| - 1)/h at a given h > 0.

    Nonincreasing as h decreases; upper-bounds the matrix measure, up to
    the rounding of the subtraction. Only exact routes qualify: on an
    estimated norm the value of ||I + h A|| is a lower bound, which gives
    no upper bound on the measure, so those norms raise NoExactPath.
    """
    if not (h > 0):
        raise ValueError(f"h must be positive, got {h}")
    if norm.route == "estimated":
        raise NoExactPath("the difference quotient requires an exact norm route")
    A = _bind_matrix(A, norm)
    eye = np.eye(A.shape[0])
    nr = induced_matrix_norm(eye + h * A, norm, seed=seed)
    return (nr.value - 1.0) / h
