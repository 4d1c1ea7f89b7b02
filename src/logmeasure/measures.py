"""Induced matrix norms, matrix measures, and the eigenvalue sandwich.

The matrix measure (logarithmic norm) of A under a vector norm is the
right-hand derivative of h -> ||I + h A|| at h = 0+. Exact routes:

* ``closed_form``          l_1 / l_2 / l_inf Table-style formulas,
* ``scaled_closed_form``   the same formulas applied to T A T^-1; both
  labels come from one kernel per quantity, which applies T only when the
  norm has one,
* ``exact_polyhedral``     norms with polytope balls, |x| = max_F n_F . x
  over the facet normals: ||A|| is the largest n_F . (A v) over all
  vertices v and facets F, and mu(A) the largest over the pairs with v on
  F (Blanchini & Miani, Set-Theoretic Methods in Control).

Everything else is ``estimated``: multi-start ascent on the unit sphere
for norms, a decreasing-h quotient for measures, always with a positive
error_bound and never a claim of exactness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .common import as_rng, as_square_matrix
from .errors import DimensionMismatch, EigenFailure, NoExactPath
from .norms import ValidatedNorm


@dataclass
class MeasureResult:
    """Value of an induced norm or matrix measure plus provenance.

    error_bound is 0 exactly when the method is one of the exact routes.
    h_used records the final finite-difference step of the estimated
    measure's quotient; exact routes leave it None.
    """

    value: float
    method: str
    error_bound: float = 0.0
    h_used: float | None = None

    def __post_init__(self) -> None:
        if not math.isfinite(self.value):
            raise ValueError(f"non-finite result value {self.value}")
        if self.error_bound < 0:
            raise ValueError("error_bound must be nonnegative")
        if (self.error_bound == 0) != (self.method != "estimated"):
            raise ValueError("error_bound must be positive iff method == 'estimated'")

    def to_jsonable(self) -> dict:
        doc = {
            "value": self.value,
            "method": self.method,
            "error_bound": self.error_bound,
        }
        if self.h_used is not None:
            doc["h_used"] = self.h_used
        return doc


# the method label each closed-form route reports
_CLOSED_METHODS = {"closed": "closed_form", "scaled_closed": "scaled_closed_form"}


def _core_frame(S: np.ndarray, norm: ValidatedNorm) -> np.ndarray:
    """S in the coordinates of the norm's l_1 / l_2 / l_inf core."""
    return S if norm.flat_T is None else norm.flat_T @ S @ norm.flat_Tinv


# The two kernels below take one matrix, or a (k, n, n) stack, under a norm
# on a closed-form route. A stack goes through the same numpy calls, matrix
# by matrix, as a single matrix does, so every entry is bit-identical to a
# one-by-one evaluation.


def _closed_norm_many(S: np.ndarray, norm: ValidatedNorm) -> np.ndarray:
    """Closed-form induced norm of each matrix."""
    S, p = _core_frame(S, norm), norm.core_p
    if p == 1:
        return np.abs(S).sum(axis=-2).max(axis=-1)
    if p == math.inf:
        return np.abs(S).sum(axis=-1).max(axis=-1)
    try:
        return np.linalg.norm(S, 2, axis=(-2, -1))
    except np.linalg.LinAlgError as exc:  # pragma: no cover
        raise EigenFailure(f"SVD failed: {exc}") from exc


def _closed_mu_many(S: np.ndarray, norm: ValidatedNorm) -> np.ndarray:
    """Closed-form measure of each matrix."""
    S, p = _core_frame(S, norm), norm.core_p
    d = np.diagonal(S, axis1=-2, axis2=-1)
    if p == 1:
        return (d + np.abs(S).sum(axis=-2) - np.abs(d)).max(axis=-1)
    if p == math.inf:
        return (d + np.abs(S).sum(axis=-1) - np.abs(d)).max(axis=-1)
    try:
        return np.linalg.eigvalsh(0.5 * (S + S.swapaxes(-1, -2)))[..., -1]
    except np.linalg.LinAlgError as exc:  # pragma: no cover
        raise EigenFailure(f"symmetric eigensolver failed: {exc}") from exc


def _bind_matrix(A, norm: ValidatedNorm) -> np.ndarray:
    M = as_square_matrix(A)
    if norm.dim is not None and M.shape[0] != norm.dim:
        raise DimensionMismatch(f"matrix is {M.shape[0]}x{M.shape[0]} but norm has dim {norm.dim}")
    return M


def estimate_induced_norm(
    A,
    norm: ValidatedNorm,
    *,
    seed: int | np.random.Generator | None = None,
) -> MeasureResult:
    """Multi-start ascent estimate of ||A|| for norms with no exact route.

    Maximizes |Ax| / |x| with Nelder-Mead from 12 starts: all-ones, the
    unit vectors, +/- the top right singular vector, then random ones. The
    value is a lower bound attained at a concrete vector; error_bound is the
    spread of the converged starts plus the termination tolerance, a
    heuristic gap indicator rather than a rigorous bracket.
    """
    # scipy.optimize costs most of the package's import time, and only this
    # route needs it
    from scipy.optimize import minimize

    A = _bind_matrix(A, norm)
    n = A.shape[0]
    rng = as_rng(seed)

    def ratio(x: np.ndarray) -> float:
        nx = float(norm.evaluate_many(x[None, :])[0])
        if nx < 1e-12:
            return 0.0
        return float(norm.evaluate_many((A @ x)[None, :])[0]) / nx

    start_list: list[np.ndarray] = [np.ones(n)]
    start_list.extend(np.eye(n))
    try:
        _, _, vt = np.linalg.svd(A)
        start_list.extend([vt[0], -vt[0]])
    except np.linalg.LinAlgError:
        pass
    while len(start_list) < 12:
        start_list.append(rng.standard_normal(n))

    results = []
    for u0 in start_list:
        res = minimize(
            lambda u: -ratio(u),
            u0,
            method="Nelder-Mead",
            options={"xatol": 1e-12, "fatol": 1e-12, "maxiter": 2000, "maxfev": 4000},
        )
        results.append(max(-float(res.fun), ratio(u0)))
    value = max(results)
    spread = value - min(results)
    error_bound = spread + 1e-9 * (1.0 + abs(value))
    return MeasureResult(value, "estimated", error_bound)


def induced_matrix_norm(
    A,
    norm: ValidatedNorm,
    *,
    seed: int | np.random.Generator | None = None,
) -> MeasureResult:
    """Operator norm of A induced by the vector norm: max_{|x|=1} |A x|."""
    A = _bind_matrix(A, norm)
    route = norm.route
    if route in _CLOSED_METHODS:
        return MeasureResult(float(_closed_norm_many(A, norm)), _CLOSED_METHODS[route])
    if route == "polyhedral":
        return MeasureResult(norm._polytope.induced_norm(A), "exact_polyhedral")
    return estimate_induced_norm(A, norm, seed=seed)


def matrix_measure(
    A,
    norm: ValidatedNorm,
    *,
    seed: int | np.random.Generator | None = None,
) -> MeasureResult:
    """Matrix measure (logarithmic norm) of A under the vector norm."""
    A = _bind_matrix(A, norm)
    route = norm.route
    if route in _CLOSED_METHODS:
        return MeasureResult(float(_closed_mu_many(A, norm)), _CLOSED_METHODS[route])
    if route == "polyhedral":
        return MeasureResult(norm._polytope.measure(A), "exact_polyhedral")
    return _estimated_measure(A, norm, seed)


def _estimated_measure(A: np.ndarray, norm: ValidatedNorm, seed) -> MeasureResult:
    """Decreasing-h quotient with the gap between successive quotients reported.

    The quotient is nonincreasing as h decreases and upper-bounds the
    measure, so the final value is a monotone upper estimate.
    """
    rng = as_rng(seed)
    eye = np.eye(A.shape[0])

    def quotient(h: float) -> tuple[float, float]:
        nr = estimate_induced_norm(eye + h * A, norm, seed=rng)
        return (nr.value - 1.0) / h, nr.error_bound / h

    h = 1e-3
    prev, _ = quotient(h)
    gap = math.inf
    nerr = 0.0
    for _ in range(10):
        h /= 2
        cur, nerr = quotient(h)
        gap = abs(prev - cur)
        prev = cur
        if gap <= 1e-6 * (1.0 + abs(cur)):
            break
    error_bound = gap + nerr + 1e-9 * (1.0 + abs(prev))
    return MeasureResult(prev, "estimated", error_bound, h_used=h)


def measure_quotient(A, norm: ValidatedNorm, h: float, *, seed=None) -> float:
    """One-sided difference quotient (||I + h A|| - 1)/h at a given h > 0.

    Nonincreasing as h decreases; upper-bounds the matrix measure.
    """
    if not (h > 0):
        raise ValueError(f"h must be positive, got {h}")
    A = _bind_matrix(A, norm)
    eye = np.eye(A.shape[0])
    nr = induced_matrix_norm(eye + h * A, norm, seed=seed)
    return (nr.value - 1.0) / h


def spectral_abscissa(A) -> float:
    """Largest real part over the spectrum of A."""
    A = as_square_matrix(A)
    try:
        lam = np.linalg.eigvals(A)
    except np.linalg.LinAlgError as exc:
        raise EigenFailure(f"eigenvalue computation failed: {exc}") from exc
    return float(lam.real.max())


@dataclass
class SandwichReport:
    """spectral abscissa <= matrix measure <= induced norm, checked."""

    abscissa: float
    measure: float
    norm_value: float
    passed: bool

    def to_jsonable(self) -> dict:
        return {
            "abscissa": self.abscissa,
            "measure": self.measure,
            "norm_value": self.norm_value,
            "passed": self.passed,
        }


def check_measure_sandwich(A, norm: ValidatedNorm, tol: float = 1e-9) -> SandwichReport:
    """Verify s(A) <= mu(A) <= ||A|| under a norm with an exact route."""
    if norm.route == "estimated":
        raise NoExactPath("sandwich check requires an exact measure route")
    A = _bind_matrix(A, norm)
    s = spectral_abscissa(A)
    mu = matrix_measure(A, norm).value
    nv = induced_matrix_norm(A, norm).value
    passed = (s <= mu + tol) and (mu <= nv + tol)
    return SandwichReport(s, mu, nv, passed)
