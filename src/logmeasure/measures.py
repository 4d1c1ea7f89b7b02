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

Everything else is ``estimated``: a positive error_bound and never a claim
of exactness. A norm with an l_p core, 1 < p < inf (``Lp(p)`` and
``Scaled(T, Lp(p))``), gets a certified bracket [lower, upper] of the
quantity of M = T A T^-1 under |.|_p, computed in numpy; the result is
value = lower and error_bound = (upper - lower) plus a few-ulp pad:

* duality makes p >= 2: ||I + hM||_p = ||I + hM^T||_q with 1/p + 1/q = 1,
  so mu_p(M) = mu_q(M^T) and ||M||_p = ||M^T||_q; then
  phi(x) = sign(x)|x|^(p-1) / |x|_p^(p-1), the gradient of |.|_p, is C^1;
* lower bounds at any point: phi(x) is the norming functional of x, so
  |x + hMx|_p >= phi(x).(x + hMx) gives mu(M) >= phi(x).Mx / |x|_p
  (Lumer), and ||M|| >= |Mx|_p / |x|_p;
* upper bounds for any n: Riesz-Thorin holds with constant 1 for real
  p = q, so with theta = 2/p, resp. 1/p, ||I + hM||_p is at most
  ||I + hM||_2^theta ||I + hM||_inf^(1-theta), resp. with ||.||_1, whose
  derivative at h = 0 gives mu_p <= theta mu_2 + (1 - theta) mu_inf, resp.
  theta mu_1 + (1 - theta) mu_inf; likewise ||M||_p is at most
  ||M||_2^theta ||M||_inf^(1-theta), resp. ||M||_1^theta ||M||_inf^(1-theta).

In two dimensions a branch-and-bound over the angle of x closes the bracket
to ``BRACKET_GAP`` times sum |M_ij|, unless ``BRACKET_MAX_EVALS`` stops it
first; in any other dimension the lower bound comes from a stacked ascent
and the bracket can be wide. The other estimated norms, piecewise norms
with a non-polytopal piece or above ``MAX_PIECEWISE_VERTEX_DIM``, have no
certified route: every matrix-level operation raises ``NoExactPath`` for
them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .common import TOL_EXACT, as_rng, as_square_matrix
from .errors import DimensionMismatch, EigenFailure, NoExactPath
from .norms import MAX_PIECEWISE_VERTEX_DIM, ValidatedNorm, _lp_eval_many


@dataclass
class MeasureResult:
    """Value of an induced norm or matrix measure plus provenance.

    error_bound is 0 exactly when the method is one of the exact routes.
    """

    value: float
    method: str
    error_bound: float = 0.0
    # always None: no route takes a finite-difference step, but the
    # benchmark's tracer (perfbench/tracer.py) still reads the attribute
    h_used: float | None = None

    def __post_init__(self) -> None:
        if not math.isfinite(self.value):
            raise ValueError(f"non-finite result value {self.value}")
        if self.error_bound < 0:
            raise ValueError("error_bound must be nonnegative")
        if (self.error_bound == 0) != (self.method != "estimated"):
            raise ValueError("error_bound must be positive iff method == 'estimated'")

    def to_jsonable(self) -> dict:
        return {
            "value": self.value,
            "method": self.method,
            "error_bound": self.error_bound,
        }


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
    """Closed-form induced norm of each matrix; an overflow gives a
    non-finite value, which the caller reports, and no numpy warning."""
    with np.errstate(over="ignore", invalid="ignore"):
        return _closed_norm_core(_core_frame(S, norm), norm.core_p)


def _closed_norm_core(S: np.ndarray, p: float) -> np.ndarray:
    """Closed-form l_p induced norm of each matrix, p in {1, 2, inf}."""
    if p == 1:
        return np.abs(S).sum(axis=-2).max(axis=-1)
    if p == math.inf:
        return np.abs(S).sum(axis=-1).max(axis=-1)
    try:
        return np.linalg.norm(S, 2, axis=(-2, -1))
    except np.linalg.LinAlgError as exc:  # pragma: no cover
        raise EigenFailure(f"SVD failed: {exc}") from exc


def _closed_mu_many(S: np.ndarray, norm: ValidatedNorm) -> np.ndarray:
    """Closed-form measure of each matrix; an overflow gives a non-finite
    value, which the caller reports, and no numpy warning."""
    with np.errstate(over="ignore", invalid="ignore"):
        return _closed_mu_core(_core_frame(S, norm), norm.core_p)


def _closed_mu_core(S: np.ndarray, p: float) -> np.ndarray:
    """Closed-form l_p measure of each matrix, p in {1, 2, inf}."""
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


# -- the l_p bracket ---------------------------------------------------

# Target width of a two-dimensional bracket, relative to the sum of |M_ij|
# (which bounds every quantity of M), and the cap on the quotient
# evaluations of one branch-and-bound.
BRACKET_GAP = 1e-6
BRACKET_MAX_EVALS = 1 << 15

# Iterations of the stacked ascents in dimensions other than 2.
ASCENT_ITERS = 60

_EPS = float(np.finfo(float).eps)


def _has_lp_core(norm: ValidatedNorm) -> bool:
    return norm.core_p is not None and 1 < norm.core_p < math.inf


def _lp_dual_rows(X: np.ndarray, p: float, nx: np.ndarray | None = None) -> np.ndarray:
    """phi_p(x) = sign(x)(|x| / |x|_p)^(p-1) of each row, so that
    phi.x = |x|_p and |phi|_q = 1; rows of zeros give zeros. nx, when
    given, holds the rows' |x|_p."""
    nx = _lp_eval_many(p, X) if nx is None else nx
    return np.sign(X) * (np.abs(X) / np.where(nx > 0, nx, 1.0)[:, None]) ** (p - 1)


def _unit_rows(X: np.ndarray, p: float) -> np.ndarray:
    nx = _lp_eval_many(p, X)
    return X / np.where(nx > 0, nx, 1.0)[:, None]


def _lp_quotients(M: np.ndarray, p: float, X: np.ndarray, quantity: str) -> np.ndarray:
    """|Mx|_p / |x|_p (norm) or phi(x).Mx / |x|_p (measure) for each row x;
    a row of zeros bounds nothing and gives -inf."""
    nx = _lp_eval_many(p, X)
    Y = X @ M.T
    num = _lp_eval_many(p, Y) if quantity == "norm" else (_lp_dual_rows(X, p, nx) * Y).sum(axis=1)
    return np.divide(num, nx, out=np.full_like(nx, -math.inf), where=nx > 0)


def _riesz_thorin(M: np.ndarray, p: float, quantity: str) -> float:
    """The smaller of the (2, inf) and (1, inf) interpolation caps, p >= 2."""
    th2, th1 = 2.0 / p, 1.0 / p
    if quantity == "norm":
        n1, n2, ninf = (float(_closed_norm_core(M, r)) for r in (1, 2, math.inf))
        return min(n2**th2 * ninf ** (1 - th2), n1**th1 * ninf ** (1 - th1))
    m1, m2, minf = (float(_closed_mu_core(M, r)) for r in (1, 2, math.inf))
    return min(th2 * m2 + (1 - th2) * minf, th1 * m1 + (1 - th1) * minf)


def _branch_and_bound(M, p, quantity, lower, upper, gap, qpad):
    """Certified bracket for n = 2 over x = (cos t, sin t), t in [0, pi).

    Both quotients are even in x. With c = 2^(1/p - 1/2) <= |x|_p, and
    ||D phi||_2 <= (p - 1)/|x|_p, |phi|_2 <= |phi|_q = 1, |Mx|_p <= ||M||_2,
    they are Lipschitz in t with L = ||M||_2 (1/c + 1/c^2) for the norm and
    L = ||M||_2 (p/c^2 + 1/c) for the measure. So f(mid) + L halfwidth
    (plus the evaluation pad) bounds f on an interval, and every interval
    whose bound exceeds the best value by more than gap is halved, as one
    batch. Upper is the largest bound of a pruned or still open interval,
    so it stays certified when the evaluation cap stops the search.
    """
    c = 2.0 ** (1.0 / p - 0.5)
    m2 = float(_closed_norm_core(M, 2))
    lip = m2 * (1 / c + 1 / c**2) if quantity == "norm" else m2 * (p / c**2 + 1 / c)
    hw = math.pi / 16
    mids = (2 * np.arange(8) + 1) * hw
    ceiling, evals = -math.inf, 0
    while True:
        vals = _lp_quotients(M, p, np.column_stack([np.cos(mids), np.sin(mids)]), quantity)
        evals += mids.size
        lower = max(lower, float(vals.max()) - qpad)
        bounds = vals + (lip * hw + qpad)
        open_ = bounds > lower + gap
        ceiling = max(ceiling, float(bounds[~open_].max(initial=-math.inf)))
        mids, bounds = mids[open_], bounds[open_]
        top = max(ceiling, float(bounds.max(initial=-math.inf)))
        if mids.size == 0 or min(top, upper) - lower <= gap or evals + 2 * mids.size > BRACKET_MAX_EVALS:
            return lower, min(top, upper)
        hw /= 2
        mids = np.concatenate([mids - hw, mids + hw])


def _ascent(M, p, quantity, lower, upper, gap, qpad, seed) -> float:
    """Lower bound in any dimension from a stacked ascent of the quotient.

    The starts are all-ones, the unit vectors, +/- the top right singular
    vector, then seeded normal vectors up to 12 rows. The norm takes Boyd's
    p-norm power step x <- phi_q(M^T phi_p(Mx)) (Higham 1992); the measure
    takes a gradient step on the unit sphere of |.|_p with the analytic
    gradient of phi(x).Mx, the step halved on failure and doubled on
    success. A step is kept only where it raises the quotient; the search
    stops once lower is within gap of the Riesz-Thorin cap upper.
    """
    n = M.shape[0]
    starts = [np.ones(n), *np.eye(n)]
    try:
        _, _, vt = np.linalg.svd(M)
        starts.extend([vt[0], -vt[0]])
    except np.linalg.LinAlgError:
        pass
    rng = as_rng(seed)
    while len(starts) < 12:
        starts.append(rng.standard_normal(n))
    X = _unit_rows(np.array(starts), p)
    f = _lp_quotients(M, p, X, quantity)
    q = p / (p - 1)
    eta = np.full(X.shape[0], 1.0 / (p * (float(np.abs(M).sum()) or 1.0)))
    for _ in range(ASCENT_ITERS):
        lower = max(lower, float(f.max()) - qpad)
        if upper - lower <= gap:
            break
        if quantity == "norm":
            Xc = _lp_dual_rows(_lp_dual_rows(X @ M.T, p) @ M, q)
        else:
            phi, Y = _lp_dual_rows(X, p), X @ M.T
            fx = (phi * Y).sum(axis=1)[:, None]
            grad = (p - 1) * np.abs(X) ** (p - 2) * Y + phi @ M - p * fx * phi
            Xc = _unit_rows(X + eta[:, None] * grad, p)
        fc = _lp_quotients(M, p, Xc, quantity)
        up = fc > f
        X[up], f[up] = Xc[up], fc[up]
        eta = np.where(up, 2 * eta, 0.5 * eta)
    return max(lower, float(f.max()) - qpad)


def _lp_bracket(M: np.ndarray, p: float, quantity: str, seed) -> MeasureResult:
    """Certified bracket of ||M||_p or mu_p(M), 1 < p < inf; see the module doc.

    Each sampled quotient is lowered, and each branch-and-bound bound
    raised, by its evaluation error: a few ulps of sum |M_ij| for the norm,
    p + 1 times that for the measure, whose phi raises a rounded ratio to
    the power p - 1. A search that cannot beat these pads is skipped.
    """
    if p < 2:
        M, p = M.T, p / (p - 1)
    n = M.shape[0]
    with np.errstate(over="ignore"):
        scale = float(np.abs(M).sum())
    if not math.isfinite(scale):
        raise ValueError(f"matrix entries sum to {scale} in absolute value; the l_p bracket needs a finite sum")
    scale = scale or 1.0
    pad = 4 * (n + 8) * _EPS * scale
    qpad = pad if quantity == "norm" else (p + 1) * pad
    gap = BRACKET_GAP * scale
    upper = _riesz_thorin(M, p, quantity)
    if quantity == "norm":
        lower = max(0.0, float(_lp_eval_many(p, M.T).max()) - qpad)
    else:
        lower = float(M.diagonal().max())  # phi(e_j) = e_j exactly, giving m_jj
    if upper - lower > max(gap, 2 * qpad):
        if n == 2:
            lower, upper = _branch_and_bound(M, p, quantity, lower, upper, gap, qpad)
        else:
            lower = _ascent(M, p, quantity, lower, upper, gap, qpad, seed)
    return MeasureResult(lower, "estimated", max(upper - lower, 0.0) + pad)


def _require_lp_core(norm: ValidatedNorm) -> None:
    if not _has_lp_core(norm):
        raise NoExactPath(
            f"no certified estimate under this {norm.kind} norm: estimates cover l_p cores, 1 < p < inf, "
            f"and a piecewise norm is exact only with polytope pieces and n <= {MAX_PIECEWISE_VERTEX_DIM}"
        )


def estimate_induced_norm(
    A,
    norm: ValidatedNorm,
    *,
    seed: int | np.random.Generator | None = None,
) -> MeasureResult:
    """Certified estimate of ||A|| for a norm with an l_p core, 1 < p < inf.

    The bracket of the module doc: value is a lower bound attained at a
    concrete vector and value + error_bound an upper bound. Any other norm
    raises NoExactPath; the ones with an exact route take
    induced_matrix_norm.
    """
    A = _bind_matrix(A, norm)
    _require_lp_core(norm)
    return _lp_bracket(_core_frame(A, norm), norm.core_p, "norm", seed)


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
    _require_lp_core(norm)
    return _lp_bracket(_core_frame(A, norm), norm.core_p, "measure", seed)


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


def _abscissa_many(A: np.ndarray, d_rows: np.ndarray) -> np.ndarray:
    """spectral_abscissa(A - diag(d)) for every row d of d_rows.

    The package's one general eigenvalue kernel: one stacked eigvals call,
    in which LAPACK sees the matrices one by one, so each entry is
    bit-identical to a call on that matrix alone.
    """
    n = A.shape[0]
    idx = np.arange(n)
    B = np.repeat(A[None, :, :], d_rows.shape[0], axis=0)
    B[:, idx, idx] -= d_rows
    try:
        lam = np.linalg.eigvals(B)
    except np.linalg.LinAlgError as exc:
        raise EigenFailure(f"eigenvalue computation failed: {exc}") from exc
    return lam.real.max(axis=1)


def spectral_abscissa(A) -> float:
    """Largest real part over the spectrum of A."""
    A = as_square_matrix(A)
    return float(_abscissa_many(A, np.zeros((1, A.shape[0])))[0])


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


def check_measure_sandwich(A, norm: ValidatedNorm) -> SandwichReport:
    """Verify s(A) <= mu(A) <= ||A|| to TOL_EXACT under an exact route."""
    if norm.route == "estimated":
        raise NoExactPath("sandwich check requires an exact measure route")
    A = _bind_matrix(A, norm)
    s = spectral_abscissa(A)
    mu = matrix_measure(A, norm).value
    nv = induced_matrix_norm(A, norm).value
    passed = (s <= mu + TOL_EXACT) and (mu <= nv + TOL_EXACT)
    return SandwichReport(s, mu, nv, passed)
