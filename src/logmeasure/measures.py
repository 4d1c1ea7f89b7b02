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
of exactness. Those are exactly the norms with an l_p core, 1 < p < inf
(``Lp(p)`` and ``Scaled(T, Lp(p))``), since validation refuses piecewise
specs without a polytope ball. Each gets a certified bracket [lower, upper]
of the quantity of M = T A T^-1 under |.|_p, computed in numpy; the result is
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

In two dimensions a branch-and-bound over the angle t of x = (cos t, sin t)
closes the bracket to ``BRACKET_GAP`` times sum |M_ij|, unless
``BRACKET_MAX_EVALS`` stops it first. It splits each open interval of an
end-point grid of [0, pi], which starts at 64 intervals, into 16 equal
parts per round while at most 24 are open (with more open it halves them,
the highest-bound ones first near the cap), and bounds each by the smaller
of a first-order bound, from a Lipschitz constant of the quotient in t, and
a second-order one (Breiman & Cutler 1993), from a bound K on the second
derivative in t of |Mx|_p^p / |x|_p^p or of phi(x).Mx / |x|_p, which the
row norms of M and |x|_p^p >= 2^(1 - p/2) give. Only the first-order bound applies where K
overflows (very large p) and, for the measure at 2 < p < 3, on an interval
that reaches an axis. In any other dimension the lower bound comes from a
stacked ascent and the bracket can be wide.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .common import TOL_EXACT, as_rng, as_square_matrix
from .errors import DimensionMismatch, EigenFailure, NoExactPath
from .norms import ValidatedNorm, _lp_eval_many


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
        if not (math.isfinite(self.value) and math.isfinite(self.error_bound)):
            raise ValueError(f"non-finite result: value {self.value}, error_bound {self.error_bound}")
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
    """S in the coordinates of the norm's l_p core; an overflow gives a
    non-finite entry, which the caller reports, and no numpy warning."""
    with np.errstate(over="ignore", invalid="ignore"):
        return S if norm.flat_T is None else norm.flat_T @ S @ norm.flat_Tinv


# The two kernels below also take a (k, n, n) stack, whose every entry is
# bit-identical to a one-by-one evaluation.


def _closed_norm_many(S: np.ndarray, norm: ValidatedNorm) -> np.ndarray:
    """Closed-form induced norm of each matrix; an overflow gives a
    non-finite value, which the caller reports, and no numpy warning."""
    with np.errstate(over="ignore", invalid="ignore"):
        return _closed_norm_core(_core_frame(S, norm), norm.core_p)


def _closed_norm_core(S: np.ndarray, p: float) -> np.ndarray:
    """Closed-form l_p induced norm of each matrix, p in {1, 2, inf}."""
    if p in (1, math.inf):
        return np.abs(S).sum(axis=-2 if p == 1 else -1).max(axis=-1)
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
    """Closed-form l_p measure of each matrix, p in {1, 2, inf}: for l_inf
    the largest s_ii + sum_{k != i} |s_ik|, for l_1 the same over columns."""
    if p in (1, math.inf):
        R = np.where(np.eye(S.shape[-1], dtype=bool), S, np.abs(S))
        return R.sum(axis=-2 if p == 1 else -1).max(axis=-1)
    try:
        return np.linalg.eigvalsh(0.5 * (S + S.swapaxes(-1, -2)))[..., -1]
    except np.linalg.LinAlgError as exc:  # pragma: no cover
        raise EigenFailure(f"symmetric eigensolver failed: {exc}") from exc


def _rank_one_many(norm: ValidatedNorm, what: str) -> np.ndarray:
    """||P_j|| (``'projection'``), ||S_j|| (``'flip'``) or mu(-E_j) (``'ray'``)
    for every j under a norm on a closed-form route: P_j deletes coordinate
    j, S_j flips its sign, E_j = diag(e_j). T (flat_T, or I) conjugates them
    to I - u w^T, I - 2 u w^T and u w^T, u = T e_j and w^T = e_j^T T^-1
    (Szyld, Numer. Algorithms 42, 2006), so each costs O(n). Under l_inf,
    row i of I - c u w^T sums to |1 - c u_i w_i| + c |u_i| sum_{l != i} |w_l|
    and mu(-u w^T) is the largest |u_i| sum_{l != i} |w_l| - u_i w_i; l_1
    swaps u and w. Under l_2 (a 1-D core is l_1), k = |u| |w| is ||P_j||,
    (k - 1)/2 is mu(-E_j) and ||S_j|| = k + sqrt(k^2 - 1) is taken as
    k + |u| |r|, r the part of w orthogonal to u, free of the cancellation
    near k = 1. An overflow gives a non-finite value, which the caller
    reports, and no numpy warning."""
    U = np.eye(norm.dim) if norm.flat_T is None else norm.flat_T
    Wt = U if norm.flat_T is None else norm.flat_Tinv.T  # column j is w_j
    with np.errstate(over="ignore", invalid="ignore"):
        if norm.core_p == 2:
            # hypot keeps the column norms free of overflow and underflow
            nu = np.hypot.reduce(U, axis=0)
            k = nu * np.hypot.reduce(Wt, axis=0)
            if what == "projection":
                return k
            if what == "ray":
                return (k - 1.0) / 2.0
            Uh = U / nu
            return k + nu * np.hypot.reduce(Wt - Uh * (Uh * Wt).sum(axis=0), axis=0)
        a, b = (U, Wt) if norm.core_p == math.inf else (Wt, U)
        Ab = np.abs(b)
        off = np.abs(a) * (Ab.sum(axis=0) - Ab)
        if what == "ray":
            return (off - a * b).max(axis=0)
        c = 1.0 if what == "projection" else 2.0
        return (np.abs(1.0 - c * (a * b)) + c * off).max(axis=0)


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
_TINY = float(np.finfo(float).tiny)


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


def _riesz_thorin(M: np.ndarray, p: float, quantity: str, m2: float) -> float:
    """The smaller of the (2, inf) and (1, inf) interpolation caps, p >= 2;
    m2 is ||M||_2."""
    th2, th1 = 2.0 / p, 1.0 / p
    if quantity == "norm":
        n1, ninf = (float(_closed_norm_core(M, r)) for r in (1, math.inf))
        return min(m2**th2 * ninf ** (1 - th2), n1**th1 * ninf ** (1 - th1))
    m1, mu2, minf = (float(_closed_mu_core(M, r)) for r in (1, 2, math.inf))
    return min(th2 * mu2 + (1 - th2) * minf, th1 * m1 + (1 - th1) * minf)


def _curvature(M, p, quantity, b):
    """Bound K on |F''| in t, F the function that ``_branch_and_bound``
    bounds to second order, as a function of the end points Xa, Xb (rows)
    of the intervals. Only the measure at 2 < p < 3 has a K per interval;
    every other case has one number, computed here once per bracket.

    With x = (cos t, sin t), y = Mx, S_z = sum |z_i|^p and r_i the 2-norm
    of row i of M, p >= 2 gives |S_x'| <= p, |S_x''| <= p(p - 1),
    S_x >= 2^(1 - p/2) = 1/s, and, as y_i = r_i cos(t - theta_i),
    |S_y'| <= p sum r_i^p and |S_y''| <= p(p - 1) sum r_i^p. The quotient
    rule then bounds the norm's R = S_y/S_x, taken relative to the level
    b > 0 as R/b^p, the same on every interval. The measure's G = P/S_x, with
    P = sum psi(x_i) y_i and psi(z) = sign(z)|z|^(p-1), has |P| <= r_1 + r_2,
    |P'| <= p (r_1 + r_2) and |P''| <= sum r_i ((p-1)(p-2) w_i^(p-3) + 3p - 2),
    where w_i^(p-3) <= 1 for p >= 3 and, for 2 < p < 3, w_i is the smaller
    end point |x_i| of the interval; an interval on which x_i changes sign
    or vanishes reaches an axis and gets no bound (inf). An overflow, as at
    p = 1e6, gives inf too.
    """
    with np.errstate(over="ignore"):
        s = np.exp2(p / 2 - 1)
        tail = (3 * p * p - p) * s**2 + 2 * p * p * s**3
    r = np.hypot(M[:, 0], M[:, 1])
    if quantity == "measure" and p < 3:

        def per_interval(Xa, Xb):
            w = np.where(Xa * Xb > 0, np.minimum(np.abs(Xa), np.abs(Xb)), 0.0)
            k = s * (((p - 1) * (p - 2) * np.maximum(w, _TINY) ** (p - 3) + 3 * p - 2) @ r) + tail * r.sum()
            return np.where((w > 0).all(axis=1), k, math.inf)

        return per_interval
    with np.errstate(over="ignore"):
        if not math.isfinite(tail):
            k = math.inf
        elif quantity == "norm":
            k = (p * (p - 1) * s + tail) * float(((r / b) ** p).sum())
        else:
            k = (s * ((p - 1) * (p - 2) + 3 * p - 2) + tail) * float(r.sum())
    return lambda Xa, Xb: k


# Parts into which a round of the 2-D search splits each open interval while
# at most _WIDE_OPEN are open. A round costs about 60 small numpy calls
# whatever its row count, and 16 parts close a typical bracket in 3-4 rounds,
# where halving took about 9. With more open, a wide round spends rows that
# halving keeps for later, and a search stopped by the cap ends wider: up to
# 19% wider than under halving when rounds split 16 ways until one would
# take 1/8 of the rows left. With at most 24 open, none of 3,960 random
# brackets that reach the cap is wider than under halving.
_SPLITS = 16
_WIDE_OPEN = 24


def _branch_and_bound(M, p, quantity, lower, upper, gap, qpad, m2):
    """Certified bracket for n = 2 over x = (cos t, sin t), t in [0, pi].

    Both quotients are even in x, so [0, pi] covers the circle. The search
    starts from 64 equal intervals, so pi/2 is an end point, and splits
    every open interval into _SPLITS equal parts as one batch, each new end
    point costing one quotient, while at most _WIDE_OPEN intervals are open
    and the evaluation cap leaves room. Otherwise it halves the open
    intervals, and when the cap leaves fewer splits than open intervals,
    the intervals with the highest bounds. An interval of halfwidth hw with
    end values f(a), f(b) is bounded by the smaller of two bounds, each
    plus the evaluation pad:

    * first order: with c = 2^(1/p - 1/2) <= |x|_p, ||D phi||_2 <= (p-1)/|x|_p,
      |phi|_2 <= |phi|_q = 1 and |Mx|_p <= ||M||_2 = m2, f is Lipschitz in t
      with L = m2 (1/c + 1/c^2) for the norm and m2 (p/c^2 + 1/c) for the
      measure, so f <= (f(a) + f(b))/2 + L hw;
    * second order (Breiman & Cutler 1993): with |F''| <= K on the interval,
      F <= max(F(a), F(b)) + K hw^2/2. For the measure F is the quotient
      itself; for the norm F = (f/b)^p, b the lower bound after the
      starting grid (so no power overflows), and the bound on f is b
      times its p-th root. K comes from ``_curvature``; it is inf, and
      only the first-order bound applies, where it overflows (very large
      p) and, for the measure at 2 < p < 3, on an interval that reaches an
      axis.

    The pads also cover the rounding of the bounds, which is a few ulps of
    a value at most sum |M_ij|. Every interval whose bound exceeds the best
    value by more than gap stays open. Upper is the largest bound of a
    pruned or still open interval, so it stays certified when the
    evaluation cap stops the search.
    """
    c = 2.0 ** (1.0 / p - 0.5)
    lip = m2 * (1 / c + 1 / c**2) if quantity == "norm" else m2 * (p / c**2 + 1 / c)
    t = np.linspace(0.0, math.pi, 65)
    X = np.column_stack([np.cos(t), np.sin(t)])
    f = _lp_quotients(M, p, X, quantity)
    evals = t.size
    lower = max(lower, float(f.max()) - qpad)
    b = max(lower, _TINY)
    curvature = _curvature(M, p, quantity, b)
    ta, tb, Xa, Xb, fa, fb = t[:-1], t[1:], X[:-1], X[1:], f[:-1], f[1:]
    ceiling = -math.inf
    while True:
        hw = (tb - ta) / 2
        peak = np.maximum(fa, fb) + qpad
        with np.errstate(over="ignore"):
            K = curvature(Xa, Xb)
            if quantity == "norm":
                second = b * ((peak / b) ** p + K * (hw * hw / 2)) ** (1 / p) + qpad
            else:
                second = peak + K * (hw * hw / 2)
        bounds = np.minimum((fa + fb) / 2 + (lip * hw + qpad), second)
        open_ = bounds > lower + gap
        ceiling = max(ceiling, float(bounds[~open_].max(initial=-math.inf)))
        ta, tb, Xa, Xb, fa, fb, bounds = (v[open_] for v in (ta, tb, Xa, Xb, fa, fb, bounds))
        top = max(ceiling, float(bounds.max(initial=-math.inf)))
        left = BRACKET_MAX_EVALS - evals
        k = min(ta.size, left)
        if k == 0 or min(top, upper) - lower <= gap:
            return lower, min(top, upper)
        parts = _SPLITS if ta.size <= _WIDE_OPEN and (_SPLITS - 1) * ta.size <= left else 2
        if k < ta.size:  # the cap leaves only k splits: take the highest bounds
            order = np.argsort(-bounds)
            ta, tb, Xa, Xb, fa, fb = (v[order] for v in (ta, tb, Xa, Xb, fa, fb))
        # row i holds the inner end points of the parts of interval i
        tm = ta[:k, None] + (tb[:k] - ta[:k])[:, None] * (np.arange(1, parts) / parts)
        Xm = np.stack([np.cos(tm), np.sin(tm)], axis=-1)
        fm = _lp_quotients(M, p, Xm.reshape(-1, 2), quantity).reshape(tm.shape)
        evals += fm.size
        lower = max(lower, float(fm.max()) - qpad)
        (ta, tb), (Xa, Xb), (fa, fb) = (_parts(*v, k) for v in ((ta, tm, tb), (Xa, Xm, Xb), (fa, fm, fb)))


def _parts(a, inner, b, k):
    """Left and right end points of the parts that cut each of the first k
    intervals [a, b] at the points in its row of inner, then of the other
    intervals, left whole."""
    ends = np.concatenate([a[:k, None], inner, b[:k, None]], axis=1)
    shape = (-1, *a.shape[1:])
    return np.concatenate([ends[:, :-1].reshape(shape), a[k:]]), np.concatenate([ends[:, 1:].reshape(shape), b[k:]])


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
    with np.errstate(over="ignore", invalid="ignore"):
        m2 = float(_closed_norm_core(M, 2))
        upper = _riesz_thorin(M, p, quantity, m2)
    if not math.isfinite(upper):
        raise ValueError(f"the Riesz-Thorin cap of this matrix is {upper}; the l_p bracket needs it finite")
    if quantity == "norm":
        lower = max(0.0, float(_lp_eval_many(p, M.T).max()) - qpad)
    else:
        lower = float(M.diagonal().max())  # phi(e_j) = e_j exactly, giving m_jj
    if upper - lower > max(gap, 2 * qpad):
        if n == 2:
            lower, upper = _branch_and_bound(M, p, quantity, lower, upper, gap, qpad, m2)
        else:
            lower = _ascent(M, p, quantity, lower, upper, gap, qpad, seed)
    return MeasureResult(lower, "estimated", max(upper - lower, 0.0) + pad)


def induced_matrix_norm(
    A,
    norm: ValidatedNorm,
    *,
    seed: int | np.random.Generator | None = None,
) -> MeasureResult:
    """Operator norm of A induced by the vector norm: max_{|x|=1} |A x|.

    Exact on the closed and polyhedral routes. A norm with an l_p core,
    1 < p < inf, gets the bracket of the module doc: value is a lower bound
    attained at a concrete vector and value + error_bound an upper bound.
    """
    A = _bind_matrix(A, norm)
    route = norm.route
    if route in _CLOSED_METHODS:
        return MeasureResult(float(_closed_norm_many(A, norm)), _CLOSED_METHODS[route])
    if route == "polyhedral":
        return MeasureResult(norm._polytope.induced_norm(A), "exact_polyhedral")
    return _lp_bracket(_core_frame(A, norm), norm.core_p, "norm", seed)


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
    return _lp_bracket(_core_frame(A, norm), norm.core_p, "measure", seed)


def _abscissa_stack(M: np.ndarray) -> np.ndarray:
    """The spectral abscissa of every matrix in the stack M.

    The package's one general eigenvalue kernel: one stacked eigvals call,
    in which LAPACK sees the matrices one by one, so each entry is
    bit-identical to a call on that matrix alone.
    """
    try:
        lam = np.linalg.eigvals(M)
    except np.linalg.LinAlgError as exc:
        raise EigenFailure(f"eigenvalue computation failed: {exc}") from exc
    return lam.real.max(axis=1)


def _abscissa_many(A: np.ndarray, d_rows: np.ndarray) -> np.ndarray:
    """spectral_abscissa(A - diag(d)) for every row d of d_rows."""
    n = A.shape[0]
    idx = np.arange(n)
    B = np.repeat(A[None, :, :], d_rows.shape[0], axis=0)
    B[:, idx, idx] -= d_rows
    return _abscissa_stack(B)


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
