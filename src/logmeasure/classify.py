"""Norm classification: absolute (= monotonic) and orthant-monotonic.

A norm is absolute when |x| = | abs(x) |, equivalently when every sign
diagonal has induced norm exactly 1. It is orthant-monotonic when
entrywise domination inside a common orthant implies norm domination,
equivalently when every coordinate-deleting projection P_j is
nonexpansive (||P_j|| <= 1). Absolute implies orthant-monotonic; the
hexagon norm (l_inf on agreeing signs, l_1 otherwise) shows the
converse fails.

Exactness hierarchy: polytope-ball norms and scaled l_1/l_2/l_inf norms
are decided exactly, by n checks each: the sign diagonals are generated
by the n single flips and the 0/1 diagonals by the n projections, so
convexity reduces every condition to those: one closed-form number per
coordinate for a scaled l_1/l_2/l_inf norm (O(n^2) in all), or the images
under them of a polytope ball's extreme points. Bare l_p norms are
absolute. That leaves scaled generic l_p norms (1 < p < inf, p != 2),
which fall back to seeded sampling with exact=False on a pass. A
counterexample found by any route makes the verdict exact: the witness
re-checks by direct evaluation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .common import DEFAULT_SEED, TOL_EXACT, as_rng
from .errors import DimensionMismatch, NoExactPath
from .measures import _rank_one_many
from .norms import ValidatedNorm

# Sampled vectors behind a classifier verdict with no exact route.
_SAMPLES = 10_000


@dataclass
class Verdict:
    """Outcome of a classification check.

    holds/exact follow the hierarchy above. witness, when present, is a
    vector x with |x| != |abs(x)| (absoluteness), a vector x with
    |P_j x| > |x| for some j (orthant monotonicity), or a diagonal matrix
    violating the checked identity. checks_run counts elementary checks.
    """

    holds: bool
    exact: bool
    witness: np.ndarray | None
    checks_run: int

    def to_jsonable(self) -> dict:
        return {
            "holds": self.holds,
            "exact": self.exact,
            "witness": None if self.witness is None else self.witness.tolist(),
            "checks_run": self.checks_run,
        }


def _sign_normalize(w: np.ndarray) -> np.ndarray:
    """Flip w -> -w when its first nonzero entry is negative (norms are even)."""
    flat = np.diag(w) if w.ndim == 2 else w
    nz = np.nonzero(flat)[0]
    if nz.size and flat[nz[0]] < 0:
        return -w
    return w


def _require_dim(norm: ValidatedNorm) -> int:
    if norm.dim is None:
        raise DimensionMismatch("classification needs a bound dimension; validate with dim=...")
    return norm.dim


def is_absolute(
    norm: ValidatedNorm,
    *,
    seed: int | np.random.Generator | None = DEFAULT_SEED,
) -> Verdict:
    """Decide |x| = |abs(x)| for all x.

    The norm is absolute iff every sign diagonal is an isometry. Those
    form a group generated by the single flips S_i, and ||S_i|| >= 1
    since S_i^2 = I, so it is enough that ||S_i|| = 1 for each i (on a
    polytope: S_i keeps every extreme point on the unit sphere). The
    flips are checked in the order S_n, ..., S_1, so the first failing
    flip is the first failing pattern of the 2^n sign patterns listed
    with the last sign varying fastest; checks_run counts the flips read
    (times the vertex count on a polytope).
    """
    if norm.kind == "lp":
        # l_p norms depend on entry magnitudes only.
        return Verdict(True, True, None, 0)
    n = _require_dim(norm)

    if norm.route != "estimated":
        vals, first = _coordinate_checks(norm, "flip")
        if first is None:
            return Verdict(True, True, None, vals.size)
        k, i = first
        flip = np.where(np.arange(n) == n - 1 - k, -1.0, 1.0)
        if norm._polytope is None:
            witness = np.diag(flip)
        else:
            v = norm._polytope.vertices[i]
            witness = v if abs(float(norm.evaluate_many(np.abs(v)[None, :])[0]) - 1.0) > TOL_EXACT else v * flip
        return Verdict(False, True, _sign_normalize(witness), (k + 1) * vals.shape[1])

    rng = as_rng(seed)
    X = rng.standard_normal((_SAMPLES, n))
    with np.errstate(over="ignore", invalid="ignore"):
        va = norm.evaluate_many(X)
        vb = norm.evaluate_many(np.abs(X))
        bad = np.abs(va - vb) > TOL_EXACT * (1.0 + np.abs(va))
    if np.any(bad):
        return Verdict(False, True, _sign_normalize(X[int(np.argmax(bad))]), _SAMPLES)
    return Verdict(True, False, None, _SAMPLES)


def _projection_witness_scaled(norm: ValidatedNorm, j: int) -> np.ndarray:
    """Unit vector x with |P_j x| = ||P_j|| for a scaled l_1/l_2/l_inf norm."""
    P = np.eye(norm.dim)
    P[j, j] = 0.0
    M = norm.flat_T @ P @ norm.flat_Tinv
    if norm.core_p == 1:
        y = np.eye(norm.dim)[int(np.abs(M).sum(axis=0).argmax())]
    elif norm.core_p == math.inf:
        y = np.where(M[int(np.abs(M).sum(axis=1).argmax())] >= 0, 1.0, -1.0)
    else:
        y = np.linalg.svd(M)[2][0]
        y = y / float(np.linalg.norm(y))
    return norm.flat_Tinv @ y


def _coordinate_checks(norm: ValidatedNorm, what: str) -> tuple[np.ndarray, tuple[int, int] | None]:
    """The table of ||M_j|| (one column) or of |M_j v| (a column per extreme
    point v of a polytope ball) for the projections P_1, ..., P_n, checked
    for ||P_j|| <= 1, or the flips S_n, ..., S_1, checked for ||S_j|| = 1;
    and the row and column where a one-at-a-time check stops (None if it
    does not): a violation, or a non-finite value, which it reports."""
    if norm._polytope is None:
        vals = _rank_one_many(norm, what)[:, None]
    else:
        V = norm._polytope.vertices
        (m, n), idx = V.shape, np.arange(V.shape[1])
        W = np.repeat(V[None], n, axis=0)
        W[idx, :, idx] = 0.0 if what == "projection" else -V.T
        vals = norm.evaluate_many(W.reshape(n * m, n)).reshape(n, m)
    if what == "flip":
        vals = vals[::-1]
    stop = ~np.isfinite(vals) | (np.abs(vals - 1.0) > TOL_EXACT if what == "flip" else vals > 1.0 + TOL_EXACT)
    if not stop.any():
        return vals, None
    j, i = divmod(int(np.argmax(stop)), stop.shape[1])
    if not np.isfinite(vals[j, i]):
        raise ValueError(f"non-finite result value {vals[j, i]}")
    return vals, (j, i)


def is_orthant_monotonic(
    norm: ValidatedNorm,
    *,
    seed: int | np.random.Generator | None = DEFAULT_SEED,
) -> Verdict:
    """Decide ||P_j|| <= 1 for every coordinate-deleting projection P_j."""
    if norm.kind == "lp":
        # Absolute norms are orthant-monotonic.
        return Verdict(True, True, None, 0)
    n = _require_dim(norm)

    if norm.route != "estimated":
        vals, first = _coordinate_checks(norm, "projection")
        if first is None:
            return Verdict(True, True, None, vals.size)
        j, i = first
        x = _projection_witness_scaled(norm, j) if norm._polytope is None else norm._polytope.vertices[i]
        return Verdict(False, True, _sign_normalize(x), (j + 1) * vals.shape[1])

    rng = as_rng(seed)
    X = rng.standard_normal((_SAMPLES, n))
    with np.errstate(over="ignore", invalid="ignore"):
        base = norm.evaluate_many(X)
        checks = 0
        for j in range(n):
            W = X.copy()
            W[:, j] = 0.0
            vals = norm.evaluate_many(W)
            checks += _SAMPLES
            bad = vals > base + TOL_EXACT * (1.0 + base)
            if np.any(bad):
                return Verdict(False, True, _sign_normalize(X[int(np.argmax(bad))]), checks)
    return Verdict(True, False, None, checks)


def diag_norm_identity_check(norm: ValidatedNorm) -> Verdict:
    """Decide ||D|| = max_i d_ii for every nonnegative diagonal D.

    ||D|| >= |D e_i| / |e_i| = d_i always. d -> ||diag d|| is convex, so
    on the box [0, max d]^n it peaks at max d times a 0/1 diagonal, which
    is a product of the coordinate-deleting projections P_j. So the
    identity holds iff ||P_j|| <= 1 for every j, the check that
    is_orthant_monotonic reads (none for a bare l_p norm, which is
    absolute). The witness is the first P_j with ||P_j|| > 1.
    """
    if norm.route == "estimated":
        raise NoExactPath("diagonal identity check requires an exact induced-norm route")
    n = _require_dim(norm)
    if norm.kind == "lp":
        return Verdict(True, True, None, 0)
    _, first = _coordinate_checks(norm, "projection")
    if first is None:
        return Verdict(True, True, None, n)
    P = np.eye(n)
    P[first[0], first[0]] = 0.0
    return Verdict(False, True, P, first[0] + 1)
