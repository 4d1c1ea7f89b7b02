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
convexity reduces every condition to those (closed-form operator norms,
or the extreme points of the ball). Bare l_p norms are absolute. That
leaves scaled generic l_p norms (1 < p < inf, p != 2), which fall back to
seeded sampling with exact=False on a pass. A counterexample found by
any route makes the verdict exact: the witness re-checks by direct
evaluation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .common import DEFAULT_SEED, TOL_EXACT, as_rng
from .errors import DimensionMismatch, NoExactPath, UnsupportedDimension
from .measures import _closed_norm_many, induced_matrix_norm
from .norms import MAX_SIGN_ENUM_DIM, ValidatedNorm

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
    # row k flips coordinate n - 1 - k
    signs = 1.0 - 2.0 * np.eye(n)[::-1]

    if norm.route == "scaled_closed":
        idx = np.arange(n)
        S = np.zeros((n, n, n))
        S[:, idx, idx] = signs
        vals = _closed_norm_many(S, norm)
        # the first flip a one-at-a-time check stops at: a violation, or
        # a non-finite norm, which it reports as an error
        stop = ~np.isfinite(vals) | (np.abs(vals - 1.0) > TOL_EXACT)
        if not stop.any():
            return Verdict(True, True, None, n)
        k = int(np.argmax(stop))
        if not np.isfinite(vals[k]):
            raise ValueError(f"non-finite result value {vals[k]}")
        return Verdict(False, True, _sign_normalize(np.diag(signs[k])), k + 1)

    if norm._polytope is not None:
        V = norm._polytope.vertices
        m = V.shape[0]
        # every flip of every extreme point in one call, flip-major
        vals = norm.evaluate_many((signs[:, None, :] * V).reshape(n * m, n)).reshape(n, m)
        bad = np.abs(vals - 1.0) > TOL_EXACT
        if not bad.any():
            return Verdict(True, True, None, n * m)
        k = int(np.argmax(bad.any(axis=1)))
        v = V[int(np.argmax(bad[k]))]
        if abs(float(norm.evaluate_many(np.abs(v)[None, :])[0]) - 1.0) > TOL_EXACT:
            witness = v
        else:
            witness = v * signs[k]
        return Verdict(False, True, _sign_normalize(witness), (k + 1) * m)

    rng = as_rng(seed)
    X = rng.standard_normal((_SAMPLES, n))
    va = norm.evaluate_many(X)
    vb = norm.evaluate_many(np.abs(X))
    bad = np.abs(va - vb) > TOL_EXACT * (1.0 + np.abs(va))
    if np.any(bad):
        return Verdict(False, True, _sign_normalize(X[int(np.argmax(bad))]), _SAMPLES)
    return Verdict(True, False, None, _SAMPLES)


def _projection_witness_scaled(norm: ValidatedNorm, j: int) -> np.ndarray:
    """Unit vector x with |P_j x| = ||P_j|| for a scaled l_1/l_2/l_inf norm."""
    n = norm.dim
    P = np.eye(n)
    P[j, j] = 0.0
    M = norm.flat_T @ P @ norm.flat_Tinv
    p = norm.core_p
    if p == 1:
        k = int(np.abs(M).sum(axis=0).argmax())
        y = np.eye(n)[k]
    elif p == math.inf:
        i = int(np.abs(M).sum(axis=1).argmax())
        y = np.where(M[i] >= 0, 1.0, -1.0)
    else:
        _, _, vt = np.linalg.svd(M)
        y = vt[0]
        y = y / float(np.linalg.norm(y))
    return norm.flat_Tinv @ y


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
    idx = np.arange(n)

    if norm.route == "scaled_closed":
        P = np.repeat(np.eye(n)[None], n, axis=0)
        P[idx, idx, idx] = 0.0
        vals = _closed_norm_many(P, norm)
        # the first projection a one-at-a-time check stops at: a violation,
        # or a non-finite norm, which it reports as an error
        stop = ~np.isfinite(vals) | (vals > 1.0 + TOL_EXACT)
        if not stop.any():
            return Verdict(True, True, None, n)
        j = int(np.argmax(stop))
        if not np.isfinite(vals[j]):
            raise ValueError(f"non-finite result value {vals[j]}")
        x = _projection_witness_scaled(norm, j)
        return Verdict(False, True, _sign_normalize(x), j + 1)

    if norm._polytope is not None:
        V = norm._polytope.vertices
        m = V.shape[0]
        # every projection of every extreme point in one call, j-major
        W = np.repeat(V[None], n, axis=0)
        W[idx, :, idx] = 0.0
        bad = (norm.evaluate_many(W.reshape(n * m, n)) > 1.0 + TOL_EXACT).reshape(n, m)
        if not bad.any():
            return Verdict(True, True, None, n * m)
        j = int(np.argmax(bad.any(axis=1)))
        return Verdict(False, True, _sign_normalize(V[int(np.argmax(bad[j]))]), (j + 1) * m)

    rng = as_rng(seed)
    X = rng.standard_normal((_SAMPLES, n))
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
    identity holds iff ||P_j|| <= 1 for every j: the operator side of
    orthant monotonicity, decided exactly by n induced norms (none for a
    bare l_p norm, which is absolute). On the scaled_closed route these
    are the projection norms is_orthant_monotonic computes. The witness
    is the first P_j with ||P_j|| > 1.
    """
    if norm.route == "estimated":
        raise NoExactPath("diagonal identity check requires an exact induced-norm route")
    n = _require_dim(norm)
    if norm.kind == "lp":
        return Verdict(True, True, None, 0)
    if n > MAX_SIGN_ENUM_DIM and norm.route == "polyhedral":
        raise UnsupportedDimension("vertex sets unavailable at this dimension")

    for j in range(n):
        P = np.eye(n)
        P[j, j] = 0.0
        if abs(induced_matrix_norm(P, norm).value - float(P.max())) > TOL_EXACT:
            return Verdict(False, True, P, j + 1)
    return Verdict(True, True, None, n)
