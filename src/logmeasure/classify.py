"""Norm classification: absolute (= monotonic) and orthant-monotonic.

A norm is absolute when |x| = | abs(x) |, equivalently when every sign
diagonal has induced norm exactly 1. It is orthant-monotonic when
entrywise domination inside a common orthant implies norm domination,
equivalently when every coordinate-deleting projection P_j is
nonexpansive (||P_j|| <= 1). Absolute implies orthant-monotonic; the
hexagon norm (l_inf on agreeing signs, l_1 otherwise) shows the
converse fails.

Exactness hierarchy: polytope-ball norms and scaled l_1/l_2/l_inf norms
are decided exactly (finite vertex or closed-form operator checks);
everything else falls back to seeded sampling with exact=False on a
pass. A counterexample found by any route makes the verdict exact: the
witness re-checks by direct evaluation.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .common import DEFAULT_SEED, TOL_EXACT, _sample_nonneg_diagonals, as_rng
from .errors import DimensionMismatch, NoExactPath, UnsupportedDimension
from .measures import _closed_norm_many, induced_matrix_norm
from .norms import MAX_SIGN_ENUM_DIM, ValidatedNorm

# Sign-diagonal enumeration cost is 2**n; beyond this we sample instead.
MAX_SIGN_DIAG_DIM = 20

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


def _sign_patterns(n: int):
    return itertools.product((1.0, -1.0), repeat=n)


def is_absolute(
    norm: ValidatedNorm,
    *,
    seed: int | np.random.Generator | None = DEFAULT_SEED,
) -> Verdict:
    """Decide |x| = |abs(x)| for all x."""
    if norm.kind == "lp":
        # l_p norms depend on entry magnitudes only.
        return Verdict(True, True, None, 0)
    n = _require_dim(norm)
    if norm.route in ("scaled_closed", "polyhedral") and n > MAX_SIGN_DIAG_DIM:
        raise UnsupportedDimension(
            f"sign-diagonal enumeration is 2**n; capped at n={MAX_SIGN_DIAG_DIM}"
        )

    if norm.route == "scaled_closed":
        # Absolute iff every sign diagonal has induced norm 1. One at a time:
        # a stack of all 2**n diagonals would not fit in memory at the cap.
        checks = 0
        for signs in _sign_patterns(n):
            S = np.diag(signs)
            checks += 1
            val = induced_matrix_norm(S, norm).value
            if abs(val - 1.0) > TOL_EXACT:
                return Verdict(False, True, _sign_normalize(S), checks)
        return Verdict(True, True, None, checks)

    if norm._polytope is not None:
        V = norm._polytope.vertices
        # Sign flips must keep every extreme point on the unit sphere.
        checks = 0
        for signs in _sign_patterns(n):
            s = np.asarray(signs)
            vals = norm.evaluate_many(V * s[None, :])
            checks += V.shape[0]
            bad = np.abs(vals - 1.0) > TOL_EXACT
            if np.any(bad):
                v = V[int(np.argmax(bad))]
                if abs(float(norm.evaluate_many(np.abs(v)[None, :])[0]) - 1.0) > TOL_EXACT:
                    witness = v
                else:
                    witness = v * s
                return Verdict(False, True, _sign_normalize(witness), checks)
        return Verdict(True, True, None, checks)

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

    if norm.route == "scaled_closed":
        idx = np.arange(n)
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
        checks = 0
        for j in range(n):
            W = V.copy()
            W[:, j] = 0.0
            vals = norm.evaluate_many(W)
            checks += V.shape[0]
            bad = vals > 1.0 + TOL_EXACT
            if np.any(bad):
                return Verdict(False, True, _sign_normalize(V[int(np.argmax(bad))]), checks)
        return Verdict(True, True, None, checks)

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


def diag_norm_identity_check(
    norm: ValidatedNorm,
    *,
    seed: int | np.random.Generator | None = DEFAULT_SEED,
) -> Verdict:
    """Check ||D|| = max_i d_ii over 100 sampled nonnegative diagonal matrices
    (more when n > 32, so that every structured diagonal runs).

    Holds for all of them iff the norm is orthant-monotonic, so this is
    the operator-side probe of that classification. Sampling makes a pass
    inexact; a violating D is an exact counterexample.
    """
    if norm.route == "estimated":
        raise NoExactPath("diagonal identity check requires an exact induced-norm route")
    n = _require_dim(norm)
    if n > MAX_SIGN_ENUM_DIM and norm.route == "polyhedral":
        raise UnsupportedDimension("vertex sets unavailable at this dimension")

    diags = _sample_nonneg_diagonals(n, max(100, 3 * n + 2), as_rng(seed))
    # One at a time: a stack of polytope scores would hold k x F x V entries.
    checks = 0
    for d in diags:
        D = np.diag(d)
        checks += 1
        val = induced_matrix_norm(D, norm).value
        if abs(val - float(d.max())) > TOL_EXACT:
            return Verdict(False, True, D, checks)
    return Verdict(True, False, None, checks)
