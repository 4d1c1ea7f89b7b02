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
from .measures import induced_matrix_norm
from .norms import MAX_SIGN_ENUM_DIM, ValidatedNorm

# Sign-diagonal enumeration cost is 2**n; beyond this we sample instead.
MAX_SIGN_DIAG_DIM = 20


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
    samples: int = 10_000,
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
        # Absolute iff every sign diagonal has induced norm 1.
        checks = 0
        for signs in _sign_patterns(n):
            S = np.diag(signs)
            checks += 1
            val = induced_matrix_norm(S, norm).value
            if abs(val - 1.0) > TOL_EXACT:
                return Verdict(False, True, _sign_normalize(S), checks)
        return Verdict(True, True, None, checks)

    V = norm.ball_vertices
    if V is not None:
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
    X = rng.standard_normal((samples, n))
    va = norm.evaluate_many(X)
    vb = norm.evaluate_many(np.abs(X))
    bad = np.abs(va - vb) > TOL_EXACT * (1.0 + np.abs(va))
    if np.any(bad):
        return Verdict(False, True, _sign_normalize(X[int(np.argmax(bad))]), samples)
    return Verdict(True, False, None, samples)


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
    samples: int = 10_000,
) -> Verdict:
    """Decide ||P_j|| <= 1 for every coordinate-deleting projection P_j."""
    if norm.kind == "lp":
        # Absolute norms are orthant-monotonic.
        return Verdict(True, True, None, 0)
    n = _require_dim(norm)

    if norm.route == "scaled_closed":
        checks = 0
        for j in range(n):
            P = np.eye(n)
            P[j, j] = 0.0
            checks += 1
            val = induced_matrix_norm(P, norm).value
            if val > 1.0 + TOL_EXACT:
                x = _projection_witness_scaled(norm, j)
                return Verdict(False, True, _sign_normalize(x), checks)
        return Verdict(True, True, None, checks)

    V = norm.ball_vertices
    if V is not None:
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
    X = rng.standard_normal((samples, n))
    base = norm.evaluate_many(X)
    checks = 0
    for j in range(n):
        W = X.copy()
        W[:, j] = 0.0
        vals = norm.evaluate_many(W)
        checks += samples
        bad = vals > base + TOL_EXACT * (1.0 + base)
        if np.any(bad):
            return Verdict(False, True, _sign_normalize(X[int(np.argmax(bad))]), checks)
    return Verdict(True, False, None, checks)


def diag_norm_identity_check(
    norm: ValidatedNorm,
    sample_count: int = 100,
    *,
    seed: int | np.random.Generator | None = DEFAULT_SEED,
) -> Verdict:
    """Check ||D|| = max_i d_ii over sampled nonnegative diagonal matrices.

    Holds for all of them iff the norm is orthant-monotonic, so this is
    the operator-side probe of that classification. Sampling makes a pass
    inexact; a violating D is an exact counterexample.
    """
    if norm.route == "estimated":
        raise NoExactPath("diagonal identity check requires an exact induced-norm route")
    n = _require_dim(norm)
    if n > MAX_SIGN_ENUM_DIM and norm.route == "polyhedral":
        raise UnsupportedDimension("vertex sets unavailable at this dimension")

    # every structured diagonal runs, however small sample_count is
    diags = _sample_nonneg_diagonals(n, max(sample_count, 3 * n + 2), as_rng(seed))
    checks = 0
    for d in diags:
        D = np.diag(d)
        checks += 1
        val = induced_matrix_norm(D, norm).value
        if abs(val - float(d.max())) > TOL_EXACT:
            return Verdict(False, True, D, checks)
    return Verdict(True, False, None, checks)
