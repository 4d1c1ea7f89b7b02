"""Reference values computed without the library's routes.

Every formula here is written from the textbook definition, so a check
compares the library against an independent computation rather than
against itself:

* l_1 / l_2 / l_inf induced norms and measures in closed form, applied to
  ``F A F^-1`` for a norm ``|x| = |F x|_p``;
* polytope gauges from the facet normals of a fresh convex hull, with the
  measure taken as ``max over vertices v and facets F active at v of
  n_F . (A v)`` (the standard polyhedral Lyapunov formula, not the
  library's halving quotient);
* spectral abscissa and radius straight from ``numpy.linalg.eigvals``;
* the coupled-pair trajectory from ``scipy.linalg.expm``.
"""

from __future__ import annotations

import math

import numpy as np


def abscissa(A: np.ndarray) -> float:
    return float(np.linalg.eigvals(A).real.max())


def spectral_radius(A: np.ndarray) -> float:
    return float(np.abs(np.linalg.eigvals(A)).max())


def closed_norm(M: np.ndarray, p: float) -> float:
    if p == 1:
        return float(np.abs(M).sum(axis=0).max())
    if p == math.inf:
        return float(np.abs(M).sum(axis=1).max())
    return float(np.linalg.svd(M, compute_uv=False)[0])


def closed_mu(M: np.ndarray, p: float) -> float:
    d = np.diag(M)
    off = np.abs(M) - np.diag(np.abs(d))
    if p == 1:
        return float((d + off.sum(axis=0)).max())
    if p == math.inf:
        return float((d + off.sum(axis=1)).max())
    return float(np.linalg.eigvalsh(0.5 * (M + M.T)).max())


class ClosedRef:
    """|x| = |F x|_p for p in {1, 2, inf}."""

    def __init__(self, p: float, F: np.ndarray):
        self.p = p
        self.F = np.asarray(F, dtype=float)
        self.Finv = np.linalg.inv(self.F)

    def norm_of(self, x) -> float:
        return float(np.linalg.norm(self.F @ np.asarray(x, dtype=float), self.p))

    def mu(self, A) -> float:
        return closed_mu(self.F @ A @ self.Finv, self.p)

    def induced(self, A) -> float:
        return closed_norm(self.F @ A @ self.Finv, self.p)


class PolyRef:
    """Gauge of the symmetric polytope conv(V), from its facet normals."""

    def __init__(self, V: np.ndarray):
        from scipy.spatial import ConvexHull

        V = np.asarray(V, dtype=float)
        hull = ConvexHull(V)
        eq = hull.equations
        self.normals = eq[:, :-1] / (-eq[:, -1])[:, None]
        self.vertices = V[np.unique(hull.vertices)]
        # facets active at each vertex: n_F . v = 1
        self.active = np.abs(self.vertices @ self.normals.T - 1.0) <= 1e-9

    def norm_of(self, x) -> float:
        return float(max((self.normals @ np.asarray(x, dtype=float)).max(), 0.0))

    def mu(self, A) -> float:
        scores = (self.vertices @ A.T) @ self.normals.T
        return float(np.where(self.active, scores, -np.inf).max())

    def induced(self, A) -> float:
        return float(((self.vertices @ A.T) @ self.normals.T).max())


def close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * (1.0 + abs(a) + abs(b))


def coupled_block(A: np.ndarray, d: np.ndarray) -> np.ndarray:
    D = np.diag(d)
    return np.block([[A - D, D], [D, A - D]])


def expm_state(A: np.ndarray, d: np.ndarray, y0: np.ndarray, t: float) -> np.ndarray:
    from scipy.linalg import expm

    return expm(coupled_block(A, d) * t) @ y0
