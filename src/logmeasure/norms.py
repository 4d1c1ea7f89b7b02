"""Vector norm specifications, validation, evaluation, and ball geometry.

Supported families:

* ``Lp(p)`` for p in [1, inf],
* ``Scaled(T, inner)`` meaning ``|x| = inner(T x)`` for nonsingular T,
* ``Polyhedral(vertices)``, the Minkowski gauge of a centrally symmetric
  polytope given by its vertices,
* ``PiecewiseOrthant(cases)``, one inner norm per closed orthant, glued
  continuously along the coordinate hyperplanes.

``validate_norm_spec`` turns a raw spec into a ``ValidatedNorm`` carrying the
dimension, the analysis route used by the matrix-level operations, and one
representation of the norm, which evaluation, measures and classifiers
all read: an l_p core behind a collapsed change of coordinates
(``core_p``, ``flat_T``), or one ``_Polytope`` (extreme points, facet
normals and their incidence) for polytope balls.

Validation is exact and deterministic. A piecewise spec is accepted only
when every piece is a polytope and n <= MAX_PIECEWISE_VERTEX_DIM: it is
then decided exactly and held as its rebuilt ball alone. Any other
piecewise spec is refused, with NoExactPath for a non-polytopal piece and
UnsupportedDimension above the cap.

All functions are pure, and a ValidatedNorm is never mutated after
validation: the unit-ball vertices of a closed-form norm are derived on
demand by ``unit_ball_vertices``, so instances can be shared freely.

scipy.spatial (Qhull and the KD-tree) is imported only where hulls are
built for n >= 3: balls in one and two dimensions are built in numpy, so
importing the package, or working with planar norms, does not load it.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Mapping, Union

import numpy as np

from .common import TOL_VERTEX, as_vector
from .errors import (
    DegenerateBall,
    DimensionMismatch,
    NoExactPath,
    NotCentrallySymmetric,
    NotConvex,
    NotPolyhedral,
    SingularScaling,
    UnsupportedDimension,
    ValidationError,
)

# Enumerating the l-inf ball (or sign diagonals) costs 2**n; beyond this cap
# the package refuses rather than exhausting memory.
MAX_SIGN_ENUM_DIM = 16

# PiecewiseOrthant needs one case per orthant, 2**n of them, and is
# refused above this cap: rebuilding the glued ball from all-l_inf pieces
# (2**n facets each) takes about 0.14 s at n = 5 and 1.3 s at n = 6 on a
# 2-core x86 host.
MAX_PIECEWISE_VERTEX_DIM = 5


@dataclass(frozen=True, eq=False)
class Lp:
    """The l_p norm; p may be math.inf. Dimension-free until bound."""

    p: float


@dataclass(frozen=True, eq=False)
class Scaled:
    """|x| = inner(T x) for a nonsingular square matrix T."""

    T: np.ndarray
    inner: "NormSpec"


@dataclass(frozen=True, eq=False)
class Polyhedral:
    """Gauge of the centrally symmetric polytope conv(vertices)."""

    vertices: np.ndarray


@dataclass(frozen=True, eq=False)
class PiecewiseOrthant:
    """One inner norm per orthant, keyed by sign strings like '+-'."""

    cases: Mapping[str, "NormSpec"]


NormSpec = Union[Lp, Scaled, Polyhedral, PiecewiseOrthant]


def _near_pairs(P: np.ndarray, Q: np.ndarray, tol: float) -> np.ndarray:
    """Every (i, j) with max_k |P[i, k] - Q[j, k]| <= tol, for points in R^1
    or R^2, as a (pairs, 2) array: the pairs cKDTree finds, in numpy.

    Points are binned in a grid of side 2 tol, so a pair within tol lies in
    neighbouring cells however X / (2 tol) rounds, and each row of P is
    compared only with the rows of Q in the 3^n cells around its own: the
    work grows with the pairs found plus the rows, not with their product.
    Cell indices are clipped to 2**52, where a cell and its neighbours are
    still exact floats; the clipped cells (|x| >= 2**53 tol) merge only
    points farther than tol apart in that coordinate, which costs
    candidates, not pairs.
    """
    n = Q.shape[1]

    def cells(X):
        with np.errstate(over="ignore"):
            C = np.floor(np.clip(X / (2.0 * tol), -(2.0**52), 2.0**52))
        # a complex key sorts and searches lexicographically, as (x, y)
        return C[:, 0] + 1j * C[:, -1] if n == 2 else C[:, 0] + 0j

    keys = cells(Q)
    order = np.argsort(keys, kind="stable")
    sorted_keys = keys[order]
    steps = (-1.0, 0.0, 1.0)
    offsets = np.array([complex(dx, dy) for dx in steps for dy in (steps if n == 2 else (0.0,))])
    target = (cells(P)[:, None] + offsets).ravel()
    lo = np.searchsorted(sorted_keys, target, "left")
    count = np.searchsorted(sorted_keys, target, "right") - lo
    i = np.repeat(np.arange(target.size) // offsets.size, count)
    # the candidates of a target are the run sorted_keys[lo : lo + count]
    j = order[np.repeat(lo - np.cumsum(count) + count, count) + np.arange(i.size)]
    near = np.abs(P[i] - Q[j]).max(axis=1) <= tol
    return np.column_stack([i[near], j[near]])


def _dedup_rows(V: np.ndarray, tol: float) -> np.ndarray:
    """V without each row lying within tol (max-norm) of an earlier kept row."""
    if V.shape[1] <= 2:
        pairs = _near_pairs(V, V, tol)
        pairs = pairs[pairs[:, 0] < pairs[:, 1]]
    else:
        from scipy.spatial import cKDTree

        pairs = cKDTree(V).query_pairs(tol, p=np.inf, output_type="ndarray")
    keep = np.ones(V.shape[0], dtype=bool)
    # pairs come as i < j; walked in order of j, keep[i] is settled before
    # any pair (i, j) is read, as in a keep-first scan
    for i, j in pairs[np.lexsort(pairs.T)]:
        if keep[i]:
            keep[j] = False
    return V[keep]


def _check_symmetric(V: np.ndarray, tol: float) -> None:
    """Raise unless every row has an antipode within tol (max-norm)."""
    if V.shape[1] <= 2:
        missing = np.ones(V.shape[0], dtype=bool)
        missing[_near_pairs(-V, V, tol)[:, 0]] = False
    else:
        from scipy.spatial import cKDTree

        dist, _ = cKDTree(V).query(-V, p=np.inf)
        missing = dist > tol
    if np.any(missing):
        v = V[int(np.argmax(missing))]
        raise NotCentrallySymmetric(f"vertex {v.tolist()} has no antipode in the set")


def _qhull_reason(exc: Exception) -> str:
    """The first line of a QhullError, which goes on to dump Qhull's options
    and state over dozens of lines."""
    return str(exc).strip().partition("\n")[0]


def _canonical_row_order(V: np.ndarray) -> np.ndarray:
    order = np.lexsort(V.T[::-1])
    return V[order]


class _Polytope:
    """A full-dimensional symmetric polytope ball, in one representation.

    vertices holds the extreme points in canonical row order and normals
    the facet normals scaled so that |x| = max_F n_F . x. The incidence
    pairs (pair_vertex[p], pair_facet[p]) list each vertex v with each
    facet F it lies on, read off Qhull's combinatorics or the 2-D chain, so
    no activity tolerance is involved. Then

        ||A||  = max over v, F of n_F . (A v),
        mu(A)  = max over pairs (v, F) of n_F . (A v),

    the standard polyhedral formulas (Blanchini & Miani, Set-Theoretic
    Methods in Control).
    """

    def __init__(self, vertices: np.ndarray, normals: np.ndarray, pair_vertex, pair_facet):
        self.vertices = vertices
        self.normals = normals
        self.pair_vertex = pair_vertex
        self.pair_facet = pair_facet
        # column p is n_F * v for pair p, so mu(diag(e)) = max_p e . column p
        self._diag_weights = (normals[pair_facet] * vertices[pair_vertex]).T

    @classmethod
    def hull_of(cls, P: np.ndarray) -> "_Polytope":
        """The polytope conv(P): the end points in 1-D, the monotone chain
        in 2-D, one Qhull call above."""
        n = P.shape[1]
        if n == 1:
            V = np.array([[P[:, 0].min()], [P[:, 0].max()]])
            # the facet at each end point v is x . (1/v) = 1
            return cls(V, 1.0 / V, np.arange(2), np.arange(2))
        if n == 2:
            return cls._polygon(P)
        from scipy.spatial import ConvexHull, QhullError

        try:
            hull = ConvexHull(P)
        except QhullError as exc:
            raise DegenerateBall(f"vertex set does not span a full-dimensional ball: {_qhull_reason(exc)}") from exc
        # Qhull triangulates each facet and copies its equation to every
        # simplex of it, so bytewise-equal rows are one facet.
        rows = np.ascontiguousarray(hull.equations).view(np.dtype((np.void, 8 * (n + 1))))
        _, first, facet_of = np.unique(rows.ravel(), return_index=True, return_inverse=True)
        eq = hull.equations[first]
        offsets = -eq[:, -1]
        if np.any(offsets <= 0):
            raise DegenerateBall("origin is not interior to the ball")
        # every vertex of a simplex lies on that simplex's facet; the pair
        # (vertex v, facet F) is keyed F * m + v
        ext = np.unique(hull.vertices)
        vertex = np.searchsorted(ext, hull.simplices).ravel()
        keys = np.unique(np.repeat(facet_of.ravel(), n) * ext.size + vertex)
        pair_facet, pair_vertex = np.divmod(keys, ext.size)
        # Qhull also lists boundary points that are not extreme; a point is
        # extreme exactly when the normals of its facets span R^n
        degree = np.bincount(pair_vertex, minlength=ext.size)
        by_vertex = np.argsort(pair_vertex, kind="stable")
        first_pair = np.cumsum(degree) - degree
        extreme = np.zeros(ext.size, dtype=bool)
        for k in np.unique(degree[degree >= n]):
            vs = np.flatnonzero(degree == k)
            incident = pair_facet[by_vertex[first_pair[vs][:, None] + np.arange(k)]]
            extreme[vs] = np.linalg.matrix_rank(eq[incident, :-1]) == n
        keep = extreme[pair_vertex]
        row_of = np.cumsum(extreme) - 1
        return cls._sorted(
            P[ext[extreme]], eq[:, :-1] / offsets[:, None], row_of[pair_vertex[keep]], pair_facet[keep]
        )

    @classmethod
    def _polygon(cls, P: np.ndarray) -> "_Polytope":
        """conv(P) in the plane by Andrew's monotone chain (Inf. Process.
        Lett. 9, 1979). Popping every turn that is not strictly left keeps
        extreme points only. The chain runs counterclockwise; edge k joins
        vertices k and k + 1, whose normal solves n . v_k = n . v_{k+1} = 1,
        and vertex k lies on edges k - 1 and k."""
        points = P[np.lexsort(P.T[::-1])].tolist()

        def half(run):
            chain = []
            for x, y in run:
                while len(chain) >= 2:
                    (ox, oy), (ax, ay) = chain[-2], chain[-1]
                    turn = (ax - ox) * (y - oy) - (ay - oy) * (x - ox)
                    if not math.isfinite(turn):
                        raise ValidationError("vertex coordinates are too large: the hull arithmetic overflows")
                    if turn > 0:
                        break
                    chain.pop()
                chain.append((x, y))
            return chain[:-1]

        V = np.array(half(points) + half(points[::-1]))
        if V.shape[0] < 3:
            raise DegenerateBall("vertex set does not span a full-dimensional ball: its hull is flat")
        (x, y), (x1, y1) = V.T, np.roll(V, -1, axis=0).T
        with np.errstate(over="ignore", invalid="ignore"):
            det = x * y1 - x1 * y
            normals = np.column_stack([y1 - y, x - x1]) / np.where(det > 0, det, 1.0)[:, None]
        if not (np.all(np.isfinite(det)) and np.all(np.isfinite(normals))):
            raise ValidationError("vertex coordinates are too large: the hull arithmetic overflows")
        if np.any(det <= 0):
            raise DegenerateBall("origin is not interior to the ball")
        k = np.arange(V.shape[0])
        return cls._sorted(V, normals, np.concatenate([k, k]), np.concatenate([(k - 1) % k.size, k]))

    @classmethod
    def _sorted(cls, V, normals, pair_vertex, pair_facet) -> "_Polytope":
        """Put V in canonical row order and re-index the pairs to match."""
        order = np.lexsort(V.T[::-1])
        row_of = np.empty(order.size, dtype=int)
        row_of[order] = np.arange(order.size)
        return cls(V[order], normals, row_of[pair_vertex], pair_facet)

    def transformed(self, T: np.ndarray) -> "_Polytope":
        """The ball of x -> |T x|: vertices T^-1 v and normals T^T n_F."""
        W = self.vertices @ np.linalg.inv(T).T
        return self._sorted(W, self.normals @ T, self.pair_vertex, self.pair_facet)

    def gauge_many(self, X: np.ndarray) -> np.ndarray:
        # the max runs over the facets on the transposed scores: numpy
        # reduces across rows much faster than along short ones
        scores = np.ascontiguousarray((X @ self.normals.T).T)
        return np.maximum(scores.max(axis=0), 0.0)

    def _scores(self, A: np.ndarray) -> np.ndarray:
        """n_F . (A v) for every facet F (rows) and vertex v (columns); an
        overflow gives a non-finite score, which the caller reports."""
        with np.errstate(over="ignore", invalid="ignore"):
            return (self.normals @ A) @ self.vertices.T

    def induced_norm(self, A: np.ndarray) -> float:
        return float(self._scores(A).max())

    def measure(self, A: np.ndarray) -> float:
        return float(self._scores(A)[self.pair_facet, self.pair_vertex].max())

    def diag_measure_many(self, E: np.ndarray) -> np.ndarray:
        """mu(diag(e)) for every row e of E, in one matrix product."""
        return (E @ self._diag_weights).max(axis=1)


_TINY, _HUGE = float(np.finfo(float).tiny), float(np.finfo(float).max)


def _lp_eval_many(p: float, X: np.ndarray) -> np.ndarray:
    """|x|_p of each row of X.

    A generic p is evaluated as m (sum_i (|x_i|/m)^p)^(1/p) with m = max_i |x_i|:
    every ratio is at most 1 and the sum lies in [1, n], so no power
    overflows however large p or the entries are. The divisor is m clipped
    to the normal range, so rows of zeros give 0 and rows holding an inf
    give inf, with no 0/0 or inf/inf. The max and the generic work run on
    the transpose, as numpy reduces across rows much faster than along
    short ones.
    """
    if p == math.inf:
        return np.abs(X.T, order="C").max(axis=0)
    if p == 1:
        return np.abs(X).sum(axis=1)
    if p == 2:
        return np.linalg.norm(X, axis=1)
    a = np.abs(X.T, order="C")
    m = a.max(axis=0)
    s = np.minimum(np.maximum(m, _TINY), _HUGE)
    return m * ((a / s) ** p).sum(axis=0) ** (1.0 / p)


def _lp_ball_vertices(p: float, n: int) -> np.ndarray:
    # in one dimension every l_p ball is the segment [-1, 1]
    if p == 1 or n == 1:
        return np.vstack([np.eye(n), -np.eye(n)])
    if p == math.inf:
        if n > MAX_SIGN_ENUM_DIM:
            raise UnsupportedDimension(
                f"l-inf ball has 2**{n} vertices; enumeration capped at n={MAX_SIGN_ENUM_DIM}"
            )
        return np.array(list(itertools.product((1.0, -1.0), repeat=n)))
    raise NotPolyhedral(f"the l_{p} ball is not a polytope")


class ValidatedNorm:
    """A checked norm specification with its analysis route.

    route is one of, with the single representation each one reads:

    * ``'closed'``        bare l_1 / l_2 / l_inf: ``core_p`` = p,
    * ``'scaled_closed'`` an l_1 / l_2 / l_inf norm behind a nonsingular
      change of coordinates (possibly a collapsed chain of scalings):
      ``core_p`` and ``flat_T``, so |x| = l_core_p(flat_T x),
    * ``'polyhedral'``    the unit ball is a known polytope (polyhedral
      specs, piecewise specs, and their scalings), held in ``_polytope``,
    * ``'estimated'``     an l_p core with 1 < p < inf (generic l_p and
      scaled generic l_p): no exact matrix-level route, but a certified
      bracket.

    Evaluation reads the same representation, never the spec tree: the
    polytope gauge, else ``flat_T`` (if any) then the l_``core_p`` norm.

    Instances are never mutated after construction. Build them with
    :func:`validate_norm_spec`.
    """

    def __init__(
        self,
        spec: NormSpec,
        dim: int | None,
        kind: str,
        *,
        polytope: _Polytope | None = None,
        flat_T: np.ndarray | None = None,
        core_p: float | None = None,
    ):
        self.spec = spec
        self.dim = dim
        self.kind = kind
        self._polytope = polytope
        self.flat_T = flat_T
        self.flat_Tinv = np.linalg.inv(flat_T) if flat_T is not None else None
        self.core_p = core_p
        self.route = self._compute_route()

    def _compute_route(self) -> str:
        if self.core_p in (1.0, 2.0, math.inf):
            return "closed" if self.flat_T is None else "scaled_closed"
        return "polyhedral" if self._polytope is not None else "estimated"

    # -- evaluation ---------------------------------------------------

    def evaluate_many(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        if X.ndim != 2:
            raise DimensionMismatch(f"expected a (k, n) sample array, got shape {X.shape}")
        if self.dim is not None and X.shape[1] != self.dim:
            raise DimensionMismatch(f"expected dimension {self.dim}, got {X.shape[1]}")
        if self._polytope is not None:
            return self._polytope.gauge_many(X)
        if self.flat_T is not None:
            X = X @ self.flat_T.T
        return _lp_eval_many(self.core_p, X)

    def __call__(self, x) -> float:
        v = as_vector(x, self.dim)
        return float(self.evaluate_many(v[None, :])[0])

    def __repr__(self) -> str:  # pragma: no cover
        return f"ValidatedNorm(kind={self.kind!r}, dim={self.dim}, route={self.route!r})"


def eval_norm(x, norm: ValidatedNorm) -> float:
    """Evaluate the norm at a vector. Exact for every supported family."""
    return norm(x)


def unit_ball_vertices(norm: ValidatedNorm) -> np.ndarray:
    """Extreme points of the unit ball as a (m, n) array.

    Raises NotPolyhedral for non-polytopal balls, UnsupportedDimension
    beyond the enumeration caps, DimensionMismatch for unbound lp specs.
    """
    if norm._polytope is not None:
        return norm._polytope.vertices.copy()
    if norm.dim is None:
        raise DimensionMismatch("lp spec has no bound dimension; validate with dim=...")
    V = _lp_ball_vertices(norm.core_p, norm.dim)
    return V if norm.flat_T is None else _canonical_row_order(V @ norm.flat_Tinv.T)


# -- validation -------------------------------------------------------


def _validate_lp(spec: Lp, dim: int | None) -> ValidatedNorm:
    p = spec.p
    if isinstance(p, str):
        raise ValidationError("p must be numeric; use math.inf for the sup norm")
    p = float(p)
    if math.isnan(p) or p < 1:
        raise ValidationError(f"lp norms need p >= 1, got {p}")
    if dim is not None and dim < 1:
        raise ValidationError("dimension must be >= 1")
    return ValidatedNorm(spec, dim, "lp", core_p=p)


def _validate_scaled(spec: Scaled, dim: int | None) -> ValidatedNorm:
    T = np.asarray(spec.T, dtype=float)
    if T.ndim != 2 or T.shape[0] != T.shape[1]:
        raise ValidationError(f"scaling matrix must be square, got shape {T.shape}")
    if not np.all(np.isfinite(T)):
        raise ValidationError("scaling matrix entries must be finite")
    n = T.shape[0]
    if dim is not None and dim != n:
        raise DimensionMismatch(f"requested dim {dim} but scaling matrix is {n}x{n}")
    sv = np.linalg.svd(T, compute_uv=False)
    if sv[-1] <= 1e-12 * sv[0]:
        # T = 0 has the ratio 0 / 0
        ratio = sv[-1] / sv[0] if sv[0] > 0.0 else 0.0
        raise SingularScaling(f"scaling matrix singular to working precision (sv ratio {ratio:.2e})")
    inner = validate_norm_spec(spec.inner, dim=n)
    # Collapse chains of scalings: |x| = inner(T x) with inner itself scaled
    # by S around a core means core norm evaluated at (S_flat T) x.
    flat_T = T if inner.flat_T is None else inner.flat_T @ T
    polytope = None if inner._polytope is None else inner._polytope.transformed(T)
    return ValidatedNorm(spec, n, "scaled", polytope=polytope, flat_T=flat_T, core_p=inner.core_p)


def _validate_polyhedral(spec: Polyhedral, dim: int | None) -> ValidatedNorm:
    V = np.asarray(spec.vertices, dtype=float)
    if V.ndim != 2 or V.shape[0] < 2 or V.shape[1] < 1:
        raise ValidationError(f"vertices must form a (m>=2, n>=1) array, got shape {V.shape}")
    if not np.all(np.isfinite(V)):
        raise ValidationError("vertices must be finite")
    n = V.shape[1]
    if dim is not None and dim != n:
        raise DimensionMismatch(f"requested dim {dim} but vertices live in R^{n}")
    V = _dedup_rows(V, TOL_VERTEX)
    if V.shape[0] < 2:
        raise DegenerateBall("fewer than two distinct vertices")
    _check_symmetric(V, TOL_VERTEX)
    if np.max(np.abs(V)) <= TOL_VERTEX:
        raise DegenerateBall("all vertices at the origin")
    # Interior points are dropped, not rejected: the hull (and hence the
    # gauge) is unchanged, and downstream code may assume minimality.
    return ValidatedNorm(spec, n, "polyhedral", polytope=_Polytope.hull_of(V))


def _orthant_points(norm: ValidatedNorm, sigma: np.ndarray) -> np.ndarray:
    """The extreme points of B ∩ Q_sigma other than the origin, for a norm
    whose unit ball B is a polytope and the closed orthant Q_sigma.

    In the plane they are B's vertices in the quadrant and its two axis
    points sigma_i e_i / |sigma_i e_i|. Above, they come from one halfspace
    intersection of B's facets with the orthant. Qhull names the halfspaces
    each point lies on, so a point on the plane x_i = 0 gets x_i = 0
    exactly, and the origin, the one point on all n planes, is left out.
    """
    n = sigma.size
    if n <= 2:
        V = unit_ball_vertices(norm)
        axes = np.diag(sigma)
        return np.vstack([V[np.all(V * sigma >= 0.0, axis=1)], axes / norm.evaluate_many(axes)[:, None]])
    from scipy.spatial import HalfspaceIntersection, QhullError

    ball = norm._polytope if norm._polytope is not None else _Polytope.hull_of(unit_ball_vertices(norm))
    m = ball.normals.shape[0]
    H = np.zeros((m + n, n + 1))
    H[:m, :n], H[:m, n] = ball.normals, -1.0
    H[m:, :n] = -np.diag(sigma)
    x0 = sigma * (0.5 / float(norm.evaluate_many(sigma[None, :])[0]))
    try:
        hs = HalfspaceIntersection(H, x0)
    except QhullError as exc:
        raise DegenerateBall(f"the ball's cut to the orthant {sigma.tolist()} is degenerate: {_qhull_reason(exc)}") from exc
    on_plane = np.zeros((len(hs.dual_facets), n), dtype=bool)
    for k, facets in enumerate(hs.dual_facets):
        on_plane[k, [f - m for f in facets if f >= m]] = True
    return np.where(on_plane, 0.0, hs.intersections)[~on_plane.all(axis=1)]


def _sign_vector(signs: str) -> np.ndarray:
    return np.array([1.0 if c == "+" else -1.0 for c in signs])


def _validate_piecewise(spec: PiecewiseOrthant, dim: int | None) -> ValidatedNorm:
    """Decide a piecewise spec exactly by rebuilding its ball K.

    K is the hull of the pieces B_sigma ∩ Q_sigma, so it contains each of
    them, and the glued function is the gauge of K iff K ∩ Q_sigma lies in
    B_sigma for every sigma: iff each extreme point of K ∩ Q_sigma has piece
    value at most 1. That gauge is a norm iff K holds the antipode of each
    extreme point. K is rebuilt only from polytope pieces, so a spec with
    any other piece is refused.
    """
    items = dict(spec.cases)
    if not items:
        raise ValidationError("piecewise spec has no cases")
    n = len(next(iter(items)))
    if dim is not None and dim != n:
        raise DimensionMismatch(f"requested dim {dim} but sign patterns have length {n}")
    if n > MAX_PIECEWISE_VERTEX_DIM:
        raise UnsupportedDimension(
            f"piecewise specs need 2**n cases and a rebuilt ball; capped at n={MAX_PIECEWISE_VERTEX_DIM}"
        )
    for key in items:
        if len(key) != n or any(c not in "+-" for c in key):
            raise ValidationError(f"bad sign pattern {key!r}")
    if len(items) != 2**n:
        missing = [
            "".join(c)
            for c in itertools.product("+-", repeat=n)
            if "".join(c) not in items
        ]
        raise ValidationError(f"orthant coverage incomplete; missing {missing[:4]}")

    cases = {key: validate_norm_spec(inner, dim=n) for key, inner in items.items()}
    pieces = []
    for signs, inner in cases.items():
        try:
            pieces.append(_orthant_points(inner, _sign_vector(signs)))
        except NotPolyhedral as exc:
            raise NoExactPath(
                f"piece {signs!r} is not a polytope: piecewise norms are decided only with polytope pieces"
            ) from exc
    polytope = _Polytope.hull_of(_dedup_rows(np.vstack(pieces), TOL_VERTEX))
    norm = ValidatedNorm(spec, n, "piecewise", polytope=polytope)
    for signs, inner in cases.items():
        W = _orthant_points(norm, _sign_vector(signs))
        vals = inner.evaluate_many(W)
        i = int(np.argmax(vals))
        if vals[i] > 1.0 + 1e-9:
            raise NotConvex(
                f"piece {signs!r} reaches {vals[i]:.12g} > 1 at {W[i].tolist()}, an extreme point "
                "of the hull of the pieces: the piecewise definition is not convex"
            )
    # not matched vertex by vertex: rounding can keep a point that lies on
    # an edge on one side of K and drop its antipode on the other
    V = polytope.vertices
    outside = polytope.gauge_many(-V) > 1.0 + 1e-9
    if np.any(outside):
        v = V[int(np.argmax(outside))]
        raise NotCentrallySymmetric(f"the glued ball holds {v.tolist()} but not its antipode")
    return norm


def validate_norm_spec(spec: NormSpec, *, dim: int | None = None) -> ValidatedNorm:
    """Validate a norm spec and attach its representation and analysis route.

    dim binds the dimension of a bare lp spec (other families carry their
    own). Every check is exact, so validation is deterministic.
    """
    if isinstance(spec, Lp):
        return _validate_lp(spec, dim)
    if isinstance(spec, Scaled):
        return _validate_scaled(spec, dim)
    if isinstance(spec, Polyhedral):
        return _validate_polyhedral(spec, dim)
    if isinstance(spec, PiecewiseOrthant):
        return _validate_piecewise(spec, dim)
    raise ValidationError(f"unknown norm spec type {type(spec).__name__}")


# -- JSON interchange -------------------------------------------------


def norm_spec_from_json(obj) -> NormSpec:
    """Parse the JSON norm-spec schema into a NormSpec (no validation)."""
    if not isinstance(obj, dict) or "kind" not in obj:
        raise ValidationError("norm spec JSON must be an object with a 'kind' field")
    kind = obj["kind"]
    if kind == "lp":
        p = obj.get("p")
        if p == "inf":
            p = math.inf
        # bool is an int subclass; "p": true must not read as p = 1
        if isinstance(p, bool) or not isinstance(p, (int, float)):
            raise ValidationError(f"lp spec needs numeric p or 'inf', got {p!r}")
        return Lp(float(p))
    if kind == "scaled":
        if "T" not in obj or "inner" not in obj:
            raise ValidationError("scaled spec needs 'T' and 'inner'")
        return Scaled(np.asarray(obj["T"], dtype=float), norm_spec_from_json(obj["inner"]))
    if kind == "polyhedral":
        if "vertices" not in obj:
            raise ValidationError("polyhedral spec needs 'vertices'")
        return Polyhedral(np.asarray(obj["vertices"], dtype=float))
    if kind == "piecewise_orthant":
        raw = obj.get("cases")
        if not isinstance(raw, list):
            raise ValidationError("piecewise_orthant spec needs a 'cases' list")
        cases: dict[str, NormSpec] = {}
        for entry in raw:
            if not isinstance(entry, dict) or "signs" not in entry or "inner" not in entry:
                raise ValidationError("each case needs 'signs' and 'inner'")
            signs = entry["signs"]
            if signs in cases:
                raise ValidationError(f"duplicate case for orthant {signs!r}")
            cases[signs] = norm_spec_from_json(entry["inner"])
        return PiecewiseOrthant(cases)
    raise ValidationError(f"unknown norm spec kind {kind!r}")


def norm_spec_to_json(spec: NormSpec | ValidatedNorm) -> dict:
    """Serialize a norm spec back to the JSON schema (round-trip stable)."""
    if isinstance(spec, ValidatedNorm):
        spec = spec.spec
    if isinstance(spec, Lp):
        return {"kind": "lp", "p": "inf" if spec.p == math.inf else float(spec.p)}
    if isinstance(spec, Scaled):
        return {
            "kind": "scaled",
            "T": np.asarray(spec.T, dtype=float).tolist(),
            "inner": norm_spec_to_json(spec.inner),
        }
    if isinstance(spec, Polyhedral):
        return {
            "kind": "polyhedral",
            "vertices": np.asarray(spec.vertices, dtype=float).tolist(),
        }
    if isinstance(spec, PiecewiseOrthant):
        return {
            "kind": "piecewise_orthant",
            "cases": [
                {"signs": signs, "inner": norm_spec_to_json(inner)}
                for signs, inner in sorted(spec.cases.items())
            ],
        }
    raise ValidationError(f"unknown norm spec type {type(spec).__name__}")
