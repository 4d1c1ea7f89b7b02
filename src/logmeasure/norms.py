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

Every ball is built in numpy: the end points in one dimension, the
monotone chain in two, and above one double description, which also cuts
balls to orthants and is capped by MAX_DD_ENTRIES.
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

# Enumerating the l-inf ball's 2**n vertices is refused beyond this cap
# rather than exhausting memory.
MAX_SIGN_ENUM_DIM = 16

# PiecewiseOrthant needs one case per orthant, 2**n of them, and is
# refused above this cap: rebuilding the glued ball from all-l_1 pieces
# (2**n facets each) takes about 0.26 s at n = 5 and 1.1 s at n = 6 on a
# 2-core x86 host.
MAX_PIECEWISE_VERTEX_DIM = 5

# A double description is refused once its rays times its constraints would
# pass this: the 9-D cube peaks at 377 rays of 513 constraints, the 15-D
# cross-polytope at 2**15 rays of 31; the 16-D one is refused.
MAX_DD_ENTRIES = 1 << 21
# its zero test and rank floor, on rows and rays of max-norm in [1/2, 1),
# and the entries of one batch of its pair tests
_DD_TOL, _DD_BATCH = 1e-9, 1 << 18
_EPS = float(np.finfo(float).eps)


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
    """Every (i, j) with max_k |P[i, k] - Q[j, k]| <= tol, in order of i.

    Rows are keyed by x . w, w_k = 5^-(k+1): |w|_1 < 1/4 keeps keys finite,
    and a pair within tol has keys within tol/4 plus the rounding of both
    sums, (n + 1) eps (|p|_inf + tol) / 4 each. Row p meets only the rows
    with keys that close, found by binary search; cubes and cross-polytopes
    have keys far apart in base 5, so the work is not quadratic on them.
    """
    n = Q.shape[1]
    w = 5.0 ** -np.arange(1.0, n + 1.0)
    keys = Q @ w
    order = np.argsort(keys, kind="stable")
    sorted_keys = keys[order]
    reach = tol + 4 * (n + 1) * _EPS * (np.abs(P).max(axis=1) + tol)
    lo = np.searchsorted(sorted_keys, P @ w - reach, "left")
    count = np.searchsorted(sorted_keys, P @ w + reach, "right") - lo
    i = np.repeat(np.arange(P.shape[0]), count)
    # the candidates of row i are the run sorted_keys[lo : lo + count]
    j = order[np.repeat(lo - np.cumsum(count) + count, count) + np.arange(i.size)]
    with np.errstate(over="ignore"):
        near = np.abs(P[i] - Q[j]).max(axis=1) <= tol
    return np.column_stack([i[near], j[near]])


def _dedup_rows(V: np.ndarray, tol: float) -> np.ndarray:
    """V without each row lying within tol (max-norm) of an earlier kept row."""
    pairs = _near_pairs(V, V, tol)
    pairs = pairs[pairs[:, 0] < pairs[:, 1]]
    keep = np.ones(V.shape[0], dtype=bool)
    # pairs come as i < j; walked in order of j, keep[i] is settled before
    # any pair (i, j) is read, as in a keep-first scan
    for i, j in pairs[np.lexsort(pairs.T)]:
        if keep[i]:
            keep[j] = False
    return V[keep]


def _check_symmetric(V: np.ndarray, tol: float) -> None:
    """Raise unless every row has an antipode within tol (max-norm)."""
    missing = np.ones(V.shape[0], dtype=bool)
    missing[_near_pairs(-V, V, tol)[:, 0]] = False
    if np.any(missing):
        v = V[int(np.argmax(missing))]
        raise NotCentrallySymmetric(f"vertex {v.tolist()} has no antipode in the set")


def _extreme_rays(A: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The extreme rays of the pointed cone {x : A x >= 0}, as rows, and
    their zero sets: zero[r, i] iff row i of A vanishes at ray r.

    The double description method (Motzkin et al. 1953; Fukuda and Prodon
    1996): the simplicial cone of d rows picked by pivoted Gram-Schmidt, cut
    by each other row in turn. Rays where it is negative go; each adjacent
    pair of a positive and a negative ray gives one on its hyperplane, zero
    on the pair's common rows and that one. Columns, rows and rays are
    scaled by powers of two to max-norm [1/2, 1), so the zero test is
    relative to the data's scale. Raises DegenerateBall if A has rank below
    d, UnsupportedDimension once rays times rows would pass MAX_DD_ENTRIES.
    """
    m, d = A.shape
    scale = _pow2(np.abs(A).max(axis=0))
    A = A * scale
    A = A * _pow2(np.abs(A).max(axis=1))[:, None]
    W, basis = A.copy(), []
    for _ in range(d):
        r = np.linalg.norm(W, axis=1)
        basis.append(int(np.argmax(r)))
        if r[basis[-1]] <= _DD_TOL:
            raise DegenerateBall("vertex set does not span a full-dimensional ball")
        W -= np.outer(W @ W[basis[-1]], W[basis[-1]] / r[basis[-1]] ** 2)
    order = np.concatenate([basis, np.setdiff1d(np.arange(m), basis)])
    A = A[order]
    R = np.linalg.inv(A[:d]).T
    R *= _pow2(np.abs(R).max(axis=1))[:, None]
    Z = np.hstack([~np.eye(d, dtype=bool), np.zeros((d, m - d), dtype=bool)])
    for i in range(d, m):
        s = R @ A[i]
        neg = s < -_DD_TOL
        Z[~neg & (s <= _DD_TOL), i] = True
        if neg.any():
            a, b = _adjacent_pairs(A, Z, i, np.flatnonzero(s > _DD_TOL), np.flatnonzero(neg))
            new = s[a, None] * R[b] - s[b, None] * R[a]
            R = np.vstack([R[~neg], new * _pow2(np.abs(new).max(axis=1))[:, None]])
            Z = np.vstack([Z[~neg], Z[a] & Z[b] | (np.arange(m) == i)])
    # entries below the zero test are the start's rounding: exact rays stay exact
    return np.where(np.abs(R) <= _DD_TOL, 0.0, R) * scale, Z[:, np.argsort(order)]


def _pow2(x: np.ndarray) -> np.ndarray:
    """The powers of two that scale each x > 0 into [1/2, 1), exactly."""
    return np.ldexp(1.0, -np.frexp(x)[1])


def _adjacent_pairs(A, Z, i, pos, neg):
    """The pairs (pos[k], neg[k]) of rays adjacent in the cone of rows A[:i]:
    at least d - 2 common zero rows, by one product, and of rank d - 2."""
    d, width, held = A.shape[1], Z.shape[1], Z.shape[0] - neg.size
    A, Z = A[:i], Z[:, :i]
    zn = Z[neg].T.astype(np.float32)
    step = max(1, _DD_BATCH // neg.size)
    found = [(pos[:0], neg[:0])]
    for lo in range(0, pos.size, step):
        a, b = np.nonzero(Z[pos[lo : lo + step]].astype(np.float32) @ zn >= d - 2)
        a, b = pos[lo + a], neg[b]
        common = Z[a] & Z[b]
        count = common.sum(axis=1)
        ok = np.zeros(a.size, dtype=bool)
        for c in np.unique(count):
            sel = np.flatnonzero(count == c)
            for part in np.array_split(sel, -(-sel.size * c * d // _DD_BATCH)):
                rows = np.nonzero(common[part])[1].reshape(part.size, c)
                ok[part] = np.linalg.svd(A[rows], compute_uv=False)[:, d - 3] > _DD_TOL
        found.append((a[ok], b[ok]))
        held += int(ok.sum())
        if held * width > MAX_DD_ENTRIES:
            raise UnsupportedDimension(f"the double description of this ball passes {held} rays of {width} "
                                       f"constraints; capped at 2**{MAX_DD_ENTRIES.bit_length() - 1} entries")
    return tuple(np.concatenate(parts) for parts in zip(*found))


class _Polytope:
    """A full-dimensional symmetric polytope ball, in one representation.

    vertices holds the extreme points in canonical row order and normals
    the facet normals scaled so that |x| = max_F n_F . x. The incidence
    pairs (pair_vertex[p], pair_facet[p]) list each vertex v with each
    facet F it lies on, read off the double description's zero sets or the
    2-D chain, so no activity test is made after the build. Then

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
        # row j: -(n_F)_j v_j of each pair (v, F), contiguous for the max along it
        self._ray_weights = np.ascontiguousarray(-(normals[pair_facet] * vertices[pair_vertex]).T)

    @classmethod
    def hull_of(cls, P: np.ndarray) -> "_Polytope":
        """The polytope conv(P): the end points in 1-D, the monotone chain
        in 2-D, one double description above."""
        n = P.shape[1]
        if n == 1:
            V = np.array([[P[:, 0].min()], [P[:, 0].max()]])
            # the facet at each end point v is x . (1/v) = 1
            return cls(V, 1.0 / V, np.arange(2), np.arange(2))
        if n == 2:
            return cls._polygon(P)
        # facets n_F = y / t are the rays of {(y, t) : t - v . y >= 0, t >= 0},
        # in canonical order so that the run does not depend on the input's
        P = P[np.lexsort(P.T[::-1])]
        m = P.shape[0]
        R, zero = _extreme_rays(np.vstack([np.column_stack([-P, np.ones(m)]), np.eye(n + 1)[n]]))
        if zero[:, m].any():
            raise DegenerateBall("origin is not interior to the ball")
        normals = R[:, :n] / R[:, n:]
        pair_facet, pair_vertex = np.nonzero(zero[:, :m])
        # a point is extreme exactly when the normals of its facets span R^n
        extreme = np.linalg.matrix_rank(zero[:, :m].T[:, :, None] * normals) == n
        keep = extreme[pair_vertex]
        row_of = np.cumsum(extreme) - 1
        return cls(P[extreme], normals, row_of[pair_vertex[keep]], pair_facet[keep])

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
        """The ball of x -> |T x|: vertices T^-1 v and normals T^T n_F, refused if they overflow."""
        with np.errstate(over="ignore", invalid="ignore"):
            W, normals = self.vertices @ np.linalg.inv(T).T, self.normals @ T
        if not (np.isfinite(W).all() and np.isfinite(normals).all()):
            raise ValidationError("the scaled ball's vertices or facet normals overflow")
        return self._sorted(W, normals, self.pair_vertex, self.pair_facet)

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

    def ray_measures(self) -> np.ndarray:
        """mu(-E_j), E_j = diag(e_j), for every j: the largest weight of row j."""
        return self._ray_weights.max(axis=1)


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
    if norm.flat_T is None:
        return V
    V = V @ norm.flat_Tinv.T
    return V[np.lexsort(V.T[::-1])]


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
    # every norm on R^1 is a multiple of |x|, so there l_p is l_1
    return ValidatedNorm(spec, dim, "lp", core_p=1.0 if dim == 1 else p)


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
    points sigma_i e_i / |sigma_i e_i|. Above, they are the rays (x, t) of
    the cone {t - n_F . x >= 0, sigma_i x_i >= 0, t >= 0}, one double
    description over B's facets. Its zero sets name the planes each point
    lies on, so a point on the plane x_i = 0 gets x_i = 0 exactly, and the
    origin, the one point on all n planes, is left out.
    """
    n = sigma.size
    if n <= 2:
        V = unit_ball_vertices(norm)
        axes = np.diag(sigma)
        return np.vstack([V[np.all(V * sigma >= 0.0, axis=1)], axes / norm.evaluate_many(axes)[:, None]])
    ball = norm._polytope if norm._polytope is not None else _Polytope.hull_of(unit_ball_vertices(norm))
    m = ball.normals.shape[0]
    R, zero = _extreme_rays(np.vstack([np.column_stack([-ball.normals, np.ones(m)]), np.diag(np.append(sigma, 1.0))]))
    on_plane = zero[:, m : m + n]
    return np.where(on_plane, 0.0, R[:, :n] / R[:, n:])[~on_plane.all(axis=1)]


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
