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
representation of the norm for its exact route: an l_1 / l_2 / l_inf core
behind a change of coordinates (``core_p``, ``flat_T``) for the closed-form
routes, or one ``_Polytope`` (extreme points, facet normals and their
incidence) for polytope balls.
Piecewise specifications are validated by seeded sampling (boundary
agreement, cross-orthant midpoint convexity, symmetry), so their acceptance
is probabilistic: a spec that passes is a norm with high confidence, and the
exact polytope reconstruction in dimensions <= 3 re-checks the geometry.

All functions are pure, and a ValidatedNorm is never mutated after
validation: the unit-ball vertices of a closed-form norm are derived on
demand by ``unit_ball_vertices``, so instances can be shared freely.

scipy.spatial (Qhull) is imported where hulls are built, so importing the
package does not load it.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Mapping, Union

import numpy as np

from .common import DEFAULT_SEED, TOL_VERTEX, as_rng, as_vector
from .errors import (
    DegenerateBall,
    DimensionMismatch,
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

# PiecewiseOrthant needs one case per orthant, 2**n of them.
MAX_PIECEWISE_DIM = 12

# Exact polytope reconstruction for piecewise norms stops here.
MAX_PIECEWISE_VERTEX_DIM = 3


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


def _dedup_rows(V: np.ndarray, tol: float) -> np.ndarray:
    """V without each row lying within tol (max-norm) of an earlier kept row."""
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
    from scipy.spatial import cKDTree

    dist, _ = cKDTree(V).query(-V, p=np.inf)
    if np.any(dist > tol):
        v = V[int(np.argmax(dist > tol))]
        raise NotCentrallySymmetric(f"vertex {v.tolist()} has no antipode in the set")


def _canonical_row_order(V: np.ndarray) -> np.ndarray:
    order = np.lexsort(V.T[::-1])
    return V[order]


class _Polytope:
    """A full-dimensional symmetric polytope ball, in one representation.

    vertices holds the extreme points in canonical row order and normals
    the facet normals scaled so that |x| = max_F n_F . x. The incidence
    pairs (pair_vertex[p], pair_facet[p]) list each vertex v with each
    facet F it lies on, read off Qhull's combinatorics, so no activity
    tolerance is involved. Then

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
        """The polytope conv(P), from one Qhull call (none in 1-D)."""
        if P.shape[1] == 1:
            V = np.array([[P[:, 0].min()], [P[:, 0].max()]])
            # the facet at each end point v is x . (1/v) = 1
            return cls(V, 1.0 / V, np.arange(2), np.arange(2))
        from scipy.spatial import ConvexHull, QhullError

        try:
            hull = ConvexHull(P)
        except QhullError as exc:
            raise DegenerateBall(f"vertex set does not span a full-dimensional ball: {exc}") from exc
        # Qhull triangulates each facet and copies its equation to every
        # simplex of it, so bytewise-equal rows are one facet.
        n = P.shape[1]
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
        return cls._sorted(P[ext], eq[:, :-1] / offsets[:, None], pair_vertex, pair_facet)

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
        return np.maximum((X @ self.normals.T).max(axis=1), 0.0)

    def _scores(self, A: np.ndarray) -> np.ndarray:
        """n_F . (A v) for every facet F (rows) and vertex v (columns)."""
        return (self.normals @ A) @ self.vertices.T

    def induced_norm(self, A: np.ndarray) -> float:
        return float(self._scores(A).max())

    def measure(self, A: np.ndarray) -> float:
        return float(self._scores(A)[self.pair_facet, self.pair_vertex].max())

    def diag_measure_many(self, E: np.ndarray) -> np.ndarray:
        """mu(diag(e)) for every row e of E, in one matrix product."""
        return (E @ self._diag_weights).max(axis=1)


def _lp_eval_many(p: float, X: np.ndarray) -> np.ndarray:
    if p == math.inf:
        return np.abs(X).max(axis=1)
    if p == 1:
        return np.abs(X).sum(axis=1)
    if p == 2:
        return np.linalg.norm(X, axis=1)
    return (np.abs(X) ** p).sum(axis=1) ** (1.0 / p)


def _lp_ball_vertices(p: float, n: int) -> np.ndarray:
    if p == 1:
        return np.vstack([np.eye(n), -np.eye(n)])
    if p == math.inf:
        if n > MAX_SIGN_ENUM_DIM:
            raise UnsupportedDimension(
                f"l-inf ball has 2**{n} vertices; enumeration capped at n={MAX_SIGN_ENUM_DIM}"
            )
        return np.array(list(itertools.product((1.0, -1.0), repeat=n)))
    raise NotPolyhedral(f"the l_{p} ball is not a polytope")


def _orthant_index(signs: str) -> int:
    return sum(1 << i for i, c in enumerate(signs) if c == "-")


def _pattern_indices(X: np.ndarray) -> np.ndarray:
    """Orthant index per row; zero coordinates count as '+'."""
    neg = X < 0
    weights = 1 << np.arange(X.shape[1])
    return (neg * weights).sum(axis=1)


def _piecewise_eval(table: "dict[int, ValidatedNorm]", X: np.ndarray) -> np.ndarray:
    """Evaluate each row of X under the case its orthant index selects."""
    out = np.empty(X.shape[0])
    idx = _pattern_indices(X)
    for key in np.unique(idx):
        mask = idx == key
        out[mask] = table[key].evaluate_many(X[mask])
    return out


class ValidatedNorm:
    """A checked norm specification with its analysis route.

    route is one of, with the single representation each one reads:

    * ``'closed'``        bare l_1 / l_2 / l_inf: ``core_p`` = p,
    * ``'scaled_closed'`` an l_1 / l_2 / l_inf norm behind a nonsingular
      change of coordinates (possibly a collapsed chain of scalings):
      ``core_p`` and ``flat_T``, so |x| = l_core_p(flat_T x),
    * ``'polyhedral'``    the unit ball is a known polytope (polyhedral
      specs, scaled polyhedral, reducible piecewise), held in ``_polytope``,
    * ``'estimated'``     no exact matrix-level route (generic l_p, scaled
      generic l_p, piecewise beyond the reconstruction cap).

    Instances are never mutated after construction. Build them with
    :func:`validate_norm_spec`.
    """

    def __init__(
        self,
        spec: NormSpec,
        dim: int | None,
        kind: str,
        *,
        p: float | None = None,
        inner: "ValidatedNorm | None" = None,
        T: np.ndarray | None = None,
        cases: "dict[str, ValidatedNorm] | None" = None,
        polytope: _Polytope | None = None,
        flat_T: np.ndarray | None = None,
        core_p: float | None = None,
    ):
        self.spec = spec
        self.dim = dim
        self.kind = kind
        self.p = p
        self.inner = inner
        self.T = T
        self.cases = cases
        self._polytope = polytope
        self.flat_T = flat_T
        self.flat_Tinv = np.linalg.inv(flat_T) if flat_T is not None else None
        self.core_p = core_p
        if cases is not None:
            self._case_table = {_orthant_index(k): v for k, v in cases.items()}
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
        if self.kind == "lp":
            return _lp_eval_many(self.p, X)
        if self.kind == "scaled":
            return self.inner.evaluate_many(X @ self.T.T)
        if self.kind == "polyhedral":
            return self._polytope.gauge_many(X)
        return _piecewise_eval(self._case_table, X)

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
    if norm.core_p is None:
        raise NotPolyhedral("unit ball of this spec is not available as a polytope")
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
    return ValidatedNorm(spec, dim, "lp", p=p, core_p=p)


def _validate_scaled(spec: Scaled, dim: int | None, seed) -> ValidatedNorm:
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
        raise SingularScaling(f"scaling matrix singular to working precision (sv ratio {sv[-1]/sv[0]:.2e})")
    inner = validate_norm_spec(spec.inner, dim=n, seed=seed)
    # Collapse chains of scalings: |x| = inner(T x) with inner itself scaled
    # by S around a core means core norm evaluated at (S_flat T) x.
    flat_T = T if inner.flat_T is None else inner.flat_T @ T
    core = inner
    while core.kind == "scaled":
        core = core.inner
    polytope = None if core._polytope is None else core._polytope.transformed(flat_T)
    return ValidatedNorm(
        spec, n, "scaled", inner=inner, T=T, polytope=polytope, flat_T=flat_T, core_p=inner.core_p
    )


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


def _piecewise_sampled_checks(
    cases: dict[str, ValidatedNorm], n: int, rng: np.random.Generator
) -> None:
    table = {_orthant_index(k): v for k, v in cases.items()}

    # Central symmetry of the glued function.
    X = rng.standard_normal((200, n))
    vx = _piecewise_eval(table, X)
    vmx = _piecewise_eval(table, -X)
    bad = np.abs(vx - vmx) > 1e-9 * (1 + np.abs(vx))
    if np.any(bad):
        i = int(np.argmax(bad))
        raise NotCentrallySymmetric(
            f"|x| != |-x| at x={X[i].tolist()} ({vx[i]:.12g} vs {vmx[i]:.12g})"
        )

    # Adjacent orthants must agree on the shared boundary, otherwise the
    # glued function is not even continuous.
    for _ in range(200):
        x = rng.standard_normal(n)
        j = int(rng.integers(n))
        x[j] = 0.0
        base = ["+" if xi >= 0 else "-" for xi in x]
        vals = []
        for cj in "+-":
            base[j] = cj
            vals.append(float(cases["".join(base)].evaluate_many(x[None, :])[0]))
        if abs(vals[0] - vals[1]) > 1e-9 * (1 + abs(vals[0])):
            raise NotConvex(
                f"orthant pieces disagree on the boundary at {x.tolist()}: "
                f"{vals[0]:.12g} vs {vals[1]:.12g}"
            )

    # Convexity across orthants, sampled at midpoints.
    X = rng.standard_normal((1000, n))
    Y = rng.standard_normal((1000, n))
    different = _pattern_indices(X) != _pattern_indices(Y)
    X, Y = X[different], Y[different]
    mid = 0.5 * (X + Y)
    lhs = _piecewise_eval(table, mid)
    rhs = 0.5 * (_piecewise_eval(table, X) + _piecewise_eval(table, Y))
    bad = lhs > rhs + 1e-9 * (1 + rhs)
    if np.any(bad):
        i = int(np.argmax(bad))
        raise NotConvex(
            f"midpoint convexity fails between {X[i].tolist()} and {Y[i].tolist()}: "
            f"|mid|={lhs[i]:.12g} > {rhs[i]:.12g}"
        )


def _piecewise_polytope(cases: dict[str, ValidatedNorm], n: int) -> _Polytope | None:
    if n > MAX_PIECEWISE_VERTEX_DIM:
        return None
    from scipy.spatial import ConvexHull, HalfspaceIntersection, QhullError

    pieces = []
    for signs, inner in cases.items():
        try:
            Vin = unit_ball_vertices(inner)
        except NotPolyhedral:
            return None
        sigma = np.array([1.0 if c == "+" else -1.0 for c in signs])
        if n == 1:
            a = float(np.max(np.abs(Vin)))
            pieces.append(np.array([[0.0], [sigma[0] * a]]))
            continue
        hull_in = ConvexHull(Vin)
        orth = np.zeros((n, n + 1))
        orth[:, :n] = -np.diag(sigma)
        H = np.vstack([hull_in.equations, orth])
        x0 = sigma * (0.5 / float(inner.evaluate_many(sigma[None, :])[0]))
        try:
            hs = HalfspaceIntersection(H, x0)
        except QhullError as exc:
            raise DegenerateBall(f"orthant piece for {signs} is degenerate: {exc}") from exc
        pieces.append(hs.intersections)
    return _Polytope.hull_of(_dedup_rows(np.vstack(pieces), TOL_VERTEX))


def _validate_piecewise(spec: PiecewiseOrthant, dim: int | None, seed) -> ValidatedNorm:
    items = dict(spec.cases)
    if not items:
        raise ValidationError("piecewise spec has no cases")
    n = len(next(iter(items)))
    if dim is not None and dim != n:
        raise DimensionMismatch(f"requested dim {dim} but sign patterns have length {n}")
    if n > MAX_PIECEWISE_DIM:
        raise UnsupportedDimension(
            f"piecewise specs need 2**n cases; capped at n={MAX_PIECEWISE_DIM}"
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

    rng = as_rng(seed)
    cases = {
        key: validate_norm_spec(inner, dim=n, seed=seed) for key, inner in items.items()
    }
    _piecewise_sampled_checks(cases, n, rng)

    polytope = _piecewise_polytope(cases, n)
    norm = ValidatedNorm(spec, n, "piecewise", cases=cases, polytope=polytope)
    if polytope is not None:
        verts = polytope.vertices
        # Reconstructed extreme points must sit on the unit sphere of the
        # glued function; a gap means the pieces do not form a convex body.
        vals = norm.evaluate_many(verts)
        if np.any(np.abs(vals - 1.0) > 1e-9):
            raise NotConvex(
                "reconstructed ball extreme points are not at norm 1; "
                "the piecewise definition is not convex"
            )
        _check_symmetric(verts, 1e-9)
    return norm


def validate_norm_spec(
    spec: NormSpec,
    *,
    dim: int | None = None,
    seed: int | np.random.Generator | None = DEFAULT_SEED,
) -> ValidatedNorm:
    """Validate a norm spec and attach its representation and analysis route.

    dim binds the dimension of a bare lp spec (other families carry their
    own); seed drives every sampled check, so validation is deterministic.
    """
    if isinstance(spec, Lp):
        return _validate_lp(spec, dim)
    if isinstance(spec, Scaled):
        return _validate_scaled(spec, dim, seed)
    if isinstance(spec, Polyhedral):
        return _validate_polyhedral(spec, dim)
    if isinstance(spec, PiecewiseOrthant):
        return _validate_piecewise(spec, dim, seed)
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
