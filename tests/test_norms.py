"""Norm validation, evaluation, polytope geometry, and JSON round trips."""

import itertools
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.optimize import linprog
from scipy.spatial import ConvexHull, HalfspaceIntersection

from logmeasure import (
    DegenerateBall,
    DimensionMismatch,
    Lp,
    NoExactPath,
    NotCentrallySymmetric,
    NotConvex,
    NotPolyhedral,
    PiecewiseOrthant,
    Polyhedral,
    Scaled,
    SingularScaling,
    UnsupportedDimension,
    ValidationError,
    hexagon_spec,
    induced_matrix_norm,
    matrix_measure,
    norm_spec_from_json,
    norm_spec_to_json,
    parallelogram_spec,
    sheared_linf_spec,
    unit_ball_vertices,
    validate_norm_spec,
)
from logmeasure import norms
from logmeasure.battery import builtin_battery

RNG = np.random.default_rng(20260819)


def lp_gauge_oracle(V: np.ndarray, x: np.ndarray) -> float:
    """Minkowski gauge as a small LP: min sum(mu), V^T mu = x, mu >= 0.

    Independent of the shipped gauge code path (facet maximization over
    the hull's normals, in every dimension).
    """
    m = V.shape[0]
    res = linprog(np.ones(m), A_eq=V.T, b_eq=x, bounds=(0, None), method="highs")
    assert res.status == 0, res.message
    return float(res.fun)


# ---------------------------------------------------------------- validation


def test_lp_rejects_p_below_one():
    with pytest.raises(ValidationError):
        validate_norm_spec(Lp(0.5))


def test_lp_routes():
    assert validate_norm_spec(Lp(1.0)).route == "closed"
    assert validate_norm_spec(Lp(2.0)).route == "closed"
    assert validate_norm_spec(Lp(np.inf)).route == "closed"
    assert validate_norm_spec(Lp(3.0)).route == "estimated"


def test_lp_evaluation_does_not_overflow():
    norm = validate_norm_spec(Lp(3.0), dim=2)
    v = norm.evaluate_many(np.array([[1e200, 1e200], [0.0, 0.0], [3.0, -4.0]]))
    assert np.all(np.isfinite(v))
    assert v[0] == pytest.approx(2 ** (1 / 3) * 1e200, rel=1e-14)
    assert v[1] == 0.0 and v[2] == pytest.approx(91 ** (1 / 3), rel=1e-14)
    huge = validate_norm_spec(Lp(1e308), dim=2)
    assert huge.evaluate_many(np.array([[2.0, -3.0]]))[0] == 3.0


def test_scaled_rejects_singular_T():
    T = np.array([[1.0, 2.0], [2.0, 4.0]])
    with pytest.raises(SingularScaling):
        validate_norm_spec(Scaled(T, Lp(2.0)))


def test_scaled_rejects_dim_mismatch():
    with pytest.raises(DimensionMismatch):
        validate_norm_spec(Scaled(np.eye(2), Lp(1.0)), dim=3)


def test_nested_scaled_collapses_to_product():
    T1 = np.array([[2.0, 1.0], [0.0, 1.0]])
    T2 = np.array([[1.0, 0.0], [3.0, 1.0]])
    nested = validate_norm_spec(Scaled(T1, Scaled(T2, Lp(np.inf))))
    flat = validate_norm_spec(Scaled(T2 @ T1, Lp(np.inf)))
    X = RNG.standard_normal((40, 2))
    assert np.allclose(nested.evaluate_many(X), flat.evaluate_many(X), atol=1e-12)
    assert nested.route == "scaled_closed"


def test_polyhedral_requires_central_symmetry():
    with pytest.raises(NotCentrallySymmetric):
        validate_norm_spec(Polyhedral(np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]])))


def test_polyhedral_rejects_flat_ball():
    V = np.array([[1.0, 1.0], [-1.0, -1.0]])
    with pytest.raises(DegenerateBall):
        validate_norm_spec(Polyhedral(V))


def test_polyhedral_drops_non_extreme_points():
    square = np.array([[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]])
    redundant = np.vstack([square, [[0.5, 0.5], [-0.5, -0.5], [1.0, 0.0], [-1.0, 0.0]]])
    norm = validate_norm_spec(Polyhedral(redundant))
    V = unit_ball_vertices(norm)
    assert V.shape == (4, 2)
    X = RNG.standard_normal((50, 2))
    linf = validate_norm_spec(Lp(np.inf), dim=2)
    assert np.allclose(norm.evaluate_many(X), linf.evaluate_many(X), atol=1e-12)


def test_piecewise_requires_full_sign_coverage():
    with pytest.raises(ValidationError):
        validate_norm_spec(PiecewiseOrthant({"++": Lp(1.0), "--": Lp(1.0)}))


def test_piecewise_rejects_duplicate_or_bad_patterns():
    with pytest.raises(ValidationError):
        validate_norm_spec(PiecewiseOrthant({"+0": Lp(1.0), "--": Lp(1.0)}))


def test_piecewise_detects_asymmetry():
    cases = {"++": Lp(np.inf), "--": Lp(1.0), "+-": Lp(1.0), "-+": Lp(1.0)}
    with pytest.raises(NotCentrallySymmetric):
        validate_norm_spec(PiecewiseOrthant(cases))


def test_piecewise_detects_boundary_mismatch():
    # mixed-orthant pieces shrink the ball by half, so the piecewise
    # surface jumps across the coordinate axes
    half = Scaled(2.0 * np.eye(2), Lp(np.inf))
    cases = {"++": Lp(np.inf), "--": Lp(np.inf), "+-": half, "-+": half}
    with pytest.raises(NotConvex):
        validate_norm_spec(PiecewiseOrthant(cases))


def test_piecewise_mirrored_hexagon_is_valid():
    # swapping the hexagon's pieces yields the reflected hexagon, still a norm
    cases = {"++": Lp(1.0), "--": Lp(1.0), "+-": Lp(np.inf), "-+": Lp(np.inf)}
    norm = validate_norm_spec(PiecewiseOrthant(cases))
    V = unit_ball_vertices(norm)
    expected = {(1.0, 0.0), (1.0, -1.0), (0.0, -1.0), (-1.0, 0.0), (-1.0, 1.0), (0.0, 1.0)}
    assert {tuple(v) for v in np.round(V, 9)} == expected


def _dent_spec() -> PiecewiseOrthant:
    # every piece is a norm and the pieces agree on the axes, but the glued
    # ball has a re-entrant corner at (1, 0): f(x) = f(y) = 1 at
    # x = (1 + 1e-5, 1e-3) and y = (1, -1e-3), and f((x + y) / 2) = 1.000005
    agree = np.array([[1.0, 0.0], [1.0 + 1e-5, 1e-3], [0.0, 1.0]])
    mixed = np.array([[1.0, 0.0], [1.0, -1e-3], [0.0, 1.0]])
    a, m = Polyhedral(np.vstack([agree, -agree])), Polyhedral(np.vstack([mixed, -mixed]))
    return PiecewiseOrthant({"++": a, "--": a, "+-": m, "-+": m})


def test_piecewise_dent_is_refused_for_every_seed():
    # sampling would have to hit a 0.06 degree wedge on both sides of the
    # axis; validation draws nothing, so one call stands for every seed
    with pytest.raises(NotConvex, match="1.000005"):
        validate_norm_spec(_dent_spec())


def _corner_spec(q: float) -> PiecewiseOrthant:
    # |x| = |T x|_2 with T^T T = [[1, q], [q, 1]] on the agreeing quadrants
    # and l_inf on the others: for q < 0 two unit vectors near (1, 0) have a
    # midpoint of norm 1 + q^2 / 4, a re-entrant corner
    T = np.linalg.cholesky(np.array([[1.0, q], [q, 1.0]])).T
    round_, square = Scaled(T, Lp(2.0)), Lp(np.inf)
    return PiecewiseOrthant({"++": round_, "--": round_, "+-": square, "-+": square})


@pytest.mark.parametrize("q", [-3e-3, -1e-3])
def test_reentrant_corner_with_a_round_piece_is_refused(q):
    # seeded sampling accepted this spec for 7 (q = -3e-3) and 11 (q = -1e-3)
    # of 20 seeds; a non-polytopal piece is now refused outright
    with pytest.raises(NoExactPath, match="piece '\\+\\+' is not a polytope"):
        validate_norm_spec(_corner_spec(q))


def test_round_pieces_are_refused_even_when_the_glue_is_a_norm():
    # l_2 on the agreeing quadrants, l_1 on the others: a convex glue, but
    # nothing rebuilds its ball exactly
    cases = {"++": Lp(2.0), "--": Lp(2.0), "+-": Lp(1.0), "-+": Lp(1.0)}
    with pytest.raises(NoExactPath, match="not a polytope"):
        validate_norm_spec(PiecewiseOrthant(cases))


def test_piecewise_specs_above_the_cap_are_refused_before_any_hull(monkeypatch):
    def refuse(*args):
        raise AssertionError("the glued ball was rebuilt")

    monkeypatch.setattr(norms, "_orthant_points", refuse)
    cases = {"".join(s): Lp(1.0) for s in itertools.product("+-", repeat=6)}
    with pytest.raises(UnsupportedDimension, match="n=5"):
        validate_norm_spec(PiecewiseOrthant(cases))
    # the cap comes before the 2**n coverage listing, too
    with pytest.raises(UnsupportedDimension):
        validate_norm_spec(PiecewiseOrthant({"+" * 40: Lp(1.0)}))


def test_one_dimensional_round_pieces_are_segments():
    # in R^1 every l_p ball is [-1, 1], a polytope, so the glue is decided
    two = np.array([[2.0]])
    norm = validate_norm_spec(PiecewiseOrthant({"+": Scaled(two, Lp(3.0)), "-": Scaled(two, Lp(2.0))}))
    assert norm.route == "polyhedral"
    assert norm.evaluate_many(np.array([[1.5], [-1.5]])).tolist() == [3.0, 3.0]


def _ball_vertices(equations: np.ndarray, interior: np.ndarray) -> np.ndarray:
    """Vertices of {x : A x + b <= 0}, from Qhull's halfspace intersection."""
    return HalfspaceIntersection(equations, interior).intersections


def _random_glued_polygon(rng):
    """The cases of a piecewise norm whose glued ball is a random symmetric
    polygon K: piece sigma is K cut by a slab |a . x| <= c that holds all of
    K's quadrant sigma, so that B_sigma ∩ Q_sigma = K ∩ Q_sigma."""
    W = rng.standard_normal((int(rng.integers(2, 6)), 2))
    K = ConvexHull(np.vstack([W, -W])).equations
    cases = {}
    for signs in ("++", "+-", "-+", "--"):
        sigma = np.array([1.0 if c == "+" else -1.0 for c in signs])
        quadrant = np.vstack([K, np.column_stack([-np.diag(sigma), np.zeros(2)])])
        P = _ball_vertices(quadrant, 1e-3 * sigma)
        a = rng.standard_normal(2)
        c = np.abs(P @ a).max()
        slab = np.array([[a[0], a[1], -c], [-a[0], -a[1], -c]])
        cases[signs] = Polyhedral(_ball_vertices(np.vstack([K, slab]), np.zeros(2)))
    return cases


def test_random_glued_polygons_validate_and_evaluate_as_their_pieces():
    rng = np.random.default_rng(41)
    for _ in range(200):
        cases = _random_glued_polygon(rng)
        norm = validate_norm_spec(PiecewiseOrthant(cases))
        assert norm.route == "polyhedral"
        X = rng.standard_normal((50, 2))
        X[::5, 0] = 0.0
        want = np.empty(50)
        for signs, spec in cases.items():
            sigma = np.array([1.0 if c == "+" else -1.0 for c in signs])
            inside = np.all(X * sigma >= 0.0, axis=1)
            want[inside] = validate_norm_spec(spec).evaluate_many(X[inside])
        assert np.all(np.abs(norm.evaluate_many(X) - want) <= 1e-12 * want)


def test_random_planted_dents_are_refused():
    # push the glued ball out by 1e-3 just inside quadrant sigma, next to its
    # axis point u, in sigma and (to keep it symmetric) in -sigma: the
    # midpoint of that bulge and a boundary point just across the axis lies
    # outside the ball, so the glued function is not convex
    rng = np.random.default_rng(43)
    for _ in range(50):
        cases = _random_glued_polygon(rng)
        norm = validate_norm_spec(PiecewiseOrthant(cases))
        signs = ("++", "+-", "-+", "--")[int(rng.integers(4))]
        sigma = np.array([1.0 if c == "+" else -1.0 for c in signs])
        i = int(rng.integers(2))
        u = sigma[i] * np.eye(2)[i] / norm(sigma[i] * np.eye(2)[i])
        w = 1.001 * u + 1e-6 * np.abs(u).max() * sigma[1 - i] * np.eye(2)[1 - i]
        flipped = "".join("+" if c == "-" else "-" for c in signs)
        for key in (signs, flipped):
            V = np.asarray(cases[key].vertices)
            cases[key] = Polyhedral(np.vstack([V, w, -w]))
        with pytest.raises(NotConvex):
            validate_norm_spec(PiecewiseOrthant(cases))


def test_piecewise_all_l1_and_all_linf_pieces_give_the_closed_forms():
    rng = np.random.default_rng(47)
    for n in (3, 4, 5):
        for p in (1.0, np.inf):
            cases = {"".join(s): Lp(p) for s in itertools.product("+-", repeat=n)}
            norm = validate_norm_spec(PiecewiseOrthant(cases))
            assert norm.route == "polyhedral"
            closed = validate_norm_spec(Lp(p), dim=n)
            for _ in range(10):
                A = rng.standard_normal((n, n))
                for fn in (matrix_measure, induced_matrix_norm):
                    want = fn(A, closed).value
                    # Qhull's intersections of the l_1 pieces at n = 3 and 5
                    # carry a few ulps
                    assert fn(A, norm).value == pytest.approx(want, rel=1e-14, abs=1e-14)
            d = np.array([0.5, -1.0, 2.0, -3.0, 1.5])[:n]
            assert matrix_measure(np.diag(d), norm).value == pytest.approx(2.0, abs=1e-15)


# ---------------------------------------------------------------- evaluation


def test_hexagon_values_and_vertices():
    norm = validate_norm_spec(hexagon_spec(), dim=2)
    assert norm([1.0, -1.0]) == 2.0
    assert norm([1.0, 1.0]) == 1.0
    got = {tuple(v) for v in np.round(unit_ball_vertices(norm), 9)}
    expected = {(0.0, 1.0), (1.0, 1.0), (1.0, 0.0), (0.0, -1.0), (-1.0, -1.0), (-1.0, 0.0)}
    assert got == expected


def test_parallelogram_gauge_values():
    norm = validate_norm_spec(parallelogram_spec(), dim=2)
    assert norm([2.0, 2.0]) == pytest.approx(1.0, abs=1e-12)
    assert norm([2.0, 0.0]) == pytest.approx(1.5, abs=1e-12)
    assert norm([1.0, -1.0]) == pytest.approx(1.0, abs=1e-12)


def test_sheared_linf_values():
    norm = validate_norm_spec(sheared_linf_spec(), dim=2)
    assert norm([2.0, -1.0]) == 1.0
    assert norm([2.0, 0.0]) == 2.0
    V = unit_ball_vertices(norm)
    got = {tuple(v) for v in np.round(V, 9)}
    assert got == {(1.0, 0.0), (-1.0, 0.0), (5.0, -2.0), (-5.0, 2.0)}


def test_gauge_matches_lp_oracle_2d():
    norm = validate_norm_spec(parallelogram_spec(), dim=2)
    V = unit_ball_vertices(norm)
    for _ in range(60):
        x = RNG.standard_normal(2) * 3.0
        assert norm(x) == pytest.approx(lp_gauge_oracle(V, x), abs=1e-8)


def test_gauge_matches_lp_oracle_3d():
    # the same facet-maximization path as in 2-D, on a Qhull-triangulated hull
    P = RNG.standard_normal((6, 3)) * 2.0
    norm = validate_norm_spec(Polyhedral(np.vstack([P, -P])))
    V = unit_ball_vertices(norm)
    for _ in range(40):
        x = RNG.standard_normal(3)
        assert norm(x) == pytest.approx(lp_gauge_oracle(V, x), abs=1e-8)


def test_lp_ball_vertices():
    n1 = validate_norm_spec(Lp(1.0), dim=3)
    V1 = unit_ball_vertices(n1)
    assert V1.shape == (6, 3)
    ninf = validate_norm_spec(Lp(np.inf), dim=2)
    assert unit_ball_vertices(ninf).shape == (4, 2)
    n2 = validate_norm_spec(Lp(2.0), dim=2)
    with pytest.raises(NotPolyhedral):
        unit_ball_vertices(n2)
    big = validate_norm_spec(Lp(np.inf), dim=17)
    with pytest.raises(UnsupportedDimension):
        unit_ball_vertices(big)


def test_scaled_linf_vertices_beyond_the_cap_name_the_cap():
    # the core's enumeration cap, not a claim that the ball is no polytope
    norm = validate_norm_spec(Scaled(2.0 * np.eye(17), Lp(np.inf)))
    with pytest.raises(UnsupportedDimension, match="capped at n=16"):
        unit_ball_vertices(norm)


def test_eval_rejects_wrong_length():
    norm = validate_norm_spec(Lp(1.0), dim=2)
    with pytest.raises(DimensionMismatch):
        norm([1.0, 2.0, 3.0])


# ---------------------------------------------------------------- norm axioms

_VECTORS = arrays(
    np.float64,
    (2,),
    elements=st.floats(min_value=-100.0, max_value=100.0, allow_nan=False),
)


@settings(max_examples=60, deadline=None)
@given(x=_VECTORS, y=_VECTORS, t=st.floats(min_value=-20.0, max_value=20.0))
def test_norm_axioms_on_battery(x, y, t):
    for _, norm in builtin_battery():
        nx = norm(x)
        assert nx >= 0.0
        # homogeneity, symmetry, triangle inequality
        assert norm(t * x) == pytest.approx(abs(t) * nx, rel=1e-9, abs=1e-9)
        assert norm(-x) == pytest.approx(nx, rel=1e-12, abs=1e-12)
        assert norm(x + y) <= nx + norm(y) + 1e-9 * (1.0 + nx + norm(y))


@settings(max_examples=40, deadline=None)
@given(x=_VECTORS)
def test_piecewise_agrees_with_casewise_definition(x):
    norm = validate_norm_spec(hexagon_spec(), dim=2)
    expected = max(abs(x[0]), abs(x[1])) if x[0] * x[1] >= 0 else abs(x[0]) + abs(x[1])
    assert norm(x) == pytest.approx(expected, rel=1e-12, abs=1e-12)


# ---------------------------------------------------------------- JSON


def test_json_round_trip_battery():
    for name, norm in builtin_battery():
        doc = norm_spec_to_json(norm)
        rebuilt = validate_norm_spec(norm_spec_from_json(doc), dim=2)
        X = RNG.standard_normal((30, 2))
        assert np.allclose(norm.evaluate_many(X), rebuilt.evaluate_many(X), atol=1e-12), name
        # emit -> parse -> emit is a fixed point
        assert norm_spec_to_json(rebuilt) == doc


def test_json_inf_encoding():
    doc = norm_spec_to_json(Lp(np.inf))
    assert doc["p"] == "inf"
    assert json.loads(json.dumps(doc)) == doc
    spec = norm_spec_from_json({"kind": "lp", "p": "inf"})
    assert spec.p == np.inf


def test_json_rejects_unknown_kind_and_duplicates():
    with pytest.raises(ValidationError):
        norm_spec_from_json({"kind": "mystery"})
    with pytest.raises(ValidationError):
        norm_spec_from_json(
            {
                "kind": "piecewise_orthant",
                "cases": [
                    {"signs": "++", "norm": {"kind": "lp", "p": 1}},
                    {"signs": "++", "norm": {"kind": "lp", "p": 2}},
                    {"signs": "--", "norm": {"kind": "lp", "p": 1}},
                    {"signs": "+-", "norm": {"kind": "lp", "p": 1}},
                    {"signs": "-+", "norm": {"kind": "lp", "p": 1}},
                ],
            }
        )
