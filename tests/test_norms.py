"""Norm validation, evaluation, polytope geometry, and JSON round trips."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.optimize import linprog

from logmeasure import (
    DegenerateBall,
    DimensionMismatch,
    Lp,
    NotCentrallySymmetric,
    NotConvex,
    NotPolyhedral,
    PiecewiseOrthant,
    Polyhedral,
    Scaled,
    SingularScaling,
    UnsupportedDimension,
    ValidationError,
    eval_norm,
    hexagon_spec,
    norm_spec_from_json,
    norm_spec_to_json,
    parallelogram_spec,
    sheared_linf_spec,
    unit_ball_vertices,
    validate_norm_spec,
)
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


# ---------------------------------------------------------------- evaluation


def test_hexagon_values_and_vertices():
    norm = validate_norm_spec(hexagon_spec(), dim=2)
    assert eval_norm([1.0, -1.0], norm) == 2.0
    assert eval_norm([1.0, 1.0], norm) == 1.0
    got = {tuple(v) for v in np.round(unit_ball_vertices(norm), 9)}
    expected = {(0.0, 1.0), (1.0, 1.0), (1.0, 0.0), (0.0, -1.0), (-1.0, -1.0), (-1.0, 0.0)}
    assert got == expected


def test_parallelogram_gauge_values():
    norm = validate_norm_spec(parallelogram_spec(), dim=2)
    assert eval_norm([2.0, 2.0], norm) == pytest.approx(1.0, abs=1e-12)
    assert eval_norm([2.0, 0.0], norm) == pytest.approx(1.5, abs=1e-12)
    assert eval_norm([1.0, -1.0], norm) == pytest.approx(1.0, abs=1e-12)


def test_sheared_linf_values():
    norm = validate_norm_spec(sheared_linf_spec(), dim=2)
    assert eval_norm([2.0, -1.0], norm) == 1.0
    assert eval_norm([2.0, 0.0], norm) == 2.0
    V = unit_ball_vertices(norm)
    got = {tuple(v) for v in np.round(V, 9)}
    assert got == {(1.0, 0.0), (-1.0, 0.0), (5.0, -2.0), (-5.0, 2.0)}


def test_gauge_matches_lp_oracle_2d():
    norm = validate_norm_spec(parallelogram_spec(), dim=2)
    V = unit_ball_vertices(norm)
    for _ in range(60):
        x = RNG.standard_normal(2) * 3.0
        assert eval_norm(x, norm) == pytest.approx(lp_gauge_oracle(V, x), abs=1e-8)


def test_gauge_matches_lp_oracle_3d():
    # the same facet-maximization path as in 2-D, on a Qhull-triangulated hull
    P = RNG.standard_normal((6, 3)) * 2.0
    norm = validate_norm_spec(Polyhedral(np.vstack([P, -P])))
    V = unit_ball_vertices(norm)
    for _ in range(40):
        x = RNG.standard_normal(3)
        assert eval_norm(x, norm) == pytest.approx(lp_gauge_oracle(V, x), abs=1e-8)


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
        eval_norm([1.0, 2.0, 3.0], norm)


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
