"""Induced norms, matrix measures, and the inequalities tying them together."""

import itertools
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, seed, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import logmeasure
from logmeasure import (
    FRAGILE_MATRIX,
    Lp,
    NoExactPath,
    PiecewiseOrthant,
    Polyhedral,
    Scaled,
    check_measure_sandwich,
    hexagon_spec,
    induced_matrix_norm,
    matrix_measure,
    parallelogram_spec,
    sheared_linf_spec,
    spectral_abscissa,
    validate_norm_spec,
)
from logmeasure import measures
from oracles import measure_quotient

ATOL = 1e-9
RNG = np.random.default_rng(1129)

L1 = validate_norm_spec(Lp(1.0), dim=2)
L2 = validate_norm_spec(Lp(2.0), dim=2)
LINF = validate_norm_spec(Lp(np.inf), dim=2)

_MATRICES = arrays(
    np.float64,
    (2, 2),
    elements=st.floats(min_value=-50.0, max_value=50.0, allow_nan=False),
)


def _closed_form(A: np.ndarray, p: float, measure: bool) -> float:
    A = np.asarray(A, dtype=float)
    if measure:
        if p == 1.0:
            off = np.abs(A).sum(axis=0) - np.abs(np.diag(A))
            return float(np.max(np.diag(A) + off))
        if p == 2.0:
            return float(np.max(np.linalg.eigvalsh((A + A.T) / 2.0)))
        off = np.abs(A).sum(axis=1) - np.abs(np.diag(A))
        return float(np.max(np.diag(A) + off))
    if p == 1.0:
        return float(np.max(np.abs(A).sum(axis=0)))
    if p == 2.0:
        return float(np.linalg.svd(A, compute_uv=False)[0])
    return float(np.max(np.abs(A).sum(axis=1)))


# ------------------------------------------------------------- closed forms


@seed(3)
@settings(max_examples=80, deadline=None)
@given(A=_MATRICES)
def test_closed_forms_match_textbook_formulas(A):
    for p, norm in ((1.0, L1), (2.0, L2), (np.inf, LINF)):
        got_n = induced_matrix_norm(A, norm)
        got_m = matrix_measure(A, norm)
        assert got_n.method in ("closed_form", "scaled_closed_form")
        assert got_n.value == pytest.approx(_closed_form(A, p, False), abs=ATOL)
        assert got_m.value == pytest.approx(_closed_form(A, p, True), abs=ATOL)
        assert got_n.error_bound == 0.0
        assert got_m.error_bound == 0.0


def test_l1_linf_measures_of_huge_diagonals_are_finite():
    # mu = 1e308 although the absolute row or column sum overflows
    A = np.array([[1e308, 0.0], [0.0, 1.0]])
    for norm in (L1, LINF):
        assert matrix_measure(A, norm).value == 1e308
        assert matrix_measure(A.T, norm).value == 1e308
    for spec in (Lp(1.0), Lp(np.inf), Scaled(np.eye(1), Lp(3.0))):
        assert matrix_measure([[1e308]], validate_norm_spec(spec, dim=1)).value == 1e308


def test_reference_matrix_frozen_values():
    A = FRAGILE_MATRIX
    assert matrix_measure(A, LINF).value == 4.0
    assert matrix_measure(A, L1).value == 2.0
    assert induced_matrix_norm(A, L1).value == 5.0
    assert spectral_abscissa(A) == pytest.approx(-0.5, abs=1e-12)


def test_sheared_measure_frozen_values():
    norm = validate_norm_spec(sheared_linf_spec(), dim=2)
    D = np.diag([1.0, 2.0])
    assert matrix_measure(-D, norm).value == pytest.approx(3.0, abs=ATOL)
    assert matrix_measure(D, norm).value == pytest.approx(7.0, abs=ATOL)


def test_spectral_abscissa_matches_root_finding():
    for _ in range(100):
        n = int(RNG.integers(2, 6))
        A = RNG.standard_normal((n, n)) * 3.0
        roots = np.roots(np.poly(A))
        assert spectral_abscissa(A) == pytest.approx(np.max(roots.real), abs=1e-7)


# --------------------------------------------------------- polyhedral route


def test_polyhedral_quotient_recovers_closed_forms():
    # the cross-polytope and the cube reproduce the l1 / linf closed forms
    cross = validate_norm_spec(Polyhedral(np.vstack([np.eye(2), -np.eye(2)])))
    cube = validate_norm_spec(
        Polyhedral(np.array([[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]]))
    )
    for _ in range(25):
        A = RNG.standard_normal((2, 2)) * 4.0
        r1 = matrix_measure(A, cross)
        rinf = matrix_measure(A, cube)
        assert r1.value == pytest.approx(_closed_form(A, 1.0, True), abs=1e-6)
        assert rinf.value == pytest.approx(_closed_form(A, np.inf, True), abs=1e-6)
        assert abs(r1.value - _closed_form(A, 1.0, True)) <= r1.error_bound + 1e-9
        n1 = induced_matrix_norm(A, cross)
        assert n1.value == pytest.approx(_closed_form(A, 1.0, False), abs=1e-9)


def test_polyhedral_measure_converges_exactly():
    V = np.array([[2.0, 2.0], [-2.0, -2.0], [1.0, -1.0], [-1.0, 1.0]])
    norm = validate_norm_spec(Polyhedral(V))
    r = matrix_measure(np.diag([-1.0, 0.0]), norm)
    assert r.method == "exact_polyhedral"
    assert r.error_bound == 0.0
    assert r.value == 0.5


def _cube(n: int) -> np.ndarray:
    return np.array(list(itertools.product((1.0, -1.0), repeat=n)))


@pytest.mark.parametrize("n", range(2, 7))
def test_cube_and_cross_polytope_match_closed_forms(n):
    cube = validate_norm_spec(Polyhedral(_cube(n)))
    cross = validate_norm_spec(Polyhedral(np.vstack([np.eye(n), -np.eye(n)])))
    rng = np.random.default_rng(n)
    for _ in range(20):
        A = rng.standard_normal((n, n))
        for norm, p in ((cube, np.inf), (cross, 1.0)):
            mu = matrix_measure(A, norm).value
            assert mu == pytest.approx(_closed_form(A, p, True), rel=1e-12)
            nv = induced_matrix_norm(A, norm).value
            assert nv == pytest.approx(_closed_form(A, p, False), rel=1e-12)


def test_seven_cube_has_one_normal_per_facet():
    # Qhull splits the 14 facets into 13,686 simplices; they merge back
    poly = validate_norm_spec(Polyhedral(_cube(7)))._polytope
    assert poly.normals.shape == (14, 7)
    # 128 vertices, each on 7 facets
    assert poly.pair_vertex.size == 896


def test_example_polytope_measures_are_exact():
    for spec, want in ((hexagon_spec(), 1.0), (parallelogram_spec(), 2.25)):
        assert matrix_measure(FRAGILE_MATRIX, validate_norm_spec(spec, dim=2)).value == want


# ------------------------------------------------------------- inequalities


@seed(4)
@settings(max_examples=60, deadline=None)
@given(A=_MATRICES, B=_MATRICES, c=st.floats(min_value=-30.0, max_value=30.0))
def test_measure_inequalities(A, B, c):
    for norm in (L1, L2, LINF):
        mu_a = matrix_measure(A, norm).value
        mu_b = matrix_measure(B, norm).value
        scale = 1.0 + abs(mu_a) + abs(mu_b)
        # translation by a multiple of the identity shifts the measure exactly
        shifted = matrix_measure(A + c * np.eye(2), norm).value
        assert shifted == pytest.approx(mu_a + c, abs=ATOL * scale + 1e-7)
        # subadditivity
        assert matrix_measure(A + B, norm).value <= mu_a + mu_b + ATOL * scale
        # positive homogeneity
        if c > 0:
            assert matrix_measure(c * A, norm).value == pytest.approx(
                c * mu_a, rel=1e-9, abs=1e-9
            )
        # sandwich between abscissa and norm
        assert spectral_abscissa(A) <= mu_a + 1e-7 * scale
        assert mu_a <= induced_matrix_norm(A, norm).value + ATOL * scale


def test_measure_bounds_matrix_exponential_growth():
    for _ in range(40):
        A = RNG.standard_normal((3, 3)) * 2.0
        norm = validate_norm_spec(Lp(np.inf), dim=3)
        mu = matrix_measure(A, norm).value
        for t in (0.1, 0.5, 1.0):
            growth = induced_matrix_norm(scipy.linalg.expm(t * A), norm).value
            assert growth <= np.exp(mu * t) * (1.0 + 1e-9) + 1e-12


def test_sandwich_report():
    rep = check_measure_sandwich(FRAGILE_MATRIX, LINF)
    assert rep.passed
    assert rep.abscissa == pytest.approx(-0.5, abs=1e-12)
    assert rep.measure == 4.0
    assert rep.abscissa <= rep.measure <= rep.norm_value
    with pytest.raises(NoExactPath):
        check_measure_sandwich(FRAGILE_MATRIX, validate_norm_spec(Lp(3.0), dim=2))


# ---------------------------------------------------------- quotient limits


def test_quotient_requires_positive_step():
    with pytest.raises(ValueError):
        measure_quotient(FRAGILE_MATRIX, LINF, 0.0)
    with pytest.raises(ValueError):
        measure_quotient(FRAGILE_MATRIX, LINF, -1e-3)


def test_quotient_decreases_toward_measure():
    # (||I + hA|| - 1)/h is nondecreasing in h, so shrinking h can only
    # move the quotient down toward the measure
    A = np.array([[1.0, -3.0], [1.0, -2.0]])
    hs = [1e-1, 1e-2, 1e-3, 1e-4]
    vals = [measure_quotient(A, L2, h) for h in hs]
    for bigger, smaller in zip(vals, vals[1:]):
        assert smaller <= bigger + 1e-12
    assert vals[-1] >= matrix_measure(A, L2).value - 1e-12


def test_quotient_refuses_estimated_norms():
    # an estimated ||I + hA|| is a lower bound, so the quotient would bound
    # nothing: under l_3 it read -1.00000003 at h = 1e-6, while the
    # certified measure lies in [0.0674, 0.308]
    A = np.array([[-1.0, 2.0, 0.0], [0.5, -2.0, 1.0], [0.0, 1.0, -3.0]])
    for spec in (Lp(3.0), Scaled(np.diag([1.0, 2.0, 0.5]), Lp(1.5))):
        norm = validate_norm_spec(spec, dim=3)
        assert norm.route == "estimated"
        with pytest.raises(NoExactPath):
            measure_quotient(A, norm, 1e-6)


# ---------------------------------------------------------- estimated route


def test_estimated_route_on_diagonal_matrices():
    # for any lp norm the induced norm of a diagonal matrix is max |d_ii|
    # and the measure is max d_ii, giving an exact reference for p = 3
    norm3 = validate_norm_spec(Lp(3.0), dim=3)
    for _ in range(10):
        d = RNG.uniform(-4.0, 4.0, size=3)
        D = np.diag(d)
        rn = induced_matrix_norm(D, norm3, seed=11)
        rm = matrix_measure(D, norm3, seed=11)
        assert rn.method == "estimated"
        assert rn.value == pytest.approx(np.max(np.abs(d)), abs=rn.error_bound + 1e-6)
        assert rm.value == pytest.approx(np.max(d), abs=rm.error_bound + 1e-4)


def test_piecewise_residue_is_exact_or_refused():
    # all-l_1 cases glue to l_1, where mu(D) = max d_ii: at n = 4 the ball
    # is rebuilt, so the measure is exact
    cases = {"".join(s): Lp(1.0) for s in itertools.product("+-", repeat=4)}
    norm = validate_norm_spec(PiecewiseOrthant(cases))
    assert norm.route == "polyhedral"
    rm = matrix_measure(np.diag([0.5, -1.0, 2.0, -3.0]), norm)
    assert (rm.value, rm.method) == (2.0, "exact_polyhedral")
    # a non-polytopal piece leaves no exact route, so validation refuses it
    with pytest.raises(NoExactPath):
        validate_norm_spec(PiecewiseOrthant({"++": Lp(2.0), "--": Lp(2.0), "+-": Lp(1.0), "-+": Lp(1.0)}))


def test_estimated_route_is_seed_deterministic():
    norm3 = validate_norm_spec(Lp(3.0), dim=2)
    A = np.array([[0.3, -1.2], [0.7, 0.1]])
    a = induced_matrix_norm(A, norm3, seed=5).value
    b = induced_matrix_norm(A, norm3, seed=5).value
    assert a == b


# ------------------------------------------------------- the l_p bracket


def _lp_rows(p: float, X: np.ndarray) -> np.ndarray:
    a = np.abs(X)
    m = a.max(axis=1, keepdims=True)
    return m[:, 0] * ((a / np.where(m > 0, m, 1.0)) ** p).sum(axis=1) ** (1.0 / p)


def _swept_quantity(M: np.ndarray, p: float, measure: bool) -> float:
    """max over the unit circle of |Mx|_p/|x|_p, or of Lumer's phi(x).Mx/|x|_p,
    taken at p itself (no duality), on a grid refined twice around its best
    angle: a value at most the true one, and close to it."""
    t = np.linspace(0.0, np.pi, 20001)
    for _ in range(3):
        X = np.column_stack([np.cos(t), np.sin(t)])
        nx = _lp_rows(p, X)
        if measure:
            phi = np.sign(X) * (np.abs(X) / nx[:, None]) ** (p - 1)
            v = (phi * (X @ M.T)).sum(axis=1) / nx
        else:
            v = _lp_rows(p, X @ M.T) / nx
        i = int(np.argmax(v))
        best, step = float(v[i]), t[1] - t[0]
        t = np.linspace(t[i] - step, t[i] + step, 2001)
    return best


def _riesz_thorin_caps(M: np.ndarray, p: float, measure: bool) -> float:
    """Interpolation caps at p itself: between l_1 and l_inf, and between
    l_2 and the far end point."""
    one, two, inf = (_closed_form(M, r, measure) for r in (1.0, 2.0, np.inf))
    th = 1.0 / p
    if p >= 2:
        th2, far = 2.0 / p, inf
    else:
        th2, far = 2.0 - 2.0 / p, one  # 1/p = th2/2 + (1 - th2)/1
    if measure:
        return min(th * one + (1 - th) * inf, th2 * two + (1 - th2) * far)
    return min(one**th * inf ** (1 - th), two**th2 * far ** (1 - th2))


def _bracket(r) -> tuple[float, float]:
    assert r.method == "estimated" and r.error_bound > 0 and r.h_used is None
    return r.value, r.value + r.error_bound


def test_lp_bracket_holds_the_diagonal_values():
    # mu_p(D) = max d_i and ||D||_p = max |d_i| for every p; in one
    # dimension every l_p norm is |x|, so those values are exact there
    for p in (1.5, 3.0, 7.0):
        norm = validate_norm_spec(Lp(p), dim=1)
        assert matrix_measure([[-2.5]], norm).to_jsonable() == {"value": -2.5, "method": "closed_form", "error_bound": 0.0}
        assert induced_matrix_norm([[-2.5]], norm).value == 2.5
    for n in range(2, 6):
        for p in (1.5, 3.0, 7.0):
            norm = validate_norm_spec(Lp(p), dim=n)
            d = RNG.uniform(-4.0, 4.0, size=n)
            lo, hi = _bracket(matrix_measure(np.diag(d), norm, seed=3))
            assert lo <= d.max() <= hi
            lo, hi = _bracket(induced_matrix_norm(np.diag(d), norm, seed=3))
            assert lo <= np.abs(d).max() <= hi
            lo, hi = _bracket(induced_matrix_norm(np.zeros((n, n)), norm, seed=3))
            assert lo == 0.0 < hi


@pytest.mark.parametrize("p", [1.001, 1.5, 3.0, 4.0, 50.0, 1e6])
def test_lp_bracket_holds_the_swept_value_in_2d(p):
    rng = np.random.default_rng(int(p * 1000) % 2**32)
    for scaled in (False, True):
        A = rng.uniform(-2.0, 2.0, (2, 2))
        T = np.array([[1.0, 0.6], [-0.3, 1.5]]) if scaled else np.eye(2)
        norm = validate_norm_spec(Scaled(T, Lp(p)) if scaled else Lp(p), dim=2)
        M = T @ A @ np.linalg.inv(T)
        tol = 1e-9 * np.abs(M).sum()
        for measure, fn in ((True, matrix_measure), (False, induced_matrix_norm)):
            lo, hi = _bracket(fn(A, norm))
            swept = _swept_quantity(M, p, measure)
            # swept is at most the truth, which lo must not exceed
            assert lo <= swept + tol and swept <= hi, (p, scaled, measure, lo, swept, hi)
            assert hi <= _riesz_thorin_caps(M, p, measure) + tol


def test_lp_bracket_is_tight_in_2d_for_moderate_p():
    A = np.array([[0.3, -1.2], [0.7, 0.1]])
    for p in (1.5, 3.0, 4.0):
        norm = validate_norm_spec(Lp(p), dim=2)
        for fn in (matrix_measure, induced_matrix_norm):
            assert fn(A, norm).error_bound <= 1e-5


def _record_quotient_calls(monkeypatch) -> list:
    """Patch the bracket's quotient evaluator to append the rows of each
    call to the returned list."""
    calls = []
    quotients = measures._lp_quotients

    def counted(M, p, X, quantity):
        calls.append(X.shape[0])
        return quotients(M, p, X, quantity)

    monkeypatch.setattr(measures, "_lp_quotients", counted)
    return calls


@pytest.mark.parametrize("p", [1.5, 2.5, 3.0, 4.0, 50.0])
def test_lp_bracket_holds_the_swept_value_for_many_matrices(p, monkeypatch):
    # containment and the caps, and a width of at most BRACKET_GAP times
    # sum |M_ij| plus the pad unless the evaluation cap stopped the search
    calls = _record_quotient_calls(monkeypatch)
    rng = np.random.default_rng(int(p * 10) + 7)
    for scaled in (False, True):
        for _ in range(50):
            A = rng.uniform(-2.0, 2.0, (2, 2))
            T = np.eye(2) + 0.5 * rng.standard_normal((2, 2)) if scaled else np.eye(2)
            norm = validate_norm_spec(Scaled(T, Lp(p)) if scaled else Lp(p), dim=2)
            M = T @ A @ np.linalg.inv(T)
            scale = np.abs(M).sum()
            tol = 1e-9 * scale
            width = (measures.BRACKET_GAP + 40 * np.finfo(float).eps) * scale + tol
            for measure, fn in ((True, matrix_measure), (False, induced_matrix_norm)):
                calls.clear()
                r = fn(A, norm)
                lo, hi = _bracket(r)
                swept = _swept_quantity(M, p, measure)
                assert lo <= swept + tol and swept <= hi, (p, scaled, measure, A, T, lo, swept, hi)
                assert hi <= _riesz_thorin_caps(M, p, measure) + tol
                assert r.error_bound <= width or sum(calls) >= measures.BRACKET_MAX_EVALS, (p, A, T, r)


def _second_difference(M: np.ndarray, p: float, measure: bool, t: np.ndarray, h: float) -> np.ndarray:
    """|F(t + h) - 2F(t) + F(t - h)| / h^2 for the functions whose second
    derivative the bracket bounds: R = |Mx|_p^p / |x|_p^p for the norm and
    G = sum sign(x_i)|x_i|^(p-1)(Mx)_i / |x|_p^p for the measure."""

    def F(s):
        X = np.column_stack([np.cos(s), np.sin(s)])
        S = (np.abs(X) ** p).sum(axis=1)
        Y = X @ M.T
        top = (np.sign(X) * np.abs(X) ** (p - 1) * Y).sum(axis=1) if measure else (np.abs(Y) ** p).sum(axis=1)
        return top / S

    return np.abs(F(t + h) - 2 * F(t) + F(t - h)) / h**2


@pytest.mark.parametrize("p", [2.5, 3.0, 4.0, 7.0])
def test_curvature_bound_holds_on_every_interval(p):
    # K as the bracket computes it on each of 256 intervals of [0, pi],
    # against centred second differences at 16 points inside each; at
    # p = 2.5 the measure's K grows like |x_i|^(p-3) on the intervals next
    # to an axis, which are checked here, and is inf on those that reach one
    rng = np.random.default_rng(int(p * 10))
    h = 1e-4
    t = np.linspace(0.0, np.pi, 257)
    X = np.column_stack([np.cos(t), np.sin(t)])
    inner = t[:-1, None] + h + (t[1] - t[0] - 2 * h) * np.linspace(0.0, 1.0, 16)
    for scaled in (False, True):
        for _ in range(5):
            M = rng.uniform(-2.0, 2.0, (2, 2))
            if scaled:
                T = np.eye(2) + 0.5 * rng.standard_normal((2, 2))
                M = T @ M @ np.linalg.inv(T)
            for measure in (True, False):
                K = measures._curvature(M, p, "measure" if measure else "norm", 1.0)(X[:-1], X[1:])
                d2 = _second_difference(M, p, measure, inner.ravel(), h).reshape(inner.shape).max(axis=1)
                assert (K >= d2).all(), (p, measure, M, np.flatnonzero(K < d2))
                if measure and p < 3:
                    # t = 0 and the crossing of pi/2 reach an axis; the float
                    # end points pi/2 and pi lie just short of theirs
                    at_axis = np.isin(np.arange(256), [0, 128])
                    assert np.isinf(K[at_axis]).all() and np.isfinite(K[~at_axis]).all()
                else:
                    assert np.isfinite(K).all()


def test_lp_bracket_work_is_bounded_in_2d(monkeypatch):
    # counts of quotient rows and calls, not a timing: each bracket of this
    # matrix took 9,124-14,246 rows under a first-order bound alone, and
    # 8-10 calls when each round halved the open intervals
    calls = _record_quotient_calls(monkeypatch)
    A = np.array([[0.3, -1.2], [0.7, 0.1]])
    for p in (1.5, 3.0, 4.0):
        norm = validate_norm_spec(Lp(p), dim=2)
        for fn in (matrix_measure, induced_matrix_norm):
            calls.clear()
            assert fn(A, norm).error_bound <= 1e-5
            assert 0 < sum(calls) <= 1000, (p, fn.__name__, calls)
            assert len(calls) <= 4, (p, fn.__name__, calls)


# (p, quantity, matrix, scaling or None, width when every round halved the
# open intervals): searches that run into BRACKET_MAX_EVALS when a round may
# split 16 ways with 1/8 of the rows left, which left all but the first two
# 2-15% wider, since the wide rounds spend rows that halving keeps for the end
_CAPPED_LP_BRACKETS = [
    (1.001, "measure", [[0.3, -1.2], [0.7, 0.1]], None, 2.8566453626144295e-05),
    (1e6, "measure", [[0.3, -1.2], [0.7, 0.1]], None, 2.2803400534243679e-04),
    (1.001, "norm", [[-1867.0, 1377.0], [0.0, -450.0]], None, 0.35184746336683403),
    (10.0, "measure", [[-84.76, 12.39], [0.0, 70.42]], None, 0.03693986791175137),
    (50.0, "measure", [[0.0894, 0.0401], [0.0254, -0.00172]], None, 1.5661879013468826e-07),
    (50.0, "measure", [[-0.1675, 0.1628], [0.00555, 0.1458]], None, 1.2337463997900366e-05),
    (50.0, "measure", [[0.069, -0.0491], [0.089, -0.023]], [[1.64, -0.207], [0.734, 1.19]], 2.7446019757846486e-07),
    (50.0, "measure", [[-789.0, -207.3], [530.3, 218.0]], [[1.377, -0.311], [-0.0817, 0.948]], 0.0024461125222051436),
    (50.0, "measure", [[11.62, 5.388], [12.11, -4.855]], [[1.782, 0.1212], [0.4257, 1.572]], 3.8492380465271284e-05),
]


@pytest.mark.parametrize("p, quantity, A, T, width", _CAPPED_LP_BRACKETS)
def test_capped_lp_brackets_are_no_wider_than_under_halving(p, quantity, A, T, width, monkeypatch):
    calls = _record_quotient_calls(monkeypatch)
    norm = validate_norm_spec(Scaled(np.array(T), Lp(p)) if T else Lp(p), dim=2)
    fn = matrix_measure if quantity == "measure" else induced_matrix_norm
    assert fn(np.array(A), norm).error_bound <= width
    assert sum(calls) > 0.9 * measures.BRACKET_MAX_EVALS, sum(calls)


def test_lp_bracket_never_exceeds_the_interpolation_caps():
    for n in (2, 3, 4):
        for p in (1.2, 1.5, 3.0, 6.0):
            A = RNG.standard_normal((n, n))
            norm = validate_norm_spec(Lp(p), dim=n)
            tol = 1e-12 * np.abs(A).sum()
            for measure, fn in ((True, matrix_measure), (False, induced_matrix_norm)):
                lo, hi = _bracket(fn(A, norm, seed=2))
                assert hi <= _riesz_thorin_caps(A, p, measure) + tol
            assert spectral_abscissa(A) <= hi + tol


def test_lp_bracket_dual_exponents_overlap():
    # ||I + hA||_p = ||I + hA^T||_q, so mu_p(A) = mu_q(A^T)
    for n in (2, 3):
        A = RNG.standard_normal((n, n))
        for p in (1.5, 3.0):
            q = p / (p - 1)
            a = _bracket(matrix_measure(A, validate_norm_spec(Lp(p), dim=n), seed=4))
            b = _bracket(matrix_measure(A.T, validate_norm_spec(Lp(q), dim=n), seed=4))
            assert max(a[0], b[0]) <= min(a[1], b[1])


def test_lp_bracket_is_bit_identical_for_a_seed():
    A = np.array([[-1.0, 2.0, 0.0], [0.5, -2.0, 1.0], [0.0, 1.0, -3.0]])
    norm = validate_norm_spec(Scaled(np.diag([1.0, 2.0, 0.5]), Lp(3.0)), dim=3)
    for fn in (matrix_measure, induced_matrix_norm):
        a, b = fn(A, norm, seed=9), fn(A, norm, seed=9)
        assert (a.value, a.error_bound) == (b.value, b.error_bound)


def test_lp_bracket_needs_no_scipy_optimize():
    src = str(Path(logmeasure.__file__).resolve().parents[1])
    probe = (
        "import sys, numpy as np, logmeasure as lm\n"
        "for n in (2, 3):\n"
        "    for spec in (lm.Lp(3.0), lm.Scaled(np.eye(n) * 2, lm.Lp(1.5))):\n"
        "        norm = lm.validate_norm_spec(spec, dim=n)\n"
        "        A = np.arange(n * n, dtype=float).reshape(n, n) - 3\n"
        "        lm.matrix_measure(A, norm), lm.induced_matrix_norm(A, norm)\n"
        "cases = {s: lm.Lp(2.0 if s in ('++', '--') else 1.0) for s in ('++', '--', '+-', '-+')}\n"
        "try:\n"
        "    lm.validate_norm_spec(lm.PiecewiseOrthant(cases))\n"
        "except lm.NoExactPath:\n"
        "    pass\n"
        "else:\n"
        "    raise SystemExit('validation did not refuse the residue norm')\n"
        "print('scipy.optimize' in sys.modules)"
    )
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env, check=True)
    assert done.stdout.strip() == "False"
