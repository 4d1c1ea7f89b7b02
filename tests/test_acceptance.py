"""End-to-end acceptance checklist.

Each test covers one shipping criterion, at the stated tolerance and
runtime budget, and contributes one PASS/FAIL line to the terminal
summary (see conftest.py). Run with -s to see the lines inline as well.
"""

import time
from contextlib import contextmanager

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

from logmeasure import (
    CERTIFIABLE_MATRIX,
    FRAGILE_MATRIX,
    Lp,
    Polyhedral,
    additive_d_stable_2x2,
    build_coupled,
    builtin_battery,
    certify_additive_d_stability,
    equivalence_table,
    falsify_additive_d_stability,
    falsify_on_grid,
    induced_matrix_norm,
    is_absolute,
    is_hurwitz,
    is_orthant_monotonic,
    matrix_measure,
    norm_spec_to_json,
    perturbation_bounds,
    simulate,
    spectral_abscissa,
    sync_verdict,
    validate_norm_spec,
)
from oracles import measure_quotient

RESULTS: list[tuple[int, str, str]] = []


@contextmanager
def criterion(num: int, text: str):
    try:
        yield
    except BaseException:
        RESULTS.append((num, "FAIL", text))
        print(f"ACCEPTANCE {num} FAIL  {text}", flush=True)
        raise
    RESULTS.append((num, "PASS", text))
    print(f"ACCEPTANCE {num} PASS  {text}", flush=True)


def test_criterion_1_equivalence_battery():
    with criterion(1, "orthant-monotonicity matches admissibility on all 9 norms"):
        t0 = time.perf_counter()
        report = equivalence_table()
        elapsed = time.perf_counter() - t0
        assert report.all_agree
        for row in report.rows:
            expected = row.name not in ("parallelogram", "sheared_linf")
            assert row.orthant_monotonic.holds is expected, row.name
            assert row.admissibility.admissible is expected, row.name
        assert elapsed < 10.0, f"battery took {elapsed:.1f}s"


def test_criterion_2_sheared_norm_closed_forms():
    with criterion(2, "sheared-linf measure and norm values are exact"):
        norm = validate_norm_spec(
            dict(builtin_battery())["sheared_linf"].spec, dim=2
        )
        assert matrix_measure(-np.diag([1.0, 2.0]), norm).value == 3.0
        assert norm([2.0, -1.0]) == 1.0
        assert norm([2.0, 0.0]) == 2.0


def test_criterion_3_hexagon_classification():
    with criterion(3, "hexagon norm values and classifier verdicts"):
        hexagon = dict(builtin_battery())["hexagon"]
        assert hexagon([1.0, -1.0]) == 2.0
        assert hexagon([1.0, 1.0]) == 1.0
        om = is_orthant_monotonic(hexagon)
        assert om.holds and om.exact
        ab = is_absolute(hexagon)
        assert not ab.holds
        assert np.array_equal(ab.witness, np.array([1.0, -1.0]))


def test_criterion_4_closed_forms_vs_polytope_and_quotient():
    with criterion(4, "mu_1/mu_inf closed forms match polytope path, mu_2 matches quotient"):
        t0 = time.perf_counter()
        rng = np.random.default_rng(44)
        n = 5
        l1 = validate_norm_spec(Lp(1.0), dim=n)
        l2 = validate_norm_spec(Lp(2.0), dim=n)
        linf = validate_norm_spec(Lp(np.inf), dim=n)
        cross = validate_norm_spec(Polyhedral(np.vstack([np.eye(n), -np.eye(n)])))
        corners = np.array(np.meshgrid(*([[-1.0, 1.0]] * n))).T.reshape(-1, n)
        cube = validate_norm_spec(Polyhedral(corners))
        for _ in range(500):
            A = rng.integers(-5, 6, size=(n, n)).astype(float)
            assert abs(
                matrix_measure(A, l1).value - matrix_measure(A, cross).value
            ) <= 1e-9
            assert abs(
                matrix_measure(A, linf).value - matrix_measure(A, cube).value
            ) <= 1e-9
            fd = measure_quotient(A, l2, 1e-9)
            assert abs(matrix_measure(A, l2).value - fd) <= 1e-5
        elapsed = time.perf_counter() - t0
        assert elapsed < 60.0, f"took {elapsed:.1f}s"


def test_criterion_5_perturbation_bounds():
    with criterion(5, "diagonal perturbation bounds hold and pinch for uniform D"):
        rng = np.random.default_rng(55)
        norms = {
            n: [validate_norm_spec(Lp(p), dim=n) for p in (1.0, 2.0, np.inf)]
            for n in range(2, 7)
        }
        for k in range(1000):
            n = int(rng.integers(2, 7))
            A = rng.uniform(-4.0, 4.0, size=(n, n))
            if k % 5 == 0:
                d = np.full(n, rng.uniform(0.0, 5.0))  # uniform shift
            else:
                d = rng.uniform(0.0, 5.0, size=n)
            D = np.diag(d)
            for norm in norms[n]:
                lo, hi, exact = perturbation_bounds(A, D, norm)
                mu = matrix_measure(A, norm).value
                assert abs(lo - (mu - d.max())) <= 1e-9
                assert abs(hi - (mu - d.min())) <= 1e-9
                assert lo - 1e-9 <= exact <= hi + 1e-9
                if k % 5 == 0:
                    assert abs(lo - exact) <= 1e-9 and abs(hi - exact) <= 1e-9


def test_criterion_6_fragile_matrix_end_to_end():
    with criterion(6, "fragile 2x2: stable alone, destabilized and desynchronized by coupling"):
        A = FRAGILE_MATRIX
        assert is_hurwitz(A)
        assert abs(spectral_abscissa(A) - (-0.5)) <= 1e-10
        assert not additive_d_stable_2x2(A)
        D = falsify_additive_d_stability(A)
        assert D is not None
        d = np.diag(D)
        assert d[1] > 1.0
        assert spectral_abscissa(A - D) > 1e-6

        assert sync_verdict(A, np.diag([0.0, 1.0])) is False
        grow = simulate(A, np.diag([0.0, 1.0]), [1.0, 0.0], [0.0, 1.0], horizon=30.0, dt=0.01)
        assert grow.sync_metric[-1] > 10.0 * grow.sync_metric[0]

        assert sync_verdict(A, np.eye(2)) is True
        decay = simulate(A, np.eye(2), [1.0, 0.0], [0.0, 1.0], horizon=30.0, dt=0.01)
        assert not decay.diverged
        assert decay.sync_metric[-1] < 1e-6


def test_criterion_7_sandwich_and_translation():
    with criterion(7, "abscissa <= measure <= norm and exact shift by c*I"):
        rng = np.random.default_rng(77)
        battery = builtin_battery()
        eye = np.eye(2)
        for k in range(1000):
            _, norm = battery[k % len(battery)]
            A = rng.uniform(-3.0, 3.0, size=(2, 2))
            c = rng.uniform(-5.0, 5.0)
            mu = matrix_measure(A, norm).value
            assert spectral_abscissa(A) <= mu + 1e-9
            assert mu <= induced_matrix_norm(A, norm).value + 1e-9
            assert abs(matrix_measure(A + c * eye, norm).value - mu - c) <= 1e-9


def test_criterion_8_certificate_soundness():
    with criterion(8, "euclidean certificate for the certifiable 2x2, falsifiers find nothing"):
        cert = certify_additive_d_stability(CERTIFIABLE_MATRIX, seed=0)
        assert cert.verdict == "stable"
        assert norm_spec_to_json(cert.certificate.norm) == {"kind": "lp", "p": 2}
        assert abs(cert.certificate.mu - (-3.0 + np.sqrt(5.0)) / 2.0) <= 1e-10
        assert falsify_additive_d_stability(CERTIFIABLE_MATRIX) is None
        assert falsify_on_grid(CERTIFIABLE_MATRIX, grid=100, extra=0, seed=0) is None


def test_criterion_9_coupled_spectrum_split():
    with criterion(9, "coupled block spectrum equals eig(A) together with eig(A-2D)"):
        t0 = time.perf_counter()
        rng = np.random.default_rng(99)
        for _ in range(200):
            n = int(rng.integers(1, 7))
            A = rng.standard_normal((n, n)) * 3.0
            D = np.diag(rng.uniform(0.0, 5.0, size=n))
            got = np.linalg.eigvals(build_coupled(A, D).block)
            expected = np.concatenate(
                [np.linalg.eigvals(A), np.linalg.eigvals(A - 2.0 * D)]
            )
            cost = np.abs(got[:, None] - expected[None, :])
            rows, cols = linear_sum_assignment(cost)
            assert cost[rows, cols].max() <= 1e-8
        elapsed = time.perf_counter() - t0
        assert elapsed < 30.0, f"took {elapsed:.1f}s"
