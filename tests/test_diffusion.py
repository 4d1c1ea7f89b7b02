"""Two-cell diffusive coupling: block assembly, the synchrony test, RK4."""

import math
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from scipy.optimize import linear_sum_assignment

from logmeasure import (
    BadTimeGrid,
    BaseNotHurwitz,
    FRAGILE_MATRIX,
    InconsistentOracles,
    Marginal,
    NotNonnegativeDiagonal,
    StepTooLarge,
    build_coupled,
    simulate,
    spectral_abscissa,
    sync_verdict,
)

RNG = np.random.default_rng(555)


def _eig_match(got: np.ndarray, expected: np.ndarray, tol: float) -> None:
    """Pair two eigenvalue multisets by minimum-cost assignment."""
    cost = np.abs(got[:, None] - expected[None, :])
    rows, cols = linear_sum_assignment(cost)
    assert cost[rows, cols].max() <= tol


# -------------------------------------------------------------------- blocks


def test_block_layout():
    D = np.diag([1.0, 2.0])
    cs = build_coupled(FRAGILE_MATRIX, D)
    n = 2
    assert np.array_equal(cs.block[:n, :n], FRAGILE_MATRIX - D)
    assert np.array_equal(cs.block[n:, n:], FRAGILE_MATRIX - D)
    assert np.array_equal(cs.block[:n, n:], D)
    assert np.array_equal(cs.block[n:, :n], D)


def test_block_spectrum_splits():
    # coupling never creates new modes: the block spectrum is exactly the
    # spectrum of A together with the spectrum of A - 2D
    for _ in range(200):
        n = int(RNG.integers(1, 5))
        A = RNG.standard_normal((n, n)) * 2.0
        D = np.diag(RNG.uniform(0.0, 3.0, size=n))
        cs = build_coupled(A, D)
        got = np.linalg.eigvals(cs.block)
        expected = np.concatenate([np.linalg.eigvals(A), np.linalg.eigvals(A - 2.0 * D)])
        _eig_match(got, expected, 1e-8)


def test_scalar_cells():
    cs = build_coupled(np.array([[-1.0]]), np.array([[3.0]]))
    got = np.sort(np.linalg.eigvals(cs.block).real)
    assert np.allclose(got, [-7.0, -1.0], atol=1e-12)


def test_coupling_must_be_nonnegative_diagonal():
    with pytest.raises(NotNonnegativeDiagonal):
        build_coupled(FRAGILE_MATRIX, np.diag([1.0, -0.5]))
    with pytest.raises(NotNonnegativeDiagonal):
        sync_verdict(FRAGILE_MATRIX, np.diag([-1.0, 1.0]))
    with pytest.raises(ValueError):
        build_coupled(FRAGILE_MATRIX, np.array([[1.0, 0.3], [0.0, 1.0]]))


def test_decoupling_check_scales_with_the_gains():
    # (-0.2 - 3.3e6) + 3.3e6 misses -0.2 by 1.9e-10: above an absolute
    # 1e-10, below 4 eps (max|a_ij| + max d) = 2.9e-9
    A = np.array([[0.1, -0.3], [0.7, -0.2]])
    cs = build_coupled(A, [1.1e6, 3.3e6])
    assert np.array_equal(cs.block[:2, 2:], np.diag([1.1e6, 3.3e6]))


def test_misassembled_block_fails_the_decoupling_check(monkeypatch):
    def swapped(A, Dm):
        # the coupling blocks on the diagonal and A - D off it
        n = A.shape[0]
        block = np.empty((2 * n, 2 * n))
        block[:n, n:] = block[n:, :n] = A - Dm
        block[:n, :n] = block[n:, n:] = Dm
        return block

    monkeypatch.setattr("logmeasure.diffusion._assemble", swapped)
    with pytest.raises(InconsistentOracles):
        build_coupled(FRAGILE_MATRIX, np.diag([1.0, 2.0]))


# ------------------------------------------------------------------- verdict


def test_sync_verdict_frozen_cases():
    assert sync_verdict(FRAGILE_MATRIX, np.eye(2)) is True
    # damping only the second state pushes a block eigenvalue across zero
    assert sync_verdict(FRAGILE_MATRIX, np.diag([0.0, 1.0])) is False


def test_sync_verdict_requires_hurwitz_base():
    with pytest.raises(BaseNotHurwitz):
        sync_verdict(np.array([[1.0, 0.0], [0.0, -1.0]]), np.eye(2))


def test_sync_verdict_marginal_propagates():
    # A - 2D = [[1, -3], [1, -3]] is singular with negative trace, so the
    # slow mode sits exactly on the imaginary axis
    with pytest.raises(Marginal):
        sync_verdict(FRAGILE_MATRIX, np.diag([0.0, 0.5]))


def test_sync_verdict_tracks_block_spectrum():
    for _ in range(60):
        A = RNG.standard_normal((3, 3))
        A -= (spectral_abscissa(A) + RNG.uniform(0.5, 2.0)) * np.eye(3)
        D = np.diag(RNG.uniform(0.0, 4.0, size=3))
        margin = spectral_abscissa(A - 2.0 * D)
        if abs(margin) < 1e-3:
            continue
        assert sync_verdict(A, D) == (margin < 0)


# ---------------------------------------------------------------- simulation


def test_decay_to_synchrony():
    traj = simulate(FRAGILE_MATRIX, np.eye(2), [1.0, 0.0], [0.0, 1.0], horizon=30.0, dt=0.01)
    assert not traj.diverged
    assert traj.times[0] == 0.0
    assert traj.times[-1] == pytest.approx(30.0, abs=1e-9)
    assert len(traj.times) == len(traj.sync_metric) == traj.states.shape[0]
    assert traj.states.shape[1] == 4
    assert np.all(np.diff(traj.times) > 0.0)
    assert traj.sync_metric[0] == pytest.approx(np.sqrt(2.0), abs=1e-12)
    assert traj.sync_metric[-1] < 1e-6


def test_instability_detected_and_cut_off():
    traj = simulate(
        FRAGILE_MATRIX, np.diag([0.0, 1.0]), [1.0, 0.0], [0.0, 1.0], horizon=200.0, dt=0.01
    )
    assert traj.diverged
    assert traj.times[-1] < 200.0
    assert traj.sync_metric[-1] > 1e6


def test_identical_cells_stay_synchronized():
    traj = simulate(
        FRAGILE_MATRIX, np.diag([0.0, 1.0]), [1.0, -2.0], [1.0, -2.0], horizon=10.0, dt=0.01
    )
    # x0 = z0 puts the trajectory on the invariant synchrony manifold; the
    # mismatch can only accumulate roundoff
    assert np.max(traj.sync_metric) <= 1e-12


def test_step_size_guards():
    with pytest.raises(StepTooLarge):
        simulate(FRAGILE_MATRIX, np.eye(2), [1.0, 0.0], [0.0, 1.0], horizon=10.0, dt=0.5)
    with pytest.raises(StepTooLarge):
        simulate(FRAGILE_MATRIX, np.eye(2), [1.0, 0.0], [0.0, 1.0], horizon=0.001, dt=0.01)
    with pytest.raises(ValueError):
        simulate(FRAGILE_MATRIX, np.eye(2), [1.0, 0.0], [0.0, 1.0], horizon=10.0, dt=0.0)
    with pytest.raises(ValueError):
        simulate(FRAGILE_MATRIX, np.eye(2), [1.0, 0.0], [0.0, 1.0], horizon=-1.0, dt=0.01)


@pytest.mark.parametrize(
    "horizon, dt", [(math.inf, 0.01), (math.nan, 0.01), (30.0, math.nan), (30.0, math.inf)]
)
def test_non_finite_time_grid_is_refused(horizon, dt):
    with pytest.raises(BadTimeGrid):
        simulate(FRAGILE_MATRIX, np.eye(2), [1.0, 0.0], [0.0, 1.0], horizon=horizon, dt=dt)


def test_state_cap_refuses_before_allocating():
    tracemalloc.start()
    try:
        with pytest.raises(BadTimeGrid):
            simulate(FRAGILE_MATRIX, np.eye(2), [1.0, 0.0], [0.0, 1.0], horizon=1e12, dt=0.01)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_state_cap_boundary(monkeypatch):
    # 3000 steps of the 2 x 2 pair store 3001 rows of 4 values
    args = (FRAGILE_MATRIX, np.eye(2), [1.0, 0.0], [0.0, 1.0])
    monkeypatch.setattr("logmeasure.diffusion.MAX_STATE_VALUES", 3001 * 4)
    assert simulate(*args, horizon=30.0, dt=0.01).states.shape == (3001, 4)
    monkeypatch.setattr("logmeasure.diffusion.MAX_STATE_VALUES", 3001 * 4 - 1)
    with pytest.raises(BadTimeGrid):
        simulate(*args, horizon=30.0, dt=0.01)


def test_integrator_matches_exponential():
    A = np.array([[-0.4, 1.1], [-0.8, -0.3]])
    D = np.diag([0.2, 0.5])
    x0, z0 = [1.0, 0.0], [0.3, -0.7]
    traj = simulate(A, D, x0, z0, horizon=2.0, dt=0.005)
    from logmeasure import build_coupled

    block = build_coupled(A, D).block
    exact = scipy.linalg.expm(2.0 * block) @ np.concatenate([x0, z0])
    assert np.allclose(traj.states[-1], exact, atol=1e-10)


def test_integrator_is_fourth_order():
    # halving dt should shrink the global error by about 2^4
    A = np.array([[-0.4, 1.1], [-0.8, -0.3]])
    D = np.diag([0.2, 0.5])
    x0, z0 = [1.0, 0.0], [0.3, -0.7]
    from logmeasure import build_coupled

    block = build_coupled(A, D).block
    exact = scipy.linalg.expm(1.0 * block) @ np.concatenate([x0, z0])
    errs = []
    for dt in (0.02, 0.01):
        traj = simulate(A, D, x0, z0, horizon=1.0, dt=dt)
        errs.append(np.max(np.abs(traj.states[-1] - exact)))
    ratio = errs[0] / errs[1]
    assert 12.0 <= ratio <= 20.0


def test_simulation_agrees_with_verdict():
    """The eigenvalue criterion and the integrator must tell one story."""
    rng = np.random.default_rng(909)
    tested = 0
    while tested < 100:
        A = rng.standard_normal((2, 2))
        A -= (spectral_abscissa(A) + rng.uniform(0.3, 1.5)) * np.eye(2)
        D = np.diag(rng.uniform(0.0, 2.0, size=2))
        margin = spectral_abscissa(A - 2.0 * D)
        if abs(margin) < 1e-3:
            continue  # too close to neutral for a finite-horizon readout
        block_scale = np.max(np.abs(build_coupled(A, D).block).sum(axis=1))
        dt = min(0.05, 0.09 / max(block_scale, 1e-6))
        traj = simulate(A, D, [1.0, 0.0], [0.0, 1.0], horizon=40.0, dt=dt)
        predicted = sync_verdict(A, D)
        if traj.diverged:
            assert not predicted
        else:
            start = np.interp(5.0, traj.times, traj.sync_metric)
            end = traj.sync_metric[-1]
            if predicted:
                assert end < max(1e-8, 1e-3 * (start + 1.0))
            else:
                assert end > start
        tested += 1
