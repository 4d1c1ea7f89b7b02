"""Single implementations against the code they replaced.

* ``simulate`` evaluates RK4 as its propagator on the decoupled halves
  ((x + z) / 2, (z - x) / 2), 64 steps per product; the reference is the
  four-stage loop on the 2n x 2n block it replaced. The arithmetic changed,
  so states and the sync metric are compared to 1e-11 (1 + max|y|), times,
  length and the divergence flag exactly. Its cutoff, checked once per
  block of 64 steps, stops every run at the step where a per-step check on
  the block propagator stops it; its states stay within 64 k eps |y_k|_inf,
  and its sync metric within 1e-9 relative, of a 50-digit run of the staged
  recursion.
* ``ValidatedNorm.evaluate_many`` reads the validated representation; the
  reference is the spec-tree recursion it replaced. Values are bitwise
  equal except where the arithmetic was re-associated: a scaled polytope
  is evaluated by its transformed facet normals, and a chain of scalings
  by the collapsed product of its matrices.
* ``spectral_abscissa`` is the one-row case of the stacked eigenvalue
  kernel, bitwise equal to a direct eigvals call.
"""

import functools
import math

import numpy as np
import pytest

from logmeasure import (
    DIVERGENCE_CUTOFF,
    FRAGILE_MATRIX,
    Lp,
    PiecewiseOrthant,
    Polyhedral,
    Scaled,
    build_coupled,
    builtin_battery,
    hexagon_spec,
    simulate,
    spectral_abscissa,
    validate_norm_spec,
)
from logmeasure.norms import _lp_eval_many
from test_kernels import MATRICES, NORMS

# ------------------------------------------------------------------ simulate


def reference_simulate(A, D, x0, z0, horizon, dt):
    """simulate's integration as the staged RK4 loop: (times, states, sync,
    diverged)."""
    B = build_coupled(A, D).block
    n = B.shape[0] // 2
    steps = math.ceil(horizon / dt - 1e-9)
    times = np.arange(steps + 1) * dt
    states = np.empty((steps + 1, 2 * n))
    sync = np.empty(steps + 1)
    y = np.concatenate([x0, z0])
    states[0] = y
    sync[0] = np.linalg.norm(y[:n] - y[n:])
    half, sixth = 0.5 * dt, dt / 6.0
    for k in range(1, steps + 1):
        k1 = B @ y
        k2 = B @ (y + half * k1)
        k3 = B @ (y + half * k2)
        k4 = B @ (y + dt * k3)
        y = y + sixth * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        states[k] = y
        sync[k] = np.linalg.norm(y[:n] - y[n:])
        if np.abs(y).max() > DIVERGENCE_CUTOFF:
            return times[: k + 1], states[: k + 1], sync[: k + 1], True
    return times, states, sync, False


def _systems():
    rng = np.random.default_rng(31)
    out = []
    for k in range(20):
        n = k % 5 + 1
        A = rng.standard_normal((n, n))
        D = rng.uniform(0.0, 2.0, n)
        bnorm = np.abs(build_coupled(A, D).block).sum(axis=1).max()
        dt = rng.uniform(0.2, 1.0) * 0.1 / bnorm
        out.append((A, D, rng.standard_normal(n), rng.standard_normal(n), 5.0, dt))
    out.append((FRAGILE_MATRIX, np.ones(2), [1.0, 0.0], [0.0, 1.0], 30.0, 0.01))
    # e^{2t} passes the cutoff near t = 6.9
    out.append((np.array([[2.0]]), np.zeros(1), [1.0], [0.5], 10.0, 0.05))
    return out


SYSTEMS = _systems()


@pytest.mark.parametrize("k", range(len(SYSTEMS)))
def test_propagator_matches_staged_rk4(k):
    args = SYSTEMS[k]
    times, states, sync, diverged = reference_simulate(*args)
    traj = simulate(*args)
    assert traj.diverged == diverged
    assert traj.times.tobytes() == times.tobytes()
    tol = 1e-11 * (1.0 + np.abs(states).max())
    assert np.abs(traj.states - states).max() <= tol
    assert np.abs(traj.sync_metric - sync).max() <= tol


def test_propagator_cases_include_a_diverging_run():
    assert [reference_simulate(*args)[3] for args in SYSTEMS].count(True) == 1


def reference_propagation(A, D, x0, z0, horizon, dt):
    """simulate's propagation with the cutoff checked after every step:
    (states, diverged)."""
    B = build_coupled(A, D).block
    P = eye = np.eye(B.shape[0])
    for k in (4.0, 3.0, 2.0, 1.0):
        P = eye + (dt / k) * B @ P
    steps = math.ceil(horizon / dt - 1e-9)
    states = np.empty((steps + 1, B.shape[0]))
    y = states[0] = np.concatenate([x0, z0])
    for k in range(1, steps + 1):
        y = states[k] = P @ y
        if np.abs(y).max() > DIVERGENCE_CUTOFF:
            return states[: k + 1], True
    return states, False


def _block_cases():
    """Runs that stop at steps 1, 63, 64, 65 (the initial state of the
    diverging fragile run scaled to cross the cutoff there) and 2169 (that
    run itself), two from huge initial states, and two that never stop."""
    diverging = (FRAGILE_MATRIX, np.array([0.0, 3.0]), np.array([1.0, 0.0]), np.array([0.0, 1.0]), 30.0, 0.01)
    peaks = np.abs(reference_propagation(*diverging)[0]).max(axis=1)
    cases = {2169: diverging}
    for stop in (1, 63, 64, 65):
        # between the largest state before the stop and the state at it
        c = DIVERGENCE_CUTOFF / np.sqrt(peaks[:stop].max() * peaks[stop])
        cases[stop] = (*diverging[:2], c * diverging[2], c * diverging[3], *diverging[4:])
    cases["huge"] = (FRAGILE_MATRIX, np.ones(2), np.array([1e306, 0.0]), np.array([0.0, 1.0]), 1.0, 0.01)
    # x' = 2x grows e^0.1 a step: 20 unchecked steps from 1e308 would overflow
    cases["near_max"] = (np.array([[2.0]]), np.zeros(1), np.array([1e308]), np.array([0.0]), 1.0, 0.05)
    cases["stable"] = (FRAGILE_MATRIX, np.ones(2), [1.0, 0.0], [0.0, 1.0], 30.0, 0.01)
    cases["short"] = (np.array([[-1.0]]), np.ones(1), [1.0], [0.0], 0.5, 0.01)
    return cases


BLOCK_CASES = _block_cases()


@pytest.mark.parametrize("case", list(BLOCK_CASES))
def test_block_divergence_check_matches_per_step_check(case):
    args = BLOCK_CASES[case]
    states, diverged = reference_propagation(*args)
    if isinstance(case, int):
        assert (diverged, states.shape[0] - 1) == (True, case)
    traj = simulate(*args)
    assert traj.diverged == diverged
    assert traj.states.shape == states.shape
    assert traj.times.tobytes() == (np.arange(states.shape[0]) * args[5]).tobytes()
    assert_within_oracle(traj, case)


def oracle_rk4(A, D, x0, z0, dt, steps):
    """The staged RK4 recursion on the 2n x 2n block [[A - D, D], [D, A - D]],
    in 50-digit arithmetic from the exact float inputs: (states, sync) of
    every step, rounded to float at the end."""
    mpmath = pytest.importorskip("mpmath")
    A = np.asarray(A, dtype=float)
    n = A.shape[0]
    d = np.broadcast_to(np.asarray(D, dtype=float), (n,))
    with mpmath.workdps(50):
        mpf = mpmath.mpf
        B = [[mpf(0)] * (2 * n) for _ in range(2 * n)]
        for i in range(n):
            for j in range(n):
                B[i][j] = B[i + n][j + n] = mpf(A[i, j]) - (mpf(d[i]) if i == j else 0)
            B[i][i + n] = B[i + n][i] = mpf(d[i])
        h = mpf(dt)

        def slope(v):
            return [mpmath.fsum(b * w for b, w in zip(row, v)) for row in B]

        def sync(v):
            return mpmath.sqrt(mpmath.fsum((v[i] - v[i + n]) ** 2 for i in range(n)))

        y = [mpf(float(v)) for v in (*x0, *z0)]
        states, syncs = [list(y)], [sync(y)]
        for _ in range(steps):
            k1 = slope(y)
            k2 = slope([v + h / 2 * k for v, k in zip(y, k1)])
            k3 = slope([v + h / 2 * k for v, k in zip(y, k2)])
            k4 = slope([v + h * k for v, k in zip(y, k3)])
            y = [v + h / 6 * (p + 2 * q + 2 * r + s) for v, p, q, r, s in zip(y, k1, k2, k3, k4)]
            states.append(y)
            syncs.append(sync(y))
        return np.array(states, dtype=float), np.array(syncs, dtype=float)


@functools.cache
def _oracle(case):
    args = BLOCK_CASES[case]
    steps = simulate(*args).times.shape[0] - 1
    return oracle_rk4(*args[:4], args[5], steps)


def assert_within_oracle(traj, case):
    """States within 64 k eps |y_k|_inf of the 50-digit run after k steps,
    the sync metric within 1e-9 of it, relative."""
    states, sync = _oracle(case)
    assert traj.states.shape == states.shape
    k = np.arange(states.shape[0])
    err = np.abs(traj.states - states).max(axis=1)
    assert np.all(err <= 64 * k * np.finfo(float).eps * np.abs(states).max(axis=1))
    assert np.all(np.abs(traj.sync_metric - sync) <= 1e-9 * sync)


@pytest.mark.parametrize("case", ["stable", 2169, "huge"])
def test_simulate_matches_50_digit_rk4(case):
    """The fragile example (D = I), its diverging twin (D = diag(0, 3)) and
    a huge initial state, against the 50-digit staged recursion."""
    traj = simulate(*BLOCK_CASES[case])
    assert_within_oracle(traj, case)
    if case == "stable":
        # the agents' distance decays to about 1.3e-32, far below the
        # rounding of the states themselves; it reads as itself, not 0
        assert traj.sync_metric[-1] == pytest.approx(1.2857e-32, rel=1e-4)


# ------------------------------------------------------------- evaluate_many


def reference_evaluate_many(spec, X):
    """evaluate_many as the recursion over the spec tree it replaced."""
    if isinstance(spec, Lp):
        return _lp_eval_many(float(spec.p), X)
    if isinstance(spec, Scaled):
        return reference_evaluate_many(spec.inner, X @ np.asarray(spec.T, dtype=float).T)
    if isinstance(spec, Polyhedral):
        return validate_norm_spec(spec)._polytope.gauge_many(X)
    # each row takes the case of its sign pattern, zero coordinates read '+'
    out = np.empty(X.shape[0])
    patterns = np.array(["".join(row) for row in np.where(X < 0, "-", "+")])
    for signs, inner in spec.cases.items():
        mask = patterns == signs
        if mask.any():
            out[mask] = reference_evaluate_many(inner, X[mask])
    return out


def _reassociated(spec) -> bool:
    """A scaling of a polytope ball (a polyhedral spec, or a piecewise one
    held as its rebuilt polytope), or a chain of scalings."""
    return isinstance(spec, Scaled) and isinstance(spec.inner, (Scaled, Polyhedral, PiecewiseOrthant))


_T1 = np.array([[1.0, 0.4, 0.0], [-0.3, 2.0, 0.1], [0.2, 0.0, 0.5]])
_T2 = np.array([[0.7, 0.0, 1.2], [0.1, 1.5, 0.0], [0.0, -0.6, 1.0]])
_W = np.random.default_rng(17).standard_normal((4, 3))
CHAINS = [
    validate_norm_spec(Scaled(_T1, Scaled(_T2, Lp(p)))) for p in (1.0, 2.0, math.inf, 3.0)
] + [
    validate_norm_spec(Scaled(_T1, Scaled(_T2, Polyhedral(np.vstack([_W, -_W]))))),
    validate_norm_spec(Scaled(np.array([[2.0, 0.5], [0.0, 1.0]]), Scaled(np.diag([1.0, 3.0]), hexagon_spec()))),
]
EVAL_NORMS = NORMS + [norm for _, norm in builtin_battery()] + CHAINS


def _samples(n, rng):
    X = rng.standard_normal((300, n))
    X[::7, rng.integers(n)] = 0.0  # rows on the coordinate hyperplanes
    return X


def test_evaluate_many_matches_spec_recursion():
    rng = np.random.default_rng(23)
    moved = {}
    for k, norm in enumerate(EVAL_NORMS):
        X = _samples(norm.dim, rng)
        want = reference_evaluate_many(norm.spec, X)
        got = norm.evaluate_many(X)
        if _reassociated(norm.spec):
            moved[k] = float((np.abs(got - want) / (1.0 + np.abs(want))).max())
        else:
            assert got.tobytes() == want.tobytes(), (k, norm)
    assert len(moved) == sum(_reassociated(norm.spec) for norm in NORMS) + len(CHAINS)
    assert max(moved.values()) <= 1e-14


# --------------------------------------------------------- spectral_abscissa


def test_spectral_abscissa_is_bitwise_eigvals():
    rng = np.random.default_rng(41)
    mats = list(MATRICES) + [rng.standard_normal((n, n)) for n in (1, 2, 3, 4, 6, 8) for _ in range(10)]
    mats += [np.array([[0.0, 1.0], [-1.0, 0.0]]), np.array([[-0.0]]), np.zeros((3, 3))]
    for A in mats:
        want = np.linalg.eigvals(A).real.max()
        assert np.float64(spectral_abscissa(A)).tobytes() == want.tobytes()
