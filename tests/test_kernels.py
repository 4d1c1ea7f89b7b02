"""The stacked eigenvalue and measure kernels against the one-at-a-time
computations they replaced: same search path, same witnesses, same bits."""

import numpy as np
import pytest

from logmeasure import (
    Lp,
    Polyhedral,
    Scaled,
    hexagon_spec,
    matrix_measure,
    parallelogram_spec,
    sheared_linf_spec,
    spectral_abscissa,
    validate_norm_spec,
)
from logmeasure.measures import _closed_mu_many
from logmeasure.stability import (
    ADMISSIBILITY_TOL,
    FALSIFY_THRESHOLD,
    _abscissa_many,
    _diagonal_sweep,
    _pattern_search,
    _sample_nonneg_diagonals,
)


def _hurwitz_matrices():
    """Seeded Hurwitz n = 3..5 matrices; index k is the kth draw."""
    rng = np.random.default_rng(2024)
    while True:
        n = int(rng.integers(3, 6))
        A = rng.standard_normal((n, n))
        A -= np.eye(n) * (np.max(np.linalg.eigvals(A).real) + rng.uniform(0.05, 1.0))
        yield A


# draws that the search gives up on (0, 1) or falsifies after 266, 63, 130,
# 192 and 562 probes (10, 137, 211, 246, 266); then a matrix it gives up on
# and one that is unstable at D = 0. Budgets 7 and 50 run out mid-batch.
PICKS = (0, 1, 10, 137, 211, 246, 266)
MATRICES = [A for k, A in zip(range(max(PICKS) + 1), _hurwitz_matrices()) if k in PICKS]
MATRICES += [np.array([[-1.0, 4.0, 0.0], [-0.2, -1.0, 4.0], [-0.5, 0.0, -1.0]])]
MATRICES += [np.array([[-1.0, -1.0, 0.0], [1.0, -1.0, 0.0], [0.0, 0.0, 0.3]])]


def reference_pattern_search(A, budget, rng):
    """The falsifier's pattern search, one eigenvalue solve per probe."""
    n = A.shape[0]
    d_max = 10.0 * (1.0 + float(np.abs(A).sum(axis=1).max()))
    evals = 0

    def abscissa_at(d):
        nonlocal evals
        evals += 1
        return spectral_abscissa(A - np.diag(d))

    def starts():
        yield np.zeros(n)
        for i in range(n):
            e = np.zeros(n)
            e[i] = d_max
            yield e
        for i in range(n):
            e = np.full(n, d_max)
            e[i] = 0.0
            yield e
        yield np.full(n, d_max)
        while True:
            yield rng.uniform(0.0, d_max, n)

    for start in starts():
        if evals >= budget:
            return None, evals
        d = start.copy()
        best = abscissa_at(d)
        if best > FALSIFY_THRESHOLD:
            return np.diag(d), evals
        step = d_max / 4.0
        while step > d_max * 1e-6 and evals < budget:
            improved = False
            for i in range(n):
                for sgn in (1.0, -1.0):
                    trial = d.copy()
                    trial[i] = min(max(d[i] + sgn * step, 0.0), d_max)
                    if trial[i] == d[i]:
                        continue
                    if evals >= budget:
                        return None, evals
                    a = abscissa_at(trial)
                    if a > FALSIFY_THRESHOLD:
                        return np.diag(trial), evals
                    if a > best + 1e-12:
                        best, d, improved = a, trial, True
            if not improved:
                step /= 2.0
    return None, evals


@pytest.mark.parametrize("budget", [7, 50, 10_000])
@pytest.mark.parametrize("k", range(len(MATRICES)))
def test_batched_falsifier_matches_sequential_search(k, budget):
    A = MATRICES[k]
    want_D, want_evals = reference_pattern_search(A, budget, np.random.default_rng(k))
    got_D, got_evals = _pattern_search(A, budget, np.random.default_rng(k))
    assert got_evals == want_evals
    if want_D is None:
        assert got_D is None
    else:
        assert got_D.tobytes() == want_D.tobytes()


def test_falsifier_cases_cover_deep_and_exhausted_searches():
    runs = [reference_pattern_search(A, 10_000, np.random.default_rng(k)) for k, A in enumerate(MATRICES)]
    assert any(D is not None and evals > 500 for D, evals in runs)
    assert any(D is None for D, _ in runs)
    assert any(D is not None and evals == 1 for D, evals in runs)


def test_abscissa_many_is_bitwise_spectral_abscissa():
    rng = np.random.default_rng(5)
    for A in MATRICES:
        rows = rng.uniform(0.0, 20.0, (40, A.shape[0]))
        got = _abscissa_many(A, rows)
        want = [spectral_abscissa(A - np.diag(d)) for d in rows]
        assert got.tobytes() == np.array(want).tobytes()


def _norms():
    rng = np.random.default_rng(9)
    out = []
    for n in (1, 2, 3, 5):
        for p in (1.0, 2.0, np.inf):
            out.append(validate_norm_spec(Lp(p), dim=n))
            out.append(validate_norm_spec(Scaled(np.diag(np.exp(rng.uniform(-2, 2, n))), Lp(p))))
            T = np.eye(n) + 0.8 * rng.standard_normal((n, n))
            out.append(validate_norm_spec(Scaled(T, Lp(p))))
    out.append(validate_norm_spec(sheared_linf_spec()))
    # polytope balls: random symmetric ones in 2-5 D, a segment, scaled
    # polytopes, and the hexagon (a piecewise norm reduced to its polytope)
    for n in (2, 3, 4, 5):
        W = rng.standard_normal((n + 2, n))
        out.append(validate_norm_spec(Polyhedral(np.vstack([W, -W]))))
    out.append(validate_norm_spec(Polyhedral(np.array([[2.0], [-2.0], [0.5], [-0.5]]))))
    out.append(validate_norm_spec(parallelogram_spec()))
    W = rng.standard_normal((5, 3))
    for T in (np.diag([0.5, 2.0, 3.0]), np.eye(3) + 0.5 * rng.standard_normal((3, 3))):
        out.append(validate_norm_spec(Scaled(T, Polyhedral(np.vstack([W, -W])))))
    out.append(validate_norm_spec(hexagon_spec(), dim=2))
    out.append(validate_norm_spec(Scaled(np.array([[2.0, 0.5], [0.0, 1.0]]), hexagon_spec())))
    return out


NORMS = _norms()


def reference_sweep(norm, diags):
    """The admissibility sweep, one matrix_measure call per check."""
    eye = np.eye(norm.dim)
    c2_w = c3_w = c4_w = None
    checks = 0
    for d in diags:
        D = np.diag(d)
        checks += 1
        if c2_w is None and matrix_measure(-D, norm).value > ADMISSIBILITY_TOL:
            c2_w = D
        if c3_w is None and abs(matrix_measure(D, norm).value - d.max()) > ADMISSIBILITY_TOL:
            c3_w = D
        if c4_w is None and matrix_measure(-eye - D, norm).value >= -ADMISSIBILITY_TOL:
            c4_w = D
        if c2_w is not None and c3_w is not None and c4_w is not None:
            break
    return c2_w, c3_w, c4_w, checks


@pytest.mark.parametrize("budget", [1, 24, 200])
def test_stacked_sweep_matches_per_sample_measures(budget):
    violated = 0
    for k, norm in enumerate(NORMS):
        diags = _sample_nonneg_diagonals(norm.dim, budget, np.random.default_rng(k))
        *want_w, want_checks = reference_sweep(norm, diags)
        *got_w, got_checks = _diagonal_sweep(norm, diags)
        assert got_checks == want_checks
        for got, want in zip(got_w, want_w):
            assert (got is None) == (want is None)
            if want is not None:
                violated += 1
                assert got.tobytes() == want.tobytes()
    assert violated  # the general scalings, sheared_linf and most polytopes are inadmissible


def test_closed_mu_many_is_bitwise_matrix_measure():
    rng = np.random.default_rng(3)
    for norm in (m for m in NORMS if m.route != "polyhedral"):
        S = rng.standard_normal((30, norm.dim, norm.dim))
        got = _closed_mu_many(S, norm)
        want = [matrix_measure(M, norm).value for M in S]
        assert got.tobytes() == np.array(want).tobytes()


def test_stacked_sweep_falls_back_to_the_loop_on_overflow():
    # T D T^-1 overflows for T = 1e308 I; the one-by-one loop raises on the
    # first non-finite measure, and so must the stacked sweep
    norm = validate_norm_spec(Scaled(1e308 * np.eye(2), Lp(2.0)))
    diags = _sample_nonneg_diagonals(2, 24, np.random.default_rng(0))
    with np.errstate(all="ignore"):
        with pytest.raises(ValueError, match="non-finite"):
            reference_sweep(norm, diags)
        with pytest.raises(ValueError, match="non-finite"):
            _diagonal_sweep(norm, diags)
