"""The stacked eigenvalue, measure and vertex-matching kernels against the
one-at-a-time computations they replaced: same search path, same witnesses,
same bits."""

import numpy as np
import pytest

from logmeasure import (
    Lp,
    NotCentrallySymmetric,
    Polyhedral,
    Scaled,
    hexagon_spec,
    induced_matrix_norm,
    is_absolute,
    is_admissible_measure,
    is_orthant_monotonic,
    matrix_measure,
    parallelogram_spec,
    sheared_linf_spec,
    spectral_abscissa,
    unit_ball_vertices,
    validate_norm_spec,
)
from logmeasure.classify import _projection_witness_scaled, _sign_normalize
from logmeasure.common import TOL_EXACT, TOL_VERTEX
from logmeasure.measures import _closed_mu_many, _closed_norm_many
from logmeasure.norms import _check_symmetric, _dedup_rows
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


def test_closed_norm_many_is_bitwise_induced_matrix_norm():
    rng = np.random.default_rng(4)
    for norm in (m for m in NORMS if m.route != "polyhedral"):
        S = rng.standard_normal((30, norm.dim, norm.dim))
        got = _closed_norm_many(S, norm)
        want = [induced_matrix_norm(M, norm).value for M in S]
        assert got.tobytes() == np.array(want).tobytes()


def reference_orthant_monotonic(norm):
    """is_orthant_monotonic on an exact route, one projection at a time:
    (holds, witness, checks)."""
    if norm.kind == "lp":
        return True, None, 0
    n = norm.dim
    V = None if norm.route == "scaled_closed" else unit_ball_vertices(norm)
    checks = 0
    for j in range(n):
        if V is None:
            P = np.eye(n)
            P[j, j] = 0.0
            checks += 1
            if induced_matrix_norm(P, norm).value > 1.0 + TOL_EXACT:
                return False, _sign_normalize(_projection_witness_scaled(norm, j)), checks
        else:
            W = V.copy()
            W[:, j] = 0.0
            checks += V.shape[0]
            bad = norm.evaluate_many(W) > 1.0 + TOL_EXACT
            if np.any(bad):
                return False, _sign_normalize(V[int(np.argmax(bad))]), checks
    return True, None, checks


def reference_admissibility(norm, budget, seed):
    """is_admissible_measure with every measure taken by one matrix_measure
    call: (orthant-monotonic verdict, sweep result, counterexample, whether
    the e_j fallback supplied it)."""
    om = reference_orthant_monotonic(norm)
    n = norm.dim
    sweep = reference_sweep(norm, _sample_nonneg_diagonals(n, budget, np.random.default_rng(seed)))
    c2_w, c3_w, c4_w, _ = sweep
    ce = c2_w if c2_w is not None else c4_w
    if ce is None and c3_w is not None:
        d = np.diag(c3_w)
        ce = np.diag(d.max() * np.ones(n) - d)
    if ce is None and not om[0]:
        for j in range(n):
            E = np.zeros((n, n))
            E[j, j] = 1.0
            if matrix_measure(-E, norm).value > ADMISSIBILITY_TOL:
                return om, sweep, E, True
    return om, sweep, ce, False


def _same(got, want):
    return (got is None and want is None) or (
        got is not None and want is not None and got.tobytes() == want.tobytes()
    )


# not orthant-monotonic, yet diag(1..n), the one diagonal of budget 1,
# violates none of the three measure conditions, so an e_j supplies the
# counterexample: once on the closed-form route, once on a polytope
_cross = np.vstack([np.eye(3), [[-0.8, 0.9, 0.1]]])
FALLBACK_NORMS = [
    validate_norm_spec(Scaled(np.array([[1.0, -0.1, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]), Lp(2.0))),
    validate_norm_spec(Polyhedral(np.vstack([_cross, -_cross]))),
]


@pytest.mark.parametrize("budget", [1, 24, 200])
def test_stacked_classifier_and_admissibility_match_per_matrix_loops(budget):
    fallbacks = 0
    for k, norm in enumerate(NORMS + FALLBACK_NORMS):
        (om_holds, om_w, om_checks), (*sweep_w, sweep_checks), ce, fallback = reference_admissibility(
            norm, budget, k
        )
        adm = is_admissible_measure(norm, budget, seed=k)
        assert adm.admissible == om_holds == (ce is None)
        assert _same(adm.counterexample_D, ce)
        trace = adm.equivalence_trace
        om = trace["orthant_monotonic"]  # the is_orthant_monotonic verdict
        assert (om.holds, om.checks_run) == (om_holds, om_checks)
        assert _same(om.witness, om_w)
        names = ("negated_diagonal_measure", "diagonal_measure_identity", "uniform_margin")
        for name, w in zip(names, sweep_w):
            assert trace[name].checks_run == sweep_checks
            assert _same(trace[name].witness, w)
        fallbacks += fallback
    assert fallbacks == (len(FALLBACK_NORMS) if budget == 1 else 0)


@pytest.mark.parametrize(
    "spec, dim",
    [
        (Lp(1.0), 3),
        (Lp(np.inf), 3),
        (Scaled(np.array([[1.0, 0.5, 0.0], [0.0, 2.0, -0.3], [0.4, 0.0, 1.0]]), Lp(np.inf)), None),
        (hexagon_spec(), 2),
    ],
)
def test_validated_norm_is_not_mutated(spec, dim):
    norm = validate_norm_spec(spec, dim=dim)
    before = dict(vars(norm))
    unit_ball_vertices(norm)
    is_absolute(norm)
    is_orthant_monotonic(norm)
    matrix_measure(np.arange(norm.dim**2, dtype=float).reshape(norm.dim, norm.dim), norm)
    assert vars(norm).keys() == before.keys()
    assert all(vars(norm)[k] is v for k, v in before.items())


def reference_dedup_rows(V, tol):
    """_dedup_rows as a pairwise loop."""
    keep = []
    for i in range(V.shape[0]):
        if not any(np.max(np.abs(V[i] - V[k])) <= tol for k in keep):
            keep.append(i)
    return V[keep]


def reference_check_symmetric(V, tol):
    """_check_symmetric as a pairwise loop."""
    for v in V:
        if not any(np.max(np.abs(v + w)) <= tol for w in V):
            raise NotCentrallySymmetric(f"vertex {v.tolist()} has no antipode in the set")


def _planted_vertex_sets():
    """Symmetric sets with copies and antipodes shifted by 0, tol/2, tol and
    2 tol. The shift lands on a zero coordinate, so the distance a pair
    check computes is exactly the shift; the nonzero shifts come as well
    on every coordinate, where rounding decides."""
    rng = np.random.default_rng(12)
    tol = TOL_VERTEX
    for n in (1, 2, 3, 5):
        for shift in (0.0, 0.5 * tol, tol, 2.0 * tol):
            W = rng.standard_normal((5, n))
            W[:, 0] = 0.0
            E = np.zeros((5, n))
            E[:, 0] = shift
            yield np.vstack([W, W + E, -W, -W - E])  # near-duplicates
            yield np.vstack([W, -W + E])  # near-antipodes only
            W = rng.standard_normal((5, n))
            yield np.vstack([W, -W + shift * rng.choice([-1.0, 1.0], (5, n))])
        # a chain 0, tol, 2 tol: the middle row matches both ends
        chain = np.zeros((3, n))
        chain[:, 0] = [0.0, tol, 2.0 * tol]
        yield chain
        yield np.vstack([chain, -chain])


PLANTED = list(_planted_vertex_sets())


@pytest.mark.parametrize("k", range(len(PLANTED)))
def test_vertex_matching_matches_pairwise_loops(k):
    V = PLANTED[k]
    assert _dedup_rows(V, TOL_VERTEX).tobytes() == reference_dedup_rows(V, TOL_VERTEX).tobytes()
    try:
        reference_check_symmetric(V, TOL_VERTEX)
    except NotCentrallySymmetric as exc:
        with pytest.raises(NotCentrallySymmetric) as got:
            _check_symmetric(V, TOL_VERTEX)
        assert str(got.value) == str(exc)
    else:
        _check_symmetric(V, TOL_VERTEX)


def test_vertex_matching_counts_distance_tol_as_a_match():
    tol = TOL_VERTEX
    chain = np.array([[0.0, 1.0], [tol, 1.0], [2.0 * tol, 1.0]])
    # keep-first: the middle row goes, the last stays (2 tol from the first)
    assert _dedup_rows(chain, tol).tobytes() == chain[[0, 2]].tobytes()
    V = np.array([[0.0, 1.0], [1.0, 0.0]])
    _check_symmetric(np.vstack([V, -V + [tol, 0.0]]), tol)
    with pytest.raises(NotCentrallySymmetric):
        _check_symmetric(np.vstack([V, -V + [2.0 * tol, 0.0]]), tol)
