"""The stacked eigenvalue, measure and vertex-matching kernels against the
one-at-a-time computations they replaced: same search path, same witnesses,
same bits."""

import itertools

import numpy as np
import pytest

from logmeasure import (
    Lp,
    NotCentrallySymmetric,
    PiecewiseOrthant,
    Polyhedral,
    Scaled,
    builtin_battery,
    diag_norm_identity_check,
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
from logmeasure.norms import _Polytope, _check_symmetric, _dedup_rows, _lp_eval_many, _near_pairs
from logmeasure.stability import ADMISSIBILITY_TOL, FALSIFY_THRESHOLD, _abscissa_many, _pattern_search


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


def reference_sample_nonneg_diagonals(n, count, rng):
    """The nonnegative diagonals the admissibility sweep and the diagonal
    identity check once sampled: structured ones first (they catch the
    known failure modes), then log-uniform fill with occasional zeros."""
    diags = [np.arange(1.0, n + 1.0), np.ones(n)]
    for i in range(n):
        e = np.zeros(n)
        e[i] = 1.0
        diags.append(e)
        diags.append(2.0 * e)
        diags.append(np.ones(n) - e)
    while len(diags) < count:
        d = np.exp(rng.uniform(np.log(1e-3), np.log(10.0), n))
        if rng.random() < 0.2:
            d[rng.integers(n)] = 0.0
        diags.append(d)
    return diags[: max(count, 1)]


def reference_sweep(norm, diags):
    """The sampled admissibility sweep, one matrix_measure call per check:
    the first violator of each measure condition (or None) and the count."""
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


def test_closed_mu_many_is_bitwise_matrix_measure():
    rng = np.random.default_rng(3)
    for norm in (m for m in NORMS if m.route != "polyhedral"):
        S = rng.standard_normal((30, norm.dim, norm.dim))
        got = _closed_mu_many(S, norm)
        want = [matrix_measure(M, norm).value for M in S]
        assert got.tobytes() == np.array(want).tobytes()


def test_stacked_sweep_falls_back_to_the_loop_on_overflow(monkeypatch):
    # T D T^-1 overflows for T = 1e308 I on the sampled diagonals (entries up
    # to 10), where the one-by-one sweep raised on the first non-finite
    # measure; the extreme rays have unit entries and stay finite
    norm = validate_norm_spec(Scaled(1e308 * np.eye(2), Lp(2.0)))
    diags = reference_sample_nonneg_diagonals(2, 24, np.random.default_rng(0))
    with np.errstate(all="ignore"), pytest.raises(ValueError, match="non-finite"):
        reference_sweep(norm, diags)
    assert is_admissible_measure(norm).admissible
    # a non-finite mu(-E_j) still raises, naming the first such value
    monkeypatch.setattr("logmeasure.stability._diag_measures", lambda norm, E: np.array([0.0, np.inf]))
    with pytest.raises(ValueError, match="non-finite result value inf"):
        is_admissible_measure(norm)


def test_closed_norm_many_is_bitwise_induced_matrix_norm():
    rng = np.random.default_rng(4)
    for norm in (m for m in NORMS if m.route != "polyhedral"):
        S = rng.standard_normal((30, norm.dim, norm.dim))
        got = _closed_norm_many(S, norm)
        want = [induced_matrix_norm(M, norm).value for M in S]
        assert got.tobytes() == np.array(want).tobytes()


def test_reductions_on_the_transpose_are_bitwise_row_wise_ones():
    # gauge_many and the l_inf path reduce across rows of the transposed
    # array; the row-wise reductions they replaced are the reference
    rng = np.random.default_rng(21)
    for k in (1, 7, 1000):
        for norm in (m for m in NORMS if m._polytope is not None):
            X = rng.standard_normal((k, norm.dim)) * 10.0 ** rng.uniform(-3, 3, (k, 1))
            want = np.maximum((X @ norm._polytope.normals.T).max(axis=1), 0.0)
            assert norm._polytope.gauge_many(X).tobytes() == want.tobytes()
        for n in (1, 2, 3, 7):
            X = rng.standard_normal((k, n)) * 10.0 ** rng.uniform(-300, 300, (k, 1))
            X[0, 0] = rng.choice([0.0, -np.inf, np.nan])
            assert _lp_eval_many(np.inf, X).tobytes() == np.abs(X).max(axis=1).tobytes()


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


def reference_is_absolute(norm):
    """is_absolute on an exact route as the loop over all 2**n sign
    patterns, last sign varying fastest: (holds, witness, checks)."""
    if norm.kind == "lp":
        return True, None, 0
    n = norm.dim
    V = None if norm.route == "scaled_closed" else norm._polytope.vertices
    checks = 0
    for signs in itertools.product((1.0, -1.0), repeat=n):
        if V is None:
            S = np.diag(signs)
            checks += 1
            if abs(induced_matrix_norm(S, norm).value - 1.0) > TOL_EXACT:
                return False, _sign_normalize(S), checks
        else:
            s = np.asarray(signs)
            bad = np.abs(norm.evaluate_many(V * s[None, :]) - 1.0) > TOL_EXACT
            checks += V.shape[0]
            if np.any(bad):
                v = V[int(np.argmax(bad))]
                w = v if abs(norm(np.abs(v)) - 1.0) > TOL_EXACT else v * s
                return False, _sign_normalize(w), checks
    return True, None, checks


def reference_diag_identity(norm):
    """diag_norm_identity_check as it sampled max(100, 3n + 2) diagonals:
    (holds, witness)."""
    n = norm.dim
    for d in reference_sample_nonneg_diagonals(n, max(100, 3 * n + 2), np.random.default_rng(0)):
        D = np.diag(d)
        if abs(induced_matrix_norm(D, norm).value - float(d.max())) > TOL_EXACT:
            return False, D
    return True, None


def reference_admissibility(norm, budget, seed):
    """is_admissible_measure's parts with one matrix_measure call per
    check: the orthant-monotonic verdict, the sampled sweep over `budget`
    diagonals, and the first E_j = diag(e_j) with mu(-E_j) > 0 (None if
    there is none) with the count of E_j read."""
    om = reference_orthant_monotonic(norm)
    n = norm.dim
    sweep = reference_sweep(norm, reference_sample_nonneg_diagonals(n, budget, np.random.default_rng(seed)))
    for j in range(n):
        E = np.zeros((n, n))
        E[j, j] = 1.0
        if matrix_measure(-E, norm).value > ADMISSIBILITY_TOL:
            return om, sweep, E, j + 1
    return om, sweep, None, n


def _same(got, want):
    return (got is None and want is None) or (
        got is not None and want is not None and got.tobytes() == want.tobytes()
    )


TRACE_NAMES = ("negated_diagonal_measure", "diagonal_measure_identity", "uniform_margin")


def _violates(name, norm, W):
    """Whether the diagonal W breaks the named measure condition."""
    if name == "negated_diagonal_measure":
        return matrix_measure(-W, norm).value > ADMISSIBILITY_TOL
    if name == "diagonal_measure_identity":
        return abs(matrix_measure(W, norm).value - np.diag(W).max()) > ADMISSIBILITY_TOL
    return matrix_measure(-np.eye(norm.dim) - W, norm).value >= -ADMISSIBILITY_TOL


def check_admissibility(norm, budget, seed):
    """is_admissible_measure against reference_admissibility. Returns
    whether the extreme rays found a violation where the sampled sweep
    found none of the three."""
    (om_holds, om_w, om_checks), (*sweep_w, _), ce, ce_checks = reference_admissibility(norm, budget, seed)
    adm = is_admissible_measure(norm, seed=seed)
    assert adm.admissible == om_holds == (ce is None)
    assert _same(adm.counterexample_D, ce)
    om = adm.equivalence_trace["orthant_monotonic"]  # the is_orthant_monotonic verdict
    assert (om.holds, om.checks_run) == (om_holds, om_checks)
    assert _same(om.witness, om_w)
    covered = budget >= 3 * norm.dim + 2  # every E_j and I - E_j was sampled
    for name, sampled in zip(TRACE_NAMES, sweep_w):
        t = adm.equivalence_trace[name]
        assert (t.holds, t.exact, t.checks_run) == (ce is None, True, ce_checks)
        # convexity: a sampled violator means an extreme ray violates too
        assert sampled is None or not t.holds
        if covered and name != "uniform_margin":
            assert (sampled is None) == t.holds
        assert t.holds or _violates(name, norm, t.witness)
    return all(w is None for w in sweep_w) and ce is not None


# not orthant-monotonic, yet diag(1..n), the one diagonal of budget 1,
# violates none of the three measure conditions, so only the extreme rays
# find the counterexample: once on the closed-form route, once on a polytope
_cross = np.vstack([np.eye(3), [[-0.8, 0.9, 0.1]]])
FALLBACK_NORMS = [
    validate_norm_spec(Scaled(np.array([[1.0, -0.1, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]), Lp(2.0))),
    validate_norm_spec(Polyhedral(np.vstack([_cross, -_cross]))),
]


@pytest.mark.parametrize("budget", [1, 24, 200])
def test_stacked_classifier_and_admissibility_match_per_matrix_loops(budget):
    missed = [check_admissibility(norm, budget, k) for k, norm in enumerate(NORMS + FALLBACK_NORMS)]
    assert sum(missed) == (len(FALLBACK_NORMS) if budget == 1 else 0)


def _convexity_norms():
    """99 norms with n = 2..4: the battery, 40 generally scaled l_1, l_2 and
    l_inf norms, 30 random centrally symmetric polytopes and 20 polytopes
    closed under sign flips."""
    rng = np.random.default_rng(99)
    out = [norm for _, norm in builtin_battery()]
    for k in range(40):
        n, p = 2 + k % 3, (1.0, 2.0, np.inf)[k // 3 % 3]
        out.append(validate_norm_spec(Scaled(np.eye(n) + 0.8 * rng.standard_normal((n, n)), Lp(p))))
    for k in range(30):
        W = rng.standard_normal((4 + k % 3, 2 + k % 3))
        out.append(validate_norm_spec(Polyhedral(np.vstack([W, -W]))))
    for k in range(20):
        n = 2 + k % 3
        flips = np.array(list(itertools.product((1.0, -1.0), repeat=n)))
        W = np.abs(rng.standard_normal((2, n)))
        out.append(validate_norm_spec(Polyhedral((flips[:, None, :] * W).reshape(-1, n))))
    return out


CONVEXITY_NORMS = _convexity_norms()


@pytest.mark.parametrize("k", range(len(CONVEXITY_NORMS)))
def test_convexity_checks_match_the_enumerations(k):
    norm = CONVEXITY_NORMS[k]
    n = norm.dim
    # absoluteness: the n single flips against the 2**n sign patterns
    holds, witness, checks = reference_is_absolute(norm)
    got = is_absolute(norm)
    assert (got.holds, got.exact) == (holds, True)
    assert _same(got.witness, witness)
    per_check = 1 if norm.route != "polyhedral" else norm._polytope.vertices.shape[0]
    if norm.kind == "lp":
        assert got.checks_run == checks == 0
    elif holds:
        assert (got.checks_run, checks) == (n * per_check, 2**n * per_check)
    else:
        # flip k + 1 in the order S_n, ..., S_1 is pattern 2**k + 1
        assert checks // per_check == 2 ** (got.checks_run // per_check - 1) + 1
    # orthant monotonicity: one stacked call against one call per projection
    holds, witness, checks = reference_orthant_monotonic(norm)
    got = is_orthant_monotonic(norm)
    assert (got.holds, got.exact, got.checks_run) == (holds, True, checks)
    assert _same(got.witness, witness)
    # the measure conditions: n extreme rays against 200 sampled diagonals
    check_admissibility(norm, 200, k)
    # the diagonal norm identity: n projections against the sampled check,
    # whose samples include every projection
    holds, _ = reference_diag_identity(norm)
    got = diag_norm_identity_check(norm)
    assert (got.holds, got.exact) == (holds, True)
    if not holds:
        assert abs(induced_matrix_norm(got.witness, norm).value - 1.0) > TOL_EXACT


def test_convexity_norms_cover_both_verdicts():
    verdicts = [(is_absolute(m).holds, is_orthant_monotonic(m).holds) for m in CONVEXITY_NORMS]
    assert len(CONVEXITY_NORMS) == 99
    assert {(True, True), (False, True), (False, False)} <= set(verdicts)


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


def reference_near_pairs(V, tol):
    """The pairs i < j within tol (max-norm), from scipy's KD-tree."""
    from scipy.spatial import cKDTree

    pairs = cKDTree(V).query_pairs(tol, p=np.inf, output_type="ndarray")
    return {tuple(p) for p in pairs.tolist()}


def _clustered_point_sets():
    """Planar and linear sets with near-duplicates at distances around tol."""
    rng = np.random.default_rng(31)
    tol = TOL_VERTEX
    yield np.array([[0.0, 1.0], [1e-10, 5.0], [2e-10, 1.0]])  # near rows apart in sort order
    # many points on one vertical edge, each within tol of its two neighbours
    yield np.column_stack([np.full(2000, 1.0), 1.0 + 0.6 * tol * np.arange(2000)])
    for n in (1, 2):
        for _ in range(20):
            base = rng.standard_normal((int(rng.integers(2, 15)), n)) * 10.0 ** rng.uniform(-3, 3)
            jitter = tol * rng.uniform(-1.5, 1.5, (base.shape[0] * 3, n))
            V = np.repeat(base, 3, axis=0) + jitter * (rng.random((base.shape[0] * 3, 1)) < 0.7)
            yield V[rng.permutation(V.shape[0])]


CLUSTERED = list(_clustered_point_sets())


@pytest.mark.parametrize("k", range(len(CLUSTERED)))
def test_near_pairs_match_the_kd_tree(k):
    V = CLUSTERED[k]
    got = _near_pairs(V, V, TOL_VERTEX)
    got = {tuple(p) for p in got.tolist() if p[0] < p[1]}
    assert got == reference_near_pairs(V, TOL_VERTEX)
    from scipy.spatial import cKDTree

    dist, _ = cKDTree(V).query(-V, p=np.inf)
    has_antipode = np.zeros(V.shape[0], dtype=bool)
    has_antipode[_near_pairs(-V, V, TOL_VERTEX)[:, 0]] = True
    assert np.array_equal(has_antipode, dist <= TOL_VERTEX)


@pytest.mark.parametrize("n", [1, 2])
def test_near_pairs_of_huge_points_do_not_overflow(n):
    # the KD-tree overflows on these; the grid clips their cells
    tol = TOL_VERTEX
    V = np.array([[1e308, 0.0], [1e308, tol], [-1e308, 0.0], [0.0, 1.0]])[:, :n]
    with np.errstate(all="raise"):
        assert _near_pairs(V, V, tol)[:, 0].tolist() == [0, 0, 1, 1, 2, 3]
        assert np.unique(_near_pairs(-V, V, tol)[:, 0]).tolist() == ([0, 1, 2] if n == 2 else [0, 1, 2, 3])


def reference_polytope(P):
    """The ball conv(P) from Qhull, as _Polytope.hull_of built it before it
    had a planar path: (vertices in canonical order, normals, pairs)."""
    from scipy.spatial import ConvexHull

    hull = ConvexHull(P)
    n = P.shape[1]
    rows = np.ascontiguousarray(hull.equations).view(np.dtype((np.void, 8 * (n + 1))))
    _, first, facet_of = np.unique(rows.ravel(), return_index=True, return_inverse=True)
    eq = hull.equations[first]
    ext = np.unique(hull.vertices)
    vertex = np.searchsorted(ext, hull.simplices).ravel()
    keys = np.unique(np.repeat(facet_of.ravel(), n) * ext.size + vertex)
    pair_facet, pair_vertex = np.divmod(keys, ext.size)
    return _Polytope._sorted(P[ext], eq[:, :-1] / -eq[:, -1:], pair_vertex, pair_facet)


def _facets_by_vertices(poly):
    """{frozenset of a facet's vertex rows: its normal}, the facet order of
    two builders being arbitrary."""
    facets = {}
    for v, f in zip(poly.pair_vertex.tolist(), poly.pair_facet.tolist()):
        facets.setdefault(f, set()).add(v)
    return {frozenset(vs): poly.normals[f] for f, vs in facets.items()}


def _random_symmetric_polygons(count=320):
    rng = np.random.default_rng(77)
    for _ in range(count):
        m = int(rng.integers(2, 13))
        half = rng.standard_normal((m, 2)) * 10.0 ** rng.uniform(-4, 4)
        yield np.vstack([half, -half])


def test_planar_hull_matches_qhull_on_random_polygons():
    for P in _random_symmetric_polygons():
        got, want = _Polytope.hull_of(P), reference_polytope(P)
        assert got.vertices.tobytes() == want.vertices.tobytes()
        got_facets, want_facets = _facets_by_vertices(got), _facets_by_vertices(want)
        assert got_facets.keys() == want_facets.keys()
        for vs, normal in got_facets.items():
            v, w = got.vertices[sorted(vs)]
            # n solves n . v = n . w = 1, a 2x2 system of condition about
            # |v| |w| / det[v w]: thin polygons lose that many ulps in both builders
            cond = np.linalg.norm(v) * np.linalg.norm(w) / abs(v[0] * w[1] - w[0] * v[1])
            rel = np.abs(normal - want_facets[vs]).max() / np.abs(want_facets[vs]).max()
            assert rel <= 4 * np.finfo(float).eps * cond


def reference_piecewise_vertices(norm):
    """The glued ball's extreme points as validation built them before the
    planar path: each piece B_sigma ∩ Q_sigma from Qhull's halfspace
    intersection, then the hull of their union."""
    from scipy.spatial import ConvexHull, HalfspaceIntersection

    pieces = []
    for signs, spec in norm.spec.cases.items():
        inner = validate_norm_spec(spec, dim=2)
        sigma = np.array([1.0 if c == "+" else -1.0 for c in signs])
        orth = np.zeros((2, 3))
        orth[:, :2] = -np.diag(sigma)
        H = np.vstack([ConvexHull(unit_ball_vertices(inner)).equations, orth])
        x0 = sigma * (0.5 / float(inner.evaluate_many(sigma[None, :])[0]))
        pieces.append(HalfspaceIntersection(H, x0).intersections)
    return reference_polytope(_dedup_rows(np.vstack(pieces), TOL_VERTEX)).vertices


def test_planar_piecewise_ball_matches_halfspace_intersection():
    rng = np.random.default_rng(5)
    for k in range(40):
        t = np.diag(10.0 ** rng.uniform(-1, 1, 2))
        agree, disagree = (np.inf, 1.0) if k % 2 else (1.0, np.inf)
        cases = {"++": agree, "--": agree, "+-": disagree, "-+": disagree}
        norm = validate_norm_spec(PiecewiseOrthant({s: Scaled(t, Lp(p)) for s, p in cases.items()}))
        V = unit_ball_vertices(norm)
        want = reference_piecewise_vertices(norm)
        assert V.shape == want.shape == (6, 2)
        # a zero coordinate that came out -1e-17 can change the row order
        dist = np.abs(V[:, None, :] - want[None, :, :]).max(axis=2)
        assert np.array_equal(np.sort(dist.argmin(axis=1)), np.arange(6))
        # 1e-15 per unit of size: vertices reach 10 here, where an ulp is 1.8e-15
        assert np.all(dist.min(axis=1) <= 1e-15 * (1.0 + np.abs(V).max(axis=1)))
        # the four axis points come out exact: sigma_i e_i / |sigma_i e_i|
        # under the pieces (the glued norm, a gauge, may differ by an ulp)
        for signs, spec in norm.spec.cases.items():
            axes = np.diag([1.0 if c == "+" else -1.0 for c in signs])
            on_axes = axes / validate_norm_spec(spec, dim=2).evaluate_many(axes)[:, None]
            assert {tuple(r) for r in on_axes.tolist()} <= {tuple(r) for r in V.tolist()}


def test_polytope_keeps_extreme_points_only_in_seven_dimensions():
    # the 7-D cube's vertices and the 448 boundary points with one zero
    # coordinate: Qhull lists 240 of them as vertices
    cube = np.array(list(itertools.product((1.0, -1.0), repeat=7)))
    boundary = np.unique(np.vstack([cube * (np.arange(7) != k) for k in range(7)]), axis=0)
    assert boundary.shape == (448, 7)
    norm = validate_norm_spec(Polyhedral(np.vstack([cube, boundary])))
    assert unit_ball_vertices(norm).tobytes() == unit_ball_vertices(validate_norm_spec(Polyhedral(cube))).tobytes()
    assert norm._polytope.pair_vertex.size == 128 * 7
    assert matrix_measure(-np.eye(7), norm).value == -1.0
