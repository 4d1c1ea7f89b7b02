"""Admissible measures, perturbation bounds, and additive D-stability."""

import time

import numpy as np
import pytest

from logmeasure import stability
from logmeasure import (
    CERTIFIABLE_MATRIX,
    FRAGILE_MATRIX,
    Lp,
    Marginal,
    NoExactPath,
    NotAdmissibleWarning,
    NotMetzler,
    NotOrthantMonotonic,
    Scaled,
    WrongDimension,
    additive_d_stability_report,
    additive_d_stable_2x2,
    additive_d_stable_metzler,
    builtin_battery,
    certify_additive_d_stability,
    diagonal_negativity_check,
    falsify_additive_d_stability,
    falsify_on_grid,
    is_admissible_measure,
    is_hurwitz,
    matrix_measure,
    measure_of_diagonal,
    perturbation_bounds,
    spectral_abscissa,
    validate_norm_spec,
)
from logmeasure.stability import FALSIFY_THRESHOLD

VIOLATION_TOL = 1e-6
RNG = np.random.default_rng(77)

BATTERY = dict(builtin_battery())
TRACE_KEYS = {
    "orthant_monotonic",
    "negated_diagonal_measure",
    "diagonal_measure_identity",
    "uniform_margin",
}


# ------------------------------------------------------------------ hurwitz


def test_is_hurwitz():
    assert is_hurwitz(FRAGILE_MATRIX)
    assert is_hurwitz(CERTIFIABLE_MATRIX)
    assert not is_hurwitz(np.array([[0.5, 0.0], [0.0, -1.0]]))
    with pytest.raises(Marginal):
        is_hurwitz(np.array([[0.0, 1.0], [-1.0, 0.0]]))


# ------------------------------------------------------------- admissibility


def test_battery_admissibility_pattern():
    for name, norm in BATTERY.items():
        v = is_admissible_measure(norm, seed=0)
        expected = name not in ("parallelogram", "sheared_linf")
        assert v.admissible is expected, name
        assert v.exact, name
        assert set(v.equivalence_trace) == TRACE_KEYS, name


def test_admissibility_counterexamples_reverify():
    for name in ("parallelogram", "sheared_linf"):
        norm = BATTERY[name]
        v = is_admissible_measure(norm, seed=0)
        D = v.counterexample_D
        assert D is not None
        assert np.all(np.diag(D) >= 0.0)
        # the point of the counterexample: mu(-D) should be <= 0 and is not
        assert matrix_measure(-D, norm).value > VIOLATION_TOL


def test_sheared_counterexample_frozen():
    v = is_admissible_measure(BATTERY["sheared_linf"], seed=0)
    # the first extreme ray E_j = diag(e_j) with mu(-E_j) > 0
    assert np.array_equal(v.counterexample_D, np.diag([1.0, 0.0]))
    assert matrix_measure(-v.counterexample_D, BATTERY["sheared_linf"]).value == pytest.approx(
        5.0, abs=1e-9
    )


def test_inadmissible_norms_fail_every_equivalent_condition():
    # one violated condition propagates to all four, each with a witness
    v = is_admissible_measure(BATTERY["parallelogram"], seed=0)
    for key in TRACE_KEYS:
        t = v.equivalence_trace[key]
        assert not t.holds, key
        assert t.exact, key
        assert t.witness is not None, key


def test_plain_lp_admissible_structurally():
    v = is_admissible_measure(validate_norm_spec(Lp(3.0), dim=4), seed=0)
    assert v.admissible and v.exact
    assert v.equivalence_trace["orthant_monotonic"].exact
    # the numeric conditions were not sampled, only implied
    assert v.equivalence_trace["negated_diagonal_measure"].checks_run == 0


def test_admissibility_refuses_scaled_generic_lp_before_sampling(monkeypatch):
    # the route decides the refusal: no classifier sample is drawn first
    T = np.array([[1.0, 0.3, 0.0, 0.0], [0.0, 1.0, -0.2, 0.0], [0.1, 0.0, 1.0, 0.4], [0.0, 0.0, 0.0, 2.0]])
    norm = validate_norm_spec(Scaled(T, Lp(3.0)))
    rows = []
    evaluate_many = type(norm).evaluate_many
    monkeypatch.setattr(type(norm), "evaluate_many", lambda self, X: rows.append(len(X)) or evaluate_many(self, X))
    with pytest.raises(NoExactPath, match="admissibility cross-checks need an exact measure path"):
        is_admissible_measure(norm)
    assert rows == []


# ------------------------------------------------------- diagonal shortcuts


def test_measure_of_diagonal_values():
    l1 = BATTERY["l1"]
    assert measure_of_diagonal(l1, np.diag([-2.0, 5.0])) == 5.0
    assert measure_of_diagonal(l1, np.zeros((2, 2))) == 0.0
    hexagon = BATTERY["hexagon"]
    assert measure_of_diagonal(hexagon, np.diag([1.0, 2.0])) == pytest.approx(2.0, abs=1e-9)


def test_measure_of_diagonal_warns_when_identity_unavailable():
    with pytest.warns(NotAdmissibleWarning):
        value = measure_of_diagonal(BATTERY["sheared_linf"], np.diag([1.0, 2.0]))
    assert value == pytest.approx(7.0, abs=1e-9)


def test_diagonal_negativity_check():
    rep = diagonal_negativity_check(CERTIFIABLE_MATRIX, BATTERY["l2"])
    assert rep.diag_ok
    assert rep.mu == pytest.approx((-3.0 + np.sqrt(5.0)) / 2.0, abs=1e-12)
    rep2 = diagonal_negativity_check(FRAGILE_MATRIX, BATTERY["linf"])
    assert rep2.mu == 4.0


# -------------------------------------------------------- perturbation bounds


def test_perturbation_bounds_frozen():
    linf = BATTERY["linf"]
    lo, hi, exact = perturbation_bounds(np.zeros((2, 2)), np.diag([1.0, 3.0]), linf)
    assert (lo, hi, exact) == (-3.0, -1.0, -1.0)
    lo, hi, exact = perturbation_bounds(FRAGILE_MATRIX, 2.0 * np.eye(2), linf)
    # a uniform shift is captured exactly, so the bounds pinch
    assert (lo, hi, exact) == (2.0, 2.0, 2.0)


def test_perturbation_bounds_contain_exact_value():
    for norm in (BATTERY["l1"], BATTERY["l2"], BATTERY["linf"]):
        for _ in range(30):
            A = RNG.standard_normal((2, 2)) * 3.0
            D = np.diag(RNG.uniform(0.0, 5.0, size=2))
            lo, hi, exact = perturbation_bounds(A, D, norm)
            assert lo - 1e-9 <= exact <= hi + 1e-9


@pytest.mark.parametrize("scale", [1.0, 1e8, 1e12, 1e200])
def test_diagonal_cross_checks_scale_with_their_inputs(scale):
    # measures of order 1e8 round in their last ulps far above an absolute
    # 1e-9, so a fixed slack called correct input inconsistent
    rng = np.random.default_rng(53)
    norms = (BATTERY["hexagon"], validate_norm_spec(Scaled(np.diag([1.0, 3.0]), Lp(2.0))), BATTERY["l1"])
    for norm in norms:
        for _ in range(100):
            A = scale * rng.standard_normal((2, 2))
            d = scale * rng.uniform(0.0, 5.0, size=2)
            lo, hi, exact = perturbation_bounds(A, np.diag(d), norm)
            assert lo <= hi
            e = scale * rng.standard_normal(2)
            assert measure_of_diagonal(norm, np.diag(e)) == pytest.approx(e.max(), rel=1e-14)


def test_perturbation_bounds_reject_bad_norms():
    with pytest.raises(NotOrthantMonotonic):
        perturbation_bounds(FRAGILE_MATRIX, np.eye(2), BATTERY["sheared_linf"])


# ----------------------------------------------------------- exact 2x2 path


def test_2x2_criterion():
    assert not additive_d_stable_2x2(FRAGILE_MATRIX)
    assert additive_d_stable_2x2(CERTIFIABLE_MATRIX)
    # zero diagonal entry is allowed by the criterion
    assert additive_d_stable_2x2(np.array([[0.0, -1.0], [1.0, -1.0]]))
    with pytest.raises(WrongDimension):
        additive_d_stable_2x2(np.eye(3))


def test_report_fragile():
    rep = additive_d_stability_report(FRAGILE_MATRIX, seed=0)
    assert rep.verdict == "unstable"
    assert rep.method == "exact_2x2"
    D = rep.counterexample.D
    assert np.array_equal(D, np.diag([0.0, 2.0]))
    assert rep.counterexample.abscissa == pytest.approx(0.3027756377319946, abs=1e-9)
    assert spectral_abscissa(FRAGILE_MATRIX - D) == pytest.approx(
        rep.counterexample.abscissa, abs=1e-9
    )


def test_report_certifiable_uses_exact_path():
    rep = additive_d_stability_report(CERTIFIABLE_MATRIX, seed=0)
    assert rep.verdict == "stable"
    assert rep.method == "exact_2x2"


def test_report_flags_zero_diagonal_edge():
    rep = additive_d_stability_report(np.array([[0.0, -1.0], [1.0, -1.0]]), seed=0)
    assert rep.verdict == "stable"
    assert rep.note is not None and "zero" in rep.note


def test_report_marginal_matrix():
    rep = additive_d_stability_report(np.array([[0.0, 1.0], [-1.0, 0.0]]), seed=0)
    # no D >= 0 gives a positive abscissa, so nothing is offered as one
    assert rep.verdict == "unstable" and rep.counterexample is None
    assert rep.note is not None and "marginal" in rep.note


def test_exact_2x2_reads_the_rational_determinant():
    # a_12 a_21 = 1 - 2^-60 rounds to 1 in floats, so the float det is 0,
    # but the exact det is 2^-60 > 0: the matrix is additively D-stable
    A = np.array([[-1.0, 1.0 + 2.0**-30], [1.0 - 2.0**-30, -1.0]])
    assert additive_d_stable_2x2(A)
    rep = additive_d_stability_report(A, seed=0)
    assert (rep.verdict, rep.method) == ("stable", "exact_2x2")
    # a_12 a_21 overflows to -inf in floats; its sign still decides
    with np.errstate(over="raise", invalid="raise"):
        assert not additive_d_stable_2x2(np.array([[0.0, 1e300], [1e150, 0.0]]))
        assert additive_d_stable_2x2(np.array([[-1.0, 1e300], [-1e300, -1.0]]))


def test_2x2_destabilizer_shift_is_finite_or_named():
    with np.errstate(over="raise", invalid="raise"):
        # det(A - diag(0, t)) = 2 - t changes sign at t = 2; the shift is t = 4
        rep = additive_d_stability_report(np.array([[1.0, 2.0], [-3.0, -4.0]]), seed=0)
        assert rep.verdict == "unstable" and rep.note is None
        assert np.array_equal(rep.counterexample.D, np.diag([0.0, 4.0]))
        assert rep.counterexample.abscissa > 0.0
        # D = diag(0, 2e15) destabilizes in exact arithmetic, but the
        # positive eigenvalue, about 5e-4, is lost beside -2e15 in floats:
        # a D whose printed abscissa is 0 would prove nothing
        rep = additive_d_stability_report(np.array([[1e-3, 1e6], [-1e6, -1.0]]), seed=0)
        assert rep.verdict == "unstable" and rep.counterexample is None
        assert "floating-point spectral abscissa is 0" in rep.note
        # here the shift would have to exceed det / a_11 = 1e900
        rep = additive_d_stability_report(np.array([[1e-300, 1e300], [-1e300, -1.0]]), seed=0)
    assert rep.verdict == "unstable" and "overflows" in rep.note
    assert rep.counterexample is None


# -------------------------------------------------------------- metzler path


def test_metzler_criterion():
    M = np.array([[-2.0, 1.0, 0.0], [1.0, -2.0, 1.0], [0.0, 1.0, -2.0]])
    assert additive_d_stable_metzler(M)
    Mu = np.array([[-1.0, 1.0, 1.0], [1.0, -1.0, 1.0], [1.0, 1.0, -1.0]])
    assert not additive_d_stable_metzler(Mu)
    with pytest.raises(NotMetzler):
        additive_d_stable_metzler(np.array([[-1.0, -0.5], [0.0, -1.0]]))


def test_report_metzler_paths():
    M = np.array([[-2.0, 1.0, 0.0], [1.0, -2.0, 1.0], [0.0, 1.0, -2.0]])
    rep = additive_d_stability_report(M, seed=0)
    assert (rep.verdict, rep.method) == ("stable", "metzler")
    Mu = np.array([[-1.0, 1.0, 1.0], [1.0, -1.0, 1.0], [1.0, 1.0, -1.0]])
    rep2 = additive_d_stability_report(Mu, seed=0)
    assert (rep2.verdict, rep2.method) == ("unstable", "metzler")
    # an unstable Metzler matrix is already unstable with no shift at all
    assert np.array_equal(rep2.counterexample.D, np.zeros((3, 3)))
    assert rep2.counterexample.abscissa == pytest.approx(1.0, abs=1e-9)


# ------------------------------------------------------- certify and falsify


def test_certify_finds_euclidean_certificate():
    cert = certify_additive_d_stability(CERTIFIABLE_MATRIX, seed=0)
    assert cert.verdict == "stable"
    assert cert.method == "admissible_certificate"
    assert cert.certificate.mu == pytest.approx((-3.0 + np.sqrt(5.0)) / 2.0, abs=1e-12)


def test_certificate_blocks_all_diagonal_shifts():
    cert = certify_additive_d_stability(CERTIFIABLE_MATRIX, seed=0)
    norm = cert.certificate.norm
    for _ in range(50):
        D = np.diag(RNG.uniform(0.0, 10.0, size=2))
        assert spectral_abscissa(CERTIFIABLE_MATRIX - D) <= cert.certificate.mu + 1e-9


def test_falsify_fragile():
    D = falsify_additive_d_stability(FRAGILE_MATRIX)
    assert D is not None
    assert np.all(np.diag(D) >= 0.0)
    assert spectral_abscissa(FRAGILE_MATRIX - D) > VIOLATION_TOL
    # the known destabilizing direction: only the second state is damped
    assert np.diag(D)[0] == 0.0 and np.diag(D)[1] > 1.0


def test_falsify_on_grid_fragile():
    D = falsify_on_grid(FRAGILE_MATRIX, seed=0)
    assert D is not None
    assert spectral_abscissa(FRAGILE_MATRIX - D) > VIOLATION_TOL


def test_falsify_gives_up_on_stable_matrix():
    assert falsify_additive_d_stability(CERTIFIABLE_MATRIX) is None
    assert falsify_on_grid(CERTIFIABLE_MATRIX, grid=20, extra=100, seed=0) is None


def test_report_3x3_certificate_path():
    # irreducible, and -A has no negative principal minor: only the
    # certificate search can decide it (l_1 fails, l_2 certifies)
    A = np.array([[-1.0, -3.0, 1.0], [1.0, -2.0, -1.0], [-1.0, 1.0, -1.0]])
    rep = additive_d_stability_report(A, seed=0)
    assert rep.verdict == "stable"
    assert rep.method == "admissible_certificate"
    assert rep.certificate.mu == pytest.approx(
        np.linalg.eigvalsh((A + A.T) / 2.0).max(), abs=1e-9
    )
    assert rep.certificate.mu < 0.0


UNKNOWN_3X3 = np.array([[0.0, 2.0, -1.0], [0.0, -1.0, -1.0], [2.0, 2.0, -2.0]])


def test_report_unknown_when_budgets_run_out():
    # irreducible, and no principal submatrix is unstable, so neither exact
    # path decides it; no grid point destabilizes it either, and a_11 = 0
    # leaves no certificate to find
    A = UNKNOWN_3X3
    assert falsify_on_grid(A, d_max=40.0) is None
    rep = additive_d_stability_report(A, budget=6, seed=0)
    assert rep.verdict == "unknown"
    assert rep.method == "budget_exhausted"


def _refuse_certify(monkeypatch):
    def certify(*a, **kw):
        raise AssertionError("certify ran")

    monkeypatch.setattr(stability, "certify_additive_d_stability", certify)


def test_nonnegative_diagonal_entry_skips_certification(monkeypatch):
    # mu(A) >= a_11 = 0 under every admissible measure: no certificate exists
    _refuse_certify(monkeypatch)
    rep = additive_d_stability_report(UNKNOWN_3X3, seed=0)
    assert (rep.verdict, rep.method) == ("unknown", "budget_exhausted")
    assert rep.note.startswith("diagonal entry A[0][0] = 0 is not below -1e-09")


def test_skipping_certification_loses_no_certificate():
    skipped = [A for A in RANDOM_HURWITZ if np.diag(A).max() >= -stability.ADMISSIBILITY_TOL]
    assert len(skipped) > 10
    for A in skipped:
        assert certify_additive_d_stability(A, seed=0).verdict == "unknown"


def test_unstable_matrix_with_no_negative_minor_gets_d_zero(monkeypatch):
    # -(I + 3C), C the cyclic shift: every principal minor of I + 3C is
    # positive, yet the eigenvalue -1 - 3 e^{2 pi i / 3} has real part 1/2
    _refuse_certify(monkeypatch)
    A = -(np.eye(3) + 3.0 * np.roll(np.eye(3), 1, axis=1))
    rep = additive_d_stability_report(A, seed=0)
    assert (rep.verdict, rep.method) == ("unstable", "principal_minor")
    assert np.array_equal(rep.counterexample.D, np.zeros((3, 3)))
    assert rep.counterexample.abscissa == pytest.approx(0.5, abs=1e-12)


def _diagonally_dominant_block() -> np.ndarray:
    rng = np.random.default_rng(48)
    A = rng.uniform(-1.0, 1.0, (48, 48))
    np.fill_diagonal(A, 0.0)
    return A - (np.abs(A).sum(axis=1).max() + 1.0) * np.eye(48)


def _count_spectra(monkeypatch) -> list:
    """Patch np.linalg.eigvals to append the number of matrices of each call."""
    spectra = []
    eigvals = np.linalg.eigvals

    def counting(M):
        spectra.append(M.shape[0] if M.ndim == 3 else 1)
        return eigvals(M)

    monkeypatch.setattr(np.linalg, "eigvals", counting)
    return spectra


def test_falsifier_spends_at_most_its_spectra_on_a_block(monkeypatch):
    # similar to a diagonally dominant block, principal submatrices
    # included, so every one is stable, but with mu_1, mu_2 and mu_inf
    # positive: the greedy chains run until the cap stops them
    s = np.logspace(-3.0, 3.0, 48)
    A = s[:, None] * _diagonally_dominant_block() / s
    assert min(matrix_measure(A, validate_norm_spec(Lp(p), dim=48)).value for p in (1, 2, np.inf)) > 0
    spectra = _count_spectra(monkeypatch)
    assert falsify_additive_d_stability(A) is None
    assert stability.FALSIFY_SPECTRA - 48 < sum(spectra) <= stability.FALSIFY_SPECTRA


def test_falsifier_skips_a_block_its_measures_prove_stable(monkeypatch):
    # mu_inf < 0 bounds the abscissa of every principal submatrix
    spectra = _count_spectra(monkeypatch)
    assert falsify_additive_d_stability(_diagonally_dominant_block()) is None
    assert spectra == []


def test_reducible_matrices_are_decided_by_their_blocks():
    # the two block-triangular matrices the searches used to face: a 2x2
    # block passing the exact test beside a stable 1x1 block
    for A in (
        [[-1.0, -3.0, 0.0], [1.0, -2.0, 0.0], [0.0, 0.0, -1.0]],
        [[0.0, -1.0, 0.0], [1.0, -1.0, 0.0], [0.0, 0.0, -1.0]],
    ):
        rep = additive_d_stability_report(np.array(A), seed=0)
        assert (rep.verdict, rep.method) == ("stable", "block_reduction")
        assert rep.certificate is None and rep.counterexample is None


def test_report_json_shape():
    doc = additive_d_stability_report(FRAGILE_MATRIX, seed=0).to_jsonable()
    assert doc["verdict"] == "unstable"
    assert doc["counterexample"]["D"] == [[0.0, 0.0], [0.0, 2.0]]
    assert doc["counterexample"]["spectral_abscissa"] == pytest.approx(0.302775638, abs=1e-6)


# ------------------------------------------------- criterion cross-validation


def test_2x2_criterion_against_grid_search():
    """Random integer matrices: the closed-form verdict must agree with a
    brute-force sweep over diagonal perturbations."""
    rng = np.random.default_rng(424242)
    checked_stable = checked_unstable = 0
    while checked_stable < 40 or checked_unstable < 40:
        A = rng.integers(-5, 6, size=(2, 2)).astype(float)
        tr = A[0, 0] + A[1, 1]
        det = A[0, 0] * A[1, 1] - A[0, 1] * A[1, 0]  # exact for integers
        hurwitz = tr < 0 and det > 0
        stable = additive_d_stable_2x2(A)
        assert stable == (hurwitz and A[0, 0] <= 0 and A[1, 1] <= 0)
        if stable and checked_stable < 40:
            assert falsify_on_grid(A, d_max=40.0, grid=25, extra=200, seed=1) is None
            checked_stable += 1
        elif hurwitz and not stable and checked_unstable < 40:
            # Hurwitz but a positive diagonal entry: a destabilizer exists
            D = falsify_on_grid(A, d_max=40.0, grid=25, extra=200, seed=1)
            assert D is not None
            assert spectral_abscissa(A - D) > VIOLATION_TOL
            checked_unstable += 1


def test_report_counterexamples_always_reverify():
    rng = np.random.default_rng(31337)
    for _ in range(300):
        A = rng.integers(-5, 6, size=(2, 2)).astype(float)
        rep = additive_d_stability_report(A, seed=0)
        if rep.verdict == "unstable" and rep.note is None:
            assert spectral_abscissa(A - rep.counterexample.D) > VIOLATION_TOL
        elif rep.verdict == "unstable":
            # marginal case: the matrix fails at D = 0 without a strict margin
            assert spectral_abscissa(A) >= -1e-9


# ----------------------------------------------- block reduction and minors

# Verdicts of the certify-then-falsify pipeline without the exact pre-pass
# (default budgets, seed 0) on RANDOM_HURWITZ, in order: S stable,
# U unstable, ? unknown.
PIPELINE_VERDICTS = (
    "?USUSSSSSS?SSUSUUSUUSSSS?SSSSS?S?US?SU?SU?SSU?USS?SS??SSU?SSSS?SUUSU?UUS"
    "SUSUUSSSSS?SUSSUSSSS?S?SSSSSS?S?USSSSSSSU?S?SSSSSUUS?USUSS??USSUU?SS?SS?S"
    "SSU?U?SUUSUSSS??SSSSSSUSUU?S"
)
VERDICT_CODES = {"stable": "S", "unstable": "U", "unknown": "?"}


def _random_hurwitz():
    """The Hurwitz, non-Metzler matrices among 300 draws of randn - 1.5 I
    with n in 3..5 (seed 0)."""
    rng = np.random.default_rng(0)
    out = []
    for _ in range(300):
        n = int(rng.integers(3, 6))
        A = rng.standard_normal((n, n)) - 1.5 * np.eye(n)
        if spectral_abscissa(A) < -1e-9 and np.any(A[~np.eye(n, dtype=bool)] < 0.0):
            out.append(A)
    return out


RANDOM_HURWITZ = _random_hurwitz()


def _prepass(A):
    """The report's stages before certification: an exact verdict when
    they decide, ("unknown", "budget_exhausted") otherwise."""
    return stability._algebraic_report(A) or stability.DStabilityReport("unknown", "budget_exhausted")


def _block_triangular(rng, n, blocks=(1, 2)):
    """Permuted block upper triangular, non-Metzler, with diagonal blocks
    that pass their exact test: 1x1 negative, 2x2 rotations with damping."""
    A = np.triu(rng.uniform(-20.0, 20.0, (n, n)), 1)
    i = 0
    while i < n:
        m = min(int(rng.choice(blocks)), n - i)
        if m == 1:
            A[i, i] = -rng.uniform(0.5, 2.0)
        else:
            w, damp = rng.uniform(0.5, 3.0), rng.uniform(0.1, 1.0)
            A[i : i + 2, i : i + 2] = [[0.0, w], [-w, -damp]]
        i += m
    A[0, -1] = -abs(A[0, -1]) - 1.0
    P = np.eye(n)[rng.permutation(n)]
    return P @ A @ P.T


def test_prepass_agrees_with_the_search_pipeline():
    assert len(RANDOM_HURWITZ) == len(PIPELINE_VERDICTS) == 173
    moved = {}
    for A, before in zip(RANDOM_HURWITZ, PIPELINE_VERDICTS):
        pre = _prepass(A)
        key = (before, VERDICT_CODES[pre.verdict], pre.method)
        moved[key] = moved.get(key, 0) + 1
        if pre.verdict == "unstable":
            D = pre.counterexample.D
            assert np.array_equal(D, np.diag(np.diag(D))) and np.all(np.diag(D) >= 0.0)
            assert spectral_abscissa(A - D) > FALSIFY_THRESHOLD
            assert pre.counterexample.abscissa == spectral_abscissa(A - D)
        if before != "?":
            # the pre-pass draws nothing from the seed, so a search that
            # still runs sees the stream it saw before
            assert VERDICT_CODES[additive_d_stability_report(A, seed=0).verdict] == before
    # dense random matrices are irreducible: the minor test takes every
    # matrix the pattern search destabilized and four it did not, and
    # leaves every certified one to the certificate search
    assert moved == {
        ("S", "?", "budget_exhausted"): 100,
        ("U", "U", "principal_minor"): 40,
        ("?", "?", "budget_exhausted"): 29,
        ("?", "U", "principal_minor"): 4,
    }


def test_block_reduction_verdicts_survive_the_grid():
    rng = np.random.default_rng(5)
    for k in range(12):
        A = _block_triangular(rng, 3 + k % 4)
        rep = _prepass(A)
        assert (rep.verdict, rep.method) == ("stable", "block_reduction")
        assert falsify_on_grid(A, d_max=40.0, grid=20, extra=200, seed=k) is None


def test_prepass_verdicts_are_permutation_invariant():
    rng = np.random.default_rng(9)
    cases = RANDOM_HURWITZ + [_block_triangular(rng, n) for n in (3, 4, 5, 6)]
    # a reducible matrix with one unstable block: a_11 > 0 in a 3x3 block
    U = np.array([[1.0, -4.0, 2.0], [3.0, -2.0, -1.0], [-2.0, 1.0, -3.0]])
    cases.append(np.block([[U, rng.uniform(-1.0, 1.0, (3, 2))], [np.zeros((2, 3)), -np.eye(2)]]))
    for A in cases:
        rep = _prepass(A)
        P = np.eye(A.shape[0])[rng.permutation(A.shape[0])]
        moved = _prepass(P @ A @ P.T)
        assert (moved.verdict, moved.method) == (rep.verdict, rep.method)
    assert _prepass(cases[-1]).method == "principal_minor"


def test_minor_test_never_fires_on_certified_constructions():
    """Negative diagonal dominating rows and columns, and skew - cI: -A is a
    P-matrix in both, so no principal minor of -A is negative."""
    rng = np.random.default_rng(21)
    for n in (3, 4, 5, 6):
        for _ in range(10):
            A = rng.uniform(-1.0, 1.0, (n, n))
            np.fill_diagonal(A, 0.0)
            A[0, 1] = -abs(A[0, 1]) - 0.1
            c = max(np.abs(A).sum(axis=0).max(), np.abs(A).sum(axis=1).max())
            dominant = A - (c + rng.uniform(0.5, 1.5)) * np.eye(n)
            U = np.triu(rng.uniform(-3.0, 3.0, (n, n)), 1)
            skew = U - U.T - rng.uniform(0.5, 1.5) * np.eye(n)
            for M in (dominant, skew):
                assert list(stability._minor_destabilizers(M)) == []
                assert additive_d_stability_report(M, seed=0).method == "admissible_certificate"


def test_blocks_above_minor_max_dim_enumerate_no_subsets(monkeypatch):
    calls = []
    monkeypatch.setattr(
        stability, "_minor_destabilizers", lambda B: calls.append(B.shape) or iter(())
    )
    n = stability.MINOR_MAX_DIM + 1
    # irreducible (cyclic coupling) and non-Metzler, a_11 > 0
    A = -2.0 * np.eye(n) + np.roll(np.eye(n), 1, axis=1) * -1.5 + np.roll(np.eye(n), -1, axis=1)
    A[0, 0] = 0.5
    assert len(stability._irreducible_blocks(A)) == 1
    rep = _prepass(A)
    assert (rep.verdict, calls) == ("unknown", [])
    # the tridiagonal block one size smaller reaches the kernel
    _prepass(A[:-1, :-1])
    assert calls == [(n - 1, n - 1)]


def test_minor_ladder_skips_blocks_whose_norm_overflows():
    # a_11 > 0 gives a negative minor, but 1 + ||B||_inf is inf: no
    # ladder is built, so no shift of inf * 0 = nan reaches the eigensolver
    big = 1e308
    B = np.array([[1.0, big, big], [-big, -1.0, 1.0], [-big, 1.0, -1.0]])
    assert list(stability._minor_destabilizers(B)) == []


def test_forty_one_by_one_blocks_decided_in_milliseconds(monkeypatch):
    def searched(*a, **kw):
        raise AssertionError("a search ran")

    monkeypatch.setattr(stability, "_minor_destabilizers", searched)
    monkeypatch.setattr(stability, "certify_additive_d_stability", searched)
    rng = np.random.default_rng(40)
    A = np.triu(rng.uniform(-5.0, 5.0, (40, 40)), 1) - np.diag(rng.uniform(0.5, 2.0, 40))
    P = np.eye(40)[rng.permutation(40)]
    A = P @ A @ P.T
    start = time.perf_counter()
    rep = additive_d_stability_report(A)
    elapsed = time.perf_counter() - start
    assert (rep.verdict, rep.method) == ("stable", "block_reduction")
    assert elapsed < 0.25, elapsed
