"""The public surface: the pinned ``__all__`` and the README's library tour."""

import re
import warnings
from pathlib import Path

import logmeasure

# Every public name. A name added or removed here is an API change: the
# paper's objects, the CLI's building blocks and what perfbench/ calls.
PUBLIC_NAMES = [
    "AdmissibilityVerdict", "BadTimeGrid", "BaseNotHurwitz", "BatteryReport", "BatteryRow",
    "CERTIFIABLE_MATRIX", "Certificate", "CoupledSystem", "Counterexample", "DEFAULT_SEED",
    "DIVERGENCE_CUTOFF", "DStabilityReport", "DegenerateBall", "DiagonalSignReport",
    "DimensionMismatch", "EigenFailure", "FRAGILE_MATRIX", "InconsistentOracles", "LogMeasureError",
    "Lp", "MAX_INITIAL_STATE", "MAX_STATE_VALUES", "Marginal", "MeasureResult", "NoExactPath",
    "NotAdmissibleWarning", "NotCentrallySymmetric", "NotConvex", "NotMetzler",
    "NotNonnegativeDiagonal", "NotOrthantMonotonic", "NotPolyhedral", "PiecewiseOrthant",
    "Polyhedral", "SandwichReport", "Scaled", "SingularScaling", "StepTooLarge", "Trajectory",
    "UnsupportedDimension", "ValidatedNorm", "ValidationError", "Verdict", "WrongDimension",
    "additive_d_stability_report", "additive_d_stable_2x2", "additive_d_stable_metzler",
    "build_coupled", "builtin_battery", "certify_additive_d_stability", "check_measure_sandwich",
    "diag_norm_identity_check", "diagonal_negativity_check", "equivalence_table",
    "falsify_additive_d_stability", "falsify_on_grid", "hexagon_spec", "induced_matrix_norm",
    "is_absolute", "is_admissible_measure", "is_hurwitz", "is_orthant_monotonic", "matrix_measure",
    "measure_of_diagonal", "norm_spec_from_json", "norm_spec_to_json", "parallelogram_spec",
    "perturbation_bounds", "sheared_linf_spec", "simulate", "spectral_abscissa", "sync_verdict",
    "unit_ball_vertices", "validate_norm_spec",
]


def test_public_surface_is_pinned():
    assert len(PUBLIC_NAMES) == 74
    assert sorted(logmeasure.__all__) == sorted(PUBLIC_NAMES)
    assert all(hasattr(logmeasure, name) for name in PUBLIC_NAMES)
    # an alias of norm(x), a wrapper that induced_matrix_norm absorbed, and
    # a test oracle (now tests/oracles.py)
    for gone in ("eval_norm", "estimate_induced_norm", "measure_quotient"):
        assert not hasattr(logmeasure, gone)


def test_readme_tour_runs():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    tour = re.search(r"## Library tour\n\n```python\n(.*?)```", readme, re.S).group(1)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        exec(compile(tour, "README.md", "exec"), {})
