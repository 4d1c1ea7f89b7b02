"""Absolute / orthant-monotonic classification and the diagonal norm identity."""

import numpy as np
import pytest

from logmeasure import (
    Lp,
    NoExactPath,
    Scaled,
    builtin_battery,
    diag_norm_identity_check,
    eval_norm,
    induced_matrix_norm,
    is_absolute,
    is_orthant_monotonic,
    sheared_linf_spec,
    validate_norm_spec,
)

TOL = 1e-9

# every classification the built-in battery must produce, with exactness
EXPECTED = {
    "l1": (True, True),
    "l2": (True, True),
    "linf": (True, True),
    "l1_diag_scaled": (True, True),
    "l2_diag_scaled": (True, True),
    "linf_diag_scaled": (True, True),
    "hexagon": (False, True),
    "parallelogram": (False, False),
    "sheared_linf": (False, False),
}


def _zero_coordinate(x: np.ndarray, j: int) -> np.ndarray:
    out = x.copy()
    out[j] = 0.0
    return out


def _check_absolute_witness(norm, witness: np.ndarray) -> None:
    if witness.ndim == 2:
        # sign-diagonal matrix whose induced norm should be 1 but isn't
        assert set(np.unique(np.abs(witness))) <= {0.0, 1.0}
        assert abs(induced_matrix_norm(witness, norm).value - 1.0) > TOL
    else:
        assert abs(eval_norm(np.abs(witness), norm) - eval_norm(witness, norm)) > TOL


def _check_om_witness(norm, witness: np.ndarray) -> None:
    base = eval_norm(witness, norm)
    worst = max(
        eval_norm(_zero_coordinate(witness, j), norm) for j in range(witness.size)
    )
    assert worst > base + TOL


def test_battery_classification():
    for name, norm in builtin_battery():
        absolute, om = EXPECTED[name]
        va = is_absolute(norm)
        vo = is_orthant_monotonic(norm)
        assert va.holds is absolute, name
        assert vo.holds is om, name
        assert va.exact and vo.exact, name
        # absolute norms are always orthant-monotonic
        assert not (va.holds and not vo.holds), name


def test_failed_verdicts_carry_verifiable_witnesses():
    for name, norm in builtin_battery():
        va = is_absolute(norm)
        vo = is_orthant_monotonic(norm)
        if not va.holds:
            assert va.witness is not None, name
            _check_absolute_witness(norm, va.witness)
        if not vo.holds:
            assert vo.witness is not None, name
            _check_om_witness(norm, vo.witness)


def test_hexagon_witness_is_the_mixed_sign_corner():
    hexagon = dict(builtin_battery())["hexagon"]
    v = is_absolute(hexagon)
    assert np.array_equal(v.witness, np.array([1.0, -1.0]))
    assert eval_norm([1.0, -1.0], hexagon) == 2.0
    assert eval_norm([1.0, 1.0], hexagon) == 1.0


def test_sheared_witnesses_frozen():
    sheared = dict(builtin_battery())["sheared_linf"]
    va = is_absolute(sheared)
    assert np.array_equal(va.witness, np.diag([1.0, -1.0]))
    vo = is_orthant_monotonic(sheared)
    assert np.array_equal(vo.witness, np.array([5.0, -2.0]))
    assert eval_norm([5.0, -2.0], sheared) == pytest.approx(1.0, abs=TOL)


def test_sampled_route_passes_are_inexact():
    norm = validate_norm_spec(Scaled(np.diag([1.0, 2.0]), Lp(3.0)), dim=2)
    va = is_absolute(norm, seed=2)
    vo = is_orthant_monotonic(norm, seed=2)
    assert va.holds and not va.exact
    assert vo.holds and not vo.exact
    assert va.checks_run > 0


def test_sampled_route_violations_are_exact():
    # a found counterexample is a proof even when the search was random
    norm = validate_norm_spec(Scaled(np.array([[1.0, 2.0], [1.0, 3.0]]), Lp(3.0)), dim=2)
    va = is_absolute(norm, seed=2)
    vo = is_orthant_monotonic(norm, seed=2)
    assert not va.holds and va.exact
    assert not vo.holds and vo.exact
    _check_absolute_witness(norm, va.witness)
    _check_om_witness(norm, vo.witness)


def test_classification_is_seed_deterministic():
    norm = validate_norm_spec(Scaled(np.array([[1.0, 2.0], [1.0, 3.0]]), Lp(3.0)), dim=2)
    w1 = is_absolute(norm, seed=9).witness
    w2 = is_absolute(norm, seed=9).witness
    assert np.array_equal(w1, w2)


def test_exact_routes_answer_large_dimensions_exactly():
    # n single flips, not 2**21 sign patterns
    big = validate_norm_spec(Scaled(np.diag(np.arange(1.0, 22.0)), Lp(np.inf)))
    v = is_absolute(big)
    assert (v.holds, v.exact, v.checks_run) == (True, True, 21)
    # bare lp norms classify structurally at any dimension
    v = is_absolute(validate_norm_spec(Lp(1.0), dim=21))
    assert v.holds and v.exact


def test_diag_identity_on_lp():
    # absolute, so answered without a single induced norm
    v = diag_norm_identity_check(validate_norm_spec(Lp(1.0), dim=3))
    assert v.holds and v.exact
    assert v.checks_run == 0


def test_diag_identity_fails_for_sheared():
    sheared = validate_norm_spec(sheared_linf_spec(), dim=2)
    v = diag_norm_identity_check(sheared)
    assert not v.holds and v.exact
    # the first projection P_j with ||P_j|| > 1
    assert np.array_equal(v.witness, np.diag([0.0, 1.0]))
    assert v.checks_run == 1
    got = induced_matrix_norm(v.witness, sheared).value
    assert abs(got - 1.0) > TOL  # identity would predict max d_ii = 1


def test_diag_identity_needs_exact_norms():
    with pytest.raises(NoExactPath):
        diag_norm_identity_check(validate_norm_spec(Lp(3.0), dim=2))


def test_verdict_json_shape():
    hexagon = dict(builtin_battery())["hexagon"]
    doc = is_absolute(hexagon).to_jsonable()
    assert doc["holds"] is False
    assert doc["exact"] is True
    assert doc["witness"] == [1.0, -1.0]
