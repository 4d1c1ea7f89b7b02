"""The built-in norm battery and its classification/admissibility table."""

import numpy as np

from logmeasure import (
    CERTIFIABLE_MATRIX,
    FRAGILE_MATRIX,
    builtin_battery,
    equivalence_table,
    spectral_abscissa,
)

EXPECTED_ORDER = [
    "l1",
    "l2",
    "linf",
    "l1_diag_scaled",
    "l2_diag_scaled",
    "linf_diag_scaled",
    "hexagon",
    "parallelogram",
    "sheared_linf",
]


def test_battery_members_and_order():
    names = [name for name, _ in builtin_battery()]
    assert names == EXPECTED_ORDER
    for _, norm in builtin_battery():
        assert norm.dim == 2


def test_reference_matrices():
    assert FRAGILE_MATRIX.tolist() == [[1.0, -3.0], [1.0, -2.0]]
    assert CERTIFIABLE_MATRIX.tolist() == [[-1.0, -3.0], [1.0, -2.0]]
    # both are Hurwitz on their own; only the second survives every
    # diagonal perturbation
    assert spectral_abscissa(FRAGILE_MATRIX) < 0
    assert spectral_abscissa(CERTIFIABLE_MATRIX) < 0


def test_equivalence_table_pattern():
    report = equivalence_table(seed=0)
    assert report.all_agree
    rows = {row.name: row for row in report.rows}
    assert set(rows) == set(EXPECTED_ORDER)
    for name, row in rows.items():
        admissible = name not in ("parallelogram", "sheared_linf")
        assert row.orthant_monotonic.holds is admissible, name
        assert row.admissibility.admissible is admissible, name
        assert row.agree, name
        absolute = name not in ("hexagon", "parallelogram", "sheared_linf")
        assert row.absolute.holds is absolute, name


def test_table_rows_serialize():
    report = equivalence_table(seed=0)
    doc = report.to_jsonable()
    assert doc["all_agree"] is True
    assert len(doc["rows"]) == 9
    assert all("admissibility" in row for row in doc["rows"])
