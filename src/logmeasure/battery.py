"""Built-in norm battery and worked examples.

Nine two-dimensional norms exercising every code path: the three
classical l_p norms, one positive-diagonal scaling of each, and three
shapes with interesting classification behavior:

* hexagon: l_inf on the orthants where the signs agree, l_1 where they
  disagree. Orthant-monotonic but not absolute.
* parallelogram: gauge of the parallelogram with vertices (2,2), (1,-1)
  and their negatives. Not orthant-monotonic.
* sheared_linf: |x| = max(|x_1 + 2 x_2|, |x_1 + 3 x_2|), an l_inf norm
  under an invertible (non-diagonal) change of coordinates. Not
  orthant-monotonic; its measure assigns a nonnegative diagonal matrix
  a positive value under negation.

The battery backs the equivalence table: orthant monotonicity of the
norm must coincide with admissibility of the induced measure on every
member, with exactly the last two classified false.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .classify import Verdict, is_absolute, is_orthant_monotonic
from .common import DEFAULT_SEED, as_rng
from .norms import Lp, PiecewiseOrthant, Polyhedral, Scaled, ValidatedNorm, validate_norm_spec
from .stability import AdmissibilityVerdict, is_admissible_measure

# Hurwitz, yet a pure diffusion gain can destabilize the coupled pair:
# d_2 > 1 makes det(A - diag(0, d_2)) negative.
FRAGILE_MATRIX = np.array([[1.0, -3.0], [1.0, -2.0]])

# Stable with a euclidean certificate: the symmetric part has negative
# largest eigenvalue, (-3 + sqrt(5))/2.
CERTIFIABLE_MATRIX = np.array([[-1.0, -3.0], [1.0, -2.0]])


def hexagon_spec() -> PiecewiseOrthant:
    return PiecewiseOrthant(
        {"++": Lp(np.inf), "--": Lp(np.inf), "+-": Lp(1.0), "-+": Lp(1.0)}
    )


def parallelogram_spec() -> Polyhedral:
    return Polyhedral(np.array([[2.0, 2.0], [-2.0, -2.0], [1.0, -1.0], [-1.0, 1.0]]))


def sheared_linf_spec() -> Scaled:
    return Scaled(np.array([[1.0, 2.0], [1.0, 3.0]]), Lp(np.inf))


def builtin_battery() -> list[tuple[str, ValidatedNorm]]:
    """The 9-member battery, validated at dimension 2, in fixed order."""
    specs = [
        ("l1", Lp(1.0)),
        ("l2", Lp(2.0)),
        ("linf", Lp(np.inf)),
        ("l1_diag_scaled", Scaled(np.diag([1.0, 2.0]), Lp(1.0))),
        ("l2_diag_scaled", Scaled(np.diag([3.0, 0.5]), Lp(2.0))),
        ("linf_diag_scaled", Scaled(np.diag([0.25, 4.0]), Lp(np.inf))),
        ("hexagon", hexagon_spec()),
        ("parallelogram", parallelogram_spec()),
        ("sheared_linf", sheared_linf_spec()),
    ]
    return [(name, validate_norm_spec(spec, dim=2)) for name, spec in specs]


@dataclass
class BatteryRow:
    name: str
    absolute: Verdict
    orthant_monotonic: Verdict
    admissibility: AdmissibilityVerdict

    @property
    def agree(self) -> bool:
        return self.orthant_monotonic.holds == self.admissibility.admissible

    def to_jsonable(self) -> dict:
        return {
            "name": self.name,
            "absolute": self.absolute.to_jsonable(),
            "orthant_monotonic": self.orthant_monotonic.to_jsonable(),
            "admissibility": self.admissibility.to_jsonable(),
            "agree": self.agree,
        }


@dataclass
class BatteryReport:
    rows: list[BatteryRow]

    @property
    def all_agree(self) -> bool:
        return all(r.agree for r in self.rows)

    def to_jsonable(self) -> dict:
        return {"rows": [r.to_jsonable() for r in self.rows], "all_agree": self.all_agree}


def equivalence_table(
    *,
    seed: int | np.random.Generator | None = DEFAULT_SEED,
) -> BatteryReport:
    """Classify every battery member and cross-check measure admissibility.

    Expected pattern: every member orthant-monotonic and admissible except
    parallelogram and sheared_linf; absolute fails additionally for the
    hexagon. Any mismatch between the two columns raises from the
    admissibility checker before this table returns.
    """
    rng = as_rng(seed)
    rows = []
    for name, norm in builtin_battery():
        rows.append(
            BatteryRow(
                name,
                is_absolute(norm, seed=rng),
                is_orthant_monotonic(norm, seed=rng),
                is_admissible_measure(norm, seed=rng),
            )
        )
    return BatteryReport(rows)
