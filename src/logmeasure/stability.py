"""Admissible matrix measures and additive diagonal stability.

A matrix measure induced by a vector norm is admissible when
mu(-D) <= 0 for every nonnegative diagonal D. Four equivalent
characterizations are checked against each other here: orthant
monotonicity of the norm, nonpositivity of mu(-D), the identity
mu(D) = max_i d_ii, and the uniform margin mu(-I - D) < 0. mu is convex
and positively homogeneous, so the three measure conditions are decided
exactly on the n extreme rays D = diag(e_j). Any disagreement between
the classifier and the measure conditions signals a bug in this
package, never a mathematical outcome, and raises InconsistentOracles.

A matrix A is additively D-stable when A - D is Hurwitz for every
nonnegative diagonal D. The report decides it in this order:

1. n = 2: exact (tr A < 0, det A > 0, a_ii <= 0).
2. Metzler A: additive D-stability is Hurwitz stability.
3. Block reduction: permuting A by the strongly connected components
   of its pattern makes it block upper triangular, and the same
   permutation keeps D diagonal, so the spectrum of A - D is the union
   of the blocks' spectra: A is stable iff every irreducible diagonal
   block is.
4. Principal-minor falsifier: det(D - A) is multiaffine in d, and the
   coefficient of prod_{i not in S} d_i is det(-A[S]); so a negative
   principal minor of -A makes A - t 1_{S^c} unstable for large t, and
   the first rung of a geometric ladder of t that crosses gives D.
5. Certificate search: an admissible measure with mu(A) < 0.
6. Pattern search for a destabilizing D.

Absence of a counterexample never upgrades the verdict past "unknown".
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .classify import Verdict, is_orthant_monotonic
from .common import (
    DEFAULT_SEED,
    as_rng,
    as_square_matrix,
    diag_entries,
)
from .errors import (
    InconsistentOracles,
    Marginal,
    NoExactPath,
    NotAdmissibleWarning,
    NotMetzler,
    NotOrthantMonotonic,
    WrongDimension,
)
from .measures import _abscissa_many, _closed_mu_many, matrix_measure, spectral_abscissa
from .norms import Lp, Scaled, ValidatedNorm, validate_norm_spec

ADMISSIBILITY_TOL = 1e-9
HURWITZ_TOL = 1e-9
FALSIFY_THRESHOLD = 1e-6
# Largest irreducible block whose 2^m - 1 principal minors are enumerated.
MINOR_MAX_DIM = 8
# The shifts t tried for one negative minor: (1 + ||B||_inf) * 2^k.
_MINOR_LADDER = 2.0 ** np.arange(-4, 20)


def is_hurwitz(A) -> bool:
    """True iff every eigenvalue has real part < -HURWITZ_TOL.

    Raises Marginal when the spectral abscissa lands within HURWITZ_TOL
    of zero; the verdict is withheld rather than guessed.
    """
    s = spectral_abscissa(as_square_matrix(A))
    if abs(s) <= HURWITZ_TOL:
        raise Marginal(f"spectral abscissa {s:.3e} within {HURWITZ_TOL:g} of zero")
    return s < 0.0


@dataclass
class AdmissibilityVerdict:
    admissible: bool
    exact: bool
    counterexample_D: np.ndarray | None
    equivalence_trace: dict[str, Verdict] = field(default_factory=dict)

    def to_jsonable(self) -> dict:
        ce = self.counterexample_D
        return {
            "admissible": self.admissible,
            "exact": self.exact,
            "counterexample_D": None if ce is None else ce.tolist(),
            "equivalence_trace": {k: v.to_jsonable() for k, v in self.equivalence_trace.items()},
        }


def is_admissible_measure(
    norm: ValidatedNorm,
    *,
    seed: int | np.random.Generator | None = DEFAULT_SEED,
) -> AdmissibilityVerdict:
    """Decide admissibility of the measure induced by `norm`.

    The primary decision is the orthant-monotonicity classifier. The
    three measure-side conditions are decided exactly from the n numbers
    mu(-E_j), E_j = diag(e_j), and recorded in equivalence_trace under the
    keys negated_diagonal_measure (mu(-D) <= 0), diagonal_measure_identity
    (mu(D) = max d_ii), and uniform_margin (mu(-I-D) < 0, the A = -I
    instance of the existential condition). mu is convex and positively
    homogeneous, so for every D = diag(d) >= 0, with m = max d_i:

    * mu(-D) <= sum_j d_j mu(-E_j), so mu(-D) <= 0 iff every mu(-E_j) <= 0;
    * mu(-I-D) = mu(-D) - 1, and t E_j with t mu(-E_j) >= 1 breaks the
      margin as soon as some mu(-E_j) > 0;
    * mu(D) = m + mu(-(mI - D)) and mu(D) >= m, so the identity holds iff
      mu(-D) <= 0 does; I - E_j breaks it when mu(-E_j) > 0.

    Each trace entry is exact and checks_run counts the mu(-E_j) read, up
    to the first violation. When not admissible, counterexample_D is the
    first E_j with mu(-E_j) > 0.
    """
    om = is_orthant_monotonic(norm, seed=seed)
    trace: dict[str, Verdict] = {"orthant_monotonic": om}
    numeric_names = ("negated_diagonal_measure", "diagonal_measure_identity", "uniform_margin")

    if norm.kind == "lp" and (norm.route == "estimated" or norm.dim is None):
        # Absolute norms are admissible outright; without a closed measure
        # path the numeric spot checks are skipped rather than faked.
        for name in numeric_names:
            trace[name] = Verdict(True, False, None, 0)
        return AdmissibilityVerdict(True, True, None, trace)
    if norm.route == "estimated":
        raise NoExactPath("admissibility cross-checks need an exact measure path")

    n = norm.dim
    mu = _diag_measures(norm, -np.eye(n))
    if not np.isfinite(mu).all():
        raise ValueError(f"non-finite result value {mu[~np.isfinite(mu)][0]}")
    bad = mu > ADMISSIBILITY_TOL
    counterexample = None
    witnesses = (None, None, None)
    checks = n
    if bad.any():
        j = int(np.argmax(bad))
        counterexample = np.diag(np.eye(n)[j])
        witnesses = (counterexample, np.eye(n) - counterexample, (2.0 / mu[j]) * counterexample)
        checks = j + 1
    for name, w in zip(numeric_names, witnesses):
        trace[name] = Verdict(w is None, True, w, checks)

    if counterexample is not None:
        if matrix_measure(-counterexample, norm).value <= ADMISSIBILITY_TOL:
            raise InconsistentOracles(
                "constructed admissibility counterexample failed to re-verify"
            )
        if om.holds:
            raise InconsistentOracles(
                "norm classified orthant-monotonic but a diagonal measure condition failed"
            )
        return AdmissibilityVerdict(False, om.exact, counterexample, trace)

    if not om.holds:
        raise InconsistentOracles(
            "norm classified not orthant-monotonic but no diagonal counterexample exists"
        )
    return AdmissibilityVerdict(True, om.exact, None, trace)


def _diag_measures(norm: ValidatedNorm, E: np.ndarray) -> np.ndarray:
    """mu(diag(e)) for every row e of E under a norm with an exact route:
    one matrix product for polytope balls, one stacked closed-form call
    otherwise."""
    if norm._polytope is not None:
        return norm._polytope.diag_measure_many(E)
    return _closed_mu_many(E[:, :, None] * np.eye(norm.dim), norm)


def measure_of_diagonal(
    norm: ValidatedNorm,
    D,
    *,
    seed: int | np.random.Generator | None = DEFAULT_SEED,
) -> float:
    """mu(D) for diagonal D (entries of either sign).

    Under an admissible measure this equals max_i d_ii, and mu(-D) equals
    -min_i d_ii; both identities are asserted to 1e-9. For inadmissible
    norms the value is still returned, flagged with NotAdmissibleWarning.
    """
    d = diag_entries(D, norm.dim)
    value = matrix_measure(np.diag(d), norm).value
    verdict = is_admissible_measure(norm, seed=seed)
    if not verdict.admissible:
        warnings.warn(
            "measure is not admissible; diagonal identities are not guaranteed",
            NotAdmissibleWarning,
            stacklevel=2,
        )
        return value
    neg = matrix_measure(-np.diag(d), norm).value
    if abs(value - d.max()) > 1e-9 or abs(neg + d.min()) > 1e-9:
        raise InconsistentOracles("admissible measure violated the diagonal identities")
    return value


def perturbation_bounds(A, D, norm: ValidatedNorm) -> tuple[float, float, float]:
    """(lo, hi, mu_exact) with lo = mu(A) - max d_ii, hi = mu(A) - min d_ii.

    Requires an orthant-monotonic norm with an exact measure path; the
    directly computed mu(A - D) is asserted to lie in [lo, hi].
    """
    A = as_square_matrix(A, norm.dim)
    d = diag_entries(D, A.shape[0])
    if norm.route == "estimated":
        raise NoExactPath("perturbation bounds need an exact measure path")
    om = is_orthant_monotonic(norm)
    if not om.holds:
        raise NotOrthantMonotonic("perturbation bounds require an orthant-monotonic norm")
    mu_a = matrix_measure(A, norm).value
    lo = mu_a - float(d.max())
    hi = mu_a - float(d.min())
    mu_exact = matrix_measure(A - np.diag(d), norm).value
    if not (lo - 1e-9 <= mu_exact <= hi + 1e-9):
        raise InconsistentOracles(
            f"mu(A-D) = {mu_exact:.12g} escaped [{lo:.12g}, {hi:.12g}]"
        )
    return lo, hi, mu_exact


@dataclass
class DiagonalSignReport:
    mu: float
    diag_ok: bool

    def to_jsonable(self) -> dict:
        return {"mu": self.mu, "diag_ok": self.diag_ok}


def diagonal_negativity_check(A, norm: ValidatedNorm) -> DiagonalSignReport:
    """mu(A) < 0 forces a negative diagonal; check that implication on A."""
    A = as_square_matrix(A, norm.dim)
    if norm.route == "estimated":
        raise NoExactPath("diagonal negativity check needs an exact measure path")
    om = is_orthant_monotonic(norm)
    if not om.holds:
        raise NotOrthantMonotonic("diagonal negativity check requires orthant monotonicity")
    mu = matrix_measure(A, norm).value
    diag_ok = bool(np.all(np.diag(A) < 0.0))
    if mu < 0.0 and not diag_ok:
        raise InconsistentOracles(
            "mu(A) < 0 under an orthant-monotonic norm but some a_ii >= 0"
        )
    return DiagonalSignReport(mu, diag_ok)


def additive_d_stable_2x2(A) -> bool:
    """Exact test for 2x2: tr(A) < 0, det(A) > 0, and a_11, a_22 <= 0."""
    A = as_square_matrix(A)
    if A.shape[0] != 2:
        raise WrongDimension("exact additive D-stability test is 2x2 only")
    tr = float(A[0, 0] + A[1, 1])
    det = float(A[0, 0] * A[1, 1] - A[0, 1] * A[1, 0])
    return tr < 0.0 and det > 0.0 and A[0, 0] <= 0.0 and A[1, 1] <= 0.0


def additive_d_stable_metzler(A) -> bool:
    """For Metzler A (off-diagonal >= 0), additive D-stability is Hurwitz."""
    A = as_square_matrix(A)
    off = A[~np.eye(A.shape[0], dtype=bool)]
    if np.any(off < 0.0):
        raise NotMetzler("matrix has a negative off-diagonal entry")
    return is_hurwitz(A)


@dataclass
class Certificate:
    norm: ValidatedNorm
    mu: float

    def to_jsonable(self) -> dict:
        from .norms import norm_spec_to_json

        return {"norm": norm_spec_to_json(self.norm), "mu": self.mu}


@dataclass
class Counterexample:
    D: np.ndarray
    abscissa: float

    def to_jsonable(self) -> dict:
        return {"D": self.D.tolist(), "spectral_abscissa": self.abscissa}


@dataclass
class DStabilityReport:
    verdict: str
    method: str
    certificate: Certificate | None = None
    counterexample: Counterexample | None = None
    note: str | None = None

    def to_jsonable(self) -> dict:
        return {
            "verdict": self.verdict,
            "method": self.method,
            "certificate": None if self.certificate is None else self.certificate.to_jsonable(),
            "counterexample": (
                None if self.counterexample is None else self.counterexample.to_jsonable()
            ),
            "note": self.note,
        }


def _default_certificate_family(n: int, budget: int, rng: np.random.Generator):
    """l1, l2, linf, then positive-diagonal scalings of each.

    Diagonal scalings of absolute norms stay absolute, hence admissible;
    general scalings can lose admissibility and are not sampled here.
    """
    for p in (1.0, 2.0, np.inf):
        yield validate_norm_spec(Lp(p), dim=n)
    for _ in range(budget):
        t = np.exp(rng.uniform(np.log(0.1), np.log(10.0), n))
        for p in (1.0, 2.0, np.inf):
            yield validate_norm_spec(Scaled(np.diag(t), Lp(p)))


def certify_additive_d_stability(
    A,
    family: list[ValidatedNorm] | None = None,
    budget: int = 20,
    *,
    seed: int | np.random.Generator | None = DEFAULT_SEED,
) -> DStabilityReport:
    """Sufficiency search: mu(A) < 0 under an admissible measure proves
    additive D-stability, since mu(A - D) <= mu(A) + mu(-D) <= mu(A).

    Family members must have an exact measure path. Inadmissible members
    are skipped (counted in the note). First certificate wins.
    """
    A = as_square_matrix(A)
    n = A.shape[0]
    rng = as_rng(seed)
    members = family if family is not None else _default_certificate_family(n, budget, rng)

    skipped = 0
    for norm in members:
        if norm.route == "estimated":
            raise NoExactPath("certificate family members need an exact measure path")
        if not is_admissible_measure(norm, seed=rng).admissible:
            skipped += 1
            continue
        mu = matrix_measure(A, norm).value
        if mu < -ADMISSIBILITY_TOL:
            return DStabilityReport(
                "stable",
                "admissible_certificate",
                certificate=Certificate(norm, mu),
                note=f"skipped {skipped} inadmissible family member(s)" if skipped else None,
            )
    return DStabilityReport(
        "unknown",
        "budget_exhausted",
        note=f"skipped {skipped} inadmissible family member(s)" if skipped else None,
    )


def falsify_additive_d_stability(
    A,
    budget: int = 10_000,
    *,
    seed: int | np.random.Generator | None = DEFAULT_SEED,
) -> np.ndarray | None:
    """Search for nonnegative diagonal D with spectral_abscissa(A-D) > 1e-6.

    Multi-start coordinate pattern search on [0, d_max]^n with
    d_max = 10 (1 + ||A||_inf); structured starts (origin, single-axis and
    all-but-one-axis corners, full corner) come before random ones. Each
    sweep tries the moves d_i +/- step in the order (0, +), (0, -), (1, +),
    ... and takes the first one that raises the abscissa. The first D
    crossing the threshold is returned; None means `budget` abscissa
    evaluations ran out, which proves nothing.

    The moves are scored speculatively: all moves left in the sweep are
    built from the current d and scored in one stacked eigvals call, then
    walked in sweep order. At the first accepted move the rest of the batch
    is dropped and a new batch is built from the new d. Only the probes
    walked count against `budget`, so the search path, the result and the
    budget mean what they would for one evaluation at a time.
    """
    return _pattern_search(as_square_matrix(A), budget, as_rng(seed))[0]


def _pattern_search(
    A: np.ndarray, budget: int, rng: np.random.Generator
) -> tuple[np.ndarray | None, int]:
    """falsify_additive_d_stability's search: (D or None, probes used)."""
    n = A.shape[0]
    d_max = 10.0 * (1.0 + float(np.abs(A).sum(axis=1).max()))
    # move j of a sweep sets d[coord[j]] += sign[j] * step, clipped to [0, d_max]
    coord = np.repeat(np.arange(n), 2)
    sign = np.tile([1.0, -1.0], n)
    evals = 0

    def structured_starts():
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

    for start in structured_starts():
        if evals >= budget:
            return None, evals
        d = start.copy()
        best = _abscissa_many(A, d[None, :])[0]
        evals += 1
        if best > FALSIFY_THRESHOLD:
            return np.diag(d), evals
        step = d_max / 4.0
        while step > d_max * 1e-6 and evals < budget:
            improved = False
            pos = 0
            while pos < 2 * n:
                target = np.minimum(np.maximum(d[coord[pos:]] + sign[pos:] * step, 0.0), d_max)
                live = pos + (target != d[coord[pos:]]).nonzero()[0]
                if not live.size:
                    break
                if evals >= budget:
                    return None, evals
                live = live[: budget - evals]
                batch = np.repeat(d[None, :], live.size, axis=0)
                batch[np.arange(live.size), coord[live]] = target[live - pos]
                scores = _abscissa_many(A, batch)
                # a probe stops the walk when it crosses the threshold or improves
                hits = (scores > min(FALSIFY_THRESHOLD, best + 1e-12)).nonzero()[0]
                if not hits.size:
                    evals += live.size
                    break
                j = int(hits[0])
                evals += j + 1
                if scores[j] > FALSIFY_THRESHOLD:
                    return np.diag(batch[j]), evals
                best, d, improved, pos = scores[j], batch[j], True, int(live[j]) + 1
            if not improved:
                step /= 2.0
    return None, evals


def falsify_on_grid(
    A,
    d_max: float = 10.0,
    grid: int = 50,
    extra: int = 1000,
    *,
    seed: int | np.random.Generator | None = DEFAULT_SEED,
) -> np.ndarray | None:
    """Grid sweep over D in [0, d_max]^n (mesh for n=2, random beyond),
    plus `extra` random points. Returns the first destabilizing D found."""
    A = as_square_matrix(A)
    n = A.shape[0]
    rng = as_rng(seed)
    if n == 2:
        axis = np.linspace(0.0, d_max, grid)
        g1, g2 = np.meshgrid(axis, axis, indexing="ij")
        pts = np.column_stack([g1.ravel(), g2.ravel()])
    else:
        pts = rng.uniform(0.0, d_max, (grid * grid, n))
    if extra:
        pts = np.vstack([pts, rng.uniform(0.0, d_max, (extra, n))])

    hits = np.nonzero(_abscissa_many(A, pts) > FALSIFY_THRESHOLD)[0]
    if hits.size:
        return np.diag(pts[hits[0]])
    return None


def _destabilizer_2x2(A: np.ndarray) -> tuple[np.ndarray, str | None]:
    """Constructive counterexample for a 2x2 matrix failing the exact test."""
    s0 = spectral_abscissa(A)
    if s0 > FALSIFY_THRESHOLD:
        return np.zeros((2, 2)), None
    det = float(A[0, 0] * A[1, 1] - A[0, 1] * A[1, 0])
    # det(A - diag(0,t)) = det(A) - t a_11 goes negative along the ray
    if A[0, 0] > 0:
        t = 2.0 * max(1.0, det / float(A[0, 0]))
        return np.diag([0.0, t]), None
    if A[1, 1] > 0:
        t = 2.0 * max(1.0, det / float(A[1, 1]))
        return np.diag([t, 0.0]), None
    return np.zeros((2, 2)), (
        "marginal case: A is not Hurwitz at D=0, but no nonnegative diagonal "
        "shift produces a strictly positive abscissa"
    )


def _irreducible_blocks(A: np.ndarray) -> list[np.ndarray]:
    """Index sets of the irreducible diagonal blocks of A: the strongly
    connected components of the digraph with an edge i -> j iff
    a_ij != 0, each sorted, in the order of their smallest index.

    Reachability comes from squaring the boolean pattern until it stops
    growing (at most ceil(log2 n) products).
    """
    n = A.shape[0]
    reach = ((A != 0.0) | np.eye(n, dtype=bool)).astype(float)
    while True:
        grown = np.minimum(reach @ reach, 1.0)
        if np.array_equal(grown, reach):
            break
        reach = grown
    mutual = reach * reach.T > 0.0
    blocks, seen = [], np.zeros(n, dtype=bool)
    for i in range(n):
        if not seen[i]:
            block = mutual[i].nonzero()[0]
            seen[block] = True
            blocks.append(block)
    return blocks


def _block_stable(B: np.ndarray) -> bool:
    """Exact sufficient test for one irreducible block: 2x2 passing the
    exact test, or Metzler and Hurwitz (B - D is then Metzler and entrywise
    below B, so its abscissa is no larger). A 1x1 block is Metzler: it is
    stable iff b < -HURWITZ_TOL."""
    m = B.shape[0]
    if m == 2:
        return bool(additive_d_stable_2x2(B))
    off = B[~np.eye(m, dtype=bool)]
    return bool(np.all(off >= 0.0)) and spectral_abscissa(B) < -HURWITZ_TOL


def _minor_destabilizers(B: np.ndarray):
    """For each negative principal minor det(-B[S]) in turn, yield the
    smallest shift d = t 1_{S^c} on its ladder with
    spectral_abscissa(B - diag(d)) > FALSIFY_THRESHOLD, if there is one.

    All 2^m - 1 minors det(-B[S]) come from one stacked det over the
    matrices with -B on S x S and the identity elsewhere. The subsets S
    with a negative minor are taken by size, then by bitmask (bit i for
    index i). Each gets one stacked _abscissa_many call over its ladder,
    t on _MINOR_LADDER scaled by 1 + ||B||_inf. A minor whose sign is
    rounding noise costs one ladder and yields nothing, and so does every
    minor when ||B||_inf overflows.
    """
    m = B.shape[0]
    with np.errstate(over="ignore"):
        scale = 1.0 + float(np.abs(B).sum(axis=1).max())
    if not np.isfinite(scale):
        return
    ladder = scale * _MINOR_LADDER
    masks = sorted(range(1, 2**m), key=lambda s: (s.bit_count(), s))
    inside = (np.array(masks)[:, None] >> np.arange(m)) & 1 == 1
    minors = np.linalg.det(np.where(inside[:, :, None] & inside[:, None, :], -B, np.eye(m)))
    for S in inside[minors < 0.0]:
        rungs = np.outer(ladder, ~S) if not S.all() else np.zeros((1, m))
        hits = (_abscissa_many(B, rungs) > FALSIFY_THRESHOLD).nonzero()[0]
        if hits.size:
            yield rungs[hits[0]]


def _algebraic_report(A: np.ndarray) -> DStabilityReport | None:
    """Block reduction, then the principal-minor falsifier on each block
    not proven stable and no larger than MINOR_MAX_DIM; None when neither
    decides. Every counterexample is padded with zeros to n and
    re-verified on A itself."""
    n = A.shape[0]
    open_blocks = [b for b in _irreducible_blocks(A) if not _block_stable(A[np.ix_(b, b)])]
    if not open_blocks:
        return DStabilityReport("stable", "block_reduction")
    for b in open_blocks:
        if b.size > MINOR_MAX_DIM:
            continue
        for d in _minor_destabilizers(A[np.ix_(b, b)]):
            D = np.zeros((n, n))
            D[b, b] = d
            s = spectral_abscissa(A - D)
            if s > FALSIFY_THRESHOLD:
                return DStabilityReport(
                    "unstable", "principal_minor", counterexample=Counterexample(D, s)
                )
    return None


def additive_d_stability_report(
    A,
    *,
    family: list[ValidatedNorm] | None = None,
    budget: int = 20,
    falsify_budget: int = 10_000,
    seed: int | np.random.Generator | None = DEFAULT_SEED,
) -> DStabilityReport:
    """Composite pipeline, in this order; the method label names the step
    that decided.

    * ``exact_2x2`` (n = 2) and ``metzler`` (off-diagonal >= 0): exact.
    * ``block_reduction``: every irreducible diagonal block is stable. The
      SCC permutation makes A block upper triangular and keeps D diagonal,
      so spec(A - D) is the union of the blocks' spectra.
    * ``principal_minor``: det(D - A) is multiaffine in d with the
      coefficient det(-A[S]) on prod_{i not in S} d_i, so a negative
      minor forces det(D - A) < 0, hence a real eigenvalue of A - D
      above 0, once D = t 1_{S^c} is large; the D found is re-verified.
    * ``admissible_certificate``: the certificate search (with `family`
      when given), then ``falsified``: the pattern search.

    Only the last two draw from `seed`. Verdicts are never upgraded on the
    strength of a failed search."""
    A = as_square_matrix(A)
    n = A.shape[0]

    if n == 2:
        if additive_d_stable_2x2(A):
            note = None
            if A[0, 0] == 0.0 or A[1, 1] == 0.0:
                note = (
                    "a diagonal entry is zero: additively D-stable, but no "
                    "admissible-measure certificate can exist for this matrix"
                )
            return DStabilityReport("stable", "exact_2x2", note=note)
        D, note = _destabilizer_2x2(A)
        s = spectral_abscissa(A - D)
        return DStabilityReport(
            "unstable", "exact_2x2", counterexample=Counterexample(D, s), note=note
        )

    off = A[~np.eye(n, dtype=bool)]
    if np.all(off >= 0.0):
        if additive_d_stable_metzler(A):
            return DStabilityReport("stable", "metzler")
        s0 = spectral_abscissa(A)
        return DStabilityReport(
            "unstable", "metzler", counterexample=Counterexample(np.zeros((n, n)), s0)
        )

    decided = _algebraic_report(A)
    if decided is not None:
        return decided

    report = certify_additive_d_stability(A, family, budget, seed=seed)
    if report.verdict == "stable":
        return report

    D = falsify_additive_d_stability(A, falsify_budget, seed=seed)
    if D is not None:
        return DStabilityReport(
            "unstable", "falsified", counterexample=Counterexample(D, spectral_abscissa(A - D))
        )
    return DStabilityReport("unknown", "budget_exhausted", note=report.note)
