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
4. Unstable principal submatrices, on blocks of at most MINOR_MAX_DIM
   rows: driving d_i to infinity off S leaves the spectrum of A[S], so
   an A[S] with spectral abscissa above FALSIFY_THRESHOLD makes
   A - t 1_{S^c} unstable for large t, and the first rung of a geometric
   ladder of t that crosses gives D (S the whole block gives D = 0).
   A block whose mu_1, mu_2 or mu_inf is below -FALSIFY_THRESHOLD has
   no such A[S] and is not searched.
5. Certificate search: an admissible measure with mu(A) < 0. It is
   skipped when some a_ii >= -ADMISSIBILITY_TOL, since every admissible
   measure has mu(A) >= max a_ii.
6. Step 4 on the open blocks of more than MINOR_MAX_DIM rows.

Absence of a counterexample never upgrades the verdict past "unknown".
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from fractions import Fraction

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
from .measures import (
    _abscissa_many,
    _abscissa_stack,
    _closed_mu_core,
    _rank_one_many,
    matrix_measure,
    spectral_abscissa,
)
from .norms import Lp, Scaled, ValidatedNorm, validate_norm_spec

ADMISSIBILITY_TOL = 1e-9
HURWITZ_TOL = 1e-9
FALSIFY_THRESHOLD = 1e-6
# Rounding slack of the diagonal cross-checks, per unit of the inputs'
# size: measures of order 1e8 round in their last ulps far above 1e-9.
_ROUNDING_SLACK = 64 * float(np.finfo(float).eps)
# Largest irreducible block searched for unstable principal submatrices
# before the certificate search; larger open blocks are searched after it.
MINOR_MAX_DIM = 8
# Spectra spent on one block's principal submatrices and their ladders, at
# most; blocks whose 2^m - 1 submatrices fit are enumerated in full.
FALSIFY_SPECTRA = 10_000
# The shifts t tried for one unstable submatrix: (1 + ||B||_inf) * 2^k.
_MINOR_LADDER = 2.0 ** np.arange(-4, 20)
# The largest diagonal shift the 2x2 destabilizer writes, with its entry.
_MAX_SHIFT = Fraction(float(np.finfo(float).max)) / 2


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

    No path reads `seed`: the classifier samples only scaled generic l_p
    norms, which are refused here first. It stays because callers pass one.
    """
    if norm.route == "estimated" and norm.kind != "lp":
        raise NoExactPath("admissibility cross-checks need an exact measure path")
    om = is_orthant_monotonic(norm)
    trace: dict[str, Verdict] = {"orthant_monotonic": om}
    numeric_names = ("negated_diagonal_measure", "diagonal_measure_identity", "uniform_margin")

    if norm.kind == "lp" and (norm.route == "estimated" or norm.dim is None):
        # Absolute norms are admissible outright; without a closed measure
        # path the numeric spot checks are skipped rather than faked.
        for name in numeric_names:
            trace[name] = Verdict(True, False, None, 0)
        return AdmissibilityVerdict(True, True, None, trace)

    n = norm.dim
    mu = _diag_measures(norm)
    if not np.isfinite(mu).all():
        raise ValueError(f"non-finite result value {mu[~np.isfinite(mu)][0]}")
    bad = mu > ADMISSIBILITY_TOL
    counterexample, witnesses, checks = None, (None, None, None), n
    if bad.any():
        j = int(np.argmax(bad))
        counterexample = np.diag(np.eye(n)[j])
        mu_j = matrix_measure(-counterexample, norm).value  # re-verified; scales the margin's witness
        if mu_j <= ADMISSIBILITY_TOL:
            raise InconsistentOracles("constructed admissibility counterexample failed to re-verify")
        witnesses = (counterexample, np.eye(n) - counterexample, (2.0 / mu_j) * counterexample)
        checks = j + 1
    for name, w in zip(numeric_names, witnesses):
        trace[name] = Verdict(w is None, True, w, checks)

    if om.holds == (counterexample is not None):
        raise InconsistentOracles(
            "norm classified orthant-monotonic but a diagonal measure condition failed"
            if om.holds
            else "norm classified not orthant-monotonic but no diagonal counterexample exists"
        )
    return AdmissibilityVerdict(om.holds, om.exact, counterexample, trace)


def _diag_measures(norm: ValidatedNorm) -> np.ndarray:
    """mu(-E_j), E_j = diag(e_j), for every j under a norm with an exact route."""
    if norm._polytope is not None:
        return norm._polytope.ray_measures()
    return _rank_one_many(norm, "ray")


def measure_of_diagonal(norm: ValidatedNorm, D) -> float:
    """mu(D) for diagonal D (entries of either sign).

    Under an admissible measure this equals max_i d_ii, and mu(-D) equals
    -min_i d_ii; both identities are asserted to 1e-9 plus a few ulps of
    max_i |d_ii|. For inadmissible
    norms the value is still returned, flagged with NotAdmissibleWarning.
    """
    d = diag_entries(D, norm.dim)
    value = matrix_measure(np.diag(d), norm).value
    verdict = is_admissible_measure(norm)
    if not verdict.admissible:
        warnings.warn(
            "measure is not admissible; diagonal identities are not guaranteed",
            NotAdmissibleWarning,
            stacklevel=2,
        )
        return value
    neg = matrix_measure(-np.diag(d), norm).value
    tol = 1e-9 + _ROUNDING_SLACK * float(np.abs(d).max())
    if abs(value - d.max()) > tol or abs(neg + d.min()) > tol:
        raise InconsistentOracles("admissible measure violated the diagonal identities")
    return value


def perturbation_bounds(A, D, norm: ValidatedNorm) -> tuple[float, float, float]:
    """(lo, hi, mu_exact) with lo = mu(A) - max d_ii, hi = mu(A) - min d_ii.

    Requires an orthant-monotonic norm with an exact measure path; the
    directly computed mu(A - D) is asserted to lie in [lo, hi], widened by
    1e-9 plus a few ulps of |mu(A)| + max |d_ii|.
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
    tol = 1e-9 + _ROUNDING_SLACK * (abs(mu_a) + float(np.abs(d).max()))
    if not (lo - tol <= mu_exact <= hi + tol):
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


def _det_2x2(A: np.ndarray) -> Fraction:
    """det(A) of a 2x2 float matrix, exactly: every float is a rational."""
    (a, b), (c, d) = ((Fraction(x) for x in row) for row in A.tolist())
    return a * d - b * c


def additive_d_stable_2x2(A) -> bool:
    """Exact test for 2x2: tr(A) < 0, det(A) > 0, and a_11, a_22 <= 0.

    The signs are decided in rationals, so a product that rounds or
    overflows in floating point cannot flip them.
    """
    A = as_square_matrix(A)
    if A.shape[0] != 2:
        raise WrongDimension("exact additive D-stability test is 2x2 only")
    tr = Fraction(A[0, 0]) + Fraction(A[1, 1])
    return tr < 0 and _det_2x2(A) > 0 and A[0, 0] <= 0.0 and A[1, 1] <= 0.0


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
        if not is_admissible_measure(norm).admissible:
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


def falsify_additive_d_stability(A) -> np.ndarray | None:
    """A nonnegative diagonal D with spectral_abscissa(A - D) >
    FALSIFY_THRESHOLD, or None, which proves nothing.

    Deterministic: every irreducible diagonal block of A not proven stable
    is searched for unstable principal submatrices (_minor_destabilizers),
    and the D found is padded with zeros and re-verified on A itself.
    """
    A = as_square_matrix(A)
    found = _counterexample(A, _open_blocks(A))
    return None if found is None else found.D


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


def _destabilizer_2x2(A: np.ndarray) -> tuple[Counterexample | None, str | None]:
    """Constructive counterexample for a 2x2 matrix failing the exact test,
    kept only when its floating-point abscissa exceeds FALSIFY_THRESHOLD,
    or None with a note saying why there is none."""
    s0 = spectral_abscissa(A)
    if s0 > FALSIFY_THRESHOLD:
        return Counterexample(np.zeros((2, 2)), s0), None
    det = _det_2x2(A)
    note = (
        "marginal case: A is not Hurwitz at D=0, but no nonnegative diagonal "
        "shift produces a strictly positive abscissa"
    )
    for i in (0, 1):
        if A[i, i] > 0:
            # det(A - t e_j e_j^T) = det(A) - t a_ii, j != i, goes negative
            # along the ray; t is used only where a_jj - t stays far from
            # overflow
            t = 2 * max(1, det / Fraction(A[i, i]))
            if t + abs(Fraction(A[1 - i, 1 - i])) > _MAX_SHIFT:
                note = (
                    "a positive diagonal entry makes A unstable once the other diagonal "
                    "entry is shifted far enough, but that shift overflows floating point"
                )
                continue
            D = np.zeros((2, 2))
            D[1 - i, 1 - i] = float(t)
            s = spectral_abscissa(A - D)
            if s > FALSIFY_THRESHOLD:
                return Counterexample(D, s), None
            note = (
                f"D[{1 - i}][{1 - i}] = {float(t):.3g} makes A - D unstable in exact arithmetic, but "
                f"its floating-point spectral abscissa is {s:.3g}, so no counterexample is reported"
            )
    return None, note


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
    """For each unstable principal submatrix B[S] found in turn (spectral
    abscissa above FALSIFY_THRESHOLD), yield the smallest shift
    d = t 1_{S^c} on its ladder with spectral_abscissa(B - diag(d)) >
    FALSIFY_THRESHOLD, if there is one.

    A negative minor det(-B[S]) is one case: B[S] then has a positive real
    eigenvalue. With 2^m - 1 <= FALSIFY_SPECTRA, every S is scored in one
    stacked call, by size, then by bitmask (bit i for index i). Larger
    blocks walk greedy chains: the whole block, every set missing one
    index, then from each of those in turn, the subset left by dropping the
    index whose removal leaves the largest abscissa, until the chain meets
    a set an earlier chain walked. Each unstable S gets one stacked call
    over its ladder, t on _MINOR_LADDER scaled by 1 + ||B||_inf, or the
    single shift 0 when S is the whole block. A set whose instability is
    rounding noise costs one ladder and yields nothing, and so does every
    set when ||B||_inf overflows. At most FALSIFY_SPECTRA spectra are
    spent, ladders included.

    A block whose mu_inf, mu_1 or mu_2 is below -FALSIFY_THRESHOLD yields
    nothing and spends no spectrum: every B[S] has a measure at most the
    block's (row and column sums only shrink on a submatrix, and Cauchy
    interlacing bounds the symmetric part), and so is Hurwitz. Every
    measure is at least max b_ii, so a block with max b_ii >=
    -FALSIFY_THRESHOLD skips that check, and the sums go before eigvalsh.
    """
    m = B.shape[0]
    with np.errstate(over="ignore"):
        scale = 1.0 + float(np.abs(B).sum(axis=1).max())
    if not np.isfinite(scale):
        return
    if B.diagonal().max() < -FALSIFY_THRESHOLD and any(
        _closed_mu_core(B, p) < -FALSIFY_THRESHOLD for p in (np.inf, 1, 2)
    ):
        return
    spent = 0

    def scored(inside):
        # B on S x S and -I elsewhere: the abscissa of B[S], floored at -1
        nonlocal spent
        spent += len(inside)
        mask = inside[:, :, None] & inside[:, None, :]
        return inside, _abscissa_stack(np.where(mask, B, -np.eye(m)))

    def batches():
        if 2**m - 1 <= FALSIFY_SPECTRA:
            masks = sorted(range(1, 2**m), key=lambda s: (s.bit_count(), s))
            yield scored((np.array(masks)[:, None] >> np.arange(m)) & 1 == 1)
            return
        yield scored(np.ones((1, m), dtype=bool))
        starts = ~np.eye(m, dtype=bool)
        yield scored(starts)
        walked = set()
        for S in starts:
            while S.sum() > 1 and S.tobytes() not in walked and spent + S.sum() <= FALSIFY_SPECTRA:
                walked.add(S.tobytes())
                kids, a = scored(S & ~np.eye(m, dtype=bool)[S])
                yield kids, a
                S = kids[np.argmax(a)]

    for inside, a in batches():
        for S in inside[a > FALSIFY_THRESHOLD]:
            rungs = np.outer(scale * _MINOR_LADDER, ~S) if not S.all() else np.zeros((1, m))
            if spent + len(rungs) > FALSIFY_SPECTRA:
                return
            spent += len(rungs)
            hits = (_abscissa_many(B, rungs) > FALSIFY_THRESHOLD).nonzero()[0]
            if hits.size:
                yield rungs[hits[0]]


def _open_blocks(A: np.ndarray) -> list[np.ndarray]:
    """The irreducible diagonal blocks of A not proven stable."""
    return [b for b in _irreducible_blocks(A) if not _block_stable(A[np.ix_(b, b)])]


def _counterexample(A: np.ndarray, blocks) -> Counterexample | None:
    """The first shift _minor_destabilizers yields on the blocks, in order,
    padded with zeros to n, that re-verifies on A itself."""
    n = A.shape[0]
    for b in blocks:
        for d in _minor_destabilizers(A[np.ix_(b, b)]):
            D = np.zeros((n, n))
            D[b, b] = d
            s = spectral_abscissa(A - D)
            if s > FALSIFY_THRESHOLD:
                return Counterexample(D, s)
    return None


def _algebraic_report(A: np.ndarray) -> DStabilityReport | None:
    """Block reduction, then unstable principal submatrices of the open
    blocks of at most MINOR_MAX_DIM rows; None when neither decides."""
    blocks = _open_blocks(A)
    if not blocks:
        return DStabilityReport("stable", "block_reduction")
    found = _counterexample(A, [b for b in blocks if b.size <= MINOR_MAX_DIM])
    if found is not None:
        return DStabilityReport("unstable", "principal_minor", counterexample=found)
    return None


def additive_d_stability_report(
    A,
    *,
    family: list[ValidatedNorm] | None = None,
    budget: int = 20,
    seed: int | np.random.Generator | None = DEFAULT_SEED,
) -> DStabilityReport:
    """Composite pipeline, in this order; the method label names the step
    that decided.

    * ``exact_2x2`` (n = 2) and ``metzler`` (off-diagonal >= 0): exact.
    * ``block_reduction``: every irreducible diagonal block is stable. The
      SCC permutation makes A block upper triangular and keeps D diagonal,
      so spec(A - D) is the union of the blocks' spectra.
    * ``principal_minor``: an open block of at most MINOR_MAX_DIM rows has
      an unstable principal submatrix A[S]; driving d_i to infinity off S
      leaves its spectrum, so A - t 1_{S^c} is unstable once t is large
      (D = 0 when S is the whole block); the D found is re-verified.
    * ``admissible_certificate``: the certificate search (with `family`
      when given). It is skipped when some a_ii >= -ADMISSIBILITY_TOL:
      every admissible measure has mu(A) >= max a_ii, so no certificate
      exists, and the note names the entry.
    * ``falsified``: the principal_minor test on the open blocks of more
      than MINOR_MAX_DIM rows.

    Only the certificate family draws from `seed`. Verdicts are never
    upgraded on the strength of a failed search."""
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
        found, note = _destabilizer_2x2(A)
        return DStabilityReport("unstable", "exact_2x2", counterexample=found, note=note)

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

    i = int(np.argmax(np.diag(A)))
    if A[i, i] >= -ADMISSIBILITY_TOL:
        note = f"diagonal entry A[{i}][{i}] = {A[i, i]:.6g} is not below -{ADMISSIBILITY_TOL:g}"
        note += ": no admissible-measure certificate can exist for this matrix"
        report = DStabilityReport("unknown", "budget_exhausted", note=note)
    else:
        report = certify_additive_d_stability(A, family, budget, seed=seed)
        if report.verdict == "stable":
            return report

    found = _counterexample(A, [b for b in _open_blocks(A) if b.size > MINOR_MAX_DIM])
    if found is not None:
        return DStabilityReport("unstable", "falsified", counterexample=found)
    return report
