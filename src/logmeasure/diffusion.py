"""Diffusively coupled pair of identical linear systems.

Two agents x' = Ax + D(z - x), z' = Az + D(x - z) with a nonnegative
diagonal diffusion gain D. The change of coordinates p = (x + z, z - x)
block-diagonalizes the coupled dynamics into A and A - 2D, so the agents
synchronize (x - z -> 0) exactly when A - 2D is Hurwitz. Diffusion can
destroy stability: A Hurwitz does not imply A - 2D Hurwitz unless the
matrix is additively D-stable with margin, which is why the stability
module's analysis feeds this one.

simulate integrates the pair with classical RK4 in those decoupled
coordinates, halved: h = ((x + z) / 2, (z - x) / 2) moves under
diag(P(A), P(A - 2D)), P the one-step RK4 propagator. That is the same map
as stepping the 2n x 2n block, and it reads the sync metric as 2 |(z - x) / 2|
without subtracting two nearly equal states, so a synchronizing run reports
its true (tiny) distance instead of 0. Every product is an einsum, so the
bytes of a trajectory do not depend on which OpenBLAS kernel numpy loaded.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .common import as_square_matrix, as_vector, diag_entries
from .errors import (
    BadTimeGrid,
    BaseNotHurwitz,
    InconsistentOracles,
    NotNonnegativeDiagonal,
    StepTooLarge,
)
from .stability import is_hurwitz

DIVERGENCE_CUTOFF = 1e6
STEP_NORM_BOUND = 0.1
# simulate propagates, and checks the cutoff, in blocks of this many steps
_CHECK_EVERY = 64
# sync metric rows with an entry above this are computed scaled
_SYNC_SCALE_ABOVE = 1e150

# simulate refuses, before allocating, a grid whose (steps + 1) x 2n state
# array would hold more values than this (80 MB of float64).
MAX_STATE_VALUES = 10_000_000

# simulate refuses, before allocating, initial states with an entry, or
# sqrt(n) |x0 - z0|_inf, above this. A state past the cutoff stops the run
# after one step, which grows |y|_inf and |x - z|_inf by at most e^0.1, so
# the states and the sync metric |x - z|_2 stay below 1.66e308, inside the
# float range.
MAX_INITIAL_STATE = 1.5e308


@dataclass
class CoupledSystem:
    A: np.ndarray
    D: np.ndarray
    block: np.ndarray


@dataclass
class Trajectory:
    """Fixed-step trajectory of the coupled pair.

    states rows are (x(t), z(t)) concatenated; sync_metric is the
    euclidean distance between the two agents at each step. diverged
    marks an early stop at the overflow cutoff.
    """

    times: np.ndarray
    states: np.ndarray
    sync_metric: np.ndarray
    diverged: bool = False


def build_coupled(A, D) -> CoupledSystem:
    """Assemble the 2n x 2n block [[A-D, D], [D, A-D]].

    The decoupling similarity is re-verified on every build: conjugating
    by [[I, I], [-I, I]] must produce diag(A, A-2D) to a few ulps of
    max|a_ij| + max d, anything else means the block was assembled wrong.
    """
    A = as_square_matrix(A)
    n = A.shape[0]
    d = diag_entries(D, n)
    if np.any(d < 0.0):
        raise NotNonnegativeDiagonal("diffusion gains must be >= 0")
    Dm = np.diag(d)
    with np.errstate(over="ignore", invalid="ignore"):
        block = _assemble(A, Dm)
        target = (A, 0.0, 0.0, block[n:, n:] - Dm)  # non-finite if the block is
    if not np.all(np.isfinite(target[3])):
        raise ValueError("the coupled block [[A-D, D], [D, A-D]] or A - 2D overflows")

    # T block T^-1 with T = [[I, I], [-I, I]], T^-1 = (1/2) [[I, -I], [I, I]],
    # one n x n block at a time: the rows of T block are [c + f, e + g] and
    # [f - c, g - e]; halving before adding keeps the sums finite
    c, e, f, g = block[:n, :n], block[:n, n:], block[n:, :n], block[n:, n:]
    upper, lower = (c + f, e + g), (f - c, g - e)
    decoupled = (
        0.5 * upper[0] + 0.5 * upper[1],
        0.5 * upper[1] - 0.5 * upper[0],
        0.5 * lower[0] + 0.5 * lower[1],
        0.5 * lower[1] - 0.5 * lower[0],
    )
    err = max(np.max(np.abs(got - want)) for got, want in zip(decoupled, target))
    # a right block misses diag(A, A - 2D) by rounding only: at most
    # 1.5 eps (max|a_ij| + max d) in any entry
    if err > 4.0 * np.finfo(float).eps * np.max(np.abs(A)) + 4.0 * np.finfo(float).eps * np.max(d):
        raise InconsistentOracles("coupled block failed the decoupling similarity check")
    return CoupledSystem(A, Dm, block)


def _assemble(A: np.ndarray, Dm: np.ndarray) -> np.ndarray:
    n = A.shape[0]
    block = np.empty((2 * n, 2 * n))
    block[:n, :n] = block[n:, n:] = A - Dm
    block[:n, n:] = block[n:, :n] = Dm
    return block


def sync_verdict(A, D) -> bool:
    """Synchronization criterion: x - z -> 0 iff A - 2D is Hurwitz.

    Stated for Hurwitz A only; a non-Hurwitz base matrix raises
    BaseNotHurwitz instead of guessing.
    """
    A = as_square_matrix(A)
    d = diag_entries(D, A.shape[0])
    if np.any(d < 0.0):
        raise NotNonnegativeDiagonal("diffusion gains must be >= 0")
    if not is_hurwitz(A):
        raise BaseNotHurwitz("synchronization criterion assumes A Hurwitz")
    return is_hurwitz(A - 2.0 * np.diag(d))


def simulate(A, D, x0, z0, horizon: float, dt: float) -> Trajectory:
    """Integrate the coupled pair with fixed-step classical RK4.

    The system is linear, so one RK4 step is exactly y <- P y with
    P = sum_{k<=4} (dt B)^k / k!, and P is diag(P(A), P(A - 2D)) on the
    halves h = ((x + z) / 2, (z - x) / 2). Both are built once, in Horner
    form, with their powers up to P^_CHECK_EVERY; each block of that many
    steps is then one product from its first h, unpacked to x = h_1 - h_2,
    z = h_1 + h_2 and |x - z|_2 = 2 |h_2|_2.

    horizon and dt must be positive and finite, dt must not exceed the
    horizon and must satisfy dt * ||block||_inf <= 0.1, the grid may
    store at most MAX_STATE_VALUES state values, and neither the entries
    of x0 and z0 nor sqrt(n) |x0 - z0|_inf may exceed MAX_INITIAL_STATE;
    integration stops early
    (diverged=True) once any state entry passes the overflow cutoff.
    """
    if not (math.isfinite(horizon) and math.isfinite(dt)) or dt <= 0.0 or horizon <= 0.0:
        raise BadTimeGrid(f"horizon and dt must be positive and finite, got {horizon!r} and {dt!r}")
    system = build_coupled(A, D)
    n = system.A.shape[0]
    x0 = as_vector(x0, n)
    z0 = as_vector(z0, n)
    # the halves ((x + z) / 2, (z - x) / 2), as x0 + z0 and x0 - z0 may overflow
    h = np.stack([0.5 * x0 + 0.5 * z0, 0.5 * z0 - 0.5 * x0])
    gap = 2.0 * math.sqrt(n) * float(np.abs(h[1]).max())
    if max(np.abs(x0).max(), np.abs(z0).max(), gap) > MAX_INITIAL_STATE:
        raise ValueError(
            f"initial states too large: their entries and sqrt(n) |x0 - z0|_inf "
            f"must not exceed {MAX_INITIAL_STATE:g}"
        )
    if dt > horizon:
        raise StepTooLarge("dt exceeds the horizon")
    B = system.block
    with np.errstate(over="ignore"):
        bnorm = float(np.abs(B).sum(axis=1).max())
    if not math.isfinite(bnorm):
        raise StepTooLarge(
            "the coupled block's infinity-norm overflows; the step check dt * ||block||_inf <= 0.1 needs it finite"
        )
    if dt * bnorm > STEP_NORM_BOUND + 1e-12:
        limit = STEP_NORM_BOUND / bnorm if bnorm > 0 else np.inf
        raise StepTooLarge(f"dt * ||block||_inf = {dt * bnorm:.3g} > 0.1; need dt <= {limit:.3g}")
    # horizon / dt may overflow to inf, so it is clipped before rounding
    steps = math.ceil(min(horizon / dt - 1e-9, MAX_STATE_VALUES))
    if (steps + 1) * 2 * n > MAX_STATE_VALUES:
        raise BadTimeGrid(
            f"horizon / dt = {horizon / dt:.3g} steps of {2 * n} values exceed the cap of "
            f"{MAX_STATE_VALUES} stored state values"
        )
    powers = _propagator_powers(system.A, system.A - 2.0 * system.D, dt, min(steps, _CHECK_EVERY))
    times = np.arange(steps + 1) * dt
    states = np.empty((steps + 1, 2 * n))
    sync = np.empty(steps + 1)
    states[0, :n], states[0, n:] = x0, z0
    sync[0] = _sync(h[None, 1])[0]
    diverged = False
    k = 0
    while k < steps:
        # dt ||B||_inf <= 0.1 bounds ||P(A)||_inf and ||P(A - 2D)||_inf by
        # e^0.1, so a block of _CHECK_EVERY steps from a state (and so
        # halves) below DIVERGENCE_CUTOFF stays below 1e6 e^6.4 < 6.1e8,
        # far from overflow; a state already past the cutoff (a huge y0)
        # is checked after one step
        size = min(_CHECK_EVERY if np.abs(states[k]).max() <= DIVERGENCE_CUTOFF else 1, steps - k)
        block = np.einsum("jkab,kb->jka", powers[:size], h)
        a, b = block[:, 0], block[:, 1]
        rows = states[k + 1 : k + 1 + size]
        rows[:, :n], rows[:, n:] = a - b, a + b
        sync[k + 1 : k + 1 + size] = _sync(b)
        over = (np.abs(rows) > DIVERGENCE_CUTOFF).any(axis=1)
        if over.any():
            # cut at the first state past the cutoff, as a per-step check would
            stop = k + 1 + int(np.argmax(over))
            times, states, sync = times[: stop + 1].copy(), states[: stop + 1].copy(), sync[: stop + 1].copy()
            diverged = True
            break
        h = block[-1]
        k += size
    return Trajectory(times, states, sync, diverged)


def _propagator_powers(A: np.ndarray, A2: np.ndarray, dt: float, count: int) -> np.ndarray:
    """P^1 ... P^m, m >= count a power of two, of the RK4 propagators
    P = sum_{k<=4} (dt M)^k / k! of M = A and M = A2, stacked (m, 2, n, n).

    Each P is built in Horner form and the powers by doubling,
    P^{m+j} = P^m P^j; every product is an einsum, whose bytes no BLAS
    kernel decides.
    """
    M = np.stack([A, A2])
    P = eye = np.broadcast_to(np.eye(A.shape[0]), M.shape)
    for k in (4.0, 3.0, 2.0, 1.0):
        P = eye + np.einsum("kab,kbc->kac", (dt / k) * M, P)
    powers = P[None]
    while powers.shape[0] < count:
        powers = np.concatenate([powers, np.einsum("kab,jkbc->jkac", powers[-1], powers)])
    return powers


def _sync(b: np.ndarray) -> np.ndarray:
    """|x - z|_2 = 2 |b|_2 of each row of the halves b = (z - x) / 2.

    A row past about 1e154 would overflow the squared norm, so a row with
    an entry above _SYNC_SCALE_ABOVE is scaled by its largest entry first;
    every other row keeps the bits of the plain norm.
    """
    scale = np.abs(b).max(axis=1, keepdims=True)
    if scale.max() > _SYNC_SCALE_ABOVE:
        scale[scale <= _SYNC_SCALE_ABOVE] = 1.0
        b = b / scale
        return 2.0 * scale[:, 0] * np.sqrt(np.einsum("ij,ij->i", b, b))
    return 2.0 * np.sqrt(np.einsum("ij,ij->i", b, b))
