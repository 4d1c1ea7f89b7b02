"""Diffusively coupled pair of identical linear systems.

Two agents x' = Ax + D(z - x), z' = Az + D(x - z) with a nonnegative
diagonal diffusion gain D. The change of coordinates p = (x + z, z - x)
block-diagonalizes the coupled dynamics into A and A - 2D, so the agents
synchronize (x - z -> 0) exactly when A - 2D is Hurwitz. Diffusion can
destroy stability: A Hurwitz does not imply A - 2D Hurwitz unless the
matrix is additively D-stable with margin, which is why the stability
module's analysis feeds this one. simulate integrates the pair with
classical RK4, evaluated as its one-step propagator matrix.
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
# simulate checks the cutoff once per block of this many steps
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
    by [[I, I], [-I, I]] must produce diag(A, A-2D) to 1e-10, anything
    else means the block was assembled wrong.
    """
    A = as_square_matrix(A)
    n = A.shape[0]
    d = diag_entries(D, n)
    if np.any(d < 0.0):
        raise NotNonnegativeDiagonal("diffusion gains must be >= 0")
    Dm = np.diag(d)
    block = np.block([[A - Dm, Dm], [Dm, A - Dm]])

    eye = np.eye(n)
    T = np.block([[eye, eye], [-eye, eye]])
    Tinv = 0.5 * np.block([[eye, -eye], [eye, eye]])
    decoupled = T @ block @ Tinv
    target = np.block([[A, np.zeros((n, n))], [np.zeros((n, n)), A - 2.0 * Dm]])
    if np.max(np.abs(decoupled - target)) > 1e-10:
        raise InconsistentOracles("coupled block failed the decoupling similarity check")
    return CoupledSystem(A, Dm, block)


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

    The system is linear, so one RK4 step is exactly y <- P y: the
    propagator P = sum_{k<=4} (dt B)^k / k! is built once, in Horner form.

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
    # halved, as x0 - z0 itself may overflow
    gap = 2.0 * math.sqrt(n) * float(np.abs(0.5 * x0 - 0.5 * z0).max())
    if max(np.abs(x0).max(), np.abs(z0).max(), gap) > MAX_INITIAL_STATE:
        raise ValueError(
            f"initial states too large: their entries and sqrt(n) |x0 - z0|_inf "
            f"must not exceed {MAX_INITIAL_STATE:g}"
        )
    if dt > horizon:
        raise StepTooLarge("dt exceeds the horizon")
    B = system.block
    bnorm = float(np.abs(B).sum(axis=1).max())
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
    P = eye = np.eye(2 * n)
    for k in (4.0, 3.0, 2.0, 1.0):
        P = eye + (dt / k) * B @ P
    times = np.arange(steps + 1) * dt
    states = np.empty((steps + 1, 2 * n))
    y = states[0] = np.concatenate([x0, z0])
    diverged = False
    k = 0
    while k < steps:
        # dt ||B||_inf <= 0.1 gives ||P||_inf <= e^0.1, so _CHECK_EVERY
        # steps from |y|_inf <= DIVERGENCE_CUTOFF stay below 1e6 e^6.4 <
        # 6.1e8, far from overflow; a state already past the cutoff (a
        # huge y0) is checked after one step
        size = _CHECK_EVERY if np.abs(y).max() <= DIVERGENCE_CUTOFF else 1
        block = states[k + 1 : k + 1 + size]
        for row in block:
            y = row[:] = P @ y
        over = (np.abs(block) > DIVERGENCE_CUTOFF).any(axis=1)
        if over.any():
            # cut at the first state past the cutoff, as a per-step check would
            stop = k + 1 + int(np.argmax(over))
            times, states, diverged = times[: stop + 1].copy(), states[: stop + 1].copy(), True
            break
        k += block.shape[0]
    x, z = states[:, :n], states[:, n:]
    # a row past about 1e154 would overflow the squared norm, so it is
    # scaled by its largest entry first; every other row is divided by 1
    peak = np.maximum(np.abs(x).max(axis=1), np.abs(z).max(axis=1))
    scale = np.where(peak > _SYNC_SCALE_ABOVE, peak, 1.0)[:, None]
    sync = scale[:, 0] * np.linalg.norm(x / scale - z / scale, axis=1)
    return Trajectory(times, states, sync, diverged)
