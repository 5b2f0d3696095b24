"""Tilted moments of the lifetime integral and the threshold criterion f(b).

Everything downstream of the solver consumes E^tilt[(a + I)^s], where I is
the lifetime integral of exp(gamma*Y) under the kappa-tilted dynamics.  A
single frozen SharedSample of I-draws underlies all evaluations in one
solve: with common draws the ratio estimator behind f(b) is deterministic
and strictly decreasing in b, so bisection on f is well-defined despite
Monte Carlo noise.

The integer-moment recursion

    M_n = n * M_{n-1} / (psi(kappa) - psi(kappa - n*gamma)),   M_0 = 1,

is the independent oracle for the sampler; it follows from splitting the
integral at the first jump and is valid while kappa - n*gamma >= 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import levy, pathsim
from .levy import DislocationModel, DomainError, ModelParams
from .streams import substream

# Draws per sampler batch.  It fixes how each substream is consumed, so
# changing it changes every shared sample drawn from a given seed.
SAMPLE_CHUNK = 4096


@dataclass(frozen=True)
class MomentEstimate:
    """A Monte Carlo mean with its standard error.

    order_s/shift_a identify tilted-moment estimates; generic path averages
    leave them None.  unstable_variance flags a standard error that moved by
    more than 25% between the half sample and the full sample.
    """

    value: float
    std_error: float
    n_samples: int
    order_s: float | None = None
    shift_a: float | None = None
    unstable_variance: bool = False


@dataclass(frozen=True)
class SharedSample:
    """Frozen draws of the lifetime integral under one exponential tilt.

    Immutable after construction; safe to share across concurrent
    evaluations.  All f(b) evaluations within one solve must use the same
    instance (common random numbers).
    """

    draws: np.ndarray
    gamma: float
    theta: float
    kappa: float
    lam: float
    rel_tol: float
    seed: int

    @property
    def n(self) -> int:
        return self.draws.size

    @property
    def max_order(self) -> float:
        """Largest finite moment order, kappa/gamma."""
        return self.kappa / self.gamma

    def meta(self) -> dict:
        return {
            "seed": self.seed,
            "n_samples": int(self.n),
            "rel_tol": self.rel_tol,
            "kappa": self.kappa,
            "lam": self.lam,
        }


def draw_shared_sample(
    model: DislocationModel,
    params: ModelParams,
    n_draws: int,
    *,
    seed: int,
    rel_tol: float = 1e-6,
    kappa: float | None = None,
) -> SharedSample:
    """Draw n independent lifetime integrals under the kappa tilt.

    Chunk k of SAMPLE_CHUNK draws is simulated in one batch on the
    counter-derived substream ("shared-sample", k).  The last chunk is
    simulated in full and truncated, so a sample is the exact prefix of any
    larger sample with the same seed, and the result is independent of any
    worker scheduling.
    """
    kap = params.kappa if kappa is None else kappa
    dyn = levy.tilt(model, params, kappa=kap)
    lam_eff = levy.psi(model, params.theta, kap)
    draws = np.empty(n_draws)
    for start in range(0, n_draws, SAMPLE_CHUNK):
        rng = substream(seed, "shared-sample", start // SAMPLE_CHUNK)
        batch = pathsim.simulate_I_infty(dyn, params, rng, SAMPLE_CHUNK, rel_tol=rel_tol)
        draws[start : start + SAMPLE_CHUNK] = batch[: n_draws - start]
    return SharedSample(
        draws=draws, gamma=params.gamma, theta=params.theta,
        kappa=kap, lam=lam_eff, rel_tol=rel_tol, seed=seed,
    )


def degenerate_sample(params: ModelParams) -> SharedSample:
    """The no-splitting oracle sample: every draw equals 1/(gamma*theta)."""
    return SharedSample(
        draws=np.full(2, 1.0 / params.gt),
        gamma=params.gamma, theta=params.theta,
        kappa=params.kappa, lam=params.lam, rel_tol=0.0, seed=0,
    )


def _check_order(sample: SharedSample, s: float) -> None:
    if s > sample.max_order + 1e-9:
        raise DomainError(
            f"moment order s = {s} exceeds the finiteness boundary "
            f"kappa/gamma = {sample.max_order}"
        )


def estimate_moment(sample: SharedSample, a: float, s: float) -> MomentEstimate:
    """Sample mean and standard error of (a + I)^s over the shared draws."""
    if a < 0.0:
        raise DomainError(f"shift a must be >= 0, got {a}")
    _check_order(sample, s)
    vals = (a + sample.draws) ** s
    n = vals.size
    value = float(vals.mean())
    if n < 2:
        return MomentEstimate(value, 0.0, n, order_s=s, shift_a=a)
    se = float(vals.std(ddof=1) / math.sqrt(n))
    half = vals[: n // 2]
    se_half = float(half.std(ddof=1) / math.sqrt(half.size)) if half.size > 1 else se
    # Scale the half-sample error to full size before comparing.
    se_half_scaled = se_half * math.sqrt(half.size / n)
    unstable = se > 0.0 and abs(se - se_half_scaled) > 0.25 * se
    return MomentEstimate(value, se, n, order_s=s, shift_a=a, unstable_variance=unstable)


def moment_recursion(model: DislocationModel, params: ModelParams, n: int) -> float:
    """n-th integer moment of I under the kappa(lam) tilt, by recursion.

    Valid for 0 <= n <= floor(kappa/gamma); the denominator is positive
    there because psi is increasing and kappa - n*gamma < kappa.
    """
    if n < 0 or n != int(n):
        raise DomainError(f"moment order must be a nonnegative integer, got {n}")
    if n > math.floor(params.kappa / params.gamma + 1e-12):
        raise DomainError(
            f"n = {n} exceeds the finite integer-moment range "
            f"floor(kappa/gamma) = {math.floor(params.kappa / params.gamma)}"
        )
    m = 1.0
    lam = levy.psi(model, params.theta, params.kappa)
    for k in range(1, n + 1):
        denom = lam - levy.psi(model, params.theta, params.kappa - k * params.gamma)
        if denom <= 0.0:
            raise DomainError(f"nonpositive recursion denominator at order {k}")
        m = k * m / denom
    return m


def _power_pair_means(draws: np.ndarray, b: float, p: float) -> tuple[float, float]:
    """Means of (b + I)^p and (b + I)^(p-1) from one log/exp pass."""
    shifted = b + draws
    top = np.exp(p * np.log(shifted))
    return float(top.mean()), float((top / shifted).mean())


def f_of_b(sample: SharedSample, params: ModelParams, b: float) -> float:
    """Threshold criterion (1/b) * E[(b+I)^p] / E[(b+I)^(p-1)], p = kappa/gamma.

    Strictly decreasing in b for a fixed sample, with f(0+) = inf and
    f(inf) = 1; the optimal threshold solves f(b) = p.
    """
    if b <= 0.0:
        raise DomainError(f"b must be > 0, got {b}")
    p = params.kappa / params.gamma
    if not p > 1.0:
        raise levy.AssumptionError(f"f(b) requires kappa/gamma > 1, got {p}")
    _check_order(sample, p)
    top, bot = _power_pair_means(sample.draws, b, p)
    return top / (b * bot)


def ratio_of_power_means(
    sample: SharedSample, num_shift: float, den_shift: float, p: float
) -> tuple[float, float]:
    """(ratio, std_error) of mean((num+I)^p) / mean((den+I)^p), same draws.

    The delta-method error accounts for the correlation induced by the
    common draws.
    """
    _check_order(sample, p)
    a = (num_shift + sample.draws) ** p
    b = (den_shift + sample.draws) ** p
    n = a.size
    am, bm = float(a.mean()), float(b.mean())
    ratio = am / bm
    if n < 2:
        return ratio, 0.0
    cov = np.cov(a, b, ddof=1)
    var = (cov[0, 0] / bm**2 + am**2 * cov[1, 1] / bm**4 - 2.0 * am * cov[0, 1] / bm**3) / n
    return ratio, math.sqrt(max(var, 0.0))
