"""Tilted moments of the lifetime integral and the threshold criterion f(b).

Everything downstream of the solver consumes E^tilt[(a + I)^s], where I is
the lifetime integral of exp(gamma*Y) under the kappa-tilted dynamics.  A
single frozen SharedSample of I-draws underlies all evaluations in one
solve: with common draws the ratio estimator behind f(b) is deterministic
and strictly decreasing in b, so bisection on f is well-defined despite
Monte Carlo noise.

The integer-moment recursion, the independent oracle for the sampler and
the source of its tail mean, lives next to the sampler as
`pathsim.moment_recursion`; it is bound here under the same name.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace

import numpy as np

from . import levy, pathsim
from .levy import DislocationModel, DomainError, ModelParams
from .pathsim import moment_recursion  # noqa: F401  (re-exported)
from .streams import substream

# Draws per sampler batch.  It fixes how each substream is consumed, so
# changing it changes every shared sample drawn from a given seed.
SAMPLE_CHUNK = 4096

# x^s overflows once s * log(x) passes the log of the largest float.
LOG_FLOAT_MAX = math.log(sys.float_info.max)


@dataclass(frozen=True)
class MomentEstimate:
    """A Monte Carlo mean with its standard error.

    unstable_variance flags a standard error that moved by more than 25%
    between the half sample and the full sample.
    """

    value: float
    std_error: float
    n_samples: int
    unstable_variance: bool = False

    @classmethod
    def of(cls, values: np.ndarray) -> MomentEstimate:
        """Sample mean of `values` with its standard error (0 for one value).

        Finite values whose mean or squared deviations overflow are estimated
        divided by their largest magnitude, and both results scaled back.
        """
        n = values.size
        with np.errstate(over="ignore"):
            mean = float(values.mean())
            se = float(values.std(ddof=1) / math.sqrt(n)) if n > 1 else 0.0
        if not math.isfinite(mean + se) and n and np.isfinite(values).all():
            scale = float(np.abs(values).max())
            est = cls.of(values / scale)
            return cls(est.value * scale, est.std_error * scale, n)
        return cls(mean, se, n)


@dataclass(frozen=True)
class SharedSample:
    """Frozen draws of the lifetime integral under one exponential tilt.

    All f(b) evaluations within one solve must use the same instance
    (common random numbers).
    """

    draws: np.ndarray
    gamma: float
    kappa: float
    lam: float
    rel_tol: float
    seed: int

    @property
    def n(self) -> int:
        return self.draws.size

    @property
    def max_order(self) -> float:
        """The conservative moment-order guard that f(b) needs, kappa/gamma.

        Moments of I are finite up to the tail index s_max, which is larger.
        """
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
) -> SharedSample:
    """Draw n independent lifetime integrals under the params.kappa tilt.

    Chunk k of SAMPLE_CHUNK draws is simulated in one batch on the
    counter-derived substream ("shared-sample", k).  The last chunk is
    simulated in full and truncated, so a sample is the exact prefix of any
    larger sample with the same seed.  A sample whose chunks are predicted
    to take more than pathsim.JUMP_BUDGET jumps raises AssumptionError
    before drawing.
    """
    simulated = -(-n_draws // SAMPLE_CHUNK) * SAMPLE_CHUNK
    jumps = simulated * pathsim.predicted_jumps_per_draw(model, params, rel_tol)
    if jumps > pathsim.JUMP_BUDGET:
        raise levy.AssumptionError(
            f"the sample's {simulated} simulated draws are predicted to take {jumps:.3g} jumps, "
            f"past the budget of {pathsim.JUMP_BUDGET:.3g}: small gamma and q make each draw "
            "long; raise gamma, q or rel_tol, or lower samples")
    # psi at the bisected root, which may differ from params.lam in the last digits.
    lam_eff = levy.psi(model, params.theta, params.kappa)
    draws = np.empty(n_draws)
    for start in range(0, n_draws, SAMPLE_CHUNK):
        rng = substream(seed, "shared-sample", start // SAMPLE_CHUNK)
        batch = pathsim.simulate_I_infty(model, params, rng, SAMPLE_CHUNK, rel_tol=rel_tol)
        draws[start : start + SAMPLE_CHUNK] = batch[: n_draws - start]
    return SharedSample(draws=draws, gamma=params.gamma, kappa=params.kappa, lam=lam_eff,
                        rel_tol=rel_tol, seed=seed)


def _check_order(sample: SharedSample, s: float) -> None:
    if s > sample.max_order + 1e-9:
        raise DomainError(
            f"moment order s = {s} exceeds the order guard "
            f"kappa/gamma = {sample.max_order}"
        )


def estimate_moment(sample: SharedSample, a: float, s: float) -> MomentEstimate:
    """Sample mean and standard error of (a + I)^s over the shared draws."""
    if a < 0.0:
        raise DomainError(f"shift a must be >= 0, got {a}")
    _check_order(sample, s)
    vals = (a + sample.draws) ** s
    est = MomentEstimate.of(vals)
    n, se = est.n_samples, est.std_error
    half = vals[: n // 2]
    se_half = MomentEstimate.of(half).std_error if half.size > 1 else se
    # Scale the half-sample error to full size before comparing.
    se_half_scaled = se_half * math.sqrt(half.size / n)
    unstable = se > 0.0 and abs(se - se_half_scaled) > 0.25 * se
    return replace(est, unstable_variance=unstable)


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
    # Once (b + I)^(p-1) underflows on every draw, f is 0/0: nan, as an overflow gives.
    return top / (b * bot) if b * bot > 0.0 else math.nan


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
