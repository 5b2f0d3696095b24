"""Exact event-driven simulation of the tagged lineage and derived processes.

The lineage log-mass xi is a compound Poisson subordinator (rate = family
rate, jumps = -log of a size-biased fragment pick), the driver is
Y_t = xi_t - theta*t, and the premium process is

    Z_t = exp(-gamma*Y_t) * (integral_0^t exp(gamma*Y_s) ds + c).

Between jumps Z solves dZ/dt = 1 + gamma*theta*Z, so segment advances, the
accrued integral and upward level crossings all have closed forms; nothing
here is time-discretized.  Z is skip-free upwards: a first passage over b
happens exactly at level b.

All routines are pure given their generator argument.
"""

from __future__ import annotations

import math

import numpy as np

from . import levy
from .levy import AssumptionError, DislocationModel, ModelParams, TiltedDynamics


# --- closed-form segment arithmetic ------------------------------------------

def z_advance(z0: float, dt: float, gt: float) -> float:
    """Z after drifting dt with no jump: (z0 + 1/gt) e^{gt dt} - 1/gt."""
    m = 1.0 / gt
    return (z0 + m) * math.exp(gt * dt) - m


def z_crossing_dt(z0: float, b: float, gt: float) -> float:
    """Time for Z to drift from z0 up to b (0 if already at/above b)."""
    if z0 >= b:
        return 0.0
    m = 1.0 / gt
    return math.log((b + m) / (z0 + m)) / gt


def segment_exp_integral(y0: float, dt: float, gamma: float, theta: float) -> float:
    """integral of exp(gamma * (y0 - theta*s)) ds over s in [0, dt]."""
    gt = gamma * theta
    return math.exp(gamma * y0) * -math.expm1(-gt * dt) / gt


def simulate_Z_first_passage(
    model: DislocationModel,
    params: ModelParams,
    b: float,
    rng: np.random.Generator,
    horizon: float = 1e4,
) -> tuple[float, bool]:
    """Exact first-passage time of Z over level b under the physical dynamics.

    Returns (tau, hit).  hit is False only when the safety horizon was
    exceeded (reported distinctly from numeric failure, which raises).
    Since Z is skip-free upwards the crossing value is exactly b.
    """
    gt = params.gt
    if params.c >= b:
        return 0.0, True
    t, z = 0.0, params.c
    rate = model.rate
    while True:
        t_cross = z_crossing_dt(z, b, gt)
        if rate == 0.0:
            return t + t_cross, True
        w = rng.exponential(1.0 / rate)
        if t_cross <= w:
            return t + t_cross, True
        t += w
        if t > horizon:
            return t, False
        z = z_advance(z, w, gt)
        x = levy.sample_jump(model, 0.0, rng)
        z *= math.exp(-params.gamma * x)


def first_passage_payoff_sums(
    model: DislocationModel,
    params: ModelParams,
    thresholds: np.ndarray,
    lam: float,
    rng: np.random.Generator,
    horizon: float = 1e4,
) -> np.ndarray:
    """Discount factors exp(-lam * tau_b) for every threshold, on one path.

    thresholds must be sorted ascending.  A single path realization serves
    all thresholds (common random numbers); crossings are solved in closed
    form per segment, never by stepping.
    """
    gt = params.gt
    n = thresholds.size
    out = np.zeros(n)
    i = 0
    while i < n and thresholds[i] <= params.c:
        out[i] = 1.0
        i += 1
    t, z = 0.0, params.c
    rate = model.rate
    while i < n:
        if rate > 0.0:
            w = rng.exponential(1.0 / rate)
        else:
            w = math.inf
        z_end = z_advance(z, w, gt) if w < math.inf else math.inf
        while i < n and thresholds[i] < z_end:
            out[i] = math.exp(-lam * (t + z_crossing_dt(z, thresholds[i], gt)))
            i += 1
        if i >= n:
            break
        t += w
        if t > horizon:
            break  # remaining thresholds keep discount 0 (flagged by caller if needed)
        z = z_end
        x = levy.sample_jump(model, 0.0, rng)
        z *= math.exp(-params.gamma * x)
    return out


def simulate_Z_at_times(
    model: DislocationModel,
    params: ModelParams,
    times: np.ndarray,
    rng: np.random.Generator,
) -> np.ndarray:
    """Z values of one path at the given sorted times (exact within segments)."""
    gt = params.gt
    out = np.empty(len(times))
    t, z = 0.0, params.c
    i = 0
    rate = model.rate
    while i < len(times):
        w = rng.exponential(1.0 / rate) if rate > 0.0 else math.inf
        while i < len(times) and times[i] <= t + w:
            out[i] = z_advance(z, times[i] - t, gt)
            i += 1
        if i >= len(times):
            break
        z = z_advance(z, w, gt)
        t += w
        x = levy.sample_jump(model, 0.0, rng)
        z *= math.exp(-params.gamma * x)
    return out


def _tilted_first_moment(model: DislocationModel, params: ModelParams, kappa: float) -> float:
    """Mean of the residual integral under the kappa-tilted dynamics.

    Equals 1 / (psi(kappa) - psi(kappa - gamma)); for kappa = kappa(lam)
    this is the n = 1 case of the integer-moment recursion.
    """
    u = kappa - params.gamma
    if not u > params.p_lower:
        raise AssumptionError(
            f"tail mean undefined: kappa - gamma = {u} is outside the exponent domain"
        )
    denom = levy.psi(model, params.theta, kappa) - levy.psi(model, params.theta, u)
    if denom <= 0.0:
        raise AssumptionError(
            "tail mean is infinite under these dynamics (nonpositive moment denominator)"
        )
    return 1.0 / denom


def simulate_I_infty(
    tilted: TiltedDynamics,
    params: ModelParams,
    rng: np.random.Generator,
    n: int,
    *,
    rel_tol: float = 1e-6,
    max_steps: int = 1_000_000,
    tail_correction: bool = True,
) -> np.ndarray:
    """n independent draws of the lifetime integral of exp(gamma * Y) under `tilted`.

    All unfinished draws advance together, one jump per step: each step
    draws the holding times of the m live draws, then their m jumps, adds
    each segment integral in closed form, and retires the draws whose
    integrand weight exp(gamma*Y) has dropped below rel_tol times their
    accrued integral.  A retired draw gets the exact conditional mean of its
    tail, exp(gamma*Y_T) * M1.  Draws are mean-exact; moments of order > 1
    carry a bias of order rel_tol times the tail variance.

    The output depends on n (it sets how many variates each step takes from
    rng), so callers that need prefix-stable samples must fix n.  Raises
    AssumptionError if any draw is still unfinished after max_steps steps.
    """
    gamma, theta, gt = params.gamma, params.theta, params.gt
    m1 = _tilted_first_moment(tilted.model, params, tilted.kappa) if tail_correction else 0.0
    if tilted.jump_rate == 0.0:
        # Pure drift: the truncation time solves the stopping rule exactly and
        # the conditional tail mean restores 1/(gamma*theta) with no error.
        weight_at_stop = rel_tol / (gt + rel_tol)
        return np.full(n, 1.0 / (gt + rel_tol) + weight_at_stop * m1)
    out = np.empty(n)
    live = np.arange(n)
    y = np.zeros(n)
    acc = np.zeros(n)
    scale = 1.0 / tilted.jump_rate
    for _ in range(max_steps):
        w = rng.exponential(scale, live.size)
        acc -= np.exp(gamma * y) * np.expm1(-gt * w) / gt
        y += levy.sample_jumps(tilted.model, tilted.kappa, live.size, rng) - theta * w
        weight = np.exp(gamma * y)
        done = weight < rel_tol * acc
        if done.any():
            out[live[done]] = acc[done] + weight[done] * m1
            keep = ~done
            live, y, acc = live[keep], y[keep], acc[keep]
        if live.size == 0:
            return out
    raise AssumptionError(
        f"{live.size} of {n} integrals failed to converge within {max_steps} jumps; "
        "the tilted driver does not appear to drift downward"
    )


def simulate_tagged_mass_passage(
    model: DislocationModel,
    params: ModelParams,
    a: float,
    rng: np.random.Generator,
    max_steps: int = 1_000_000,
) -> tuple[float, float]:
    """First time the lineage mass exp(-xi) drops to <= a, with its accrued premium.

    Returns (ell, accrued) where accrued = integral_0^ell exp(gamma*Y_s) ds.
    The passage happens at a jump (mass is piecewise constant), so both
    values are exact.
    """
    if a >= 1.0:
        return 0.0, 0.0
    if levy.is_degenerate(model):
        raise AssumptionError("the degenerate model never reduces the lineage mass")
    gamma, theta = params.gamma, params.theta
    log_a = -math.log(a)
    t, xi, acc = 0.0, 0.0, 0.0
    scale = 1.0 / model.rate
    for _ in range(max_steps):
        w = rng.exponential(scale)
        acc += segment_exp_integral(xi - theta * t, w, gamma, theta)
        t += w
        xi += levy.sample_jump(model, 0.0, rng)
        if xi >= log_a:
            return t, acc
    raise AssumptionError(f"mass never reached {a} within {max_steps} jumps")
