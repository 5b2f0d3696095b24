"""Exact event-driven simulation of the tagged lineage and derived processes.

The lineage log-mass xi is a compound Poisson subordinator (rate = family
rate, jumps = -log of a size-biased fragment pick), the driver is
Y_t = xi_t - theta*t, and the premium process is

    Z_t = exp(-gamma*Y_t) * (integral_0^t exp(gamma*Y_s) ds + c).

Between jumps Z solves dZ/dt = 1 + gamma*theta*Z, so segment advances, the
accrued integral and upward level crossings all have closed forms; nothing
here is time-discretized.  Z is skip-free upwards: a first passage over b
happens exactly at level b.

Every simulator is batched over paths: it advances all unfinished paths
together, one jump per step, and draws from the one generator it is
given, so it is pure given that generator and the number of paths.
"""

from __future__ import annotations

import math

import numpy as np

from . import levy
from .levy import AssumptionError, DislocationModel, DomainError, ModelParams

# Steps after which a batched walk that still has unfinished paths gives up.
MAX_STEPS = 1_000_000


# --- closed-form segment arithmetic (elementwise over arrays) ------------------

def z_advance(z0, dt, gt: float):
    """Z after drifting dt with no jump: (z0 + 1/gt) e^{gt dt} - 1/gt."""
    m = 1.0 / gt
    return (z0 + m) * np.exp(gt * dt) - m


def z_crossing_dt(z0, b, gt: float):
    """Time for Z to drift from z0 up to b (0 if already at/above b).

    Z never drifts below -1/gt (z0 + 1/gt grows like e^{gt t}), so a level
    b below -1/gt is passed at once: its ratio is negative, and `fmax`
    takes its nan log to 0.
    """
    m = 1.0 / gt
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.fmax(np.log((b + m) / (z0 + m)) / gt, 0.0)


def segment_exp_integral(y0, dt, gamma: float, theta: float):
    """integral of exp(gamma * (y0 - theta*s)) ds over s in [0, dt]."""
    gt = gamma * theta
    return np.exp(gamma * y0) * -np.expm1(-gt * dt) / gt


# --- batched lineage walks -------------------------------------------------------

def _holding_times(model: DislocationModel, m: int, rng: np.random.Generator) -> np.ndarray:
    """Holding times of m live paths; inf for the degenerate model, which never jumps."""
    if model.rate == 0.0:
        return np.full(m, math.inf)
    return rng.exponential(1.0 / model.rate, m)


# Z that overflows to inf is past every level, so the overflow is silent.
@np.errstate(over="ignore")
def _walk_Z(model, params, targets, n, rng, horizon, reached, value) -> np.ndarray:
    """Record one value per path and sorted target as n physical Z paths first reach it.

    All unfinished paths advance together, one jump per step: holding times
    for the m live paths, then for every target the path reached within its
    segment (reached(t, w, z_end) >= target) the closed-form value(t, z,
    target), then the jumps of the paths still live.  A path retires once it
    has reached its last target, or when its clock passes `horizon` at a
    jump; targets it never reached keep inf.  The targets a path has reached
    form a prefix of the sorted targets, so each live path keeps only the
    index of its next one.
    """
    targets = np.asarray(targets, dtype=float)
    out = np.full((n, targets.size), math.inf)
    live = np.arange(n)
    nxt = np.zeros(n, dtype=np.intp)
    t = np.zeros(n)
    z = np.full(n, params.c)
    while live.size:
        w = _holding_times(model, live.size, rng)
        z_end = z_advance(z, w, params.gt)
        reach = reached(t, w, z_end)
        hit = np.flatnonzero(targets[nxt] <= reach)
        if hit.size:
            lo = nxt[hit]
            count = targets.searchsorted(reach[hit], "right") - lo
            rows, cols = hit.repeat(count), lo
            if rows.size > hit.size:
                # A path's new columns run lo, lo + 1, ..., lo + count - 1.
                cols = np.arange(rows.size) + (lo - (count.cumsum() - count)).repeat(count)
            out[live[rows], cols] = value(t[rows], z[rows], targets[cols])
            nxt[hit] = lo + count
        t = t + w
        keep = (reach < targets[-1]) & (t <= horizon)
        live, nxt, t, z_end = live[keep], nxt[keep], t[keep], z_end[keep]
        if live.size:
            z = z_end * np.exp(-params.gamma * levy.sample_jump(model, 0.0, live.size, rng))
    return out


def simulate_Z_first_passage(
    model: DislocationModel,
    params: ModelParams,
    levels,
    n: int,
    rng: np.random.Generator,
    horizon: float = 1e4,
) -> np.ndarray:
    """Exact first-passage times of n physical Z paths over each of the sorted levels.

    Returns an (n, len(levels)) array; a level the path had not reached
    when its clock passed `horizon` at a jump gets inf.  One path serves
    every level (common random numbers).  Since Z is skip-free upwards, the
    crossing value is exactly the level, and a level <= c is passed at 0.
    """
    gt = params.gt
    return _walk_Z(model, params, levels, n, rng, horizon,
                   reached=lambda t, w, z_end: z_end,
                   value=lambda t, z, b: t + z_crossing_dt(z, b, gt))


def first_passage_payoff_sums(
    model: DislocationModel,
    params: ModelParams,
    thresholds,
    lam: float,
    n: int,
    rng: np.random.Generator,
    horizon: float = 1e4,
) -> np.ndarray:
    """Discount factors exp(-lam * tau_b) of n paths for every sorted threshold.

    The discount view of `simulate_Z_first_passage`: a threshold missed
    before the horizon gets 0.
    """
    return np.exp(-lam * simulate_Z_first_passage(model, params, thresholds, n, rng, horizon))


def simulate_Z_at_times(
    model: DislocationModel,
    params: ModelParams,
    times,
    n: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Z values of n physical paths at the given sorted times, an (n, len(times)) array.

    Exact within segments; a time that falls on a jump gets the pre-jump value.
    """
    gt = params.gt
    return _walk_Z(model, params, times, n, rng, math.inf,
                   reached=lambda t, w, z_end: t + w,
                   value=lambda t, z, s: z_advance(z, s - t, gt))


def moment_recursion(model: DislocationModel, params: ModelParams, n: int) -> float:
    """n-th integer moment of I under the kappa(lam) tilt, by the recursion
    M_k = k M_{k-1} / (psi(kappa) - psi(kappa - k*gamma)) from the first jump.

    The oracle for `simulate_I_infty`, and its tail mean at n = 1.  psi is
    convex with psi(kappa) = lam, so the denominators stay positive exactly
    for n below the tail index of I; past it, or past psi's domain, DomainError.
    """
    if n < 0 or n != int(n):
        raise DomainError(f"moment order must be a nonnegative integer, got {n}")
    m = 1.0
    lam = levy.psi(model, params.theta, params.kappa)
    for k in range(1, n + 1):
        denom = lam - levy.psi(model, params.theta, params.kappa - k * params.gamma)
        if denom <= 0.0:
            raise DomainError(f"E[I^{k}] is infinite: nonpositive recursion denominator")
        m = k * m / denom
    return m


def simulate_I_infty(
    model: DislocationModel,
    params: ModelParams,
    rng: np.random.Generator,
    n: int,
    *,
    rel_tol: float = 1e-6,
) -> np.ndarray:
    """n independent draws of the lifetime integral of exp(gamma * Y) under the kappa tilt.

    Tilted jumps arrive at rate - phi(kappa), and `levy.sample_jump` draws
    them from their exact tilted law, so a step costs the same however
    strong the tilt.  All unfinished draws advance together, one jump per
    step: each step draws the holding times of the m live draws, then their
    m jumps, adds each segment integral in closed form, and retires the
    draws whose integrand weight exp(gamma*Y) has dropped below rel_tol
    times their accrued integral.  A retired draw gets
    the exact conditional mean of its tail, exp(gamma*Y_T) * M1, with M1 =
    moment_recursion(..., 1).  Draws are mean-exact; moments of order > 1
    carry a bias of order rel_tol times the tail variance.

    The output depends on n (it sets how many variates each step takes from
    rng), so callers that need prefix-stable samples must fix n.  Raises
    DomainError if M1 is infinite and AssumptionError if any draw is still
    unfinished after MAX_STEPS steps.
    """
    gamma, theta, gt, kappa = params.gamma, params.theta, params.gt, params.kappa
    jump_rate = model.rate - (levy.phi(model, kappa) if kappa > 0.0 else 0.0)
    m1 = moment_recursion(model, params, 1)
    if jump_rate == 0.0:
        # Pure drift: the truncation time solves the stopping rule exactly and
        # the conditional tail mean restores 1/(gamma*theta) with no error.
        weight_at_stop = rel_tol / (gt + rel_tol)
        return np.full(n, 1.0 / (gt + rel_tol) + weight_at_stop * m1)
    out = np.empty(n)
    live = np.arange(n)
    # One column per live draw: Y, the accrued integral, and the integrand
    # weight exp(gamma*Y), which is also the next segment's starting weight.
    state = np.zeros((3, n))
    state[2] = 1.0
    scale = 1.0 / jump_rate
    for _ in range(MAX_STEPS):
        y, acc, weight = state
        w = rng.exponential(scale, live.size)
        acc += weight * -np.expm1(-gt * w) / gt  # segment_exp_integral from the stored weight
        y += levy.sample_jump(model, kappa, live.size, rng) - theta * w
        np.exp(gamma * y, out=weight)
        done = weight < rel_tol * acc
        retired = np.flatnonzero(done)
        if retired.size:
            out[live[retired]] = acc[retired] + weight[retired] * m1
            keep = np.flatnonzero(~done)
            live, state = live[keep], np.take(state, keep, axis=1)
        if live.size == 0:
            return out
    raise AssumptionError(
        f"{live.size} of {n} integrals failed to converge within {MAX_STEPS} jumps; "
        "the tilted driver does not appear to drift downward"
    )


def simulate_tagged_mass_passage(
    model: DislocationModel,
    params: ModelParams,
    a: float,
    n: int,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """First times the lineage masses exp(-xi) of n paths drop to <= a, with the accrued premium.

    Returns arrays (ell, accrued) where accrued = integral_0^ell exp(gamma*Y_s) ds.
    The paths advance together, one jump per step, and a path retires at
    the jump that takes its mass to <= a (mass is piecewise constant), so
    both values are exact.  Raises AssumptionError if a path is still above
    a after MAX_STEPS steps.
    """
    ell, acc = np.zeros(n), np.zeros(n)
    if a >= 1.0:
        return ell, acc
    if levy.is_degenerate(model):
        raise AssumptionError("the degenerate model never reduces the lineage mass")
    gamma, theta = params.gamma, params.theta
    log_a = -math.log(a)
    live = np.arange(n)
    t, xi, acc_live = np.zeros(n), np.zeros(n), np.zeros(n)
    for _ in range(MAX_STEPS):
        w = _holding_times(model, live.size, rng)
        acc_live += segment_exp_integral(xi - theta * t, w, gamma, theta)
        t += w
        xi += levy.sample_jump(model, 0.0, live.size, rng)
        done = xi >= log_a
        ell[live[done]], acc[live[done]] = t[done], acc_live[done]
        keep = ~done
        live, t, xi, acc_live = live[keep], t[keep], xi[keep], acc_live[keep]
        if live.size == 0:
            return ell, acc
    raise AssumptionError(f"{live.size} of {n} masses never reached {a} within {MAX_STEPS} jumps")
