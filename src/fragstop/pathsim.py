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
# Predicted jump draws past which a shared sample is refused before drawing
# (about 30 s of sampling on the uniform family, on 2 shared Xeon cores).
JUMP_BUDGET = 1e9


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

def _walk(model, rate, kappa, state, segment, retired, rng, fail, *, retire_before_jump=False):
    """Advance the paths whose states are the columns of `state` together until all retire.

    A step draws the m live paths' holding times w at `rate` (inf at rate 0)
    and their kappa-tilted jumps x; segment(live, state, w, x) advances each
    path over its segment, which x ends, and the paths that retired(state)
    marks leave once the step has yielded (live, state, their columns).  With
    `retire_before_jump` the test runs first, only the paths still live draw
    jumps, and x starts their next segment instead (0 at the first).  Raises
    AssumptionError(fail(m)) if m paths are still live after MAX_STEPS steps.
    """
    live, x = np.arange(state.shape[1]), np.zeros(state.shape[1])
    for _ in range(MAX_STEPS):
        w = rng.exponential(1.0 / rate, live.size) if rate > 0.0 else np.full(live.size, math.inf)
        if not retire_before_jump:
            x = levy.sample_jump(model, kappa, live.size, rng)
        segment(live, state, w, x)
        done = retired(state)
        keep = np.flatnonzero(~done)
        if keep.size < live.size:
            yield live, state, np.flatnonzero(done)
            live, state = live[keep], np.take(state, keep, axis=1)
        if live.size == 0:
            return
        if retire_before_jump:
            x = levy.sample_jump(model, kappa, live.size, rng)
    raise AssumptionError(fail(live.size))


# Z that overflows to inf is past every level, so the overflow is silent.
@np.errstate(over="ignore")
def _walk_Z(model, params, targets, n, rng, horizon, reached, value) -> np.ndarray:
    """Record value(t, z, target) from the segment's start as n physical Z paths reach each target.

    A segment reaches the sorted targets up to reached(t, w, z_end); reached
    targets form a prefix, so a path keeps only their count.  It retires at
    its last target or when its clock passes `horizon` at a jump.
    """
    targets = np.asarray(targets, dtype=float)
    out = np.full((n, targets.size), math.inf)

    def segment(live, state, w, x):
        t, z, count = state  # count: how many targets the path has reached
        z *= np.exp(-params.gamma * x)
        z_end = z_advance(z, w, params.gt)
        reach = reached(t, w, z_end)
        for j, target in enumerate(targets):
            rows = np.flatnonzero((count <= j) & (target <= reach))
            out[live[rows], j] = value(t[rows], z[rows], target)
            count[rows] = j + 1
        t += w
        z[:] = z_end

    state = np.array([np.zeros(n), np.full(n, params.c), np.zeros(n)])
    for _ in _walk(model, model.rate, 0.0, state, segment,  # the segments record every value
                   lambda s: (s[2] == targets.size) | (s[0] > horizon), rng,
                   fail=lambda m: f"{m} of {n} Z paths did not reach {targets[-1]} within "
                                  f"{MAX_STEPS} jumps", retire_before_jump=True):
        pass
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
    return _walk_Z(model, params, levels, n, rng, horizon, reached=lambda t, w, z_end: z_end,
                   value=lambda t, z, b: t + z_crossing_dt(z, b, params.gt))


def first_passage_payoff_sums(
    model: DislocationModel,
    params: ModelParams,
    thresholds,
    n: int,
    rng: np.random.Generator,
    horizon: float = 1e4,
) -> np.ndarray:
    """Discount factors exp(-params.lam * tau_b) of n paths for every sorted threshold.

    The discount view of `simulate_Z_first_passage`: a threshold missed
    before the horizon gets 0.
    """
    tau = simulate_Z_first_passage(model, params, thresholds, n, rng, horizon)
    return np.exp(-params.lam * tau)


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
    return _walk_Z(model, params, times, n, rng, math.inf, reached=lambda t, w, z_end: t + w,
                   value=lambda t, z, s: z_advance(z, s - t, params.gt))


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


def predicted_jumps_per_draw(model: DislocationModel, params: ModelParams,
                             rel_tol: float) -> float:
    """Jumps that a `simulate_I_infty` draw takes, predicted before drawing.

    A draw takes its first jump, then retires once exp(gamma*Y) falls below
    rel_tol times its integral, of mean M1 = moment_recursion(..., 1).  Under
    the tilt Y drifts down at psi'(kappa) between jumps at nu = rate -
    phi(kappa), so that takes about nu log(1/(rel_tol max(M1, 1))) /
    (gamma psi'(kappa)) more, with psi' a central difference of `levy.psi`.
    """
    kappa, h = params.kappa, 1e-5 * (1.0 + params.kappa)
    slope = (levy.psi(model, params.theta, kappa + h)
             - levy.psi(model, params.theta, kappa - h)) / (2.0 * h)
    m1 = moment_recursion(model, params, 1)
    log_ratio = max(-math.log(rel_tol * max(m1, 1.0)), 0.0)
    return 1.0 + _tilted_jump_rate(model, kappa) * log_ratio / (params.gamma * slope)


def _tilted_jump_rate(model: DislocationModel, kappa: float) -> float:
    """Jump rate of the lineage under the kappa tilt: rate - phi(kappa)."""
    return model.rate - (levy.phi(model, kappa) if kappa > 0.0 else 0.0)


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
    strong the tilt.  A draw retires at the jump that takes its integrand
    weight exp(gamma*Y) below rel_tol times its accrued integral, and gets
    the exact conditional mean of its tail, exp(gamma*Y_T) * M1, with M1 =
    moment_recursion(..., 1).  Draws are mean-exact; moments of order > 1
    carry a bias of order rel_tol times the tail variance.

    The output depends on n (it sets how many variates each step takes from
    rng), so callers that need prefix-stable samples must fix n.  Raises
    DomainError if M1 is infinite and AssumptionError if any draw is still
    unfinished after MAX_STEPS steps.
    """
    gamma, theta, gt, kappa = params.gamma, params.theta, params.gt, params.kappa
    jump_rate = _tilted_jump_rate(model, kappa)
    m1 = moment_recursion(model, params, 1)
    if jump_rate == 0.0:
        # Pure drift: the truncation time solves the stopping rule exactly and
        # the conditional tail mean restores 1/(gamma*theta) with no error.
        weight_at_stop = rel_tol / (gt + rel_tol)
        return np.full(n, 1.0 / (gt + rel_tol) + weight_at_stop * m1)

    def segment(live, state, w, x):
        y, acc, weight = state
        acc += weight * np.expm1(-gt * w) / -gt  # segment_exp_integral from the stored weight
        y += x - theta * w
        np.exp(gamma * y, out=weight)

    # One column per draw: Y, the accrued integral, and the integrand weight
    # exp(gamma*Y), which is also the next segment's starting weight.
    state = np.array([np.zeros(n), np.zeros(n), np.ones(n)])
    out = np.empty(n)
    for live, (_, acc, weight), gone in _walk(
            model, jump_rate, kappa, state, segment, lambda s: s[2] < rel_tol * s[1], rng,
            fail=lambda m: f"{m} of {n} integrals failed to converge within {MAX_STEPS} jumps; "
                           "the tilted process Y does not appear to drift downward"):
        out[live[gone]] = acc[gone] + weight[gone] * m1
    return out


def simulate_tagged_mass_passage(
    model: DislocationModel,
    params: ModelParams,
    a: float,
    n: int,
    rng: np.random.Generator,
    horizon: float = math.inf,
) -> tuple[np.ndarray, np.ndarray]:
    """First times the lineage masses exp(-xi) of n paths drop to <= a, with the accrued premium.

    Returns arrays (ell, accrued) where accrued = integral_0^ell exp(gamma*Y_s) ds.
    A path retires at the jump that takes its mass to <= a (mass is
    piecewise constant), so both values are exact, or at `horizon`, as the
    cascade freezes a block alive past it.  Raises AssumptionError if a path
    is still live after MAX_STEPS steps.
    """
    if a >= 1.0:
        return np.zeros(n), np.zeros(n)
    if levy.is_degenerate(model):
        raise AssumptionError("the degenerate model never reduces the lineage mass")
    log_a = -math.log(a)

    def segment(live, state, w, x):
        t, xi, acc = state
        w = np.minimum(w, horizon - t)
        acc += segment_exp_integral(xi - params.theta * t, w, params.gamma, params.theta)
        t += w
        xi += x

    ell, accrued = np.empty(n), np.empty(n)
    for live, (t, _, acc), gone in _walk(
            model, model.rate, 0.0, np.zeros((3, n)), segment,
            lambda s: (s[1] >= log_a) | (s[0] >= horizon), rng,
            fail=lambda m: f"{m} of {n} masses never reached {a} within {MAX_STEPS} jumps"):
        ell[live[gone]], accrued[live[gone]] = t[gone], acc[gone]
    return ell, accrued
