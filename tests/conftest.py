import hashlib
import math
from dataclasses import dataclass, replace

import numpy as np
import pytest

from fragstop import expfun, fragsim, harness, levy, pathsim, stopsolve


# Reference code that several test modules share; import it from `conftest`.
def degenerate_sample(params: levy.ModelParams) -> expfun.SharedSample:
    """The no-splitting oracle sample: every draw equals 1/(gamma*theta)."""
    return expfun.SharedSample(
        draws=np.full(2, 1.0 / params.gt), gamma=params.gamma,
        kappa=params.kappa, lam=params.lam, rel_tol=0.0, seed=0,
    )


def reference_run_key(master_seed: int, label: str, index: int) -> int:
    """Run key of run `index` as blake2b hashed it before run keys came from a substream.

    The seed is hashed as at least 16 little-endian bytes, more for seeds of
    2**128 and above; one hash per run.
    """
    h = hashlib.blake2b(digest_size=8)
    n_bytes = max(16, (master_seed.bit_length() + 7) // 8)
    h.update(master_seed.to_bytes(n_bytes, "little", signed=False))
    h.update(label.encode())
    h.update(index.to_bytes(8, "little", signed=False))
    return int.from_bytes(h.digest(), "little")


def reference_c_sweep(cfg, grid) -> tuple[list[float], list[float]]:
    """(b*, value_at_c) along a c grid, with a bisection at every grid point.

    This is how `sweep --axis c` worked before it solved b* once: one shared
    sample, drawn at the first grid point, and a fresh solve at each c.
    """
    first = harness.with_overrides(cfg, c=grid[0])
    model = first.model()
    sample = harness._shared_sample(first, model, first.params())
    solved = [stopsolve.solve_b_star(model, harness.with_overrides(cfg, c=c).params(), sample,
                                     rel_tol_b=cfg.bisect_rel_tol, diagnostics=False)
              for c in grid]
    return [res.b_star for res in solved], [res.value_at_c for res in solved]


def materialised_run_sums(engine, keys, weights) -> np.ndarray:
    """Per-run sums of weights(blocks) over one table of every run's frozen blocks.

    This is how the many-to-one checks summed before they reduced each chunk
    as it came: each chunk of runs (halved as the package halves it over the
    block budget) sorted by run, the chunks concatenated, then one bincount.
    """
    parts, start, size = [], 0, fragsim.CHUNK_RUNS
    while start < len(keys):
        chunk = keys[start:start + size]
        try:
            blocks = engine(chunk)
        except fragsim._OverBudget:
            size = len(chunk) // 2
            continue
        order = np.argsort(blocks.run, kind="stable")
        parts.append((blocks.run[order] + start, blocks.mass[order], blocks.accrued[order],
                      blocks.frozen_at[order]))
        start += len(chunk)
    table = fragsim.FrozenBlocks(*(np.concatenate(x) for x in zip(*parts)), 0, 0)
    return np.bincount(table.run, weights=weights(table), minlength=len(keys))


# --- the batched samplers as they were ------------------------------------------------
# The jump sampler drew tilted jumps by rejection from the physical law, with
# one rng call per uniform row, and the lifetime integrals kept one array per
# field.  Physical draws and the walk's state must match the package bit for
# bit, generator state included; tilted draws must match it in law.

def rowwise_sample_jump(model, kappa: float, n: int, rng) -> np.ndarray:
    """Jumps by rejection rounds, one rng.random(m) call per uniform of a round.

    Each round draws at least 1024 candidates: a split, a pick, and for
    kappa > 0 an acceptance uniform against pick^kappa.  At kappa = 0, and
    for the point family, the draws are `levy.sample_jump`'s bit for bit.
    """
    if isinstance(model, levy.BinaryPoint):
        return levy.sample_jump(model, kappa, n, rng)
    out = np.empty(n)
    filled = 0
    while filled < n:
        m = max(n - filled, 1024)
        if isinstance(model, levy.BinaryBeta):
            v = rng.beta(model.shape, model.shape, size=m)
            s = np.maximum(v, 1.0 - v)
        else:
            s = levy.split_quantile(model, rng.random(m))
        picks = np.where(rng.random(m) < s, s, 1.0 - s)
        if kappa > 0.0:
            picks = picks[rng.random(m) < picks**kappa]
        take = min(picks.size, n - filled)
        out[filled : filled + take] = picks[:take]
        filled += take
    return -np.log(out)


def fieldwise_I_infty(model, params, rng, n: int, rel_tol: float = 1e-6,
                      sample_jump=levy.sample_jump) -> np.ndarray:
    """`pathsim.simulate_I_infty` with one array per field, recomputing each segment's weight.

    Its jumps come from `sample_jump`, which takes `levy.sample_jump`'s arguments.
    """
    gamma, theta, kappa = params.gamma, params.theta, params.kappa
    m1 = pathsim.moment_recursion(model, params, 1)
    out = np.empty(n)
    live, y, acc = np.arange(n), np.zeros(n), np.zeros(n)
    scale = 1.0 / (model.rate - (levy.phi(model, kappa) if kappa > 0.0 else 0.0))
    while live.size:
        w = rng.exponential(scale, live.size)
        acc += pathsim.segment_exp_integral(y, w, gamma, theta)
        y += sample_jump(model, kappa, live.size, rng) - theta * w
        weight = np.exp(gamma * y)
        done = weight < rel_tol * acc
        if done.any():
            out[live[done]] = acc[done] + weight[done] * m1
            keep = ~done
            live, y, acc = live[keep], y[keep], acc[keep]
    return out


# --- the lineage walks as they were ----------------------------------------------------
# Each walk had its own loop before one kernel, `pathsim._walk`, served them
# all.  The package must match these bit for bit, generator state included.

def holding_times(model, m: int, rng) -> np.ndarray:
    """Holding times of m live paths; inf for the degenerate model, which never jumps."""
    if model.rate == 0.0:
        return np.full(m, math.inf)
    return rng.exponential(1.0 / model.rate, m)


@np.errstate(over="ignore")
def indexed_walk_Z(model, params, targets, n, rng, horizon, reached, value) -> np.ndarray:
    """The Z walk's own loop: a next-target index per path, boolean compaction, no step budget.

    reached(t, w, z_end) is how far a segment got; value(t, z, target) is
    computed from the segment's start.
    """
    targets = np.asarray(targets, dtype=float)
    out = np.full((n, targets.size), math.inf)
    live = np.arange(n)
    nxt = np.zeros(n, dtype=np.intp)
    t = np.zeros(n)
    z = np.full(n, params.c)
    while live.size:
        w = holding_times(model, live.size, rng)
        z_end = pathsim.z_advance(z, w, params.gt)
        reach = reached(t, w, z_end)
        hit = np.flatnonzero(targets[nxt] <= reach)
        if hit.size:
            lo = nxt[hit]
            count = targets.searchsorted(reach[hit], "right") - lo
            rows, cols = hit.repeat(count), lo
            if rows.size > hit.size:
                cols = np.arange(rows.size) + (lo - (count.cumsum() - count)).repeat(count)
            out[live[rows], cols] = value(t[rows], z[rows], targets[cols])
            nxt[hit] = lo + count
        t = t + w
        keep = (reach < targets[-1]) & (t <= horizon)
        live, nxt, t, z_end = live[keep], nxt[keep], t[keep], z_end[keep]
        if live.size:
            z = z_end * np.exp(-params.gamma * levy.sample_jump(model, 0.0, live.size, rng))
    return out


@np.errstate(over="ignore")
def gathered_walk_Z(model, params, targets, n, rng, horizon, reached, value) -> np.ndarray:
    """`indexed_walk_Z` as it found each step's new targets: a live x targets gather of `out`."""
    targets = np.asarray(targets, dtype=float)
    out = np.full((n, targets.size), math.inf)
    live = np.arange(n)
    t = np.zeros(n)
    z = np.full(n, params.c)
    while live.size:
        w = holding_times(model, live.size, rng)
        z_end = pathsim.z_advance(z, w, params.gt)
        reach = reached(t, w, z_end)
        rows, cols = np.nonzero(np.isinf(out[live]) & (targets <= reach[:, None]))
        out[live[rows], cols] = value(t[rows], z[rows], targets[cols])
        t = t + w
        keep = (reach < targets[-1]) & (t <= horizon)
        live, t, z_end = live[keep], t[keep], z_end[keep]
        if live.size:
            z = z_end * np.exp(-params.gamma * levy.sample_jump(model, 0.0, live.size, rng))
    return out


def walk_Z_first_passage(walk, model, params, levels, n, rng, horizon=1e4) -> np.ndarray:
    """`pathsim.simulate_Z_first_passage` on `walk`, one of the Z walks above."""
    return walk(model, params, levels, n, rng, horizon, reached=lambda t, w, z_end: z_end,
                value=lambda t, z, b: t + pathsim.z_crossing_dt(z, b, params.gt))


def walk_Z_at_times(walk, model, params, times, n, rng) -> np.ndarray:
    """`pathsim.simulate_Z_at_times` on `walk`, one of the Z walks above."""
    return walk(model, params, times, n, rng, math.inf, reached=lambda t, w, z_end: t + w,
                value=lambda t, z, s: pathsim.z_advance(z, s - t, params.gt))


def columnwise_I_infty(model, params, rng, n: int, rel_tol: float = 1e-6) -> np.ndarray:
    """The lifetime-integral sampler's own loop: state columns compacted by index."""
    gamma, theta, gt, kappa = params.gamma, params.theta, params.gt, params.kappa
    jump_rate = model.rate - (levy.phi(model, kappa) if kappa > 0.0 else 0.0)
    m1 = pathsim.moment_recursion(model, params, 1)
    out = np.empty(n)
    live = np.arange(n)
    state = np.zeros((3, n))
    state[2] = 1.0
    scale = 1.0 / jump_rate
    while True:
        y, acc, weight = state
        w = rng.exponential(scale, live.size)
        acc += weight * -np.expm1(-gt * w) / gt
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


def masked_tagged_mass_passage(model, params, a: float, n: int, rng):
    """The tagged-mass walk's own loop: one array per field, boolean compaction."""
    ell, acc = np.zeros(n), np.zeros(n)
    if a >= 1.0:
        return ell, acc
    gamma, theta = params.gamma, params.theta
    log_a = -math.log(a)
    live = np.arange(n)
    t, xi, acc_live = np.zeros(n), np.zeros(n), np.zeros(n)
    while True:
        w = holding_times(model, live.size, rng)
        acc_live += pathsim.segment_exp_integral(xi - theta * t, w, gamma, theta)
        t += w
        xi += levy.sample_jump(model, 0.0, live.size, rng)
        done = xi >= log_a
        ell[live[done]], acc[live[done]] = t[done], acc_live[done]
        keep = ~done
        live, t, xi, acc_live = live[keep], t[keep], xi[keep], acc_live[keep]
        if live.size == 0:
            return ell, acc


# --- the generator residual as it was ------------------------------------------------
# Before `stopsolve.generator_rule` wrote the generator as one set of nodes and
# weights, the jump term called the value function on its own nodes, the
# derivative was a finite difference of its own, and each batch of the
# residual's error rebuilt a ValueFunction on a strided copy of the sample.
# The package must match these to rounding.

def difference_jump_term(model, params, value_fn, x: float, fx: float, kink=None) -> float:
    """The jump term of (L - lam) f(x) on the package's Gauss-Legendre nodes, f(x) = fx given."""
    if isinstance(model, levy.BinaryPoint):
        s, t, weights = np.array([model.s0]), np.array([1.0 - model.s0]), model.rate
    else:
        edges = [0.0, 1.0]
        if kink is not None:
            r = (kink / x) ** (1.0 / params.gamma)
            edges[1:1] = [(2.0 * tk) ** 0.25 for tk in (r, 1.0 - r) if 0.0 < tk < 0.5]
        lo, hi = np.array(edges[:-1])[:, None], np.array(edges[1:])[:, None]
        v = (0.5 * (hi - lo) * stopsolve._GL_NODES + 0.5 * (hi + lo)).ravel()
        t = 0.5 * v**4
        s = 1.0 - t
        a = model.shape if isinstance(model, levy.BinaryBeta) else 1.0
        weights = (model.rate * (0.5 * (hi - lo) * stopsolve._GL_WEIGHTS).ravel() * 4.0 * v**3
                   * np.exp((a - 1.0) * np.log(s * t) + math.lgamma(2.0 * a)
                            - 2.0 * math.lgamma(a)))
    vals = value_fn(np.concatenate([s**params.gamma * x, t**params.gamma * x])) - fx
    return float(np.sum(weights * (s * vals[: s.size] + t * vals[s.size :])))


def difference_generator_residual(model, params, value_fn, x: float, *, kink=None) -> float:
    """(L - lam) value_fn at x: a central difference plus `difference_jump_term` minus lam f(x)."""
    h = stopsolve.FD_STEP_REL * x
    fm, fx, fp = map(float, value_fn(np.array([x - h, x, x + h])))
    jump = difference_jump_term(model, params, value_fn, x, fx, kink)
    return (1.0 + params.gt * x) * ((fp - fm) / (2.0 * h)) + jump - params.lam * fx


def rebuilt_residual_estimate(model, params, sample, b_star: float, x: float, *,
                              star: bool = False) -> expfun.MomentEstimate:
    """Batch means of `difference_generator_residual`, one ValueFunction per interleaved batch."""
    vals = []
    for k in range(stopsolve.RESIDUAL_BATCHES):
        sub = replace(sample, draws=sample.draws[k::stopsolve.RESIDUAL_BATCHES])
        value = stopsolve.ValueFunction(params, sub, b_star)
        fn = value.star if star else value.tilde
        vals.append(difference_generator_residual(model, params, fn, x,
                                                  kink=b_star if star else None))
    return expfun.MomentEstimate.of(np.asarray(vals))


# --- scalar reference walks: one path, one scalar jump at a time -------------------
# The package's walks are batched over paths; these per-path loops are the
# statistical reference they are checked against.

def scalar_split(model, rng) -> float:
    """One larger-fragment mass s from the family's split law."""
    if isinstance(model, levy.BinaryUniform):
        return 0.5 * (1.0 + rng.random())
    if isinstance(model, levy.BinaryPoint):
        return model.s0
    v = rng.beta(model.shape, model.shape)
    return max(v, 1.0 - v)


def scalar_jump(model, kappa: float, rng) -> float:
    """One jump of the kappa-tilted lineage subordinator, x = -log(size-biased pick).

    Point families reweight their two atoms exactly; continuous families
    draw the split, then the pick, then accept with probability pick^kappa.
    """
    if isinstance(model, levy.BinaryPoint):
        s, t = model.s0, 1.0 - model.s0
        if kappa == 0.0:
            w = s
        else:
            ws = s ** (1.0 + kappa)
            w = ws / (ws + t ** (1.0 + kappa))
        return -math.log(s if rng.random() < w else t)
    while True:
        s = scalar_split(model, rng)
        pick = s if rng.random() < s else 1.0 - s
        if kappa == 0.0 or rng.random() < pick ** kappa:
            return -math.log(pick)


def scalar_first_passage(model, params, b: float, rng, horizon=1e4) -> tuple[float, bool]:
    """First passage of one physical Z path over b: (tau, hit); hit is False past the horizon."""
    gt = params.gt
    if params.c >= b:
        return 0.0, True
    t, z = 0.0, params.c
    while True:
        t_cross = float(pathsim.z_crossing_dt(z, b, gt))
        if model.rate == 0.0:
            return t + t_cross, True
        w = rng.exponential(1.0 / model.rate)
        if t_cross <= w:
            return t + t_cross, True
        t += w
        if t > horizon:
            return t, False
        z = float(pathsim.z_advance(z, w, gt))
        z *= math.exp(-params.gamma * scalar_jump(model, 0.0, rng))


def scalar_Z_at_times(model, params, times, rng) -> np.ndarray:
    """Z of one physical path at the given sorted times."""
    gt = params.gt
    out = np.empty(len(times))
    t, z, i = 0.0, params.c, 0
    while i < len(times):
        w = rng.exponential(1.0 / model.rate) if model.rate > 0.0 else math.inf
        while i < len(times) and times[i] <= t + w:
            out[i] = pathsim.z_advance(z, times[i] - t, gt)
            i += 1
        if i == len(times):
            return out
        z = float(pathsim.z_advance(z, w, gt))
        z *= math.exp(-params.gamma * scalar_jump(model, 0.0, rng))
        t += w
    return out


def scalar_tagged_mass_passage(model, params, a: float, rng) -> tuple[float, float]:
    """(ell, accrued) of one lineage: the first time its mass drops to <= a."""
    if a >= 1.0:
        return 0.0, 0.0
    log_a = -math.log(a)
    t, xi, acc = 0.0, 0.0, 0.0
    while xi < log_a:
        w = rng.exponential(1.0 / model.rate)
        acc += float(pathsim.segment_exp_integral(xi - params.theta * t, w, params.gamma,
                                                  params.theta))
        t += w
        xi += scalar_jump(model, 0.0, rng)
    return t, acc


@dataclass(frozen=True)
class ZState:
    """State at an event boundary; z == exp(-gamma*y) * (accrued + c) exactly."""

    t: float
    y: float
    z: float
    accrued: float


def simulate_Z_path(model, params, horizon, rng) -> list[ZState]:
    """States of (Y, Z, accrued) at t = 0, every jump time, and the horizon.

    Reference path of the premium process, one scalar jump at a time: each
    step draws the holding time, then the jump.  Jump entries carry
    post-jump values; the accrued integral is continuous across jumps.
    """
    gamma, theta, gt = params.gamma, params.theta, params.gt
    states = [ZState(0.0, 0.0, params.c, 0.0)]
    t, y, z, acc = 0.0, 0.0, params.c, 0.0
    while model.rate > 0.0:
        w = rng.exponential(1.0 / model.rate)
        if t + w >= horizon:
            break
        acc += float(pathsim.segment_exp_integral(y, w, gamma, theta))
        z = float(pathsim.z_advance(z, w, gt))
        t += w
        y -= theta * w
        x = scalar_jump(model, 0.0, rng)
        y += x
        z *= math.exp(-gamma * x)
        states.append(ZState(t, y, z, acc))
    if horizon > t:
        dt = horizon - t
        acc += float(pathsim.segment_exp_integral(y, dt, gamma, theta))
        z = float(pathsim.z_advance(z, dt, gt))
        y -= theta * dt
        states.append(ZState(horizon, y, z, acc))
    return states


def path_average_check(check, model, params, sample, b_star, times, n_paths, rng,
                       curve_type=stopsolve.TildeCurve):
    """Run a path-average check on n_paths Z paths, with a value curve spanning them.

    `check` is `stopsolve.martingale_check` or `stopsolve.supermartingale_check`;
    `curve_type` builds the curve from (stopsolve.ValueFunction, z_min, z_max).
    """
    z = pathsim.simulate_Z_at_times(model, params, times, n_paths, rng)
    curve = curve_type(stopsolve.ValueFunction(params, sample, b_star),
                       float(z.min()), float(z.max()))
    return check(curve, times, z)


def sweep_payoffs(sweep: stopsolve.ThresholdSweep) -> tuple[np.ndarray, np.ndarray]:
    """Mean payoff b * E[e^{-lam tau_b}] of each swept threshold b, and its standard error."""
    n = sweep.discounts.shape[0]
    return (sweep.thresholds * sweep.discounts.mean(axis=0),
            sweep.thresholds * sweep.discounts.std(axis=0, ddof=1) / math.sqrt(n))


def sweep_argmax(sweep: stopsolve.ThresholdSweep) -> float:
    """The swept threshold with the largest mean payoff."""
    return float(sweep.thresholds[int(np.argmax(sweep_payoffs(sweep)[0]))])


# Reference configuration: uniform binary splits at unit rate, all problem
# constants 1 except the start c, which sits inside the continuation region
# (the solved threshold is ~0.78).
REF_SEED = 42


@pytest.fixture(scope="session")
def ref_model():
    return levy.BinaryUniform(1.0)


@pytest.fixture(scope="session")
def ref_params(ref_model):
    return levy.make_params(ref_model, gamma=1.0, theta=1.0, q=1.0, c=0.25)


@pytest.fixture(scope="session")
def ref_sample(ref_model, ref_params):
    return expfun.draw_shared_sample(ref_model, ref_params, 100_000, seed=REF_SEED)


@pytest.fixture(scope="session")
def ref_solved(ref_model, ref_params, ref_sample):
    return stopsolve.solve_b_star(ref_model, ref_params, ref_sample, diagnostics=False)


@pytest.fixture(scope="session")
def degen_model():
    return levy.BinaryUniform(0.0)


@pytest.fixture(scope="session")
def degen_params(degen_model):
    return levy.make_params(degen_model, gamma=1.0, theta=1.0, q=1.0, c=0.25)


@pytest.fixture(scope="session")
def degen_sample(degen_params):
    return degenerate_sample(degen_params)


@pytest.fixture()
def rng():
    return np.random.default_rng(7)
