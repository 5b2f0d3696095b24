"""Threshold solver for the premium process and its verification checks.

The optimal strategy stops the premium process Z at first passage over a
threshold b*.  b* solves f(b) = kappa/gamma, where f is the moment ratio
computed on a shared sample of lifetime integrals; because the sample is
shared, f is strictly decreasing samplewise and bisection is exact up to
its own tolerance.  The module also carries the statistical verification
operations: the first-passage Laplace identity, constancy of the discounted
value along paths, the supermartingale inequality, continuous and smooth
pasting at b*, the integro-differential generator equation, and a
brute-force threshold sweep.

Every check reports an estimate with a standard error; acceptance is at
three standard errors plus a tiny floating-point floor, never a bare
boolean.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial import Chebyshev, chebyshev, legendre, polynomial

from . import expfun, levy, pathsim
from .expfun import LOG_FLOAT_MAX, MomentEstimate, SharedSample
from .levy import AssumptionError, DislocationModel, DomainError, ModelParams


# Numerical settings shared by every solve and check.
FD_STEP_REL = 1e-4          # central-difference step, relative to the point
JUMP_NODES = 13             # Gauss-Legendre nodes per piece of the generator's jump integral
RESIDUAL_BATCHES = 20       # batch means behind a generator-residual error
TILDE_DEGREE = 25           # Chebyshev degree of TildeCurve (TILDE_DEGREE + 1 nodes)
POWER_MEAN_BUDGET = 1 << 16    # array elements per chunk in _power_mean_many (cache-sized)
SAMPLE_SE_DEGREE = 5        # degree of the path side's fit in _shared_sample_errors


class DivergenceError(RuntimeError):
    """Bracketing for the threshold equation failed to straddle the target."""


@dataclass(frozen=True)
class SolverResult:
    """Solved threshold with the diagnostics needed to audit it."""

    b_star: float
    kappa: float
    value_at_c: float
    f_at_b_star: float
    sample_meta: dict
    diagnostics: dict = field(default_factory=dict)


# --- value functions ----------------------------------------------------------

class ValueFunction:
    """The candidate value b* E[(z+I)^p] / E[(b*+I)^p] on a shared sample, and the optimal value.

    The normalization E[(b*+I)^p] is computed once, here, and the value at c
    once, when first read; callers that evaluate many points (quadrature,
    finite differences, curve nodes, both path-average checks) pay for each
    once per (sample, b*).
    """

    def __init__(self, params: ModelParams, sample: SharedSample, b_star: float):
        self.params, self.sample, self.b_star = params, sample, b_star
        self.p = params.kappa / params.gamma
        self.norm = float(self.power_mean(b_star)[0])

    def power_mean(self, z) -> np.ndarray:
        """E[(z + I)^p] on the sample, for each z of a scalar or array."""
        return _power_mean_many(self.sample.draws, np.atleast_1d(np.asarray(z, dtype=float)),
                                self.p)

    def tilde(self, z):
        """The candidate value at z (scalar or array); defined for every z > 0, also above b*."""
        out = self.b_star * self.power_mean(z) / self.norm
        return float(out[0]) if np.ndim(z) == 0 else out

    def star(self, z):
        """The optimal value: the candidate at z <= b*, the stopped payoff z above.

        The candidate is evaluated at the points z <= b* only.
        """
        out = np.array(z, dtype=float, ndmin=1)
        below = out <= self.b_star
        out[below] = self.tilde(out[below])
        return float(out[0]) if np.ndim(z) == 0 else out

    @functools.cached_property
    def at_c(self) -> float:
        """The candidate value at the start c."""
        return self.tilde(self.params.c)


def value_tilde(params: ModelParams, sample: SharedSample, b_star: float, c_query):
    """Candidate value b* E[(c+I)^p] / E[(b*+I)^p] on the shared sample.

    Convex and continuously differentiable in c_query; accepts scalars or
    arrays.  Defined for every c_query > 0, also above b*.
    """
    return ValueFunction(params, sample, b_star).tilde(c_query)


def _power_mean_many(draws: np.ndarray, z: np.ndarray, p: float) -> np.ndarray:
    """mean((z_i + I)^p) for each z_i of a 1-d array, chunked to bound peak memory.

    The power is taken in place, so a chunk holds one budget-sized array, or
    one row when a row is larger.  Each row's mean is one contiguous
    reduction, so no value depends on the chunking.
    """
    out = np.empty(z.shape)
    step = max(1, POWER_MEAN_BUDGET // max(draws.size, 1))
    for start in range(0, z.size, step):
        terms = z[start : start + step, None] + draws[None, :]
        np.power(terms, p, out=terms)
        out[start : start + step] = np.mean(terms, axis=1)
    return out


class TildeCurve:
    """Fast evaluator of the candidate value on a z-interval.

    A Chebyshev series of degree TILDE_DEGREE in (log(z + 1/(gamma*theta)),
    log value) through the exact shared-sample values at its nodes.  Every
    lifetime integral is at least 1/(gamma*theta), so in that variable the
    candidate is a smooth, nearly linear power mean down to z = 0; on the
    reference models the relative error is below 1e-10 for z in [0, 1000],
    far below the Monte Carlo errors it feeds into.  `verify` builds one
    curve over the z-range of the paths both path-average checks read,
    where evaluating the full sample at every path point would be
    wasteful.  `value` is the exact ValueFunction the curve was fitted to.
    """

    def __init__(self, value: ValueFunction, z_min: float, z_max: float):
        self.value, self.b_star = value, value.b_star
        self._shift = 1.0 / value.params.gt
        z_hi = max(z_max, value.b_star, value.params.c) * 1.1
        self._log_value = Chebyshev.interpolate(
            lambda w: np.log(value.tilde(np.exp(w) - self._shift)),
            TILDE_DEGREE, domain=np.log([0.9 * z_min + self._shift, z_hi + self._shift]),
        )

    def tilde(self, z):
        # Clipped to the fitted interval: the series diverges outside it.
        return np.exp(self._log_value(np.clip(np.log(z + self._shift), *self._log_value.domain)))

    star = ValueFunction.star


# --- solving ------------------------------------------------------------------

_NO_START = "f(c) is not finite at c = {}; no bracket can start there"


def threshold_exponent(params: ModelParams) -> float:
    """p = kappa/gamma of f(b) = p; raises if p <= 1 or f(c) overflows on every sample.

    Every lifetime integral is at least 1/(gamma*theta), as Y = xi - theta*t only
    jumps up, so f(c) overflows on every sample once p * log(c + 1/(gamma*theta)) does.
    """
    p = params.kappa / params.gamma
    if not p > 1.0:
        raise AssumptionError(
            f"kappa/gamma = {p} <= 1: the threshold equation has no root "
            "(q = 0 with a trivial family is outside the solvable regime)"
        )
    # 1 - 1e-9 absorbs the rounding of the sampled integrals.
    if params.gt > 0.0 and p * math.log(params.c + (1.0 - 1e-9) / params.gt) > LOG_FLOAT_MAX:
        raise DivergenceError(_NO_START.format(params.c))
    return p


# A bound on the relative rounding error of f(b) near b*, while its means are normal floats.
# Each power (b + I)^p = exp(p log(b + I)) that is finite loses at most about 710 ulps
# (1.6e-13); the two means and their ratio add a few ulps more.
F_ROUNDING = 1e-12


# f(b) overflows, silently, to inf or nan where the bracket cannot close; that is reported.
@np.errstate(over="ignore", invalid="ignore")
def bisect_b_star(params: ModelParams, sample: SharedSample, *, rel_tol_b: float = 1e-6) -> float:
    """b* alone: the root of f(b) = kappa/gamma, by bisection on the samplewise-monotone f.

    The bracket is found by doubling/halving from c; DivergenceError if b
    overflows to inf or underflows to 0 first.  Bisection stops at relative
    width rel_tol_b, or earlier once the bracket is one ulp wide.
    Requires kappa/gamma > 1, which holds whenever q > 0.

    `levy.bisect` finds the float the plain halving of g = f - p finds,
    starting from the values of g at the bracket's ends that the bracket
    search computed.  Its margin is the band around b* where rounding may
    give g either sign.  On a fixed sample f(b) = 1 + E_w[I]/b, with weights
    w proportional to (b + I)^(p-1), and E_w[I] falls as b grows; so
    |dg/d log b| >= f - 1 = p - 1 at b*, and two values of g that each err
    by F_ROUNDING * p keep their order once their log b differ by
    2 F_ROUNDING p / (p - 1).  With b* <= hi this is a margin of at most
    that times hi.  F_ROUNDING is about 1,000 times the error seen on the
    reference samples, where f rounds to within 1e-15.
    """
    p = threshold_exponent(params)

    def g(b: float) -> float:
        return expfun.f_of_b(sample, params, b) - p

    lo = hi = params.c
    g_lo = g_hi = g(params.c)
    if not math.isfinite(g_lo):
        raise DivergenceError(_NO_START.format(params.c))
    if g_lo > 0.0:
        hi = 2.0 * params.c
        while math.isfinite(hi) and not (g_hi := g(hi)) <= 0.0:
            lo, g_lo, hi = hi, g_hi, 2.0 * hi
        if not math.isfinite(hi):
            raise DivergenceError(f"no upper bracket for f(b) = {p}: doubling from c overflowed")
    elif g_lo < 0.0:
        lo = 0.5 * params.c
        while lo > 0.0 and not (g_lo := g(lo)) >= 0.0:
            lo, hi, g_hi = 0.5 * lo, lo, g_lo
        if lo == 0.0:
            raise DivergenceError(f"no lower bracket for f(b) = {p}: halving from c reached 0")
    return levy.bisect(g, lo, hi, lambda lo, hi: hi - lo > rel_tol_b * hi, h_lo=g_lo, h_hi=g_hi,
                       margin=2.0 * F_ROUNDING * p / (p - 1.0) * hi)


def solve_b_star(
    model: DislocationModel,
    params: ModelParams,
    sample: SharedSample,
    *,
    rel_tol_b: float = 1e-6,
    diagnostics: bool = True,
) -> SolverResult:
    """`bisect_b_star`'s threshold with the value at c, f(b*) and, if asked, its diagnostics."""
    b_star = bisect_b_star(params, sample, rel_tol_b=rel_tol_b)
    value = ValueFunction(params, sample, b_star)

    diag: dict = {}
    if diagnostics:
        gaps = pasting_check(value)
        diag["pasting"] = {"value_gap": gaps.value_gap, "slope_gap": gaps.slope_gap}
        grid = [0.2 * b_star, 0.5 * b_star, 0.9 * b_star]
        diag["generator_residual"] = {
            "continuation": {f"{x:.6g}": generator_residual(model, params, value.tilde, x)
                             for x in grid},
            "stopping": {f"{2 * b_star:.6g}": generator_residual(model, params, value.star,
                                                                 2.0 * b_star, kink=b_star)},
        }
    return SolverResult(
        b_star=b_star,
        kappa=params.kappa,
        value_at_c=value.star(params.c),
        f_at_b_star=expfun.f_of_b(sample, params, b_star),
        sample_meta=sample.meta(),
        diagnostics=diag,
    )


# --- pasting ------------------------------------------------------------------

@dataclass(frozen=True)
class PastingGaps:
    value_gap: float   # tilde(b*) - b*
    slope_gap: float   # central-difference tilde'(b*) - 1


def pasting_check(value: ValueFunction) -> PastingGaps:
    """Continuous and smooth pasting gaps of the candidate value at its b*."""
    b_star = value.b_star
    h = FD_STEP_REL * b_star
    v = value.tilde(np.array([b_star - h, b_star, b_star + h]))
    return PastingGaps(
        value_gap=float(v[1] - b_star),
        slope_gap=float((v[2] - v[0]) / (2.0 * h) - 1.0),
    )


# --- generator ----------------------------------------------------------------

_GL_NODES, _GL_WEIGHTS = legendre.leggauss(JUMP_NODES)  # on [-1, 1]


def generator_rule(model: DislocationModel, params: ModelParams, x: float,
                   kink: float | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Nodes z and weights w with (L - lam) f(x) = w @ f(z) for every f.

    L f(x) = (1 + gamma*theta*x) f'(x) plus the integral of f(e^{-gamma y} x) - f(x)
    against the lineage jump measure.  The derivative is a central difference
    with step h = FD_STEP_REL * x, on x - h, x, x + h.  The jump measure pushes
    the split law through y = -log(s) and y = -log(1-s) with size-biased
    weights, so the integral is one over s in [1/2, 1) against the split
    density 2 (s(1-s))^(a-1) / B(a, a) (uniform: a = 1), or a two-term sum for
    point families.  In v, where 1 - s = v^4/2, the integrand is smooth enough
    for a fixed JUMP_NODES-point Gauss-Legendre rule on the nodes s^gamma x and
    (1-s)^gamma x, split where one crosses `kink`, if given.  The integral's
    -f(x) and the -lam f(x) fold into the weight of x.
    """
    if x <= 0.0:
        raise DomainError(f"x must be > 0, got {x}")
    if isinstance(model, levy.BinaryPoint):
        s, t, weights = np.array([model.s0]), np.array([1.0 - model.s0]), np.array([model.rate])
    else:
        edges = [0.0, 1.0]
        if kink is not None:
            r = (kink / x) ** (1.0 / params.gamma)
            edges[1:1] = [(2.0 * tk) ** 0.25 for tk in (r, 1.0 - r) if 0.0 < tk < 0.5]
        lo, hi = np.array(edges[:-1])[:, None], np.array(edges[1:])[:, None]
        v = (0.5 * (hi - lo) * _GL_NODES + 0.5 * (hi + lo)).ravel()
        t = 0.5 * v**4
        s = 1.0 - t
        a = model.shape if isinstance(model, levy.BinaryBeta) else 1.0
        # rule weight * ds/dv (2 v^3) * split density; zero at rate 0
        weights = (model.rate * (0.5 * (hi - lo) * _GL_WEIGHTS).ravel() * 4.0 * v**3 * np.exp(
            (a - 1.0) * np.log(s * t) + math.lgamma(2.0 * a) - 2.0 * math.lgamma(a)))
    h = FD_STEP_REL * x
    slope = (1.0 + params.gt * x) / (2.0 * h)
    jump = np.concatenate([weights * s, weights * t])
    z = np.concatenate([[x - h, x, x + h], s**params.gamma * x, t**params.gamma * x])
    w = np.concatenate([[-slope, -params.lam - jump.sum(), slope], jump])
    return z, w


def generator_residual(model: DislocationModel, params: ModelParams, value_fn, x: float, *,
                       kink: float | None = None) -> float:
    """(L - lam) value_fn at x, one dot product over `generator_rule`'s nodes.

    For the candidate value the residual is zero in expectation at every
    x > 0; for the optimal value it is nonpositive above b*.  value_fn takes
    arrays, and kinks at `kink`, if given.  It is not called at nodes of
    weight 0, such as every jump node of a family with rate 0; their terms
    are 0.
    """
    z, w = generator_rule(model, params, x, kink)
    weighted = w != 0.0
    values = np.zeros(z.size)
    values[weighted] = value_fn(z[weighted])
    return float(w @ values)


def generator_residual_estimate(model: DislocationModel, value: ValueFunction, x: float, *,
                                star: bool = False) -> MomentEstimate:
    """Generator residual of the candidate or, if star, the optimal value, with a batch-means error.

    The shared sample is split into interleaved batches, b* held fixed.
    Row k of one table holds batch k's power means at the rule's nodes and
    at b*, its normalization, so batch k's residual is b* (row @ weights) /
    normalization, plus the exact part of the nodes above b*, where the
    optimal value is z.  The spread of the batch residuals propagates every
    Monte Carlo source through the derivative, the quadrature and the
    normalization at once.  Columns of nodes of weight 0 hold 0, not power
    means.
    """
    b_star = value.b_star
    z, w = generator_rule(model, value.params, x, kink=b_star if star else None)
    tilde = z <= b_star if star else np.ones(z.size, dtype=bool)
    nodes = np.append(z[tilde], b_star)
    weighted = np.append(w[tilde] != 0.0, True)
    table = np.zeros((RESIDUAL_BATCHES, nodes.size))
    for k in range(RESIDUAL_BATCHES):
        table[k, weighted] = _power_mean_many(value.sample.draws[k::RESIDUAL_BATCHES],
                                              nodes[weighted], value.p)
    stopped = w[~tilde] @ z[~tilde]
    return MomentEstimate.of(b_star * (table[:, :-1] @ w[tilde]) / table[:, -1] + stopped)


# --- first-passage Laplace identity --------------------------------------------

@dataclass(frozen=True)
class LaplaceCheck:
    """Two independent estimates of E[exp(-lam * tau_b)]."""

    b: float
    lam: float
    mc: MomentEstimate
    analytic: float
    analytic_se: float
    horizon_misses: int

    @property
    def combined_se(self) -> float:
        return math.sqrt(self.mc.std_error**2 + self.analytic_se**2)


def first_passage_laplace_check(
    model: DislocationModel,
    params: ModelParams,
    levels,
    n_paths: int,
    rng: np.random.Generator,
    sample: SharedSample,
    horizon: float = 1e4,
) -> tuple[LaplaceCheck, ...]:
    """Compare path-simulated E[e^{-lam tau_b}] with the tilted moment ratio, per sorted level b.

    One set of paths serves every level (common random numbers).  lam =
    params.lam; the sample must carry the matching tilt params.kappa, and
    kappa > gamma.  A path still below b when its clock passes `horizon` is
    a horizon miss and contributes a discount of 0.
    """
    bs = sorted(levels)
    if bs[0] < params.c:
        raise DomainError(f"b = {bs[0]} must be >= c = {params.c}")
    kap = params.kappa
    if abs(sample.kappa - kap) > 1e-9 * max(1.0, kap):
        raise DomainError(
            f"sample tilt kappa = {sample.kappa} does not match kappa(lam) = {kap}"
        )
    if not kap > params.gamma:
        raise AssumptionError(f"identity requires kappa(lam) = {kap} > gamma = {params.gamma}")

    taus = pathsim.simulate_Z_first_passage(model, params, bs, n_paths, rng, horizon).T
    p = kap / params.gamma
    return tuple(LaplaceCheck(b, params.lam, MomentEstimate.of(np.exp(-params.lam * tau)),
                              *expfun.ratio_of_power_means(sample, params.c, b, p),
                              horizon_misses=int(np.count_nonzero(np.isinf(tau))))
                 for b, tau in zip(bs, taus))


# --- path-average checks --------------------------------------------------------

@dataclass(frozen=True)
class DiscountedValueCheck:
    """Means of e^{-lam t} V(Z_t) on a time grid, with paired decrements."""

    times: tuple
    estimates: tuple          # MomentEstimate per time
    reference: float          # the t = 0 value the means are compared against
    combined_se: tuple        # per time, the error of estimate - reference: paths and sample
    decrements: tuple         # MomentEstimate of X_{t_k} - X_{t_{k+1}}, paired


def _shared_sample_errors(value: ValueFunction, times: np.ndarray, z: np.ndarray, *,
                          star: bool) -> np.ndarray:
    """Shared-sample error of e^{-lam t} mean V(Z_t) - V(c) at each time, the paths held fixed.

    Both sides read the one sample.  With N = mean (b*+I)^p and H_t(y) the
    mean over paths of (Z_t + y)^p, the difference is (b*/N) mean d_i, where
    d_i = e^{-lam t} H_t(I_i) - (c+I_i)^p; by the delta method draw i adds
    (b*/N) [d_i - (mean d / N) (b*+I_i)^p].  For the optimal value only paths
    with Z_t <= b* enter H_t, and the c term drops when c > b*, as V*(c) = c.
    H_t is smooth in log y, so each time's log H_t is read from the
    polynomial of degree SAMPLE_SE_DEGREE through its values at the
    Chebyshev points of the log of the sample's range (TildeCurve's fit, with
    draws and paths swapped); an error needs only a few digits.  The draws
    stream through in blocks of at most POWER_MEAN_BUDGET elements.
    """
    params, draws, p, b_star = value.params, value.sample.draws, value.p, value.b_star
    log_norm = np.log(value.norm)
    lo, hi = np.log(draws.min()), np.log(draws.max())
    if not lo < hi:
        return np.zeros(times.size)  # also for one draw: equal draws carry no sample error
    mid, half = 0.5 * (hi + lo), 0.5 * (hi - lo)
    nodes = chebyshev.chebpts1(SAMPLE_SE_DEGREE + 1)
    log_h = np.zeros((nodes.size, times.size))
    # log of e^{-lam t} (share of the paths in H_t) / N, per time
    log_scale = np.full(times.size, -np.inf)
    for k in range(times.size):
        paths = z[:, k][z[:, k] <= b_star] if star else z[:, k]
        if paths.size:
            terms = np.exp(p * np.log(paths + np.exp(mid + half * nodes)[:, None]))
            log_h[:, k] = np.log(terms.mean(axis=1))
            log_scale[k] = -params.lam * times[k] + np.log(paths.size / z.shape[0])
    coef = np.linalg.solve(polynomial.polyvander(nodes, SAMPLE_SE_DEGREE), log_h)
    coef[0] += log_scale - log_norm
    with_c = not (star and params.c > b_star)
    # Rows d_1..d_K (over N) and (b*+I)^p / N of one block; their sums and Gram matrix.
    sums, gram = np.zeros(times.size + 1), np.zeros((times.size + 1, times.size + 1))
    step = max(1, POWER_MEAN_BUDGET // (times.size + 1))
    for start in range(0, draws.size, step):
        y = draws[start : start + step]
        x = (np.log(y) - mid) / half
        d = np.exp(polynomial.polyval(x, coef))
        if with_c:
            d -= np.exp(p * np.log(params.c + y) - log_norm)
        rows = np.vstack([d, np.exp(p * np.log(b_star + y) - log_norm)])
        sums += rows.sum(axis=1)
        gram += rows @ rows.T
    # sum_i (d_i - beta n_i) = 0 at beta = mean d / mean n, so its squares give the variance.
    beta = sums[:-1] / sums[-1]
    var = np.diag(gram)[:-1] - 2.0 * beta * gram[:-1, -1] + beta**2 * gram[-1, -1]
    return b_star * np.sqrt(np.maximum(var, 0.0) / ((draws.size - 1) * draws.size))


def _discounted_value_check(curve, times, z, *, star: bool) -> DiscountedValueCheck:
    """Means of e^{-lam t} V(Z_t) against V(c), V the optimal value if star else the candidate."""
    value = curve.value
    params = value.params
    times = np.asarray(times, dtype=float)
    cols = (np.exp(-params.lam * times)[None, :] * (curve.star(z) if star else curve.tilde(z))).T
    estimates = tuple(map(MomentEstimate.of, cols))
    sample_se = _shared_sample_errors(value, times, z, star=star)
    # Above b*, V*(c) = c exactly: the payoff of stopping at once.
    return DiscountedValueCheck(
        tuple(times), estimates,
        reference=params.c if star and params.c > value.b_star else value.at_c,
        combined_se=tuple(math.hypot(e.std_error, se) for e, se in zip(estimates, sample_se)),
        decrements=tuple(MomentEstimate.of(a - b) for a, b in zip(cols, cols[1:])),
    )


def martingale_check(curve: TildeCurve, times, z: np.ndarray) -> DiscountedValueCheck:
    """Means of e^{-lam t} tilde(Z_t); each should equal tilde(c).

    z[:, k] holds the simulated Z of every path at times[k]; the curve
    must span z, and its `value` gives b*, the sample and tilde(c).
    """
    return _discounted_value_check(curve, times, z, star=False)


def supermartingale_check(curve: TildeCurve, times, z: np.ndarray) -> DiscountedValueCheck:
    """Means of e^{-lam t} V*(Z_t); nonincreasing in t, each <= V*(c).

    z and curve as in martingale_check.
    """
    return _discounted_value_check(curve, times, z, star=True)


# --- brute-force threshold sweep -------------------------------------------------

@dataclass(frozen=True)
class ThresholdSweep:
    thresholds: np.ndarray
    discounts: np.ndarray  # per-path discount factors, one column per threshold


def threshold_payoff_sweep(
    model: DislocationModel,
    params: ModelParams,
    thresholds,
    n_paths: int,
    rng: np.random.Generator,
    *,
    horizon: float = 1e4,
) -> ThresholdSweep:
    """Per-path discounts e^{-lam tau_b} behind the value b * E[e^{-lam tau_b}] of each threshold.

    One path realization serves every threshold (common random numbers), so
    neighboring grid points are directly comparable; the mean payoff curve
    peaks within sampling error at the optimal threshold.
    """
    bs = np.asarray(sorted(thresholds), dtype=float)
    return ThresholdSweep(
        bs, pathsim.first_passage_payoff_sums(model, params, bs, params.lam, n_paths, rng, horizon))
