"""Dislocation families and the exponent machinery of the tagged lineage.

A binary, conservative dislocation family splits a block of mass x at rate
``rate`` into fragments (x*s, x*(1-s)) with s drawn from the family's split
law on [1/2, 1).  Following a size-biased lineage through the cascade, the
negative log-mass xi is a driftless pure-jump subordinator whose Laplace
exponent is

    phi(p) = rate * (1 - E[ s^(1+p) + (1-s)^(1+p) ]),

and the driver Y_t = xi_t - theta*t is spectrally positive with exponent
psi(u) = theta*u - phi(u).  This module provides the families, closed-form
phi/psi, the root kappa of psi(u) = lam, and the jump sampler, physical or
under the exponential tilt (jump measure reweighted by exp(-kappa*x)); the
tilted jumps are drawn from their exact law, with no rejection.

Families with ``rate == 0`` are accepted as the degenerate no-splitting
configuration; every downstream quantity then has a deterministic closed
form, which the test suite uses as an oracle.  The fragmentation ensemble
simulator rejects them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np


class InvalidModelError(ValueError):
    """A dislocation family's parameters violate its invariants."""


class DomainError(ValueError):
    """An evaluation outside a convergence or validity domain."""


class AssumptionError(ValueError):
    """A standing assumption of the problem fails (A1/A2, q > 0, kappa > gamma)."""


@dataclass(frozen=True)
class BinaryUniform:
    """Larger fragment uniform on [1/2, 1)."""

    rate: float


@dataclass(frozen=True)
class BinaryPoint:
    """Deterministic split into (s0, 1-s0), s0 in [1/2, 1)."""

    rate: float
    s0: float


@dataclass(frozen=True)
class BinaryBeta:
    """Larger fragment ~ symmetric Beta(shape, shape) conditioned on [1/2, 1).

    shape == 1 reduces to BinaryUniform.
    """

    rate: float
    shape: float


DislocationModel = Union[BinaryUniform, BinaryPoint, BinaryBeta]

# Largest beta shape: split_power_mean's lgamma difference loses digits as the
# shape grows (relative error 6e-9 at 1e6, 4e-3 at 1e12, 26% at 1e14).
BETA_SHAPE_MAX = 1e6


def validate_model(model: DislocationModel) -> None:
    """Raise InvalidModelError listing every violated family invariant."""
    problems = []
    if not isinstance(model, (BinaryUniform, BinaryPoint, BinaryBeta)):
        raise InvalidModelError(f"unknown dislocation family: {model!r}")
    if not (model.rate >= 0.0 and math.isfinite(model.rate)):
        problems.append(f"rate must be finite and >= 0, got {model.rate}")
    if isinstance(model, BinaryPoint):
        # Half-open interval: s0 = 1 would put mass on the trivial split.
        if not (0.5 <= model.s0 < 1.0):
            problems.append(f"s0 must lie in [1/2, 1), got {model.s0}")
    if isinstance(model, BinaryBeta):
        if not (model.shape > 0.0 and math.isfinite(model.shape)):
            problems.append(f"shape must be finite and > 0, got {model.shape}")
        elif model.shape > BETA_SHAPE_MAX:
            problems.append(f"shape must be <= {BETA_SHAPE_MAX:g}, got {model.shape}; its "
                            "large-shape limit is family = point, s0 = 0.5")
    if problems:
        raise InvalidModelError("; ".join(problems))


def is_degenerate(model: DislocationModel) -> bool:
    """True for the no-splitting (rate == 0) oracle configuration."""
    return model.rate == 0.0


def p_lower(model: DislocationModel) -> float:
    """Infimum exponent for which the family's defining integral converges.

    Determined by integrability of (1-s)^(1+p) against the split law near
    s = 1; point masses and the degenerate family converge for every p.
    """
    validate_model(model)
    if is_degenerate(model) or isinstance(model, BinaryPoint):
        return -math.inf
    if isinstance(model, BinaryUniform):
        return -2.0
    return -(1.0 + model.shape)


def split_power_mean(model: DislocationModel, p: float) -> float:
    """E[s^(1+p) + (1-s)^(1+p)] under the split law (1 at p = 0)."""
    if isinstance(model, BinaryUniform):
        return 2.0 / (p + 2.0)
    if isinstance(model, BinaryPoint):
        return model.s0 ** (1.0 + p) + (1.0 - model.s0) ** (1.0 + p)
    a = model.shape
    # Symmetry of Beta(a, a) folds both fragments into 2 B(a+1+p, a) / B(a, a).
    lg = math.lgamma
    return 2.0 * math.exp(lg(a + 1.0 + p) + lg(2.0 * a) - lg(2.0 * a + 1.0 + p) - lg(a))


def phi(model: DislocationModel, p: float) -> float:
    """Laplace exponent of the size-biased lineage's log-mass subordinator.

    Strictly increasing and concave on (p_lower, inf) with phi(0) = 0.
    """
    lower = p_lower(model)  # validates the model; -inf for the degenerate one
    if is_degenerate(model):
        return 0.0
    if not p > lower:
        raise DomainError(f"p = {p} is outside the domain (> {lower})")
    return model.rate * (1.0 - split_power_mean(model, p))


def phi_prime0(model: DislocationModel) -> float:
    """Derivative of phi at 0+, i.e. the mean log-mass decay rate."""
    validate_model(model)
    if isinstance(model, BinaryUniform):
        return model.rate / 2.0
    if isinstance(model, BinaryPoint):
        s = model.s0
        t = 1.0 - s
        return model.rate * (-s * math.log(s) - (t * math.log(t) if t > 0 else 0.0))
    a = model.shape
    # psi(2a+1) - psi(a+1) = sum_{k>=1} a/((k+a)(k+2a)): eleven terms, then the rest,
    # psi(y) - psi(x) at x = a + 12, y = x + a, from psi's asymptotic series.  Each
    # x^-m - y^-m in it is a*u*v * sum_{i<m} u^i v^(m-1-i) (u = 1/x, v = 1/y), so
    # nothing cancels at small a.
    head = math.fsum(a / (k + a) / (k + 2.0 * a) for k in range(1, 12))
    x = a + 12.0
    u, v = 1.0 / x, 1.0 / (x + a)
    h, vm, series = 0.0, 1.0, 0.5  # 1/2 from the -1/(2x) term
    for c in (1 / 12, -1 / 120, 1 / 252, -1 / 240, 1 / 132, -691 / 32760):  # B_2j / (2j)
        h = u * (u * h + vm) + vm * v
        vm *= v * v
        series += c * h
    return model.rate * (head + math.log1p(a / x) + a * u * v * series)


def psi(model: DislocationModel, theta: float, u: float) -> float:
    """Exponent of the drifted driver: psi(u) = theta*u - phi(u).

    Defined for u > p_lower; convex with psi(0) = 0, strictly increasing on
    [0, inf) whenever theta > phi_prime0.
    """
    if is_degenerate(model):
        return theta * u
    return theta * u - phi(model, u)


# Absolute bisection tolerance of the root kappa.
KAPPA_TOL = 1e-12


def kappa_root(model: DislocationModel, theta: float, lam: float) -> float:
    """Unique positive root of psi(u) = lam, by bisection to within KAPPA_TOL.

    The bracket [0, (lam + rate)/theta] is valid because phi <= rate for a
    finite conservative family.  Bisection (rather than Newton) because
    psi' near 0 can be arbitrarily small when theta is close to phi_prime0.
    `bisect` finds the float the plain halving of psi(u) - lam < 0 finds,
    from h = lam - psi; h(0) = lam.  Its margin is the band around kappa
    where rounding may give psi - lam either sign: twice the bound below on
    psi's rounding error over psi's slope at kappa, which is at least
    lam/kappa >= lam/hi because psi is convex with psi(0) = 0.  theta*u and
    phi round to a few ulps, except the beta family's lgamma difference,
    whose arguments up to x = 2*shape + 1 + u lose about x log x ulps (see
    BETA_SHAPE_MAX).  Over 3,000 random models, beta shapes up to 1e6
    included, a hundredth of this margin still kept every root equal.
    """
    if lam == 0.0:
        return 0.0
    if lam < 0.0:
        raise DomainError(f"lam must be >= 0, got {lam}")
    lo, hi = 0.0, (lam + model.rate) / theta
    f_hi = psi(model, theta, hi) - lam
    if f_hi < -KAPPA_TOL * theta:
        raise AssumptionError(
            f"bisection bracket failed: psi({hi}) = {f_hi + lam} < lam = {lam}; "
            "the model violates the standing drift assumptions"
        )
    ulps = 1.0
    if isinstance(model, BinaryBeta):
        x = 2.0 * model.shape + 1.0 + hi
        ulps += 4.0 * x * (1.0 + math.log(x))
    psi_error = 16.0 * math.ulp(1.0) * (theta * hi + model.rate * ulps)
    return bisect(lambda u: lam - psi(model, theta, u), lo, hi,
                  lambda lo, hi: hi - lo > KAPPA_TOL,
                  h_lo=lam, h_hi=-f_hi, margin=2.0 * psi_error * hi / lam)


def bisect(h, lo: float, hi: float, wide, *, h_lo: float | None = None,
           h_hi: float | None = None, margin: float = 0.0) -> float:
    """The float the plain halving of [lo, hi] toward the sign change of h returns.

    h decreases through its root: x lies below the root where h(x) > 0.  The
    plain halving evaluates h at the midpoint of its bracket and keeps the
    half where h changes sign, while wide(lo, hi) holds and a midpoint lies
    strictly inside; it returns the midpoint of its last bracket.  This
    function returns the same float from fewer evaluations.  h_lo and h_hi
    are h at the ends, evaluated here unless given.

    First, modified regula falsi (Illinois) steps narrow the interval [a, b]
    on which the sign of h is unknown, h(a) > 0 >= h(b), until wide(a, b)
    fails; only finite values narrow it.  Then the plain halving runs
    again.  A midpoint below a - margin is below the root and one above
    b + margin is not, by monotonicity; a midpoint between is evaluated.
    So the result equals the plain halving's whenever h(y) > 0 implies
    h(x) > 0 for every x < y - margin: the computed sign of h (nan counts
    as <= 0) may be out of order only within a band of width margin.
    margin = 0 suits an h that rounds monotonically.  Unless h_lo > 0 >= h_hi
    at finite values, every midpoint is evaluated.
    """
    h_lo = h(lo) if h_lo is None else h_lo
    h_hi = h(hi) if h_hi is None else h_hi
    a, b = -math.inf, math.inf  # h(a) > 0 >= h(b)
    if math.isfinite(h_lo) and math.isfinite(h_hi) and h_lo > 0.0 >= h_hi:
        a, b = _illinois(h, lo, hi, h_lo, h_hi, wide, margin)
    while wide(lo, hi):
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        if mid < a - margin or (mid <= b + margin and h(mid) > 0.0):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _illinois(h, a: float, b: float, h_a: float, h_b: float, wide,
              margin: float) -> tuple[float, float]:
    """[a, b] narrowed by Illinois steps from h(a) > 0 >= h(b), both finite.

    Each step evaluates h where the chord through (a, h_a) and (b, h_b)
    crosses zero and keeps the side where h changes sign.  An end kept
    twice in a row has its value halved, which moves the next crossing
    toward it, so both ends close in on the root.  A crossing that rounds
    onto an end puts the root there; the step then evaluates h one margin,
    or one ulp, inside that end instead, and a second such step in a row
    ends the narrowing, as does a value that is not finite.
    """
    kept = None  # the end the last step kept
    pinned = False  # whether the last crossing rounded onto an end
    while wide(a, b):
        x = b - h_b * (b - a) / (h_b - h_a)
        if a < x < b:
            pinned = False
        elif pinned:
            break
        else:
            pinned = True
            x = a + max(margin, math.ulp(a)) if x <= a else b - max(margin, math.ulp(b))
            if not a < x < b:
                break
        h_x = h(x)
        if not math.isfinite(h_x):
            break
        if h_x > 0.0:
            a, h_a = x, h_x
            if kept == "b":
                h_b *= 0.5
            kept = "b"
        else:
            b, h_b = x, h_x
            if kept == "a":
                h_a *= 0.5
            kept = "a"
    return a, b


# --- split-law sampling -----------------------------------------------------

def split_quantile(model: DislocationModel, u: np.ndarray) -> np.ndarray:
    """Larger-fragment shares s from uniforms u on [0, 1), by inversion of the split law.

    s has the law of max(V, 1 - V) for the family's symmetric V, whose
    distribution function on [1/2, 1) is 2 F_V(s) - 1.
    """
    if isinstance(model, BinaryPoint):
        return np.full(np.shape(u), model.s0)
    p = 0.5 * (1.0 + u)
    if isinstance(model, BinaryBeta):
        try:
            from scipy import special
        except ImportError as exc:
            raise InvalidModelError(
                "the beta family's cascade needs scipy (its inverse incomplete beta)") from exc
        return special.betaincinv(model.shape, model.shape, p)
    return p


def sample_jump(model: DislocationModel, kappa: float, n: int, rng: np.random.Generator) -> np.ndarray:
    """n jumps of the (tilted) lineage subordinator: x = -log(size-biased pick).

    For kappa = 0 this is the physical jump law: a split from the family's
    split law, then the pick, the larger fragment with probability s.  For
    kappa > 0 the law has density proportional to exp(-kappa*x) against the
    physical one, and every family is drawn from it exactly.  The point
    family reweights its two atoms.  The size-biased pick of a Beta(a, a)
    split is Beta(a+1, a), and the tilt makes it Beta(a+1+kappa, a); so the
    beta family draws Q = 1 - pick ~ Beta(a, a+1+kappa) and returns
    -log1p(-Q), which keeps the digits of small jumps, and the uniform
    family (a = 1) draws its jumps as Exponential(2 + kappa).
    """
    if is_degenerate(model):
        raise DomainError("the degenerate model has no jumps")
    if isinstance(model, BinaryPoint):
        s, t = model.s0, 1.0 - model.s0
        ws = s ** (1.0 + kappa)  # at kappa = 0, w = s exactly: 1 - s is exact for s >= 1/2
        w = ws / (ws + t ** (1.0 + kappa))
        picks = np.where(rng.random(n) < w, s, t)
        return -np.log(picks)
    if kappa > 0.0:
        if isinstance(model, BinaryBeta):
            return -np.log1p(-rng.beta(model.shape, model.shape + 1.0 + kappa, n))
        return rng.exponential(1.0 / (2.0 + kappa), n)
    # A physical call draws splits and picks for at least 1024 jumps and keeps
    # the first n; the physical walks' streams, and every output pinned on
    # them, depend on that.
    m = max(n, 1024) if n else 0
    if isinstance(model, BinaryBeta):
        v = rng.beta(model.shape, model.shape, size=m)
        s, u = np.maximum(v, 1.0 - v), rng.random(m)
    else:
        s, u = split_quantile(model, rng.random(m)), rng.random(m)
    picks = np.where(u < s, s, 1.0 - s)
    return -np.log(picks[:n])


# --- problem constants -------------------------------------------------------

@dataclass(frozen=True)
class ModelParams:
    """Validated problem constants and the derived discount/tilt quantities.

    lam = q + theta*gamma and kappa solves psi(kappa) = lam.
    """

    gamma: float
    theta: float
    q: float
    c: float
    lam: float
    kappa: float

    @property
    def gt(self) -> float:
        """Convenience product gamma*theta (the within-segment growth rate)."""
        return self.gamma * self.theta


def make_params(
    model: DislocationModel,
    *,
    gamma: float,
    theta: float,
    q: float,
    c: float,
    allow_q_zero: bool = False,
) -> ModelParams:
    """Validate the configuration and derive (lam, kappa).

    Raises InvalidModelError for out-of-domain constants and AssumptionError
    (listing every violation) when the standing assumptions fail.
    """
    validate_model(model)
    bad = []
    if not (gamma > 0.0 and math.isfinite(gamma)):
        bad.append(f"gamma must be > 0, got {gamma}")
    if not (theta > 0.0 and math.isfinite(theta)):
        bad.append(f"theta must be > 0, got {theta}")
    if not (c > 0.0 and math.isfinite(c)):
        bad.append(f"c must be > 0, got {c}")
    if not (q >= 0.0 and math.isfinite(q)):
        bad.append(f"q must be >= 0, got {q}")
    if bad:
        raise InvalidModelError("; ".join(bad))

    violations = []
    if q == 0.0 and not allow_q_zero:
        violations.append("q = 0 requires the explicit allow_q_zero override")
    d0 = phi_prime0(model)
    if not math.isfinite(d0):
        violations.append("(A1) fails: phi_prime0 is not finite")
    elif not theta > d0:
        violations.append(f"(A2) fails: theta = {theta} must exceed phi_prime0 = {d0}")
    if violations:
        raise AssumptionError("; ".join(violations))

    lam = q + theta * gamma
    kappa = kappa_root(model, theta, lam)
    if q > 0.0 and kappa <= gamma:
        raise AssumptionError(
            f"kappa = {kappa} <= gamma = {gamma} despite q > 0; numerical root failure"
        )
    return ModelParams(gamma=gamma, theta=theta, q=q, c=c, lam=lam, kappa=kappa)
