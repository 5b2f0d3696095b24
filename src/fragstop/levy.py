"""Dislocation families and the exponent machinery of the tagged lineage.

A binary, conservative dislocation family splits a block of mass x at rate
``rate`` into fragments (x*s, x*(1-s)) with s drawn from the family's split
law on [1/2, 1).  Following a size-biased lineage through the cascade, the
negative log-mass xi is a driftless pure-jump subordinator whose Laplace
exponent is

    phi(p) = rate * (1 - E[ s^(1+p) + (1-s)^(1+p) ]),

and the driver Y_t = xi_t - theta*t is spectrally positive with exponent
psi(u) = theta*u - phi(u).  This module provides the families, closed-form
phi/psi, the root kappa of psi(u) = lam, and the exponentially tilted jump
dynamics (jump measure reweighted by exp(-kappa*x)) used by the solver.

Families with ``rate == 0`` are accepted as the degenerate no-splitting
configuration; every downstream quantity then has a deterministic closed
form, which the test suite uses as an oracle.  The fragmentation ensemble
simulator rejects them.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Union

import numpy as np
from scipy import special


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
    # Symmetry of Beta(a, a) folds both fragments into one beta integral.
    return 2.0 * math.exp(special.betaln(a + 1.0 + p, a) - special.betaln(a, a))


def phi(model: DislocationModel, p: float) -> float:
    """Laplace exponent of the size-biased lineage's log-mass subordinator.

    Strictly increasing and concave on (p_lower, inf) with phi(0) = 0.
    """
    validate_model(model)
    if is_degenerate(model):
        return 0.0
    if not p > p_lower(model):
        raise DomainError(f"p = {p} is outside the domain (> {p_lower(model)})")
    return model.rate * (1.0 - split_power_mean(model, p))


def phi_prime0(model: DislocationModel) -> float:
    """Derivative of phi at 0+, i.e. the mean log-mass decay rate."""
    validate_model(model)
    if is_degenerate(model):
        return 0.0
    if isinstance(model, BinaryUniform):
        return model.rate / 2.0
    if isinstance(model, BinaryPoint):
        s = model.s0
        t = 1.0 - s
        return model.rate * (-s * math.log(s) - (t * math.log(t) if t > 0 else 0.0))
    a = model.shape
    return model.rate * (special.digamma(2.0 * a + 1.0) - special.digamma(a + 1.0))


def psi(model: DislocationModel, theta: float, u: float) -> float:
    """Exponent of the drifted driver: psi(u) = theta*u - phi(u).

    Defined for u > p_lower; convex with psi(0) = 0, strictly increasing on
    [0, inf) whenever theta > phi_prime0.
    """
    if is_degenerate(model):
        return theta * u
    return theta * u - phi(model, u)


def kappa_root(model: DislocationModel, theta: float, lam: float, tol: float = 1e-12) -> float:
    """Unique positive root of psi(u) = lam, by bisection.

    The bracket [0, (lam + rate)/theta] is valid because phi <= rate for a
    finite conservative family.  Bisection (rather than Newton) because
    psi' near 0 can be arbitrarily small when theta is close to phi_prime0.
    """
    if lam == 0.0:
        return 0.0
    if lam < 0.0:
        raise DomainError(f"lam must be >= 0, got {lam}")
    lo, hi = 0.0, (lam + model.rate) / theta
    f_hi = psi(model, theta, hi) - lam
    if f_hi < -tol * theta:
        raise AssumptionError(
            f"bisection bracket failed: psi({hi}) = {f_hi + lam} < lam = {lam}; "
            "the model violates the standing drift assumptions"
        )
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if psi(model, theta, mid) - lam < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


# --- split-law sampling -----------------------------------------------------

def sample_split(model: DislocationModel, rng: np.random.Generator) -> float:
    """Draw the larger-fragment mass s from the family's split law."""
    if isinstance(model, BinaryUniform):
        return 0.5 * (1.0 + rng.random())
    if isinstance(model, BinaryPoint):
        return model.s0
    v = rng.beta(model.shape, model.shape)
    return max(v, 1.0 - v)


def sample_splits(model: DislocationModel, n: int, rng: np.random.Generator) -> np.ndarray:
    """Vectorized `sample_split`; uses the same per-family draw count."""
    if isinstance(model, BinaryUniform):
        return 0.5 * (1.0 + rng.random(n))
    if isinstance(model, BinaryPoint):
        return np.full(n, model.s0)
    v = rng.beta(model.shape, model.shape, size=n)
    return np.maximum(v, 1.0 - v)


def split_density(model: DislocationModel, s: float) -> float:
    """Density of the split law at s in [1/2, 1); continuous families only."""
    if isinstance(model, BinaryUniform):
        return 2.0
    if isinstance(model, BinaryBeta):
        a = model.shape
        log_half_mass = special.betaln(a, a) - math.log(2.0)
        return math.exp((a - 1.0) * (math.log(s) + math.log1p(-s)) - log_half_mass)
    raise DomainError(f"{type(model).__name__} has no split density")


def sample_jump(model: DislocationModel, kappa: float, rng: np.random.Generator) -> float:
    """One jump of the (tilted) lineage subordinator: x = -log(size-biased pick).

    For kappa = 0 this is the physical jump law.  For kappa > 0 the law has
    density proportional to exp(-kappa*x) against the physical one; the two
    point-mass atoms are reweighted exactly, while continuous families use
    rejection with the physical law as envelope (acceptance weight
    pick^kappa = exp(-kappa*x) <= 1).
    """
    if is_degenerate(model):
        raise DomainError("the degenerate model has no jumps")
    if isinstance(model, BinaryPoint):
        s, t = model.s0, 1.0 - model.s0
        if kappa == 0.0:
            w = s
        else:
            ws = s ** (1.0 + kappa)
            w = ws / (ws + t ** (1.0 + kappa))
        pick = s if rng.random() < w else t
        return -math.log(pick)
    while True:
        s = sample_split(model, rng)
        pick = s if rng.random() < s else 1.0 - s
        if kappa == 0.0 or rng.random() < pick ** kappa:
            return -math.log(pick)


def sample_jumps(model: DislocationModel, kappa: float, n: int, rng: np.random.Generator) -> np.ndarray:
    """Vectorized `sample_jump` (draw order differs from the scalar version)."""
    if is_degenerate(model):
        raise DomainError("the degenerate model has no jumps")
    if isinstance(model, BinaryPoint):
        s, t = model.s0, 1.0 - model.s0
        if kappa == 0.0:
            w = s
        else:
            ws = s ** (1.0 + kappa)
            w = ws / (ws + t ** (1.0 + kappa))
        picks = np.where(rng.random(n) < w, s, t)
        return -np.log(picks)
    out = np.empty(n)
    filled = 0
    while filled < n:
        m = max(n - filled, 1024)
        s = sample_splits(model, m, rng)
        picks = np.where(rng.random(m) < s, s, 1.0 - s)
        if kappa > 0.0:
            picks = picks[rng.random(m) < picks**kappa]
        take = min(picks.size, n - filled)
        out[filled : filled + take] = picks[:take]
        filled += take
    return -np.log(out)


# --- problem constants -------------------------------------------------------

@dataclass(frozen=True)
class ModelParams:
    """Validated problem constants and the derived discount/tilt quantities.

    lam = q + theta*gamma and kappa solves psi(kappa) = lam.  Immutable, so
    instances are safe to share across concurrent workers.
    """

    gamma: float
    theta: float
    q: float
    c: float
    lam: float
    kappa: float
    p_lower: float
    phi_d0: float

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
    kappa_tol: float = 1e-12,
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
    kappa = kappa_root(model, theta, lam, tol=kappa_tol)
    if q > 0.0 and kappa <= gamma:
        raise AssumptionError(
            f"kappa = {kappa} <= gamma = {gamma} despite q > 0; numerical root failure"
        )
    return ModelParams(
        gamma=gamma, theta=theta, q=q, c=c, lam=lam, kappa=kappa,
        p_lower=p_lower(model), phi_d0=d0,
    )


@dataclass(frozen=True)
class TiltedDynamics:
    """Jump rate/law and drift of the driver under an exponential tilt.

    kappa = 0 reproduces the physical dynamics.  The tilted jump rate is
    rate - phi(kappa); the drift -theta is unchanged by the tilt.
    """

    model: DislocationModel
    kappa: float
    theta: float
    jump_rate: float

    @property
    def drift(self) -> float:
        return -self.theta


def tilt(
    model: DislocationModel,
    params: ModelParams,
    lam: float | None = None,
    *,
    kappa: float | None = None,
) -> TiltedDynamics:
    """Build the tilted dynamics for the given discount (default params.lam).

    Pass kappa=0.0 for the physical (untilted) dynamics.
    """
    if kappa is None:
        kappa = params.kappa if lam is None else kappa_root(model, params.theta, lam)
    if kappa < 0.0:
        raise DomainError(f"kappa must be >= 0, got {kappa}")
    rate = model.rate - (phi(model, kappa) if kappa > 0.0 else 0.0)
    if model.rate > 0.0 and rate / model.rate < 0.01:
        warnings.warn(
            f"tilted jump acceptance rate {rate / model.rate:.2e} is below 1%; "
            "rejection sampling will be slow",
            RuntimeWarning,
            stacklevel=2,
        )
    return TiltedDynamics(model=model, kappa=kappa, theta=params.theta, jump_rate=rate)
