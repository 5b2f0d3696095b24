import math
from dataclasses import dataclass

import numpy as np
import pytest

from fragstop import expfun, levy, pathsim, stopsolve


# Reference code that several test modules share; import it from `conftest`.
def degenerate_sample(params: levy.ModelParams) -> expfun.SharedSample:
    """The no-splitting oracle sample: every draw equals 1/(gamma*theta)."""
    return expfun.SharedSample(
        draws=np.full(2, 1.0 / params.gt),
        gamma=params.gamma, theta=params.theta,
        kappa=params.kappa, lam=params.lam, rel_tol=0.0, seed=0,
    )


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
        acc += pathsim.segment_exp_integral(y, w, gamma, theta)
        z = pathsim.z_advance(z, w, gt)
        t += w
        y -= theta * w
        x = levy.sample_jump(model, 0.0, rng)
        y += x
        z *= math.exp(-gamma * x)
        states.append(ZState(t, y, z, acc))
    if horizon > t:
        dt = horizon - t
        acc += pathsim.segment_exp_integral(y, dt, gamma, theta)
        z = pathsim.z_advance(z, dt, gt)
        y -= theta * dt
        states.append(ZState(horizon, y, z, acc))
    return states


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
