"""The exact law of the lifetime integral for uniform splits, as an oracle.

Under the kappa tilt the size-biased pick of a uniform split has density
proportional to u^(1+kappa) on (0, 1), so the lineage jump -log(pick) is
Exponential(2+kappa) at the tilted rate nu = 2*rate/(2+kappa).  With
exponential jumps the Mellin recursion of the exponential functional
(Bertoin & Yor 2005) is that of a reciprocal Beta law (Gjessing & Paulsen
1997):

    rho * I = 1/B,   B ~ Beta(s_max, eta - s_max),

with rho = gamma*theta, eta = (2+kappa)/gamma and s_max = eta - nu/rho, the
tail index of I.  The sampler and the solver are checked against it.
"""

import math

import numpy as np
import pytest
from scipy import integrate, optimize, special, stats

from fragstop import expfun, levy, pathsim, stopsolve
from fragstop.levy import DomainError
from fragstop.streams import substream

# b* and value_at_c of the README model (gamma = theta = q = rate = 1,
# c = 0.25), from quadrature of E[(b + I)^r] against the Beta law.
EXACT_B_STAR = 0.77910890
EXACT_VALUE_AT_C = 0.35669432


def uniform_params(gamma, theta, q, rate, c=0.25):
    model = levy.BinaryUniform(rate)
    return model, levy.make_params(model, gamma=gamma, theta=theta, q=q, c=c)


def beta_law(params, rate) -> tuple[float, float, float]:
    """(rho, s_max, eta - s_max): I is 1/(rho B) with B ~ Beta(s_max, eta - s_max)."""
    kappa = params.kappa
    rho = params.gt
    eta = (2.0 + kappa) / params.gamma
    s_max = eta - 2.0 * rate / (2.0 + kappa) / rho
    return rho, s_max, eta - s_max


def exact_power_mean(params, rate, b: float, r: float) -> float:
    """E[(b + I)^r] under the exact law, by quadrature over B."""
    rho, a1, a2 = beta_law(params, rate)
    log_norm = special.betaln(a1, a2)

    def integrand(y):
        return (b + 1.0 / (rho * y)) ** r * math.exp(
            (a1 - 1.0) * math.log(y) + (a2 - 1.0) * math.log1p(-y) - log_norm)

    return integrate.quad(integrand, 0.0, 1.0, limit=200, epsabs=0.0, epsrel=1e-10)[0]


@pytest.mark.parametrize("point", [(1.0, 1.0, 1.0, 1.0), (0.5, 1.0, 1.0, 1.0),
                                   (2.0, 1.5, 0.5, 1.0)], ids=["readme", "gamma0.5", "gamma2"])
def test_sampler_matches_exact_law(point):
    model, params = uniform_params(*point)
    rho, a1, a2 = beta_law(params, model.rate)
    draws = pathsim.simulate_I_infty(model, params, substream(3, "exact-law"), 20_000)
    # P(I <= x) = P(B >= 1/(rho x)).
    cdf = lambda x: special.betaincc(a1, a2, np.minimum(1.0, 1.0 / (rho * x)))  # noqa: E731
    assert stats.kstest(draws, cdf).pvalue > 0.01


@pytest.mark.parametrize("point", [(1.0, 1.0, 1.0, 1.0), (0.5, 1.0, 1.0, 1.0),
                                   (2.0, 1.5, 0.5, 1.0)], ids=["readme", "gamma0.5", "gamma2"])
def test_moment_guard_is_the_tail_index(point):
    # E[I^n] = E[B^-n] / rho^n = B(s_max - n, eta - s_max) / (B(s_max, eta - s_max) rho^n)
    # for every integer n < s_max, and is infinite from s_max on.
    model, params = uniform_params(*point)
    rho, a1, a2 = beta_law(params, model.rate)
    n_max = math.ceil(a1) - 1
    assert n_max > params.kappa / params.gamma
    for n in range(1, n_max + 1):
        exact = math.exp(special.betaln(a1 - n, a2) - special.betaln(a1, a2)) / rho**n
        assert expfun.moment_recursion(model, params, n) == pytest.approx(exact, rel=1e-9)
    with pytest.raises(DomainError):
        expfun.moment_recursion(model, params, n_max + 1)


def test_readme_values_follow_from_the_law():
    model, params = uniform_params(1.0, 1.0, 1.0, 1.0)
    p = params.kappa / params.gamma
    assert beta_law(params, model.rate)[1] == pytest.approx(4.1231056, abs=1e-7)

    def excess(b):
        return exact_power_mean(params, 1.0, b, p) / (b * exact_power_mean(params, 1.0, b, p - 1.0)) - p

    b_star = optimize.brentq(excess, 0.1, 5.0, xtol=1e-12)
    value = b_star * exact_power_mean(params, 1.0, params.c, p) / exact_power_mean(params, 1.0, b_star, p)
    assert b_star == pytest.approx(EXACT_B_STAR, abs=5e-9)
    assert value == pytest.approx(EXACT_VALUE_AT_C, abs=5e-9)


def test_solve_matches_exact_values(ref_solved):
    # The tolerance is the spread of the solver over replicate seeds: their
    # mean must sit within 4 standard errors of the exact values, and the
    # 100k-draw reference solve within 4 replicate standard deviations.
    model, params = uniform_params(1.0, 1.0, 1.0, 1.0)
    reps = []
    for seed in range(1, 11):
        sample = expfun.draw_shared_sample(model, params, 50_000, seed=seed)
        res = stopsolve.solve_b_star(model, params, sample, diagnostics=False)
        reps.append((res.b_star, res.value_at_c))
    reps = np.array(reps)
    sd = reps.std(axis=0, ddof=1)
    exact = np.array([EXACT_B_STAR, EXACT_VALUE_AT_C])
    assert np.all(np.abs(reps.mean(axis=0) - exact) <= 4.0 * sd / math.sqrt(len(reps)))
    assert np.all(np.abs([ref_solved.b_star, ref_solved.value_at_c] - exact) <= 4.0 * sd)


@pytest.mark.parametrize("b", [0.375, 0.5, EXACT_B_STAR], ids=["1.5c", "2c", "b_star"])
def test_verify_references_match_exact_ratio(ref_sample, b):
    # verify's Laplace targets (b = 1.5c, 2c) and martingale reference (b = b*)
    # are the ratio E[(c + I)^p] / E[(b + I)^p] on the shared sample.
    model, params = uniform_params(1.0, 1.0, 1.0, 1.0)
    p = params.kappa / params.gamma
    ratio, se = expfun.ratio_of_power_means(ref_sample, params.c, b, p)
    exact = exact_power_mean(params, 1.0, params.c, p) / exact_power_mean(params, 1.0, b, p)
    assert abs(ratio - exact) <= 4.0 * se
