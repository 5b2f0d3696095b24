import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import integrate, special

from fragstop import levy, pathsim
from fragstop.levy import (
    AssumptionError,
    BinaryBeta,
    BinaryPoint,
    BinaryUniform,
    DomainError,
    InvalidModelError,
)
from fragstop.streams import substream

from conftest import plain_bisect, plain_kappa_root, rowwise_sample_jump, scalar_jump

P_GRID = [0.1, 0.5, 1.0, 2.0, 3.0, 5.0]


def split_density(model, s: float) -> float:
    """Density of the split law at s in [1/2, 1); continuous families only."""
    if isinstance(model, BinaryUniform):
        return 2.0
    a = model.shape
    log_half_mass = special.betaln(a, a) - math.log(2.0)
    return math.exp((a - 1.0) * (math.log(s) + math.log1p(-s)) - log_half_mass)


class TestPhi:
    def test_uniform_closed_form_on_grid(self):
        model = BinaryUniform(1.0)
        for p in P_GRID:
            assert levy.phi(model, p) == pytest.approx(p / (p + 2.0), abs=1e-12)

    def test_uniform_example(self):
        assert levy.phi(BinaryUniform(1.0), 1.0) == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_point_half_closed_form(self):
        model = BinaryPoint(1.0, 0.5)
        for p in P_GRID:
            assert levy.phi(model, p) == pytest.approx(1.0 - 2.0**-p, abs=1e-12)
        assert levy.phi(BinaryPoint(2.0, 0.5), 1.0) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize(
        "model",
        [BinaryUniform(1.3), BinaryPoint(0.7, 0.8), BinaryBeta(2.0, 3.5), BinaryUniform(0.0)],
    )
    def test_conservative_zero_at_origin(self, model):
        assert levy.phi(model, 0.0) == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize(
        "model", [BinaryUniform(1.0), BinaryPoint(1.0, 0.6), BinaryBeta(1.0, 2.0)]
    )
    def test_increasing_and_concave(self, model):
        grid = np.linspace(0.05, 6.0, 40)
        vals = np.array([levy.phi(model, p) for p in grid])
        first = np.diff(vals)
        assert np.all(first >= 0.0)
        assert np.all(np.diff(first) <= 1e-12)

    def test_beta_matches_quadrature(self):
        model = BinaryBeta(1.3, 2.5)
        for p in (0.5, 1.0, 3.0):
            quad, _ = integrate.quad(
                lambda s: (1 - s ** (1 + p) - (1 - s) ** (1 + p)) * split_density(model, s),
                0.5, 1.0,
            )
            assert levy.phi(model, p) == pytest.approx(model.rate * quad, abs=1e-10)

    def test_beta_shape_one_is_uniform(self):
        for p in P_GRID:
            assert levy.phi(BinaryBeta(1.7, 1.0), p) == pytest.approx(
                levy.phi(BinaryUniform(1.7), p), abs=1e-12
            )

    def test_domain_error_below_p_lower(self):
        with pytest.raises(DomainError, match=r"^p = -2.0 is outside the domain \(> -2.0\)$"):
            levy.phi(BinaryUniform(1.0), -2.0)
        with pytest.raises(DomainError, match=r"^p = -1.5 is outside the domain \(> -1.5\)$"):
            levy.phi(BinaryBeta(1.0, 0.5), -1.5)

    @pytest.mark.parametrize("model", [BinaryUniform(1.0), BinaryPoint(1.0, 0.7),
                                       BinaryBeta(1.0, 0.5), BinaryUniform(0.0)],
                             ids=["uniform", "point", "beta", "none"])
    def test_validates_once_per_call(self, model, monkeypatch):
        calls = []
        validate = levy.validate_model
        monkeypatch.setattr(levy, "validate_model", lambda m: calls.append(m) or validate(m))
        levy.phi(model, 1.0)
        assert calls == [model]

    def test_invalid_models(self):
        with pytest.raises(InvalidModelError):
            levy.phi(BinaryUniform(-1.0), 1.0)
        with pytest.raises(InvalidModelError):
            levy.validate_model(BinaryPoint(1.0, 1.0))
        with pytest.raises(InvalidModelError):
            levy.validate_model(BinaryBeta(1.0, 0.0))

    def test_beta_shape_bound(self):
        levy.validate_model(BinaryBeta(1.0, levy.BETA_SHAPE_MAX))
        with pytest.raises(InvalidModelError, match="family = point, s0 = 0.5"):
            levy.validate_model(BinaryBeta(1.0, math.nextafter(levy.BETA_SHAPE_MAX, math.inf)))


class TestPhiPrime0:
    def test_uniform(self):
        assert levy.phi_prime0(BinaryUniform(1.0)) == pytest.approx(0.5, abs=1e-12)

    def test_point_half(self):
        assert levy.phi_prime0(BinaryPoint(1.0, 0.5)) == pytest.approx(math.log(2.0), abs=1e-12)

    def test_degenerate_limit(self):
        assert levy.phi_prime0(BinaryUniform(0.0)) == 0.0

    @pytest.mark.parametrize(
        "model", [BinaryUniform(2.0), BinaryPoint(1.5, 0.7), BinaryBeta(1.0, 3.0)]
    )
    def test_matches_central_difference(self, model):
        h = 1e-6
        fd = (levy.phi(model, h) - levy.phi(model, -h)) / (2.0 * h)
        assert levy.phi_prime0(model) == pytest.approx(fd, rel=1e-8)


def beta_gap(a: float) -> float:
    """psi(2a + 1) - psi(a + 1), as phi_prime0 computes it for the beta family."""
    return levy.phi_prime0(BinaryBeta(1.0, a))


class TestBetaDigammaGap:
    @pytest.mark.parametrize("n", [1, 2, 3, 7])
    def test_integer_shape_is_harmonic_difference(self, n):
        exact = float(sum(Fraction(1, k) for k in range(n + 1, 2 * n + 1)))  # H_2n - H_n
        assert abs(beta_gap(float(n)) - exact) <= 4 * math.ulp(exact)

    def test_half_shape(self):
        assert beta_gap(0.5) == pytest.approx(2.0 * math.log(2.0) - 1.0, rel=1e-15)

    @pytest.mark.parametrize("rate", [0.3, 1.0, 2.5])
    def test_shape_one_is_uniform(self, rate):
        assert levy.phi_prime0(BinaryBeta(rate, 1.0)) == levy.phi_prime0(BinaryUniform(rate))
        assert levy.phi_prime0(BinaryBeta(rate, 1.0)) == rate / 2.0

    def test_matches_scipy_digamma(self):
        for a in np.geomspace(1e-2, 1e6, 97):
            ref = special.digamma(2.0 * a + 1.0) - special.digamma(a + 1.0)
            assert beta_gap(float(a)) == pytest.approx(ref, rel=1e-12), a

    def test_small_shape_expansion(self):
        # sum_k a/((k+a)(k+2a)) = a zeta(2) - 3 a^2 zeta(3) + O(a^3).  The a^2 term
        # is 2.2a relative to a pi^2/6 (2.2e-6 at a = 1e-6), so it is kept.
        zeta3 = 1.2020569031595942
        for a in np.geomspace(1e-8, 1e-6, 9):
            expansion = a * math.pi**2 / 6.0 - 3.0 * zeta3 * a * a
            assert beta_gap(float(a)) == pytest.approx(expansion, rel=1e-10), a


class TestPsiKappa:
    def test_degenerate_psi_linear(self):
        model = BinaryUniform(0.0)
        for u in (0.0, 0.5, 3.0):
            assert levy.psi(model, 1.7, u) == pytest.approx(1.7 * u, abs=1e-14)

    def test_uniform_value(self):
        assert levy.psi(BinaryUniform(1.0), 1.0, 1.0) == pytest.approx(2.0 / 3.0, abs=1e-12)

    def test_degenerate_kappa(self):
        assert levy.kappa_root(BinaryUniform(0.0), 1.0, 2.0) == pytest.approx(2.0, abs=1e-11)

    def test_reference_kappa(self):
        kap = levy.kappa_root(BinaryUniform(1.0), 1.0, 2.0)
        assert kap == pytest.approx((1.0 + math.sqrt(17.0)) / 2.0, abs=1e-10)

    def test_root_past_tolerance_spacing_ends(self):
        # Above about 1e4 the float spacing near kappa exceeds KAPPA_TOL, and
        # the bisection once looped forever on two adjacent floats; a child
        # process keeps a regression from hanging the suite.
        lams = (1e4, 1e8, 1e300)
        child = ("from fragstop import levy\n"
                 f"for lam in {lams!r}: print(levy.kappa_root(levy.BinaryUniform(1.0), 1.0, lam))\n")
        proc = subprocess.run(
            [sys.executable, "-c", child], capture_output=True, text=True, timeout=60,
            env={**os.environ, "PYTHONPATH": str(Path(levy.__file__).resolve().parents[1])},
        )
        assert proc.returncode == 0, proc.stderr
        roots = [float(x) for x in proc.stdout.split()]
        assert len(roots) == len(lams)
        for lam, kap in zip(lams, roots):
            assert levy.psi(BinaryUniform(1.0), 1.0, kap) == pytest.approx(lam, rel=1e-12)

    def test_kappa_small_lambda(self):
        assert levy.kappa_root(BinaryUniform(1.0), 1.0, 1e-9) < 1e-8
        assert levy.kappa_root(BinaryUniform(1.0), 1.0, 0.0) == 0.0

    @pytest.mark.parametrize(
        "model", [BinaryUniform(1.0), BinaryPoint(1.0, 0.6), BinaryBeta(2.0, 2.0)]
    )
    def test_root_property_and_monotone_in_lambda(self, model):
        prev = 0.0
        for lam in (0.5, 1.0, 2.0, 4.0):
            kap = levy.kappa_root(model, 1.0, lam)
            assert levy.psi(model, 1.0, kap) == pytest.approx(lam, abs=1e-10)
            assert kap > prev
            prev = kap


class TestBisect:
    def test_returns_the_midpoint_once_wide_fails(self):
        probes = []

        def below(x):
            probes.append(x)
            return x < 0.3

        wide = lambda lo, hi: hi - lo > 0.25  # noqa: E731
        assert plain_bisect(below, 0.0, 1.0, wide) == 0.375
        assert probes == [0.5, 0.25]
        evaluated = []

        def h(x):
            evaluated.append(x)
            return 0.3 - x

        assert levy.bisect(h, 0.0, 1.0, wide) == 0.375
        # The narrowing closes [a, b] on the root 0.3 to one ulp, so the
        # replay knows the sign at both plain probes and evaluates neither.
        assert evaluated[:2] == [0.0, 1.0] and not set(evaluated) & set(probes)

    def test_stops_at_a_one_ulp_bracket(self):
        brackets, probes, evaluated = [], [], []

        def wide(lo, hi):
            brackets.append((lo, hi))
            return True

        def h(x):
            evaluated.append(x)
            return 1.0 / 3.0 - x

        root = levy.bisect(h, 0.0, 1.0, wide)
        lo, hi = brackets[-1]
        assert math.nextafter(lo, math.inf) == hi and root in (lo, hi)
        assert lo < 1.0 / 3.0 <= hi
        assert root == plain_bisect(lambda x: probes.append(x) or x < 1.0 / 3.0, 0.0, 1.0,
                                    lambda lo, hi: True)
        assert len(evaluated) < len(probes) / 2

    # repr of kappa_root at the README constants (theta = 1, lam = q + theta*gamma = 2)
    # before kappa_root and bisect_b_star shared one bisection.
    README_KAPPA = [(BinaryUniform(1.0), "2.561552812808827"),
                    (BinaryPoint(1.0, 0.7), "2.7237407078131355"),
                    (BinaryBeta(1.0, 0.5), "2.4109420609132712"),
                    (BinaryUniform(0.0), "1.9999999999995453")]

    @pytest.mark.parametrize("model,kappa", README_KAPPA,
                             ids=["uniform", "point0.7", "beta0.5", "none"])
    def test_kappa_root_unchanged_at_the_readme_constants(self, model, kappa):
        assert repr(levy.kappa_root(model, 1.0, 2.0)) == kappa


def _signed(shape: str, r: float, k: float):
    """A function that decreases through r and rounds monotonically: h(x) > 0 below r."""
    if shape == "linear":
        return lambda x: k * (r - x)
    if shape == "square":
        return lambda x: k * (r - x) * abs(r - x)
    if shape == "kinked":
        return lambda x: (r - x) * (k if x < r else 1.0 / k)
    return lambda x: k * (r - x) + (k if x < r else 0.0)  # a step at r


def _noise(x: float) -> float:
    """A fixed pseudo-random number in [-1, 1] for each float x."""
    return (hash(x) % 2001 - 1000) / 1000.0


_BRACKETS = st.tuples(st.floats(-1e3, 1e3), st.floats(-12.0, 4.0)).map(
    lambda t: (t[0], t[0] + 10.0 ** t[1])).filter(lambda b: b[0] < b[1])
_WIDE = st.one_of(
    st.floats(-17.0, 0.0).map(lambda e: ("absolute", e)),
    st.sampled_from([-16.0, -6.0, 3.0]).map(lambda e: ("relative", e)),
    st.just(("never", 0.0)))


def _wide(kind: str, e: float, lo: float, hi: float):
    if kind == "absolute":
        tol = (hi - lo) * 10.0 ** e
        return lambda lo, hi: hi - lo > tol
    if kind == "relative":
        return lambda lo, hi: hi - lo > 10.0 ** e * max(abs(lo), abs(hi))
    return lambda lo, hi: True


def _replay_matches(h, lo, hi, wide, margin=0.0):
    plain = plain_bisect(lambda x: h(x) > 0.0, lo, hi, wide)
    assert levy.bisect(h, lo, hi, wide, margin=margin) == plain
    assert levy.bisect(h, lo, hi, wide, h_lo=h(lo), h_hi=h(hi), margin=margin) == plain


class TestBisectReplay:
    """levy.bisect returns the float of the plain halving in tests/conftest.py."""

    @settings(max_examples=300, deadline=None)
    @given(bracket=_BRACKETS, at=st.floats(-0.25, 1.25), k=st.floats(1e-3, 1e3),
           shape=st.sampled_from(["linear", "square", "kinked", "step"]), wide=_WIDE)
    def test_decreasing_h(self, bracket, at, k, shape, wide):
        lo, hi = bracket
        _replay_matches(_signed(shape, lo + at * (hi - lo), k), lo, hi, _wide(*wide, lo, hi))

    @settings(max_examples=200, deadline=None)
    @given(bracket=_BRACKETS, pick=st.floats(0.0, 1.0), k=st.floats(1e-3, 1e3), wide=_WIDE)
    def test_root_at_a_midpoint_or_at_lo(self, bracket, pick, k, wide):
        lo, hi = bracket
        wide = _wide(*wide, lo, hi)
        probes = [lo]
        plain_bisect(lambda x: probes.append(x) or x < lo + 0.3 * (hi - lo), lo, hi, wide)
        _replay_matches(_signed("linear", probes[int(pick * (len(probes) - 1))], k), lo, hi, wide)

    @settings(max_examples=200, deadline=None)
    @given(bracket=_BRACKETS, at=st.floats(0.0, 1.0),
           gaps=st.tuples(st.floats(-15.0, 0.0), st.floats(-15.0, 0.0)),
           above=st.sampled_from([math.nan, -math.inf]), wide=_WIDE)
    def test_h_not_finite_on_part_of_the_bracket(self, bracket, at, gaps, above, wide):
        # +inf below the root, and nan or -inf above it, beyond gaps of 1e-15 to 1 of the way
        # to the ends.
        lo, hi = bracket
        r = lo + at * (hi - lo)
        below_at, above_at = r - 10.0 ** gaps[0] * (r - lo), r + 10.0 ** gaps[1] * (hi - r)
        linear = _signed("linear", r, 1.0)

        def h(x):
            return math.inf if x < below_at else above if x > above_at else linear(x)

        _replay_matches(h, lo, hi, _wide(*wide, lo, hi))

    @settings(max_examples=200, deadline=None)
    @given(bracket=_BRACKETS, at=st.floats(0.0, 1.0), k=st.floats(1e-3, 1e3),
           noise=st.floats(-12.0, -2.0), wide=_WIDE)
    def test_noisy_h_within_its_margin(self, bracket, at, k, noise, wide):
        # h errs by up to delta, so its sign may flip within delta/k of the root.
        lo, hi = bracket
        r, delta = lo + at * (hi - lo), k * (hi - lo) * 10.0 ** noise
        _replay_matches(lambda x: k * (r - x) + delta * _noise(x), lo, hi, _wide(*wide, lo, hi),
                        margin=2.5 * delta / k)


_FAMILIES = st.one_of(
    st.floats(1e-3, 10.0).map(BinaryUniform),
    st.tuples(st.floats(1e-3, 10.0), st.floats(0.5, 1.0, exclude_max=True)).map(
        lambda t: BinaryPoint(*t)),
    st.tuples(st.floats(1e-3, 10.0), st.floats(-3.0, 6.0)).map(
        lambda t: BinaryBeta(t[0], 10.0 ** t[1])),
    st.just(BinaryUniform(0.0)))


class TestKappaRootReplay:
    @settings(max_examples=300, deadline=None)
    @given(model=_FAMILIES, theta_over=st.floats(-3.0, 2.0), lam=st.floats(-9.0, 4.0))
    # psi(hi) rounds one ulp below lam, far more than KAPPA_TOL * theta.
    @example(model=BinaryUniform(0.0), theta_over=-2.625, lam=1.9)
    def test_equals_the_plain_halving(self, model, theta_over, lam):
        theta = levy.phi_prime0(model) + 10.0 ** theta_over
        lam = 10.0 ** lam
        assert levy.kappa_root(model, theta, lam) == plain_kappa_root(model, theta, lam)

    @pytest.mark.parametrize("model", [BinaryUniform(1.0), BinaryPoint(1.0, 0.7),
                                       BinaryBeta(1.0, 0.5), BinaryBeta(1.0, 3.0)],
                             ids=["uniform", "point0.7", "beta0.5", "beta3"])
    def test_phi_calls_at_the_readme_constants(self, model, monkeypatch):
        calls = []
        phi = levy.phi
        monkeypatch.setattr(levy, "phi", lambda *args: calls.append(args) or phi(*args))
        levy.kappa_root(model, 1.0, 2.0)
        assert len(calls) <= 12  # 43 by the plain halving


class TestTilt:
    @pytest.mark.parametrize(
        "model", [BinaryUniform(1.0), BinaryPoint(1.0, 0.6), BinaryBeta(1.5, 2.0)]
    )
    def test_tilted_rate_matches_jump_measure_quadrature(self, model):
        # integral of e^{-kappa x} against the jump measure, pulled back to the
        # split variable: rate * E[s^(1+kappa) + (1-s)^(1+kappa)].
        kap = 1.7
        expected = model.rate - levy.phi(model, kap)
        if isinstance(model, BinaryPoint):
            s = model.s0
            direct = model.rate * (s ** (1 + kap) + (1 - s) ** (1 + kap))
        else:
            direct, _ = integrate.quad(
                lambda s: (s ** (1 + kap) + (1 - s) ** (1 + kap)) * split_density(model, s),
                0.5, 1.0,
            )
            direct *= model.rate
        assert expected == pytest.approx(direct, abs=1e-10)

    def test_point_jump_is_constant_under_any_tilt(self, rng):
        model = BinaryPoint(1.0, 0.5)
        for kap in (0.0, 1.3, 4.0):
            np.testing.assert_allclose(levy.sample_jump(model, kap, 20, rng), math.log(2.0),
                                       rtol=0.0, atol=1e-15)

    def test_uniform_size_biased_law(self, rng):
        # P(jump <= log 2) = P(pick is the larger fragment) = 3/4.
        n = 100_000
        draws = levy.sample_jump(BinaryUniform(1.0), 0.0, n, rng)
        frac = np.mean(draws <= math.log(2.0))
        se = math.sqrt(0.75 * 0.25 / n)
        assert abs(frac - 0.75) <= 3.0 * se


JUMP_MODELS = [
    BinaryUniform(1.0), BinaryPoint(1.0, 0.7), BinaryBeta(1.0, 0.5), BinaryBeta(1.0, 3.0),
]
JUMP_IDS = ["uniform", "point", "beta0.5", "beta3"]


class TestJumpLaws:
    # Under the kappa tilt the jump x = -log(pick) has law proportional to
    # pick^kappa times the size-biased pick law, so for u > 0
    # E[exp(-u x)] = split_power_mean(kappa + u) / split_power_mean(kappa).
    N = 20_000

    @staticmethod
    def _check(model, kappa, draws):
        for u in (1.0, 2.0):
            vals = np.exp(-u * draws)
            target = levy.split_power_mean(model, kappa + u) / levy.split_power_mean(model, kappa)
            se = vals.std(ddof=1) / math.sqrt(vals.size)
            assert abs(vals.mean() - target) <= 4.0 * se, (u, vals.mean(), target, se)

    @staticmethod
    def _kappas(model):
        ref = levy.make_params(model, gamma=1.0, theta=1.0, q=1.0, c=0.25)
        return (0.0, ref.kappa)

    @pytest.mark.parametrize("model", JUMP_MODELS, ids=JUMP_IDS)
    def test_scalar_sampler_matches_phi(self, model):
        # The scalar reference sampler behind the reference walks in conftest.
        for i, kappa in enumerate(self._kappas(model)):
            rng = substream(41, "scalar-jump", i)
            draws = np.array([scalar_jump(model, kappa, rng) for _ in range(self.N)])
            self._check(model, kappa, draws)

    @pytest.mark.parametrize("model", JUMP_MODELS, ids=JUMP_IDS)
    def test_batched_sampler_matches_phi(self, model):
        for i, kappa in enumerate(self._kappas(model)):
            draws = levy.sample_jump(model, kappa, self.N, substream(41, "batched-jump", i))
            self._check(model, kappa, draws)

    @pytest.mark.parametrize("n", [0, 1, 700, 1024, 5000])
    @pytest.mark.parametrize("model", JUMP_MODELS, ids=JUMP_IDS)
    def test_bit_equal_to_rowwise_draws(self, model, n):
        # Physical draws: one rng.random((2, m)) call draws what two
        # rng.random(m) calls drew, and leaves the generator where they left
        # it.  Point families reweight their atoms under any tilt.
        point = isinstance(model, BinaryPoint)
        for kappa in (*self._kappas(model), 0.4) if point else (0.0,):
            new, old = (np.random.default_rng(n), np.random.default_rng(n))
            assert np.array_equal(levy.sample_jump(model, kappa, n, new),
                                  rowwise_sample_jump(model, kappa, n, old))
            assert new.exponential(1.0, 3).tolist() == old.exponential(1.0, 3).tolist()

    @pytest.mark.parametrize("model", [m for m in JUMP_MODELS if not isinstance(m, BinaryPoint)],
                             ids=[i for i in JUMP_IDS if i != "point"])
    def test_tilted_moments_match_rowwise_draws(self, model):
        # The exact tilted law against the rejection rounds it replaced.
        for i, kappa in enumerate((self._kappas(model)[1], 0.4)):
            new = levy.sample_jump(model, kappa, self.N, substream(42, "exact-jump", i))
            old = rowwise_sample_jump(model, kappa, self.N, substream(42, "rowwise-jump", i))
            for k in (1, 2):
                a, b = new**k, old**k
                se = math.hypot(a.std(ddof=1), b.std(ddof=1)) / math.sqrt(self.N)
                assert abs(a.mean() - b.mean()) <= 4.0 * se, (kappa, k, a.mean(), b.mean(), se)

    @pytest.mark.parametrize("model", JUMP_MODELS, ids=JUMP_IDS)
    def test_split_quantile_inverts_split_law(self, model):
        # Midpoint rule over u in [0, 1): E[s^(1+p) + (1-s)^(1+p)] with
        # s = split_quantile(u) must equal the closed-form power mean.
        s = levy.split_quantile(model, (np.arange(100_000) + 0.5) / 100_000)
        assert np.all((0.5 <= s) & (s < 1.0))
        for p in (0.5, 1.0, 3.0):
            got = np.mean(s ** (1.0 + p) + (1.0 - s) ** (1.0 + p))
            assert got == pytest.approx(levy.split_power_mean(model, p), rel=1e-6)


class TestMakeParams:
    def test_derived_quantities(self, ref_model, ref_params):
        assert ref_params.lam == pytest.approx(2.0)
        assert ref_params.kappa > ref_params.gamma
        assert levy.p_lower(ref_model) == -2.0

    def test_a2_violation_names_assumption(self):
        with pytest.raises(AssumptionError, match="A2"):
            levy.make_params(BinaryUniform(4.0), gamma=1.0, theta=1.0, q=1.0, c=1.0)

    def test_q_zero_gate(self):
        model = BinaryUniform(1.0)
        with pytest.raises(AssumptionError, match="allow_q_zero"):
            levy.make_params(model, gamma=1.0, theta=1.0, q=0.0, c=1.0)
        params = levy.make_params(
            model, gamma=1.0, theta=1.0, q=0.0, c=1.0, allow_q_zero=True
        )
        assert params.lam == pytest.approx(1.0)
        assert params.kappa > params.gamma  # nontrivial family keeps the gap

    def test_bad_constants_rejected(self):
        with pytest.raises(InvalidModelError):
            levy.make_params(BinaryUniform(1.0), gamma=-1.0, theta=1.0, q=1.0, c=1.0)
        with pytest.raises(InvalidModelError):
            levy.make_params(BinaryUniform(1.0), gamma=1.0, theta=1.0, q=1.0, c=0.0)
