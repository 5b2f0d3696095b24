import math
import warnings

import numpy as np
import pytest

from fragstop import expfun, levy, pathsim, stopsolve
from fragstop.levy import BinaryUniform, DomainError

from conftest import closed_form_jumps_per_draw


class TestEstimateMoment:
    def test_order_zero(self, ref_sample):
        est = expfun.estimate_moment(ref_sample, 0.5, 0.0)
        assert est.value == 1.0
        assert est.std_error == 0.0

    def test_degenerate_square(self, degen_sample):
        est = expfun.estimate_moment(degen_sample, 1.0, 2.0)
        assert est.value == pytest.approx(4.0, abs=1e-12)
        assert est.std_error == 0.0

    def test_order_out_of_range(self, ref_sample, ref_params):
        with pytest.raises(DomainError):
            expfun.estimate_moment(ref_sample, 0.0, ref_params.kappa / ref_params.gamma + 0.1)

    def test_negative_shift_rejected(self, ref_sample):
        with pytest.raises(DomainError):
            expfun.estimate_moment(ref_sample, -0.5, 1.0)

    def test_monotone_in_shift(self, ref_sample):
        vals = [expfun.estimate_moment(ref_sample, a, 1.5).value for a in (0.0, 0.5, 1.0, 2.0)]
        assert vals == sorted(vals)
        assert len(set(vals)) == len(vals)

    def test_monotone_in_order_above_one(self, ref_sample):
        # With shift 1 every term a + I exceeds 1, so powers increase samplewise.
        vals = [expfun.estimate_moment(ref_sample, 1.0, s).value for s in (0.0, 0.5, 1.0, 2.0)]
        assert vals == sorted(vals)

    def test_value_bounded_below_by_shift_power(self, ref_sample):
        est = expfun.estimate_moment(ref_sample, 2.0, 1.5)
        assert est.value >= 2.0**1.5

    def test_unstable_variance_flag(self, ref_params, ref_sample):
        draws = np.ones(1000)
        draws[-1] = 1e4  # lone outlier in the second half moves the error estimate
        sample = expfun.SharedSample(
            draws=draws, gamma=1.0, kappa=ref_params.kappa,
            lam=ref_params.lam, rel_tol=0.0, seed=0,
        )
        assert expfun.estimate_moment(sample, 0.0, 2.0).unstable_variance
        assert not expfun.estimate_moment(ref_sample, 0.0, 1.0).unstable_variance


class TestMomentEstimateOf:
    def test_large_finite_values_are_rescaled(self):
        # Squared deviations of 1e199 overflow; the estimate must not.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            big = expfun.MomentEstimate.of(np.array([1e199, 3e199, 2e199]))
        unit = expfun.MomentEstimate.of(np.array([1.0, 3.0, 2.0]))
        assert big.value == pytest.approx(1e199 * unit.value, rel=1e-15, abs=0.0)
        assert big.std_error == pytest.approx(1e199 * unit.std_error, rel=1e-15, abs=0.0)
        assert big.n_samples == 3

    def test_infinite_values_stay_infinite(self):
        with np.errstate(invalid="ignore"):  # inf - inf in the deviations
            est = expfun.MomentEstimate.of(np.array([1.0, np.inf]))
        assert est.value == np.inf and math.isnan(est.std_error)


class TestMomentRecursion:
    def test_order_zero_is_one(self, ref_model, ref_params):
        assert expfun.moment_recursion(ref_model, ref_params, 0) == 1.0

    def test_degenerate_first_moment(self):
        model = BinaryUniform(0.0)
        params = levy.make_params(model, gamma=1.0, theta=1.0, q=1.0, c=1.0)
        assert expfun.moment_recursion(model, params, 1) == pytest.approx(1.0, abs=1e-10)

    def test_reference_first_moment_closed_form(self, ref_model, ref_params):
        kap = (1.0 + math.sqrt(17.0)) / 2.0
        expected = 1.0 / (2.0 - levy.psi(ref_model, 1.0, kap - 1.0))
        assert expfun.moment_recursion(ref_model, ref_params, 1) == pytest.approx(
            expected, rel=1e-10
        )

    def test_out_of_range(self, ref_model, ref_params):
        # The tail index of I is 4.12 here, so order 5 has no finite moment.
        with pytest.raises(DomainError):
            expfun.moment_recursion(ref_model, ref_params, 5)

    def test_orders_past_kappa_over_gamma(self, ref_model, ref_params):
        # kappa/gamma ~ 2.56 is no bound: orders 3 and 4 lie below the tail
        # index and match the reciprocal-Beta law of I (tests/test_exact_law.py).
        assert expfun.moment_recursion(ref_model, ref_params, 3) == pytest.approx(1.913024, abs=5e-7)
        assert expfun.moment_recursion(ref_model, ref_params, 4) == pytest.approx(8.726362, abs=5e-7)

    def test_monte_carlo_agreement(self, ref_model, ref_params, ref_sample):
        for n in (1, 2):
            mc = expfun.estimate_moment(ref_sample, 0.0, float(n))
            oracle = expfun.moment_recursion(ref_model, ref_params, n)
            assert abs(mc.value - oracle) <= 3.0 * mc.std_error


class TestFOfB:
    def test_degenerate_closed_form(self, degen_params, degen_sample):
        for b in (0.25, 1.0, 3.0):
            assert expfun.f_of_b(degen_sample, degen_params, b) == pytest.approx(
                1.0 + 1.0 / b, rel=1e-12
            )

    def test_limits(self, ref_params, ref_sample):
        assert expfun.f_of_b(ref_sample, ref_params, 1e6) == pytest.approx(1.0, abs=1e-3)
        assert expfun.f_of_b(ref_sample, ref_params, 1e-6) > 1e3

    def test_strictly_decreasing_samplewise(self, ref_model, ref_params, ref_sample):
        sample = ref_sample
        for attempt in range(2):
            grid = ref_params.c * 2.0 ** np.arange(-5, 6)
            vals = np.array([expfun.f_of_b(sample, ref_params, b) for b in grid])
            drops = -np.diff(vals)
            if np.all(drops > 1e-9):
                break
            # Sample-level tie below resolution: retry once with 10x draws.
            assert attempt == 0, "inversion persisted after enlarging the sample"
            sample = expfun.draw_shared_sample(
                ref_model, ref_params, 10 * ref_sample.n, seed=ref_sample.seed + 1
            )
        assert np.all(drops > 0.0)

    def test_invalid_b(self, ref_params, ref_sample):
        with pytest.raises(DomainError):
            expfun.f_of_b(ref_sample, ref_params, 0.0)

    def test_underflow_is_nan_and_no_bracket(self):
        # p = kappa/gamma is about 2,500 and every c + I is below 0.3, so
        # (c + I)^(p-1) underflows on every draw: f(c) is 0/0, and bisection
        # cannot start (it once raised ZeroDivisionError).
        model = BinaryUniform(0.83)
        params = levy.make_params(model, gamma=0.39, theta=100.0, q=1e5, c=0.24)
        sample = expfun.draw_shared_sample(model, params, 100, seed=1)
        assert math.isnan(expfun.f_of_b(sample, params, params.c))
        with pytest.raises(stopsolve.DivergenceError, match="f\\(c\\) is not finite"):
            stopsolve.bisect_b_star(params, sample)


class TestRatioOfPowerMeans:
    def test_equal_shifts_give_one(self, ref_params, ref_sample):
        p = ref_params.kappa / ref_params.gamma
        ratio, se = expfun.ratio_of_power_means(ref_sample, 0.7, 0.7, p)
        assert ratio == 1.0
        assert se == pytest.approx(0.0, abs=1e-8)  # cancellation leaves rounding dust

    def test_ratio_below_one_for_larger_denominator(self, ref_params, ref_sample):
        ratio, se = expfun.ratio_of_power_means(ref_sample, 0.25, 0.5, 2.0)
        assert 0.0 < ratio < 1.0
        assert se > 0.0


class TestSharedSample:
    def test_meta_roundtrip(self, ref_sample):
        meta = ref_sample.meta()
        assert meta["n_samples"] == ref_sample.n
        assert meta["seed"] == ref_sample.seed

    def test_reproducible(self, ref_model, ref_params, ref_sample):
        again = expfun.draw_shared_sample(
            ref_model, ref_params, 2048, seed=ref_sample.seed
        )
        assert np.array_equal(again.draws, ref_sample.draws[:2048])

    def test_prefix_across_chunk_boundary(self, ref_model, ref_params, ref_sample):
        # 5000 draws end inside the second chunk, which must still be
        # simulated in full so its first draws match the larger sample's.
        assert 5000 > expfun.SAMPLE_CHUNK
        again = expfun.draw_shared_sample(
            ref_model, ref_params, 5000, seed=ref_sample.seed
        )
        assert np.array_equal(again.draws, ref_sample.draws[:5000])


def readme_params(model, gamma: float, q: float):
    return levy.make_params(model, gamma=gamma, theta=1.0, q=q, c=0.25)


class TestJumpBudget:
    @pytest.mark.parametrize("model", [BinaryUniform(1.0), levy.BinaryPoint(1.0, 0.7),
                                       levy.BinaryBeta(1.0, 3.0)],
                             ids=["uniform", "point0.7", "beta3"])
    @pytest.mark.parametrize("q", [1.0, 1e-12])
    def test_prediction_matches_counted_jumps(self, model, q, monkeypatch):
        params = readme_params(model, 0.1, q)
        jumps = 0
        sample_jump = levy.sample_jump

        def counted_jumps(model, kappa, n, rng):
            nonlocal jumps
            jumps += n
            return sample_jump(model, kappa, n, rng)

        predicted = pathsim.predicted_jumps_per_draw(model, params, 1e-6)
        assert predicted == pytest.approx(closed_form_jumps_per_draw(model, params, 1e-6),
                                          rel=1e-9)
        monkeypatch.setattr(levy, "sample_jump", counted_jumps)
        pathsim.simulate_I_infty(model, params, np.random.default_rng(5), 4096)
        assert predicted == pytest.approx(jumps / 4096, rel=0.02)

    @pytest.mark.parametrize("model", [BinaryUniform(1.0), levy.BinaryPoint(1.0, 0.7),
                                       levy.BinaryBeta(1.0, 3.0), levy.BinaryBeta(1.0, 0.5),
                                       BinaryUniform(0.0)],
                             ids=["uniform", "point0.7", "beta3", "beta0.5", "none"])
    def test_prediction_matches_the_closed_form(self, model):
        # The prediction reads levy.psi and moment_recursion; the closed form
        # writes psi out through split_power_mean.
        for gamma in (1e-5, 1e-2, 1.0, 1e3):
            for q in (1e-12, 1.0, 100.0):
                params = readme_params(model, gamma, q)
                assert pathsim.predicted_jumps_per_draw(model, params, 1e-6) == pytest.approx(
                    closed_form_jumps_per_draw(model, params, 1e-6), rel=1e-9)

    def test_one_config_on_each_side_of_the_budget(self, monkeypatch):
        # The README model at q = 1e-12 and 20 samples, one simulated chunk of
        # 4096 draws: gamma = 1e-4 takes about 10 s, gamma = 1e-5 would take minutes.
        def stub(model, params, rng, n, *, rel_tol):
            return np.ones(n)

        monkeypatch.setattr(pathsim, "simulate_I_infty", stub)
        model = BinaryUniform(1.0)
        under, over = readme_params(model, 1e-4, 1e-12), readme_params(model, 1e-5, 1e-12)
        for params, total in ((under, 3.2e8), (over, 1.32e9)):
            predicted = expfun.SAMPLE_CHUNK * pathsim.predicted_jumps_per_draw(model, params, 1e-6)
            assert predicted == pytest.approx(total, rel=0.01)
        assert expfun.draw_shared_sample(model, under, 20, seed=1).n == 20
        with pytest.raises(levy.AssumptionError, match="past the budget of 1e"):
            expfun.draw_shared_sample(model, over, 20, seed=1)
