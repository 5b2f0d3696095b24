import math

import numpy as np
import pytest

from fragstop import expfun, levy, pathsim
from fragstop.levy import AssumptionError, BinaryBeta, BinaryPoint, BinaryUniform
from fragstop.streams import substream

from conftest import ZState, simulate_Z_path


class TestSegmentForms:
    def test_crossing_inverts_advance(self, rng):
        gt = 1.3
        for _ in range(50):
            z0 = rng.uniform(0.01, 5.0)
            b = z0 + rng.uniform(0.01, 5.0)
            dt = pathsim.z_crossing_dt(z0, b, gt)
            assert pathsim.z_advance(z0, dt, gt) == pytest.approx(b, rel=1e-12)

    def test_segment_integral_matches_quadrature(self):
        from scipy import integrate

        val = pathsim.segment_exp_integral(0.7, 1.3, gamma=2.0, theta=0.5)
        quad, _ = integrate.quad(lambda s: math.exp(2.0 * (0.7 - 0.5 * s)), 0.0, 1.3)
        assert val == pytest.approx(quad, rel=1e-10)


class TestFirstPassage:
    def test_start_above_threshold(self, degen_model, degen_params, rng):
        tau, hit = pathsim.simulate_Z_first_passage(degen_model, degen_params, 0.1, rng)
        assert tau == 0.0 and hit

    def test_degenerate_closed_form(self, rng):
        model = BinaryUniform(0.0)
        params = levy.make_params(model, gamma=1.0, theta=1.0, q=1.0, c=1.0)
        tau, hit = pathsim.simulate_Z_first_passage(model, params, 2.0, rng)
        assert hit
        assert tau == pytest.approx(math.log(1.5), abs=1e-12)

    def test_start_at_threshold(self, ref_model, ref_params, rng):
        tau, hit = pathsim.simulate_Z_first_passage(
            ref_model, ref_params, ref_params.c, rng
        )
        assert tau == 0.0 and hit

    def test_passage_is_finite_under_drift_assumption(self, ref_model, ref_params, rng):
        for _ in range(200):
            tau, hit = pathsim.simulate_Z_first_passage(ref_model, ref_params, 2.0, rng)
            assert hit and tau < 1e3


class TestZPath:
    def test_degenerate_matches_ode(self, rng):
        model = BinaryUniform(0.0)
        params = levy.make_params(model, gamma=1.0, theta=1.0, q=1.0, c=1.0)
        states = simulate_Z_path(model, params, 2.5, rng)
        assert len(states) == 2
        assert states[-1].z == pytest.approx(2.0 * math.exp(2.5) - 1.0, rel=1e-12)

    def test_zero_horizon_single_state(self, ref_model, ref_params, rng):
        states = simulate_Z_path(ref_model, ref_params, 0.0, rng)
        assert states == [ZState(0.0, 0.0, ref_params.c, 0.0)]

    def test_state_invariant_and_downward_jumps(self, ref_model, ref_params, rng):
        for _ in range(50):
            states = simulate_Z_path(ref_model, ref_params, 4.0, rng)
            prev_end = None
            for s in states:
                recon = math.exp(-ref_params.gamma * s.y) * (s.accrued + ref_params.c)
                assert s.z == pytest.approx(recon, rel=1e-10)
            # z only jumps downward: each post-jump z is below the segment end
            # reached from the previous state.
            for a, b in zip(states, states[1:]):
                seg_end = pathsim.z_advance(a.z, b.t - a.t, ref_params.gt)
                assert b.z <= seg_end + 1e-12

    def test_grid_sampling_matches_path(self, ref_model, ref_params):
        times = np.array([0.5, 1.0, 2.0])
        zs = pathsim.simulate_Z_at_times(ref_model, ref_params, times, substream(3, "grid"))
        assert zs.shape == (3,)
        assert np.all(zs > 0.0)

    def test_discounted_transience(self, ref_model, ref_params):
        # The discounted process dies out: its mean decreases along T = 5, 10, 20.
        rng = substream(11, "transience")
        horizons = np.array([5.0, 10.0, 20.0])
        n = 10_000
        vals = np.empty((n, 3))
        for i in range(n):
            z = pathsim.simulate_Z_at_times(ref_model, ref_params, horizons, rng)
            vals[i] = np.exp(-ref_params.lam * horizons) * z
        means = vals.mean(axis=0)
        assert means[0] > means[1] > means[2]


def scalar_I_infty(tilted, params, m1, rng, rel_tol=1e-6, max_steps=1_000_000):
    """One lifetime-integral draw by the per-jump loop (reference sampler).

    Retires on the same rule as the batched sampler, so both target the
    same law; m1 is the tail mean.
    """
    gamma, theta = params.gamma, params.theta
    y, acc = 0.0, 0.0
    scale = 1.0 / tilted.jump_rate
    for _ in range(max_steps):
        w = rng.exponential(scale)
        acc += pathsim.segment_exp_integral(y, w, gamma, theta)
        y -= theta * w
        y += levy.sample_jump(tilted.model, tilted.kappa, rng)
        if math.exp(gamma * y) < rel_tol * acc:
            return acc + math.exp(gamma * y) * m1
    raise AssertionError(f"reference draw did not converge within {max_steps} jumps")


class TestLifetimeIntegral:
    def test_degenerate_exact(self, degen_model, degen_params, rng):
        dyn = levy.tilt(degen_model, degen_params)
        draws = pathsim.simulate_I_infty(dyn, degen_params, rng, 8)
        assert draws.shape == (8,)
        assert draws == pytest.approx(np.ones(8), abs=1e-14)

    def test_degenerate_other_scale(self, rng):
        model = BinaryUniform(0.0)
        params = levy.make_params(model, gamma=2.0, theta=0.25, q=1.0, c=1.0)
        dyn = levy.tilt(model, params)
        draws = pathsim.simulate_I_infty(dyn, params, rng, 8)
        assert draws == pytest.approx(np.full(8, 2.0), abs=1e-12)

    def test_tail_correction_is_nonnegative(self, ref_model, ref_params):
        # The stopping rule ignores the tail mean, so both calls consume the
        # substream identically and the draws pair up elementwise.
        dyn = levy.tilt(ref_model, ref_params)
        with_tail = pathsim.simulate_I_infty(dyn, ref_params, substream(5, "tail"), 50)
        without = pathsim.simulate_I_infty(
            dyn, ref_params, substream(5, "tail"), 50, tail_correction=False
        )
        assert np.all(with_tail >= without)
        assert np.any(with_tail > without)

    def test_untilted_infinite_mean_rejected(self, ref_model, ref_params, rng):
        # At gamma = theta = rate = 1 the physical-measure mean diverges, so
        # the tail correction must refuse rather than return garbage.
        dyn = levy.tilt(ref_model, ref_params, kappa=0.0)
        with pytest.raises(AssumptionError):
            pathsim.simulate_I_infty(dyn, ref_params, rng, 16)

    def test_step_budget_exhausted(self, ref_model, ref_params, rng):
        dyn = levy.tilt(ref_model, ref_params)
        with pytest.raises(AssumptionError, match="failed to converge within 1 jumps"):
            pathsim.simulate_I_infty(dyn, ref_params, rng, 64, max_steps=1)

    @pytest.mark.parametrize(
        "model",
        [BinaryUniform(1.0), BinaryPoint(1.0, 0.7), BinaryBeta(1.0, 0.5), BinaryBeta(1.0, 3.0)],
        ids=["uniform", "point", "beta0.5", "beta3"],
    )
    def test_batched_matches_per_jump_reference(self, model):
        params = levy.make_params(model, gamma=1.0, theta=1.0, q=1.0, c=0.25)
        dyn = levy.tilt(model, params)
        m1 = expfun.moment_recursion(model, params, 1)
        n = 20_000
        rng = substream(31, "per-jump-reference")
        ref = np.array([scalar_I_infty(dyn, params, m1, rng) for _ in range(n)])
        batched = pathsim.simulate_I_infty(dyn, params, substream(31, "batched"), n)
        se_ref = ref.std(ddof=1) / math.sqrt(n)
        se_batched = batched.std(ddof=1) / math.sqrt(n)
        assert abs(batched.mean() - ref.mean()) <= 4.0 * math.hypot(se_ref, se_batched)
        assert abs(ref.mean() - m1) <= 4.0 * se_ref
        assert abs(batched.mean() - m1) <= 4.0 * se_batched


class TestTaggedMassPassage:
    def test_point_family_accrued_identity(self, rng):
        # Before the first jump the lineage mass is 1, so the accrued premium
        # at the passage time ell is exactly (1 - e^{-gt*ell})/gt.
        model = BinaryPoint(1.0, 0.5)
        params = levy.make_params(model, gamma=1.0, theta=1.0, q=1.0, c=1.0)
        for _ in range(50):
            ell, acc = pathsim.simulate_tagged_mass_passage(model, params, 0.6, rng)
            assert acc == pytest.approx(-math.expm1(-ell), rel=1e-12)

    def test_threshold_one_fires_immediately(self, ref_model, ref_params, rng):
        assert pathsim.simulate_tagged_mass_passage(ref_model, ref_params, 1.0, rng) == (0.0, 0.0)
