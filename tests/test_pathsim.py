import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from fragstop import expfun, levy, pathsim
from fragstop.levy import AssumptionError, BinaryBeta, BinaryPoint, BinaryUniform, DomainError
from fragstop.streams import substream

from conftest import (
    ZState, columnwise_I_infty, fieldwise_I_infty, gathered_walk_Z, indexed_walk_Z,
    masked_tagged_mass_passage, rowwise_sample_jump, scalar_first_passage, scalar_jump,
    scalar_tagged_mass_passage, scalar_Z_at_times, simulate_Z_path, walk_Z_at_times,
    walk_Z_first_passage,
)


class TestSegmentForms:
    def test_crossing_inverts_advance(self, rng):
        gt = 1.3
        z0 = rng.uniform(0.01, 5.0, 50)
        b = z0 + rng.uniform(0.01, 5.0, 50)
        dt = pathsim.z_crossing_dt(z0, b, gt)
        np.testing.assert_allclose(pathsim.z_advance(z0, dt, gt), b, rtol=1e-12)
        assert np.all(pathsim.z_crossing_dt(b, z0, gt) == 0.0)

    def test_crossing_below_the_drift_floor_is_immediate(self):
        # Z never drifts below -1/gt, so any level under it is passed at once;
        # there the log ratio is negative and once gave nan.
        gt = 0.5
        z0 = np.array([0.0, 0.25, 3.0, np.inf])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for b in (-2.0, -2.5, -5.0, -1e300):
                assert pathsim.z_crossing_dt(z0, b, gt).tolist() == [0.0] * 4

    def test_crossing_bits_above_the_floor(self, rng):
        # Above -1/gt the crossing time is the log ratio's, clipped at 0, as before.
        gt = 0.5
        z0 = rng.uniform(0.0, 5.0, 1000)
        for b in (-1.999, -1.0, 0.0, 0.3, 2.0, 7.0):
            old = np.maximum(np.log((b + 1.0 / gt) / (z0 + 1.0 / gt)) / gt, 0.0)
            assert np.array_equal(pathsim.z_crossing_dt(z0, b, gt), old)

    def test_segment_integral_matches_quadrature(self):
        from scipy import integrate

        val = pathsim.segment_exp_integral(0.7, 1.3, gamma=2.0, theta=0.5)
        quad, _ = integrate.quad(lambda s: math.exp(2.0 * (0.7 - 0.5 * s)), 0.0, 1.3)
        assert val == pytest.approx(quad, rel=1e-10)


class TestFirstPassage:
    def test_start_above_threshold(self, degen_model, degen_params, rng):
        tau = pathsim.simulate_Z_first_passage(degen_model, degen_params, [0.1], 5, rng)
        assert tau.shape == (5, 1) and np.all(tau == 0.0)

    def test_degenerate_closed_form(self, rng):
        model = BinaryUniform(0.0)
        params = levy.make_params(model, gamma=1.0, theta=1.0, q=1.0, c=1.0)
        tau = pathsim.simulate_Z_first_passage(model, params, [2.0], 5, rng)
        np.testing.assert_allclose(tau, math.log(1.5), rtol=0.0, atol=1e-12)

    def test_start_at_threshold(self, ref_model, ref_params, rng):
        tau = pathsim.simulate_Z_first_passage(ref_model, ref_params, [ref_params.c], 5, rng)
        assert np.all(tau == 0.0)

    def test_passage_is_finite_under_drift_assumption(self, ref_model, ref_params, rng):
        tau = pathsim.simulate_Z_first_passage(ref_model, ref_params, [2.0], 200, rng)
        assert np.all(tau < 1e3)

    def test_levels_share_paths(self, ref_model, ref_params):
        # One walk serves every level: each level's column is the walk of that
        # level alone, and passage times increase with the level.
        levels = [0.3, 0.5, 1.0]
        tau = pathsim.simulate_Z_first_passage(ref_model, ref_params, levels, 500,
                                               substream(12, "levels"))
        assert np.all(np.diff(tau, axis=1) > 0.0)
        top = pathsim.simulate_Z_first_passage(ref_model, ref_params, levels[-1:], 500,
                                               substream(12, "levels"))
        np.testing.assert_array_equal(tau[:, -1], top[:, 0])

    def test_step_budget_exhausted(self, ref_model, ref_params, rng, monkeypatch):
        # The Z walks once had no step budget; now they stop as the other walks do.
        monkeypatch.setattr(pathsim, "MAX_STEPS", 1)
        with pytest.raises(AssumptionError, match="Z paths did not reach 5.0 within 1 jumps"):
            pathsim.simulate_Z_first_passage(ref_model, ref_params, [0.5, 5.0], 64, rng)

    def test_horizon_misses_discount_to_zero(self, ref_model, ref_params):
        # A path whose clock passes the horizon at a jump before it reaches a
        # level misses it: inf passage time, discount exactly 0.
        levels, lam = [0.5, 1.0], ref_params.lam
        tau = pathsim.simulate_Z_first_passage(ref_model, ref_params, levels, 2000,
                                               substream(13, "miss"), horizon=0.05)
        disc = pathsim.first_passage_payoff_sums(ref_model, ref_params, levels, 2000,
                                                 substream(13, "miss"), horizon=0.05)
        missed = np.isinf(tau)
        assert missed[:, 0].sum() > 0 and missed[:, 1].sum() > missed[:, 0].sum()
        assert np.all(disc[missed] == 0.0)
        np.testing.assert_array_equal(disc[~missed], np.exp(-lam * tau[~missed]))


class TestZPath:
    def test_degenerate_matches_ode(self, rng):
        model = BinaryUniform(0.0)
        params = levy.make_params(model, gamma=1.0, theta=1.0, q=1.0, c=1.0)
        states = simulate_Z_path(model, params, 2.5, rng)
        assert len(states) == 2
        assert states[-1].z == pytest.approx(2.0 * math.exp(2.5) - 1.0, rel=1e-12)
        zs = pathsim.simulate_Z_at_times(model, params, [2.5], 3, rng)
        np.testing.assert_allclose(zs, 2.0 * math.exp(2.5) - 1.0, rtol=1e-12)

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

    def test_step_budget_exhausted(self, ref_model, ref_params, rng, monkeypatch):
        monkeypatch.setattr(pathsim, "MAX_STEPS", 1)
        with pytest.raises(AssumptionError, match="Z paths did not reach 2.0 within 1 jumps"):
            pathsim.simulate_Z_at_times(ref_model, ref_params, [0.5, 2.0], 64, rng)

    def test_grid_sampling_matches_path(self, ref_model, ref_params):
        times = np.array([0.5, 1.0, 2.0])
        zs = pathsim.simulate_Z_at_times(ref_model, ref_params, times, 4, substream(3, "grid"))
        assert zs.shape == (4, 3)
        assert np.all(zs > 0.0)

    def test_discounted_transience(self, ref_model, ref_params):
        # The discounted process dies out: its mean decreases along T = 5, 10, 20.
        horizons = np.array([5.0, 10.0, 20.0])
        z = pathsim.simulate_Z_at_times(ref_model, ref_params, horizons, 10_000,
                                        substream(11, "transience"))
        means = (np.exp(-ref_params.lam * horizons) * z).mean(axis=0)
        assert means[0] > means[1] > means[2]


    @pytest.mark.parametrize("rate,theta", [(1.0, 100.0), (1e-300, 1.0)],
                             ids=["theta100", "rate1e-300"])
    def test_overflow_to_inf_is_silent(self, rate, theta):
        # A long drift at a large gamma*theta overflows Z to inf, past every
        # level; the walks must say so without a RuntimeWarning.
        model = BinaryUniform(rate)
        params = levy.make_params(model, gamma=1.0, theta=theta, q=1.0, c=0.25)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            z = pathsim.simulate_Z_at_times(model, params, [0.5, 1000.0], 200,
                                            substream(13, "overflow"))
            tau = pathsim.simulate_Z_first_passage(model, params, [0.5, 1e300], 200,
                                                   substream(13, "overflow"))
        assert np.all(np.isfinite(z[:, 0])) and np.all(np.isinf(z[:, 1]))
        assert np.all(np.isfinite(tau))


# The levels include one below c, a repeat, and some the short horizon misses.
LEVELS, TIMES = [0.1, 0.3, 0.5, 0.5, 1.0, 3.0, 20.0], [0.2, 0.5, 1.0, 2.0, 2.0, 8.0]


@pytest.mark.parametrize(
    "model", [BinaryUniform(1.0), BinaryPoint(1.0, 0.7), BinaryBeta(1.0, 0.5)],
    ids=["uniform", "point", "beta0.5"],
)
def test_next_target_index_keeps_bits(model):
    # Each path keeps the index of its next target; the walk once gathered
    # the live x targets block of its output every step to find them.
    params = levy.make_params(model, gamma=1.0, theta=1.0, q=1.0, c=0.25)
    new = pathsim.simulate_Z_first_passage(model, params, LEVELS, 3000, substream(14, "next"),
                                           horizon=5.0)
    old = walk_Z_first_passage(gathered_walk_Z, model, params, LEVELS, 3000,
                               substream(14, "next"), horizon=5.0)
    assert np.array_equal(new, old)
    assert np.isinf(new[:, -1]).any() and np.isfinite(new[:, -1]).any()
    assert np.array_equal(
        pathsim.simulate_Z_at_times(model, params, TIMES, 3000, substream(14, "next")),
        walk_Z_at_times(gathered_walk_Z, model, params, TIMES, 3000, substream(14, "next")))


@pytest.mark.parametrize(
    "model",
    [BinaryUniform(1.0), BinaryPoint(1.0, 0.7), BinaryBeta(1.0, 0.5), BinaryBeta(1.0, 3.0)],
    ids=["uniform", "point", "beta0.5", "beta3"],
)
class TestOneWalkKernel:
    """Every walk on `pathsim._walk` against its own former loop, bit for bit.

    Each pair of calls starts from one seed and must leave the generator in
    one state, so every walk draws exactly what its loop drew.
    """

    @staticmethod
    def _same(new, old, new_rng, old_rng):
        for a, b in zip(new, old):
            assert np.array_equal(a, b)
        assert new_rng.random(3).tolist() == old_rng.random(3).tolist()

    @pytest.mark.parametrize("n", [1, 3000])
    def test_Z_walks(self, model, n):
        params = levy.make_params(model, gamma=1.0, theta=1.0, q=1.0, c=0.25)
        rngs = substream(15, "kernel", n), substream(15, "kernel", n)
        new = (pathsim.simulate_Z_first_passage(model, params, LEVELS, n, rngs[0], horizon=5.0),
               pathsim.simulate_Z_at_times(model, params, TIMES, n, rngs[0]))
        old = (walk_Z_first_passage(indexed_walk_Z, model, params, LEVELS, n, rngs[1],
                                    horizon=5.0),
               walk_Z_at_times(indexed_walk_Z, model, params, TIMES, n, rngs[1]))
        self._same(new, old, *rngs)

    @pytest.mark.parametrize("rel_tol", [1e-6, 1e-3])
    @pytest.mark.parametrize("n", [1, 1500])
    def test_lifetime_integrals(self, model, n, rel_tol):
        params = levy.make_params(model, gamma=0.5, theta=1.0, q=0.1, c=0.25)
        rngs = substream(16, "kernel", n), substream(16, "kernel", n)
        self._same([pathsim.simulate_I_infty(model, params, rngs[0], n, rel_tol=rel_tol)],
                   [columnwise_I_infty(model, params, rngs[1], n, rel_tol)], *rngs)

    @pytest.mark.parametrize("a", [0.6, 1e-4])
    @pytest.mark.parametrize("n", [1, 3000])
    def test_tagged_mass_passage(self, model, n, a):
        params = levy.make_params(model, gamma=1.0, theta=1.0, q=1.0, c=0.25)
        rngs = substream(17, "kernel", n), substream(17, "kernel", n)
        self._same(pathsim.simulate_tagged_mass_passage(model, params, a, n, rngs[0]),
                   masked_tagged_mass_passage(model, params, a, n, rngs[1]), *rngs)


def scalar_I_infty(model, params, m1, rng, rel_tol=1e-6, max_steps=1_000_000):
    """One lifetime-integral draw under the kappa tilt, by the per-jump loop (reference sampler).

    Jumps arrive at the tilted rate rate - phi(kappa).  Retires on the same
    rule as the batched sampler, so both target the same law; m1 is the
    tail mean.
    """
    gamma, theta, kappa = params.gamma, params.theta, params.kappa
    y, acc = 0.0, 0.0
    scale = 1.0 / (model.rate - levy.phi(model, kappa))
    for _ in range(max_steps):
        w = rng.exponential(scale)
        acc += pathsim.segment_exp_integral(y, w, gamma, theta)
        y -= theta * w
        y += scalar_jump(model, kappa, rng)
        if math.exp(gamma * y) < rel_tol * acc:
            return acc + math.exp(gamma * y) * m1
    raise AssertionError(f"reference draw did not converge within {max_steps} jumps")


class TestLifetimeIntegral:
    def test_degenerate_exact(self, degen_model, degen_params, rng):
        draws = pathsim.simulate_I_infty(degen_model, degen_params, rng, 8)
        assert draws.shape == (8,)
        assert draws == pytest.approx(np.ones(8), abs=1e-14)

    def test_degenerate_other_scale(self, rng):
        model = BinaryUniform(0.0)
        params = levy.make_params(model, gamma=2.0, theta=0.25, q=1.0, c=1.0)
        draws = pathsim.simulate_I_infty(model, params, rng, 8)
        assert draws == pytest.approx(np.full(8, 2.0), abs=1e-12)

    def test_tail_correction_is_nonnegative(self, ref_model, ref_params, monkeypatch):
        # The stopping rule ignores the tail mean, so both calls consume the
        # substream identically and the draws pair up elementwise.
        with_tail = pathsim.simulate_I_infty(ref_model, ref_params, substream(5, "tail"), 50)
        monkeypatch.setattr(pathsim, "moment_recursion", lambda *args: 0.0)
        without = pathsim.simulate_I_infty(ref_model, ref_params, substream(5, "tail"), 50)
        assert np.all(with_tail >= without)
        assert np.any(with_tail > without)

    def test_untilted_infinite_mean_rejected(self, ref_model, ref_params, rng):
        # At gamma = theta = rate = 1 the physical-measure mean diverges, so
        # the tail correction must refuse rather than return garbage.
        with pytest.raises(DomainError, match="infinite"):
            pathsim.simulate_I_infty(ref_model, replace(ref_params, kappa=0.0), rng, 16)

    def test_step_budget_exhausted(self, ref_model, ref_params, rng, monkeypatch):
        monkeypatch.setattr(pathsim, "MAX_STEPS", 1)
        with pytest.raises(AssumptionError, match="failed to converge within 1 jumps"):
            pathsim.simulate_I_infty(ref_model, ref_params, rng, 64)

    @pytest.mark.parametrize(
        "model",
        [BinaryUniform(1.0), BinaryPoint(1.0, 0.7), BinaryBeta(1.0, 0.5), BinaryBeta(1.0, 3.0)],
        ids=["uniform", "point", "beta0.5", "beta3"],
    )
    def test_batched_matches_per_jump_reference(self, model):
        params = levy.make_params(model, gamma=1.0, theta=1.0, q=1.0, c=0.25)
        m1 = expfun.moment_recursion(model, params, 1)
        n = 20_000
        rng = substream(31, "per-jump-reference")
        ref = np.array([scalar_I_infty(model, params, m1, rng) for _ in range(n)])
        batched = pathsim.simulate_I_infty(model, params, substream(31, "batched"), n)
        se_ref = ref.std(ddof=1) / math.sqrt(n)
        se_batched = batched.std(ddof=1) / math.sqrt(n)
        assert abs(batched.mean() - ref.mean()) <= 4.0 * math.hypot(se_ref, se_batched)
        assert abs(ref.mean() - m1) <= 4.0 * se_ref
        assert abs(batched.mean() - m1) <= 4.0 * se_batched


    @pytest.mark.parametrize("rel_tol", [1e-6, 1e-3])
    @pytest.mark.parametrize("q,gamma", [(1.0, 1.0), (0.1, 0.5), (5.0, 2.0)])
    @pytest.mark.parametrize(
        "model",
        [BinaryUniform(1.0), BinaryPoint(1.0, 0.7), BinaryBeta(1.0, 0.5), BinaryBeta(1.5, 3.0)],
        ids=["uniform", "point", "beta0.5", "beta3"],
    )
    def test_bit_equal_to_fieldwise_reference(self, model, q, gamma, rel_tol):
        # The stored segment weight is the exp(gamma*Y) each step recomputed.
        params = levy.make_params(model, gamma=gamma, theta=1.0, q=q, c=0.25)
        for n in (1, 1500):
            new, old = (substream(32, "bits", n), substream(32, "bits", n))
            assert np.array_equal(pathsim.simulate_I_infty(model, params, new, n, rel_tol=rel_tol),
                                  fieldwise_I_infty(model, params, old, n, rel_tol))
            assert new.random(3).tolist() == old.random(3).tolist()

    @pytest.mark.parametrize(
        "model",
        [BinaryUniform(1.0), BinaryPoint(1.0, 0.7), BinaryBeta(1.0, 0.5), BinaryBeta(1.0, 3.0)],
        ids=["uniform", "point", "beta0.5", "beta3"],
    )
    def test_means_match_rejection_sampled_jumps(self, model):
        # The exact tilted jump law against the rejection rounds it replaced.
        params = levy.make_params(model, gamma=1.0, theta=1.0, q=1.0, c=0.25)
        n = 20_000
        new = pathsim.simulate_I_infty(model, params, substream(33, "exact"), n)
        old = fieldwise_I_infty(model, params, substream(33, "rowwise"), n,
                                sample_jump=rowwise_sample_jump)
        se = math.hypot(new.std(ddof=1), old.std(ddof=1)) / math.sqrt(n)
        assert abs(new.mean() - old.mean()) <= 4.0 * se


class TestTaggedMassPassage:
    def test_point_family_accrued_identity(self, rng):
        # Before the first jump the lineage mass is 1, so the accrued premium
        # at the passage time ell is exactly (1 - e^{-gt*ell})/gt.
        model = BinaryPoint(1.0, 0.5)
        params = levy.make_params(model, gamma=1.0, theta=1.0, q=1.0, c=1.0)
        ell, acc = pathsim.simulate_tagged_mass_passage(model, params, 0.6, 50, rng)
        np.testing.assert_allclose(acc, -np.expm1(-ell), rtol=1e-12)

    def test_horizon_stops_the_lineage(self, rng):
        # With halving splits and a = 0.6 the first jump is the passage; a path
        # whose first jump comes after the horizon stops there, with the
        # premium accrued by then, as the cascade freezes such a block.
        model = BinaryPoint(1.0, 0.5)
        params = levy.make_params(model, gamma=1.0, theta=1.0, q=1.0, c=1.0)
        ell, acc = pathsim.simulate_tagged_mass_passage(model, params, 0.6, 200, rng, horizon=0.3)
        assert np.all(ell <= 0.3) and np.any(ell == 0.3) and np.any(ell < 0.3)
        np.testing.assert_allclose(acc, -np.expm1(-ell), rtol=1e-12)

    def test_threshold_one_fires_immediately(self, ref_model, ref_params, rng):
        ell, acc = pathsim.simulate_tagged_mass_passage(ref_model, ref_params, 1.0, 3, rng)
        assert ell.tolist() == acc.tolist() == [0.0, 0.0, 0.0]

    def test_step_budget_exhausted(self, ref_model, ref_params, rng, monkeypatch):
        monkeypatch.setattr(pathsim, "MAX_STEPS", 1)
        with pytest.raises(AssumptionError, match="within 1 jumps"):
            pathsim.simulate_tagged_mass_passage(ref_model, ref_params, 1e-6, 64, rng)


FAMILIES = [BinaryUniform(1.0), BinaryPoint(1.0, 0.7), BinaryBeta(1.0, 0.5)]
FAMILY_IDS = ["uniform", "point0.7", "beta0.5"]


class TestBatchedAgainstScalar:
    """Means of the batched walks against the scalar reference walks, within 4 combined SE."""

    N = 20_000

    @staticmethod
    def _agree(batched: np.ndarray, ref: np.ndarray, what) -> None:
        se = math.hypot(batched.std(ddof=1) / math.sqrt(batched.size),
                        ref.std(ddof=1) / math.sqrt(ref.size))
        assert abs(batched.mean() - ref.mean()) <= 4.0 * se, (what, batched.mean(), ref.mean(), se)

    @staticmethod
    def _params(model):
        return levy.make_params(model, gamma=1.0, theta=1.0, q=1.0, c=0.25)

    @pytest.mark.parametrize("model", FAMILIES, ids=FAMILY_IDS)
    def test_first_passage_discount(self, model):
        params = self._params(model)
        levels = [1.5 * params.c, 2.0 * params.c]
        disc = pathsim.first_passage_payoff_sums(model, params, levels, self.N,
                                                 substream(51, "batched-fp"))
        rng = substream(51, "scalar-fp")
        for k, b in enumerate(levels):
            ref = np.array([math.exp(-params.lam * scalar_first_passage(model, params, b, rng)[0])
                            for _ in range(self.N)])
            self._agree(disc[:, k], ref, b)

    @pytest.mark.parametrize("model", FAMILIES, ids=FAMILY_IDS)
    def test_Z_at_times(self, model):
        params = self._params(model)
        times = np.array([0.5, 1.0, 2.0])
        z = pathsim.simulate_Z_at_times(model, params, times, self.N, substream(52, "batched-z"))
        rng = substream(52, "scalar-z")
        ref = np.array([scalar_Z_at_times(model, params, times, rng) for _ in range(self.N)])
        for k, t in enumerate(times):
            self._agree(z[:, k], ref[:, k], t)

    @pytest.mark.parametrize("model", FAMILIES, ids=FAMILY_IDS)
    def test_tagged_mass_passage(self, model):
        params = self._params(model)
        ell, acc = pathsim.simulate_tagged_mass_passage(model, params, 0.1, self.N,
                                                        substream(53, "batched-tag"))
        rng = substream(53, "scalar-tag")
        ref = np.array([scalar_tagged_mass_passage(model, params, 0.1, rng)
                        for _ in range(self.N)])
        self._agree(ell, ref[:, 0], "ell")
        self._agree(acc, ref[:, 1], "accrued")
