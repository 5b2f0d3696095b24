import hashlib
import math

import numpy as np
import pytest

from fragstop import fragsim, harness, levy, pathsim
from fragstop.fragsim import BlockCapError, FixedTime, MassBelow, OptimalStatistic
from fragstop.levy import BinaryPoint, InvalidModelError
from fragstop.streams import run_key, substream

from conftest import simulate_Z_path

KEY = run_key(0, "test", 0)


def point_params(c=0.25):
    model = BinaryPoint(1.0, 0.5)
    return model, levy.make_params(model, gamma=1.0, theta=1.0, q=1.0, c=c)


class TestStep:
    def test_point_split_halves(self, rng):
        model, params = point_params()
        state = fragsim.evolve_to_time(fragsim.fresh_state(params), model, 3.0, rng)
        assert state.t == 3.0
        assert len(state.live) > 1
        for b in state.live:
            depth = -math.log2(b.mass)
            assert depth == round(depth) >= 1

    def test_mass_conserved_over_many_steps(self, ref_model, ref_params, rng):
        state = fragsim.evolve_to_time(fragsim.fresh_state(ref_params), ref_model, 6.0, rng)
        assert sum(b.mass for b in state.live) == pytest.approx(1.0, abs=1e-12)
        # each split adds two blocks to `created` and one to the live set
        assert len(state.live) == (state.created + 1) // 2
        assert len(state.live) > 100

    def test_degenerate_rejected(self, degen_model, degen_params, rng):
        with pytest.raises(InvalidModelError):
            fragsim.evolve_to_time(fragsim.fresh_state(degen_params), degen_model, 1.0, rng)

    def test_block_count_mean_is_yule(self, rng):
        # Binary splitting at unit rate per block doubles at rate 1: E|live| = e^t.
        model, params = point_params()
        t, n_runs = 1.0, 4000
        counts = np.empty(n_runs)
        for i in range(n_runs):
            counts[i] = len(fragsim.evolve_to_time(fragsim.fresh_state(params), model, t, rng).live)
        se = counts.std(ddof=1) / math.sqrt(n_runs)
        assert abs(counts.mean() - math.exp(t)) <= 3.0 * se


class TestStoppingLines:
    def test_fixed_time_zero(self, ref_model, ref_params):
        state = fragsim.run_stopping_line(
            fragsim.fresh_state(ref_params), ref_model, ref_params, FixedTime(0.0), key=KEY
        )
        assert len(state.frozen) == 1
        blk = state.frozen[0]
        assert blk.mass == 1.0 and blk.frozen_at == 0.0 and blk.accrued_final == 0.0
        assert fragsim.payoff(state, ref_params) == ref_params.c

    def test_mass_below_postcondition(self, ref_model, ref_params):
        a = 0.3
        state = fragsim.run_stopping_line(
            fragsim.fresh_state(ref_params), ref_model, ref_params, MassBelow(a), key=KEY
        )
        assert not state.live
        assert sum(b.mass for b in state.frozen) == pytest.approx(1.0, abs=1e-12)
        for blk in state.frozen:
            assert blk.mass <= a
            assert blk.frozen_at == blk.born_at  # a block qualifies at its birth split

    def test_optimal_statistic_skip_free(self, ref_model, ref_params, ref_solved):
        b = ref_solved.b_star
        for i in range(30):
            state = fragsim.run_stopping_line(
                fragsim.fresh_state(ref_params), ref_model, ref_params,
                OptimalStatistic(b), key=run_key(1, "skipfree", i),
            )
            assert state.dust_frozen == 0 and state.partial == 0
            for blk in state.frozen:
                stat = math.exp(ref_params.gt * blk.frozen_at) * blk.mass**ref_params.gamma * (
                    blk.accrued_final + ref_params.c
                )
                assert stat == pytest.approx(b, rel=1e-10)

    def test_zeta_accrued_consistency(self, ref_model, ref_params):
        state = fragsim.run_stopping_line(
            fragsim.fresh_state(ref_params), ref_model, ref_params, FixedTime(2.0),
            key=run_key(2, "consistency", 0),
        )
        for blk in state.frozen:
            t = blk.frozen_at
            recon = math.exp(ref_params.gt * t) * blk.mass**ref_params.gamma * (
                blk.accrued_at(t, ref_params) + ref_params.c
            )
            assert blk.zeta_at(t, ref_params) == pytest.approx(recon, rel=1e-11)

    def test_horizon_flags_partial(self, ref_model, ref_params):
        state = fragsim.run_stopping_line(
            fragsim.fresh_state(ref_params), ref_model, ref_params,
            OptimalStatistic(50.0), key=KEY, horizon=0.5,
        )
        assert state.partial >= 1
        assert not state.live

    def test_dust_floor_counts(self, ref_model, ref_params):
        state = fragsim.run_stopping_line(
            fragsim.fresh_state(ref_params), ref_model, ref_params, MassBelow(0.001),
            key=KEY, dust_floor=0.05,
        )
        assert state.dust_frozen >= 1

    def test_block_cap_enforced(self, ref_model, ref_params):
        with pytest.raises(BlockCapError):
            fragsim.run_stopping_line(
                fragsim.fresh_state(ref_params), ref_model, ref_params, MassBelow(1e-5),
                key=KEY, block_cap=16,
            )


def tagged_walk(model, params, line, rng) -> list[tuple[float, float]]:
    """(time, zeta) of one size-biased lineage at birth, every split and its freeze.

    The lineage's blocks go through the engine's own freeze times and
    splits.  Each block draws its holding time, then its split share, then
    the size-biased pick of the child to follow, all from `rng`: the draw
    order of the single-lineage premium process, jump by jump.
    """
    state = fragsim.fresh_state(params)
    block = state.live[0]
    log = [(0.0, block.zeta_birth)]
    while True:
        freeze_t = fragsim._freeze_time(block, line, params)
        split_t = block.born_at + rng.exponential(1.0 / model.rate)
        if freeze_t <= split_t:
            log.append((freeze_t, block.zeta_at(freeze_t, params)))
            return log
        s = levy.sample_split(model, rng)
        kids = fragsim._split_block(state, block, split_t, s)
        block = kids[0 if rng.random() < s else 1]
        log.append((split_t, block.zeta_birth))


class TestTaggedLineage:
    def test_zeta_equals_single_lineage_premium_process(self, ref_model, ref_params):
        # Fed the same generator, the tagged block's statistic reproduces the
        # single-lineage premium process realization by realization.
        for seed in (1, 2, 3):
            log = tagged_walk(ref_model, ref_params, FixedTime(3.0), np.random.default_rng(seed))
            zpath = simulate_Z_path(ref_model, ref_params, 3.0, np.random.default_rng(seed))
            assert len(log) == len(zpath) > 2
            for (t_frag, zeta), zs in zip(log, zpath):
                assert t_frag == pytest.approx(zs.t, abs=1e-14)
                assert zeta == pytest.approx(zs.z, rel=1e-12)

    def test_tagged_freeze_is_first_passage(self, ref_model, ref_params, ref_solved):
        # Most lineages cross b* before their first split; enough seeds that
        # some cross only after one or more splits.
        b = ref_solved.b_star
        split_first = 0
        for seed in range(4, 44):
            log = tagged_walk(ref_model, ref_params, OptimalStatistic(b),
                              np.random.default_rng(seed))
            tau, hit = pathsim.simulate_Z_first_passage(
                ref_model, ref_params, b, np.random.default_rng(seed)
            )
            assert hit
            frozen_at, zeta = log[-1]
            assert frozen_at == pytest.approx(tau, rel=1e-12)
            assert zeta == pytest.approx(b, rel=1e-12)
            split_first += len(log) > 2
        assert split_first >= 5


class TestPayoff:
    def test_two_block_fixture_closed_form(self):
        # One split at u, both children frozen at t: masses 1/2, shared parent
        # accrued, then each child accrues with mass 1/2 from u to t.
        model, params = point_params(c=0.3)
        u, t = 0.4, 1.1
        state = fragsim.fresh_state(params)
        root = state.live.pop()
        kids = fragsim._split_block(state, root, u, 0.5)
        acc_parent = -math.expm1(-u)  # integral of e^{-s} ds over [0, u)
        for kid in kids:
            assert kid.accrued_birth == pytest.approx(acc_parent, rel=1e-12)
            kid.frozen_at = t
            kid.accrued_final = kid.accrued_at(t, params)
            state.frozen.append(kid)
        acc_child = acc_parent + 2.0 * (math.exp(-u) - math.exp(-t))
        expected = 2.0 * (acc_child + params.c) * 0.5**2 * math.exp(-t)
        assert fragsim.payoff(state, params) == pytest.approx(expected, rel=1e-12)

    def test_payoff_requires_frozen(self, ref_model, ref_params):
        with pytest.raises(InvalidModelError):
            fragsim.payoff(fragsim.fresh_state(ref_params), ref_params)


class TestEnsembles:
    def test_reproducible_and_worker_independent(self, ref_model, ref_params):
        line = OptimalStatistic(0.78)
        a = fragsim.ensemble_payoffs(ref_model, ref_params, line, 300, 5, workers=1)
        b = fragsim.ensemble_payoffs(ref_model, ref_params, line, 300, 5, workers=3)
        assert np.array_equal(a.payoffs, b.payoffs)

    def test_common_cascade_across_lines(self, ref_model, ref_params):
        # Same seed, different thresholds: runs share the cascade, so the
        # payoffs are strongly positively correlated (independent runs are not).
        lo = fragsim.ensemble_payoffs(ref_model, ref_params, OptimalStatistic(0.6), 500, 6)
        hi = fragsim.ensemble_payoffs(ref_model, ref_params, OptimalStatistic(0.8), 500, 6)
        assert np.corrcoef(hi.payoffs, lo.payoffs)[0, 1] > 0.5

    def test_literal_statistic_variant_runs_and_underperforms(
        self, ref_model, ref_params, ref_solved
    ):
        b = ref_solved.b_star
        zeta_line = fragsim.ensemble_payoffs(
            ref_model, ref_params, OptimalStatistic(b), 2000, 8
        )
        literal = fragsim.ensemble_payoffs(
            ref_model, ref_params, OptimalStatistic(b, literal=True), 2000, 8
        )
        diff = zeta_line.payoffs - literal.payoffs
        se = diff.std(ddof=1) / math.sqrt(diff.size)
        # The zeta line is the optimum, so the literal variant cannot beat it.
        assert diff.mean() >= -3.0 * se

    def test_block_rows_collected(self, ref_model, ref_params):
        res = fragsim.ensemble_payoffs(
            ref_model, ref_params, FixedTime(0.5), 10, 9, collect_blocks=True
        )
        assert res.block_rows
        run_ids = {row[0] for row in res.block_rows}
        assert run_ids == set(range(10))
        for _, mass, accrued, freeze_time, contrib in res.block_rows:
            assert 0.0 < mass <= 1.0
            assert freeze_time == 0.5


class TestManyToOne:
    def test_const1_is_mass_conservation(self, ref_model, ref_params, rng):
        res = fragsim.many_to_one_fixed_time(ref_model, ref_params, "const1", 1.0, 200, rng)
        assert res.lhs.value == pytest.approx(1.0, abs=1e-12)
        assert res.lhs.std_error == pytest.approx(0.0, abs=1e-12)
        assert res.rhs.value == 1.0

    @pytest.mark.parametrize("f_id,p", [("identity", 1.0), ("square", 2.0)])
    def test_fixed_time_identity(self, ref_model, ref_params, f_id, p):
        res = fragsim.many_to_one_fixed_time(
            ref_model, ref_params, f_id, 1.0, 5000, substream(31, f_id)
        )
        assert res.rhs.value == pytest.approx(math.exp(-levy.phi(ref_model, p)), rel=1e-12)
        assert abs(res.gap) <= 3.0 * res.combined_se

    def test_unknown_functional(self, ref_model, ref_params, rng):
        with pytest.raises(InvalidModelError):
            fragsim.many_to_one_fixed_time(ref_model, ref_params, "cube", 1.0, 5, rng)

    def test_line_threshold_one_trivial(self, ref_model, ref_params):
        res = fragsim.many_to_one_stopping_line(ref_model, ref_params, 1.0, 50, 11)
        assert res.lhs.value == 0.0 and res.rhs.value == 0.0

    def test_line_point_family_closed_form(self):
        # With deterministic halving splits and a in [1/2, 1), the line fires at
        # the first split on every branch; both sides reduce to one exponential
        # time T with value E[e^{-qT}(1 - e^{-gt T})/gt].
        model, params = point_params()
        res = fragsim.many_to_one_stopping_line(model, params, 0.6, 6000, 12)
        closed = 0.5 - 1.0 / 3.0
        assert abs(res.lhs.value - closed) <= 3.0 * res.lhs.std_error
        assert abs(res.rhs.value - closed) <= 3.0 * res.rhs.std_error
        assert abs(res.gap) <= 3.0 * res.combined_se

    def test_line_uniform_agreement(self, ref_model, ref_params):
        res = fragsim.many_to_one_stopping_line(ref_model, ref_params, 0.1, 4000, 13)
        assert abs(res.gap) <= 3.0 * res.combined_se


class TestOptimalLineValue:
    def test_matches_single_lineage_value(self, ref_model, ref_params, ref_sample, ref_solved):
        ens = fragsim.ensemble_payoffs(
            ref_model, ref_params, OptimalStatistic(ref_solved.b_star), 4000, 14
        )
        est = ens.estimate
        assert abs(est.value - ref_solved.value_at_c) <= 3.0 * est.std_error


def reference_block_stream(key: bytes, path: tuple) -> np.random.Generator:
    """A fresh generator per block, as the per-block streams were first built."""
    h = hashlib.blake2b(key, digest_size=16)
    h.update(bytes(path))
    h.update(len(path).to_bytes(4, "little"))
    return np.random.Generator(np.random.Philox(key=int.from_bytes(h.digest(), "little")))


class TestBlockStream:
    PATHS = [(), (0,), (1, 0, 1), tuple(i % 2 for i in range(60))]

    @staticmethod
    def draws(rng):
        return [rng.exponential(), rng.random(), rng.beta(0.5, 0.5),
                rng.random(dtype=np.float32), rng.exponential(2.0)]

    def test_matches_fresh_generator_interleaved(self):
        # Each call re-keys one shared generator; reopening a path, or opening
        # one after a stream was left mid-buffer (a float32 draw caches half a
        # word), must still give a fresh generator's draws.
        for order in (self.PATHS, self.PATHS[::-1], self.PATHS[1::2] + self.PATHS[::2]):
            for path in order:
                rng = fragsim._block_stream(KEY, path)
                assert self.draws(rng) == self.draws(reference_block_stream(KEY, path))
                rng = fragsim._block_stream(KEY, path)
                rng.exponential()
                rng.random(dtype=np.float32)
        other = run_key(1, "test", 0)
        for path in self.PATHS:
            assert self.draws(fragsim._block_stream(other, path)) == self.draws(
                reference_block_stream(other, path))


# sha256 of the `simulate` CSV plus its JSON summary on the README model,
# recorded before the per-block streams were re-keyed instead of rebuilt
# (numpy 2.4, x86_64 Linux).  Any change to the draws or the arithmetic of
# the cascade shows up here.
README_CFG = """
family = uniform
rate = 1.0
gamma = 1.0
theta = 1.0
q = 1.0
c = 0.25
seed = 12345
"""
GOLDEN_SIMULATE = [
    ("optimal:0.78", False, {"runs": 200},
     "77d844e9f308b14faa3a3f52ce155153d1642ff568d94f0a49f60874606e6020"),
    ("optimal:0.78", True, {"runs": 200},
     "e643453752917730007362781949e4e77990d11b9ceb8dd9ad0d38318271782c"),
    ("mass:0.01", False, {"runs": 20},
     "77d3ebe1c31b553a9d46e59ff7ddf5410a871bce6913b4e3c402b8373df2d579"),
    ("fixed:2.0", False, {"runs": 60},
     "1c09492be67d649a42b684c603b8f952f980da97ab6292e5a9badb43bbc40d42"),
    ("mass:0.01", False, {"runs": 20, "workers": 2},
     "77d3ebe1c31b553a9d46e59ff7ddf5410a871bce6913b4e3c402b8373df2d579"),
    # dust and horizon branches: 56 dust blocks, 111 partial
    ("mass:0.001", False, {"runs": 40, "dust_floor": 0.05, "horizon": 1.5},
     "c7fd5aca2adf43d3968ef9adc794784eeb6b0090fca712cc292d8780a3035194"),
]


# sha256 of the `solve` JSON, the `sweep --axis c` CSV plus its summary, and
# the `verify` JSON on the README model at 3000 samples and 300 runs,
# recorded before the tagged-lineage hook left the cascade engine.  At this
# size `verify` fails `threshold_dominance_high` (exit 4); the digest pins
# its bytes all the same.
GOLDEN_SIZES = {"samples": 3000, "runs": 300}
SWEEP_C_GRID = [0.1, 0.25, 0.5, 1.0]
GOLDEN_SOLVE = "c923cc7e87d5cc80c121165676f62e3633d1bd484f3508f586098728a532e43b"
GOLDEN_SWEEP_C = "60766602801a8688f63e52951dbe7fabc79b681ea3b09b1335866ac245472d88"
GOLDEN_VERIFY = "5c4a22213e7b823feb8125efe4b2bd34917c92da6ae1e6ffca6a512e60b5ef4a"


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


class TestGoldenOutputs:
    @pytest.mark.parametrize("line,literal,overrides,digest", GOLDEN_SIMULATE)
    def test_simulate_bytes(self, line, literal, overrides, digest):
        cfg = harness.with_overrides(harness.parse_config_text(README_CFG), **overrides)
        csv_text, summary = harness.cmd_simulate(cfg, line, literal)
        assert sha256(csv_text + harness.dumps_json(summary)) == digest

    @pytest.fixture(scope="class")
    def golden_cfg(self):
        return harness.with_overrides(harness.parse_config_text(README_CFG), **GOLDEN_SIZES)

    def test_solve_bytes(self, golden_cfg):
        assert sha256(harness.dumps_json(harness.cmd_solve(golden_cfg))) == GOLDEN_SOLVE

    def test_sweep_bytes(self, golden_cfg):
        csv_text, summary = harness.cmd_sweep(golden_cfg, "c", SWEEP_C_GRID)
        assert sha256(csv_text + harness.dumps_json(summary)) == GOLDEN_SWEEP_C

    def test_verify_bytes(self, golden_cfg):
        payload, _ = harness.cmd_verify(golden_cfg)
        assert sha256(harness.dumps_json(payload)) == GOLDEN_VERIFY

    def test_many_to_one_line_values(self):
        cfg = harness.parse_config_text(README_CFG)
        res = fragsim.many_to_one_stopping_line(cfg.model(), cfg.params(), 0.1, 500, 12345)
        assert (res.lhs.value, res.lhs.std_error) == (0.0802789196730973, 0.0037305778663899013)
        assert (res.rhs.value, res.rhs.std_error) == (0.07375808095154351, 0.006713741156243862)
