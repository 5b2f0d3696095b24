import functools
import hashlib
import importlib.util
import json
import math
import os
import subprocess
import sys
import tracemalloc
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest

from fragstop import fragsim, harness, levy, pathsim
from fragstop.cli import main
from fragstop.expfun import MomentEstimate
from fragstop.fragsim import BlockCapError, FixedTime, FrozenBlocks, MassBelow, OptimalStatistic
from fragstop.levy import BinaryBeta, BinaryPoint, BinaryUniform, DomainError, InvalidModelError
from fragstop.streams import run_key

from conftest import (materialised_run_sums, reference_run_key, scalar_first_passage,
                      scalar_split, simulate_Z_path)

KEY = int(run_key(0, "test", 1)[0])


def point_params(c=0.25):
    model = BinaryPoint(1.0, 0.5)
    return model, levy.make_params(model, gamma=1.0, theta=1.0, q=1.0, c=c)


def block_rows(res) -> list[tuple]:
    """(run, mass, accrued, freeze_time, contribution) of each frozen block of an ensemble."""
    b = res.blocks
    return list(zip(b.run.tolist(), b.mass.tolist(), b.accrued.tolist(), b.frozen_at.tolist(),
                    res.contributions.tolist()))


class TestStep:
    def test_point_split_halves(self):
        model, params = point_params()
        alive = fragsim.evolve_to_time(model, params, 3.0, [KEY])
        assert np.all(alive.frozen_at == 3.0)
        assert alive.mass.size > 1
        for m in alive.mass:
            depth = -math.log2(m)
            assert depth == round(depth) >= 1

    def test_mass_conserved_over_many_steps(self, ref_model, ref_params):
        # A run's block count at t = 6 is geometric with mean e^6 ~ 403, so
        # one run may well stay small; 20 runs hold about 8000 blocks.
        alive = fragsim.evolve_to_time(ref_model, ref_params, 6.0, run_key(0, "test", 20))
        mass = np.bincount(alive.run, weights=alive.mass)
        np.testing.assert_allclose(mass, 1.0, rtol=0.0, atol=1e-12)
        assert alive.mass.size > 2000

    def test_degenerate_rejected(self, degen_model, degen_params):
        with pytest.raises(InvalidModelError):
            fragsim.evolve_to_time(degen_model, degen_params, 1.0, [KEY])

    def test_block_count_mean_is_yule(self):
        # Binary splitting at unit rate per block doubles at rate 1: E|live| = e^t.
        model, params = point_params()
        t, n_runs = 1.0, 4000
        alive = fragsim.evolve_to_time(model, params, t, run_key(7, "yule", n_runs))
        counts = np.bincount(alive.run, minlength=n_runs)
        se = counts.std(ddof=1) / math.sqrt(n_runs)
        assert abs(counts.mean() - math.exp(t)) <= 3.0 * se


class TestStoppingLines:
    def test_fixed_time_zero(self, ref_model, ref_params):
        frozen = fragsim.run_stopping_line(ref_model, ref_params, FixedTime(0.0), [KEY])
        assert (frozen.mass.tolist(), frozen.frozen_at.tolist(), frozen.accrued.tolist()) == (
            [1.0], [0.0], [0.0])
        assert frozen.contributions(ref_params).tolist() == [ref_params.c]

    def test_mass_below_postcondition(self, ref_model, ref_params):
        a = 0.3
        frozen = fragsim.run_stopping_line(ref_model, ref_params, MassBelow(a), [KEY])
        assert frozen.mass.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(frozen.mass <= a)
        # The root (mass 1 > a) splits, so every block qualifies at a split time.
        assert np.all((frozen.frozen_at > 0.0) & np.isfinite(frozen.frozen_at))

    def test_optimal_statistic_skip_free(self, ref_model, ref_params, ref_solved):
        b = ref_solved.b_star
        frozen = fragsim.run_stopping_line(
            ref_model, ref_params, OptimalStatistic(b), run_key(1, "skipfree", 30)
        )
        assert frozen.dust_frozen == 0 and frozen.partial == 0
        stat = np.exp(ref_params.gt * frozen.frozen_at) * frozen.mass**ref_params.gamma * (
            frozen.accrued + ref_params.c
        )
        np.testing.assert_allclose(stat, b, rtol=1e-10)

    def test_zeta_accrued_consistency(self, ref_params):
        # Eight generations of splits through the engine's arithmetic (the
        # masked engine's helpers, bit-equal to it by TestLeanEngine): zeta
        # must equal e^{gt t} mass^gamma (accrued + c) on every block.
        rng = np.random.default_rng(2)
        mass, born, acc, zeta = np.ones(1), np.zeros(1), np.zeros(1), np.full(1, ref_params.c)
        for _ in range(8):
            t = born + rng.exponential(size=mass.size)
            share = 0.5 * (1.0 + rng.random(mass.size))
            mass, born, acc, zeta = split_blocks(ref_params, mass, born, acc, zeta, t, share)
        t = born + 0.7
        recon = np.exp(ref_params.gt * t) * mass**ref_params.gamma * (
            accrued_at(ref_params, mass, born, acc, t) + ref_params.c
        )
        assert mass.size == 256 and mass.sum() == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(pathsim.z_advance(zeta, t - born, ref_params.gt), recon,
                                   rtol=1e-11)

    def test_horizon_flags_partial(self, ref_model, ref_params):
        frozen = fragsim.run_stopping_line(
            ref_model, ref_params, OptimalStatistic(50.0), [KEY], horizon=0.5
        )
        assert frozen.partial >= 1
        assert frozen.partial == np.count_nonzero(frozen.frozen_at == 0.5)
        assert np.all(frozen.frozen_at <= 0.5)

    def test_dust_floor_counts(self, ref_model, ref_params):
        frozen = fragsim.run_stopping_line(
            ref_model, ref_params, MassBelow(0.001), [KEY], dust_floor=0.05
        )
        assert frozen.dust_frozen >= 1
        assert frozen.dust_frozen == np.count_nonzero(frozen.mass < 0.05)

    def test_block_cap_enforced(self, ref_model, ref_params):
        with pytest.raises(BlockCapError):
            fragsim.run_stopping_line(
                ref_model, ref_params, MassBelow(1e-5), [KEY], block_cap=16,
            )

    # (runs, line, cap, message), the messages as the masked engine gave them.
    CAPPED_CHUNKS = [
        (8, MassBelow(1e-4), 300, "block budget 300 exceeded at t = 24.619706596753826"),
        (50, MassBelow(1e-4), 100, "block budget 100 exceeded at t = 20.217273480322568"),
        # The chunk makes 8100 blocks, its largest run 509.
        (64, FixedTime(4.0), 508, "block budget 508 exceeded at t = 3.978221946991077"),
    ]

    @pytest.mark.parametrize("n_runs,line,cap,message", CAPPED_CHUNKS)
    def test_block_cap_enforced_per_run_in_a_chunk(self, ref_model, ref_params, n_runs, line,
                                                   cap, message):
        # A cap below BLOCK_BUDGET binds on one run of a multi-run chunk.
        keys = run_key(0, "test", n_runs)
        with pytest.raises(BlockCapError) as caught:
            fragsim.run_stopping_line(ref_model, ref_params, line, keys, block_cap=cap)
        assert str(caught.value) == message
        with pytest.raises(BlockCapError) as masked:
            masked_stopping_line(ref_model, ref_params, line, keys, block_cap=cap)
        assert str(masked.value) == message

    def test_overflowing_premium_is_a_domain_error(self):
        # At gamma = 1000, mass^(-gamma) overflows on blocks lighter than about
        # 0.49; such payoffs were inf * 0 = nan.
        params = levy.make_params(BinaryUniform(1.0), gamma=1000.0, theta=1.0, q=1.0, c=0.25)
        with pytest.raises(DomainError, match="accrued premium overflows"):
            fragsim.run_stopping_line(BinaryUniform(1.0), params, MassBelow(0.05),
                                      run_key(0, "test", 8))

    def test_block_cap_counts_each_run(self, ref_model, ref_params):
        # A run that split k times made 2k + 1 blocks: a cap at the largest
        # run's count passes, though the chunk made far more blocks in all.
        keys = run_key(0, "test", 64)
        free = fragsim.run_stopping_line(ref_model, ref_params, FixedTime(4.0), keys)
        largest = 2 * np.bincount(free.run).max() - 1
        assert largest == 509 and 2 * free.run.size - keys.size > 10 * largest
        capped = fragsim.run_stopping_line(ref_model, ref_params, FixedTime(4.0), keys,
                                           block_cap=largest)
        assert_same_blocks(capped, free)


def tagged_walk(model, params, line, rng) -> list[tuple[float, float]]:
    """(time, zeta) of one size-biased lineage at birth, every split and its freeze.

    The lineage's blocks go through the engine's freeze times and split
    arithmetic (the masked engine's helpers, bit-equal to the engine by
    TestLeanEngine), on length-1 arrays.  Each block draws its holding time, then
    its split share, then the size-biased pick of the child to follow, all
    from `rng`: the draw order of the single-lineage premium process, jump
    by jump.
    """
    mass, born, acc, zeta = np.ones(1), np.zeros(1), np.zeros(1), np.full(1, params.c)
    log = [(0.0, params.c)]
    while True:
        freeze_t = freeze_times(line, params, mass, born, zeta)
        split_t = born + rng.exponential(1.0 / model.rate)
        if freeze_t[0] <= split_t[0]:
            log.append((freeze_t[0], pathsim.z_advance(zeta, freeze_t - born, params.gt)[0]))
            return log
        s = scalar_split(model, rng)
        kids = split_blocks(params, mass, born, acc, zeta, split_t, np.array([s]))
        k = 0 if rng.random() < s else 1
        mass, born, acc, zeta = (x[k:k + 1] for x in kids)
        log.append((split_t[0], zeta[0]))


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
            tau, hit = scalar_first_passage(ref_model, ref_params, b, np.random.default_rng(seed))
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
        mass, born, acc, _ = split_blocks(
            params, np.ones(1), np.zeros(1), np.zeros(1), np.full(1, params.c),
            np.full(1, u), np.full(1, 0.5),
        )
        acc_parent = -math.expm1(-u)  # integral of e^{-s} ds over [0, u)
        np.testing.assert_allclose(acc, acc_parent, rtol=1e-12)
        frozen = FrozenBlocks(np.zeros(2, dtype=int), mass,
                              accrued_at(params, mass, born, acc, t), np.full(2, t), 0, 0)
        acc_child = acc_parent + 2.0 * (math.exp(-u) - math.exp(-t))
        expected = 2.0 * (acc_child + params.c) * 0.5**2 * math.exp(-t)
        assert frozen.contributions(params).sum() == pytest.approx(expected, rel=1e-12)

    def test_never_fired_block_pays_nothing(self, ref_params):
        frozen = FrozenBlocks(np.zeros(2, dtype=int), np.array([0.5, 0.5]),
                              np.array([np.nan, 0.1]), np.array([np.inf, 1.0]), 0, 0)
        contrib = frozen.contributions(ref_params)
        assert contrib[0] == 0.0
        assert contrib[1] == pytest.approx((0.1 + ref_params.c) * 0.25 * math.exp(-1.0))


class TestEnsembles:
    def test_reproducible_and_worker_independent(self, ref_model, ref_params):
        # Ensembles run in-process; a `workers` key is skipped and changes nothing.
        line = OptimalStatistic(0.78)
        a = fragsim.ensemble_payoffs(ref_model, ref_params, line, 300, 5)
        b = fragsim.ensemble_payoffs(ref_model, ref_params, line, 300, 5)
        assert np.array_equal(a.payoffs, b.payoffs)
        assert simulate_bytes("optimal:0.78", text=README_CFG + "workers = 3\n",
                              runs=50) == simulate_bytes("optimal:0.78", runs=50)

    def test_common_cascade_across_lines(self, ref_model, ref_params):
        # Same seed, different thresholds: runs share the cascade, so the
        # payoffs are strongly positively correlated (independent runs are not).
        lo = fragsim.ensemble_payoffs(ref_model, ref_params, OptimalStatistic(0.6), 500, 6)
        hi = fragsim.ensemble_payoffs(ref_model, ref_params, OptimalStatistic(0.8), 500, 6)
        assert np.corrcoef(hi.payoffs, lo.payoffs)[0, 1] > 0.5

    def test_lines_share_ancestors(self, ref_model, ref_params):
        # A block of mass <= 0.1 frozen by MassBelow(0.5) descends from blocks
        # above 0.5, which split identically under MassBelow(0.1): the same
        # split times and shares give the same block, bit for bit.
        coarse = fragsim.ensemble_payoffs(ref_model, ref_params, MassBelow(0.5), 200, 15)
        fine = fragsim.ensemble_payoffs(ref_model, ref_params, MassBelow(0.1), 200, 15)
        fine_rows = set(block_rows(fine))
        shared = [row for row in block_rows(coarse) if row[1] <= 0.1]
        assert len(shared) >= 50
        assert all(row in fine_rows for row in shared)

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

    def test_literal_never_fired_rows(self, ref_model, ref_params, ref_solved):
        res = fragsim.ensemble_payoffs(ref_model, ref_params,
                                       OptimalStatistic(ref_solved.b_star, literal=True),
                                       200, 8)
        never = [row for row in block_rows(res) if row[3] == math.inf]
        assert len(never) >= 10
        assert all(math.isnan(row[2]) and row[4] == 0.0 for row in never)
        assert all(math.isfinite(row[2]) for row in block_rows(res) if row[3] < math.inf)

    def test_block_rows_collected(self, ref_model, ref_params):
        res = fragsim.ensemble_payoffs(ref_model, ref_params, FixedTime(0.5), 10, 9)
        rows = block_rows(res)
        assert rows
        run_ids = {row[0] for row in rows}
        assert run_ids == set(range(10))
        for _, mass, accrued, freeze_time, contrib in rows:
            assert 0.0 < mass <= 1.0
            assert freeze_time == 0.5


class TestManyToOne:
    def test_const1_is_mass_conservation(self, ref_model, ref_params):
        # The constant functional, p = 0: the block average is the total mass
        # alive at t, which is 1 in every run, and exp(-t * phi(0)) = 1.
        alive = fragsim.evolve_to_time(ref_model, ref_params, 1.0,
                                       run_key(7, "m21-fixed-const1", 200))
        lhs = MomentEstimate.of(np.bincount(alive.run, weights=alive.mass, minlength=200))
        assert lhs.value == pytest.approx(1.0, abs=1e-12)
        assert lhs.std_error == pytest.approx(0.0, abs=1e-12)
        assert math.exp(-1.0 * levy.phi(ref_model, 0.0)) == 1.0

    @pytest.mark.parametrize("f_id,p", [("identity", 1.0), ("square", 2.0)])
    def test_fixed_time_identity(self, ref_model, ref_params, f_id, p):
        res = fragsim.many_to_one_fixed_time(ref_model, ref_params, 1.0, 5000, 31)[int(p) - 1]
        assert res.rhs.value == pytest.approx(math.exp(-levy.phi(ref_model, p)), rel=1e-12)
        assert abs(res.lhs.value - res.rhs.value) <= 3.0 * res.combined_se

    def test_engine_keywords_reach_the_cascade(self, ref_model, ref_params):
        # verify passes the config's block cap, dust floor and horizon through.
        with pytest.raises(fragsim.BlockCapError, match="block budget 2 exceeded"):
            fragsim.many_to_one_fixed_time(ref_model, ref_params, 1.0, 50, 31, block_cap=2)
        with pytest.raises(fragsim.BlockCapError, match="block budget 2 exceeded"):
            fragsim.many_to_one_stopping_line(ref_model, ref_params, 0.1, 50, 11, block_cap=2)
        full = fragsim.many_to_one_stopping_line(ref_model, ref_params, 0.1, 4000, 13)
        short = fragsim.many_to_one_stopping_line(ref_model, ref_params, 0.1, 4000, 13,
                                                  horizon=0.5, dust_floor=0.0)
        assert short.lhs.value != full.lhs.value and short.rhs.value != full.rhs.value
        # The tagged lineage stops at the horizon too, so the identity still holds.
        assert abs(short.lhs.value - short.rhs.value) <= 3.0 * short.combined_se

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
        assert abs(res.lhs.value - res.rhs.value) <= 3.0 * res.combined_se

    def test_line_uniform_agreement(self, ref_model, ref_params):
        res = fragsim.many_to_one_stopping_line(ref_model, ref_params, 0.1, 4000, 13)
        assert abs(res.lhs.value - res.rhs.value) <= 3.0 * res.combined_se


def materialised_lhs(model, params, kind: str, n_runs: int, seed: int) -> MomentEstimate:
    """The lhs of a many-to-one check at t = 1 or a = 0.1, summed over the whole block table."""
    if kind == "line":
        engine = functools.partial(fragsim.run_stopping_line, model, params, MassBelow(0.1))
        weights = lambda b: (b.mass * np.exp(-params.q * b.frozen_at)  # noqa: E731
                             * np.minimum(b.accrued, fragsim.LINE_CAP))
        keys = run_key(seed, "m21-line-frag", n_runs)
    else:
        power = 1.0 + {"identity": 1.0, "square": 2.0}[kind]
        engine = functools.partial(fragsim.evolve_to_time, model, params, 1.0)
        weights = lambda b: b.mass ** power  # noqa: E731
        keys = run_key(seed, "m21-fixed", n_runs)
    return MomentEstimate.of(materialised_run_sums(engine, keys, weights))


def streamed_lhs(model, params, kind: str, n_runs: int, seed: int) -> MomentEstimate:
    if kind == "line":
        return fragsim.many_to_one_stopping_line(model, params, 0.1, n_runs, seed).lhs
    fixed = fragsim.many_to_one_fixed_time(model, params, 1.0, n_runs, seed)
    return fixed[("identity", "square").index(kind)].lhs


class TestStreamedSums:
    """The many-to-one checks sum each chunk of runs as it comes; no bit may move."""

    @pytest.mark.parametrize("kind", ["line", "identity", "square"])
    @pytest.mark.parametrize("model", [BinaryUniform(1.0), BinaryPoint(1.0, 0.7)],
                             ids=["uniform", "point0.7"])
    def test_lhs_matches_table(self, model, kind):
        # 3000 runs: two full chunks of CHUNK_RUNS and a partial one.
        params = levy.make_params(model, gamma=1.0, theta=1.0, q=1.0, c=0.25)
        streamed = streamed_lhs(model, params, kind, 3000, 41)
        reference = materialised_lhs(model, params, kind, 3000, 41)
        assert (streamed.value, streamed.std_error) == (reference.value, reference.std_error)

    @pytest.mark.parametrize("kind", ["line", "square"])
    def test_lhs_matches_table_over_budget(self, ref_model, ref_params, kind, monkeypatch):
        # A budget of 60 blocks halves every chunk down to a few runs.
        monkeypatch.setattr(fragsim, "BLOCK_BUDGET", 60)
        calls = []
        engine = fragsim.run_stopping_line
        monkeypatch.setattr(fragsim, "run_stopping_line",
                            lambda *a, **k: calls.append(len(a[3])) or engine(*a, **k))
        streamed = streamed_lhs(ref_model, ref_params, kind, 300, 43)
        assert calls[0] == 300 and min(calls) < 16
        reference = materialised_lhs(ref_model, ref_params, kind, 300, 43)
        assert (streamed.value, streamed.std_error) == (reference.value, reference.std_error)

    def test_line_sums_hold_one_chunk(self, ref_model, ref_params):
        # A table of all 10,000 runs' frozen blocks takes about 12 MB; one
        # chunk of 1024 runs and the lineage side about 2 MB.
        tracemalloc.start()
        try:
            fragsim.many_to_one_stopping_line(ref_model, ref_params, 0.1, 10_000, 12345)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4e6


class TestOptimalLineValue:
    def test_matches_single_lineage_value(self, ref_model, ref_params, ref_sample, ref_solved):
        ens = fragsim.ensemble_payoffs(
            ref_model, ref_params, OptimalStatistic(ref_solved.b_star), 4000, 14
        )
        est = ens.estimate
        assert abs(est.value - ref_solved.value_at_c) <= 3.0 * est.std_error


MASK64 = (1 << 64) - 1


def splitmix64(seed: int):
    """Scalar SplitMix64 outputs from `seed`: the stream of the block with hash `seed`."""
    state = seed
    while True:
        state = (state + 0x9E3779B97F4A7C15) & MASK64
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
        yield z ^ (z >> 31)


class TestBlockStream:
    HASHES = [0, 1, KEY, MASK64, int(run_key(1, "test", 1)[0])]

    def test_matches_fresh_generator_interleaved(self):
        # Counter-based draws are stateless: any interleaving of (hash,
        # counter) pairs gives each block the draws of a freshly seeded
        # SplitMix64 generator.
        fresh = {}
        for h in self.HASHES:
            gen = splitmix64(h)
            fresh[h] = [next(gen) for _ in range(6)]
        pairs = [(h, k) for h in self.HASHES for k in range(6)]
        for order in (pairs, pairs[::-1], pairs[1::2] + pairs[::2]):
            hashes = np.array([h for h, _ in order], dtype=np.uint64)
            counters = np.array([k for _, k in order], dtype=np.uint64)
            words = fragsim._block_words(hashes, counters)
            assert words.tolist() == [fresh[h][k] for h, k in order]
            uniforms = fragsim._block_stream(hashes, counters)
            assert uniforms.tolist() == [(fresh[h][k] >> 11) * 2.0**-53 for h, k in order]
            assert np.all((0.0 <= uniforms) & (uniforms < 1.0))


# --- invariants of the engine ------------------------------------------------------

README_CFG = """
family = uniform
rate = 1.0
gamma = 1.0
theta = 1.0
q = 1.0
c = 0.25
seed = 12345
"""


def simulate_bytes(line, literal=False, text=README_CFG, **overrides) -> str:
    cfg = harness.with_overrides(harness.parse_config_text(text), **overrides)
    csv_text, summary = harness.cmd_simulate(cfg, line, literal)
    return csv_text + harness.dumps_json(summary)


class TestInvariants:
    LINES = [
        ("optimal:0.78", False, {"runs": 300}),
        ("optimal:0.78", True, {"runs": 300}),
        ("mass:0.01", False, {"runs": 30}),
        ("fixed:2.0", False, {"runs": 200}),
        ("mass:0.001", False, {"runs": 40, "dust_floor": 0.05, "horizon": 1.5}),
    ]

    @pytest.mark.parametrize("line,literal,overrides", LINES)
    def test_run_masses_sum_to_one(self, line, literal, overrides):
        cfg = harness.with_overrides(harness.parse_config_text(README_CFG), **overrides)
        rows, _ = harness.cmd_simulate(cfg, line, literal)
        data = np.loadtxt(rows.splitlines()[2:], delimiter=",", usecols=(0, 1), ndmin=2)
        mass = np.bincount(data[:, 0].astype(int), weights=data[:, 1], minlength=cfg.runs)
        assert np.max(np.abs(mass - 1.0)) <= 1e-12

    @pytest.mark.parametrize("line,literal,overrides", LINES)
    def test_workers_byte_identical(self, line, literal, overrides, capsys):
        # A config that sets `workers` warns once on stderr and gives the
        # bytes of the same config without it.
        ignored = simulate_bytes(line, literal, README_CFG + "workers = 2\n", **overrides)
        warning = json.loads(capsys.readouterr().err)
        assert warning["warning"] == "config" and "'workers' is ignored" in warning["message"]
        assert ignored == simulate_bytes(line, literal, **overrides)

    @pytest.mark.parametrize("line,literal,overrides", LINES)
    def test_chunking_byte_identical(self, line, literal, overrides, monkeypatch):
        # Runs per engine call, and the halving of calls over the block
        # budget, must not move a byte: rows within a run follow the genealogy.
        default = simulate_bytes(line, literal, **overrides)
        monkeypatch.setattr(fragsim, "CHUNK_RUNS", 1)
        assert simulate_bytes(line, literal, **overrides) == default
        monkeypatch.setattr(fragsim, "CHUNK_RUNS", 1024)
        monkeypatch.setattr(fragsim, "BLOCK_BUDGET", 60)
        assert simulate_bytes(line, literal, **overrides) == default

    def test_dust_and_partial_counts(self):
        cfg = harness.with_overrides(harness.parse_config_text(README_CFG), runs=40,
                                     dust_floor=0.05, horizon=1.5)
        rows, summary = harness.cmd_simulate(cfg, "mass:0.001")
        data = np.loadtxt(rows.splitlines()[2:], delimiter=",", ndmin=2)
        assert summary["dust_frozen"] == np.count_nonzero(data[:, 1] < 0.05) > 0
        assert summary["partial"] == np.count_nonzero(data[:, 3] == 1.5) > 0

    @pytest.mark.parametrize("literal", [False, True], ids=["zeta", "literal"])
    @pytest.mark.parametrize("b", ["-5", "-1", "-0.999"])
    def test_threshold_below_every_statistic_freezes_at_birth(self, b, literal, tmp_path,
                                                             capsys):
        # zeta >= 0 > b: each root freezes at t = 0 and its run pays c.  Below
        # -1/(gamma*theta) = -1 the crossing time's log ratio is negative.
        cfg = tmp_path / "readme.cfg"
        cfg.write_text(README_CFG)
        args = ["simulate", "--config", str(cfg), "--runs", "5", "--line", f"optimal:{b}"]
        assert main(args + ["--literal-theorem-statistic"] * literal) == 0
        captured = capsys.readouterr()
        summary = json.loads(captured.err)
        assert summary["mean_payoff"] == 0.25 and summary["std_error"] == 0.0
        assert captured.out.count("\n") == 2 + 5

    def test_runaway_line_exits_5_in_bounded_memory(self, tmp_path):
        # Every run of fixed:30 outgrows the 1,000,000-block cap.  One chunk
        # of 100 such runs would hold about 5e7 live blocks; the block budget
        # reruns it in halves until a single run hits the cap.
        cfg = tmp_path / "runaway.cfg"
        cfg.write_text(README_CFG.replace("seed = 12345", "seed = 3"))
        child = (
            "import resource, sys\n"
            "from fragstop.cli import main\n"
            "code = main(sys.argv[1:])\n"
            "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss, file=sys.stderr)\n"
            "sys.exit(code)\n"
        )
        src = Path(fragsim.__file__).resolve().parents[1]
        proc = subprocess.run(
            [sys.executable, "-c", child, "simulate", "--config", str(cfg), "--runs", "100",
             "--line", "fixed:30"],
            capture_output=True, text=True, timeout=300,
            env={**os.environ, "PYTHONPATH": str(src)},
        )
        assert proc.returncode == 5, proc.stderr
        err = proc.stderr.strip().splitlines()
        assert json.loads(err[0])["type"] == "BlockCapError"
        assert int(err[-1]) < 1024 * 1024  # ru_maxrss is in KiB on Linux


# --- reference: the masked engine the lean one replaced ---------------------------------
# One array per block field, boolean masks applied per field, e^{-gt*born}
# recomputed wherever it is needed and zeta advanced on every line.  The
# engine must reproduce it bit for bit.

def accrued_at(params, mass, born, accrued, t):
    """Premium integral at times t >= born, the mass constant since birth."""
    gt = params.gt
    return accrued + mass ** (-params.gamma) * (np.exp(-gt * born) - np.exp(-gt * t)) / gt


def freeze_times(line, params, mass, born, zeta) -> np.ndarray:
    """Each block's own line time; may be inf (literal statistic only)."""
    if isinstance(line, FixedTime):
        return np.full(np.shape(mass), line.t)
    if isinstance(line, MassBelow):
        return np.where(mass <= line.a, born, np.inf)
    gt = params.gt
    with np.errstate(divide="ignore", invalid="ignore"):
        if not line.literal:
            return born + pathsim.z_crossing_dt(zeta, line.b, gt)
        m = 1.0 / gt
        decay = np.exp(-gt * born)
        cap = (zeta + m) * decay
        return np.where(cap - m * decay >= line.b, born,
                        np.where(cap <= line.b, np.inf, -np.log((cap - line.b) / m) / gt))


def split_blocks(params, mass, born, accrued, zeta, t, share):
    """Children (mass, born, accrued, zeta) of blocks split at times t, block j's at 2j, 2j + 1."""
    acc = accrued_at(params, mass, born, accrued, t)
    z = pathsim.z_advance(zeta, t - born, params.gt)
    shares = np.column_stack([share, 1.0 - share]).ravel()
    return (np.repeat(mass, 2) * shares, np.repeat(t, 2), np.repeat(acc, 2),
            np.repeat(z, 2) * shares ** params.gamma)


@np.errstate(over="ignore", divide="ignore", invalid="ignore")
def masked_stopping_line(model, params, line, keys, *, dust_floor=1e-12, horizon=math.inf,
                         block_cap=1_000_000) -> FrozenBlocks:
    """`fragsim.run_stopping_line` as it was, one boolean mask per field and step."""
    if isinstance(line, FixedTime) and line.t > horizon:
        raise InvalidModelError(f"line time {line.t} exceeds the horizon {horizon}")
    literal = isinstance(line, OptimalStatistic) and line.literal
    n_runs = len(keys)
    run = np.arange(n_runs)
    h = np.asarray(keys, dtype=np.uint64)
    mass, born, acc = np.ones(n_runs), np.zeros(n_runs), np.zeros(n_runs)
    zeta = np.full(n_runs, params.c)
    created = np.ones(n_runs, dtype=np.int64)
    parts = []
    dust = partial = 0
    while run.size:
        u_hold, u_share = fragsim._block_stream(h, np.arange(2, dtype=np.uint64)[:, None])
        line_t = freeze_times(line, params, mass, born, zeta)
        split_t = born - np.log1p(-u_hold) / model.rate
        is_dust = (mass < dust_floor) | (mass == 0.0)
        never = np.isinf(line_t) & literal & ~is_dust
        is_partial = (np.minimum(line_t, split_t) > horizon) & ~is_dust & ~never
        freeze = is_dust | never | is_partial | (line_t <= split_t)
        t = np.where(is_dust, born, np.where(is_partial, horizon, line_t))[freeze]
        a = accrued_at(params, mass[freeze], born[freeze], acc[freeze], t)
        a = np.where(is_dust[freeze], acc[freeze], np.where(never[freeze], np.nan, a))
        parts.append((run[freeze], mass[freeze], a, t))
        dust += int(np.count_nonzero(is_dust))
        partial += int(np.count_nonzero(is_partial))

        split = ~freeze
        run = np.repeat(run[split], 2)
        created += np.bincount(run, minlength=n_runs)
        if run.size and created.max() > block_cap:
            raise BlockCapError(f"block budget {block_cap} exceeded at t = {split_t[split].max()}")
        if n_runs > 1 and created.sum() > fragsim.BLOCK_BUDGET:
            raise fragsim._OverBudget
        mass, born, acc, zeta = split_blocks(
            params, mass[split], born[split], acc[split], zeta[split], split_t[split],
            levy.split_quantile(model, u_share[split]),
        )
        h = fragsim._block_words(h[split], np.arange(2, 4, dtype=np.uint64)[:, None]).T.ravel()
    run, mass, acc, t = (np.concatenate(x) for x in zip(*parts))
    return FrozenBlocks(run, mass, acc, t, dust, partial)


def assert_same_blocks(new: FrozenBlocks, old: FrozenBlocks) -> None:
    for field in ("run", "mass", "accrued", "frozen_at"):
        a, b = getattr(new, field), getattr(old, field)
        assert a.dtype == b.dtype and np.array_equal(a, b, equal_nan=True), field
    assert (new.dust_frozen, new.partial) == (old.dust_frozen, old.partial)


LEAN_MODELS = [BinaryUniform(1.0), BinaryPoint(1.0, 0.7), BinaryBeta(1.5, 0.5)]
LEAN_LINES = [FixedTime(1.5), MassBelow(0.05), OptimalStatistic(0.78),
              OptimalStatistic(0.78, literal=True), OptimalStatistic(0.1),
              OptimalStatistic(0.1, literal=True), OptimalStatistic(-1.999),
              OptimalStatistic(-3.0), OptimalStatistic(-3.0, literal=True)]
LEAN_LINE_IDS = ["fixed", "mass", "optimal", "literal", "below-c", "below-c-literal",
                 "near-floor", "below-floor", "below-floor-literal"]
LEAN_OPTIONS = {"default": {}, "no-dust": {"dust_floor": 0.0},
                "dust-horizon": {"dust_floor": 0.02, "horizon": 2.0},
                "short-horizon": {"horizon": 0.5}}
# Every line under every option, but a fixed line past the horizon (rejected).
LEAN_CASES = [pytest.param(line, options, id=f"{line_id}-{options_id}")
              for line, line_id in zip(LEAN_LINES, LEAN_LINE_IDS)
              for options_id, options in LEAN_OPTIONS.items()
              if not (isinstance(line, FixedTime) and line.t > options.get("horizon", math.inf))]


class TestLeanEngine:
    """The engine against the masked one it replaced: every bit of every block."""

    @pytest.mark.parametrize("line,options", LEAN_CASES)
    @pytest.mark.parametrize("model", LEAN_MODELS, ids=["uniform", "point0.7", "beta0.5"])
    def test_bit_equal_to_masked_engine(self, model, line, options):
        # gamma * theta = 0.5, so Z and zeta never drift below -2 (the floor).
        params = levy.make_params(model, gamma=0.5, theta=1.0, q=1.0, c=0.25)
        keys = run_key(17, "lean", 200)
        assert_same_blocks(fragsim.run_stopping_line(model, params, line, keys, **options),
                           masked_stopping_line(model, params, line, keys, **options))

    @pytest.mark.parametrize("line", LEAN_LINES[:4], ids=LEAN_LINE_IDS[:4])
    def test_bit_equal_at_other_gamma(self, line):
        # gamma = 2 squares shares and mass exactly; gamma = 1 takes reciprocals.
        for gamma in (1.0, 2.0):
            params = levy.make_params(BinaryUniform(2.0), gamma=gamma, theta=2.0, q=0.5, c=0.4)
            keys = run_key(18, "lean", 300)
            assert_same_blocks(fragsim.run_stopping_line(BinaryUniform(2.0), params, line, keys),
                               masked_stopping_line(BinaryUniform(2.0), params, line, keys))

    def test_over_budget_in_step(self, ref_model, ref_params, monkeypatch):
        # Both engines give up on a multi-run chunk in the same generation.
        monkeypatch.setattr(fragsim, "BLOCK_BUDGET", 500)
        keys = run_key(19, "lean", 40)
        for engine in (fragsim.run_stopping_line, masked_stopping_line):
            with pytest.raises(fragsim._OverBudget):
                engine(ref_model, ref_params, MassBelow(0.001), keys)
        one = run_key(19, "lean", 1)
        assert_same_blocks(fragsim.run_stopping_line(ref_model, ref_params, MassBelow(0.001), one),
                           masked_stopping_line(ref_model, ref_params, MassBelow(0.001), one))


# --- reference: the per-block engine the batched one replaced -------------------------
# Depth first over one run's genealogy, one Python block at a time; every
# block draws from its own Philox stream keyed by (run key, genealogy path).

@dataclass
class Block:
    mass: float
    born: float
    accrued: float
    zeta: float
    path: tuple = ()


_REF_BITGEN = np.random.Philox(0)
_REF_RNG = np.random.Generator(_REF_BITGEN)


def reference_block_stream(key: int, path: tuple) -> np.random.Generator:
    """The shared Philox, re-keyed to blake2b(key, path, len(path)) with counter 0."""
    h = hashlib.blake2b(key.to_bytes(8, "little"), digest_size=16)
    h.update(bytes(path))
    h.update(len(path).to_bytes(4, "little"))
    k = int.from_bytes(h.digest(), "little")
    _REF_BITGEN.state = {
        "bit_generator": "Philox",
        "state": {"counter": (0, 0, 0, 0), "key": (k & MASK64, k >> 64)},
        "buffer": (0, 0, 0, 0), "buffer_pos": 4, "has_uint32": 0, "uinteger": 0,
    }
    return _REF_RNG


def reference_freeze_time(b: Block, line, params) -> float:
    if isinstance(line, FixedTime):
        return line.t
    if isinstance(line, MassBelow):
        return b.born if b.mass <= line.a else math.inf
    gt = params.gt
    m = 1.0 / gt
    if not line.literal:
        return b.born + pathsim.z_crossing_dt(b.zeta, line.b, gt)
    cap = (b.zeta + m) * math.exp(-gt * b.born)
    if cap - m * math.exp(-gt * b.born) >= line.b:
        return b.born
    if cap <= line.b:
        return math.inf
    return -math.log((cap - line.b) / m) / gt


def reference_run(model, params, line, key, dust_floor=1e-12, horizon=math.inf):
    """(payoff, frozen blocks, dust blocks, partial blocks) of one run."""
    gt = params.gt

    def accrued_at(b, t):
        return b.accrued + b.mass ** (-params.gamma) * (
            math.exp(-gt * b.born) - math.exp(-gt * t)) / gt

    def pays(mass, accrued, t):
        return (accrued + params.c) * mass ** (1.0 + params.gamma) * math.exp(-params.q * t)

    literal = isinstance(line, OptimalStatistic) and line.literal
    total, n_blocks, dust, partial = 0.0, 0, 0, 0
    stack = [Block(1.0, 0.0, 0.0, params.c)]
    while stack:
        b = stack.pop()
        n_blocks += 1
        if b.mass < dust_floor:
            total += pays(b.mass, b.accrued, b.born)
            dust += 1
            continue
        freeze_t = reference_freeze_time(b, line, params)
        split_t = math.inf
        if freeze_t > b.born:
            rng = reference_block_stream(key, b.path)
            split_t = b.born + rng.exponential(1.0 / model.rate)
        if freeze_t == math.inf and literal:
            continue  # the branch can never fire and pays nothing
        if min(freeze_t, split_t) > horizon:
            total += pays(b.mass, accrued_at(b, horizon), horizon)
            partial += 1
            continue
        if freeze_t <= split_t:
            total += pays(b.mass, accrued_at(b, freeze_t), freeze_t)
            continue
        s = scalar_split(model, rng)
        acc = accrued_at(b, split_t)
        zeta = (b.zeta + 1.0 / gt) * math.exp(gt * (split_t - b.born)) - 1.0 / gt
        n_blocks -= 1
        stack += [Block(b.mass * share, split_t, acc, zeta * share**params.gamma, b.path + (i,))
                  for i, share in enumerate((s, 1.0 - s))]
    return total, n_blocks, dust, partial


REF_MODELS = [BinaryUniform(1.0), BinaryPoint(1.0, 0.7), BinaryBeta(1.0, 0.5)]
REF_LINES = [FixedTime(1.0), MassBelow(0.1), OptimalStatistic(0.78),
             OptimalStatistic(0.78, literal=True)]


class TestReferenceEngine:
    N = 1500

    @staticmethod
    def _agree(a: np.ndarray, b: np.ndarray, what: str) -> None:
        se = math.hypot(a.std(ddof=1) / math.sqrt(a.size), b.std(ddof=1) / math.sqrt(b.size))
        assert abs(a.mean() - b.mean()) <= 4.0 * se, (what, a.mean(), b.mean(), se)

    @pytest.mark.parametrize("model", REF_MODELS, ids=["uniform", "point0.7", "beta0.5"])
    @pytest.mark.parametrize("line", REF_LINES, ids=["fixed", "mass", "optimal", "literal"])
    def test_means_agree(self, model, line):
        params = levy.make_params(model, gamma=1.0, theta=1.0, q=1.0, c=0.25)
        ref = np.array([reference_run(model, params, line,
                                      reference_run_key(20, "reference", i))[:2]
                        for i in range(self.N)])
        res = fragsim.ensemble_payoffs(model, params, line, self.N, 21)
        counts = np.bincount(res.blocks.run, minlength=self.N)
        self._agree(res.payoffs, ref[:, 0], "payoff")
        self._agree(counts, ref[:, 1], "blocks")

    def test_dust_and_partial_agree(self, ref_model, ref_params):
        line, opts = MassBelow(0.001), {"dust_floor": 0.05, "horizon": 1.5}
        ref = np.array([reference_run(ref_model, ref_params, line,
                                      reference_run_key(22, "reference", i),
                                      **opts)[2:] for i in range(self.N)])
        blocks = fragsim.ensemble_payoffs(ref_model, ref_params, line, self.N, 23, **opts).blocks
        dust = np.bincount(blocks.run[blocks.mass < 0.05], minlength=self.N)
        partial = np.bincount(blocks.run[blocks.frozen_at == 1.5], minlength=self.N)
        assert (dust.sum(), partial.sum()) == (blocks.dust_frozen, blocks.partial)
        self._agree(dust, ref[:, 0], "dust")
        self._agree(partial, ref[:, 1], "partial")


class TestRunKeys:
    N = 1500

    @pytest.mark.parametrize("line", REF_LINES[:3], ids=["fixed", "mass", "optimal"])
    def test_payoffs_agree_with_blake2b_keys(self, ref_model, ref_params, line):
        # Run keys are words of one substream, where they were one blake2b
        # hash per run: the payoff law must not notice.
        old_payoffs = materialised_run_sums(
            functools.partial(fragsim.run_stopping_line, ref_model, ref_params, line),
            [reference_run_key(24, "simulate", i) for i in range(self.N)],
            lambda blocks: blocks.contributions(ref_params))
        new = fragsim.ensemble_payoffs(ref_model, ref_params, line, self.N, 24)
        TestReferenceEngine._agree(new.payoffs, old_payoffs, "payoff")

    def test_smaller_ensemble_is_prefix(self):
        small = simulate_bytes("mass:0.1", runs=40).split("{")[0]
        large = simulate_bytes("mass:0.1", runs=100).split("{")[0]
        assert small.count("\n") > 42 and large.startswith(small)

    def test_keys_are_prefix_stable(self):
        np.testing.assert_array_equal(run_key(5, "simulate", 40), run_key(5, "simulate", 100)[:40])
        assert run_key(5, "simulate", 3).dtype == np.uint64

    def test_large_seeds(self, tmp_path, capsys):
        seeds = (0, 2**64, 2**200)
        firsts = {int(run_key(seed, "simulate", 1)[0]) for seed in seeds}
        assert len(firsts) == len(seeds)
        cfg = tmp_path / "readme.cfg"
        cfg.write_text(README_CFG)
        for seed in seeds:
            assert main(["simulate", "--config", str(cfg), "--runs", "5", "--line", "mass:0.1",
                         "--seed", str(seed)]) == 0
            summary = json.loads(capsys.readouterr().err)
            assert summary["config"]["seed"] == seed and summary["mean_payoff"] > 0.0


# sha256 of the `simulate` CSV plus its JSON summary on the README model,
# recorded when run keys became the raw words of one substream per ensemble
# (numpy 2.4, x86_64 Linux).  Any change to the draws or the arithmetic of
# the cascade shows up here.
GOLDEN_SIMULATE = [
    pytest.param("optimal:0.78", False, {"runs": 200},
                 "4ff9600afebb2291429fa9431713939b19df18ccd97a0b2bd6ebd5c86ad89a51",
                 id="optimal"),
    pytest.param("optimal:0.78", True, {"runs": 200},
                 "5cb972a90a5935d72c4469339a4fa13552b23736b8fde0388df4e3b192728acd",
                 id="optimal-literal"),
    pytest.param("mass:0.01", False, {"runs": 20},
                 "87c1a0e3f91d844e7bf62435f73ad5fb8d1c64fe8752eb2196e78a37840220e8",
                 id="mass"),
    pytest.param("fixed:2.0", False, {"runs": 60},
                 "abfe28ec0b3c3410035195209b13b8d496ddcc5e566ab8f739b4b2058902a5d8",
                 id="fixed"),
    pytest.param("mass:0.01", False, {"runs": 20, "text": README_CFG + "workers = 2\n"},
                 "87c1a0e3f91d844e7bf62435f73ad5fb8d1c64fe8752eb2196e78a37840220e8",
                 id="mass-workers2"),
    # dust and horizon branches: 26 dust blocks, 106 partial
    pytest.param("mass:0.001", False, {"runs": 40, "dust_floor": 0.05, "horizon": 1.5},
                 "0d38327f5a60fafc912533a82cd0acb1fffb5a948eb4795824d5d08211e810d0",
                 id="dust-horizon"),
    # Recorded with the masked engine, before the engine kept its state in
    # one array: point splits, and beta splits (their inverse incomplete beta).
    pytest.param("mass:0.01", False, {"runs": 20, "family": "point", "s0": 0.7},
                 "b23443d7721e9849aafd2e24562297db682a5e5dcda645c22633d80c0bf4d2ac",
                 id="point-mass"),
    pytest.param("optimal:0.78", False, {"runs": 100, "family": "beta", "shape": 0.5},
                 "648d137c53ee064a0b49ae0fbc06b84c7f19ee13e7523fcac15d3f4f85c828eb",
                 id="beta-optimal", marks=pytest.mark.skipif(
                     importlib.util.find_spec("scipy") is None,
                     reason="the beta cascade needs scipy")),
]


# sha256 of the `solve` JSON, the `sweep --axis c` CSV plus its summary, and
# the `verify` JSON on the README model at 3000 samples and 300 runs.  The
# solve digest was recorded before the tagged-lineage hook left the cascade
# engine, the verify digest when the value curve became a Chebyshev series
# and the generator's jump term a Gauss-Legendre rule (they move the
# path-average entries by up to 2e-9 relative and the generator residuals in
# their last bits).  The sweep digest was re-recorded when the c sweep began
# to solve b* once, at its first grid point, instead of bisecting again at
# every point: its b* column is now one value, bit-equal to `solve` at the
# first point (the old per-point values differed by up to 4.4e-7 relative),
# and its values moved by up to 2e-14 relative.  The verify digest was
# re-recorded once more when the threshold-dominance sweep began to take at
# least 10,000 paths whatever `runs` is: only the two `threshold_dominance_*`
# entries moved, and `threshold_dominance_high`, which failed at 300 paths
# (margin 0.00051, 0.28 SE), now passes, so `verify` exits 0 at this size.
# The solve, sweep and verify digests, and the beta solve digest below, were
# re-recorded once more when tilted jumps began to be drawn from their exact
# law instead of by rejection: the shared sample changed, and with it every
# value read from it.  Both verify digests also moved when the path-average
# checks began to report the shared-sample error of the difference they test
# (only their `std_error` and `tolerance` entries move on point splits, whose
# tilted atoms keep their bits).  The many-to-one and simulate digests did not
# move: physical jumps keep their bits.  The four solve digests and both
# verify digests were re-recorded once more when every generator residual
# became one dot product over `stopsolve.generator_rule`'s nodes and weights:
# only the generator-residual entries moved, by rounding: at most 3e-12
# absolute, and 3e-10 relative except on the none family, whose exact
# residuals are 0 and read as rounding noise on both sides.  Both verify
# digests were re-recorded once more when `verify` began to simulate each
# kind of random object once: both Laplace levels read one first-passage
# walk, both path-average checks one set of paths, and both fixed-time
# many-to-one functionals one cascade.  Only the Laplace, supermartingale and
# fixed-time many-to-one entries moved, by Monte Carlo amounts; at these
# sizes the martingale entries keep their bits.
# The four solve digests were re-recorded once more when `solve`'s residuals
# became the one-batch value of the batch table `verify` reads: only the
# generator-residual entries moved, by rounding: at most 3.1e-12 absolute,
# and 2.4e-10 relative except on the none family, whose exact residuals are 0.
GOLDEN_SIZES = {"samples": 3000, "runs": 300}
SWEEP_C_GRID = [0.1, 0.25, 0.5, 1.0]
GOLDEN_SOLVE = "b42e631f346ddfb520f9962e9cdc3e42144feaa79767f12f26e042389d50b49d"
GOLDEN_SWEEP_C = "987fe4a6858e24349e29ff99f35f2710b7b980b3bc49d5e6a84221d6dead0cdb"
GOLDEN_VERIFY = "c11c02d6153b2a3162e44a8469643335e86dee6e65ddcc98b24a6787ab800d43"
# The same `verify` with point splits (s0 = 0.7), the second config of the
# verify-ref benchmark.
GOLDEN_VERIFY_POINT = "d42c70302493918064b78f63fafee76adc0777f2657fb0b0b7f45e6e96995515"

# sha256 of the `solve` JSON per family at the same sizes: the README model,
# then its family lines replaced.
GOLDEN_SOLVE_FAMILIES = [
    pytest.param("family = uniform\nrate = 1.0", GOLDEN_SOLVE, id="uniform"),
    pytest.param("family = point\nrate = 1.0\ns0 = 0.7",
                 "b5e80ddb17f3dd18f0b7bd116558389fecd1790bbc1f1c8e64cf12dbc315df48", id="point"),
    pytest.param("family = beta\nrate = 1.0\nshape = 0.5",
                 "037c8d510557a84c8747ee8a6c6d916e402536029345dd271619292ab3785b2a", id="beta"),
    pytest.param("family = none",
                 "07504817a6c61c834db67cf5f3b6108865eb2e8e13e5a269d303f3abad56875b", id="none"),
]


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


class TestGoldenOutputs:
    @pytest.mark.parametrize("line,literal,overrides,digest", GOLDEN_SIMULATE)
    def test_simulate_bytes(self, line, literal, overrides, digest):
        assert sha256(simulate_bytes(line, literal, **overrides)) == digest

    @pytest.fixture(scope="class")
    def golden_cfg(self):
        return harness.with_overrides(harness.parse_config_text(README_CFG), **GOLDEN_SIZES)

    @pytest.mark.parametrize("family_lines,digest", GOLDEN_SOLVE_FAMILIES)
    def test_solve_bytes(self, family_lines, digest):
        text = README_CFG.replace("family = uniform\nrate = 1.0", family_lines)
        cfg = harness.with_overrides(harness.parse_config_text(text), **GOLDEN_SIZES)
        assert sha256(harness.dumps_json(harness.cmd_solve(cfg))) == digest

    def test_sweep_bytes(self, golden_cfg):
        csv_text, summary = harness.cmd_sweep(golden_cfg, "c", SWEEP_C_GRID)
        assert sha256(csv_text + harness.dumps_json(summary)) == GOLDEN_SWEEP_C

    def test_verify_bytes(self, golden_cfg):
        payload, _ = harness.cmd_verify(golden_cfg)
        assert sha256(harness.dumps_json(payload)) == GOLDEN_VERIFY

    def test_verify_point_bytes(self, golden_cfg):
        cfg = harness.with_overrides(golden_cfg, family="point", s0=0.7)
        payload, _ = harness.cmd_verify(cfg)
        assert sha256(harness.dumps_json(payload)) == GOLDEN_VERIFY_POINT

    def test_many_to_one_line_values(self):
        cfg = harness.parse_config_text(README_CFG)
        res = fragsim.many_to_one_stopping_line(cfg.model(), cfg.params(), 0.1, 500, 12345)
        assert (res.lhs.value, res.lhs.std_error) == (0.0772817506905252, 0.0035716595527077004)
        assert (res.rhs.value, res.rhs.std_error) == (0.07344157910764244, 0.007546318079055327)
