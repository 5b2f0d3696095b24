"""End-to-end acceptance suite.

One test per criterion; each prints a PASS/FAIL line with its runtime and
enforces its budget.  The statistical criteria run at three standard errors
on frozen seeds; the deterministic criteria are exact to the stated
tolerances.

Reference configuration: uniform binary splits at unit rate with
gamma = theta = q = 1 and start c = 0.25, which lies inside the
continuation region (threshold ~ 0.78).
"""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from fragstop import expfun, fragsim, levy, pathsim, stopsolve
from fragstop.cli import main
from fragstop.streams import substream

from conftest import degenerate_sample, path_average_check, sweep_argmax

REF_MODEL = levy.BinaryUniform(1.0)
REF_PARAMS = levy.make_params(REF_MODEL, gamma=1.0, theta=1.0, q=1.0, c=0.25)
ACC_SEED = 911

_cache: dict = {}


def ref_sample() -> expfun.SharedSample:
    if "sample" not in _cache:
        _cache["sample"] = expfun.draw_shared_sample(
            REF_MODEL, REF_PARAMS, 100_000, seed=ACC_SEED
        )
    return _cache["sample"]


def ref_solved() -> stopsolve.SolverResult:
    if "solved" not in _cache:
        _cache["solved"] = stopsolve.solve_b_star(
            REF_MODEL, REF_PARAMS, ref_sample(), diagnostics=False
        )
    return _cache["solved"]


@contextmanager
def criterion(num: int, budget_s: float, desc: str):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num} FAIL: {desc}")
        raise
    elapsed = time.perf_counter() - t0
    print(f"ACCEPTANCE {num} PASS ({elapsed:.1f}s / budget {budget_s:.0f}s): {desc}")
    assert elapsed < budget_s, f"criterion {num} exceeded its runtime budget"


def test_criterion_01_deterministic_oracle_suite():
    with criterion(1, 1.0, "no-splitting oracle reproduces every closed form to 1e-8"):
        model = levy.BinaryUniform(0.0)
        params = levy.make_params(model, gamma=1.0, theta=1.0, q=1.0, c=0.25)
        assert params.kappa == pytest.approx(2.0, abs=1e-8)

        rng = substream(ACC_SEED, "det-oracle")
        draws = pathsim.simulate_I_infty(model, params, rng, 4)
        assert draws == pytest.approx(np.ones(4), abs=1e-12)

        sample = degenerate_sample(params)
        for b in (0.25, 0.5, 1.0, 2.0, 5.0):
            assert expfun.f_of_b(sample, params, b) == pytest.approx(1.0 + 1.0 / b, abs=1e-10)

        solved = stopsolve.solve_b_star(model, params, sample, rel_tol_b=1e-10)
        assert solved.b_star == pytest.approx(1.0, abs=1e-8)

        for c in (0.1, 0.25, 0.7, 1.0):
            tilde = stopsolve.value_tilde(params, sample, solved.b_star, c)
            assert tilde == pytest.approx(((c + 1.0) / 2.0) ** 2, abs=1e-8)
        assert stopsolve.ValueFunction(params, sample, solved.b_star).star(2.0) == pytest.approx(
            2.0, abs=1e-8
        )

        levels = (0.375, 0.5)
        for b, chk in zip(levels, stopsolve.first_passage_laplace_check(
                model, params, levels, 10, rng, sample)):
            exact = ((params.c + 1.0) / (b + 1.0)) ** 2
            assert chk.mc.value == pytest.approx(exact, abs=1e-8)
            assert chk.analytic == pytest.approx(exact, abs=1e-8)


def test_criterion_02_closed_form_exponents():
    with criterion(2, 1.0, "exponent closed forms to 1e-12 and the reference root to 1e-10"):
        grid = np.arange(0.1, 5.0001, 0.1)
        for rho in (0.5, 1.0, 2.0):
            uni = levy.BinaryUniform(rho)
            pnt = levy.BinaryPoint(rho, 0.5)
            for p in grid:
                assert levy.phi(uni, p) == pytest.approx(rho * p / (p + 2.0), abs=1e-12)
                assert levy.phi(pnt, p) == pytest.approx(rho * (1.0 - 2.0**-p), abs=1e-12)
        assert REF_PARAMS.kappa == pytest.approx((1.0 + math.sqrt(17.0)) / 2.0, abs=1e-10)


def test_criterion_03_moment_oracle_agreement():
    with criterion(3, 30.0, "sampler moments match the recursion oracle at 1e5 draws"):
        sample = ref_sample()
        assert sample.n == 100_000
        for n in (1, 2):
            mc = expfun.estimate_moment(sample, 0.0, float(n))
            oracle = expfun.moment_recursion(REF_MODEL, REF_PARAMS, n)
            assert abs(mc.value - oracle) <= 3.0 * mc.std_error, (
                f"order {n}: {mc.value} vs {oracle} (se {mc.std_error})"
            )


def test_criterion_04_first_passage_laplace():
    with criterion(4, 60.0, "first-passage transform matches the moment ratio at 1e5 paths"):
        sample = ref_sample()
        mults = (1.5, 2.0)
        checks = stopsolve.first_passage_laplace_check(
            REF_MODEL, REF_PARAMS, [mult * REF_PARAMS.c for mult in mults], 100_000,
            substream(ACC_SEED, "laplace"), sample,
        )
        for mult, chk in zip(mults, checks):
            assert chk.horizon_misses == 0
            assert abs(chk.mc.value - chk.analytic) <= 3.0 * chk.combined_se, (
                f"b = {mult}c: mc {chk.mc.value} vs analytic {chk.analytic}"
            )


def test_criterion_05_threshold_optimality():
    with criterion(5, 120.0, "payoff sweep over 25 thresholds peaks at the solved threshold"):
        b = ref_solved().b_star
        grid = np.linspace(0.5 * b, 2.0 * b, 25)
        step = grid[1] - grid[0]
        sweep = stopsolve.threshold_payoff_sweep(
            REF_MODEL, REF_PARAMS, grid, 100_000, substream(ACC_SEED, "sweep")
        )
        argmax = sweep_argmax(sweep)
        assert abs(argmax - b) <= step + 1e-12, f"argmax {argmax} vs b* {b} (step {step})"


def test_criterion_06_martingale_and_supermartingale():
    with criterion(6, 120.0, "discounted value means constant (candidate) / nonincreasing (optimal)"):
        sample = ref_sample()
        b = ref_solved().b_star
        times = (0.5, 1.0, 2.0)
        mart = path_average_check(stopsolve.martingale_check, REF_MODEL, REF_PARAMS, sample, b,
                                  times, 20_000, substream(ACC_SEED, "mart"))
        for t, est, se in zip(mart.times, mart.estimates, mart.combined_se):
            assert abs(est.value - mart.reference) <= 3.0 * se, f"t = {t}"
        sup = path_average_check(stopsolve.supermartingale_check, REF_MODEL, REF_PARAMS, sample,
                                 b, times, 20_000, substream(ACC_SEED, "sup"))
        for t, est, se in zip(sup.times, sup.estimates, sup.combined_se):
            assert est.value <= sup.reference + 3.0 * se, f"t = {t}"
        for dec in sup.decrements:
            assert dec.value >= -3.0 * dec.std_error


def test_criterion_07_pasting_and_generator():
    with criterion(7, 60.0, "continuous/smooth pasting at b* and generator sign pattern"):
        sample = ref_sample()
        b = ref_solved().b_star

        value = stopsolve.ValueFunction(REF_PARAMS, sample, b)
        gaps = stopsolve.pasting_check(value)
        assert abs(gaps.value_gap) <= 1e-6 * b
        assert abs(gaps.slope_gap) <= 0.02

        # Independent evaluation samples at the default size: the slope gap is
        # within tolerance and shrinks (on average over two replicates) when
        # the evaluation sample is quadrupled.
        gaps_small, gaps_big = [], []
        for k in range(2):
            s1 = expfun.draw_shared_sample(REF_MODEL, REF_PARAMS, 100_000, seed=ACC_SEED + 10 + k)
            s4 = expfun.draw_shared_sample(REF_MODEL, REF_PARAMS, 400_000, seed=ACC_SEED + 20 + k)
            g1 = abs(stopsolve.pasting_check(stopsolve.ValueFunction(REF_PARAMS, s1, b)).slope_gap)
            g4 = abs(stopsolve.pasting_check(stopsolve.ValueFunction(REF_PARAMS, s4, b)).slope_gap)
            assert g1 <= 0.02
            gaps_small.append(g1)
            gaps_big.append(g4)
        assert np.mean(gaps_big) < np.mean(gaps_small), "gap did not shrink under 4x samples"

        for x in (0.2 * b, 0.5 * b, 0.9 * b):
            est = stopsolve.generator_residual(REF_MODEL, value, x)
            assert abs(est.value) <= 3.0 * est.std_error + 1e-6, f"x = {x}"
        est = stopsolve.generator_residual(REF_MODEL, value, 2.0 * b, star=True)
        assert est.value <= 3.0 * est.std_error + 1e-6


def test_criterion_08_many_to_one():
    with criterion(8, 120.0, "block-average identities, fixed time and stopping line"):
        fixed = fragsim.many_to_one_fixed_time(REF_MODEL, REF_PARAMS, 1.0, 10_000, ACC_SEED)
        for (f_id, p), res in zip((("identity", 1.0), ("square", 2.0)), fixed):
            assert res.rhs.value == pytest.approx(math.exp(-levy.phi(REF_MODEL, p)), rel=1e-12)
            assert abs(res.lhs.value - res.rhs.value) <= 3.0 * res.combined_se, f_id
        res = fragsim.many_to_one_stopping_line(REF_MODEL, REF_PARAMS, 0.1, 10_000, ACC_SEED)
        assert abs(res.lhs.value - res.rhs.value) <= 3.0 * res.combined_se


def test_criterion_09_optimal_line_end_to_end():
    with criterion(9, 300.0, "optimal-line ensemble payoff equals the solved value and dominates"):
        solved = ref_solved()
        b = solved.b_star
        p = REF_PARAMS.kappa / REF_PARAMS.gamma
        _, value_se = expfun.ratio_of_power_means(ref_sample(), REF_PARAMS.c, b, p)
        value_se *= b

        center = fragsim.ensemble_payoffs(
            REF_MODEL, REF_PARAMS, fragsim.OptimalStatistic(b), 10_000, ACC_SEED
        )
        est = center.estimate
        assert abs(est.value - solved.value_at_c) <= 3.0 * math.hypot(est.std_error, value_se)

        for factor in (0.8, 1.25):
            other = fragsim.ensemble_payoffs(
                REF_MODEL, REF_PARAMS, fragsim.OptimalStatistic(factor * b), 10_000, ACC_SEED
            )
            diff = center.payoffs - other.payoffs
            se = diff.std(ddof=1) / math.sqrt(diff.size)
            assert diff.mean() >= 3.0 * se, f"no strict dominance over {factor} b*"


def test_criterion_10_negative_control_and_determinism(tmp_path, capsys):
    with criterion(10, 300.0, "corrupted threshold fails optimality/pasting/dominance; reruns byte-identical"):
        solved = ref_solved()
        sample = ref_sample()
        corrupt = 1.5 * solved.b_star

        # criterion 5's sweep, centered on the corrupted value, peaks elsewhere
        grid = np.linspace(0.5 * corrupt, 2.0 * corrupt, 25)
        step = grid[1] - grid[0]
        sweep = stopsolve.threshold_payoff_sweep(
            REF_MODEL, REF_PARAMS, grid, 30_000, substream(ACC_SEED, "neg-sweep")
        )
        assert abs(sweep_argmax(sweep) - corrupt) > step

        # criterion 7's smooth pasting breaks
        gaps = stopsolve.pasting_check(stopsolve.ValueFunction(REF_PARAMS, sample, corrupt))
        assert abs(gaps.slope_gap) > 0.02

        # criterion 9's dominance fails: the corrupted line loses to 0.8x
        center = fragsim.ensemble_payoffs(
            REF_MODEL, REF_PARAMS, fragsim.OptimalStatistic(corrupt), 4_000, ACC_SEED + 1
        )
        lower = fragsim.ensemble_payoffs(
            REF_MODEL, REF_PARAMS, fragsim.OptimalStatistic(0.8 * corrupt), 4_000, ACC_SEED + 1
        )
        diff = center.payoffs - lower.payoffs
        se = diff.std(ddof=1) / math.sqrt(diff.size)
        assert not diff.mean() >= 3.0 * se

        # determinism: identical (config, seed) gives byte-identical outputs
        cfg = tmp_path / "acc.cfg"
        cfg.write_text(
            "family = uniform\nrate = 1.0\ngamma = 1.0\ntheta = 1.0\n"
            "q = 1.0\nc = 0.25\nsamples = 2000\nruns = 200\nseed = 77\n"
        )
        outs = []
        for _ in range(2):
            assert main(["solve", "--config", str(cfg)]) == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1] and outs[0]
        sims = []
        for _ in range(2):
            assert main(["simulate", "--config", str(cfg), "--runs", "1",
                         "--line", "optimal:0.7"]) == 0
            cap = capsys.readouterr()
            sims.append((cap.out, cap.err))
        assert sims[0] == sims[1]
