import functools
import math
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from scipy import integrate, interpolate, special

from fragstop import expfun, harness, levy, pathsim, stopsolve
from fragstop.levy import AssumptionError, BinaryUniform, DomainError
from fragstop.streams import substream

from conftest import (degenerate_sample, difference_generator_residual, path_average_check,
                      plain_bisect_b_star, rebuilt_residual_estimate, sweep_argmax, sweep_payoffs)


def make_degen(q=1.0, c=0.25, gamma=1.0, theta=1.0):
    model = BinaryUniform(0.0)
    params = levy.make_params(model, gamma=gamma, theta=theta, q=q, c=c)
    return model, params, degenerate_sample(params)


class TestSolveDegenerate:
    @pytest.mark.parametrize("q", [0.5, 1.0, 2.0])
    def test_threshold_is_inverse_discount(self, q):
        model, params, sample = make_degen(q=q)
        res = stopsolve.solve_b_star(model, params, sample, rel_tol_b=1e-10, diagnostics=False)
        assert res.b_star == pytest.approx(1.0 / q, rel=1e-9)

    def test_other_scales(self):
        # gamma*theta != 1 leaves b* = 1/q; the threshold ignores the start c.
        model, params, sample = make_degen(q=2.0, c=0.1, gamma=2.0, theta=0.5)
        res = stopsolve.solve_b_star(model, params, sample, rel_tol_b=1e-10, diagnostics=False)
        assert res.b_star == pytest.approx(0.5, rel=1e-9)

    def test_zero_tolerance_stops_at_one_ulp(self):
        # rel_tol_b = 0 is never met; the bisection must still end once the
        # midpoint can no longer split the bracket.
        model, params, sample = make_degen(q=1.0)
        res = stopsolve.solve_b_star(model, params, sample, rel_tol_b=0.0, diagnostics=False)
        assert res.b_star == pytest.approx(1.0, abs=1e-12)

    def test_value_closed_forms(self):
        model, params, sample = make_degen()
        b = 1.0
        for c in (0.1, 0.5, 0.9):
            expected = b * ((c + 1.0) / (b + 1.0)) ** 2
            assert stopsolve.value_tilde(params, sample, b, c) == pytest.approx(expected, rel=1e-12)
        value = stopsolve.ValueFunction(params, sample, b)
        assert value.star(2.0 * b) == 2.0 * b
        assert value.star(b) == pytest.approx(b, rel=1e-14)

    def test_kappa_le_gamma_rejected(self):
        model = BinaryUniform(0.0)
        params = levy.make_params(model, gamma=1.0, theta=1.0, q=0.0, c=1.0, allow_q_zero=True)
        with pytest.raises(AssumptionError):
            stopsolve.solve_b_star(model, params, degenerate_sample(params))

    def test_overflowing_bracket_is_reported_without_warnings(self):
        # p = kappa/gamma = 121.4: (b + I)^p overflows once b + I passes 346.4,
        # and the root b* = I/(p - 1) lies past that for the one draw I = 345.5.
        _, params, _ = make_degen(q=0.567, c=0.1, gamma=0.001, theta=4.71)
        sample = replace(degenerate_sample(params), draws=np.array([345.5]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(stopsolve.DivergenceError, match="no upper bracket"):
                stopsolve.bisect_b_star(params, sample)

    def test_optimal_value_far_above_threshold_is_quiet(self):
        # p = kappa/gamma = 35.9, so the candidate b* ((z + I)/(b* + I))^p
        # overflows at z = 1e6; the optimal value there is z itself.
        _, params, sample = make_degen(q=1e5, c=1e6, gamma=1000.0, theta=2.87)
        value = stopsolve.ValueFunction(params, sample, 1e-5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert value.star(1e6) == 1e6


class TestSolveReference:
    def test_threshold_equation_holds(self, ref_params, ref_solved):
        target = ref_params.kappa / ref_params.gamma
        assert ref_solved.f_at_b_star == pytest.approx(target, rel=1e-5)
        assert ref_solved.b_star > 0.0
        assert ref_solved.value_at_c >= ref_params.c

    def test_same_root_from_any_bracket_start(self, ref_model, ref_params, ref_sample, ref_solved):
        # The bracket search starts from c; a different start must converge to
        # the same root because f is samplewise monotone.
        far = levy.make_params(ref_model, gamma=1.0, theta=1.0, q=1.0, c=3.0)
        res = stopsolve.solve_b_star(ref_model, far, ref_sample, diagnostics=False)
        assert res.b_star == pytest.approx(ref_solved.b_star, rel=1e-5)

    def test_large_discount_shrinks_threshold(self, ref_model):
        # The no-splitting bound b* = 1/q dominates nontrivial families.
        params = levy.make_params(ref_model, gamma=1.0, theta=1.0, q=100.0, c=0.005)
        sample = expfun.draw_shared_sample(ref_model, params, 5000, seed=8)
        res = stopsolve.solve_b_star(ref_model, params, sample, diagnostics=False)
        assert res.b_star <= 1.0 / 100.0 * 1.02

    def test_value_dominates_payoff_below_threshold(self, ref_params, ref_sample, ref_solved):
        grid = np.linspace(0.05, ref_solved.b_star, 20)
        tilde = stopsolve.value_tilde(ref_params, ref_sample, ref_solved.b_star, grid)
        assert np.all(tilde >= grid - 1e-9)

    def test_value_convex(self, ref_params, ref_sample, ref_solved):
        grid = np.linspace(0.05, 2.0 * ref_solved.b_star, 60)
        tilde = stopsolve.value_tilde(ref_params, ref_sample, ref_solved.b_star, grid)
        second = np.diff(tilde, 2)
        assert np.all(second >= -1e-10)

    def test_curve_matches_exact_values(self, ref_params, ref_sample, ref_solved):
        curve = stopsolve.TildeCurve(
            stopsolve.ValueFunction(ref_params, ref_sample, ref_solved.b_star), 0.05, 5.0)
        pts = np.array([0.07, 0.3, 1.0, 2.5, 4.9])
        exact = stopsolve.value_tilde(ref_params, ref_sample, ref_solved.b_star, pts)
        assert np.allclose(curve.tilde(pts), exact, rtol=1e-7)


class SplineTildeCurve:
    """The value curve the Chebyshev `TildeCurve` replaced: a not-a-knot cubic
    spline in (log z, log value) through 100 log-spaced nodes.

    Statistical reference for the path-average checks; same constructor and
    methods as `stopsolve.TildeCurve`.
    """

    def __init__(self, value, z_min, z_max):
        lo = max(z_min, 1e-12) * 0.9
        hi = max(z_max, value.b_star, value.params.c) * 1.1
        grid = np.geomspace(lo, hi, 100)
        vals = value.tilde(grid)
        self.value, self.b_star = value, value.b_star
        self._lo, self._hi = lo, hi
        self._spline = interpolate.CubicSpline(np.log(grid), np.log(vals))

    def tilde(self, z):
        return np.exp(self._spline(np.log(np.clip(z, self._lo, self._hi))))

    def star(self, z):
        z = np.asarray(z, dtype=float)
        return np.where(z > self.b_star, z, self.tilde(z))


class PchipTildeCurve:
    """The value curve `TildeCurve` replaced: 800-node PCHIP on (log z, value).

    Statistical reference for the path-average checks; same constructor and
    methods as `stopsolve.TildeCurve`.
    """

    def __init__(self, value, z_min, z_max):
        lo = max(z_min, 1e-12) * 0.9
        hi = max(z_max, value.b_star, value.params.c) * 1.1
        grid = np.geomspace(lo, hi, 800)
        vals = value.tilde(grid)
        self.value, self.b_star = value, value.b_star
        self._lo, self._hi = lo, hi
        self._interp = interpolate.PchipInterpolator(np.log(grid), vals)

    def tilde(self, z):
        return self._interp(np.log(np.clip(z, self._lo, self._hi)))

    def star(self, z):
        z = np.asarray(z, dtype=float)
        return np.where(z > self.b_star, z, self.tilde(z))


# The README reference config (100,000 draws, 10,000 runs, seed 12345).
README_CFG = "rate = 1.0\ngamma = 1.0\ntheta = 1.0\nq = 1.0\nc = 0.25\nseed = 12345\n"
FAMILIES = {"uniform": "family = uniform\n", "point": "family = point\ns0 = 0.7\n",
            "beta": "family = beta\nshape = 0.5\n"}


@functools.cache
def readme_solved(family: str):
    """The README solve of one family; cached, as several tests read the same sample."""
    cfg = harness.parse_config_text(FAMILIES[family] + README_CFG)
    model, params = cfg.model(), cfg.params()
    sample = expfun.draw_shared_sample(model, params, cfg.samples, seed=cfg.seed)
    b_star = stopsolve.solve_b_star(model, params, sample, diagnostics=False).b_star
    return cfg, model, params, sample, b_star


def assert_path_averages_agree(reference_curve):
    """The README verify's path averages read through TildeCurve and through a reference curve.

    Same paths, same sample: they may differ only by interpolation error,
    far below their standard errors.
    """
    cfg, model, params, sample, b_star = readme_solved("uniform")
    times = (0.5, 1.0, 2.0)
    for check in (stopsolve.martingale_check, stopsolve.supermartingale_check):
        new, old = (path_average_check(check, model, params, sample, b_star, times,
                                       cfg.runs, substream(cfg.seed, "verify-mart"), curve_type)
                    for curve_type in (stopsolve.TildeCurve, reference_curve))
        assert new.reference == old.reference
        assert new.combined_se == pytest.approx(old.combined_se, rel=1e-3)
        for a, b in zip(new.estimates + new.decrements, old.estimates + old.decrements):
            assert abs(a.value - b.value) <= 1e-3 * b.std_error
            assert a.std_error == pytest.approx(b.std_error, rel=1e-3)


README_MODELS = {"uniform": BinaryUniform(1.0), "point": levy.BinaryPoint(1.0, 0.7),
                 "beta": levy.BinaryBeta(1.0, 0.5), "none": BinaryUniform(0.0)}


@functools.lru_cache(maxsize=None)
def readme_solve(family: str, seed: int = 12345, n: int = 5000):
    """(model, params, sample) of the README constants on `family`, q = 2 for `none`."""
    model = README_MODELS[family]
    params = levy.make_params(model, gamma=1.0, theta=1.0, q=2.0 if family == "none" else 1.0,
                              c=0.25)
    return model, params, expfun.draw_shared_sample(model, params, n, seed=seed)


class TestReplayedBisection:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("family", list(README_MODELS))
    def test_b_star_equals_the_plain_halving(self, family, seed):
        _, params, sample = readme_solve(family, seed, 2000)
        for rel_tol in (1e-16, 1e-6, 1e3):
            assert (stopsolve.bisect_b_star(params, sample, rel_tol_b=rel_tol)
                    == plain_bisect_b_star(params, sample, rel_tol))

    def test_f_of_b_calls_at_the_readme_config(self, monkeypatch):
        _, params, sample = readme_solve("uniform")
        calls = []
        f_of_b = expfun.f_of_b
        monkeypatch.setattr(expfun, "f_of_b", lambda *args: calls.append(args) or f_of_b(*args))
        stopsolve.bisect_b_star(params, sample)
        assert len(calls) <= 12  # 23 by the plain halving

    @staticmethod
    def _power_mean_nodes(monkeypatch) -> list:
        nodes = []
        power_mean = stopsolve._power_mean_many

        def counted(draws, z, p):
            nodes.extend(z)
            return power_mean(draws, z, p)

        monkeypatch.setattr(stopsolve, "_power_mean_many", counted)
        return nodes

    def test_star_takes_no_power_mean_above_b_star(self, monkeypatch):
        _, params, sample = readme_solve("uniform")
        value = stopsolve.ValueFunction(params, sample, stopsolve.bisect_b_star(params, sample))
        z = value.b_star * np.geomspace(0.1, 10.0, 29)
        before = np.where(z > value.b_star, z, value.tilde(z))  # how star read the candidate
        nodes = self._power_mean_nodes(monkeypatch)
        assert value.star(z).tobytes() == before.tobytes()
        assert nodes and max(nodes) <= value.b_star
        assert value.star(2.0 * value.b_star) == 2.0 * value.b_star and max(nodes) <= value.b_star

    def test_none_family_residuals_read_the_derivative_nodes_only(self, monkeypatch):
        model, params, sample = readme_solve("none")
        value = stopsolve.ValueFunction(params, sample, stopsolve.bisect_b_star(params, sample))
        x = 0.5 * value.b_star
        z, w = stopsolve.generator_rule(model, params, x)
        before = float(w @ value.tilde(z))  # how the residual read the candidate
        nodes = self._power_mean_nodes(monkeypatch)
        assert stopsolve.generator_residual(model, params, value.tilde, x) == before
        assert nodes == list(z[:3])
        nodes.clear()
        stopsolve.generator_residual_estimate(model, value, x)
        assert len(nodes) == 4 * stopsolve.RESIDUAL_BATCHES  # and b* for the normalization


class TestTildeCurve:
    @pytest.mark.parametrize("z_min,z_max", [(0.2, 60.0), (0.0, 1000.0)])
    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_chebyshev_accuracy(self, family, z_min, z_max):
        _, _, params, sample, b_star = readme_solved(family)
        curve = stopsolve.TildeCurve(stopsolve.ValueFunction(params, sample, b_star), z_min, z_max)
        pts = np.concatenate([[z_min], np.geomspace(max(z_min, 1e-9), z_max, 400)])
        exact = stopsolve.value_tilde(params, sample, b_star, pts)
        assert np.allclose(curve.tilde(pts), exact, rtol=1e-10, atol=0.0)

    def test_agrees_with_pchip_reference(self):
        assert_path_averages_agree(PchipTildeCurve)

    def test_agrees_with_spline_reference(self):
        assert_path_averages_agree(SplineTildeCurve)


class TestPowerMeans:
    NODES = stopsolve.TILDE_DEGREE + 1

    @pytest.mark.parametrize("n_draws", [3000, 100_000])
    def test_chunking_keeps_bits(self, ref_params, ref_sample, n_draws, monkeypatch):
        draws = ref_sample.draws[:n_draws]
        z = np.geomspace(1e-3, 1e3, self.NODES)
        p = ref_params.kappa / ref_params.gamma
        means = []
        for budget in (1, stopsolve.POWER_MEAN_BUDGET, 10**9):
            monkeypatch.setattr(stopsolve, "POWER_MEAN_BUDGET", budget)
            means.append(stopsolve._power_mean_many(draws, z, p))
        np.testing.assert_array_equal(means[0], means[1])
        np.testing.assert_array_equal(means[0], means[2])

    def test_peak_memory_is_one_block(self, ref_params, ref_sample):
        # The whole 100,000 x 26 table of powers takes about 21 MB; one
        # 100,000-draw row 0.8 MB.
        z = np.geomspace(1e-3, 1e3, self.NODES)
        tracemalloc.start()
        try:
            stopsolve._power_mean_many(ref_sample.draws, z, ref_params.kappa / ref_params.gamma)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert ref_sample.draws.size == 100_000 and peak < 4e6


class TestPasting:
    def test_degenerate_gaps_vanish(self):
        model, params, sample = make_degen()
        gaps = stopsolve.pasting_check(stopsolve.ValueFunction(params, sample, 1.0))
        assert abs(gaps.value_gap) <= 1e-10
        assert abs(gaps.slope_gap) <= 1e-8

    def test_reference_gaps_small(self, ref_params, ref_sample, ref_solved):
        gaps = stopsolve.pasting_check(
            stopsolve.ValueFunction(ref_params, ref_sample, ref_solved.b_star))
        assert abs(gaps.value_gap) <= 1e-6 * ref_solved.b_star
        assert abs(gaps.slope_gap) <= 1e-4  # bisection-tolerance level on the solve sample

    def test_corrupted_threshold_breaks_smoothness(self, ref_params, ref_sample, ref_solved):
        gaps = stopsolve.pasting_check(
            stopsolve.ValueFunction(ref_params, ref_sample, 1.5 * ref_solved.b_star))
        assert abs(gaps.slope_gap) > 0.02


QUAD_TOL = 1e-9  # absolute tolerance of the quad reference, and the bound on its gap


def quad_jump_term(model, params, value_fn, x, fx, kink=None):
    """The generator's jump term by adaptive quadrature in s, as the package computed it
    before its Gauss-Legendre rule; split at the kink of value_fn, if one is given."""
    gamma = params.gamma

    def branches(s):
        t = 1.0 - s
        return s * (value_fn(s**gamma * x) - fx) + t * (value_fn(t**gamma * x) - fx)

    edges = [0.5, 1.0]
    if kink is not None:
        r = (kink / x) ** (1.0 / gamma)
        edges[1:1] = [k for k in (r, 1.0 - r) if 0.5 < k < 1.0]
    quad = functools.partial(integrate.quad, epsabs=QUAD_TOL, epsrel=1e-8, limit=100)
    if isinstance(model, levy.BinaryUniform):
        return model.rate * quad(lambda s: 2.0 * branches(s), 0.5, 1.0, points=edges[1:-1])[0]
    # Beta family: the (1-s)^(shape-1) endpoint singularity goes into the
    # quadrature weight of the piece that ends at 1 (a weighted quad takes no
    # break points, so a kink splits off the piece before it).
    a = model.shape
    log_norm = math.log(2.0) - float(special.betaln(a, a))

    def integrand(s):
        return math.exp(log_norm + (a - 1.0) * math.log(s)) * branches(s)

    total = quad(integrand, edges[-2], 1.0, weight="alg", wvar=(0.0, a - 1.0))[0]
    if len(edges) == 3:
        total += quad(lambda s: (1.0 - s) ** (a - 1.0) * integrand(s), 0.5, edges[1])[0]
    return model.rate * total


class TestGenerator:
    @pytest.mark.parametrize("gamma", [0.3, 0.5, 1.0, 2.0])
    @pytest.mark.parametrize("model", [BinaryUniform(1.0), levy.BinaryBeta(1.0, 0.5),
                                       levy.BinaryBeta(1.0, 3.0)],
                             ids=["uniform", "beta0.5", "beta3"])
    def test_jump_term_matches_quad_reference(self, model, gamma):
        # The whole residual against a central difference plus the quad jump
        # term minus lam f(x), at candidate points below b* and at
        # optimal-value points above it, where the integrand kinks at
        # s^gamma x = b* or (1-s)^gamma x = b*.
        params = levy.make_params(model, gamma=gamma, theta=1.0, q=1.0, c=0.25)
        sample = expfun.draw_shared_sample(model, params, 3000, seed=12345)
        b = stopsolve.solve_b_star(model, params, sample, diagnostics=False).b_star
        for mults, kink in (((0.2, 0.5, 0.9), None), ((1.5, 2.0, 4.0), b)):
            value = stopsolve.ValueFunction(params, sample, b)
            fn = value.tilde if kink is None else value.star
            for x in (m * b for m in mults):
                h = stopsolve.FD_STEP_REL * x
                fm, fx, fp = fn(np.array([x - h, x, x + h]))
                ref = ((1.0 + params.gt * x) * (fp - fm) / (2.0 * h) - params.lam * fx
                       + quad_jump_term(model, params, fn, x, fx, kink))
                new = stopsolve.generator_residual(model, params, fn, x, kink=kink)
                assert abs(new - ref) <= QUAD_TOL

    @pytest.mark.parametrize("model", [BinaryUniform(1.0), levy.BinaryPoint(1.0, 0.7),
                                       levy.BinaryBeta(1.0, 0.5), levy.BinaryBeta(1.0, 3.0)],
                             ids=["uniform", "point", "beta0.5", "beta3"])
    def test_rule_matches_difference_reference(self, model):
        # One dot product over the rule's nodes, and the batch table, against
        # the finite difference plus jump term and the per-batch rebuilds.
        params = levy.make_params(model, gamma=1.0, theta=1.0, q=1.0, c=0.25)
        sample = expfun.draw_shared_sample(model, params, 3000, seed=12345)
        b = stopsolve.bisect_b_star(params, sample)
        value = stopsolve.ValueFunction(params, sample, b)
        for x, star in ((0.2 * b, False), (0.5 * b, False), (0.9 * b, False),
                        (1.5 * b, True), (2.0 * b, True), (4.0 * b, True)):
            fn, kink = (value.star, b) if star else (value.tilde, None)
            new = stopsolve.generator_residual(model, params, fn, x, kink=kink)
            ref = difference_generator_residual(model, params, fn, x, kink=kink)
            assert abs(new - ref) <= 1e-9 * abs(ref)
            est = stopsolve.generator_residual_estimate(model, value, x, star=star)
            ref_est = rebuilt_residual_estimate(model, params, sample, b, x, star=star)
            assert abs(est.value - ref_est.value) <= 1e-9 * abs(ref_est.value)
            # On point splits at 4 b* every node lies above b*, where the value
            # is exact: the error is 0, and the reference's is its rounding.
            assert abs(est.std_error - ref_est.std_error) <= 1e-9 * ref_est.std_error + 1e-15

    def test_identity_function_residual(self):
        model, params, _ = make_degen(q=1.0)
        for x in (0.5, 1.0, 3.0):
            res = stopsolve.generator_residual(model, params, lambda z: z, x)
            assert res == pytest.approx(1.0 - params.q * x, abs=1e-9)

    def test_degenerate_candidate_residual_zero(self):
        model, params, sample = make_degen()
        fn = lambda z: stopsolve.value_tilde(params, sample, 1.0, z)
        for x in (0.2, 0.5, 0.9):
            assert stopsolve.generator_residual(model, params, fn, x) == pytest.approx(0.0, abs=1e-9)

    def test_reference_candidate_residual_within_noise(
        self, ref_model, ref_params, ref_sample, ref_solved
    ):
        b = ref_solved.b_star
        value = stopsolve.ValueFunction(ref_params, ref_sample, b)
        for x in (0.2 * b, 0.5 * b, 0.9 * b):
            est = stopsolve.generator_residual_estimate(ref_model, value, x)
            assert abs(est.value) <= 3.0 * est.std_error + 1e-6

    def test_reference_stopping_region_nonpositive(
        self, ref_model, ref_params, ref_sample, ref_solved
    ):
        b = ref_solved.b_star
        value = stopsolve.ValueFunction(ref_params, ref_sample, b)
        est = stopsolve.generator_residual_estimate(ref_model, value, 2.0 * b, star=True)
        assert est.value <= 3.0 * est.std_error
        assert est.value < -0.1  # strictly inside the stopping region

    def test_rejects_nonpositive_x(self, ref_model, ref_params):
        with pytest.raises(DomainError):
            stopsolve.generator_residual(ref_model, ref_params, lambda z: z, 0.0)


class TestLaplaceIdentity:
    def test_degenerate_exact(self, rng):
        model, params, sample = make_degen(c=1.0)
        levels = [mult * params.c for mult in (1.5, 2.0)]
        for b, chk in zip(levels, stopsolve.first_passage_laplace_check(
                model, params, levels, 50, rng, sample)):
            assert chk.b == b
            expected = ((params.c + 1.0) / (b + 1.0)) ** 2
            assert chk.mc.value == pytest.approx(expected, rel=1e-12)
            assert chk.analytic == pytest.approx(expected, rel=1e-12)
            assert chk.mc.std_error == pytest.approx(0.0, abs=1e-12)

    def test_boundary_threshold(self, ref_model, ref_params, ref_sample, rng):
        chk, = stopsolve.first_passage_laplace_check(
            ref_model, ref_params, [ref_params.c], 20, rng, ref_sample
        )
        assert chk.mc.value == 1.0
        assert chk.analytic == 1.0

    def test_threshold_below_start_rejected(self, ref_model, ref_params, ref_sample, rng):
        with pytest.raises(DomainError):
            stopsolve.first_passage_laplace_check(
                ref_model, ref_params, [2.0 * ref_params.c, 0.5 * ref_params.c], 10, rng,
                ref_sample,
            )

    def test_reference_agreement(self, ref_model, ref_params, ref_sample):
        rng = substream(21, "laplace")
        chk, = stopsolve.first_passage_laplace_check(
            ref_model, ref_params, [2.0 * ref_params.c], 20_000, rng, ref_sample
        )
        assert abs(chk.mc.value - chk.analytic) <= 3.0 * chk.combined_se

    def test_horizon_misses_count_as_zero(self, ref_model, ref_params, ref_sample):
        b, n, horizon = 2.0 * ref_params.c, 2000, 0.05
        chk, = stopsolve.first_passage_laplace_check(
            ref_model, ref_params, [b], n, substream(27, "miss"), ref_sample, horizon=horizon
        )
        tau = pathsim.simulate_Z_first_passage(ref_model, ref_params, [b], n,
                                               substream(27, "miss"), horizon)[:, 0]
        assert chk.horizon_misses == np.count_nonzero(np.isinf(tau)) > 0
        assert chk.mc.value == np.exp(-ref_params.lam * tau).mean()

    def test_general_discount(self, ref_model, ref_params):
        # The identity holds for any discount once the sample carries the
        # matching tilt: lam = 1 is the reference model's discount at q = 0.
        lam = 1.0
        params_lam = levy.make_params(
            ref_model, gamma=1.0, theta=1.0, q=0.0, c=0.25, allow_q_zero=True
        )
        assert params_lam.lam == lam
        sample = expfun.draw_shared_sample(ref_model, params_lam, 20_000, seed=5)
        assert sample.kappa == levy.kappa_root(ref_model, ref_params.theta, lam)
        chk, = stopsolve.first_passage_laplace_check(
            ref_model, params_lam, [2.0 * ref_params.c], 10_000,
            substream(22, "laplace-gen"), sample,
        )
        assert chk.lam == lam
        assert abs(chk.mc.value - chk.analytic) <= 3.0 * chk.combined_se

    def test_tilt_mismatch_rejected(self, ref_model, ref_params, ref_sample, rng):
        # ref_sample carries the q = 1 tilt; params at q = 0 want another.
        params_q0 = levy.make_params(
            ref_model, gamma=1.0, theta=1.0, q=0.0, c=0.25, allow_q_zero=True
        )
        with pytest.raises(DomainError):
            stopsolve.first_passage_laplace_check(
                ref_model, params_q0, [2.0 * ref_params.c], 10, rng, ref_sample
            )


class TestPathAverages:
    def test_degenerate_martingale_exact(self, rng):
        model, params, sample = make_degen(c=1.0)
        chk = path_average_check(stopsolve.martingale_check, model, params, sample, 1.0,
                                 (0.0, 0.5, 1.0), 5, rng)
        for est, se in zip(chk.estimates, chk.combined_se):
            assert est.value == pytest.approx(chk.reference, rel=1e-9)
            assert est.std_error == pytest.approx(0.0, abs=1e-12)
            assert se == pytest.approx(0.0, abs=1e-12)

    def test_time_zero_is_reference(self, ref_model, ref_params, ref_sample, ref_solved, rng):
        chk = path_average_check(
            stopsolve.martingale_check, ref_model, ref_params, ref_sample, ref_solved.b_star,
            (0.0,), 50, rng,
        )
        assert chk.estimates[0].value == pytest.approx(chk.reference, rel=1e-7)

    def test_reference_constancy(self, ref_model, ref_params, ref_sample, ref_solved):
        chk = path_average_check(
            stopsolve.martingale_check, ref_model, ref_params, ref_sample, ref_solved.b_star,
            (0.5, 1.0, 2.0), 20_000, substream(23, "mart"),
        )
        for est, se in zip(chk.estimates, chk.combined_se):
            assert abs(est.value - chk.reference) <= 3.0 * se

    @pytest.mark.parametrize("star,c_mult", [(False, None), (True, None), (True, 2.0)],
                             ids=["candidate", "optimal", "optimal-start-above-b*"])
    def test_sample_error_is_the_direct_delta_method(self, ref_model, ref_params, ref_sample,
                                                      ref_solved, star, c_mult):
        # The path side's power mean H_t(y) summed over every (draw, path) pair,
        # against the degree-5 fit the checks carry to the draws.
        b = ref_solved.b_star
        params = ref_params if c_mult is None else levy.make_params(
            ref_model, gamma=1.0, theta=1.0, q=1.0, c=c_mult * b)
        draws = ref_sample.draws[:3000]
        value = stopsolve.ValueFunction(params, replace(ref_sample, draws=draws), b)
        times = np.array([0.0, 0.5, 1.0, 2.0])
        z = pathsim.simulate_Z_at_times(ref_model, params, times, 400, substream(27, "se"))
        p, norm_i = value.p, (b + draws) ** value.p
        expected = []
        for k, t in enumerate(times):
            paths = z[:, k][z[:, k] <= b] if star else z[:, k]
            h = ((paths[None, :] + draws[:, None]) ** p).sum(axis=1) / z.shape[0]
            d = math.exp(-params.lam * t) * h
            if not (star and params.c > b):
                d -= (params.c + draws) ** p
            influence = b / value.norm * (d - d.mean() / value.norm * norm_i)
            expected.append(influence.std(ddof=1) / math.sqrt(draws.size))
        got = stopsolve._shared_sample_errors(value, times, z, star=star)
        # At t = 0 the difference is exactly 0; the fit leaves about 1e-6 of the other times.
        np.testing.assert_allclose(got, expected, rtol=1e-3, atol=1e-5 * max(expected))

    def test_supermartingale_decreasing(self, ref_model, ref_params, ref_sample, ref_solved):
        chk = path_average_check(
            stopsolve.supermartingale_check, ref_model, ref_params, ref_sample,
            ref_solved.b_star, (0.0, 0.5, 1.0, 2.0), 10_000, substream(24, "sup"),
        )
        assert chk.estimates[0].value == pytest.approx(chk.reference, rel=1e-7)
        for est, se in zip(chk.estimates, chk.combined_se):
            assert est.value <= chk.reference + 3.0 * se
        for dec in chk.decrements:
            assert dec.value >= -3.0 * dec.std_error

    def test_stopping_region_start_strictly_decreases(
        self, ref_model, ref_params, ref_sample, ref_solved
    ):
        # Starting above the threshold, the generator is strictly negative, so
        # the discounted optimal value drops below its start almost at once.
        model = ref_model
        params = levy.make_params(model, gamma=1.0, theta=1.0, q=1.0, c=2.0 * ref_solved.b_star)
        chk = path_average_check(
            stopsolve.supermartingale_check, model, params, ref_sample, ref_solved.b_star,
            (0.25,), 4_000, substream(25, "sup-stop"),
        )
        est = chk.estimates[0]
        assert est.value < chk.reference - 3.0 * est.std_error

    def test_degenerate_supermartingale_profile(self):
        # Constant until the deterministic passage at ln(2/1.25) ~ 0.47, then
        # strictly decreasing.
        model, params, sample = make_degen(c=0.25)
        chk = path_average_check(
            stopsolve.supermartingale_check, model, params, sample, 1.0, (0.1, 0.3, 1.0, 2.0),
            3, np.random.default_rng(0),
        )
        vals = [e.value for e in chk.estimates]
        assert vals[0] == pytest.approx(chk.reference, rel=1e-9)
        assert vals[1] == pytest.approx(chk.reference, rel=1e-9)
        assert vals[2] < vals[1]
        assert vals[3] < vals[2]


class TestThresholdSweep:
    def test_degenerate_matches_closed_form(self, rng):
        model, params, sample = make_degen(c=0.25)
        grid = np.linspace(0.5, 2.0, 7)
        sweep = stopsolve.threshold_payoff_sweep(model, params, grid, 10, rng)
        expected = grid * ((params.c + 1.0) / (grid + 1.0)) ** 2
        means, std_errors = sweep_payoffs(sweep)
        assert np.allclose(means, expected, rtol=1e-12)
        # every path is the same deterministic passage; only rounding remains
        assert np.allclose(std_errors, 0.0, atol=1e-8)

    def test_reference_peak_near_threshold(self, ref_model, ref_params, ref_solved):
        b = ref_solved.b_star
        grid = np.linspace(0.5 * b, 2.0 * b, 25)
        sweep = stopsolve.threshold_payoff_sweep(
            ref_model, ref_params, grid, 30_000, substream(26, "sweep")
        )
        step = grid[1] - grid[0]
        assert abs(sweep_argmax(sweep) - b) <= step + 1e-12
