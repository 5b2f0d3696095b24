"""Output checks for benchmark jobs.

Every check holds for any correct program whatever order it draws its
random numbers in, so a reimplemented sampler or simulator passes them.
Statistical checks allow SE_BOUND standard errors: the lifetime integral
has only about kappa/gamma (2.4 to 2.7 here) finite moments, so studentized
means have heavier tails than normal, and a campaign runs thousands of
checks; a bias of SE_BOUND standard errors (about 1% of the mean at 5000
draws) still fails.
"""

from __future__ import annotations

import functools
import io
import math
from contextlib import contextmanager

import numpy as np

SE_BOUND = 6.0
MASS_TOL = 1e-12
CSV_SCHEMA_PREFIX = "# schema: fragstop.v1."


@contextmanager
def capture_samples(log: list):
    """Append (model, params, sample) for every shared sample the program draws.

    The commands keep their samples to themselves; this pass-through hook
    on `expfun.draw_shared_sample` exposes them to the sample-mean check.
    """
    from fragstop import expfun

    original = expfun.draw_shared_sample

    @functools.wraps(original)
    def draw_shared_sample(model, params, *args, **kwargs):
        sample = original(model, params, *args, **kwargs)
        log.append((model, params, sample))
        return sample

    expfun.draw_shared_sample = draw_shared_sample
    try:
        yield log
    finally:
        expfun.draw_shared_sample = original


def _sample_mean(model, params, sample) -> list[str]:
    """Mean of the draws against the integer-moment recursion at n = 1."""
    from fragstop import expfun

    target = expfun.moment_recursion(model, params, 1)
    est = expfun.estimate_moment(sample, 0.0, 1.0)
    tol = SE_BOUND * est.std_error + 1e-9 * target
    if abs(est.value - target) > tol:
        return [f"sample mean {est.value!r} vs moment recursion {target!r} "
                f"(n = {sample.n}, se = {est.std_error!r})"]
    return []


def _solve(cfg, payload: dict) -> list[str]:
    bad = []
    p = payload["kappa"] / cfg.gamma
    if abs(payload["f_at_b_star"] - p) > 10.0 * cfg.bisect_rel_tol * p:
        bad.append(f"f(b*) = {payload['f_at_b_star']!r} but kappa/gamma = {p!r}")
    if cfg.family == "none":
        bad += _none_threshold(payload["b_star"], cfg.q, cfg.bisect_rel_tol)
    return bad


def _none_threshold(b_star: float, q: float, rel_tol: float) -> list[str]:
    """Without splitting the optimal threshold is exactly 1/q."""
    if abs(b_star - 1.0 / q) > rel_tol / q:
        return [f"family none: b* = {b_star!r}, expected 1/q = {1.0 / q!r}"]
    return []


def _sweep(cfg, axis: str, grid: tuple, csv_text: str, summary: dict) -> list[str]:
    bs = summary["b_star"]
    if len(bs) != len(grid) or not csv_text.startswith(CSV_SCHEMA_PREFIX + "sweep"):
        return [f"sweep returned {len(bs)} rows for {len(grid)} grid points"]
    bad = []
    if cfg.family == "none" and axis == "q":
        for q, b in zip(grid, bs):
            bad += _none_threshold(b, q, cfg.bisect_rel_tol)
    if axis == "c" and max(bs) - min(bs) > cfg.bisect_rel_tol * max(bs):
        bad.append(f"b* varies along the c sweep: {min(bs)!r} .. {max(bs)!r}")
    return bad


def _simulate(cfg, expect: dict, csv_text: str, summary: dict) -> list[str]:
    if not csv_text.startswith(CSV_SCHEMA_PREFIX + "blocks"):
        return ["simulate CSV lacks its schema line"]
    rows = np.loadtxt(io.StringIO(csv_text), delimiter=",", skiprows=2,
                      usecols=(0, 1), ndmin=2)
    run = rows[:, 0].astype(np.int64)
    if run.size == 0 or run.min() < 0 or run.max() >= cfg.runs:
        return [f"simulate rows name runs outside 0..{cfg.runs - 1}"]
    mass = np.bincount(run, weights=rows[:, 1], minlength=cfg.runs)
    bad = []
    worst = float(np.max(np.abs(mass - 1.0)))
    if worst > MASS_TOL:
        bad.append(f"frozen masses of a run sum to 1 +- {worst!r}")
    if expect:
        se = math.hypot(summary["std_error"], expect["value_se"])
        gap = summary["mean_payoff"] - expect["value_at_c"]
        if abs(gap) > SE_BOUND * se:
            bad.append(f"optimal-line mean {summary['mean_payoff']!r} vs value "
                       f"{expect['value_at_c']!r} (se {se!r})")
    return bad


def check_job(job, cfg, output, samples: list) -> list[str]:
    """Failure messages for one job's output; empty when it is correct."""
    bad = []
    for model, params, sample in samples:
        bad += _sample_mean(model, params, sample)
    if job.kind == "solve":
        bad += _solve(cfg, output)
    elif job.kind == "sweep":
        bad += _sweep(cfg, job.axis, job.grid, *output)
    elif job.kind == "simulate":
        bad += _simulate(cfg, job.expect, *output)
    elif not output[0]["all_pass"]:
        failed = [c["name"] for c in output[0]["checks"] if not c["pass"]]
        bad.append(f"verify failed: {', '.join(failed)}")
    return bad
