"""Workload definitions: seeded job lists, written as the program's config text.

A workload is a list of jobs issued one at a time by a single client (a
closed loop).  `jobs(seed, k)` returns pass k of the list; every pass draws
fresh job seeds from (workload seed, pass, job), so no input repeats within
a run or across runs with different seeds.  The exception is `verify-ref`,
whose inputs are the README reference config verbatim (see `_verify_ref`).

Configs leave `workers` at its default except where a job exists to
exercise the worker pool.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

# The README reference model: uniform binary splits at unit rate,
# gamma = theta = q = 1, start c = 0.25 inside the continuation region.
REFERENCE = {"family": "uniform", "rate": 1.0, "gamma": 1.0, "theta": 1.0, "q": 1.0, "c": 0.25}
README_SEED = 12345

SOLVE_SAMPLES = 5000
C_GRID = tuple(float(c) for c in np.round(np.geomspace(0.05, 2.0, 120), 6))
REFERENCE_SAMPLES = 20000


def job_seed(seed: int, *labels) -> int:
    """Config seed for one job, a pure function of the workload seed and labels."""
    text = ":".join(str(x) for x in (seed, *labels))
    return int.from_bytes(hashlib.blake2b(text.encode(), digest_size=4).digest(), "little")


def config_text(seed: int, **keys) -> str:
    """Config file text over the reference model, with `keys` overriding it."""
    merged = {**REFERENCE, **keys, "seed": seed}
    if merged["family"] == "none":
        merged.pop("rate")
    return "".join(f"{k} = {v}\n" for k, v in merged.items() if v is not None)


@dataclass(frozen=True)
class Job:
    """One command invocation: kind in solve | sweep | simulate | verify."""

    kind: str
    config: str
    axis: str | None = None
    grid: tuple = ()
    line: str | None = None
    expect: dict = field(default_factory=dict)   # reference values for checks

    def describe(self) -> dict:
        out = {"kind": self.kind, "config": self.config}
        if self.axis is not None:
            out.update(axis=self.axis, grid=list(self.grid))
        if self.line is not None:
            out["line"] = self.line
        return out


# --- solve-grid -------------------------------------------------------------------

def _solve_grid(seed: int, k: int, context: dict) -> list[Job]:
    s = lambda j: job_seed(seed, "solve-grid", k, j)  # noqa: E731
    n = SOLVE_SAMPLES
    q_grid = (0.5, 1.0, 2.0)
    none_q_grid = (0.5, 1.0, 2.0, 4.0)
    return [
        Job("solve", config_text(s(0), samples=n)),
        Job("solve", config_text(s(1), family="point", s0=0.7, samples=n)),
        Job("solve", config_text(s(2), family="beta", shape=0.5, samples=n)),
        Job("solve", config_text(s(3), family="beta", shape=3.0, samples=n)),
        Job("solve", config_text(s(4), family="none", q=2.0, samples=n)),
        Job("sweep", config_text(s(5), family="point", s0=0.7, samples=n),
            axis="q", grid=q_grid),
        Job("sweep", config_text(s(6), family="none", samples=n),
            axis="q", grid=none_q_grid),
        # One shared sample serves every c grid point: bisection work only.
        Job("sweep", config_text(s(7), samples=n), axis="c", grid=C_GRID),
    ]


# --- cascade ----------------------------------------------------------------------

def _cascade_context(seed: int) -> dict:
    """Reference solve behind the optimal line, done once per run before timing.

    Returns b*, the solved value at c and that value's standard error over
    the reference sample.
    """
    from fragstop import expfun, harness, stopsolve

    cfg = harness.parse_config_text(
        config_text(job_seed(seed, "cascade", "reference"), samples=REFERENCE_SAMPLES)
    )
    model, params = cfg.model(), cfg.params()
    sample = expfun.draw_shared_sample(model, params, cfg.samples, seed=cfg.seed)
    solved = stopsolve.solve_b_star(model, params, sample, diagnostics=False)
    p = params.kappa / params.gamma
    _, ratio_se = expfun.ratio_of_power_means(sample, params.c, solved.b_star, p)
    return {"b_star": solved.b_star, "value_at_c": solved.value_at_c,
            "value_se": solved.b_star * ratio_se}


def _cascade(seed: int, k: int, context: dict) -> list[Job]:
    s = lambda j: job_seed(seed, "cascade", k, j)  # noqa: E731
    optimal = {"value_at_c": context["value_at_c"], "value_se": context["value_se"]}
    return [
        # Shallow: ~2 frozen blocks per run, so per-run overhead dominates.
        Job("simulate", config_text(s(0), runs=4000),
            line=f"optimal:{context['b_star']!r}", expect=optimal),
        # Deep: ~200 frozen blocks per run, per-block genealogy streams dominate.
        Job("simulate", config_text(s(1), runs=40), line="mass:0.01"),
        Job("simulate", config_text(s(2), runs=600), line="fixed:2.0"),
        Job("simulate", config_text(s(3), runs=40, workers=2), line="mass:0.01"),
    ]


# --- verify-ref ---------------------------------------------------------------------

def _verify_ref(seed: int, k: int, context: dict) -> list[Job]:
    # verify accepts each of its ~19 identities at three standard errors, so
    # a verdict is a random variable: at reduced sizes the generator-residual
    # check is biased and fails on a sizable share of seeds.  These jobs
    # therefore use the README reference config verbatim (default samples
    # and runs, README seed) and the same config with point splits; every
    # pass repeats them, and the workload seed does not enter.
    return [
        Job("verify", config_text(README_SEED)),
        Job("verify", config_text(README_SEED, family="point", s0=0.7)),
    ]


# --- determinism probe ------------------------------------------------------------------

def probe_jobs(seed: int) -> list[Job]:
    """Small solve and simulate jobs, each run at workers = 1, 1 and 2."""
    out = []
    for workers in (1, 1, 2):
        out.append(Job("solve", config_text(job_seed(seed, "probe", 0), samples=2000,
                                            workers=workers)))
        out.append(Job("simulate", config_text(job_seed(seed, "probe", 1), runs=64,
                                               workers=workers), line="mass:0.05"))
    return out


@dataclass(frozen=True)
class Workload:
    name: str
    jobs: Callable[[int, int, dict], list]   # (seed, pass index, context) -> jobs
    counts_blocks: bool                      # work_per_s counts blocks, else draws
    prepare: Callable[[int], dict] = lambda seed: {}


WORKLOADS = {
    "solve-grid": Workload("solve-grid", _solve_grid, counts_blocks=False),
    "cascade": Workload("cascade", _cascade, counts_blocks=True, prepare=_cascade_context),
    "verify-ref": Workload("verify-ref", _verify_ref, counts_blocks=False),
}
