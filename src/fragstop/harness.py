"""Configuration, command implementations, and result export.

The config file is a flat ``key = value`` text format ('#' starts a
comment).  Unknown keys, missing required keys, family-inapplicable keys
and out-of-range counts or tolerances are hard errors, also when they
arrive as overrides: silent typos in stochastic experiments are costly.

Every output carries a schema string.  Outputs contain no timestamps or
environment echoes, so a rerun with the same config and seed is
byte-identical.  Ensembles run in one process: a `workers` key, which
older configs set, is skipped with a one-line JSON warning on stderr.

Exit-code taxonomy (used by the CLI): 0 ok, 2 config error, 3 assumption
violation, 4 verification failure, 5 resource cap hit.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import MISSING, asdict, dataclass, fields, replace
from pathlib import Path

import numpy as np

from . import expfun, fragsim, levy, pathsim, stopsolve
from .levy import DislocationModel, ModelParams
from .streams import substream

SCHEMA = "fragstop.v1"

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_ASSUMPTION = 3
EXIT_VERIFY = 4
EXIT_RESOURCE = 5


class ConfigError(ValueError):
    """Malformed, unknown, or inconsistent configuration input."""


def _parse_bool(text: str) -> bool:
    low = text.strip().lower()
    if low in ("true", "1", "yes"):
        return True
    if low in ("false", "0", "no"):
        return False
    raise ConfigError(f"expected a boolean, got {text!r}")


# family -> (model class, the keys its constructor takes after rate); none is uniform at rate 0
_FAMILIES = {"uniform": (levy.BinaryUniform, ()), "point": (levy.BinaryPoint, ("s0",)),
             "beta": (levy.BinaryBeta, ("shape",)), "none": (levy.BinaryUniform, ())}


@dataclass(frozen=True, kw_only=True)
class RunConfig:
    """The config keys; a key without a default is required."""

    family: str
    rate: float | None = None
    s0: float | None = None
    shape: float | None = None
    gamma: float
    theta: float
    q: float
    c: float
    allow_q_zero: bool = False
    samples: int = 100_000
    runs: int = 10_000
    seed: int = 0
    rel_tol: float = 1e-6
    bisect_rel_tol: float = 1e-6
    block_cap: int = 1_000_000
    dust_floor: float = 1e-12
    horizon: float = 1000.0
    fp_horizon: float = 1e4

    def model(self) -> DislocationModel:
        cls, keys = _FAMILIES[self.family]
        return cls(self.rate, *(getattr(self, k) for k in keys))

    def params(self) -> ModelParams:
        return levy.make_params(
            self.model(), gamma=self.gamma, theta=self.theta, q=self.q, c=self.c,
            allow_q_zero=self.allow_q_zero,
        )

    def echo(self) -> dict:
        out = {
            "family": self.family, "gamma": self.gamma, "theta": self.theta,
            "q": self.q, "c": self.c, "samples": self.samples, "runs": self.runs,
            "seed": self.seed, "rel_tol": self.rel_tol,
        }
        if self.family != "none":
            out["rate"] = self.rate
        out.update((key, getattr(self, key)) for key in _FAMILIES[self.family][1])
        return out


def _validated(raw: dict) -> RunConfig:
    """RunConfig from a complete key -> value mapping, after every range and family check."""
    family = raw["family"]
    if family not in _FAMILIES:
        raise ConfigError(f"family must be one of {tuple(_FAMILIES)}, got {family!r}")
    if family == "none":
        if raw["rate"] not in (None, 0.0):
            raise ConfigError("family = none admits no rate (or rate = 0)")
        raw["rate"] = 0.0
    elif raw["rate"] is None:
        raise ConfigError(f"family = {family} requires a rate")
    for key in _FAMILIES[family][1]:
        if raw[key] is None:
            raise ConfigError(f"family = {family} requires {key}")
    for owner, (_, keys) in _FAMILIES.items():
        for key in keys:
            if owner != family and raw[key] is not None:
                raise ConfigError(f"{key} is only valid for family = {owner}")
    for key in ("samples", "runs", "block_cap"):
        if raw[key] < 1:
            raise ConfigError(f"{key} must be >= 1, got {raw[key]}")
    for key in ("rel_tol", "bisect_rel_tol"):
        if not (raw[key] > 0.0 and math.isfinite(raw[key])):
            raise ConfigError(f"{key} must be finite and > 0, got {raw[key]}")
    if raw["seed"] < 0:
        raise ConfigError(f"seed must be >= 0, got {raw['seed']}")
    if not raw["dust_floor"] >= 0.0:
        raise ConfigError(f"dust_floor must be >= 0, got {raw['dust_floor']}")
    for key in ("horizon", "fp_horizon"):
        if not raw[key] > 0.0:
            raise ConfigError(f"{key} must be > 0 (inf allowed), got {raw[key]}")
    return RunConfig(**raw)


# key -> (parser of its annotation, default); MISSING marks a required key.
_PARSERS = {"str": str, "float": float, "float | None": float, "int": int, "bool": _parse_bool}
_CONFIG_KEYS = {f.name: (_PARSERS[f.type], f.default) for f in fields(RunConfig)}


def parse_config_text(text: str) -> RunConfig:
    raw: dict = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, _, value = stripped.partition("=")
        key, value = key.strip(), value.strip()
        if key == "workers":  # older configs set it; ensembles run in one process
            sys.stderr.write(json.dumps({"schema": SCHEMA, "warning": "config", "message": f"line "
                f"{lineno}: key 'workers' is ignored: ensembles run in one process"},
                sort_keys=True) + "\n")
            continue
        if key not in _CONFIG_KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in raw:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        parser, _ = _CONFIG_KEYS[key]
        try:
            raw[key] = parser(value)
        except ConfigError:
            raise
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: bad value for {key}: {exc}") from exc

    missing = [k for k, (_, d) in _CONFIG_KEYS.items() if d is MISSING and k not in raw]
    if missing:
        raise ConfigError(f"missing required keys: {', '.join(missing)}")
    for key, (_, default) in _CONFIG_KEYS.items():
        raw.setdefault(key, default)

    return _validated(raw)


def parse_config(path: str | Path) -> RunConfig:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return parse_config_text(text)


def with_overrides(cfg: RunConfig, **overrides) -> RunConfig:
    given = {k: v for k, v in overrides.items() if v is not None}
    return _validated({**asdict(cfg), **given}) if given else cfg


# --- serialization ----------------------------------------------------------------

def dumps_json(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def format_csv(kind: str, header: list[str], columns: list) -> str:
    """CSV text of equal-length columns; each cell is the repr of its Python int or float."""
    cells = (map(repr, np.asarray(col).tolist()) for col in columns)
    lines = [f"# schema: {SCHEMA}.{kind}", ",".join(header), *map(",".join, zip(*cells))]
    return "\n".join(lines) + "\n"


# --- commands ----------------------------------------------------------------------

def _shared_sample(cfg: RunConfig, model, params) -> expfun.SharedSample:
    """The shared sample a solve needs, drawn only if its threshold equation can start."""
    stopsolve.threshold_exponent(params)
    return expfun.draw_shared_sample(
        model, params, cfg.samples, seed=cfg.seed, rel_tol=cfg.rel_tol
    )


def cmd_solve(cfg: RunConfig) -> dict:
    model = cfg.model()
    params = cfg.params()
    sample = _shared_sample(cfg, model, params)
    result = stopsolve.solve_b_star(
        model, params, sample, rel_tol_b=cfg.bisect_rel_tol
    )
    return {"schema": SCHEMA, "command": "solve", "config": cfg.echo(), **asdict(result)}


def _check(name: str, value: float, tolerance: float, *, target: float = 0.0,
           one_sided: bool = False, **details) -> dict:
    gap = value - target
    ok = gap <= tolerance if one_sided else abs(gap) <= tolerance
    return {
        "name": name, "estimate": value, "target": target,
        "tolerance": tolerance, "pass": bool(ok), **details,
    }


def cmd_verify(cfg: RunConfig, corrupt_bstar: float = 1.0) -> tuple[dict, bool]:
    """Run every statistical identity check; pass/fail at three standard errors.

    corrupt_bstar is a test hook that scales the solved threshold before the
    threshold-dependent checks run (a negative control: a wrong threshold
    must fail pasting and dominance).
    """
    if cfg.runs < 2:
        raise ConfigError(
            f"verify needs runs >= 2 (a standard error takes two paths), got {cfg.runs}")
    if cfg.samples < stopsolve.RESIDUAL_BATCHES:
        raise ConfigError(
            f"verify needs samples >= {stopsolve.RESIDUAL_BATCHES} (one draw per "
            f"generator-residual batch), got {cfg.samples}")
    if not (math.isfinite(corrupt_bstar) and corrupt_bstar > 0.0):
        raise ConfigError(f"--corrupt-bstar must be finite and > 0, got {corrupt_bstar}")
    model = cfg.model()
    params = cfg.params()
    times = (0.5, 1.0, 2.0)
    # No Z path drifts above its jump-free bound (c + 1/gt) e^{gt t} - 1/gt.
    if not max(params.gt * times[-1] + math.log(params.c + 1.0 / params.gt),
               params.lam * times[-1]) < expfun.LOG_FLOAT_MAX:
        raise ConfigError(f"verify's path checks need Z and e^(-lam t) in the float range up to "
                          f"t = {times[-1]}, but gamma*theta = {params.gt}, lam = {params.lam}")
    sample = _shared_sample(cfg, model, params)
    b_star = stopsolve.bisect_b_star(params, sample, rel_tol_b=cfg.bisect_rel_tol) * corrupt_bstar
    with np.errstate(over="ignore", divide="ignore"):  # the checks' errors divide by E[(b+I)^p]^4
        value = stopsolve.ValueFunction(params, sample, b_star)
        # Means grow with the shift b; the largest is b* or the Laplace checks' 2c.
        b = max(b_star, 2.0 * params.c)
        top = value.norm if b == b_star else float(value.power_mean(b)[0])
        if not 4.0 * np.log(top) < expfun.LOG_FLOAT_MAX:
            raise ConfigError(f"verify needs E[(b + I)^p]^4 finite for its standard errors, but "
                              f"it overflows at b = {b}, the larger of 2c and b* (b* times "
                              f"--corrupt-bstar {corrupt_bstar})")
    floor = 1e-9
    checks = []

    # One walk serves both levels, one set of paths both path-average checks,
    # and one cascade both fixed-time functionals.
    b_mults = (1.5, 2.0)
    laps = stopsolve.first_passage_laplace_check(
        model, params, [m * params.c for m in b_mults], cfg.runs,
        substream(cfg.seed, "verify-laplace"), sample, horizon=cfg.fp_horizon,
    )
    for b_mult, lap in zip(b_mults, laps):
        checks.append(_check(
            f"laplace_transform_b={b_mult}c", lap.mc.value,
            3.0 * lap.combined_se + floor, target=lap.analytic,
            std_error=lap.combined_se, horizon_misses=lap.horizon_misses,
        ))

    z = pathsim.simulate_Z_at_times(model, params, times, cfg.runs,
                                    substream(cfg.seed, "verify-mart"))
    curve = stopsolve.TildeCurve(value, float(z.min()), float(z.max()))
    mart = stopsolve.martingale_check(curve, times, z)
    sup = stopsolve.supermartingale_check(curve, times, z)
    for tag, res, one_sided in (("martingale", mart, False), ("supermartingale_level", sup, True)):
        for t, est, se in zip(res.times, res.estimates, res.combined_se):
            checks.append(_check(f"{tag}_t={t}", est.value, 3.0 * se + floor,
                                 target=res.reference, one_sided=one_sided, std_error=se))
    for k, dec in enumerate(sup.decrements):
        checks.append(_check(
            f"supermartingale_decrement_{k}", -dec.value,
            3.0 * dec.std_error + floor, one_sided=True, std_error=dec.std_error,
        ))

    gaps = stopsolve.pasting_check(value)
    checks.append(_check("pasting_value_gap", gaps.value_gap, 1e-6 * b_star + floor))
    checks.append(_check("pasting_slope_gap", gaps.slope_gap, 0.02))

    for x, kind, star in ((0.5 * b_star, "tilde", False), (2.0 * b_star, "star", True)):
        res = stopsolve.generator_residual(model, value, x, star=star)
        checks.append(_check(
            f"generator_residual_{kind}", res.value,
            3.0 * res.std_error + 1e-6 * (1.0 + x), one_sided=star,
            std_error=res.std_error, x=x,
        ))

    n_mom = 1 if value.p < 2.0 else 2
    for n in range(1, n_mom + 1):
        mc = expfun.estimate_moment(sample, 0.0, float(n))
        checks.append(_check(
            f"moment_oracle_n={n}", mc.value, 3.0 * mc.std_error + floor,
            target=expfun.moment_recursion(model, params, n),
            std_error=mc.std_error,
        ))

    # The dominance checks demand a 3-SE margin, so they get at least 10,000 paths.
    sweep = stopsolve.threshold_payoff_sweep(
        model, params, [0.8 * b_star, b_star, 1.25 * b_star], max(cfg.runs, 10_000),
        substream(cfg.seed, "verify-sweep"), horizon=cfg.fp_horizon,
    )
    # A threshold b <= c stops at once (tau_b = 0) with the payoff Z_0 = c.
    pay = sweep.discounts * np.maximum(sweep.thresholds, params.c)
    for j, tag in ((0, "low"), (2, "high")):
        diff = expfun.MomentEstimate.of(pay[:, 1] - pay[:, j])
        # pass requires the paired payoff margin to clear 3 standard errors
        checks.append(_check(
            f"threshold_dominance_{tag}", -diff.value, -3.0 * diff.std_error,
            one_sided=True, std_error=diff.std_error, margin=diff.value,
        ))

    if not levy.is_degenerate(model):
        m21 = dict(zip(("many_to_one_fixed_identity", "many_to_one_fixed_square"),
                       fragsim.many_to_one_fixed_time(model, params, 1.0, cfg.runs, cfg.seed,
                                                      block_cap=cfg.block_cap)))
        m21["many_to_one_line_mass=0.1"] = fragsim.many_to_one_stopping_line(
            model, params, 0.1, cfg.runs, cfg.seed, block_cap=cfg.block_cap,
            dust_floor=cfg.dust_floor, horizon=cfg.horizon)
        for name, res in m21.items():
            checks.append(_check(name, res.lhs.value, 3.0 * res.combined_se + floor,
                                 target=res.rhs.value, std_error=res.combined_se))

    ok = all(c["pass"] for c in checks)
    payload = {
        "schema": SCHEMA, "command": "verify", "config": cfg.echo(),
        "b_star": b_star, "corrupt_bstar": corrupt_bstar,
        "checks": checks, "all_pass": ok,
    }
    return payload, ok


_SWEEP_AXES = ("q", "c", "gamma", "theta", "rate")


def cmd_sweep(cfg: RunConfig, axis: str, grid: list[float]) -> tuple[str, dict]:
    """Solve across a parameter grid; returns (csv_text, summary).

    Neither the tilt nor the threshold equation f(b) = kappa/gamma involves
    the start c, so along c every grid point is validated first, then one
    shared sample is drawn and b* solved once, at the first grid point: it
    is exactly constant along the sweep, and only the value moves with c.
    The other axes change the tilt, so each of their points is solved
    afresh on fresh draws.
    """
    if axis not in _SWEEP_AXES:
        raise ConfigError(f"sweep axis must be one of {_SWEEP_AXES}, got {axis!r}")
    if not grid:
        raise ConfigError("bad --grid: it names no grid point")
    if axis == "c":
        model = cfg.model()
        params = with_overrides(cfg, c=grid[0]).params()
        for value in grid:
            if not (value > 0.0 and math.isfinite(value)):  # as levy.make_params words it
                raise levy.InvalidModelError(f"c must be > 0, got {value}")
            stopsolve.threshold_exponent(replace(params, c=value))
        sample = _shared_sample(cfg, model, params)
        b_star = stopsolve.bisect_b_star(params, sample, rel_tol_b=cfg.bisect_rel_tol)
        bs = [b_star] * len(grid)
        values = stopsolve.ValueFunction(params, sample, b_star).star(np.asarray(grid))
    else:
        bs, values = [], []
        for value in grid:
            point = with_overrides(cfg, **{axis: value})
            model = point.model()
            params = point.params()
            res = stopsolve.solve_b_star(model, params, _shared_sample(point, model, params),
                                         rel_tol_b=point.bisect_rel_tol, diagnostics=False)
            bs.append(res.b_star)
            values.append(res.value_at_c)
    csv_text = format_csv("sweep", ["grid_point", "b_star", "value_at_c"], [grid, bs, values])
    tol = cfg.bisect_rel_tol * max(bs)
    summary = {
        "schema": SCHEMA, "command": "sweep", "axis": axis, "grid": list(grid),
        "b_star": bs,
        "b_star_nonincreasing": all(b1 >= b2 - tol for b1, b2 in zip(bs, bs[1:])),
        "b_star_nondecreasing": all(b1 <= b2 + tol for b1, b2 in zip(bs, bs[1:])),
    }
    return csv_text, summary


# line kind -> (range check, the range it demands of the argument)
_LINE_RANGES = {
    "fixed": (lambda t: t >= 0.0, "a finite T >= 0"),
    "mass": (lambda a: a > 0.0, "a finite A > 0"),
    "optimal": (lambda b: True, "a finite B"),
}


def parse_line_spec(spec: str, literal: bool = False):
    """Parse 'fixed:T' | 'mass:A' | 'optimal[:B]' into a stopping line.

    'optimal' without an explicit threshold returns None for the threshold;
    the caller solves for it first.  An argument out of range is a config
    error: such a line would freeze blocks before time 0 or never fire, and
    so is `literal` on a line with no statistic.
    """
    kind, _, arg = spec.partition(":")
    if kind not in _LINE_RANGES:
        raise ConfigError(f"unknown line spec {spec!r} (use fixed:T, mass:A, optimal[:B])")
    if literal and kind != "optimal":
        raise ConfigError(f"--literal-theorem-statistic needs an optimal line, not {spec!r}")
    if kind == "optimal" and not arg:
        return None
    try:
        value = float(arg)
    except ValueError as exc:
        raise ConfigError(f"bad line spec {spec!r}: {exc}") from exc
    in_range, demand = _LINE_RANGES[kind]
    if not (math.isfinite(value) and in_range(value)):
        raise ConfigError(f"bad line spec {spec!r}: {kind} needs {demand}")
    if kind == "fixed":
        return fragsim.FixedTime(value)
    if kind == "mass":
        return fragsim.MassBelow(value)
    return fragsim.OptimalStatistic(value, literal=literal)


def cmd_simulate(cfg: RunConfig, line_spec: str, literal: bool = False) -> tuple[str, dict]:
    """Run a stopping-line ensemble; returns (blocks_csv, summary_json)."""
    model = cfg.model()
    params = cfg.params()
    line = parse_line_spec(line_spec, literal)
    solved_b = None
    if line is None:
        sample = _shared_sample(cfg, model, params)
        solved_b = stopsolve.bisect_b_star(params, sample, rel_tol_b=cfg.bisect_rel_tol)
        line = fragsim.OptimalStatistic(solved_b, literal=literal)
    result = fragsim.ensemble_payoffs(
        model, params, line, cfg.runs, cfg.seed,
        dust_floor=cfg.dust_floor, horizon=cfg.horizon, block_cap=cfg.block_cap,
    )
    est = result.estimate
    blocks = result.blocks
    csv_text = format_csv(
        "blocks",
        ["run", "mass", "accrued", "freeze_time", "payoff_contribution"],
        [blocks.run, blocks.mass, blocks.accrued, blocks.frozen_at, result.contributions],
    )
    summary = {
        "schema": SCHEMA, "command": "simulate", "config": cfg.echo(),
        "line": {"kind": type(line).__name__, **asdict(line)}, "n_runs": cfg.runs,
        "mean_payoff": est.value, "std_error": est.std_error,
        "dust_frozen": blocks.dust_frozen, "partial": blocks.partial,
    }
    if solved_b is not None:
        summary["b_star"] = solved_b
    return csv_text, summary
