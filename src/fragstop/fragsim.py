"""Exact event-driven simulation of the binary mass fragmentation.

The state is a finite set of blocks; each live block independently splits at
the family rate into two fragments whose masses sum to the parent's exactly.
Alongside its mass every block carries two path functionals, both exact:

  accrued  -- the premium integral of e^{-gamma*theta*s} * mass(s)^(-gamma)
              along its ancestral line, and
  zeta     -- the per-block stopping statistic
              e^{gamma*theta*t} * mass^gamma * (accrued + c),

which between splits obeys the same linear ODE as the single-lineage premium
process Z (d zeta/dt = 1 + gamma*theta*zeta) and at a split is multiplied by
fragment_share^gamma.  Its advances and threshold crossings therefore are
Z's closed forms, `pathsim.z_advance` and `pathsim.z_crossing_dt`, and the
statistic along a size-biased lineage reproduces Z exactly.

Stopping lines freeze blocks at per-block times measurable with respect to
the block's own history; both children of a split inherit the parent's
pre-split state, which is property (ii) of a stopping line by construction.

One engine, `run_stopping_line`, advances the live blocks of a chunk of runs
together, one generation per step, in arrays: each block either freezes or
splits into two children.  Randomness is counter-based (SplitMix64 style):
draw k of the block with 64-bit hash h is mix(h + (k+1)*golden) for the
SplitMix64 finaliser mix.  Draws 0 and 1 give the holding time (by
inversion) and the split share, draws 2 and 3 are the hashes of the two
children, and the root's hash is the run key (`streams.run_key`, one raw
word of a PCG64 substream per run).  The cascade is therefore a function of
the run key and the genealogy alone: two runs with different stopping lines
but the same run key realize the same underlying cascade (common random
numbers across strategies), and results do not depend on chunking.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from . import levy, pathsim
from .levy import DislocationModel, InvalidModelError, ModelParams
from .expfun import MomentEstimate
from .streams import run_key, substream


class BlockCapError(RuntimeError):
    """The run exceeded the configured block budget."""


@dataclass(frozen=True)
class FixedTime:
    """Freeze every block at a fixed calendar time."""

    t: float


@dataclass(frozen=True)
class MassBelow:
    """Freeze a block the first time its mass is <= a."""

    a: float


@dataclass(frozen=True)
class OptimalStatistic:
    """Freeze a block when its statistic first exceeds b.

    literal=False uses zeta (the statistic that equals Z along a tagged
    lineage).  literal=True drops the e^{gamma*theta*t} factor, i.e. uses
    mass^gamma * (accrued + c); that variant may never fire on a branch, in
    which case the branch contributes zero payoff and is closed exactly.
    """

    b: float
    literal: bool = False


StoppingLine = Union[FixedTime, MassBelow, OptimalStatistic]


# --- counter-based block streams -------------------------------------------------

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
# Stream counters of a block: its two draws, then its two children's hashes.
_DRAWS = np.arange(2, dtype=np.uint64)[:, None]
_CHILDREN = np.arange(2, 4, dtype=np.uint64)[:, None]


def _block_words(hashes: np.ndarray, counters: np.ndarray) -> np.ndarray:
    """Each block's stream word at `counters`: mix(hash + (counter+1)*golden), wrapping."""
    z = hashes + (counters + np.uint64(1)) * _GOLDEN
    z = (z ^ (z >> np.uint64(30))) * _MIX1
    z = (z ^ (z >> np.uint64(27))) * _MIX2
    return z ^ (z >> np.uint64(31))


def _block_stream(hashes: np.ndarray, counters: np.ndarray) -> np.ndarray:
    """Uniforms on [0, 1): the top 53 bits of each block's stream word at `counters`.

    These are the outputs of a SplitMix64 generator seeded with the block's
    hash; `counters` broadcasts against `hashes`.
    """
    return (_block_words(hashes, counters) >> np.uint64(11)) * 2.0**-53


# --- per-block arithmetic, vectorised over blocks ---------------------------------

def accrued_at(params: ModelParams, mass, born, accrued, t):
    """Premium integral at times t >= born, the mass constant since birth."""
    gt = params.gt
    return accrued + mass ** (-params.gamma) * (np.exp(-gt * born) - np.exp(-gt * t)) / gt


def freeze_times(line: StoppingLine, params: ModelParams, mass, born, zeta) -> np.ndarray:
    """Each block's own line time; may be inf (literal statistic only)."""
    if isinstance(line, FixedTime):
        return np.full(np.shape(mass), line.t)
    if isinstance(line, MassBelow):
        return np.where(mass <= line.a, born, np.inf)
    gt = params.gt
    with np.errstate(divide="ignore", invalid="ignore"):
        if not line.literal:
            return born + pathsim.z_crossing_dt(zeta, line.b, gt)
        # Literal variant: eta(t) = e^{-gt t} zeta(t) increases toward the cap
        # K = (zeta_birth + m) e^{-gt born}, m = 1/gt; caps only shrink at
        # splits, so K <= b closes the whole subtree exactly.
        m = 1.0 / gt
        decay = np.exp(-gt * born)
        cap = (zeta + m) * decay
        return np.where(cap - m * decay >= line.b, born,
                        np.where(cap <= line.b, np.inf, -np.log((cap - line.b) / m) / gt))


def split_blocks(params: ModelParams, mass, born, accrued, zeta, t, share):
    """Children of blocks split at times t into shares (share, 1 - share).

    Returns the children's (mass, born, accrued, zeta), those of block j at
    2j and 2j + 1.  Both inherit the parent's accrued premium; the statistic
    is scaled by each child's share^gamma.
    """
    acc = accrued_at(params, mass, born, accrued, t)
    z = pathsim.z_advance(zeta, t - born, params.gt)
    shares = np.column_stack([share, 1.0 - share]).ravel()
    return (np.repeat(mass, 2) * shares, np.repeat(t, 2), np.repeat(acc, 2),
            np.repeat(z, 2) * shares ** params.gamma)


# --- the engine ---------------------------------------------------------------------

@dataclass(frozen=True)
class FrozenBlocks:
    """The frozen blocks of a set of runs, from the engine in generation order.

    `grouped` sorts them by run, stably.  `run` indexes the keys the runs
    started from.  A block that the literal statistic can never freeze has
    frozen_at = inf and accrued = nan.
    """

    run: np.ndarray
    mass: np.ndarray
    accrued: np.ndarray
    frozen_at: np.ndarray
    dust_frozen: int
    partial: int

    def contributions(self, params: ModelParams) -> np.ndarray:
        """Frozen payoffs (accrued + c) * mass^(1+gamma) * e^{-q*l}; 0 where the line never fired."""
        fired = np.isfinite(self.frozen_at)
        out = np.zeros(self.mass.size)
        out[fired] = ((self.accrued[fired] + params.c) * self.mass[fired] ** (1.0 + params.gamma)
                      * np.exp(-params.q * self.frozen_at[fired]))
        return out

    @staticmethod
    def grouped(chunks) -> FrozenBlocks:
        """One table of `_in_chunks`' (runs, blocks), grouped by run; run j is runs.start + j."""
        parts = list(chunks)
        run = np.concatenate([p.run + runs.start for runs, p in parts])
        order = np.argsort(run, kind="stable")

        def cat(field):
            return np.concatenate([getattr(p, field) for _, p in parts])[order]

        return FrozenBlocks(run[order], cat("mass"), cat("accrued"), cat("frozen_at"),
                            sum(p.dust_frozen for _, p in parts), sum(p.partial for _, p in parts))


# Runs advanced together by one engine call, and the most blocks one call
# over several runs may create before it is rerun on half as many runs.
# Runs are pure functions of their keys, so neither changes any output.
CHUNK_RUNS = 1024
BLOCK_BUDGET = 1 << 18


class _OverBudget(Exception):
    """A call over several runs created more than BLOCK_BUDGET blocks."""


# Overflow gives inf and 0 * inf gives nan silently, as with Python floats:
# a statistic that overflows is beyond every threshold.
@np.errstate(over="ignore", divide="ignore", invalid="ignore")
def run_stopping_line(
    model: DislocationModel,
    params: ModelParams,
    line: StoppingLine,
    keys: np.ndarray,
    *,
    dust_floor: float = 1e-12,
    horizon: float = math.inf,
    block_cap: int = 1_000_000,
) -> FrozenBlocks:
    """Freeze every block of the runs rooted at `keys` at its line time, exactly.

    The live blocks of all runs advance together, one generation per step:
    each block draws its holding time and split share from its own stream,
    then freezes at its line time or splits into two children.  Blocks with
    mass below dust_floor, or whose mass rounded to 0, are force-frozen at
    birth and counted as dust; blocks alive past `horizon` are frozen there
    and counted as partial.  A literal statistic line may close a branch
    that can never fire; such a block is stored with frozen_at = inf and
    contributes zero payoff.  A run that creates more than block_cap blocks
    raises BlockCapError.  The blocks come in generation order.
    """
    if levy.is_degenerate(model):
        raise InvalidModelError("the fragmentation simulator requires rate > 0")
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
        u_hold, u_share = _block_stream(h, _DRAWS)
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
        if n_runs > 1 and created.sum() > BLOCK_BUDGET:
            raise _OverBudget
        mass, born, acc, zeta = split_blocks(
            params, mass[split], born[split], acc[split], zeta[split], split_t[split],
            levy.split_quantile(model, u_share[split]),
        )
        h = _block_words(h[split], _CHILDREN).T.ravel()
    run, mass, acc, t = (np.concatenate(x) for x in zip(*parts))
    return FrozenBlocks(run, mass, acc, t, dust, partial)


def evolve_to_time(model: DislocationModel, params: ModelParams, t: float,
                   keys: np.ndarray) -> FrozenBlocks:
    """The blocks alive at time t, in generation order: the FixedTime(t) line, no dust floor."""
    return run_stopping_line(model, params, FixedTime(t), keys, dust_floor=0.0)


def _in_chunks(engine, keys: np.ndarray):
    """Yield (runs, engine(keys[runs])) over slices `runs` of at most CHUNK_RUNS runs.

    A chunk over the block budget is rerun as its first half, and later
    chunks keep the smaller size.
    """
    start, size = 0, CHUNK_RUNS
    while start < len(keys):
        runs = slice(start, min(start + size, len(keys)))
        try:
            blocks = engine(keys[runs])
        except _OverBudget:
            size = (runs.stop - start) // 2
            continue
        yield runs, blocks
        start = runs.stop


def _run_sums(engine, keys: np.ndarray, weights) -> np.ndarray:
    """Per-run sums of weights(blocks), one chunk at a time, each run's in generation order."""
    sums = np.empty(len(keys))
    for runs, blocks in _in_chunks(engine, keys):
        sums[runs] = np.bincount(blocks.run, weights(blocks), runs.stop - runs.start)
    return sums


# --- ensembles ------------------------------------------------------------------

@dataclass(frozen=True)
class EnsembleResult:
    """Per-run payoffs, and the frozen blocks with each block's payoff contribution."""

    payoffs: np.ndarray
    blocks: FrozenBlocks
    contributions: np.ndarray

    @property
    def estimate(self) -> MomentEstimate:
        return MomentEstimate.of(self.payoffs)


def ensemble_payoffs(
    model: DislocationModel,
    params: ModelParams,
    line: StoppingLine,
    n_runs: int,
    master_seed: int,
    *,
    dust_floor: float = 1e-12,
    horizon: float = math.inf,
    block_cap: int = 1_000_000,
) -> EnsembleResult:
    """Independent stopping-line runs; bit-identical for a fixed seed.

    Run i draws only from block streams rooted at its key, word i of
    run_key(master_seed, "simulate", n_runs), so the first runs of a larger
    ensemble repeat a smaller one.  Reusing the same seed with a different
    line pairs the runs by common random numbers.
    """
    frozen = FrozenBlocks.grouped(_in_chunks(functools.partial(
        run_stopping_line, model, params, line,
        dust_floor=dust_floor, horizon=horizon, block_cap=block_cap,
    ), run_key(master_seed, "simulate", n_runs)))
    contrib = frozen.contributions(params)
    return EnsembleResult(np.bincount(frozen.run, weights=contrib, minlength=n_runs),
                          frozen, contrib)


# --- statistical identities -------------------------------------------------------

# Cap on the accrued premium in the stopping-line identity's test functional.
LINE_CAP = 1e6

_FIXED_TIME_FUNCTIONALS = {
    "identity": 1.0,
    "square": 2.0,
}


@dataclass(frozen=True)
class ManyToOneResult:
    lhs: MomentEstimate
    rhs: MomentEstimate

    @property
    def combined_se(self) -> float:
        return math.sqrt(self.lhs.std_error**2 + self.rhs.std_error**2)


def many_to_one_fixed_time(
    model: DislocationModel,
    params: ModelParams,
    f_id: str,
    t: float,
    n_runs: int,
    master_seed: int,
) -> ManyToOneResult:
    """Block-average identity at a fixed time.

    lhs: Monte Carlo mean of sum_blocks mass^(1+p) with p the power named by
    f_id (identity / square), over the blocks alive at t in runs
    keyed by run_key(master_seed, "m21-fixed-<f_id>", n_runs).  rhs: the
    closed-form lineage value exp(-t * phi(p)).
    """
    if f_id not in _FIXED_TIME_FUNCTIONALS:
        raise InvalidModelError(f"unknown test functional {f_id!r}")
    p = _FIXED_TIME_FUNCTIONALS[f_id]
    vals = _run_sums(functools.partial(evolve_to_time, model, params, t),
                     run_key(master_seed, f"m21-fixed-{f_id}", n_runs),
                     lambda alive: alive.mass ** (1.0 + p))
    rhs = MomentEstimate(math.exp(-t * levy.phi(model, p)), 0.0, 0)
    return ManyToOneResult(MomentEstimate.of(vals), rhs)


def many_to_one_stopping_line(
    model: DislocationModel,
    params: ModelParams,
    a: float,
    n_runs: int,
    master_seed: int,
) -> ManyToOneResult:
    """Block-average identity over the first-passage-of-mass stopping line.

    The tested functional is f(accrued, l) = e^{-q l} * min(accrued, LINE_CAP)
    (capped so it is bounded, as the identity requires).  lhs runs the full
    cascade with the line mass <= a; rhs follows a single size-biased
    lineage to the same passage.
    """
    if not 0.0 < a <= 1.0:
        raise InvalidModelError(f"mass threshold must be in (0, 1], got {a}")
    lhs_vals = _run_sums(
        functools.partial(run_stopping_line, model, params, MassBelow(a)),
        run_key(master_seed, "m21-line-frag", n_runs),
        lambda b: b.mass * np.exp(-params.q * b.frozen_at) * np.minimum(b.accrued, LINE_CAP))
    ell, acc = pathsim.simulate_tagged_mass_passage(
        model, params, a, n_runs, substream(master_seed, "m21-line-tag"))
    rhs_vals = np.exp(-params.q * ell) * np.minimum(acc, LINE_CAP)
    return ManyToOneResult(MomentEstimate.of(lhs_vals), MomentEstimate.of(rhs_vals))
