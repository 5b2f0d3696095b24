"""Exact event-driven simulation of the binary mass fragmentation.

The state is a finite set of blocks; each live block independently splits at
the family rate into two fragments whose masses sum to the parent's exactly.
Alongside its mass and birth time every block carries, exactly, its premium

  eta = mass^gamma * (accrued + c),

where accrued is the integral of e^{-gamma*theta*s} * mass(s)^(-gamma) along
its ancestral line, and e^{-gamma*theta*born}, where its next accrual
starts.  Between splits eta gains (e^{-gamma*theta*born} -
e^{-gamma*theta*t}) / (gamma*theta), and at a split it is multiplied by
fragment_share^gamma.  The stopping statistic is
zeta = e^{gamma*theta*t} * eta, which obeys the linear ODE of the
single-lineage premium process Z (d zeta/dt = 1 + gamma*theta*zeta); its
threshold crossings therefore are Z's closed form `pathsim.z_crossing_dt`,
and the statistic along a size-biased lineage reproduces Z exactly.  A
frozen block pays mass * eta * e^{-q*l}, so no split, freeze or payoff
raises a mass to a power; only `FrozenBlocks.accrued` does.

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
    the premium eta = mass^gamma * (accrued + c) itself; that variant may
    never fire on a branch, in which case the branch contributes zero payoff
    and is closed exactly.
    """

    b: float
    literal: bool = False


StoppingLine = Union[FixedTime, MassBelow, OptimalStatistic]


# --- counter-based block streams -------------------------------------------------

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
# Stream counters of a block, one row each: its two draws, then its two
# children's hashes.
_DRAWS = np.arange(2, dtype=np.uint64)[:, None]
_CHILDREN = np.arange(2, 4, dtype=np.uint64)[:, None]


def _block_words(hashes: np.ndarray, counters: np.ndarray) -> np.ndarray:
    """Each block's stream word at `counters`: mix(hash + (counter+1)*golden), wrapping."""
    z = hashes + (counters + np.uint64(1)) * _GOLDEN
    z ^= z >> np.uint64(30)
    z *= _MIX1
    z ^= z >> np.uint64(27)
    z *= _MIX2
    z ^= z >> np.uint64(31)
    return z


def _block_stream(hashes: np.ndarray, counters: np.ndarray) -> np.ndarray:
    """Uniforms on [0, 1): the top 53 bits of each block's stream word at `counters`.

    These are the outputs of a SplitMix64 generator seeded with the block's
    hash; `counters` broadcasts against `hashes`.
    """
    return (_block_words(hashes, counters) >> np.uint64(11)) * 2.0**-53


# --- the engine ---------------------------------------------------------------------

@dataclass(frozen=True)
class FrozenBlocks:
    """The frozen blocks of a set of runs, from the engine in generation order.

    `grouped` sorts them by run, stably.  `run` indexes the keys the runs
    started from, and `premium` is each block's eta = mass^gamma *
    (accrued + c) at its freeze.  A block that the literal statistic can
    never freeze has frozen_at = inf.
    """

    run: np.ndarray
    mass: np.ndarray
    premium: np.ndarray
    frozen_at: np.ndarray
    dust_frozen: int
    partial: int

    def contributions(self, params: ModelParams) -> np.ndarray:
        """Frozen payoffs mass * eta * e^{-q*l}; 0 where the line never fired."""
        fired = np.isfinite(self.frozen_at)
        out = np.zeros(self.mass.size)
        out[fired] = (self.mass[fired] * self.premium[fired]
                      * np.exp(-params.q * self.frozen_at[fired]))
        return out

    def accrued(self, params: ModelParams) -> np.ndarray:
        """Each block's premium integral eta * mass^(-gamma) - c.

        It is inf where mass^(-gamma) passes the float range or mass is 0,
        and nan where the line never fired.
        """
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            scale = self.mass ** -params.gamma
            accrued = np.where(np.isinf(scale), np.inf, self.premium * scale - params.c)
        return np.where(np.isfinite(self.frozen_at), accrued, np.nan)

    @staticmethod
    def grouped(chunks) -> FrozenBlocks:
        """One table of `_in_chunks`' (runs, blocks), grouped by run; run j is runs.start + j."""
        parts = list(chunks)
        run = np.concatenate([p.run + runs.start for runs, p in parts])
        order = np.argsort(run, kind="stable")

        def cat(field):
            return np.concatenate([getattr(p, field) for _, p in parts])[order]

        return FrozenBlocks(run[order], cat("mass"), cat("premium"), cat("frozen_at"),
                            sum(p.dust_frozen for _, p in parts), sum(p.partial for _, p in parts))


# Runs advanced together by one engine call, and the most blocks one call
# over several runs may create before it is rerun on half as many runs.
# Runs are pure functions of their keys, so neither changes any output.
CHUNK_RUNS = 1024
BLOCK_BUDGET = 1 << 18


class _OverBudget(Exception):
    """A call over several runs created more than BLOCK_BUDGET blocks."""


def _line_times(line: StoppingLine, params: ModelParams, state: np.ndarray):
    """Each live block's own line time: a float on a fixed-time line, else an array.

    The statistic line's zeta at birth is eta / e^{-gt born}.  The literal
    statistic eta is inf on a branch it can never freeze: eta(t) increases
    toward the cap K = eta_birth + m e^{-gt born}, m = 1/gt, and caps only
    shrink at splits, so K <= b closes the whole subtree exactly.
    """
    if isinstance(line, FixedTime):
        return line.t
    mass, born, eta, decay = state
    if isinstance(line, MassBelow):
        return np.where(mass <= line.a, born, np.inf)
    gt = params.gt
    if not line.literal:
        return born + pathsim.z_crossing_dt(eta / decay, line.b, gt)
    m = 1.0 / gt
    cap = eta + m * decay
    return np.where(eta >= line.b, born,
                    np.where(cap <= line.b, np.inf, -np.log((cap - line.b) / m) / gt))


# zeta = eta / e^{-gt born} is inf where e^{-gt born} underflows to 0, and
# nan where eta does too; either is past every threshold, silently.
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

    Each live block is a column of one state array, with the same rows on
    every line: mass, birth time, eta and e^{-gamma*theta*born}.  A split
    computes e^{-gt*t} once, and it becomes both children's e^{-gt*born}.
    """
    if levy.is_degenerate(model):
        raise InvalidModelError("the fragmentation simulator requires rate > 0")
    if isinstance(line, FixedTime) and line.t > horizon:
        raise InvalidModelError(f"line time {line.t} exceeds the horizon {horizon}")
    literal = isinstance(line, OptimalStatistic) and line.literal
    gt = params.gt
    n_runs = len(keys)
    run = np.arange(n_runs)
    h = np.asarray(keys, dtype=np.uint64)
    state = np.repeat([[1.0], [0.0], [params.c], [1.0]], n_runs, axis=1)
    parts = []
    dust = partial = 0
    created = np.ones(n_runs, dtype=np.int64)  # blocks each run has made
    while run.size:
        u_hold, u_share = _block_stream(h, _DRAWS)
        mass, born = state[0], state[1]
        split_t = born - np.log1p(-u_hold) / model.rate
        line_t = _line_times(line, params, state)
        # Dust, blocks alive past the horizon and branches the literal
        # statistic never fires on are rare: only steps that may hold one
        # take these masks.
        lightest = mass.min()
        rare = (literal or lightest < dust_floor or lightest == 0.0
                or horizon < math.inf and (np.minimum(line_t, split_t) > horizon).any())
        if rare:
            is_dust = (mass < dust_floor) | (mass == 0.0)
            never = np.isinf(line_t) & literal & ~is_dust
            is_partial = (np.minimum(line_t, split_t) > horizon) & ~is_dust & ~never
            freeze = is_dust | never | is_partial | (line_t <= split_t)
            line_t = np.where(is_dust, born, np.where(is_partial, horizon, line_t))
            dust += int(np.count_nonzero(is_dust))
            partial += int(np.count_nonzero(is_partial))
        else:
            freeze = line_t <= split_t

        f = np.flatnonzero(freeze)
        # Rows mass, birth time (overwritten by the freeze time), eta, e^{-gt*born}.
        frozen = np.take(state, f, axis=1)
        frozen[1] = line_t[f] if np.ndim(line_t) else line_t
        frozen[2] += (frozen[3] - np.exp(-gt * frozen[1])) / gt
        parts.append((run[f], frozen[:3]))

        s = np.flatnonzero(~freeze)
        run = np.repeat(run[s], 2)
        created += np.bincount(run, minlength=n_runs)
        if run.size and created.max() > block_cap:
            raise BlockCapError(f"block budget {block_cap} exceeded at t = {split_t[s].max()}")
        if n_runs > 1 and created.sum() > BLOCK_BUDGET:
            raise _OverBudget
        state, h = _children(model, params, np.take(state, s, axis=1), split_t[s], u_share[s],
                             h[s])
    run = np.concatenate([r for r, _ in parts])
    mass, frozen_at, eta = np.concatenate([b for _, b in parts], axis=1)
    return FrozenBlocks(run, mass, eta, frozen_at, dust, partial)


def _children(model, params, parents, t, u_share, h):
    """State and hashes of the children of blocks (state columns `parents`) split at times t.

    The children of parent j are columns 2j and 2j + 1, with shares
    (share, 1 - share) from the split law at u_share.  Each child repeats
    its parent's row of the split time, eta advanced to it and e^{-gt*t};
    then the shares scale the mass and share^gamma scales eta.
    """
    gt = params.gt
    mass, _, eta, decay = parents
    share = levy.split_quantile(model, u_share)
    shares = np.column_stack([share, 1.0 - share]).ravel()
    e = np.exp(-gt * t)
    kids = np.repeat([mass, t, eta + (decay - e) / gt, e], 2, axis=1)
    kids[0] *= shares
    kids[2] *= shares ** params.gamma
    return kids, _block_words(h, _CHILDREN).T.ravel()


def evolve_to_time(model: DislocationModel, params: ModelParams, t: float,
                   keys: np.ndarray, **engine) -> FrozenBlocks:
    """The blocks alive at time t, in generation order: the FixedTime(t) line, no dust floor."""
    return run_stopping_line(model, params, FixedTime(t), keys, dust_floor=0.0, **engine)


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


def _run_sums(engine, keys: np.ndarray, *weights) -> np.ndarray:
    """Per-run sums of each weights(blocks), one row each, chunk by chunk, in generation order."""
    sums = np.empty((len(weights), len(keys)))
    for runs, blocks in _in_chunks(engine, keys):
        for row, weight in zip(sums, weights):
            row[runs] = np.bincount(blocks.run, weight(blocks), runs.stop - runs.start)
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

# Cap on accrued + c in the stopping-line identity's test functional.
LINE_CAP = 1e6

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
    t: float,
    n_runs: int,
    master_seed: int,
    **engine,
) -> tuple[ManyToOneResult, ManyToOneResult]:
    """Block-average identities at a fixed time, for the powers p = 1 and p = 2.

    lhs: Monte Carlo mean of sum_blocks mass^(1+p) over the blocks alive at
    t in runs keyed by run_key(master_seed, "m21-fixed", n_runs) and engine
    keywords `engine`; one cascade serves both powers.  rhs: the
    closed-form lineage value exp(-t * phi(p)).
    """
    powers = (1.0, 2.0)
    sums = _run_sums(functools.partial(evolve_to_time, model, params, t, **engine),
                     run_key(master_seed, "m21-fixed", n_runs),
                     *(lambda alive, p=p: alive.mass ** (1.0 + p) for p in powers))
    return tuple(ManyToOneResult(MomentEstimate.of(vals),
                                 MomentEstimate(math.exp(-t * levy.phi(model, p)), 0.0, 0))
                 for p, vals in zip(powers, sums))


def many_to_one_stopping_line(
    model: DislocationModel,
    params: ModelParams,
    a: float,
    n_runs: int,
    master_seed: int,
    **engine,
) -> ManyToOneResult:
    """Block-average identity over the first-passage-of-mass stopping line.

    The tested functional is f(accrued, l) = e^{-q l} * min(accrued + c, LINE_CAP),
    capped so it is bounded, as the identity requires.  It reads accrued + c,
    which the cascade knows to a few ulps, where accrued alone it knows only
    to a few ulps of accrued + c.  lhs runs the full cascade with the line
    mass <= a and engine keywords `engine`; rhs follows a single size-biased
    lineage to the same passage.  Both stop at the engine's `horizon`, so the
    two sides keep one stopping line.
    """
    if not 0.0 < a <= 1.0:
        raise InvalidModelError(f"mass threshold must be in (0, 1], got {a}")
    lhs_vals, = _run_sums(
        functools.partial(run_stopping_line, model, params, MassBelow(a), **engine),
        run_key(master_seed, "m21-line-frag", n_runs),
        lambda b: (b.mass * np.exp(-params.q * b.frozen_at)
                   * np.minimum(b.accrued(params) + params.c, LINE_CAP)))
    ell, acc = pathsim.simulate_tagged_mass_passage(
        model, params, a, n_runs, substream(master_seed, "m21-line-tag"),
        engine.get("horizon", math.inf))
    rhs_vals = np.exp(-params.q * ell) * np.minimum(acc + params.c, LINE_CAP)
    return ManyToOneResult(MomentEstimate.of(lhs_vals), MomentEstimate.of(rhs_vals))
