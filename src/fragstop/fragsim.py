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
fragment_share^gamma.  Threshold crossings of zeta therefore have closed
forms and the statistic along a size-biased lineage reproduces Z exactly.

Stopping lines freeze blocks at per-block times measurable with respect to
the block's own history; both children of a split inherit the parent's
pre-split state, which is property (ii) of a stopping line by construction.

Randomness is counter-derived: every block draws from a stream keyed by the
run key and its genealogy path, so two runs with different stopping lines
but the same run key realize the same underlying cascade (common random
numbers across strategies), and results do not depend on worker scheduling.
The streams share one Philox generator per process, re-keyed for each
block, and a block that freezes at birth opens none: its freeze precedes
any split, so it needs no draw.
"""

from __future__ import annotations

import functools
import hashlib
import math
from concurrent.futures import ProcessPoolExecutor
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


@dataclass
class Block:
    mass: float
    born_at: float
    accrued_birth: float
    zeta_birth: float
    path: tuple = ()
    frozen_at: float | None = None
    accrued_final: float | None = None

    def accrued_at(self, t: float, params: ModelParams) -> float:
        """Premium integral at time t >= born_at (mass constant since birth)."""
        gt = params.gt
        inc = self.mass ** (-params.gamma) * (
            math.exp(-gt * self.born_at) - math.exp(-gt * t)
        ) / gt
        return self.accrued_birth + inc

    def zeta_at(self, t: float, params: ModelParams) -> float:
        m = 1.0 / params.gt
        return (self.zeta_birth + m) * math.exp(params.gt * (t - self.born_at)) - m

    def contribution(self, params: ModelParams) -> float:
        """Frozen payoff (accrued + c) * mass^(1+gamma) * e^{-q*l}; 0 if the line never fired."""
        if self.frozen_at == math.inf:
            return 0.0
        return (self.accrued_final + params.c) * self.mass ** (1.0 + params.gamma) * math.exp(
            -params.q * self.frozen_at
        )


@dataclass
class FragmentationState:
    params: ModelParams
    live: list
    frozen: list
    t: float = 0.0
    dust_frozen: int = 0
    partial: int = 0
    created: int = 1


def fresh_state(params: ModelParams) -> FragmentationState:
    root = Block(mass=1.0, born_at=0.0, accrued_birth=0.0, zeta_birth=params.c)
    return FragmentationState(params=params, live=[root], frozen=[])


def _split_block(state: FragmentationState, block: Block, t_split: float, s: float
                 ) -> tuple[Block, Block]:
    """Split `block` at t_split into shares (s, 1-s); children inherit accrued."""
    params = state.params
    acc = block.accrued_at(t_split, params)
    zeta = block.zeta_at(t_split, params)
    kids = tuple(
        Block(
            mass=block.mass * share,
            born_at=t_split,
            accrued_birth=acc,
            zeta_birth=zeta * share**params.gamma,
            path=block.path + (idx,),
        )
        for idx, share in enumerate((s, 1.0 - s))
    )
    state.created += 2
    return kids


def evolve_to_time(state: FragmentationState, model: DislocationModel, t: float,
                   rng: np.random.Generator, block_cap: int = 1_000_000) -> FragmentationState:
    """Run the split dynamics up to calendar time t (no freezing)."""
    if levy.is_degenerate(model):
        raise InvalidModelError("the fragmentation simulator requires rate > 0")
    while True:
        n = len(state.live)
        w = rng.exponential(1.0 / (model.rate * n))
        if state.t + w > t:
            state.t = t
            return state
        state.t += w
        k = int(rng.integers(n))
        block = state.live.pop(k)
        s = levy.sample_split(model, rng)
        state.live.extend(_split_block(state, block, state.t, s))
        if state.created > block_cap:
            raise BlockCapError(f"block budget {block_cap} exceeded at t = {state.t}")


# One Philox per process, re-keyed for every block: building a fresh
# Generator(Philox(key=...)) first seeds it from OS entropy, which costs
# several times the re-key.  Worker processes each get their own.
_BLOCK_BITGEN = np.random.Philox(0)
_BLOCK_RNG = np.random.Generator(_BLOCK_BITGEN)


def _block_stream(key: bytes, path: tuple) -> np.random.Generator:
    """The stream of the block at genealogy `path` in the run keyed by `key`.

    Draws equal those of a fresh Generator(Philox(key=k)) with k the 128-bit
    blake2b digest of (key, path, len(path)): the shared Philox is reset to
    that key with counter 0 and an empty buffer.  The returned generator is
    therefore only valid until the next call; callers draw everything a
    block needs before opening the next block's stream.  The state is per
    process and not thread-safe; ensembles run in worker processes.
    """
    h = hashlib.blake2b(key, digest_size=16)
    h.update(bytes(path))
    h.update(len(path).to_bytes(4, "little"))
    k = int.from_bytes(h.digest(), "little")
    _BLOCK_BITGEN.state = {
        "bit_generator": "Philox",
        "state": {"counter": (0, 0, 0, 0), "key": (k & 0xFFFFFFFFFFFFFFFF, k >> 64)},
        "buffer": (0, 0, 0, 0), "buffer_pos": 4, "has_uint32": 0, "uinteger": 0,
    }
    return _BLOCK_RNG


def _freeze_time(block: Block, line: StoppingLine, params: ModelParams) -> float:
    """The block's own line time; may be inf (literal statistic only)."""
    if isinstance(line, FixedTime):
        return line.t
    if isinstance(line, MassBelow):
        return block.born_at if block.mass <= line.a else math.inf
    gt = params.gt
    m = 1.0 / gt
    if not line.literal:
        if block.zeta_birth >= line.b:
            return block.born_at
        return block.born_at + pathsim.z_crossing_dt(block.zeta_birth, line.b, gt)
    # Literal variant: eta(t) = e^{-gt t} zeta(t) increases toward the cap
    # K = (zeta_birth + m) e^{-gt born}; caps only shrink at splits, so
    # K <= b closes the whole subtree exactly.
    cap = (block.zeta_birth + m) * math.exp(-gt * block.born_at)
    eta0 = cap - m * math.exp(-gt * block.born_at)
    if eta0 >= line.b:
        return block.born_at
    if cap <= line.b:
        return math.inf
    return -math.log((cap - line.b) / m) / gt


def run_stopping_line(
    state: FragmentationState,
    model: DislocationModel,
    params: ModelParams,
    line: StoppingLine,
    *,
    key: bytes,
    dust_floor: float = 1e-12,
    horizon: float = math.inf,
    block_cap: int = 1_000_000,
) -> FragmentationState:
    """Freeze every block of the cascade at its line time, exactly.

    Depth-first over the genealogy; each block's split time and share come
    from its own counter-derived stream, so the realized cascade is a
    function of `key` alone and is shared across different lines.  A
    block whose line time is at or before its birth freezes without
    opening its stream.

    Blocks with mass below dust_floor are force-frozen and counted; blocks
    alive past `horizon` are frozen there and flagged as partial.  A literal
    statistic line may close a branch that can never fire; such a block is
    stored with frozen_at = inf and contributes zero payoff.
    """
    if levy.is_degenerate(model):
        raise InvalidModelError("the fragmentation simulator requires rate > 0")
    if isinstance(line, FixedTime) and line.t > horizon:
        raise InvalidModelError(f"line time {line.t} exceeds the horizon {horizon}")
    stack = list(state.live)
    state.live = []
    while stack:
        block = stack.pop()
        if block.mass < dust_floor:
            block.frozen_at = block.born_at
            block.accrued_final = block.accrued_birth
            state.dust_frozen += 1
            state.frozen.append(block)
            continue
        freeze_t = _freeze_time(block, line, params)
        if freeze_t <= block.born_at:
            # Frozen at birth, before any split: the block opens no stream.
            # Other blocks' draws are unaffected, each having its own stream.
            split_t = math.inf
        else:
            rng_b = _block_stream(key, block.path)
            split_t = block.born_at + rng_b.exponential(1.0 / model.rate)
        if freeze_t == math.inf and isinstance(line, OptimalStatistic) and line.literal:
            block.frozen_at = math.inf  # branch can never fire; contributes zero
            state.frozen.append(block)
            continue
        event_t = min(freeze_t, split_t)
        if event_t > horizon:
            block.frozen_at = horizon
            block.accrued_final = block.accrued_at(horizon, params)
            state.partial += 1
            state.frozen.append(block)
            continue
        if freeze_t <= split_t:
            block.frozen_at = freeze_t
            block.accrued_final = block.accrued_at(freeze_t, params)
            state.frozen.append(block)
            continue
        s = levy.sample_split(model, rng_b)
        kids = _split_block(state, block, split_t, s)
        if state.created > block_cap:
            raise BlockCapError(f"block budget {block_cap} exceeded at t = {split_t}")
        stack.extend(kids)
    return state


def payoff(state: FragmentationState, params: ModelParams) -> float:
    """Discounted premium of a fully frozen ensemble: the sum of block contributions."""
    if state.live:
        raise InvalidModelError("payoff requires every block to be frozen")
    total = 0.0
    for b in state.frozen:
        total += b.contribution(params)
    return total


# --- ensembles ------------------------------------------------------------------

@dataclass(frozen=True)
class EnsembleResult:
    payoffs: np.ndarray
    dust_frozen: int
    partial: int
    block_rows: list | None  # (run, mass, accrued, freeze_time, contribution)

    @property
    def estimate(self) -> MomentEstimate:
        return MomentEstimate.of(self.payoffs)


def _simulate_runs(
    model: DislocationModel,
    params: ModelParams,
    line: StoppingLine,
    master_seed: int,
    dust_floor: float,
    horizon: float,
    block_cap: int,
    collect_blocks: bool,
    indices: range,
):
    payoffs = np.empty(len(indices))
    dust = partial = 0
    rows = [] if collect_blocks else None
    for j, i in enumerate(indices):
        state = run_stopping_line(
            fresh_state(params), model, params, line,
            key=run_key(master_seed, "simulate", i),
            dust_floor=dust_floor, horizon=horizon, block_cap=block_cap,
        )
        payoffs[j] = payoff(state, params)
        dust += state.dust_frozen
        partial += state.partial
        if collect_blocks:
            for b in state.frozen:
                accrued = float("nan") if b.frozen_at == math.inf else b.accrued_final
                rows.append((i, b.mass, accrued, b.frozen_at, b.contribution(params)))
    return payoffs, dust, partial, rows


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
    collect_blocks: bool = False,
    workers: int = 1,
) -> EnsembleResult:
    """Independent stopping-line runs; bit-identical for a fixed seed.

    Run i draws only from streams keyed by (master_seed, "simulate", i), so
    the result does not depend on `workers`.  Reusing the same seed with a
    different line pairs the runs by common random numbers.  Runs are dealt
    round-robin into one chunk per worker; a single chunk runs in-process.
    """
    n_chunks = workers if workers > 1 and n_runs >= 2 * workers else 1
    chunks = [range(k, n_runs, n_chunks) for k in range(n_chunks)]
    run_chunk = functools.partial(
        _simulate_runs, model, params, line, master_seed,
        dust_floor, horizon, block_cap, collect_blocks,
    )
    if n_chunks == 1:
        parts = [run_chunk(chunks[0])]
    else:
        with ProcessPoolExecutor(max_workers=n_chunks) as pool:
            parts = list(pool.map(run_chunk, chunks))
    payoffs = np.empty(n_runs)
    dust = partial = 0
    rows = [] if collect_blocks else None
    for chunk, (p, d, q_, r) in zip(chunks, parts):
        payoffs[list(chunk)] = p
        dust += d
        partial += q_
        if collect_blocks:
            rows.extend(r)
    if collect_blocks:
        rows.sort(key=lambda row: row[0])
    return EnsembleResult(payoffs, dust, partial, rows)


# --- statistical identities -------------------------------------------------------

# Cap on the accrued premium in the stopping-line identity's test functional.
LINE_CAP = 1e6

_FIXED_TIME_FUNCTIONALS = {
    "const1": 0.0,
    "identity": 1.0,
    "square": 2.0,
}


@dataclass(frozen=True)
class ManyToOneResult:
    lhs: MomentEstimate
    rhs: MomentEstimate

    @property
    def gap(self) -> float:
        return self.lhs.value - self.rhs.value

    @property
    def combined_se(self) -> float:
        return math.sqrt(self.lhs.std_error**2 + self.rhs.std_error**2)


def many_to_one_fixed_time(
    model: DislocationModel,
    params: ModelParams,
    f_id: str,
    t: float,
    n_runs: int,
    rng: np.random.Generator,
) -> ManyToOneResult:
    """Block-average identity at a fixed time.

    lhs: Monte Carlo mean of sum_blocks mass^(1+p) with p the power named by
    f_id (const1 / identity / square).  rhs: the closed-form lineage value
    exp(-t * phi(p)).
    """
    if f_id not in _FIXED_TIME_FUNCTIONALS:
        raise InvalidModelError(f"unknown test functional {f_id!r}")
    p = _FIXED_TIME_FUNCTIONALS[f_id]
    vals = np.empty(n_runs)
    for i in range(n_runs):
        state = evolve_to_time(fresh_state(params), model, t, rng)
        vals[i] = sum(b.mass ** (1.0 + p) for b in state.live)
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
    lhs_vals = np.empty(n_runs)
    for i in range(n_runs):
        state = run_stopping_line(
            fresh_state(params), model, params, MassBelow(a),
            key=run_key(master_seed, "m21-line-frag", i),
        )
        lhs_vals[i] = sum(
            b.mass * math.exp(-params.q * b.frozen_at) * min(b.accrued_final, LINE_CAP)
            for b in state.frozen
        )
    rhs_vals = np.empty(n_runs)
    for i in range(n_runs):
        rng = substream(master_seed, "m21-line-tag", i)
        if a >= 1.0:
            ell, acc = 0.0, 0.0
        else:
            ell, acc = pathsim.simulate_tagged_mass_passage(model, params, a, rng)
        rhs_vals[i] = math.exp(-params.q * ell) * min(acc, LINE_CAP)
    return ManyToOneResult(MomentEstimate.of(lhs_vals), MomentEstimate.of(rhs_vals))
