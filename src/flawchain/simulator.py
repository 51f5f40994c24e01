"""Seeded simulation of the mixed chain.

Reproducibility contract: every trial draws from its own counter-based
Philox stream keyed by (master seed, trial index), so results do not
depend on execution order and any single trial can be replayed in
isolation.  Within a step the draw order is fixed: first the mixture
coin, then one uniform pushed through the inverse CDF of the chosen
kernel row (support in ascending state order).  Instances sharing row
construction therefore produce byte-identical trajectories.

`monte_carlo` on explicit instances does not replay trials one by one:
it derives every trial's Philox key in one vectorized pass and steps
all live trials in lockstep on the stacked CSR kernels.  Their uniforms
come from a numpy port of Philox4x64-10 (`philox_uniforms`) that runs
every live trial's stream over the same counters at once; the last few
live trials finish with scalar steps.  Every trial still consumes its
stream in the order above, so trial i still replays exactly as
`run(..., trial=i)`.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .core import Distribution, ModelError

# numpy's SeedSequence hash constants (numpy/random/bit_generator.pyx)
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_POOL = 4   # SeedSequence's default pool size in uint32 words

# Philox4x64-10 multipliers and key bumps (numpy's Random123 constants)
_PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)

WIDTH = 32    # most counters (4 uniforms each) drawn per trial and refill
CHUNK = 8192  # trials stepped together, bounding the uniform blocks' memory
FEW = 8       # live trials at which stepping them one by one is cheaper


def trial_stream(seed: int, trial: int = 0) -> np.random.Generator:
    """The deterministic RNG stream of one trial."""
    ss = np.random.SeedSequence(seed, spawn_key=(trial,))
    return np.random.Generator(np.random.Philox(ss))


def _hasher(const: int, mult: int):
    """SeedSequence's word hash: xor in a constant that advances by
    `mult` on every call, multiply by it, fold the high half down."""
    def hash_word(value):
        nonlocal const
        value = value ^ np.uint32(const)
        const = const * mult & _MASK32
        value = value * np.uint32(const)
        return value ^ (value >> np.uint32(16))
    return hash_word


def _mix(x, y):
    out = np.uint32(_MIX_L) * x - np.uint32(_MIX_R) * y
    return out ^ (out >> np.uint32(16))


def trial_keys(seed: int, trials) -> np.ndarray:
    """The Philox keys of `trial_stream(seed, t)` for every t in `trials`.

    A vectorized port of numpy's SeedSequence hash: row k equals
    `SeedSequence(seed, spawn_key=(trials[k],)).generate_state(2,
    np.uint64)`.  Trial indices below 2^64 are supported.  Invalid
    seeds fail exactly as `trial_stream` fails.
    """
    entropy = int(np.random.SeedSequence(seed).entropy)
    # the seed's uint32 words, least significant first; with a spawn key
    # numpy zero-pads them to the pool size
    # (1,) arrays broadcast against the per-trial words without the
    # overflow warnings of numpy scalar arithmetic
    words = np.array([entropy >> (32 * i) & _MASK32
                      for i in range(max(_POOL, (entropy.bit_length() + 31) // 32))],
                     dtype=np.uint32).reshape(-1, 1)
    trials = np.asarray(trials, dtype=np.uint64)
    low = (trials & np.uint64(_MASK32)).astype(np.uint32)
    high = (trials >> np.uint64(32)).astype(np.uint32)
    hashmix = _hasher(_INIT_A, _MULT_A)
    pool = [hashmix(word) for word in words[:_POOL]]
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for word in [*words[_POOL:], low]:
        for dst in range(_POOL):
            pool[dst] = _mix(pool[dst], hashmix(word))
    wide = np.flatnonzero(high)   # trials >= 2^32 carry a second spawn word
    if len(wide):
        for dst in range(_POOL):
            pool[dst][wide] = _mix(pool[dst][wide], hashmix(high[wide]))
    generate = _hasher(_INIT_B, _MULT_B)
    state = [generate(word).astype(np.uint64) for word in pool]
    keys = np.empty((len(trials), 2), dtype=np.uint64)
    keys[:, 0] = state[0] | state[1] << np.uint64(32)
    keys[:, 1] = state[2] | state[3] << np.uint64(32)
    return keys


def _mulhilo(m: int, x):
    """High and low words of the 128-bit product m * x, the high word
    built from 32-bit halves."""
    m_lo, m_hi = np.uint64(m & _MASK32), np.uint64(m >> 32)
    x_lo, x_hi = x & np.uint64(_MASK32), x >> np.uint64(32)
    cross_a, cross_b = m_hi * x_lo, m_lo * x_hi
    mid = ((m_lo * x_lo >> np.uint64(32)) + (cross_a & np.uint64(_MASK32))
           + (cross_b & np.uint64(_MASK32)))
    hi = (m_hi * x_hi + (cross_a >> np.uint64(32)) + (cross_b >> np.uint64(32))
          + (mid >> np.uint64(32)))
    return hi, np.uint64(m) * x


def philox_uniforms(keys, counter: int, width: int) -> np.ndarray:
    """Uniforms 4*counter .. 4*(counter + width) - 1 of each keyed stream.

    `keys` is a (lanes, 2) array from `trial_keys`; row k of the result
    equals `trial_stream` of lane k after `random(4 * counter)`, then
    `random(4 * width)`, bit for bit.  As in numpy's Philox the counter
    is bumped before each block, and a double is (x >> 11) * 2^-53.
    Only the counter's low word moves, so counter + width < 2^64.
    """
    key0, key1 = keys[:, :1], keys[:, 1:]
    c0 = np.arange(counter + 1, counter + width + 1, dtype=np.uint64)[None, :]
    c1 = c2 = c3 = np.zeros_like(c0)
    for r in range(10):
        if r:
            key0, key1 = key0 + np.uint64(_PHILOX_W[0]), key1 + np.uint64(_PHILOX_W[1])
        hi0, lo0 = _mulhilo(_PHILOX_M[0], c0)
        hi1, lo1 = _mulhilo(_PHILOX_M[1], c2)
        c0, c1, c2, c3 = hi1 ^ c1 ^ key0, lo1, hi0 ^ c3 ^ key1, lo0
    words = np.stack(np.broadcast_arrays(c0, c1, c2, c3), axis=-1)
    return (words >> np.uint64(11)).reshape(len(keys), 4 * width) * 2.0 ** -53


def step(instance, state: int, rng) -> tuple:
    """One mixed-chain step; returns (successor, noise_flag)."""
    coin = rng.random()
    noisy = coin < instance.p
    row = instance.noise_row(state) if noisy else instance.principal_row(state)
    return row.sample(rng.random()), noisy


@dataclass(frozen=True)
class Trajectory:
    """One run: states s_1..s_{k+1} with per-step addressed flaws and
    noise flags.  z is the bad-prefix horizon: states[0..z-1] are flawed
    and, unless the budget censored the run, states[z] is the first
    flawless state (hit_step == z).  Forensics reads flaw membership
    back through the carried instance."""

    instance: object
    seed: int
    trial: int
    states: tuple
    flaws: tuple   # addressed flaw per executed step (None past the hit)
    noise: tuple   # noise flag per executed step
    terminal: str  # "flawless_hit" | "budget_exhausted"
    z: int
    hit_step: int | None

    @property
    def n_steps(self) -> int:
        return len(self.flaws)


def run(instance, seed: int, max_steps: int, continue_after: bool = False,
        trial: int = 0) -> Trajectory:
    """Run one trajectory from the instance's initial state.

    Stops at the first flawless state unless `continue_after` keeps
    stepping to the budget (the hit index is recorded either way).  A run
    that never sees a flawless state within `max_steps` steps is
    censored: its observed prefix is entirely bad.
    """
    if max_steps < 1:
        raise ValueError(f"max_steps must be positive, got {max_steps}")
    rng = trial_stream(seed, trial)
    if isinstance(instance.initial, Distribution):
        state = instance.initial.sample(rng.random())
    else:
        state = instance.initial
    states = [state]
    flaws = []
    noise = []
    hit = None
    for i in range(max_steps):
        current = states[-1]
        if instance.is_flawless(current):
            if hit is None:
                hit = i
            if not continue_after:
                break
        nxt, flag = step(instance, current, rng)
        flaws.append(instance.addressed(current))
        noise.append(flag)
        states.append(nxt)
    if hit is None and instance.is_flawless(states[-1]):
        hit = len(flaws)
    terminal = "flawless_hit" if hit is not None else "budget_exhausted"
    z = hit if hit is not None else len(flaws)
    return Trajectory(instance=instance, seed=seed, trial=trial,
                      states=tuple(states), flaws=tuple(flaws),
                      noise=tuple(noise), terminal=terminal, z=z,
                      hit_step=hit)


@dataclass(frozen=True)
class HittingStats:
    """Hitting-time summary of a batch of independent trials."""

    trials: int
    seed: int
    budget: int
    hits: tuple  # per trial: hitting step, or None when censored

    @cached_property
    def _done(self) -> list:
        """The finished trials' hitting steps, ascending."""
        return sorted(h for h in self.hits if h is not None)

    @property
    def censored(self) -> int:
        return len(self.hits) - len(self._done)

    def tail(self, t: int) -> float:
        """Fraction of trials still flawed after t steps (t <= budget)."""
        if t > self.budget:
            raise ValueError(f"tail({t}) undefined beyond the budget {self.budget}")
        bad = len(self.hits) - bisect_right(self._done, t)
        return bad / self.trials

    def tail_table(self, ts=None) -> list:
        if ts is None:
            seen = sorted(set(self._done))
            ts = sorted({0, *seen[:1000], min(self.budget, (seen[-1] if seen else 0) + 1)})
        return [(int(t), self.tail(t)) for t in ts]

    def mean_hit(self) -> float:
        done = self._done
        return sum(done) / len(done) if done else math.nan


def monte_carlo(instance, trials: int, seed: int, budget: int) -> HittingStats:
    """Independent trials; trial i replays exactly as run(..., trial=i).

    Explicit instances step all live trials in lockstep on the CSR
    kernels, in chunks of CHUNK trials, until at most FEW are left; the
    implicit flavor, whose rows come from callbacks, runs the trials one
    by one.
    """
    if trials < 1:
        raise ValueError(f"trials must be positive, got {trials}")
    if budget < 1:
        raise ValueError(f"max_steps must be positive, got {budget}")
    if instance.explicit:
        hits = []
        for first in range(0, trials, CHUNK):
            hits += _lockstep_hits(instance, seed, np.arange(
                first, min(trials, first + CHUNK)), budget)
    else:
        hits = [run(instance, seed, budget, trial=i).hit_step
                for i in range(trials)]
    return HittingStats(trials=trials, seed=seed, budget=budget, hits=tuple(hits))


def running_sums(values, indptr):
    """Per-row running sums of a CSR value array, each row accumulated
    left to right from 0.0 exactly as `Distribution.sample` does."""
    out = np.array(values, dtype=np.float64)
    lengths = np.diff(indptr)
    rows = np.flatnonzero(lengths > 1)
    k = 1
    while len(rows):
        at = indptr[rows] + k
        out[at] += out[at - 1]
        k += 1
        rows = rows[lengths[rows] > k]
    return out


def _stacked_rows(instance):
    """Principal rows 0..n-1, noise rows n..2n-1 and, for a distribution
    over initial states, that distribution as row 2n, in one CSR of
    (indptr, targets, running sums).  Memoized on the instance."""
    rows = instance.memo.get("simulator.rows")
    if rows is None:
        kernels = (instance.principal, instance.noise)
        lengths = [k.lengths for k in kernels]
        targets = [k.indices for k in kernels]
        probs = [k.probs for k in kernels]
        if isinstance(instance.initial, Distribution):
            lengths.append([len(instance.initial)])
            targets.append(instance.initial.states())
            probs.append(instance.initial.probs())
        lengths = np.concatenate(lengths)
        indptr = np.zeros(len(lengths) + 1, dtype=np.int64)
        np.cumsum(lengths, out=indptr[1:])
        rows = instance.memo["simulator.rows"] = (
            indptr, np.concatenate(targets).astype(np.int64),
            running_sums(np.concatenate(probs), indptr))
    return rows


def _sample_rows(indptr, targets, sums, rows, u):
    """Vectorized `Distribution.sample`: in each row, the first entry
    with u < running sum, or the row's last entry when there is none."""
    lo = indptr[rows]
    hi = indptr[rows + 1] - 1
    if len(rows):
        # a fixed number of halvings; a settled search (lo == hi) stays put
        for _ in range(int((hi - lo).max()).bit_length()):
            mid = (lo + hi) >> 1
            left = u < sums[mid]
            hi = np.where(left, mid, hi)
            lo = np.where(left, lo, np.minimum(mid + 1, hi))
    return targets[lo]


def _lockstep_hits(instance, seed, trials, budget) -> list:
    """Hit steps of the trials numbered in `trials`, stepped together.

    Every live trial sits at the same stream position: one uniform for a
    random initial state, then two per step (coin, inverse CDF).  When
    the next step would run past the uniforms drawn so far, every live
    trial's next `width` counters are drawn at once.  The first draw
    takes one counter (two steps), since most trials hit early; each
    later one doubles the width, up to WIDTH.
    """
    indptr, targets, sums = _stacked_rows(instance)
    n, p, labels = instance.n_states, instance.p, instance.labels
    keys = trial_keys(seed, trials)
    count = len(trials)
    hits = np.full(count, -1, dtype=np.int64)
    ids = np.arange(count)     # live trials, as positions in `trials`
    width, base, pos = 1, 0, 0
    uniforms = philox_uniforms(keys, 0, width)
    slot = np.arange(count)    # each live trial's row in `uniforms`
    if isinstance(instance.initial, Distribution):
        state = _sample_rows(indptr, targets, sums,
                             np.full(count, 2 * n), uniforms[:, 0])
        pos = 1
    else:
        state = np.full(count, instance.initial, dtype=np.int64)
    for i in range(budget + 1):
        done = labels[state] < 0
        if done.any():
            hits[ids[done]] = i
            live = ~done
            ids, state, slot = ids[live], state[live], slot[live]
            if not len(ids):
                break
        if i == budget:
            break
        if len(ids) <= FEW:
            # a few long runs left: a numpy pass per step costs more than
            # scalar steps on each trial's own stream, re-keyed at
            # counter pos // 4 with an empty buffer
            for j, s in zip(ids.tolist(), state.tolist()):
                gen = np.random.Generator(np.random.Philox(counter=pos // 4, key=keys[j]))
                gen.random(pos % 4)
                hits[j] = _finish(instance, s, gen, i, budget)
            break
        if pos + 2 > base + 4 * width:
            width, base = min(2 * width, WIDTH), pos - pos % 4
            uniforms = philox_uniforms(keys[ids], base // 4, width)
            slot = np.arange(len(ids))
        coin = uniforms[slot, pos - base]
        u = uniforms[slot, pos + 1 - base]
        rows = state + n * (coin < p)
        state = _sample_rows(indptr, targets, sums, rows, u)
        pos += 2
    return [None if h < 0 else h for h in hits.tolist()]


def _finish(instance, state, rng, i, budget) -> int:
    """Continue a flawed trial from step i as `run` would: its hit step,
    or -1 when the budget runs out first."""
    for k in range(i, budget):
        state, _ = step(instance, state, rng)
        if instance.is_flawless(state):
            return k + 1
    return -1


def tail_check(stats: HittingStats, certificate, s_values=(1.0, 2.0, 3.0)) -> dict:
    """Empirical tails against the certified exp(-s) budgets.

    Each s yields the row {s, steps, empirical, bound, sigma, status}
    with status "ok" / "violated" / "inconclusive" (budget smaller than
    the certified step count).  Without a certificate there is nothing
    to check and the report only carries the no-guarantee flag.
    """
    if certificate is None:
        return {"guarantee": False, "rows": []}
    rows = []
    for s in s_values:
        steps_needed = certificate.step_bound(s)
        budget_needed = math.inf if steps_needed == math.inf else int(math.ceil(steps_needed))
        bound = math.exp(-s)
        sigma = math.sqrt(bound * (1.0 - bound) / stats.trials)
        if budget_needed > stats.budget:
            rows.append({"s": s, "steps": budget_needed, "empirical": None,
                         "bound": bound, "sigma": sigma, "status": "inconclusive"})
            continue
        emp = stats.tail(budget_needed)
        status = "ok" if emp <= bound + 3.0 * sigma else "violated"
        rows.append({"s": s, "steps": budget_needed, "empirical": emp,
                     "bound": bound, "sigma": sigma, "status": status})
    return {"guarantee": True, "rows": rows}

