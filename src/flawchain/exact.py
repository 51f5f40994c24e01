"""Exact enumeration of the mixed chain's process tree.

The tree of all trajectories from the initial state is truncated along
probability strata, not depth: walking down from the root, the first
vertex whose path probability drops to 2^-x or below becomes a leaf.
Every leaf then sits in (2^-(x+B), 2^-x] because single arcs out of
flawed states carry more than 2^-B mass.  One exception: a state whose
mixed row is an exact unit self-loop (a flawless state under noiseless
or self-looping noise) pins its entire subtree to one constant-
probability path, so the stratum is never reached below it; such
vertices close off as `absorbed` leaves above the stratum.  Absorption
only happens after the bad prefix has ended, so bad-mass and red-prefix
accounting are unaffected.

The tree is built one depth at a time on arrays.  Each level holds its
vertices' states, log2 probabilities and flags in lexicographic prefix
order; the next level repeats every expanded vertex over its mixed row.
Leaves are then put in depth-first order from subtree leaf counts, so
every sum over leaves adds in the order a depth-first walk emits them.
A `Leaf` per leaf is built only when `TruncatedTree.leaves` is read.

All probabilities accumulate in log2 space: a child's is its parent's
plus `math.log2` of the arc.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .core import (Distribution, ModelError, arc_bound, env_cap, map_values,
                   mixed_rows, require_explicit)

DEFAULT_TREE_CAP = 10_000_000


def tree_cap() -> int:
    """Default leaf cap: FLAWCHAIN_TREE_CAP, read when a tree is built."""
    return env_cap("FLAWCHAIN_TREE_CAP", DEFAULT_TREE_CAP)


class CapExceeded(RuntimeError):
    def __init__(self, cap, leaves, pending, detail=None):
        self.cap = cap
        self.leaves = leaves
        self.pending = pending
        detail = detail or f"{leaves} leaves emitted, {pending} vertices pending"
        super().__init__(f"leaf cap {cap} exceeded ({detail})")


@dataclass(frozen=True)
class Leaf:
    """One truncated trajectory prefix.

    `red` is the maximal all-flawed prefix of `prefix` (the grouping key
    for prefix entropy); `bad` marks prefixes that are red throughout,
    including the final state.  `absorbed` leaves ended at a unit
    self-loop above the stratum instead of crossing it.
    """

    prefix: tuple
    log2_prob: float
    bad: bool
    absorbed: bool
    red: tuple

    @property
    def prob(self) -> float:
        return 2.0 ** self.log2_prob


@dataclass(frozen=True, eq=False)
class TruncatedTree:
    """The leaves of a truncated tree as arrays, in depth-first order.

    Vertices are numbered level by level; `states[v]` is vertex v's state
    and `parents[v]` its parent (-1 at the root).  Leaf k is vertex
    `vertex[k]`, with the `Leaf` fields `log2_prob`, `bad` and
    `absorbed`; `red_key[k]` is the deepest all-flawed vertex on its path
    (-1 when the root is flawless), whose prefix is the leaf's `red`.
    """

    x: float
    log2_prob: np.ndarray
    bad: np.ndarray
    absorbed: np.ndarray
    vertex: np.ndarray
    red_key: np.ndarray
    states: np.ndarray
    parents: np.ndarray

    @property
    def n_leaves(self) -> int:
        return len(self.vertex)

    @cached_property
    def probs(self) -> np.ndarray:
        """Leaf probabilities, each `Leaf.prob`."""
        return map_values(lambda logp: 2.0 ** logp, self.log2_prob)

    def mass(self) -> float:
        return sum(self.probs.tolist())

    @cached_property
    def leaves(self) -> tuple:
        """The leaves as `Leaf` records, built on first use."""
        prefixes = [()]   # prefixes[v + 1] is vertex v's, [0] the empty one
        for state, parent in zip(self.states.tolist(), self.parents.tolist()):
            prefixes.append(prefixes[parent + 1] + (state,))
        return tuple(
            Leaf(prefixes[v + 1], logp, bad, absorbed, prefixes[red + 1])
            for v, logp, bad, absorbed, red in zip(
                self.vertex.tolist(), self.log2_prob.tolist(),
                self.bad.tolist(), self.absorbed.tolist(),
                self.red_key.tolist()))


def truncated_tree(instance, x: float, cap: int | None = None) -> TruncatedTree:
    """Stratum truncation from the fixed initial state, level by level.

    Children follow their parent in ascending state order, so the leaves
    come out in lexicographic prefix order.  Raises CapExceeded past
    `cap` leaves (default `tree_cap()`) before allocating a level that
    would pass it: every pending vertex ends in at least one leaf.  A
    vertex on a cycle of one-arc rows has one leaf however deep its path
    goes, so it raises ModelError when a lap keeps all the mass and
    CapExceeded when the stratum is more than `cap` laps away.  x = 0
    degenerates to the root alone.
    """
    require_explicit(instance, "truncated_tree")
    if cap is None:
        cap = tree_cap()
    if cap < 1:
        raise ValueError(f"leaf cap must be a positive integer, got {cap!r}")
    if isinstance(instance.initial, Distribution):
        raise ValueError("tree enumeration needs a fixed initial state")
    if not math.isfinite(x):
        raise ValueError(f"stratum parameter must be finite, got {x}")
    if x < 0:
        raise ValueError(f"stratum parameter must be nonnegative, got {x}")
    n = instance.n_states
    indptr, targets, probs = mixed_rows(instance, np.arange(n))
    lengths = np.diff(indptr)
    head = indptr[:-1]
    unit = (lengths == 1) & (targets[head] == np.arange(n)) & (probs[head] == 1.0)
    logs = map_values(math.log2, probs)
    flawed = instance.labels >= 0
    # any other one-arc row gives its vertex a single child, so a vertex
    # on a cycle of such rows heads a path that keeps no more than the
    # cycle's mass per lap, and that no leaf count bounds
    single = np.flatnonzero((lengths == 1) & ~unit)
    cycles = _cycles(n, single, targets[head[single]])
    cycle_of = np.full(n, -1)
    for k, cycle in enumerate(cycles):
        cycle_of[cycle] = k
    one_log, one_prob = logs[head], probs[head]   # a one-arc row's arc

    state = np.array([instance.initial])
    logp = np.zeros(1)
    red = flawed[state]
    key = np.where(red, 0, -1)     # the deepest red vertex on the path
    parent = np.array([-1])
    levels, leaves, base, emitted = [], [], 0, 0
    while len(state):
        live = logp > -x
        done = ~live | unit[state]
        grow = np.flatnonzero(~done)
        emitted += len(state) - len(grow)
        if cycles:
            for v in grow[cycle_of[state[grow]] >= 0].tolist():
                _refuse_cycle(cycles[cycle_of[state[v]]], int(state[v]),
                              one_log, one_prob, logp[v] + x,
                              cap, emitted, len(grow))
        rows = state[grow]
        sizes = lengths[rows]
        pending = int(sizes.sum())
        if emitted + pending > cap:
            raise CapExceeded(cap, emitted, pending)
        levels.append((state, parent, done, grow, sizes))
        # a leaf above the stratum is an absorbed one
        leaves.append((logp[done], red[done], live[done],
                       base + np.flatnonzero(done), key[done]))
        at = np.repeat(grow, sizes)
        pos = np.repeat(indptr[rows] - np.cumsum(sizes) + sizes, sizes) + np.arange(pending)
        parent, base = base + at, base + len(state)
        state, logp = targets[pos], logp[at] + logs[pos]
        red = red[at] & flawed[state]
        key = np.where(red, base + np.arange(pending), key[at])

    # depth-first leaf order: subtree leaf counts bottom-up, then each
    # vertex's first leaf position top-down (its parent's, plus the
    # counts of its elder siblings)
    counts, below = [], None
    for _, _, done, grow, sizes in reversed(levels):
        count = np.ones(len(done), dtype=np.int64)
        if len(grow):
            csum = np.concatenate(([0], np.cumsum(below)))
            ends = np.cumsum(sizes)
            count[grow] = csum[ends] - csum[ends - sizes]
        counts.append(count)
        below = count
    counts.reverse()
    first, where = np.zeros(1, dtype=np.int64), []
    for (_, _, done, grow, sizes), below in zip(levels, counts[1:] + [None]):
        where.append(first[done])
        if below is not None:
            csum = np.concatenate(([0], np.cumsum(below)))
            first = np.repeat(first[grow] - csum[np.cumsum(sizes) - sizes],
                              sizes) + csum[:-1]
    order = np.empty(emitted, dtype=np.int64)
    order[np.concatenate(where)] = np.arange(emitted)
    logp, bad, absorbed, vertex, key = (np.concatenate(column)[order]
                                        for column in zip(*leaves))
    return TruncatedTree(
        x=float(x), log2_prob=logp, bad=bad, absorbed=absorbed, vertex=vertex,
        red_key=key, states=np.concatenate([level[0] for level in levels]),
        parents=np.concatenate([level[1] for level in levels]))


def _refuse_cycle(cycle, start, arc_logs, arc_probs, height, cap, emitted, pending):
    """Fail for a vertex `height` bits above the stratum at state `start`
    of a cycle of one-arc rows: its path never reaches the stratum when
    a lap keeps all its mass, and should not be walked when it needs
    more than `cap` laps."""
    at = cycle.index(start)
    cycle = cycle[at:] + cycle[:at]
    path = " -> ".join(map(str, cycle + cycle[:1]))
    lap = sum(arc_logs[cycle].tolist())
    if lap >= 0.0:
        raise ModelError(
            f"the tree never reaches the stratum: states {path} repeat with "
            f"probability {math.prod(arc_probs[cycle].tolist())} per lap")
    laps = height / -lap
    if laps > cap:
        raise CapExceeded(cap, emitted, pending, detail=(
            f"states {path} repeat for about {laps:.3g} laps before the stratum"))


def _cycles(n, states, targets) -> list:
    """The cycles of the map states[k] -> targets[k] on 0..n-1, each a
    list of states in map order.  Each state is walked once."""
    succ = np.full(n, -1)
    succ[states] = targets
    succ = succ.tolist()
    seen = bytearray(len(succ))   # 1 on the current walk, 2 walked
    cycles = []
    for s in states.tolist():
        walk = []
        while s >= 0 and not seen[s]:
            seen[s] = 1
            walk.append(s)
            s = succ[s]
        if s >= 0 and seen[s] == 1:
            cycles.append(walk[walk.index(s):])
        for v in walk:
            seen[v] = 2
    return cycles


def bad_mass(tree: TruncatedTree) -> float:
    """Probability that every state through the stratum is flawed."""
    return sum(tree.probs[tree.bad].tolist())


def prefix_entropy(tree: TruncatedTree) -> float:
    """Entropy in bits of the maximal red prefix, leaves grouped by the
    exact state sequence of their red prefix.

    Groups are summed leaf by leaf in depth-first order and listed in
    order of first appearance, as a dict keyed by red prefix fills.
    """
    n = tree.n_leaves
    first = np.full(len(tree.states) + 1, n)   # the last slot is key -1
    np.minimum.at(first, tree.red_key, np.arange(n))
    seen = np.flatnonzero(first < n)
    rank = np.empty(len(first), dtype=np.int64)
    rank[seen[np.argsort(first[seen])]] = np.arange(len(seen))
    groups = np.zeros(len(seen))
    np.add.at(groups, rank[tree.red_key], tree.probs)
    groups = groups[groups > 0.0]
    return -sum(map_values(lambda q: q * math.log2(q), groups).tolist())


MASS_TOL = 1e-9
SANDWICH_TOL = 1e-9


def verify_stratification(instance, xs, certificate=None,
                          cap: int | None = None) -> list:
    """Check the stratum invariants over a grid of x values.

    One `stratification_row` per x.  Values of x whose tree exceeds the
    cap are reported as skipped rather than failing.
    """
    require_explicit(instance, "verify_stratification")
    B = arc_bound(instance)
    rows = []
    for x in xs:
        try:
            tree = truncated_tree(instance, x, cap=cap)
        except CapExceeded as exc:
            rows.append({"x": float(x), "skipped": True, "reason": str(exc)})
            continue
        rows.append(stratification_row(instance, tree, B, certificate))
    return rows


def stratification_row(instance, tree: TruncatedTree, B: int,
                       certificate=None) -> dict:
    """The stratum invariants of one built tree, given the instance's
    `arc_bound` B.

    The row records total mass, the per-leaf sandwich
    2^-(x+B) < prob <= 2^-x (stratum leaves; absorbed leaves instead
    must sit flawless above the stratum), the entropy floor
    H >= x * bad_mass, and, given a certificate, the ceiling
    H <= lam * x + m0.
    """
    x = tree.x
    mass = tree.mass()
    absorbed = tree.absorbed
    held = tree.log2_prob[absorbed]
    last = tree.states[tree.vertex[absorbed]]
    absorbed_ok = bool(np.all(held > -x) and np.all(instance.labels[last] < 0))
    crossed = tree.log2_prob[~absorbed]
    sandwich_ok = bool(np.all((-x - B - SANDWICH_TOL < crossed)
                              & (crossed <= -x + SANDWICH_TOL)))
    h = prefix_entropy(tree)
    mass_bad = bad_mass(tree)
    row = {
        "x": x,
        "skipped": False,
        "n_leaves": tree.n_leaves,
        "mass": mass,
        "mass_ok": abs(mass - 1.0) <= MASS_TOL,
        "sandwich_ok": sandwich_ok,
        "absorbed_ok": absorbed_ok,
        "bad_mass": mass_bad,
        "prefix_entropy": h,
        "entropy_floor_ok": h >= x * mass_bad - 1e-9,
    }
    if certificate is not None:
        ceiling = certificate.lam * x + certificate.m0
        row["entropy_ceiling"] = ceiling
        row["entropy_ceiling_ok"] = h <= ceiling + 1e-9
    return row
