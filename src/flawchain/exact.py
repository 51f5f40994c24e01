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

All probabilities accumulate in log2 space.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .core import Distribution, arc_bound, env_cap, mixed_row, require_explicit

DEFAULT_TREE_CAP = 10_000_000


def tree_cap() -> int:
    """Default leaf cap: FLAWCHAIN_TREE_CAP, read when a tree is built."""
    return env_cap("FLAWCHAIN_TREE_CAP", DEFAULT_TREE_CAP)


class CapExceeded(RuntimeError):
    def __init__(self, cap, leaves, pending):
        self.cap = cap
        self.leaves = leaves
        self.pending = pending
        super().__init__(f"leaf cap {cap} exceeded ({leaves} leaves emitted, "
                         f"{pending} vertices pending)")


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


@dataclass(frozen=True)
class TruncatedTree:
    x: float
    leaves: tuple

    @property
    def n_leaves(self) -> int:
        return len(self.leaves)

    def mass(self) -> float:
        return sum(leaf.prob for leaf in self.leaves)


def truncated_tree(instance, x: float, cap: int | None = None) -> TruncatedTree:
    """Depth-first stratum truncation from the fixed initial state.

    Children are expanded in ascending state order, so leaves come out
    in lexicographic prefix order.  Raises CapExceeded past `cap`
    leaves (default `tree_cap()`); x = 0 degenerates to the root alone.
    """
    require_explicit(instance, "truncated_tree")
    if cap is None:
        cap = tree_cap()
    if isinstance(instance.initial, Distribution):
        raise ValueError("tree enumeration needs a fixed initial state")
    if x < 0:
        raise ValueError(f"stratum parameter must be nonnegative, got {x}")
    root = instance.initial
    leaves = []
    # entries: (state, log2 prob, prefix, red length, still all-flawed)
    root_red = not instance.is_flawless(root)
    stack = [(root, 0.0, (root,), 1 if root_red else 0, root_red)]
    while stack:
        state, logp, prefix, red_len, still_red = stack.pop()
        if logp <= -x:
            leaves.append(Leaf(prefix=prefix, log2_prob=logp, bad=still_red,
                               absorbed=False, red=prefix[:red_len]))
            if len(leaves) > cap:
                raise CapExceeded(cap, len(leaves), len(stack))
            continue
        row = mixed_row(instance, state)
        if row.is_unit_self_loop(state):
            leaves.append(Leaf(prefix=prefix, log2_prob=logp, bad=still_red,
                               absorbed=True, red=prefix[:red_len]))
            if len(leaves) > cap:
                raise CapExceeded(cap, len(leaves), len(stack))
            continue
        for target, pr in reversed(row.support):
            child_red = still_red and not instance.is_flawless(target)
            stack.append((target, logp + math.log2(pr), prefix + (target,),
                          red_len + 1 if child_red else red_len, child_red))
    return TruncatedTree(x=float(x), leaves=tuple(leaves))


def bad_mass(tree: TruncatedTree) -> float:
    """Probability that every state through the stratum is flawed."""
    return sum(leaf.prob for leaf in tree.leaves if leaf.bad)


def prefix_entropy(tree: TruncatedTree) -> float:
    """Entropy in bits of the maximal red prefix, leaves grouped by the
    exact state sequence of their red prefix."""
    groups = {}
    for leaf in tree.leaves:
        groups[leaf.red] = groups.get(leaf.red, 0.0) + leaf.prob
    return -sum(q * math.log2(q) for q in groups.values() if q > 0.0)


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
    sandwich_ok = True
    absorbed_ok = True
    for leaf in tree.leaves:
        if leaf.absorbed:
            if leaf.log2_prob <= -x or not instance.is_flawless(leaf.prefix[-1]):
                absorbed_ok = False
        else:
            if not (-x - B - SANDWICH_TOL < leaf.log2_prob <= -x + SANDWICH_TOL):
                sandwich_ok = False
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
