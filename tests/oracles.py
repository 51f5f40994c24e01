"""Independent reference implementations used as test oracles.

Nothing here imports the analyzer or the tree enumerator.  Quantities
are recomputed straight from raw kernel supports and flaw member sets,
with exact rational arithmetic where the real code uses floats, so a
shared bug would have to be written twice to go unnoticed.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction

import numpy as np

from flawchain.core import Distribution


# ---------------------------------------------------------------- structure


def present_at(instance, state):
    return {i for i, members in enumerate(instance.flaws) if state in members}


def addressed_at(instance, state):
    here = present_at(instance, state)
    for i in instance.priority:
        if i in here:
            return i
    return None


def mixed_support(instance, state):
    """target -> probability of the mixed row, rebuilt from raw supports."""
    p = instance.p
    out = {}
    if p < 1.0:
        for t, pr in instance.principal[state].support:
            out[t] = out.get(t, 0.0) + (1.0 - p) * pr
    if p > 0.0:
        for t, pr in instance.noise[state].support:
            out[t] = out.get(t, 0.0) + p * pr
    return out


def mixed_row(instance, state):
    """The step distribution (1-p) * principal + p * noise at `state`,
    merged one row at a time in the float arithmetic `core.mixed_rows`
    must reproduce.

    Degenerate mixes short-circuit: p = 0 returns the principal row
    unchanged and p = 1 the noise row, so supports never carry zero-mass
    entries.
    """
    p = instance.p
    if p == 0.0:
        return instance.principal_row(state)
    noise = instance.noise_row(state)
    if p == 1.0:
        return noise
    acc = {}
    for s, pr in instance.principal_row(state).support:
        acc[s] = (1.0 - p) * pr
    for s, pr in noise.support:
        acc[s] = acc.get(s, 0.0) + p * pr
    return Distribution(tuple(sorted(acc.items())))


def entropy_bits(probs):
    return -sum(pr * math.log2(pr) for pr in probs if pr > 0.0)


def brute_arcs(instance, which):
    """(source, target, label) triples off the kernel supports; flawless
    sources carry no label and the noise kernel is dead at p = 0."""
    if which == "noise" and instance.p == 0.0:
        return []
    rows = instance.principal if which == "principal" else instance.noise
    arcs = []
    for s in range(instance.n_states):
        label = addressed_at(instance, s)
        if label is None:
            continue
        for t, _ in rows[s].support:
            arcs.append((s, t, label))
    return arcs


def brute_causality(instance, which):
    """m x m boolean matrix: edges[i][j] iff addressing f_i can introduce f_j."""
    m = len(instance.flaws)
    edges = [[False] * m for _ in range(m)]
    for s, t, label in brute_arcs(instance, which):
        for j in range(m):
            if t in instance.flaws[j] and s not in instance.flaws[j]:
                edges[label][j] = True
    return edges


def brute_gamma(edges, flaw):
    return {flaw} | {j for j in range(len(edges)) if edges[flaw][j]}


def brute_potentials(instance):
    pots = [math.inf] * len(instance.flaws)
    for s in range(instance.n_states):
        f = addressed_at(instance, s)
        if f is not None:
            pots[f] = min(pots[f], entropy_bits(mixed_support(instance, s).values()))
    return pots


def brute_congestion(instance, flaw, which, addressed_only=False):
    """Max over targets of how many of the flaw's states reach it."""
    if which == "noise" and instance.p == 0.0:
        return 0
    rows = instance.principal if which == "principal" else instance.noise
    sources = [s for s in sorted(instance.flaws[flaw])
               if not addressed_only or addressed_at(instance, s) == flaw]
    targets = {t for s in sources for t, _ in rows[s].support}
    best = 0
    for t in targets:
        best = max(best, sum(1 for s in sources
                             if any(u == t for u, _ in rows[s].support)))
    return best


def brute_analysis(instance, addressed_only=False):
    """Per-flaw dict mirroring FlawProfile, computed the slow way."""
    m = len(instance.flaws)
    p = instance.p
    edges_pr = brute_causality(instance, "principal")
    edges_ns = brute_causality(instance, "noise")
    pots = brute_potentials(instance)
    cong_pr = [brute_congestion(instance, i, "principal", addressed_only)
               for i in range(m)]
    cong_ns = [brute_congestion(instance, i, "noise", addressed_only)
               for i in range(m)]
    b_ns_global = max((math.log2(c) for c in cong_ns if c > 0), default=0.0)
    h = 0.0 if p in (0.0, 1.0) else -p * math.log2(p) - (1 - p) * math.log2(1 - p)
    out = []
    for i in range(m):
        gamma_ns = brute_gamma(edges_ns, i)
        delta = len(gamma_ns)
        b_pr = math.log2(cong_pr[i]) if cong_pr[i] > 0 else 0.0
        if p == 0.0:
            q = 0.0
        elif p == 1.0:      # a pure-noise chain charges infinity
            q = math.inf
        else:
            q = p * (delta * (b_ns_global + 2.5 + h) - 2.0 - h)
        out.append({
            "potential": pots[i],
            "gamma_pr": brute_gamma(edges_pr, i),
            "gamma_ns": gamma_ns,
            "congestion_pr": cong_pr[i],
            "congestion_ns": cong_ns[i],
            "b_pr": b_pr,
            "b_ns": math.log2(cong_ns[i]) if cong_ns[i] > 0 else 0.0,
            "delta": delta,
            "q": q,
            "amenability": pots[i] - b_pr,
        })
    return out


def analysis_mismatches(instance, profiles, addressed_only=False, tol=1e-9):
    """Compare real profiles against the brute recomputation.  Discrete
    fields must match exactly, entropic ones within tol."""
    expected = brute_analysis(instance, addressed_only)
    problems = []
    for pf, want in zip(profiles, expected):
        where = f"flaw {pf.index}"
        for key in ("congestion_pr", "congestion_ns", "delta"):
            if getattr(pf, key) != want[key]:
                problems.append(f"{where}: {key} {getattr(pf, key)} != {want[key]}")
        for key in ("gamma_pr", "gamma_ns"):
            if set(getattr(pf, key)) != want[key]:
                problems.append(f"{where}: {key} {sorted(getattr(pf, key))} "
                                f"!= {sorted(want[key])}")
        for key in ("potential", "b_pr", "b_ns", "q", "amenability"):
            got = getattr(pf, key)
            if got == math.inf and want[key] == math.inf:
                continue
            if abs(got - want[key]) > tol:
                problems.append(f"{where}: {key} {got} != {want[key]}")
    return problems


# ------------------------------------------------------------- exact trees


def fraction_tree(instance, x):
    """Re-enumeration of the stratum-truncated tree in exact rationals.

    Returns {prefix: (Fraction prob, bad, absorbed, red prefix)}.  The
    float probabilities on arcs are taken at face value (every float is
    a rational), so only the traversal and accounting differ from the
    production code.
    """
    if not float(x).is_integer() or x < 0:
        raise ValueError("the rational oracle wants integer x >= 0")
    threshold = Fraction(1, 2 ** int(x))
    root = instance.initial
    root_red = addressed_at(instance, root) is not None
    queue = [(root, Fraction(1), (root,), 1 if root_red else 0, root_red)]
    leaves = {}
    guard = 0
    while queue:
        state, prob, prefix, red_len, still_red = queue.pop()
        guard += 1
        if guard > 5_000_000:
            raise RuntimeError("oracle expansion runaway")
        if prob <= threshold:
            leaves[prefix] = (prob, still_red, False, prefix[:red_len])
            continue
        row = mixed_support(instance, state)
        if row == {state: 1.0}:
            leaves[prefix] = (prob, still_red, True, prefix[:red_len])
            continue
        for t, pr in row.items():
            child_red = still_red and addressed_at(instance, t) is not None
            queue.append((t, prob * Fraction(pr), prefix + (t,),
                          red_len + 1 if child_red else red_len, child_red))
    return leaves


Leaf = namedtuple("Leaf", "prefix log2_prob bad absorbed red")


def dfs_tree(instance, x, cap):
    """The stratum-truncated tree by the depth-first walk the level-wise
    builder replaced, in the same float arithmetic.

    Returns the leaves in emission order (their repr matches
    `exact.Leaf`'s), or None once more than `cap` leaves are emitted.
    """
    flawless = [addressed_at(instance, s) is None for s in range(instance.n_states)]
    rows = {}
    leaves = []
    root = instance.initial
    # entries: (state, log2 prob, prefix, red length, still all-flawed)
    stack = [(root, 0.0, (root,), 0 if flawless[root] else 1, not flawless[root])]
    while stack:
        state, logp, prefix, red_len, still_red = stack.pop()
        if state not in rows:
            rows[state] = sorted(mixed_support(instance, state).items())
        row = rows[state]
        if logp <= -x or row == [(state, 1.0)]:
            leaves.append(Leaf(prefix, logp, still_red, logp > -x,
                               prefix[:red_len]))
            if len(leaves) > cap:
                return None
            continue
        for target, pr in reversed(row):
            child_red = still_red and not flawless[target]
            stack.append((target, logp + math.log2(pr), prefix + (target,),
                          red_len + 1 if child_red else red_len, child_red))
    return leaves


def dfs_row(instance, leaves, x, B):
    """`exact.stratification_row` (no certificate) as the depth-first
    version computed it, one leaf at a time."""
    probs = [2.0 ** leaf.log2_prob for leaf in leaves]
    mass = sum(probs)
    sandwich_ok = absorbed_ok = True
    for leaf in leaves:
        if leaf.absorbed:
            if (leaf.log2_prob <= -x
                    or addressed_at(instance, leaf.prefix[-1]) is not None):
                absorbed_ok = False
        elif not (-x - B - 1e-9 < leaf.log2_prob <= -x + 1e-9):
            sandwich_ok = False
    groups = {}
    for leaf, prob in zip(leaves, probs):
        groups[leaf.red] = groups.get(leaf.red, 0.0) + prob
    h = -sum(q * math.log2(q) for q in groups.values() if q > 0.0)
    mass_bad = sum(prob for leaf, prob in zip(leaves, probs) if leaf.bad)
    return {
        "x": x,
        "skipped": False,
        "n_leaves": len(leaves),
        "mass": mass,
        "mass_ok": abs(mass - 1.0) <= 1e-9,
        "sandwich_ok": sandwich_ok,
        "absorbed_ok": absorbed_ok,
        "bad_mass": mass_bad,
        "prefix_entropy": h,
        "entropy_floor_ok": h >= x * mass_bad - 1e-9,
    }


def fraction_bad_mass(instance, x):
    return float(sum(prob for prob, bad, _, _ in fraction_tree(instance, x).values()
                     if bad))


def fraction_prefix_entropy(instance, x):
    groups = {}
    for prob, _, _, red in fraction_tree(instance, x).values():
        groups[red] = groups.get(red, Fraction(0)) + prob
    return entropy_bits(float(g) for g in groups.values())


def uniform_flawed_rate(instance):
    """The single probability shared by every flawed-to-flawed mixed arc,
    or None when the arcs disagree (the matrix oracle then does not
    apply)."""
    rates = set()
    for s in range(instance.n_states):
        if addressed_at(instance, s) is None:
            continue
        for t, pr in mixed_support(instance, s).items():
            if addressed_at(instance, t) is not None:
                rates.add(pr)
    return rates.pop() if len(rates) == 1 else None


def matrix_bad_mass(instance, x):
    """Transition-matrix oracle for the all-flawed stratum mass.

    Valid when every flawed-to-flawed arc carries one common probability
    r: all bad paths then cross the 2^-x stratum at the same depth k,
    and the mass is a k-step power of the flawed-restricted matrix.
    """
    r = uniform_flawed_rate(instance)
    if r is None:
        raise ValueError("flawed arcs are not uniform; use fraction_bad_mass")
    flawed = [s for s in range(instance.n_states)
              if addressed_at(instance, s) is not None]
    idx = {s: i for i, s in enumerate(flawed)}
    if instance.initial not in idx:
        return 0.0
    k = 0
    rr = Fraction(r)
    while rr ** k > Fraction(1, 2 ** int(x)):
        k += 1
    q = np.zeros((len(flawed), len(flawed)))
    for s in flawed:
        for t, pr in mixed_support(instance, s).items():
            if t in idx:
                q[idx[s], idx[t]] = pr
    v = np.zeros(len(flawed))
    v[idx[instance.initial]] = 1.0
    for _ in range(k):
        v = v @ q
    return float(v.sum())


# ---------------------------------------------------------------- forensics


def brute_break_sets(trajectory):
    """Break sets by rescanning the suffix for every (flaw, i) pair:
    (b_star, raw, collateral, neglected, lengths) as in BreakSequence."""
    inst = trajectory.instance
    z = trajectory.z
    present = [frozenset(present_at(inst, s)) for s in trajectory.states[: z + 1]]
    w = list(trajectory.flaws[:z])
    if z == 0:
        return (frozenset(),), (present[0],), (frozenset(),), (present[0],), (0,)
    raw = [present[0]]
    for i in range(1, z):
        raw.append(present[i] - (present[i - 1] - {w[i - 1]}))

    def collateral(flaw, i):
        # exists j in [i+1, z]: gone from present[j] and never addressed
        # at any step in [i+1, j]
        for j in range(i + 1, z + 1):
            if flaw not in present[j]:
                if all(w[l - 1] != flaw for l in range(i + 1, j + 1)):
                    return True
        return False

    def neglected(flaw, i):
        return (all(flaw in present[j] for j in range(i + 1, z + 1))
                and all(w[l - 1] != flaw for l in range(i + 1, z + 1)))

    coll, negl, star = [], [], []
    for i in range(z):
        o = frozenset(f for f in raw[i] if collateral(f, i))
        n = frozenset(f for f in raw[i] if f not in o and neglected(f, i))
        coll.append(o)
        negl.append(n)
        star.append(raw[i] - o - n)
    star.append(frozenset())
    return (tuple(star), tuple(raw), tuple(coll), tuple(negl),
            tuple(len(s) for s in star))


# ------------------------------------------------------------ closed forms

# The noisy star (hub flaw, point noise back to the hub) leaves the hub
# exactly when the principal kernel fires, so the bad horizon Z is
# geometric: Pr[Z > t] = p^t and E[Z] = 1/(1-p).


def star_tail(p, t):
    return p ** t


def star_mean_hit(p):
    return 1.0 / (1.0 - p)


def star_bad_mass(p, x):
    k = 0
    while Fraction(p) ** k > Fraction(1, 2 ** int(x)):
        k += 1
    return p ** k
