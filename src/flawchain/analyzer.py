"""Structural analysis of explicit instances.

Everything the certificate needs is summarized per flaw: the potential
(least entropy the mixed chain injects while the flaw is addressed),
congestion bit costs of each kernel, causality neighborhoods, and the
noise charge q.  All quantities are defined over the mixed chain; the
noise digraph is empty when p = 0, so noise neighborhoods degenerate to
self-inclusion and q vanishes.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .core import (binary_entropy, mixed_flawed, require_explicit, row_sums)

PRINCIPAL = "principal"
NOISE = "noise"

LabeledArc = namedtuple("LabeledArc", "source target label")

Congestion = namedtuple("Congestion", "count bits unreached")


def _kernel(instance, which):
    if which == PRINCIPAL:
        return instance.principal
    if which == NOISE:
        return instance.noise
    raise ValueError(f"unknown kernel {which!r}")


def _arcs(instance, which):
    """(source, target, label) arrays of the arcs `labeled_arcs` lists."""
    kernel = _kernel(instance, which)
    if which == NOISE and instance.p == 0.0:
        none = np.zeros(0, dtype=np.int64)
        return none, none, none
    sources = kernel.sources
    live = instance.labels[sources] >= 0
    sources = sources[live]
    return sources, kernel.indices[live], instance.labels[sources]


def labeled_arcs(instance, which: str) -> list:
    """Arcs of the chosen kernel leaving flawed states, labeled by the
    addressed flaw.  Flawless states contribute nothing, and the noise
    kernel contributes nothing at p = 0 (it is never followed)."""
    require_explicit(instance, "labeled_arcs")
    return [LabeledArc(*arc) for arc in
            zip(*(a.tolist() for a in _arcs(instance, which)))]


@dataclass(frozen=True)
class CausalityGraph:
    """Directed graph on flaw indices: i -> j when addressing f_i can
    introduce f_j (some labeled arc lands in f_j from outside it)."""

    which: str
    m: int
    edges: tuple  # per flaw: frozenset of successor flaw indices

    def targets(self, i: int) -> frozenset:
        return self.edges[i]

    def edge_list(self) -> list:
        return [(i, j) for i in range(self.m) for j in sorted(self.edges[i])]

    def to_dot(self, names=None) -> str:
        label = names if names else [f"f{i + 1}" for i in range(self.m)]
        lines = [f'digraph causality_{self.which} {{']
        for i in range(self.m):
            lines.append(f'  "{label[i]}";')
        for i, j in self.edge_list():
            lines.append(f'  "{label[i]}" -> "{label[j]}";')
        lines.append("}")
        return "\n".join(lines) + "\n"


def causality_graph(instance, which: str) -> CausalityGraph:
    require_explicit(instance, "causality_graph")
    m = instance.m
    sources, targets, labels = _arcs(instance, which)
    member = instance.member
    arc, flaw = np.nonzero(member[targets] & ~member[sources])
    edges = np.zeros((m, m), dtype=bool)
    edges[labels[arc], flaw] = True
    return CausalityGraph(which=which, m=m, edges=tuple(
        frozenset(np.flatnonzero(row).tolist()) for row in edges))


def neighborhood(graph: CausalityGraph, flaw: int) -> frozenset:
    """Out-neighborhood including the flaw itself."""
    return frozenset({flaw}) | graph.edges[flaw]


def _potentials(instance) -> list:
    """Least mixed-row entropy per flaw over the states addressing it.

    Each row's entropy adds its entries' -pr * log2(pr) in target order
    with the builtin's own summation, as `Distribution.entropy` does, so
    the values equal the row-by-row computation bit for bit.
    """
    states, indptr, _, probs = mixed_flawed(instance)
    values, inverse = np.unique(probs, return_inverse=True)
    terms = np.array([pr * math.log2(pr) if pr > 0.0 else 0.0
                      for pr in values.tolist()])
    entropy = -row_sums(terms[inverse], indptr)
    best = np.full(instance.m, math.inf)
    np.minimum.at(best, instance.labels[states], entropy)
    return best.tolist()


def potential(instance, flaw: int) -> float:
    """Least mixed-row entropy over states addressing `flaw`.

    +inf when no state addresses the flaw: the certificate terms of an
    unaddressed flaw vanish, matching the empty-min convention.
    """
    require_explicit(instance, "potential")
    return _potentials(instance)[flaw]


def congestion(instance, flaw: int, which: str, addressed_only: bool = False) -> Congestion:
    """Worst-case fan-in of a kernel's arcs out of a flaw's states.

    Counts, for the busiest target, how many states of the flaw reach it
    through the chosen kernel.  The default ranges over every state in
    the flaw (the safe, larger variant); `addressed_only` restricts
    sources to states actually addressing the flaw.  A zero count
    (empty flaw, or noise at p = 0) reports 0 bits with `unreached` set.
    """
    require_explicit(instance, "congestion")
    kernel = _kernel(instance, which)
    peak = 0
    if not (which == NOISE and instance.p == 0.0):
        inside = instance.member[:, flaw]
        if addressed_only:
            inside = inside & (instance.labels == flaw)
        # rows hold distinct targets, so a target's count is its fan-in
        targets = kernel.indices[inside[kernel.sources]]
        if len(targets):
            peak = int(np.bincount(targets).max())
    if peak == 0:
        return Congestion(0, 0.0, True)
    return Congestion(peak, math.log2(peak), False)


def q_of_p(delta: int, b_ns: float, p: float) -> float:
    """Noise charge q(p) = p * (delta * (b_ns + 5/2 + h(p)) - 2 - h(p))."""
    if delta < 1:
        raise ValueError(f"delta must be at least 1, got {delta}")
    if b_ns < 0:
        raise ValueError(f"b_ns must be nonnegative, got {b_ns}")
    if not (0.0 <= p < 1.0):
        raise ValueError(f"q is defined for p in [0, 1), got {p}")
    h = binary_entropy(p)
    return p * (delta * (b_ns + 2.5 + h) - 2.0 - h)


@dataclass(frozen=True)
class FlawProfile:
    """Everything the certifier needs to know about one flaw."""

    index: int
    name: str
    potential: float
    congestion_pr: int
    b_pr: float
    congestion_ns: int
    b_ns: float
    gamma_pr: frozenset
    gamma_ns: frozenset
    delta: int
    q: float
    amenability: float
    unreached_pr: bool
    unreached_ns: bool


def flaw_profiles(instance, addressed_only: bool = False) -> list:
    """Per-flaw profiles over the mixed chain.

    The noise charge q_i uses the global noise bit cost (the maximum
    per-flaw b_ns), not the flaw's own, so profiles are only meaningful
    as a set.  Amenability is potential minus the flaw's principal bit
    cost; an unaddressed flaw keeps it at +inf.
    """
    require_explicit(instance, "flaw_profiles")
    m = instance.m
    entropy_best = _potentials(instance)

    graph_pr = causality_graph(instance, PRINCIPAL)
    graph_ns = causality_graph(instance, NOISE)
    cong_pr = [congestion(instance, i, PRINCIPAL, addressed_only) for i in range(m)]
    cong_ns = [congestion(instance, i, NOISE, addressed_only) for i in range(m)]
    b_ns_global = max((c.bits for c in cong_ns), default=0.0)

    profiles = []
    for i in range(m):
        gamma_ns = neighborhood(graph_ns, i)
        delta = len(gamma_ns)
        # q is only defined for p < 1; a pure-noise chain charges infinity
        if instance.p == 0.0:
            q = 0.0
        elif instance.p >= 1.0:
            q = math.inf
        else:
            q = q_of_p(delta, b_ns_global, instance.p)
        pot = entropy_best[i]
        profiles.append(FlawProfile(
            index=i,
            name=instance.flaw_names[i],
            potential=pot,
            congestion_pr=cong_pr[i].count,
            b_pr=cong_pr[i].bits,
            congestion_ns=cong_ns[i].count,
            b_ns=cong_ns[i].bits,
            gamma_pr=neighborhood(graph_pr, i),
            gamma_ns=gamma_ns,
            delta=delta,
            q=q,
            amenability=pot - cong_pr[i].bits,
            unreached_pr=cong_pr[i].unreached,
            unreached_ns=cong_ns[i].unreached,
        ))
    return profiles


def global_noise_bits(profiles) -> float:
    return max((pf.b_ns for pf in profiles), default=0.0)


def global_principal_bits(profiles) -> float:
    return max((pf.b_pr for pf in profiles), default=0.0)


def max_delta(profiles) -> int:
    return max((pf.delta for pf in profiles), default=1)
