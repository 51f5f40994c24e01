"""Canonical instance families and noise models.

Coloring and k-SAT build the explicit flavor whenever the state count
fits the cap (FLAWCHAIN_EXPLICIT_CAP, default 2^16) and fall back to the
implicit flavor otherwise; the other families are explicit only and
refuse a state count above the cap before building any row.  The
explicit flavor builds every row at once with array code that
reproduces the implicit flavor's per-state rows exactly, so seeded
trajectories agree state for state.
"""

from __future__ import annotations

import functools
import math
import operator
import warnings
from dataclasses import dataclass

import numpy as np

from .core import (Distribution, ExplicitInstance, ImplicitInstance, Kernel,
                   ModelError, ModelWarning, _strides, addressed_labels,
                   check_explicit_cap, explicit_cap, validate_instance)


@dataclass(frozen=True)
class NoiseModel:
    """Declarative noise kernel: selfloop, uniform, point, greedy, custom.

    `greedy` is the adversarial model: all mass on the candidate
    successor with the most present flaws, ties broken by lowest state
    index.  Candidates default to the whole state space; "principal"
    restricts them to the principal successors plus the state itself.
    `uniform` and `greedy` need full enumeration and so require the
    explicit flavor.
    """

    kind: str
    target: int | None = None
    rows: tuple | None = None
    candidates: str = "all"

    @classmethod
    def selfloop(cls):
        return cls(kind="selfloop")

    @classmethod
    def uniform(cls):
        return cls(kind="uniform")

    @classmethod
    def point(cls, target: int):
        return cls(kind="point", target=int(target))

    @classmethod
    def greedy_adversarial(cls, candidates: str = "all"):
        return cls(kind="greedy", candidates=candidates)

    @classmethod
    def custom(cls, rows):
        return cls(kind="custom", rows=tuple(rows))


def _noise_kernel(instance: ExplicitInstance, model: NoiseModel):
    n = instance.n_states
    if model.kind == "selfloop":
        return Kernel.point(np.arange(n))
    if model.kind == "point":
        if not 0 <= model.target < n:
            raise ModelError(f"point noise target {model.target} outside 0..{n - 1}")
        return Kernel.point(np.full(n, model.target))
    if model.kind == "uniform":
        return Kernel(np.arange(0, n * n + 1, n), np.tile(np.arange(n), n),
                      np.full(n * n, 1.0 / n))
    if model.kind == "greedy":
        # most present flaws first, then the lowest state index
        weight = instance.member.sum(axis=1)
        if model.candidates != "principal":
            return Kernel.point(np.full(n, int(np.argmax(weight))))
        sources = np.concatenate((instance.principal.sources, np.arange(n)))
        pool = np.concatenate((instance.principal.indices, np.arange(n)))
        order = np.lexsort((pool, -weight[pool], sources))
        firsts = np.flatnonzero(np.r_[True, sources[order][1:] != sources[order][:-1]])
        return Kernel.point(pool[order][firsts])
    if model.kind == "custom":
        return [tuple(pairs) for pairs in model.rows]
    raise ModelError(f"unknown noise model {model.kind!r}")


def attach_noise(instance, model: NoiseModel, p: float):
    """Replace an instance's noise kernel and mix probability."""
    if isinstance(instance, ExplicitInstance):
        return validate_instance(
            n_states=instance.n_states,
            flaws=instance.member,
            priority=instance.priority,
            principal=instance.principal,
            noise=_noise_kernel(instance, model),
            p=p,
            initial=instance.initial,
            flaw_names=instance.flaw_names,
            widths=instance.widths)
    if model.kind == "selfloop":
        noise_fn = lambda state, values: Distribution.unit(state)
    elif model.kind == "point":
        target = model.target
        noise_fn = lambda state, values: Distribution.unit(target)
    else:
        raise ModelError(f"noise model {model.kind!r} needs the explicit flavor")
    out = ImplicitInstance(
        widths=instance.widths, flaw_predicates=instance.flaw_predicates,
        priority=instance.priority, principal_fn=instance.principal_fn,
        noise_fn=noise_fn, p=p, initial=instance.initial,
        flaw_names=instance.flaw_names)
    return out


def gen_star(k: int) -> ExplicitInstance:
    """Hub-and-spokes: state 0 carries the single flaw and scatters
    uniformly over k flawless spokes.  Noiseless with self-loop noise
    rows; attach_noise builds the noisy variants."""
    if k < 2:
        raise ModelError(f"a star needs at least 2 spokes, got {k}: the "
                         f"single arc would carry probability 1")
    n = k + 1
    check_explicit_cap(n)
    principal = {0: [(t, 1.0 / k) for t in range(1, n)]}
    for s in range(1, n):
        principal[s] = [(s, 1.0)]
    noise = {s: [(s, 1.0)] for s in range(n)}
    return validate_instance(
        n_states=n, flaws=[{0}], priority=[0], principal=principal,
        noise=noise, p=0.0, initial=0, flaw_names=["f1"])


def _resample_row(values, var_indices, widths, strides):
    """Uniform refresh of the chosen variables, all other coordinates
    held; support enumerated in ascending encoded order."""
    base = sum(v * s for i, (v, s) in enumerate(zip(values, strides))
               if i not in var_indices)
    combos = [()]
    for i in var_indices:
        combos = [c + (v,) for c in combos for v in range(widths[i])]
    pr = 1.0 / len(combos)
    support = []
    for combo in combos:
        offset = sum(v * strides[i] for i, v in zip(var_indices, combo))
        support.append((base + offset, pr))
    return Distribution(tuple(sorted(support)))


def _resample_kernel(columns, labels, flaw_vars, widths, strides):
    """Principal kernel of every state at once: `_resample_row` of the
    addressed flaw's variables, unit self-loops at flawless states."""
    sources, lengths, targets, probs = ([np.zeros(0, dtype=np.int64)] for _ in range(4))
    for f, var_indices in enumerate(flaw_vars):
        grid = np.zeros(1, dtype=np.int64)
        for i in var_indices:
            grid = np.add.outer(grid, np.arange(widths[i]) * strides[i]).ravel()
        states = np.flatnonzero(labels == f)
        base = states - sum(columns[i][states] * strides[i] for i in var_indices)
        sources.append(states)
        lengths.append(np.full(len(states), len(grid)))
        targets.append((base[:, None] + np.sort(grid)).ravel())
        probs.append(np.full(len(states) * len(grid), 1.0 / len(grid)))
    return Kernel.from_rows(len(labels), *(np.concatenate(parts) for parts in
                                           (sources, lengths, targets, probs)))


def _assignment_instance(widths, flaw_vars, flaw_predicates, flaw_names,
                         initial_values, explicit):
    """Shared builder: flaws over variable assignments, principal kernel
    resampling the addressed flaw's variables uniformly.  The predicates
    take one assignment, or the value columns of every state at once."""
    widths = tuple(widths)
    n = math.prod(widths)
    strides = _strides(widths)

    def principal_fn(state, values, flaw):
        return _resample_row(values, flaw_vars[flaw], widths, strides)

    implicit = ImplicitInstance(
        widths=widths, flaw_predicates=flaw_predicates,
        priority=range(len(flaw_predicates)),
        principal_fn=principal_fn,
        noise_fn=lambda state, values: Distribution.unit(state),
        p=0.0,
        initial=sum(v * s for v, s in zip(initial_values, strides)),
        flaw_names=flaw_names)
    if explicit is False or (explicit is None and n > explicit_cap()):
        return implicit
    check_explicit_cap(n)

    states = np.arange(n)
    columns = [(states // stride) % width for stride, width in zip(strides, widths)]
    member = np.zeros((n, len(flaw_predicates)), dtype=bool)
    for i, pred in enumerate(flaw_predicates):
        member[:, i] = pred(columns)
    priority = range(len(flaw_predicates))
    principal = _resample_kernel(columns, addressed_labels(member, priority),
                                 flaw_vars, widths, strides)
    return validate_instance(
        n_states=n, flaws=member, priority=priority,
        principal=principal, noise=Kernel.point(states), p=0.0,
        initial=implicit.initial, flaw_names=flaw_names, widths=widths)


def gen_coloring(edges, q: int, explicit=None):
    """Graph coloring: one variable per vertex with q colors, one flaw
    per edge (present when its endpoints match), priority in the given
    edge order.  Addressing an edge recolors both endpoints uniformly.
    """
    edges = [tuple(e) for e in edges]
    vertices = sorted({v for e in edges for v in e})
    if vertices != list(range(len(vertices))):
        raise ModelError(f"vertices must be 0..{len(vertices) - 1}, got {vertices}")
    if q < 1:
        raise ModelError("at least one color is required")
    if q == 1:
        warnings.warn("q = 1 leaves every edge permanently monochromatic: "
                      "no flawless state exists", ModelWarning, stacklevel=2)

    def edge_pred(u, v):
        return lambda values: values[u] == values[v]

    n_vars = len(vertices)
    return _assignment_instance(
        widths=(q,) * n_vars,
        flaw_vars=[tuple(sorted(e)) for e in edges],
        flaw_predicates=[edge_pred(u, v) for u, v in edges],
        flaw_names=[f"e{u}_{v}" for u, v in edges],
        initial_values=(0,) * n_vars,
        explicit=explicit)


def gen_ksat(n_vars: int, clauses, explicit=None):
    """CNF violation chasing: binary variables, one flaw per clause
    (present when the clause is falsified), priority in clause order.
    Clauses use DIMACS literals (+v true, -v false, 1-based).
    Addressing a clause resamples its variables uniformly.
    """
    clauses = [tuple(c) for c in clauses]
    if not clauses:
        raise ModelError("at least one clause is required")
    for c in clauses:
        if not c:
            raise ModelError("empty clause")
        if any(lit == 0 or abs(lit) > n_vars for lit in c):
            raise ModelError(f"clause {c} mentions variables outside 1..{n_vars}")

    def clause_pred(c):
        # violated when every literal is false (values are 0/1)
        falsifying = [(abs(lit) - 1, 0 if lit > 0 else 1) for lit in c]
        return lambda values: functools.reduce(
            operator.and_, (values[v] == bad for v, bad in falsifying))

    return _assignment_instance(
        widths=(2,) * n_vars,
        flaw_vars=[tuple(sorted({abs(lit) - 1 for lit in c})) for c in clauses],
        flaw_predicates=[clause_pred(c) for c in clauses],
        flaw_names=[f"c{i + 1}" for i in range(len(clauses))],
        initial_values=(0,) * n_vars,
        explicit=explicit)


def gen_random(n_states: int, m: int, seed: int, p: float = 0.0,
               max_support: int = 4) -> ExplicitInstance:
    """Random explicit instance for differential testing.

    Flaw memberships are Bernoulli(0.35) with at least one member;
    flawed states scatter over 2..max_support targets with probabilities
    bounded away from zero (keeping the arc bound small); flawless
    states self-loop.  Noise rows are random sparse rows as well, drawn
    last, so `attach_noise` swaps in a NoiseModel and leaves the rest as
    drawn.  Initial state is the lowest flawed one.
    """
    if n_states < 3 or m < 1:
        raise ModelError("need at least 3 states and one flaw")
    check_explicit_cap(n_states)
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    flaws = []
    for _ in range(m):
        members = {int(s) for s in range(n_states) if rng.random() < 0.35}
        if not members:
            members = {int(rng.integers(n_states))}
        flaws.append(members)
    priority = rng.permutation(m)
    flawed = set().union(*flaws)

    def sparse_row():
        size = int(rng.integers(2, min(max_support, n_states) + 1))
        targets = sorted(int(t) for t in rng.choice(n_states, size=size, replace=False))
        weights = 0.25 + 0.75 * rng.random(size)
        weights = weights / weights.sum()
        return list(zip(targets, (float(w) for w in weights)))

    principal = {s: sparse_row() if s in flawed else [(s, 1.0)]
                 for s in range(n_states)}
    noise = {s: sparse_row() for s in range(n_states)}
    return validate_instance(
        n_states=n_states, flaws=flaws, priority=priority, principal=principal,
        noise=noise, p=p, initial=min(flawed))


def gen_uniform_singletons(n_states: int, m: int, seed: int,
                           min_support: int = 2,
                           max_support: int = 8) -> ExplicitInstance:
    """Noiseless family with uniform principal rows and unit congestion.

    Each flaw occupies its own singleton state, so no two sources of a
    flaw share any successor and every principal bit cost is zero; the
    reduced sum-of-reciprocal-support condition is then equivalent to
    the full one.
    """
    if m >= n_states:
        raise ModelError("need more states than flaws")
    check_explicit_cap(n_states)
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    homes = sorted(int(s) for s in rng.choice(n_states, size=m, replace=False))
    flaws = [{s} for s in homes]
    principal = {}
    hi = min(max_support, n_states)
    for s in range(n_states):
        if s in set(homes):
            size = int(rng.integers(min_support, hi + 1))
            targets = sorted(int(t) for t in
                             rng.choice(n_states, size=size, replace=False))
            principal[s] = [(t, 1.0 / size) for t in targets]
        else:
            principal[s] = [(s, 1.0)]
    noise = {s: [(s, 1.0)] for s in range(n_states)}
    return validate_instance(
        n_states=n_states, flaws=flaws, priority=rng.permutation(m),
        principal=principal, noise=noise, p=0.0, initial=homes[0])
