"""Finite flaw-structured Markov systems with a principal/noise kernel mix.

States are integers 0..n-1.  A flaw is a subset of states sharing a defect;
a state belonging to no flaw is flawless.  Each step follows the noise
kernel with probability p and the principal kernel otherwise.  The
principal kernel is controlled: a flawed state addresses its
highest-priority present flaw, and flawless states hold still (their
principal rows are exact unit self-loops).

Two instance flavors share one behavioural surface.  The explicit flavor
enumerates every kernel row, stored as CSR arrays with a state x flaw
membership matrix, and supports the full analysis stack; validation and
the whole-instance passes run over those arrays.  The implicit flavor
encodes states as variable assignments and builds rows on demand from
callbacks, which is enough for simulation and forensics.
"""

from __future__ import annotations

import math
import os
import sys
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

ROW_TOL = 1e-9  # kernel rows must sum to 1 within this
# sum() of floats adds left to right up to Python 3.11 and compensates
# from 3.12 on; `row_sums` reproduces whichever interpreter runs.
COMPENSATED_SUM = sys.version_info >= (3, 12)


class ModelError(ValueError):
    """An instance description that violates the model constraints."""

    def __init__(self, violations):
        if isinstance(violations, str):
            violations = [violations]
        self.violations = tuple(violations)
        super().__init__("; ".join(self.violations))


class ModelWarning(UserWarning):
    pass


def binary_entropy(p: float) -> float:
    """h(p) in bits, with h(0) = h(1) = 0 by the limit convention."""
    if p < 0.0 or p > 1.0:
        raise ValueError(f"binary_entropy needs p in [0, 1], got {p!r}")
    if p == 0.0 or p == 1.0:
        return 0.0
    return -p * math.log2(p) - (1.0 - p) * math.log2(1.0 - p)


def shannon_entropy(dist) -> float:
    """Entropy in bits of a Distribution or an iterable of (state, prob)."""
    pairs = dist.support if isinstance(dist, Distribution) else dist
    return -sum(pr * math.log2(pr) for _, pr in pairs if pr > 0.0)


@dataclass(frozen=True)
class Distribution:
    """A sparse probability row: ((state, prob), ...) sorted by state.

    Rows are canonical: support sorted ascending by state, no duplicate
    states, every probability strictly positive, total mass 1.  `sample`
    maps a uniform draw through the inverse CDF in canonical order; fixing
    that order is what makes seeded runs reproducible across flavors.
    """

    support: tuple

    @classmethod
    def from_pairs(cls, pairs, where: str = "row") -> "Distribution":
        support = tuple(sorted((int(s), float(pr)) for s, pr in pairs))
        problems = _row_problems(support, where)
        if problems:
            raise ModelError(problems)
        return cls(support)

    @classmethod
    def unit(cls, state: int) -> "Distribution":
        return cls(((int(state), 1.0),))

    def states(self) -> tuple:
        return tuple(s for s, _ in self.support)

    def probs(self) -> tuple:
        return tuple(pr for _, pr in self.support)

    def entropy(self) -> float:
        return shannon_entropy(self.support)

    def sample(self, u: float) -> int:
        """Inverse-CDF draw: u in [0, 1) against the sorted support."""
        if not self.support:
            raise ModelError("cannot sample from an empty row")
        acc = 0.0
        for state, pr in self.support:
            acc += pr
            if u < acc:
                return state
        return self.support[-1][0]

    def is_unit_self_loop(self, state: int) -> bool:
        return self.support == ((state, 1.0),)

    def __len__(self):
        return len(self.support)


def _row_problems(support, where):
    problems = []
    states = [s for s, _ in support]
    if len(set(states)) != len(states):
        problems.append(f"{where}: duplicate states in support")
    for s, pr in support:
        if not (pr > 0.0):
            problems.append(f"{where}: probability {pr} for state {s} is not positive")
    if support and abs(sum(pr for _, pr in support) - 1.0) > ROW_TOL:
        problems.append(f"{where}: mass {sum(pr for _, pr in support)!r} != 1")
    if not support:
        problems.append(f"{where}: empty support")
    return problems


def row_sums(values, indptr, compensated: bool = COMPENSATED_SUM):
    """Per-row `sum()` of a CSR value array, bit for bit.

    The builtin adds a row's entries in order starting from the int 0;
    from Python 3.12 on it also carries a Neumaier compensation term.
    Rows are processed longest first, one entry position per pass, so
    the cost is one vector operation per position of the longest row.
    """
    lengths = np.diff(indptr)
    order = np.argsort(-lengths, kind="stable")
    lengths = lengths[order]
    starts = indptr[:-1][order]
    total = np.zeros(len(lengths))
    comp = np.zeros(len(lengths))
    live = int(np.count_nonzero(lengths))
    with np.errstate(invalid="ignore", over="ignore"):
        # 0 + x maps a leading -0.0 to 0.0, as the int start does
        total[:live] = 0.0 + values[starts[:live]]
        for k in range(1, int(lengths[0]) if len(lengths) else 0):
            live = int(np.searchsorted(-lengths, -k))   # rows longer than k
            s = total[:live]
            x = values[starts[:live] + k]
            t = s + x
            if compensated:
                comp[:live] += np.where(np.abs(s) >= np.abs(x),
                                        (s - t) + x, (x - t) + s)
            total[:live] = t
        if compensated:
            fix = (comp != 0.0) & np.isfinite(comp)
            total[fix] += comp[fix]
    out = np.empty_like(total)
    out[order] = total
    return out


def map_values(fn, values):
    """fn of every element of a float array, as a float array.

    fn is called once per distinct value, on a Python float, so each
    result is the scalar call's bit for bit.
    """
    ordered = np.sort(values)
    distinct = np.concatenate((ordered[:1], ordered[1:][ordered[1:] != ordered[:-1]]))
    table = np.array([fn(v) for v in distinct.tolist()], dtype=np.float64)
    return table[np.searchsorted(distinct, values)]


def _frozen(array, dtype):
    out = np.ascontiguousarray(array, dtype=dtype)
    out.flags.writeable = False
    return out


class Kernel:
    """One kernel of an explicit instance: CSR arrays read as a row sequence.

    Row s has targets `indices[indptr[s]:indptr[s + 1]]`, strictly
    ascending once validated, with probabilities `probs` at the same
    positions.  The arrays are read-only.  `kernel[s]` is row s as a
    Distribution, built on first use and cached in `rows` (None until
    then); iteration builds every row without caching it.  Kernels
    compare equal when their arrays do.
    """

    def __init__(self, indptr, indices, probs):
        self.indptr = _frozen(indptr, np.int64)
        self.indices = _frozen(indices, np.int64)
        self.probs = _frozen(probs, np.float64)
        self.rows = [None] * (len(self.indptr) - 1)

    @classmethod
    def point(cls, targets) -> "Kernel":
        """One probability-1 arc per state: s moves to targets[s]."""
        targets = np.asarray(targets, dtype=np.int64)
        return cls(np.arange(len(targets) + 1), targets, np.ones(len(targets)))

    @classmethod
    def from_entries(cls, lengths, targets, probs) -> "Kernel":
        """Kernel of per-state entry runs, sorted into canonical row order
        (target, then probability) when they are not in it already."""
        lengths = np.asarray(lengths, dtype=np.int64)
        targets = np.asarray(targets, dtype=np.int64)
        probs = np.asarray(probs, dtype=np.float64)
        indptr = np.zeros(len(lengths) + 1, dtype=np.int64)
        np.cumsum(lengths, out=indptr[1:])
        rows = np.repeat(np.arange(len(lengths)), lengths)
        t0, t1, p0, p1 = targets[:-1], targets[1:], probs[:-1], probs[1:]
        if np.any((rows[1:] == rows[:-1]) & ((t1 < t0) | ((t1 == t0) & (p1 < p0)))):
            order = np.lexsort((probs, targets, rows))
            targets, probs = targets[order], probs[order]
        return cls(indptr, targets, probs)

    @classmethod
    def from_rows(cls, n, sources, lengths, targets, probs) -> "Kernel":
        """Kernel of n states: the rows of `sources` (distinct states, in
        any order), whose entry runs lie in `targets` and `probs` in that
        order, and a unit self-loop at every other state.  Rows are sorted
        as `from_entries` sorts them."""
        sources = np.asarray(sources, dtype=np.int64)
        lengths = np.asarray(lengths, dtype=np.int64)
        row_len = np.ones(n, dtype=np.int64)
        row_len[sources] = lengths
        all_targets = np.repeat(np.arange(n), row_len)
        all_probs = np.ones(len(all_targets))
        starts = np.cumsum(row_len) - row_len
        pos = (np.repeat(starts[sources] - (np.cumsum(lengths) - lengths), lengths)
               + np.arange(lengths.sum()))
        all_targets[pos] = targets
        all_probs[pos] = probs
        return cls.from_entries(row_len, all_targets, all_probs)

    @cached_property
    def lengths(self):
        return np.diff(self.indptr)

    @cached_property
    def sources(self):
        """The source state of every entry."""
        return np.repeat(np.arange(len(self)), self.lengths)

    def take(self, states):
        """Rows of `states` as (indptr, targets, probs) arrays."""
        lengths = self.lengths[states]
        indptr = np.zeros(len(states) + 1, dtype=np.int64)
        np.cumsum(lengths, out=indptr[1:])
        pos = np.repeat(self.indptr[states] - indptr[:-1], lengths) + np.arange(indptr[-1])
        return indptr, self.indices[pos], self.probs[pos]

    def __len__(self):
        return len(self.indptr) - 1

    def __getitem__(self, state) -> Distribution:
        row = self.rows[state]   # IndexError past either end
        if row is None:
            s = range(len(self.rows))[state]
            a, b = self.indptr[s], self.indptr[s + 1]
            row = self.rows[s] = Distribution(tuple(zip(
                self.indices[a:b].tolist(), self.probs[a:b].tolist())))
        return row

    def __iter__(self):
        indptr = self.indptr.tolist()
        targets = self.indices.tolist()
        probs = self.probs.tolist()
        for a, b in zip(indptr, indptr[1:]):
            yield Distribution(tuple(zip(targets[a:b], probs[a:b])))

    def __eq__(self, other):
        if not isinstance(other, Kernel):
            return NotImplemented
        return (np.array_equal(self.indptr, other.indptr)
                and np.array_equal(self.indices, other.indices)
                and np.array_equal(self.probs, other.probs))

    __hash__ = None


class ExplicitInstance:
    """Fully enumerated instance, stored as arrays.

    `principal` and `noise` are Kernels, `member[s, i]` is whether state
    s lies in flaw i, and `labels[s]` is the highest-priority flaw
    present at s (-1 when s is flawless).  `flaws` gives the member sets
    as frozensets.  The row-level accessors (`principal_row`,
    `noise_row`, `present`, `addressed`) build what they return from the
    arrays on first use and cache it, so a simulation step costs the
    same lookups whatever the instance size.  Instances come from
    `validate_instance`; treat them as immutable.
    """

    explicit = True

    def __init__(self, n_states, member, labels, priority, principal, noise,
                 p, initial, flaw_names, widths):
        self.n_states = n_states
        self.member = _frozen(member, bool)
        self.labels = _frozen(labels, np.int64)
        self.priority = priority
        self.principal = principal
        self.noise = noise
        self.p = p
        self.initial = initial   # fixed state int, or a Distribution over states
        self.flaw_names = flaw_names
        self.widths = widths
        self._principal_rows = principal.rows
        self._noise_rows = noise.rows
        self._present = [None] * n_states
        # built on first use; plain attributes keep attribute access fast
        self._addressed = None
        self._flaws = None
        self.memo = {}   # values other modules derive from the instance

    @property
    def m(self) -> int:
        return self.member.shape[1]

    @property
    def log2_states(self) -> float:
        return math.log2(self.n_states)

    @property
    def flaws(self) -> tuple:
        if self._flaws is None:
            self._flaws = tuple(frozenset(np.flatnonzero(col).tolist())
                                for col in self.member.T)
        return self._flaws

    def _addressed_list(self) -> list:
        self._addressed = [None if f < 0 else f for f in self.labels.tolist()]
        return self._addressed

    def present(self, state: int) -> tuple:
        here = self._present[state]
        if here is None:
            here = self._present[state] = tuple(
                np.flatnonzero(self.member[state]).tolist())
        return here

    def addressed(self, state: int):
        try:
            return self._addressed[state]
        except TypeError:   # the list is not built yet
            return self._addressed_list()[state]

    def is_flawless(self, state: int) -> bool:
        try:
            return self._addressed[state] is None
        except TypeError:
            return self._addressed_list()[state] is None

    def principal_row(self, state: int) -> Distribution:
        row = self._principal_rows[state]
        return self.principal[state] if row is None else row

    def noise_row(self, state: int) -> Distribution:
        row = self._noise_rows[state]
        return self.noise[state] if row is None else row

    def states(self):
        return range(self.n_states)


class ImplicitInstance:
    """Variable-assignment state space with callback kernels.

    States are mixed-radix encodings of assignment vectors: variable i
    takes widths[i] values and the last variable varies fastest.  Flaw
    membership comes from predicates over the decoded assignment; kernel
    rows are built on demand.  Analysis needs full enumeration, so only
    the simulator and forensics accept this flavor.

    principal_fn(state, values, flaw) must return the row used when
    `flaw` is addressed at `state`; rows for flawless states are pinned
    to unit self-loops here, not in the callback.
    """

    explicit = False

    def __init__(self, widths, flaw_predicates, priority, principal_fn,
                 noise_fn, p, initial, flaw_names=None):
        self.widths = tuple(int(w) for w in widths)
        if any(w < 1 for w in self.widths):
            raise ModelError("variable widths must be at least 1")
        self.flaw_predicates = tuple(flaw_predicates)
        self.priority = tuple(int(i) for i in priority)
        if sorted(self.priority) != list(range(len(self.flaw_predicates))):
            raise ModelError("priority is not a permutation of the flaw indices")
        self.principal_fn = principal_fn
        self.noise_fn = noise_fn
        self.p = float(p)
        if not (0.0 <= self.p <= 1.0):
            raise ModelError(f"mix probability {p} outside [0, 1]")
        self.initial = initial
        self.flaw_names = tuple(flaw_names) if flaw_names else tuple(
            f"f{i + 1}" for i in range(len(self.flaw_predicates)))
        self._strides = _strides(self.widths)
        self.n_states = math.prod(self.widths)

    @property
    def m(self) -> int:
        return len(self.flaw_predicates)

    @property
    def log2_states(self) -> float:
        return sum(math.log2(w) for w in self.widths)

    def decode(self, state: int) -> tuple:
        values = []
        for stride, width in zip(self._strides, self.widths):
            values.append((state // stride) % width)
        return tuple(values)

    def encode(self, values) -> int:
        return sum(v * s for v, s in zip(values, self._strides))

    def present(self, state: int) -> tuple:
        values = self.decode(state)
        return tuple(i for i, pred in enumerate(self.flaw_predicates) if pred(values))

    def addressed(self, state: int):
        values = self.decode(state)
        for i in self.priority:
            if self.flaw_predicates[i](values):
                return i
        return None

    def is_flawless(self, state: int) -> bool:
        return self.addressed(state) is None

    def principal_row(self, state: int) -> Distribution:
        flaw = self.addressed(state)
        if flaw is None:
            return Distribution.unit(state)
        return self.principal_fn(state, self.decode(state), flaw)

    def noise_row(self, state: int) -> Distribution:
        return self.noise_fn(state, self.decode(state))


def _strides(widths):
    strides = []
    acc = 1
    for w in reversed(widths):
        strides.append(acc)
        acc *= w
    return tuple(reversed(strides))


def mixed_rows(instance, states):
    """Mixed rows of `states`, as (indptr, targets, probs) arrays.

    Row k belongs to states[k]: (1 - p) * principal + p * noise, with
    each target's principal term first.  Degenerate mixes take one
    kernel's rows as they are, so supports never carry zero-mass
    entries.
    """
    p = instance.p
    if p == 0.0 or p == 1.0:
        return (instance.principal if p == 0.0 else instance.noise).take(states)
    ip, tp, pp = instance.principal.take(states)
    iq, tq, pq = instance.noise.take(states)
    rows = np.concatenate((np.repeat(np.arange(len(states)), np.diff(ip)),
                           np.repeat(np.arange(len(states)), np.diff(iq))))
    targets = np.concatenate((tp, tq))
    probs = np.concatenate(((1.0 - p) * pp, p * pq))
    order = np.lexsort((targets, rows))
    rows, targets, probs = rows[order], targets[order], probs[order]
    repeat = np.flatnonzero((rows[1:] == rows[:-1]) & (targets[1:] == targets[:-1]))
    probs[repeat] = probs[repeat] + probs[repeat + 1]
    keep = np.ones(len(rows), dtype=bool)
    keep[repeat + 1] = False
    indptr = np.zeros(len(states) + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows[keep], minlength=len(states)), out=indptr[1:])
    return indptr, targets[keep], probs[keep]


def mixed_flawed(instance):
    """Mixed rows of every flawed state, as (states, indptr, targets, probs).

    Computed once per instance and kept read-only in `instance.memo`,
    where `arc_bound` and the analyzer's potentials share it.
    """
    memo = instance.memo.get("mixed_flawed")
    if memo is None:
        states = np.flatnonzero(instance.labels >= 0)
        indptr, targets, probs = mixed_rows(instance, states)
        memo = instance.memo["mixed_flawed"] = (
            _frozen(states, np.int64), _frozen(indptr, np.int64),
            _frozen(targets, np.int64), _frozen(probs, np.float64))
    return memo


def arc_bound(instance) -> int:
    """Smallest B with 2^-B < rho < 1 - 2^-B on every mixed arc leaving a flawed state.

    Flawless states are exempt: the model pins their principal rows to
    unit self-loops, which no finite B admits, and bad prefixes never
    step out of a flawless state.  A flawed state carrying a
    probability-1 arc makes the bound undefined and is an error.
    """
    require_explicit(instance, "arc_bound")
    states, indptr, targets, probs = mixed_flawed(instance)
    if not len(probs):
        return 1
    sure = np.flatnonzero(probs >= 1.0)
    if len(sure):
        k = int(sure[0])
        state = int(states[np.searchsorted(indptr, k, side="right") - 1])
        raise ModelError(
            f"arc bound undefined: flawed state {state} moves to "
            f"{int(targets[k])} with probability {float(probs[k])}")
    # each arc's test only gets easier as B grows, so the extremes decide
    lo, hi = float(probs.min()), float(probs.max())
    best = 1
    while not (math.ldexp(1.0, -best) < lo and hi < 1.0 - math.ldexp(1.0, -best)):
        best += 1
    return best


def require_explicit(instance, what: str):
    if not getattr(instance, "explicit", False):
        raise ModelError(f"{what} requires the explicit instance flavor")


DEFAULT_EXPLICIT_CAP = 2 ** 16


def env_cap(name: str, default: int) -> int:
    """A positive integer read from the environment variable `name`."""
    raw = os.environ.get(name)
    if raw is None:
        return default
    try:
        value = int(raw)
    except ValueError:
        value = 0
    if value < 1:
        raise ModelError(f"{name} must be a positive integer, got {raw!r}")
    return value


def explicit_cap() -> int:
    """Largest state count materialized explicitly (FLAWCHAIN_EXPLICIT_CAP)."""
    return env_cap("FLAWCHAIN_EXPLICIT_CAP", DEFAULT_EXPLICIT_CAP)


def check_explicit_cap(n: int) -> None:
    """Refuse n states above the explicit cap, before anything is built."""
    cap = explicit_cap()
    if n > cap:
        raise ModelError(f"{n} states exceed the explicit cap {cap} "
                         f"(FLAWCHAIN_EXPLICIT_CAP)")


def addressed_labels(member, priority):
    """Per state, the first flaw of `priority` containing it, or -1."""
    labels = np.full(member.shape[0], -1, dtype=np.int64)
    for i in reversed(priority):
        labels[member[:, i]] = i
    return labels


def _membership(flaws, n, names, problems):
    if isinstance(flaws, np.ndarray):
        if flaws.dtype != bool or flaws.ndim != 2 or flaws.shape[0] != n:
            raise ModelError("a membership matrix must be boolean with one "
                             "row per state")
        return flaws
    member = np.zeros((n, len(flaws)), dtype=bool)
    for i, members in enumerate(flaws):
        if isinstance(members, np.ndarray):
            states = members.astype(np.int64)
        else:
            states = np.array([int(s) for s in members], dtype=np.int64)
        inside = (states >= 0) & (states < n)
        if not inside.all():
            problems.append(f"flaw {names[i]} has members outside 0..{n - 1}")
        member[states[inside], i] = True
    return member


def _kernel_from_rows(rows, n):
    """Kernel of a row mapping or list, plus the states it has no row for
    (those hold a unit self-loop placeholder)."""
    sources, missing, lengths, targets, probs = [], [], [], [], []
    for s in range(n):
        try:
            pairs = rows[s]
        except (KeyError, IndexError):
            missing.append(s)
            continue
        sources.append(s)
        before = len(targets)
        for t, pr in pairs:
            targets.append(int(t))
            probs.append(float(pr))
        lengths.append(len(targets) - before)
    return Kernel.from_rows(n, sources, lengths, targets, probs), missing


def _kernel_problems(kernel, n, label, missing=()) -> dict:
    """Violations of one kernel's rows, by state.

    One array pass finds the rows breaking a rule of `_row_problems` or
    targeting a state outside 0..n-1; only those rows are read back one
    by one to word their messages.  Row mass is decided on `row_sums`,
    the builtin's own sum, so a row right at the 1 +- ROW_TOL edge is
    judged as the per-row rule judges it.
    """
    indptr, targets, probs = kernel.indptr, kernel.indices, kernel.probs
    sources = kernel.sources
    with np.errstate(invalid="ignore"):
        flagged = (kernel.lengths == 0) | (np.abs(row_sums(probs, indptr) - 1.0) > ROW_TOL)
        bad_entry = ~(probs > 0.0) | (targets < 0) | (targets >= n)
    flagged[sources[bad_entry]] = True
    repeat = (sources[1:] == sources[:-1]) & (targets[1:] == targets[:-1])
    flagged[sources[1:][repeat]] = True
    found = {s: [f"{label} kernel has no row for state {s}"] for s in missing}
    for s in np.flatnonzero(flagged).tolist():
        a, b = int(indptr[s]), int(indptr[s + 1])
        support = tuple(zip(targets[a:b].tolist(), probs[a:b].tolist()))
        where = f"{label} row of state {s}"
        row = _row_problems(support, where)
        if any(t < 0 or t >= n for t, _ in support):
            row.append(f"{where} targets outside 0..{n - 1}")
        if row:
            found[s] = row
    return found


def _unit_self_loops(kernel):
    """Whether each row is exactly ((s, 1.0),)."""
    n = len(kernel)
    if not len(kernel.indices):
        return np.zeros(n, dtype=bool)
    first = np.minimum(kernel.indptr[:-1], len(kernel.indices) - 1)
    return ((kernel.lengths == 1) & (kernel.indices[first] == np.arange(n))
            & (kernel.probs[first] == 1.0))


def validate_instance(n_states, flaws, priority, principal, noise, p, initial,
                      flaw_names=None, widths=None) -> ExplicitInstance:
    """Normalize and check an explicit instance description.

    `flaws` lists each flaw's member states, or is a boolean state x flaw
    membership matrix.  `principal` and `noise` are Kernels, or map (or
    list, indexed by state) each state to an iterable of (target,
    probability) pairs.  Raises ModelError whose `violations` list every
    problem found.  Normalization sorts every row support by state index,
    which is the canonical form the seeded sampler relies on.
    """
    problems = []
    n = int(n_states)
    if n < 1:
        raise ModelError(f"state count {n} must be positive")
    if widths is not None:
        widths = tuple(int(w) for w in widths)
        if math.prod(widths) != n:
            problems.append(f"widths {widths} do not multiply to {n} states")

    if not isinstance(flaws, np.ndarray):
        flaws = list(flaws)
    m = flaws.shape[1] if isinstance(flaws, np.ndarray) else len(flaws)
    names = list(flaw_names) if flaw_names else [f"f{i + 1}" for i in range(m)]
    if len(names) != m:
        problems.append("flaw_names length does not match the flaw count")
        names = [f"f{i + 1}" for i in range(m)]
    if len(set(names)) != len(names):
        problems.append("duplicate flaw names")
    member = _membership(flaws, n, names, problems)
    for i in np.flatnonzero(~member.any(axis=0)).tolist():
        warnings.warn(f"flaw {names[i]} is empty", ModelWarning, stacklevel=2)

    priority = tuple(int(i) for i in priority)
    if sorted(priority) != list(range(m)):
        problems.append(f"priority {priority} is not a permutation of 0..{m - 1}")
        priority = tuple(range(m))
    labels = addressed_labels(member, priority)

    kernels = []
    for kernel, label in ((principal, "principal"), (noise, "noise")):
        missing = ()
        if not isinstance(kernel, Kernel):
            kernel, missing = _kernel_from_rows(kernel, n)
        elif len(kernel) != n:
            raise ModelError(problems + [f"{label} kernel has {len(kernel)} "
                                         f"rows for {n} states"])
        found = _kernel_problems(kernel, n, label, missing)
        problems.extend(msg for s in sorted(found) for msg in found[s])
        kernels.append((kernel, found))
    (principal, principal_found), (noise, _) = kernels

    loose = (labels < 0) & ~_unit_self_loops(principal)
    for s in np.flatnonzero(loose).tolist():
        if s not in principal_found:
            problems.append(
                f"flawless state {s} must have the exact unit self-loop as its "
                f"principal row, got {principal[s].support}")

    p = float(p)
    if not (0.0 <= p <= 1.0):
        problems.append(f"mix probability {p} outside [0, 1]")

    if isinstance(initial, Distribution):
        bad = [s for s, _ in initial.support if s < 0 or s >= n]
        if bad:
            problems.append(f"initial distribution covers unknown states {bad}")
    else:
        initial = int(initial)
        if initial < 0 or initial >= n:
            problems.append(f"initial state {initial} outside 0..{n - 1}")

    if problems:
        raise ModelError(problems)
    return ExplicitInstance(
        n_states=n, member=member, labels=labels, priority=priority,
        principal=principal, noise=noise, p=p, initial=initial,
        flaw_names=tuple(names), widths=widths)
