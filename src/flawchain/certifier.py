"""Certification of rapid convergence to flawless states.

The core test is a weighted neighborhood sum: for every flaw, the
amenability-discounted mass of its principal causality neighborhood must
stay strictly below 2^-(2 + h(p)).  Passing at lambda = 1 certifies the
hitting-time guarantee; the smallest passing lambda < 1 additionally
bounds the entropy of bad prefixes and yields explicit step budgets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .analyzer import (flaw_profiles, global_noise_bits, global_principal_bits,
                       max_delta)
from .core import ModelError, arc_bound, binary_entropy, require_explicit

STRICT_TOL = 1e-9       # slack demanded of every strict inequality
LAMBDA_TOL = 1e-6       # bisection stop width for the lambda search


def _pow2(exponent: float) -> float:
    # 2**x overflows a float for x > 1023; saturate instead of raising.
    if exponent == -math.inf:
        return 0.0
    if exponent > 1023:
        return math.inf
    return 2.0 ** exponent


@dataclass(frozen=True)
class ConditionRow:
    flaw: int
    name: str
    total: float
    ok: bool


@dataclass(frozen=True)
class ConditionReport:
    """Per-flaw neighborhood sums against the 2^-(2+h(p)) threshold."""

    lam: float
    p: float
    threshold: float
    rows: tuple
    ok: bool
    slack: float  # min over flaws of threshold - total; negative when failing

    def totals(self) -> tuple:
        return tuple(r.total for r in self.rows)


def condition_report(profiles, p: float, lam: float = 1.0,
                     tol: float = STRICT_TOL) -> ConditionReport:
    """Evaluate the neighborhood condition at a given lambda.

    Each neighbor f_j contributes 2^-(lam * potential_j - b_pr_j - q_j);
    unaddressed flaws (infinite potential) contribute nothing.  At
    lam = 1 the exponent is amenability_j - q_j, the plain certificate
    condition.
    """
    threshold = _pow2(-(2.0 + binary_entropy(p)))
    by_index = {pf.index: pf for pf in profiles}
    rows = []
    worst = math.inf
    for pf in profiles:
        total = 0.0
        for j in sorted(pf.gamma_pr):
            other = by_index[j]
            if other.potential == math.inf:
                continue
            total += _pow2(-(lam * other.potential - other.b_pr - other.q))
        rows.append(ConditionRow(pf.index, pf.name, total, total < threshold - tol))
        worst = min(worst, threshold - total)
    ok = all(r.ok for r in rows)
    slack = 0.0 if not rows else worst
    return ConditionReport(lam=lam, p=p, threshold=threshold, rows=tuple(rows),
                           ok=ok, slack=slack)


def lambda_search(profiles, p: float, tol: float = LAMBDA_TOL,
                  strict_tol: float = STRICT_TOL):
    """Smallest lambda in (0, 1] passing the condition, with its slack.

    The condition is monotone in lambda (raising lambda only shrinks
    every term), so bisection applies.  Returns None when even lambda = 1
    fails, i.e. the instance is not certified.
    """
    if not condition_report(profiles, p, 1.0, strict_tol).ok:
        return None
    lo, hi = 0.0, 1.0  # lo always fails (terms are >= 1 at lambda = 0)
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if condition_report(profiles, p, mid, strict_tol).ok:
            hi = mid
        else:
            lo = mid
    report = condition_report(profiles, p, hi, strict_tol)
    return hi, report.slack


@dataclass(frozen=True)
class Certificate:
    """Certified instance summary plus explicit budget formulas.

    The step budgets hold for any initial state: after step_bound(s)
    steps the chance of still seeing a flaw is below exp(-s) (meaningful
    for s > 1/2).  m0 grows with lambda while the 1/(1-lambda) factor in
    x0 shrinks, so budgets depend on which passing lambda is used.
    """

    condition: ConditionReport   # at lambda = 1
    lam: float
    lam_star: float
    lam_slack: float
    B: int
    xi: float
    delta_max: int
    m0: float
    x0: float
    n_states: int
    log2_states: float
    m: int
    p: float

    def distance_bound(self, s: float) -> float:
        """Entropy-distance budget E(s) = ceil(2s / (1 + lambda)) * (x0 + B)."""
        return math.ceil(2.0 * s / (1.0 + self.lam)) * (self.x0 + self.B)

    def step_bound(self, s: float) -> float:
        """Step budget 2^B * E(s)."""
        try:
            return math.ldexp(self.distance_bound(s), self.B)
        except OverflowError:
            return math.inf

    def work_ratio(self) -> float:
        """step_bound(1) normalized by log2 |states| + m."""
        return self.step_bound(1.0) / (self.log2_states + self.m)

    def bad_mass_cap(self) -> float:
        """Bound (1 + lambda) / 2 on the all-flawed mass at stratum x0."""
        return 0.5 * (1.0 + self.lam)


def build_certificate(instance, profiles=None, lam=None,
                      tol: float = STRICT_TOL) -> Certificate:
    """Assemble the certificate at a chosen (or searched) lambda.

    Raises ModelError when the instance is not certified, when the
    requested lambda fails the condition, or when lambda = 1 is requested
    (x0 needs lambda < 1; certified instances always admit one).
    """
    require_explicit(instance, "build_certificate")
    if instance.p >= 1.0:
        raise ModelError("certification requires a mix probability below 1")
    if profiles is None:
        profiles = flaw_profiles(instance)
    condition = condition_report(profiles, instance.p, 1.0, tol)
    if not condition.ok:
        raise ModelError("instance is not certified: the neighborhood "
                         "condition fails at lambda = 1")
    found = lambda_search(profiles, instance.p, strict_tol=tol)
    lam_star, lam_slack = found
    if lam is None:
        lam = lam_star
    else:
        if not condition_report(profiles, instance.p, lam, tol).ok:
            raise ModelError(f"lambda = {lam} does not pass the condition")
    if lam >= 1.0:
        raise ModelError("budgets need lambda < 1")

    B = arc_bound(instance)
    xi = max(global_noise_bits(profiles), global_principal_bits(profiles))
    delta = max_delta(profiles)
    m0 = instance.log2_states + instance.m * (delta + 1) * (xi + 4.0) + lam * B
    x0 = 2.0 * m0 / (1.0 - lam)
    return Certificate(
        condition=condition, lam=lam, lam_star=lam_star, lam_slack=lam_slack,
        B=B, xi=xi, delta_max=delta, m0=m0, x0=x0,
        n_states=instance.n_states, log2_states=instance.log2_states,
        m=instance.m, p=instance.p)


def certify(instance, lam=None, tol: float = STRICT_TOL):
    """Full pipeline: profiles, condition, lambda search, budgets.

    Returns (condition_report, certificate or None).  The report is
    always produced so callers can inspect the failing sums.
    """
    require_explicit(instance, "certify")
    if instance.p >= 1.0:
        raise ModelError("certification requires a mix probability below 1")
    profiles = flaw_profiles(instance)
    condition = condition_report(profiles, instance.p, 1.0, tol)
    if not condition.ok:
        return condition, None
    return condition, build_certificate(instance, profiles, lam=lam, tol=tol)


def _binary_entropy_vec(p):
    p = np.asarray(p, dtype=float)
    out = np.zeros_like(p)
    inner = (p > 0.0) & (p < 1.0)
    q = p[inner]
    out[inner] = -q * np.log2(q) - (1.0 - q) * np.log2(1.0 - q)
    return out


@dataclass(frozen=True)
class AuditFailure:
    check: str
    where: dict
    lhs: float
    rhs: float


@dataclass(frozen=True)
class AuditReport:
    checked: int
    failures: tuple

    @property
    def ok(self) -> bool:
        return not self.failures


def inequality_audit(deltas=range(1, 65), noise_bits=range(0, 9),
                     ps=None, certified=(), tol: float = STRICT_TOL) -> AuditReport:
    """Grid audit of the counting inequalities behind the certificate.

    For every (delta, b_ns, p) on the grid:
      * the payload count bound:
          max_k [delta * h(k/delta) + k * (b_ns + 2 + h(p))]
            <  delta * (b_ns + 5/2 + h(p))
      * the closed-form cap q(p) <= p * delta * (b_ns + 4).

    `certified` takes (profiles, lam, p) triples; for each, every
    addressed flaw must satisfy lam * potential - q >= 2 + h(p), which
    the passing condition implies.
    """
    if ps is None:
        ps = np.arange(0.01, 1.0, 0.01)
    ps = np.asarray(list(ps), dtype=float)
    hp = _binary_entropy_vec(ps)
    failures = []
    checked = 0
    for delta in deltas:
        k = np.arange(delta + 1, dtype=float)
        hk = delta * _binary_entropy_vec(k / delta)
        for b_ns in noise_bits:
            # rows: k, cols: p
            payload = hk[:, None] + k[:, None] * (b_ns + 2.0 + hp[None, :])
            lhs = payload.max(axis=0)
            rhs = delta * (b_ns + 2.5 + hp)
            checked += len(ps)
            for idx in np.nonzero(lhs >= rhs)[0]:
                failures.append(AuditFailure(
                    "payload_count", {"delta": delta, "b_ns": b_ns, "p": float(ps[idx])},
                    float(lhs[idx]), float(rhs[idx])))
            q = ps * (delta * (b_ns + 2.5 + hp) - 2.0 - hp)
            cap = ps * delta * (b_ns + 4.0)
            checked += len(ps)
            for idx in np.nonzero(q > cap + 1e-12)[0]:
                failures.append(AuditFailure(
                    "charge_cap", {"delta": delta, "b_ns": b_ns, "p": float(ps[idx])},
                    float(q[idx]), float(cap[idx])))

    for profiles, lam, p in certified:
        floor = 2.0 + binary_entropy(p)
        for pf in profiles:
            if pf.potential == math.inf:
                continue
            checked += 1
            lhs = lam * pf.potential - pf.q
            if lhs < floor - tol:
                failures.append(AuditFailure(
                    "certified_floor", {"flaw": pf.name, "lam": lam, "p": p},
                    lhs, floor))
    return AuditReport(checked=checked, failures=tuple(failures))


def uniform_noiseless_check(instance, tol: float = STRICT_TOL):
    """Reduced condition for noiseless instances with uniform principal
    rows and unit congestion: sum of 1/a_j over each principal
    neighborhood stays below 1/4, where a_j is the least principal
    support size among states addressing f_j.

    Returns (ok, per-flaw sums).  Raises when the preconditions fail.
    """
    require_explicit(instance, "uniform_noiseless_check")
    if instance.p != 0.0:
        raise ModelError("the reduced check is for p = 0")
    support_min = [math.inf] * instance.m
    for s in instance.states():
        flaw = instance.addressed(s)
        if flaw is None:
            continue
        row = instance.principal_row(s)
        probs = set(row.probs())
        if len(probs) != 1:
            raise ModelError(f"principal row of state {s} is not uniform")
        support_min[flaw] = min(support_min[flaw], len(row))
    profiles = flaw_profiles(instance)
    for pf in profiles:
        if pf.b_pr != 0.0:
            raise ModelError(f"flaw {pf.name} has principal congestion above 1")
    sums = []
    for pf in profiles:
        total = sum(1.0 / support_min[j] for j in sorted(pf.gamma_pr)
                    if support_min[j] != math.inf)
        sums.append(total)
    ok = all(t < 0.25 - tol for t in sums)
    return ok, sums
