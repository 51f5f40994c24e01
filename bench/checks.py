"""Correctness checks on command outputs.  Each returns a list of
failure messages, empty when the output is correct.  They run after the
timed region, and a command with any failure counts as failed."""

from __future__ import annotations

import math


def gen_doc(doc: dict, written: str) -> list:
    out = []
    if doc.get("written") != written:
        out.append(f"gen wrote {doc.get('written')!r}, expected {written!r}")
    if not doc.get("manifest", {}).get("instance_sha256"):
        out.append("gen manifest has no instance_sha256")
    return out


def same_instance(doc: dict, ref_sha: str, what: str) -> list:
    got = doc.get("manifest", {}).get("instance_sha256")
    if got != ref_sha:
        return [f"{what} instance_sha256 {got} differs from {ref_sha}"]
    return []


def certify_doc(doc: dict, rc: int) -> list:
    out = []
    certified = doc.get("certified")
    if rc != (0 if certified else 1):
        out.append(f"certify exited {rc} with certified={certified}")
    if not certified:
        return out
    cert = doc.get("certificate") or {}
    lam = cert.get("lambda_star")
    if not (isinstance(lam, float) and 0.0 < lam < 1.0):
        out.append(f"lambda_star {lam!r} outside (0, 1)")
    if not doc.get("sums") or not all(row.get("ok") for row in doc["sums"]):
        out.append("a certified instance has a condition row not ok")
    steps = [b.get("steps") for b in cert.get("budgets", [])]
    if not steps or not all(isinstance(s, (int, float)) and math.isfinite(s)
                            for s in steps):
        out.append(f"step budgets {steps} not all finite")
    elif any(a >= b for a, b in zip(steps, steps[1:])):
        out.append(f"step budgets {steps} do not increase with s")
    return out


def audit_doc(doc: dict) -> list:
    if doc.get("ok") is not True or doc.get("failures"):
        return [f"audit not ok: {len(doc.get('failures') or [])} failures"]
    return []


def mc_summary(doc: dict, p: float) -> list:
    """Geometric hitting time of the star with hub noise: mean 1/(1-p)."""
    out = []
    trials = doc.get("trials") or 0
    if doc.get("censored") != 0:
        out.append(f"{doc.get('censored')} censored trials, expected 0")
    mean, expect = doc.get("mean_hit"), 1.0 / (1.0 - p)
    sigma = math.sqrt(p) / (1.0 - p) / math.sqrt(max(trials, 1))
    if not isinstance(mean, float) or abs(mean - expect) > 4.0 * sigma:
        out.append(f"mean_hit {mean} not within 4 sigma ({sigma:.3g}) of {expect}")
    check = doc.get("tail_check") or {}
    rows = check.get("rows") or []
    if check.get("guarantee") is not True or not rows:
        out.append("tail_check carries no guarantee rows")
    bad = [row.get("s") for row in rows if row.get("status") != "ok"]
    if bad:
        out.append(f"tail_check rows not ok at s = {bad}")
    return out


def csv_rows(rows, trials: int, budget: int, replayed: dict) -> list:
    """Row count, and sampled rows against `run(..., trial=i).hit_step`."""
    out = []
    if len(rows) != trials:
        out.append(f"CSV has {len(rows)} rows, expected {trials}")
    for i, hit in sorted(replayed.items()):
        if i >= len(rows):
            continue
        expect = (budget, True) if hit is None else (hit, False)
        if rows[i] != expect:
            out.append(f"CSV row {i} is {rows[i]}, replay gives {expect}")
    return out


def forensics_doc(doc: dict, csv_hit: int) -> list:
    out = [f"{key} is not true" for key in ("roundtrip_ok", "reconstruction_ok")
           if doc.get(key) is not True]
    if doc.get("encoded_bits") != doc.get("expected_bits"):
        out.append(f"encoded_bits {doc.get('encoded_bits')} != expected_bits "
                   f"{doc.get('expected_bits')}")
    if doc.get("z") != csv_hit:
        out.append(f"z {doc.get('z')} differs from the CSV hit {csv_hit}")
    return out


def tree_doc(doc: dict) -> list:
    checks = doc.get("checks") or {}
    out = [f"tree check {key} is not true" for key, value in sorted(checks.items())
           if key.endswith("_ok") and value is not True]
    if checks.get("skipped") is not False:
        out.append("tree checks were skipped")
    if checks.get("n_leaves") != doc.get("n_leaves"):
        out.append("tree n_leaves differs between the document and its checks")
    return out


def reference(digests: dict, expected: dict) -> list:
    """Output sha256 digests against the references of the default seed."""
    return [f"{name} sha256 {digests.get(name)} differs from the reference"
            for name in sorted(expected) if digests.get(name) != expected[name]]
