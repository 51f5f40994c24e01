import itertools
import math

import pytest

from flawchain import (Certificate, ModelError, NoiseModel, attach_noise,
                       binary_entropy, build_certificate, certify,
                       condition_report, flaw_profiles, gen_uniform_singletons,
                       inequality_audit, lambda_search, q_of_p,
                       uniform_noiseless_check, validate_instance)

LAMBDA_TOL = 1e-6


def _selfloops(n):
    return {s: [(s, 1.0)] for s in range(n)}


def _feedback_pair():
    """Two flaws feeding each other with 1-bit potentials: sum 1 >> 1/4."""
    return validate_instance(
        n_states=3, flaws=[{0}, {1}], priority=[0, 1],
        principal={0: [(1, 0.5), (2, 0.5)], 1: [(0, 0.5), (2, 0.5)],
                   2: [(2, 1.0)]},
        noise=_selfloops(3), p=0.0, initial=0)


# ---------------------------------------------------------- the condition


def test_star_condition_at_lambda_one(star9):
    report = condition_report(flaw_profiles(star9), 0.0, 1.0)
    assert report.ok
    assert report.threshold == 0.25
    assert report.totals() == (0.125,)          # 2^-3 exactly
    assert report.slack == pytest.approx(0.125)


def test_noisy_star_condition_frozen(star9_noisy):
    report = condition_report(flaw_profiles(star9_noisy), 0.2, 1.0)
    assert report.ok
    # threshold 2^-(2 + h(0.2)); the single sum is 2^-(potential - q)
    assert report.threshold == pytest.approx(0.25 * 2.0 ** -binary_entropy(0.2))
    assert report.totals()[0] == pytest.approx(
        2.0 ** -(3.121928094887362 - 0.1), abs=1e-12)
    assert report.slack == pytest.approx(0.028457, abs=1e-5)


def test_feedback_pair_fails():
    report = condition_report(flaw_profiles(_feedback_pair()), 0.0, 1.0)
    assert not report.ok
    assert report.totals() == (1.0, 1.0)
    assert report.slack == pytest.approx(0.25 - 1.0)


def test_unaddressed_flaws_contribute_nothing():
    # disjoint target sets keep the principal congestion at 1
    inst = validate_instance(
        n_states=4, flaws=[{1, 2}, {2}], priority=[0, 1],
        principal={0: [(0, 1.0)], 1: [(0, 0.5), (1, 0.5)],
                   2: [(2, 0.5), (3, 0.5)], 3: [(3, 1.0)]},
        noise=_selfloops(4), p=0.0, initial=1)
    profiles = flaw_profiles(inst)
    assert profiles[1].potential == math.inf
    report = condition_report(profiles, 0.0, 1.0)
    # flaw 1's infinite amenability adds zero mass to every sum
    assert report.totals()[1] == 0.0
    for total in report.totals():
        assert total <= 0.5 + 1e-12


def test_condition_monotone_in_lambda(star9_noisy):
    profiles = flaw_profiles(star9_noisy)
    lams = [0.2, 0.5, 0.8, 0.95, 1.0]
    sums = [condition_report(profiles, 0.2, lam).totals()[0] for lam in lams]
    assert sums == sorted(sums, reverse=True)


# ------------------------------------------------------------ lambda star


def test_star_lambda_star_is_two_thirds(star9):
    lam, slack = lambda_search(flaw_profiles(star9), 0.0)
    assert abs(lam - 2.0 / 3.0) < 2 * LAMBDA_TOL
    assert slack > 0
    profiles = flaw_profiles(star9)
    assert condition_report(profiles, 0.0, lam).ok
    assert not condition_report(profiles, 0.0, lam - 1e-4).ok


def test_noisy_star_lambda_star_matches_closed_form(star9_noisy):
    profiles = flaw_profiles(star9_noisy)
    lam, _ = lambda_search(profiles, 0.2)
    pf = profiles[0]
    # single self-neighborhood: boundary where lam*pot - q = 2 + h(p)
    closed = (2.0 + binary_entropy(0.2) + pf.q) / pf.potential
    assert abs(lam - closed) < 2 * LAMBDA_TOL
    assert abs(lam - 0.903906) < 1e-5   # frozen


def test_lambda_search_none_when_uncertified():
    assert lambda_search(flaw_profiles(_feedback_pair()), 0.0) is None


# ------------------------------------------------------------ certificates


def test_star_certificate_bounds_frozen(star9):
    cert = build_certificate(star9, lam=0.7)
    assert isinstance(cert, Certificate)
    assert cert.B == 4
    assert cert.xi == 0.0
    assert cert.delta_max == 1
    assert cert.m0 == pytest.approx(13.969925001442313, abs=1e-9)
    assert cert.x0 == pytest.approx(93.13283334294874, abs=1e-9)
    assert cert.distance_bound(1.0) == pytest.approx(194.2656666858975, abs=1e-9)
    assert cert.step_bound(1.0) == pytest.approx(3108.25066697436, abs=1e-8)
    assert cert.bad_mass_cap() == pytest.approx(0.85)
    assert cert.work_ratio() == pytest.approx(
        cert.step_bound(1.0) / (math.log2(9) + 1))


def test_certificate_formulas_compose(star9_noisy):
    _, cert = certify(star9_noisy)
    assert cert is not None
    assert cert.lam == cert.lam_star
    assert cert.m0 == pytest.approx(
        math.log2(9) + 1 * (cert.delta_max + 1) * (cert.xi + 4.0)
        + cert.lam * cert.B)
    assert cert.x0 == pytest.approx(2.0 * cert.m0 / (1.0 - cert.lam))
    for s in (1.0, 2.0, 3.0):
        want = math.ceil(2.0 * s / (1.0 + cert.lam)) * (cert.x0 + cert.B)
        assert cert.distance_bound(s) == pytest.approx(want)
        assert cert.step_bound(s) == pytest.approx(want * 2.0 ** cert.B)
    assert cert.step_bound(2.0) > cert.step_bound(1.0)


def test_build_certificate_rejects_bad_requests(star9):
    with pytest.raises(ModelError, match="does not pass"):
        build_certificate(star9, lam=0.5)
    with pytest.raises(ModelError, match="lambda < 1"):
        build_certificate(star9, lam=1.0)
    with pytest.raises(ModelError, match="not certified"):
        build_certificate(_feedback_pair())


def test_certify_returns_report_even_when_failing():
    report, cert = certify(_feedback_pair())
    assert cert is None
    assert not report.ok
    assert len(report.rows) == 2


def test_certify_rejects_pure_noise(star9):
    pure = attach_noise(star9, NoiseModel.uniform(), 1.0)
    with pytest.raises(ModelError, match="below 1"):
        certify(pure)


def test_requested_lambda_is_used(star9):
    cert = build_certificate(star9, lam=0.9)
    assert cert.lam == 0.9
    assert abs(cert.lam_star - 2.0 / 3.0) < 2 * LAMBDA_TOL
    loose = build_certificate(star9, lam=0.7)
    # larger lambda means larger m0 but much smaller 1/(1-lam) blowup
    assert cert.m0 > loose.m0
    assert cert.x0 > loose.x0   # here the blowup dominates


# ------------------------------------------------------ discounted potentials


def test_discounted_potential_nonnegative_when_certified(star9, star9_noisy):
    # potential(S) - (p * (2 + h(p)) * |S| + q(S)) / lambda over flaw subsets
    for inst in (star9, star9_noisy):
        profiles = flaw_profiles(inst)
        lam, _ = lambda_search(profiles, inst.p)
        rate = inst.p * (2.0 + binary_entropy(inst.p))
        for k in range(1, inst.m + 1):
            for combo in itertools.combinations(profiles, k):
                offset = (rate * k + sum(pf.q for pf in combo)) / lam
                assert sum(pf.potential for pf in combo) - offset >= -1e-9
        audit = inequality_audit(deltas=(), noise_bits=(),
                                 certified=[(profiles, lam, inst.p)])
        assert audit.ok and audit.checked == inst.m


# ----------------------------------------------------------------- audits


def test_audit_small_grid_is_clean():
    report = inequality_audit(deltas=range(1, 9), noise_bits=range(0, 5))
    assert report.ok
    assert report.checked == 2 * 8 * 5 * 99


def test_audit_certified_triples(star9_noisy):
    profiles = flaw_profiles(star9_noisy)
    lam, _ = lambda_search(profiles, 0.2)
    good = inequality_audit(deltas=(1,), noise_bits=(0,),
                            certified=[(profiles, lam, 0.2)])
    assert good.ok
    bad = inequality_audit(deltas=(1,), noise_bits=(0,),
                           certified=[(profiles, 0.5, 0.2)])
    assert not bad.ok
    assert bad.failures[0].check == "certified_floor"
    assert bad.failures[0].where["flaw"] == "f1"


def test_audit_charge_cap_spot_value():
    # the classic grid point: q(0.5) with delta 1, b_ns 0
    assert q_of_p(1, 0, 0.5) == pytest.approx(0.25)
    assert 0.25 <= 0.5 * 1 * 4.0


# ------------------------------------------------------ noiseless reduced


def test_uniform_noiseless_check_star(star9):
    ok, sums = uniform_noiseless_check(star9)
    assert ok
    assert sums == [pytest.approx(0.125)]


def test_uniform_noiseless_check_agrees_with_certify():
    for seed in range(10):
        inst = gen_uniform_singletons(36, 5, seed=seed)
        ok, _ = uniform_noiseless_check(inst)
        report, cert = certify(inst)
        assert ok == report.ok == (cert is not None)


def test_uniform_noiseless_check_preconditions(star9_noisy):
    with pytest.raises(ModelError, match="p = 0"):
        uniform_noiseless_check(star9_noisy)
    lopsided = validate_instance(
        n_states=3, flaws=[{0}], priority=[0],
        principal={0: [(1, 0.75), (2, 0.25)], 1: [(1, 1.0)], 2: [(2, 1.0)]},
        noise=_selfloops(3), p=0.0, initial=0)
    with pytest.raises(ModelError, match="not uniform"):
        uniform_noiseless_check(lopsided)
    congested = validate_instance(
        n_states=4, flaws=[{0, 1}], priority=[0],
        principal={0: [(2, 0.5), (3, 0.5)], 1: [(2, 0.5), (3, 0.5)],
                   2: [(2, 1.0)], 3: [(3, 1.0)]},
        noise=_selfloops(4), p=0.0, initial=0)
    with pytest.raises(ModelError, match="congestion"):
        uniform_noiseless_check(congested)
