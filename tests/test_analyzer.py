import math

import pytest

from flawchain import (ModelError, NoiseModel, attach_noise, causality_graph,
                       congestion, flaw_profiles, gen_random,
                       global_noise_bits, global_principal_bits, max_delta,
                       neighborhood, q_of_p, validate_instance)
from flawchain.analyzer import _arcs

from oracles import analysis_mismatches, brute_congestion, entropy_bits

PR = "principal"
NS = "noise"


def _selfloops(n):
    return {s: [(s, 1.0)] for s in range(n)}


def _arc_list(instance, which):
    """The analyzer's (source, target, label) arcs as a list of triples."""
    return list(zip(*(a.tolist() for a in _arcs(instance, which))))


def _potential(instance, flaw):
    return flaw_profiles(instance)[flaw].potential


# ------------------------------------------------------------ labeled arcs


def test_star_principal_arcs(star9):
    arcs = _arc_list(star9, PR)
    assert sorted(arcs) == [(0, t, 0) for t in range(1, 9)]


def test_noise_arcs_dead_at_p_zero(star9):
    assert _arc_list(star9, NS) == []


def test_noisy_star_noise_arcs_exclude_flawless_sources(star9_noisy):
    # spokes also have noise rows, but carry no label
    assert _arc_list(star9_noisy, NS) == [(0, 0, 0)]


def test_triangle_every_flawed_state_emits_nine_arcs(triangle3):
    arcs = _arc_list(triangle3, PR)
    flawed = [s for s in triangle3.states() if not triangle3.is_flawless(s)]
    assert len(arcs) == 9 * len(flawed)
    by_source = {}
    for s, t, label in arcs:
        by_source.setdefault(s, []).append(label)
        assert label == triangle3.addressed(s)
    assert set(by_source) == set(flawed)


def test_labeled_arcs_rejects_unknown_kernel(star9):
    with pytest.raises(ValueError):
        _arc_list(star9, "mixed")


# -------------------------------------------------------- causality graphs


def test_star_causality_is_empty(star9):
    graph = causality_graph(star9, PR)
    assert graph.edge_list() == []
    assert neighborhood(graph, 0) == {0}


def test_triangle_causality_is_complete(triangle3):
    graph = causality_graph(triangle3, PR)
    assert sorted(graph.edge_list()) == [(i, j) for i in range(3)
                                         for j in range(3) if i != j]
    for i in range(3):
        assert neighborhood(graph, i) == {0, 1, 2}


def test_self_cause_is_blocked_by_membership():
    # the only flawed arc keeps the flaw present, so f0 cannot cause f0
    inst = validate_instance(
        n_states=3, flaws=[{0, 1}], priority=[0],
        principal={0: [(1, 0.5), (2, 0.5)], 1: [(1, 0.5), (2, 0.5)],
                   2: [(2, 1.0)]},
        noise=_selfloops(3), p=0.0, initial=0)
    graph = causality_graph(inst, PR)
    assert graph.edge_list() == []


def test_to_dot_mentions_every_edge(triangle3):
    dot = causality_graph(triangle3, PR).to_dot(triangle3.flaw_names)
    assert dot.startswith("digraph causality_principal {")
    assert '"e0_1" -> "e1_2";' in dot
    assert dot.count("->") == 6


# --------------------------------------------------------------- potential


def test_star_potentials(star9, star9_noisy):
    assert _potential(star9, 0) == pytest.approx(3.0)
    want = entropy_bits([0.2] + [0.1] * 8)
    assert _potential(star9_noisy, 0) == pytest.approx(want, abs=1e-12)
    assert abs(want - 3.121928094887362) < 1e-12   # frozen


def test_unaddressed_flaw_has_infinite_potential():
    # flaw 1 is shadowed by flaw 0 everywhere it lives
    inst = validate_instance(
        n_states=3, flaws=[{1, 2}, {2}], priority=[0, 1],
        principal={1: [(0, 0.5), (1, 0.5)], 2: [(0, 0.5), (2, 0.5)],
                   0: [(0, 1.0)]},
        noise=_selfloops(3), p=0.0, initial=1)
    assert _potential(inst, 1) == math.inf
    pf = flaw_profiles(inst)[1]
    assert pf.potential == math.inf
    assert pf.amenability == math.inf


def test_potential_dominates_principal_entropy_floor(star9_noisy, triangle3):
    # mixing cannot dip below (1-p) times the principal row entropy
    for inst in (star9_noisy, triangle3):
        for i in range(inst.m):
            floor = min((inst.principal_row(s).entropy()
                         for s in inst.states() if inst.addressed(s) == i),
                        default=math.inf)
            if floor == math.inf:
                continue
            assert _potential(inst, i) >= (1 - inst.p) * floor - 1e-9


# -------------------------------------------------------------- congestion


def test_star_congestion_is_unit(star9, star9_noisy):
    assert congestion(star9, 0, PR) == (1, 0.0, False)
    assert congestion(star9_noisy, 0, NS) == (1, 0.0, False)


def test_two_sources_sharing_a_target():
    inst = validate_instance(
        n_states=3, flaws=[{0, 1}], priority=[0],
        principal={0: [(1, 0.5), (2, 0.5)], 1: [(0, 0.5), (2, 0.5)],
                   2: [(2, 1.0)]},
        noise=_selfloops(3), p=0.0, initial=0)
    cong = congestion(inst, 0, PR)
    assert cong.count == 2 and cong.bits == 1.0
    assert brute_congestion(inst, 0, PR) == 2


def test_congestion_unreached_cases(star9):
    dead = congestion(star9, 0, NS)   # p = 0: noise arcs do not exist
    assert dead == (0, 0.0, True)
    with pytest.warns(UserWarning):
        inst = validate_instance(
            n_states=2, flaws=[{0}, set()], priority=[0, 1],
            principal={0: [(0, 0.5), (1, 0.5)], 1: [(1, 1.0)]},
            noise=_selfloops(2), p=0.0, initial=0)
    assert congestion(inst, 1, PR).unreached


def test_addressed_only_variant_is_smaller():
    # flaw 0 owns states {0, 1} but state 1 is claimed by flaw 1
    inst = validate_instance(
        n_states=3, flaws=[{0, 1}, {1}], priority=[1, 0],
        principal={0: [(2, 0.5), (0, 0.5)], 1: [(2, 0.5), (0, 0.5)],
                   2: [(2, 1.0)]},
        noise=_selfloops(3), p=0.0, initial=0)
    formal = congestion(inst, 0, PR)
    prose = congestion(inst, 0, PR, addressed_only=True)
    assert formal.count == 2
    assert prose.count == 1
    assert brute_congestion(inst, 0, PR, addressed_only=True) == 1


# ---------------------------------------------------------------- q of p


def test_q_examples_and_preconditions():
    assert q_of_p(1, 0.0, 0.0) == 0.0
    assert q_of_p(1, 0.0, 0.5) == pytest.approx(0.25)
    with pytest.raises(ValueError):
        q_of_p(0, 0.0, 0.1)
    with pytest.raises(ValueError):
        q_of_p(1, -0.5, 0.1)
    with pytest.raises(ValueError):
        q_of_p(1, 0.0, 1.0)


def test_q_stays_under_its_closed_form_cap():
    for delta in (1, 2, 5, 17):
        for b_ns in (0.0, 1.0, 3.0):
            for p in (0.01, 0.2, 0.5, 0.9, 0.99):
                assert q_of_p(delta, b_ns, p) <= p * delta * (b_ns + 4.0) + 1e-12


# ---------------------------------------------------------------- profiles


def test_star_profile_frozen(star9):
    (pf,) = flaw_profiles(star9)
    assert pf.name == "f1"
    assert pf.potential == pytest.approx(3.0)
    assert pf.b_pr == 0.0 and pf.congestion_pr == 1
    assert pf.gamma_pr == {0} and pf.gamma_ns == {0}
    assert pf.delta == 1
    assert pf.q == 0.0
    assert pf.amenability == pytest.approx(3.0)
    assert pf.unreached_ns and not pf.unreached_pr


def test_noisy_star_profile_frozen(star9_noisy):
    (pf,) = flaw_profiles(star9_noisy)
    assert pf.potential == pytest.approx(3.121928094887362, abs=1e-12)
    assert pf.q == pytest.approx(0.1, abs=1e-12)   # 0.2 * (2.5 - 2)
    assert pf.delta == 1
    assert pf.b_ns == 0.0
    assert pf.amenability == pytest.approx(3.121928094887362, abs=1e-12)


def test_triangle_profiles_share_the_full_neighborhood(triangle3):
    profiles = flaw_profiles(triangle3)
    for pf in profiles:
        assert pf.gamma_pr == {0, 1, 2}
        assert pf.gamma_ns == {pf.index}      # p = 0
        assert pf.delta == 1
        assert pf.q == 0.0
    assert max_delta(profiles) == 1


def test_profiles_self_inclusion_and_delta_floor(star9, star9_noisy, triangle3, path2):
    for inst in (star9, star9_noisy, triangle3, path2):
        for pf in flaw_profiles(inst):
            assert pf.index in pf.gamma_pr
            assert pf.index in pf.gamma_ns
            assert pf.delta >= 1
            assert pf.q >= 0.0


def test_global_bit_costs(path2):
    profiles = flaw_profiles(path2)
    # both edge flaws have two states sharing a full target set
    assert global_principal_bits(profiles) == 1.0
    assert global_noise_bits(profiles) == 0.0


def test_q_uses_the_global_noise_bits_not_per_flaw():
    # flaw 1 has unit noise congestion, flaw 0 has congestion 2: both
    # q values must price in the global (worse) bit cost
    inst = validate_instance(
        n_states=4, flaws=[{0, 1}, {2}], priority=[0, 1],
        principal={0: [(0, 0.5), (3, 0.5)], 1: [(1, 0.5), (3, 0.5)],
                   2: [(2, 0.5), (3, 0.5)], 3: [(3, 1.0)]},
        noise={0: [(3, 1.0)], 1: [(3, 1.0)], 2: [(2, 1.0)], 3: [(3, 1.0)]},
        p=0.1, initial=0)
    profiles = flaw_profiles(inst)
    assert profiles[0].congestion_ns == 2
    assert profiles[1].congestion_ns == 1
    b_global = global_noise_bits(profiles)
    assert b_global == 1.0
    for pf in profiles:
        assert pf.q == pytest.approx(q_of_p(pf.delta, b_global, 0.1))


def test_profiles_require_explicit():
    from flawchain import gen_coloring
    implicit = gen_coloring([(0, 1)], 2, explicit=False)
    with pytest.raises(ModelError):
        flaw_profiles(implicit)


# ----------------------------------------------------- noise monotonicity


def test_adding_a_noise_arc_never_shrinks_noise_quantities():
    for seed in range(6):
        base = gen_random(24, 4, seed=seed, p=0.1)
        # split some mass off a flawed state's noise row onto a fresh target
        donor = next(s for s in base.states() if not base.is_flawless(s))
        row = dict(base.noise_row(donor).support)
        fresh = next(t for t in base.states() if t not in row)
        grown = {s: base.noise_row(s).support for s in base.states()}
        grown[donor] = tuple((t, 0.9 * pr) for t, pr in row.items()) \
            + ((fresh, 0.1),)
        bigger = validate_instance(
            n_states=base.n_states, flaws=base.flaws, priority=base.priority,
            principal=[r.support for r in base.principal], noise=grown,
            p=base.p, initial=base.initial)
        before = flaw_profiles(base)
        after = flaw_profiles(bigger)
        for pf_a, pf_b in zip(before, after):
            assert pf_b.gamma_ns >= pf_a.gamma_ns
            assert pf_b.congestion_ns >= pf_a.congestion_ns


# ------------------------------------------------------- oracle agreement


def test_analyzer_matches_brute_oracle_on_fixtures(star9, star9_noisy,
                                                   triangle3, path2):
    for inst in (star9, star9_noisy, triangle3, path2):
        assert analysis_mismatches(inst, flaw_profiles(inst)) == []


def test_analyzer_matches_brute_oracle_on_random_instances():
    # a quick slice here; the acceptance suite runs the full 200
    for seed in range(12):
        p = (0.0, 0.1, 0.3)[seed % 3]
        inst = gen_random(40, 5, seed=100 + seed, p=p)
        assert analysis_mismatches(inst, flaw_profiles(inst)) == []
        assert analysis_mismatches(
            inst, flaw_profiles(inst, addressed_only=True),
            addressed_only=True) == []
