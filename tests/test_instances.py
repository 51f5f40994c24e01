import pytest

from flawchain import (ExplicitInstance, ImplicitInstance, ModelError,
                       ModelWarning, NoiseModel, attach_noise, flaw_profiles,
                       gen_coloring, gen_ksat, gen_random, gen_star,
                       gen_uniform_singletons, global_principal_bits, run)
from flawchain.fileio import dumps

CAP_MESSAGE = r"^{} states exceed the explicit cap {} \(FLAWCHAIN_EXPLICIT_CAP\)$"


# ------------------------------------------------------------------- star


def test_star_shape(star9):
    assert star9.n_states == 9
    assert star9.flaws == (frozenset({0}),)
    assert star9.flaw_names == ("f1",)
    assert star9.p == 0.0
    assert star9.initial == 0
    assert star9.principal[0].support == tuple((t, 0.125) for t in range(1, 9))
    for s in range(1, 9):
        assert star9.principal[s].is_unit_self_loop(s)


def test_star_rejects_degenerate_sizes():
    with pytest.raises(ModelError, match="at least 2 spokes"):
        gen_star(1)
    gen_star(2)   # smallest legal star


# ------------------------------------------------------------ noise models


def test_attach_selfloop_and_point(star9):
    loop = attach_noise(star9, NoiseModel.selfloop(), 0.3)
    assert loop.p == 0.3
    assert all(loop.noise[s].is_unit_self_loop(s) for s in range(9))
    pt = attach_noise(star9, NoiseModel.point(4), 0.3)
    assert all(pt.noise[s].support == ((4, 1.0),) for s in range(9))


def test_attach_uniform(star9):
    uni = attach_noise(star9, NoiseModel.uniform(), 0.1)
    for s in range(9):
        assert uni.noise[s].support == tuple((t, 1.0 / 9) for t in range(9))


def test_attach_custom(star9):
    rows = [((8 - s, 1.0),) for s in range(9)]
    rev = attach_noise(star9, NoiseModel.custom(rows), 0.2)
    assert rev.noise[2].support == ((6, 1.0),)


def test_greedy_chases_the_most_flawed_state(star9, triangle3):
    g = attach_noise(star9, NoiseModel.greedy_adversarial(), 0.2)
    # only the hub is flawed, so every row points back at it
    assert all(g.noise[s].support == ((0, 1.0),) for s in range(9))
    # monochromatic colorings tie at three flaws; lowest index wins
    gt = attach_noise(triangle3, NoiseModel.greedy_adversarial(), 0.2)
    assert all(gt.noise[s].support == ((0, 1.0),) for s in range(27))


def test_greedy_with_principal_candidates(star9):
    g = attach_noise(star9, NoiseModel.greedy_adversarial("principal"), 0.2)
    assert g.noise[0].support == ((0, 1.0),)
    # a spoke's only candidate is itself
    assert g.noise[3].support == ((3, 1.0),)


def test_implicit_noise_is_restricted():
    imp = gen_coloring([(0, 1), (1, 2)], 3, explicit=False)
    assert isinstance(imp, ImplicitInstance)
    loop = attach_noise(imp, NoiseModel.selfloop(), 0.2)
    assert loop.p == 0.2
    assert loop.noise_row(5).is_unit_self_loop(5)
    pt = attach_noise(imp, NoiseModel.point(0), 0.2)
    assert pt.noise_row(5).support == ((0, 1.0),)
    with pytest.raises(ModelError, match="explicit"):
        attach_noise(imp, NoiseModel.uniform(), 0.2)
    with pytest.raises(ModelError, match="explicit"):
        attach_noise(imp, NoiseModel.greedy_adversarial(), 0.2)


# ---------------------------------------------------------------- coloring


def test_coloring_validations():
    with pytest.raises(ModelError, match="vertices must be 0"):
        gen_coloring([(1, 2)], 3)
    with pytest.raises(ModelError, match="color"):
        gen_coloring([(0, 1)], 0)
    with pytest.warns(ModelWarning, match="monochromatic"):
        gen_coloring([(0, 1)], 1)


def test_coloring_cap_behavior(monkeypatch):
    edges = [(0, 1), (1, 2)]
    monkeypatch.setenv("FLAWCHAIN_EXPLICIT_CAP", "10")
    with pytest.raises(ModelError, match=CAP_MESSAGE.format(27, 10)):
        gen_coloring(edges, 3, explicit=True)
    imp = gen_coloring(edges, 3)
    assert isinstance(imp, ImplicitInstance)
    monkeypatch.setenv("FLAWCHAIN_EXPLICIT_CAP", "100")
    exp = gen_coloring(edges, 3)
    assert isinstance(exp, ExplicitInstance)


def test_explicit_only_families_refuse_above_the_cap(monkeypatch):
    monkeypatch.setenv("FLAWCHAIN_EXPLICIT_CAP", "8")
    for build in (lambda: gen_star(8), lambda: gen_random(9, 2, seed=0),
                  lambda: gen_uniform_singletons(9, 2, seed=0),
                  lambda: gen_ksat(4, [(1, 2)], explicit=True)):
        with pytest.raises(ModelError, match=CAP_MESSAGE.format(r"\d+", 8)):
            build()
    assert gen_star(7).n_states == 8
    assert gen_random(8, 2, seed=0).n_states == 8


def test_triangle_shape(triangle3):
    assert triangle3.n_states == 27
    assert triangle3.flaw_names == ("e0_1", "e1_2", "e0_2")
    assert triangle3.widths == (3, 3, 3)
    assert triangle3.initial == 0
    # addressing an edge resamples both endpoints: 9 equal arcs
    row = triangle3.principal[0]
    assert len(row.support) == 9
    assert all(pr == pytest.approx(1.0 / 9) for _, pr in row.support)


def test_explicit_and_implicit_colorings_walk_in_lockstep():
    edges = [(0, 1), (1, 2), (2, 3)]
    exp = attach_noise(gen_coloring(edges, 3, explicit=True),
                       NoiseModel.point(0), 0.15)
    imp = attach_noise(gen_coloring(edges, 3, explicit=False),
                       NoiseModel.point(0), 0.15)
    for trial in range(20):
        a = run(exp, seed=99, max_steps=60, trial=trial)
        b = run(imp, seed=99, max_steps=60, trial=trial)
        assert a.states == b.states
        assert a.flaws == b.flaws
        assert a.noise == b.noise


def test_explicit_and_implicit_ksat_walk_in_lockstep():
    clauses = [(1, 2), (-1, 3), (-2, -3)]
    exp = attach_noise(gen_ksat(3, clauses, explicit=True),
                       NoiseModel.point(0), 0.15)
    imp = attach_noise(gen_ksat(3, clauses, explicit=False),
                       NoiseModel.point(0), 0.15)
    for trial in range(20):
        a = run(exp, seed=5, max_steps=60, trial=trial)
        b = run(imp, seed=5, max_steps=60, trial=trial)
        assert a.states == b.states


# -------------------------------------------------------------------- ksat


def test_ksat_validations():
    with pytest.raises(ModelError, match="clause"):
        gen_ksat(3, [])
    with pytest.raises(ModelError, match="empty"):
        gen_ksat(3, [(1, 2), ()])
    with pytest.raises(ModelError, match="outside"):
        gen_ksat(3, [(1, 0)])
    with pytest.raises(ModelError, match="outside"):
        gen_ksat(3, [(1, 4)])


def test_ksat_flaw_membership():
    inst = gen_ksat(3, [(1, 2), (-1, 3), (-2, -3)])
    assert inst.n_states == 8
    assert inst.flaw_names == ("c1", "c2", "c3")
    # state encodes (v1, v2, v3) with v3 fastest
    assert sorted(inst.flaws[0]) == [0, 1]     # v1=0, v2=0
    assert sorted(inst.flaws[1]) == [4, 6]     # v1=1, v3=0
    assert sorted(inst.flaws[2]) == [3, 7]     # v2=1, v3=1
    # (1,0,1) = state 5 satisfies all three clauses
    assert inst.is_flawless(5)


# ------------------------------------------------------------------ random


def test_gen_random_is_deterministic():
    a = gen_random(20, 4, seed=7, p=0.1)
    b = gen_random(20, 4, seed=7, p=0.1)
    assert dumps(a) == dumps(b)
    assert dumps(gen_random(20, 4, seed=8, p=0.1)) != dumps(a)


def test_gen_random_shape():
    inst = gen_random(16, 3, seed=11, p=0.2)
    assert isinstance(inst, ExplicitInstance)
    assert inst.m == 3
    flawed = sorted(set().union(*inst.flaws))
    assert inst.initial == flawed[0]
    for s in range(16):
        row = inst.principal[s]
        if inst.is_flawless(s):
            assert row.is_unit_self_loop(s)
        else:
            assert 2 <= len(row.support) <= 4


def test_gen_random_rejects_tiny_requests():
    with pytest.raises(ModelError):
        gen_random(2, 1, seed=0)
    with pytest.raises(ModelError):
        gen_random(8, 0, seed=0)


def test_gen_random_named_noise_kinds():
    base = gen_random(10, 2, seed=3, p=0.1)
    pt = attach_noise(base, NoiseModel.point(0), 0.1)
    assert all(pt.noise[s].support == ((0, 1.0),) for s in range(10))
    loop = attach_noise(base, NoiseModel.selfloop(), 0.1)
    assert all(loop.noise[s].is_unit_self_loop(s) for s in range(10))
    uni = attach_noise(base, NoiseModel.uniform(), 0.1)
    assert uni.noise[4].support == tuple((t, 0.1) for t in range(10))
    greedy = attach_noise(base, NoiseModel.greedy_adversarial(), 0.1)
    assert all(len(greedy.noise[s].support) == 1 for s in range(10))
    assert all(inst.principal is base.principal for inst in (pt, loop, uni, greedy))


# -------------------------------------------------------------- singletons


def test_uniform_singletons_shape():
    inst = gen_uniform_singletons(36, 5, seed=2)
    assert inst.p == 0.0
    assert all(len(f) == 1 for f in inst.flaws)
    homes = sorted(next(iter(f)) for f in inst.flaws)
    assert len(set(homes)) == 5
    for s in range(36):
        row = inst.principal[s]
        if s in homes:
            k = len(row.support)
            assert 2 <= k <= 8
            assert all(pr == pytest.approx(1.0 / k) for _, pr in row.support)
        else:
            assert row.is_unit_self_loop(s)


def test_uniform_singletons_have_free_principal_bits():
    for seed in range(6):
        inst = gen_uniform_singletons(30, 4, seed=seed)
        assert global_principal_bits(flaw_profiles(inst)) == 0.0


def test_uniform_singletons_reject_overfull():
    with pytest.raises(ModelError, match="more states"):
        gen_uniform_singletons(5, 5, seed=0)
