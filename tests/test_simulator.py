import math

import numpy as np
import pytest

from flawchain import (Distribution, HittingStats, NoiseModel, attach_noise,
                       build_certificate, gen_coloring, gen_random, monte_carlo,
                       run, step, tail_check, trial_stream, validate_instance)
from flawchain import simulator
from flawchain.simulator import (_sample_rows, _stacked_rows, philox_uniforms,
                                 running_sums, trial_keys)

from oracles import star_mean_hit, star_tail


def _theta_star(star9):
    """The star with mass split between the hub and a spoke at start."""
    theta = Distribution.from_pairs([(0, 0.5), (3, 0.5)])
    return validate_instance(
        n_states=9, flaws=[{0}], priority=[0],
        principal=[row.support for row in star9.principal],
        noise=[row.support for row in star9.noise],
        p=0.0, initial=theta)


# ------------------------------------------------------------------ streams


def test_trial_streams_are_reproducible_and_disjoint():
    a = trial_stream(42, 0).random(5)
    b = trial_stream(42, 0).random(5)
    c = trial_stream(42, 1).random(5)
    d = trial_stream(43, 0).random(5)
    assert a.tolist() == b.tolist()
    assert a.tolist() != c.tolist()
    assert a.tolist() != d.tolist()


def test_step_draw_order_is_coin_then_inverse_cdf(star9_noisy):
    rng = trial_stream(7, 0)
    coin = rng.random()
    u = rng.random()
    expected_noisy = coin < 0.2
    row = (star9_noisy.noise_row(0) if expected_noisy
           else star9_noisy.principal_row(0))
    expected_state = row.sample(u)
    got_state, got_noise = step(star9_noisy, 0, trial_stream(7, 0))
    assert (got_state, got_noise) == (expected_state, expected_noisy)


# --------------------------------------------------------------- run shape


def test_star_run_always_one_step(star9):
    for trial in range(20):
        traj = run(star9, seed=5, max_steps=100, trial=trial)
        assert traj.z == 1
        assert traj.hit_step == 1
        assert traj.terminal == "flawless_hit"
        assert traj.states[0] == 0
        assert 1 <= traj.states[1] <= 8
        assert traj.flaws == (0,)
        assert traj.noise == (False,)
        assert traj.n_steps == 1


def test_run_replays_identically(star9_noisy):
    a = run(star9_noisy, seed=11, max_steps=50, trial=3)
    b = run(star9_noisy, seed=11, max_steps=50, trial=3)
    assert a.states == b.states
    assert a.noise == b.noise
    assert a.flaws == b.flaws


def test_run_rejects_zero_budget(star9):
    with pytest.raises(ValueError):
        run(star9, seed=1, max_steps=0)


def test_continue_after_keeps_stepping(star9):
    traj = run(star9, seed=9, max_steps=10, continue_after=True)
    assert traj.n_steps == 10
    assert traj.hit_step == 1
    assert traj.z == 1
    spoke = traj.states[1]
    assert all(s == spoke for s in traj.states[1:])   # flawless self-loop
    assert traj.flaws[1:] == (None,) * 9


def test_censored_run_is_all_flawed(star9_noisy):
    # some trial keeps drawing the hub noise three times in a row
    censored = None
    for trial in range(200):
        traj = run(star9_noisy, seed=13, max_steps=3, trial=trial)
        if traj.terminal == "budget_exhausted":
            censored = traj
            break
    assert censored is not None
    assert censored.hit_step is None
    assert censored.z == 3
    assert censored.states == (0, 0, 0, 0)
    assert censored.noise == (True, True, True)


def test_theta_initial_draw_and_immediate_hit(star9):
    inst = _theta_star(star9)
    hits0 = 0
    for trial in range(400):
        traj = run(inst, seed=21, max_steps=10, trial=trial)
        if traj.states[0] == 3:
            assert traj.z == 0
            assert traj.hit_step == 0
            assert traj.states == (3,)
            assert traj.flaws == ()
            hits0 += 1
        else:
            assert traj.states[0] == 0
            assert traj.z == 1
    assert 140 < hits0 < 260   # about half the trials start flawless


def test_noise_flags_track_p(star9, star9_noisy):
    assert run(star9, seed=2, max_steps=10).noise == (False,)
    pure = attach_noise(star9, NoiseModel.point(0), 1.0)
    traj = run(pure, seed=2, max_steps=5)
    assert traj.noise == (True,) * 5
    assert traj.terminal == "budget_exhausted"


# ------------------------------------------------------------- monte carlo


def test_monte_carlo_matches_individual_runs(star9_noisy):
    stats = monte_carlo(star9_noisy, trials=50, seed=17, budget=40)
    for i in range(50):
        assert stats.hits[i] == run(star9_noisy, seed=17, max_steps=40,
                                    trial=i).hit_step
    assert stats.trials == 50
    with pytest.raises(ValueError):
        monte_carlo(star9_noisy, trials=0, seed=1, budget=10)


def _assert_batched_hits_replay(instance, trials, seed, budget):
    stats = monte_carlo(instance, trials=trials, seed=seed, budget=budget)
    for i, hit in enumerate(stats.hits):
        assert hit is None or type(hit) is int
        assert hit == run(instance, seed=seed, max_steps=budget, trial=i).hit_step
    return stats


def test_batched_hits_equal_scalar_runs(star9, star9_noisy):
    _assert_batched_hits_replay(star9_noisy, 300, 5, 40)
    _assert_batched_hits_replay(star9_noisy, 200, 6, 1)          # budget 1
    # a random initial state shifts every later draw by one uniform; the
    # longest runs cross refill blocks at that offset
    theta = _theta_star(star9)
    stats = _assert_batched_hits_replay(attach_noise(
        theta, NoiseModel.point(0), 0.8), 300, 7, 60)
    assert 0 in stats.hits and max(stats.hits) > 20
    # the same offset with every hub start censored: many live trials
    # cross the refill blocks in lockstep
    stats = _assert_batched_hits_replay(attach_noise(
        theta, NoiseModel.point(0), 1.0), 40, 7, 40)
    assert 8 < stats.censored < 40
    # few trials step one by one from the start; some hit on the last step
    half = attach_noise(star9, NoiseModel.point(0), 0.5)
    last = 0
    for seed in range(10):
        stats = _assert_batched_hits_replay(half, 6, seed, 3)
        last += stats.hits.count(3)
    assert last > 0
    noiseless = attach_noise(star9, NoiseModel.point(0), 0.0)
    assert set(_assert_batched_hits_replay(noiseless, 50, 8, 10).hits) == {1}
    # p = 1 pins the hub: every trial is censored after 200 uniforms,
    # crossing many refill blocks in lockstep, or stepped one by one when
    # only a few trials run
    pure = attach_noise(star9, NoiseModel.point(0), 1.0)
    assert _assert_batched_hits_replay(pure, 20, 9, 100).censored == 20
    assert _assert_batched_hits_replay(pure, 3, 9, 100).censored == 3
    flawless = validate_instance(
        n_states=9, flaws=[{0}], priority=[0],
        principal=star9.principal, noise=star9.noise, p=0.0, initial=3)
    assert set(_assert_batched_hits_replay(flawless, 10, 10, 5).hits) == {0}
    for seed in range(10):
        inst = gen_random(15, 3, seed=seed, p=(0.0, 0.3, 0.6)[seed % 3],
                          noise=("random", "uniform", "greedy")[seed % 3])
        _assert_batched_hits_replay(inst, 60, seed, (3, 40)[seed % 2])


def test_monte_carlo_on_implicit_instances_matches_run():
    inst = attach_noise(gen_coloring([(0, 1), (1, 2), (0, 2)], 3, explicit=False),
                        NoiseModel.point(0), 0.3)
    assert not inst.explicit
    _assert_batched_hits_replay(inst, 40, 12, 30)


def test_monte_carlo_rejects_bad_arguments(star9_noisy):
    with pytest.raises(ValueError, match="trials must be positive, got 0"):
        monte_carlo(star9_noisy, trials=0, seed=1, budget=10)
    with pytest.raises(ValueError, match="max_steps must be positive, got 0"):
        monte_carlo(star9_noisy, trials=5, seed=1, budget=0)
    with pytest.raises(ValueError) as scalar:
        trial_stream(-1, 0)
    with pytest.raises(ValueError) as batched:
        monte_carlo(star9_noisy, trials=5, seed=-1, budget=10)
    assert str(batched.value) == str(scalar.value)


def test_trial_keys_equal_numpy_seed_sequence():
    trials = [0, 1, 2**32 - 1, 2**32, 2**40 + 3]   # one- and two-word spawn keys
    for seed in (0, 1, 2**32 - 1, 2**32, 2**64 + 5, 2**100 - 17):
        want = [np.random.SeedSequence(seed, spawn_key=(t,)).generate_state(
            2, np.uint64).tolist() for t in trials]
        assert trial_keys(seed, trials).tolist() == want


def test_philox_uniforms_equal_the_trial_streams():
    trials = [0, 1, 2**32, 2**40 + 3]
    for seed in (0, 1, 2**32 - 1, 2**64 + 5, 2**100 - 17):
        keys = trial_keys(seed, trials)
        for counter in (0, 1, 7, 2**20):
            want = []
            for t in trials:
                rng = trial_stream(seed, t)
                rng.random(4 * counter)
                want.append(rng.random(4 * 32).tolist())
            for width in (1, 2, 3, 8, 32):
                got = philox_uniforms(keys, counter, width)
                assert got.shape == (len(trials), 4 * width)
                assert got.tolist() == [row[:4 * width] for row in want]


@pytest.mark.parametrize("theta", [False, True])
def test_batched_hits_across_the_refill_doublings(star9, theta):
    # the refills cover steps 1-2, 3-6, 7-14 and 15-30; a random initial
    # state takes one uniform first, so every later one sits at an odd
    # position and the refills cover steps 1, 2-3, 4-9 and 10-23
    inst = attach_noise(_theta_star(star9) if theta else star9,
                        NoiseModel.point(0), 0.8)
    stats = _assert_batched_hits_replay(inst, 2000, 13, 60)
    edges = {1, 2, 3, 4, 9, 10} if theta else {2, 3, 6, 7, 14, 15}
    assert edges <= set(stats.hits)


def test_refills_double_their_width_up_to_the_cap(star9, monkeypatch):
    draws = []

    def recorded(keys, counter, width):
        draws.append((len(keys), counter, width))
        return philox_uniforms(keys, counter, width)

    monkeypatch.setattr(simulator, "philox_uniforms", recorded)
    pure = attach_noise(star9, NoiseModel.point(0), 1.0)   # never hits
    assert monte_carlo(pure, trials=20, seed=3, budget=200).censored == 20
    # 200 steps take 400 uniforms, 100 counters
    assert draws == [(20, 0, 1), (20, 1, 2), (20, 3, 4), (20, 7, 8),
                     (20, 15, 16), (20, 31, 32), (20, 63, 32), (20, 95, 32)]


def test_running_sums_equal_sample_accumulation(star9, star9_noisy, triangle3, path2):
    instances = [star9, star9_noisy, triangle3, path2, _theta_star(star9)]
    instances += [gen_random(12, 3, seed=seed, p=0.4,
                             noise=("random", "uniform", "greedy", "point")[seed % 4])
                  for seed in range(20)]
    for inst in instances:
        indptr, targets, sums = _stacked_rows(inst)
        rows = list(inst.principal) + list(inst.noise)
        if isinstance(inst.initial, Distribution):
            rows.append(inst.initial)
        assert len(indptr) == len(rows) + 1
        for r, row in enumerate(rows):
            a, b = indptr[r], indptr[r + 1]
            acc, want = 0.0, []
            for _, pr in row.support:
                acc += pr
                want.append(acc)
            assert sums[a:b].tolist() == want
            assert targets[a:b].tolist() == list(row.states())


def test_vectorized_sampling_matches_sample_at_the_edges():
    # ten 0.1 entries accumulate to 1 - 2^-53, the largest uniform
    # `random()` returns: that uniform takes sample's fallback, the last entry
    rows = [Distribution(tuple((s, 0.1) for s in range(10))),
            Distribution(((0, 0.25), (3, 0.25), (5, 0.5))),
            Distribution(((7, 1.0),))]
    indptr = np.cumsum([0] + [len(r) for r in rows])
    targets = np.array([s for r in rows for s in r.states()])
    sums = running_sums(np.array([pr for r in rows for pr in r.probs()]), indptr)
    us = sorted({0.0, 1.0 - 2.0 ** -53, *sums.tolist(),
                 *np.nextafter(sums, 0.0).tolist()} - {1.0})
    for r, row in enumerate(rows):
        got = _sample_rows(indptr, targets, sums, np.full(len(us), r), np.array(us))
        assert got.tolist() == [row.sample(u) for u in us]


def test_noisy_star_hitting_statistics(star9_noisy):
    stats = monte_carlo(star9_noisy, trials=20_000, seed=42, budget=1000)
    assert stats.censored == 0
    assert stats.mean_hit() == pytest.approx(star_mean_hit(0.2), abs=0.02)
    for t in (0, 1, 2, 3):
        want = star_tail(0.2, t)
        sigma = math.sqrt(want * (1 - want) / stats.trials) if t else 0.0
        assert stats.tail(t) == pytest.approx(want, abs=max(4 * sigma, 1e-12))


def test_tail_bookkeeping():
    stats = HittingStats(trials=4, seed=0, budget=10, hits=(1, 3, None, 2))
    assert stats.censored == 1
    assert stats.tail(0) == 1.0
    assert stats.tail(1) == 0.75
    assert stats.tail(2) == 0.5
    assert stats.tail(3) == 0.25
    assert stats.tail(10) == 0.25
    with pytest.raises(ValueError):
        stats.tail(11)
    assert stats.mean_hit() == pytest.approx(2.0)
    table = dict(stats.tail_table())
    assert table[0] == 1.0 and table[3] == 0.25


def _scanned_stats(stats):
    """tail, censored, mean_hit and the default tail_table by rescanning
    every hit for each t: the per-t scan the sorted hits replace."""
    def tail(t):
        return sum(1 for h in stats.hits if h is None or h > t) / stats.trials
    done = [h for h in stats.hits if h is not None]
    seen = sorted(set(done))
    ts = sorted({0, *seen[:1000], min(stats.budget, (seen[-1] if seen else 0) + 1)})
    mean = sum(done) / len(done) if done else math.nan
    return tail, sum(1 for h in stats.hits if h is None), mean, [(t, tail(t)) for t in ts]


@pytest.mark.parametrize("seed", range(12))
def test_sorted_hits_match_the_per_t_scan(seed):
    rng = np.random.default_rng(seed)
    budget = int(rng.integers(1, 3000))
    trials = int(rng.integers(1, 2500))
    # few distinct values (ties), censored trials, hits at the budget itself
    pool = rng.integers(0, budget + 1, size=int(rng.integers(1, 1500)))
    hits = [None if rng.random() < 0.2 else int(rng.choice(pool)) for _ in range(trials)]
    hits[0] = budget
    if seed == 0:   # more distinct hitting steps than tail_table lists
        budget, trials = 3000, 2400
        hits = [None if t % 7 == 0 else t for t in range(trials)]
    stats = HittingStats(trials=trials, seed=0, budget=budget, hits=tuple(hits))
    tail, censored, mean, table = _scanned_stats(stats)
    assert stats.censored == censored
    assert stats.mean_hit() == mean or (math.isnan(mean) and math.isnan(stats.mean_hit()))
    assert stats.tail_table() == table
    ts = [0, budget, budget - 1, *rng.integers(0, budget + 1, size=50).tolist()]
    assert [stats.tail(t) for t in ts] == [tail(t) for t in ts]
    assert stats.tail_table(ts) == [(t, tail(t)) for t in ts]


def test_mean_hit_nan_when_everything_censored():
    stats = HittingStats(trials=2, seed=0, budget=5, hits=(None, None))
    assert math.isnan(stats.mean_hit())


# --------------------------------------------------------------- tail check


def test_tail_check_against_certificate(star9):
    cert = build_certificate(star9, lam=0.7)
    budget = int(math.ceil(cert.step_bound(1.0)))
    good = HittingStats(trials=100, seed=0, budget=budget,
                        hits=tuple([1] * 100))
    out = tail_check(good, cert, s_values=(1.0, 2.0))
    assert out["guarantee"]
    by_s = {row["s"]: row for row in out["rows"]}
    assert by_s[1.0]["status"] == "ok"
    assert by_s[1.0]["empirical"] == 0.0
    assert by_s[2.0]["status"] == "inconclusive"   # budget stops short
    assert by_s[2.0]["empirical"] is None


def test_tail_check_flags_violations(star9):
    cert = build_certificate(star9, lam=0.7)
    budget = int(math.ceil(cert.step_bound(1.0)))
    stuck = HittingStats(trials=50, seed=0, budget=budget,
                         hits=(None,) * 50)
    out = tail_check(stuck, cert, s_values=(1.0,))
    assert out["rows"][0]["status"] == "violated"
    assert out["rows"][0]["empirical"] == 1.0


def test_tail_check_without_certificate():
    stats = HittingStats(trials=1, seed=0, budget=1, hits=(1,))
    out = tail_check(stats, None)
    assert out == {"guarantee": False, "rows": []}
