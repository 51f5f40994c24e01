import numpy as np
import pytest

from flawchain import (Bits, BreakSequence, ForensicsError, NoiseModel,
                       Trajectory, attach_noise, break_sets, decode, encode,
                       encoded_length, gen_coloring, gen_random, monte_carlo,
                       reconstruct_witness, run, witness)

from oracles import brute_break_sets, present_at


# --------------------------------------------------------------------- bits


def test_bits_text_roundtrip():
    b = Bits.from01("10110001")
    assert b.to01() == "10110001"
    assert len(b) == 8
    assert list(b) == [1, 0, 1, 1, 0, 0, 0, 1]
    with pytest.raises(ForensicsError):
        Bits.from01("10x1")


def test_bits_byte_roundtrip_random():
    rng = np.random.default_rng(4)
    for _ in range(50):
        n = int(rng.integers(0, 70))
        text = "".join(rng.choice(["0", "1"], size=n))
        b = Bits.from01(text)
        again = Bits.from_bytes(b.to_bytes())
        assert again.to01() == text


def test_bits_byte_layout():
    b = Bits.from01("101")
    raw = b.to_bytes()
    assert raw == b"\x00\x00\x00\x03" + bytes([0b10100000])
    assert b.hex() == raw.hex()


def test_bits_from_bytes_rejects_junk():
    with pytest.raises(ForensicsError):
        Bits.from_bytes(b"\x00\x00")                    # truncated prefix
    with pytest.raises(ForensicsError):
        Bits.from_bytes(b"\x00\x00\x00\x09" + b"\xff")  # 9 bits, 1 byte


# ----------------------------------------------------- hand-worked fixtures


def _manual_trajectory(instance, states, flaws):
    return Trajectory(instance=instance, seed=0, trial=0,
                      states=tuple(states), flaws=tuple(flaws),
                      noise=(False,) * len(flaws), terminal="flawless_hit",
                      z=len(flaws), hit_step=len(flaws))


def test_triangle_collateral_eradication(triangle3):
    # colors (0,0,0) -> (0,1,0) -> (0,1,2): addressing e0_1 also fixes
    # e1_2 as a side effect, so e1_2 is eradicated collaterally
    traj = _manual_trajectory(triangle3, states=(0, 3, 5), flaws=(0, 2))
    assert present_at(triangle3, 0) == {0, 1, 2}
    assert present_at(triangle3, 3) == {2}
    assert present_at(triangle3, 5) == set()

    seq = break_sets(traj)
    assert seq.z == 2
    assert seq.raw == (frozenset({0, 1, 2}), frozenset())
    assert seq.collateral == (frozenset({1}), frozenset())
    assert seq.neglected == (frozenset(), frozenset())
    assert seq.b_star == (frozenset({0, 2}), frozenset(), frozenset())
    assert seq.lengths == (2, 0, 0)

    assert reconstruct_witness(seq, triangle3.priority) == (0, 2)
    bits = encode(seq.b_star[0], seq.lengths, triangle3.m)
    assert bits.to01() == "10100"
    assert len(bits) == encoded_length(3, 2, 2) == 5
    assert decode(bits, 3) == (frozenset({0, 2}), (2, 0, 0))


def test_noisy_star_flaw_reintroduces_itself(star9_noisy):
    # hub -> hub (noise) -> spoke: the flaw is addressed, survives, and
    # counts as introduced again by its own addressing step
    traj = Trajectory(instance=star9_noisy, seed=0, trial=0,
                      states=(0, 0, 3), flaws=(0, 0), noise=(True, False),
                      terminal="flawless_hit", z=2, hit_step=2)
    seq = break_sets(traj)
    assert seq.raw == (frozenset({0}), frozenset({0}))
    assert seq.b_star == (frozenset({0}), frozenset({0}), frozenset())
    assert seq.lengths == (1, 1, 0)
    bits = encode(seq.b_star[0], seq.lengths, 1)
    assert bits.to01() == "1100"
    assert len(bits) == encoded_length(1, 2, 1) == 4
    assert reconstruct_witness(seq, star9_noisy.priority) == (0, 0)


def test_censored_prefix_has_vacuous_terminal_set(star9_noisy):
    traj = Trajectory(instance=star9_noisy, seed=0, trial=0,
                      states=(0, 0, 0, 0), flaws=(0, 0, 0),
                      noise=(True, True, True), terminal="budget_exhausted",
                      z=3, hit_step=None)
    seq = break_sets(traj)
    assert seq.b_star == (frozenset({0}),) * 3 + (frozenset(),)
    assert seq.lengths == (1, 1, 1, 0)
    assert encode(seq.b_star[0], seq.lengths, 1).to01() == "110100"
    assert reconstruct_witness(seq, (0,)) == (0, 0, 0)


def test_flawless_start_is_the_empty_sequence(triangle3):
    traj = Trajectory(instance=triangle3, seed=0, trial=0, states=(5,),
                      flaws=(), noise=(), terminal="flawless_hit", z=0,
                      hit_step=0)
    assert witness(traj) == ()
    seq = break_sets(traj)
    assert seq.z == 0
    assert seq.b_star == (frozenset(),)
    assert seq.lengths == (0,)
    bits = encode(seq.b_star[0], seq.lengths, triangle3.m)
    assert bits.to01() == "000"
    assert len(bits) == encoded_length(3, 0, 0) == 3
    assert decode(bits, 3) == (frozenset(), (0,))
    assert reconstruct_witness(seq, triangle3.priority) == ()


def test_neglected_flaw_is_dropped():
    # a censored run that leaves flaw 1 present but never addressed: it
    # must not enter any starred set or the count invariant would break
    from flawchain import validate_instance
    inst = validate_instance(
        n_states=3, flaws=[{0}, {0, 1}], priority=[0, 1],
        principal={0: [(0, 0.5), (1, 0.5)], 1: [(1, 0.5), (2, 0.5)],
                   2: [(2, 1.0)]},
        noise={s: [(s, 1.0)] for s in range(3)}, p=0.0, initial=0)
    traj = Trajectory(instance=inst, seed=0, trial=0, states=(0, 1),
                      flaws=(0,), noise=(False,),
                      terminal="budget_exhausted", z=1, hit_step=None)
    seq = break_sets(traj)
    assert seq.raw == (frozenset({0, 1}),)
    assert seq.neglected == (frozenset({1}),)
    assert seq.b_star[0] == frozenset({0})
    assert reconstruct_witness(seq, inst.priority) == (0,)


# ------------------------------------------------------------ reconstruction


def test_reconstruction_walks_the_priority_order():
    seq = BreakSequence(
        z=3,
        b_star=(frozenset({0, 1}), frozenset({2}), frozenset(), frozenset()),
        raw=(), collateral=(), neglected=(),
        lengths=(2, 1, 0, 0))
    # E walks: {0,1} -> take 0, merge {2} -> {1,2} -> take 1 -> {2}
    assert reconstruct_witness(seq, (0, 1, 2)) == (0, 1, 2)
    assert reconstruct_witness(seq, (1, 2, 0)) == (1, 2, 0)
    assert reconstruct_witness(seq, (2, 1, 0)) == (1, 2, 0)


def test_reconstruction_rejects_malformed_sequences():
    starved = BreakSequence(z=2, b_star=(frozenset(), frozenset({0}),
                                         frozenset()),
                            raw=(), collateral=(), neglected=(),
                            lengths=(0, 1, 0))
    with pytest.raises(ForensicsError, match="no eligible"):
        reconstruct_witness(starved, (0,))
    overfull = BreakSequence(z=1, b_star=(frozenset({0, 1}), frozenset()),
                             raw=(), collateral=(), neglected=(),
                             lengths=(2, 0))
    with pytest.raises(ForensicsError, match="left after"):
        reconstruct_witness(overfull, (0, 1))


# ----------------------------------------------------------------- encoding


def test_encode_validates_the_running_count():
    with pytest.raises(ForensicsError, match="lengths"):
        encode(frozenset({0}), (2, 0), 3)         # |B0*| mismatch
    with pytest.raises(ForensicsError, match="outside"):
        encode(frozenset({7}), (1, 0), 3)
    with pytest.raises(ForensicsError, match="zero before"):
        encode(frozenset({0}), (1, 0, 1, 0), 3)   # count dies at step 1
    with pytest.raises(ForensicsError, match="not zero"):
        encode(frozenset({0}), (1, 1), 3)
    with pytest.raises(ForensicsError, match="negative"):
        encode(frozenset({0}), (1, -1), 3)
    with pytest.raises(ForensicsError):
        encode(frozenset(), (), 3)


def test_decode_error_cases():
    with pytest.raises(ForensicsError, match="membership"):
        decode(Bits.from01("10"), 3)
    with pytest.raises(ForensicsError, match="exhausted"):
        decode(Bits.from01("1"), 1)       # count 1, no blocks
    with pytest.raises(ForensicsError, match="exhausted"):
        decode(Bits.from01("11"), 1)      # block never terminates
    with pytest.raises(ForensicsError, match="trailing"):
        decode(Bits.from01("101"), 1)     # done after "10", junk follows
    with pytest.raises(ForensicsError, match="trailing"):
        decode(Bits.from01("01"), 1)      # empty B0*, stray bit


def test_encode_decode_all_small_sequences():
    # exhaustive over tiny break patterns: every legal (b0, lengths)
    # with m = 3 and z <= 2 round-trips at the exact predicted length
    m = 3
    legal = 0
    for b0_bits in range(2 ** m):
        b0 = frozenset(i for i in range(m) if (b0_bits >> i) & 1)
        for z in range(3):
            base = [len(b0)]
            if z == 0:
                seqs = [tuple(base)]
            elif z == 1:
                seqs = [tuple(base + [a]) for a in range(3)]
            else:
                seqs = [tuple(base + [a, b]) for a in range(3) for b in range(3)]
            for lengths in seqs:
                count = lengths[0]
                ok = True
                for c in lengths[1:]:
                    if count == 0:
                        ok = False
                        break
                    count += c - 1
                ok = ok and count == 0
                if not ok:
                    continue
                legal += 1
                bits = encode(b0, lengths, m)
                assert len(bits) == encoded_length(m, z, len(b0))
                assert decode(bits, m) == (b0, lengths)
    # 1 empty + 3 singleton one-step + 6 two-step patterns
    assert legal == 10


# ------------------------------------------------- simulated batch replay


def _batch_roundtrip(instance, trials, seed, budget):
    for trial in range(trials):
        traj = run(instance, seed, budget, trial=trial)
        w = witness(traj)
        seq = break_sets(traj)

        # counting identities
        assert sum(seq.lengths) == traj.z
        assert sum(seq.lengths[1:]) == traj.z - len(seq.b_star[0])
        for i in range(seq.z):
            # starred, collateral and neglected partition the raw set
            assert seq.b_star[i] | seq.collateral[i] | seq.neglected[i] \
                == seq.raw[i]
            assert not (seq.b_star[i] & seq.collateral[i])
            assert not (seq.b_star[i] & seq.neglected[i])
            assert not (seq.collateral[i] & seq.neglected[i])

        # the eligible set stays inside the present flaws and drains
        eligible = set(seq.b_star[0])
        for i in range(1, seq.z + 1):
            assert eligible <= present_at(instance, traj.states[i - 1])
            assert w[i - 1] in eligible
            eligible.discard(w[i - 1])
            eligible |= seq.b_star[i]
        assert not eligible

        assert reconstruct_witness(seq, instance.priority) == w
        bits = encode(seq.b_star[0], seq.lengths, instance.m)
        assert len(bits) == encoded_length(instance.m, seq.z,
                                           len(seq.b_star[0]))
        assert decode(bits, instance.m) == (seq.b_star[0], seq.lengths)


def test_roundtrip_on_simulated_batches(star9_noisy, triangle3, path2):
    _batch_roundtrip(star9_noisy, trials=200, seed=101, budget=60)
    _batch_roundtrip(triangle3, trials=200, seed=102, budget=60)
    _batch_roundtrip(path2, trials=200, seed=103, budget=60)


def test_roundtrip_on_random_noisy_instances():
    for seed in range(5):
        inst = gen_random(30, 4, seed=200 + seed, p=0.25)
        _batch_roundtrip(inst, trials=60, seed=seed, budget=25)


def test_roundtrip_under_censoring(star9_noisy):
    # budget 2 censors every trial that draws noise twice
    stats = monte_carlo(star9_noisy, trials=300, seed=55, budget=2)
    assert stats.censored > 0
    _batch_roundtrip(star9_noisy, trials=300, seed=55, budget=2)


def _assert_break_sets_match_the_oracle(traj):
    seq = break_sets(traj)
    assert (seq.b_star, seq.raw, seq.collateral, seq.neglected,
            seq.lengths) == brute_break_sets(traj)


def test_break_sets_match_the_quadratic_oracle(triangle3):
    # long prefixes: a wheel under greedy noise wanders for hundreds of steps
    wheel = attach_noise(gen_coloring(
        [(0, 1), (1, 2), (2, 3), (0, 3), (0, 4), (1, 4), (2, 4), (3, 4)], 3,
        explicit=True), NoiseModel.greedy_adversarial(), 0.6)
    zs = []
    for trial in range(6):
        traj = run(wheel, seed=31, max_steps=400, trial=trial)
        zs.append(traj.z)
        _assert_break_sets_match_the_oracle(traj)
    assert max(zs) > 50
    for seed in range(12):
        inst = gen_random(20, 4, seed=300 + seed, p=0.3)
        for budget in (3, 30):       # budget 3 censors many of these runs
            for trial in range(5):
                _assert_break_sets_match_the_oracle(
                    run(inst, seed, budget, trial=trial))
    _assert_break_sets_match_the_oracle(Trajectory(
        instance=triangle3, seed=0, trial=0, states=(5,), flaws=(), noise=(),
        terminal="flawless_hit", z=0, hit_step=0))
