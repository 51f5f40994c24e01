import math

import pytest

from flawchain import (CapExceeded, Distribution, ModelError, bad_mass,
                       build_certificate, gen_coloring, gen_random,
                       prefix_entropy, truncated_tree, validate_instance,
                       verify_stratification)

from oracles import (fraction_bad_mass, fraction_prefix_entropy,
                     fraction_tree, matrix_bad_mass, star_bad_mass)


# ------------------------------------------------------------- small trees


def test_root_only_at_x_zero(star9):
    tree = truncated_tree(star9, 0)
    assert tree.n_leaves == 1
    (leaf,) = tree.leaves
    assert leaf.prefix == (0,)
    assert leaf.log2_prob == 0.0
    assert leaf.bad          # the root is flawed and the path never left it
    assert leaf.red == (0,)
    assert tree.mass() == 1.0
    assert bad_mass(tree) == 1.0
    assert prefix_entropy(tree) == 0.0


def test_non_finite_x_is_rejected(star9):
    for x in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="must be finite"):
            truncated_tree(star9, x)


def test_star_depth_one_tree(star9):
    tree = truncated_tree(star9, 2)
    assert tree.n_leaves == 8
    for leaf in tree.leaves:
        assert leaf.log2_prob == -3.0
        assert not leaf.bad
        assert not leaf.absorbed
        assert leaf.red == (0,)
        assert len(leaf.prefix) == 2
    assert tree.mass() == pytest.approx(1.0)
    assert bad_mass(tree) == 0.0
    assert prefix_entropy(tree) == pytest.approx(0.0, abs=1e-12)


def test_star_absorbs_at_the_spokes(star9):
    # spokes self-loop forever, so x past the spoke arc cannot stratify
    tree = truncated_tree(star9, 4)
    assert tree.n_leaves == 8
    for leaf in tree.leaves:
        assert leaf.absorbed
        assert leaf.prefix[-1] != 0
        assert leaf.log2_prob == -3.0
    assert tree.mass() == pytest.approx(1.0)


def test_leaves_come_out_in_lexicographic_order(star9_noisy):
    tree = truncated_tree(star9_noisy, 4)
    assert list(tree.leaves) == sorted(tree.leaves, key=lambda l: l.prefix)


def test_noisy_star_x4_frozen(star9_noisy):
    tree = truncated_tree(star9_noisy, 4)
    assert tree.n_leaves == 41
    assert tree.mass() == pytest.approx(1.0)
    assert bad_mass(tree) == pytest.approx(0.04, abs=1e-12)     # 0.2^2
    assert prefix_entropy(tree) == pytest.approx(0.8663137138648342, abs=1e-12)
    # the lone bad leaf is the hub held twice by noise
    bad = [leaf for leaf in tree.leaves if leaf.bad]
    assert [leaf.prefix for leaf in bad] == [(0, 0, 0)]


def test_guard_rails(star9, star9_noisy, triangle3):
    with pytest.raises(ValueError):
        truncated_tree(star9, -1)
    with pytest.raises(CapExceeded):
        truncated_tree(star9_noisy, 12, cap=5)
    theta = validate_instance(
        n_states=9, flaws=[{0}], priority=[0],
        principal=[row.support for row in star9.principal],
        noise=[row.support for row in star9.noise], p=0.0,
        initial=Distribution.from_pairs([(0, 0.5), (3, 0.5)]))
    with pytest.raises(ValueError, match="fixed initial"):
        truncated_tree(theta, 2)
    implicit = gen_coloring([(0, 1)], 2, explicit=False)
    with pytest.raises(ModelError):
        truncated_tree(implicit, 2)


# ------------------------------------------------------------ oracle match


def _assert_tree_matches_oracle(instance, x):
    tree = truncated_tree(instance, x)
    want = fraction_tree(instance, x)
    assert len(tree.leaves) == len(want)
    for leaf in tree.leaves:
        prob, bad, absorbed, red = want[leaf.prefix]
        assert leaf.prob == pytest.approx(float(prob), rel=1e-12)
        assert leaf.bad == bad
        assert leaf.absorbed == absorbed
        assert leaf.red == red
    assert bad_mass(tree) == pytest.approx(fraction_bad_mass(instance, x),
                                           abs=1e-12)
    assert prefix_entropy(tree) == pytest.approx(
        fraction_prefix_entropy(instance, x), abs=1e-9)


def test_trees_match_the_rational_oracle(star9, star9_noisy, path2):
    for x in (0, 1, 2, 3, 4, 5, 6):
        _assert_tree_matches_oracle(star9, x)
        _assert_tree_matches_oracle(star9_noisy, x)
        _assert_tree_matches_oracle(path2, x)


def test_random_instance_tree_matches_oracle():
    inst = gen_random(12, 3, seed=31, p=0.1, max_support=3)
    for x in (1, 2, 3, 4):
        _assert_tree_matches_oracle(inst, x)


def test_bad_mass_matches_the_matrix_oracle(star9_noisy, path2):
    for x in range(1, 9):
        noisy = bad_mass(truncated_tree(star9_noisy, x))
        assert noisy == pytest.approx(matrix_bad_mass(star9_noisy, x),
                                      abs=1e-9)
        assert noisy == pytest.approx(star_bad_mass(0.2, x), abs=1e-12)
        flat = bad_mass(truncated_tree(path2, x))
        assert flat == pytest.approx(matrix_bad_mass(path2, x), abs=1e-9)
        # every step keeps a 3/4 chance of staying flawed; depth ceil(x/2)
        assert flat == pytest.approx(0.75 ** math.ceil(x / 2), abs=1e-12)


# ------------------------------------------------------------ verification


def test_verify_stratification_noisy_star(star9_noisy):
    cert = build_certificate(star9_noisy)
    rows = verify_stratification(star9_noisy, range(0, 7), certificate=cert)
    assert len(rows) == 7
    for row in rows:
        assert not row["skipped"]
        assert row["mass_ok"]
        assert row["sandwich_ok"]
        assert row["absorbed_ok"]
        assert row["entropy_floor_ok"]
        assert row["entropy_ceiling_ok"]
        assert row["prefix_entropy"] <= row["entropy_ceiling"] + 1e-9
        assert row["bad_mass"] <= 1.0


def test_verify_stratification_path2(path2):
    rows = verify_stratification(path2, range(1, 9))
    for x, row in zip(range(1, 9), rows):
        assert row["mass_ok"] and row["sandwich_ok"] and row["absorbed_ok"]
        assert row["entropy_floor_ok"]
        assert row["bad_mass"] == pytest.approx(0.75 ** math.ceil(x / 2))
        assert "entropy_ceiling" not in row   # no certificate given
    # the deep tree really does absorb at flawless colorings
    deep = truncated_tree(path2, 8)
    absorbed = [leaf for leaf in deep.leaves if leaf.absorbed]
    assert len(deep.leaves) == 121
    assert len(absorbed) == 13
    for leaf in absorbed:
        assert path2.is_flawless(leaf.prefix[-1])
        assert leaf.log2_prob > -8


def test_verify_reports_cap_exhaustion_as_skip(star9_noisy):
    rows = verify_stratification(star9_noisy, [2, 12], cap=15)
    assert not rows[0]["skipped"]
    assert rows[1]["skipped"]
    assert "cap" in rows[1]["reason"]
