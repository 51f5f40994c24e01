import math
import os
import subprocess
import sys
import textwrap

import pytest

from flawchain import (CapExceeded, Distribution, ModelError, NoiseModel,
                       arc_bound, attach_noise, bad_mass, build_certificate,
                       gen_coloring, gen_random, prefix_entropy,
                       truncated_tree, validate_instance, verify_stratification)
from flawchain.exact import stratification_row

from oracles import (dfs_row, dfs_tree, fraction_bad_mass,
                     fraction_prefix_entropy, fraction_tree, matrix_bad_mass,
                     star_bad_mass)


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
    for cap in (0, -3):
        with pytest.raises(ValueError, match=f"leaf cap must be a positive "
                                             f"integer, got {cap}"):
            truncated_tree(star9, 2, cap=cap)
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


def test_a_huge_x_fails_fast_at_the_cli(tmp_path, star9_noisy):
    # The hub holds itself with probability 0.2, so a depth-first walk
    # dives ~430k levels before its first leaf, copying an ever longer
    # prefix.  A child interpreter with an address-space limit and a
    # timeout keeps such a walk from taking the machine with it.
    from flawchain.fileio import save
    path = tmp_path / "star.json"
    save(star9_noisy, path)
    script = textwrap.dedent(f"""
        import resource, sys
        resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))
        from flawchain.cli import main
        sys.exit(main(["tree", {str(path)!r}, "--x", "1e6", "--cap", "100"]))
    """)
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, timeout=60, env=env)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("flawchain tree: leaf cap 100 exceeded (")
    assert proc.stderr.count("\n") == 1


# ------------------------------------------------- the depth-first oracle

XS = (0, 0.5, 1, 3.5, 8, 12)
NOISES = {"point": NoiseModel.point(0), "uniform": NoiseModel.uniform(),
          "greedy": NoiseModel.greedy_adversarial()}


def _assert_matches_the_walk(instance):
    B = arc_bound(instance)
    for x in XS:
        tree = truncated_tree(instance, x)
        n = tree.n_leaves
        # the walk emits n leaves, so its cap passes at n and trips at n - 1
        leaves = dfs_tree(instance, x, cap=n)
        assert repr(tree.leaves) == repr(tuple(leaves))
        row = stratification_row(instance, tree, B)
        assert repr(row) == repr(dfs_row(instance, leaves, float(x), B))
        assert repr((tree.mass(), bad_mass(tree), prefix_entropy(tree))) == \
            repr((row["mass"], row["bad_mass"], row["prefix_entropy"]))
        assert truncated_tree(instance, x, cap=n).n_leaves == n
        if n > 1:
            with pytest.raises(CapExceeded):
                truncated_tree(instance, x, cap=n - 1)


@pytest.mark.parametrize("noise", [None, *NOISES])
@pytest.mark.parametrize("fixture", ["star9", "star9_noisy", "triangle3", "path2"])
def test_fixture_trees_equal_the_depth_first_walk(request, fixture, noise):
    instance = request.getfixturevalue(fixture)
    if noise is not None:
        instance = attach_noise(instance, NOISES[noise], 0.2)
    _assert_matches_the_walk(instance)


@pytest.mark.parametrize("seed", range(20))
def test_random_trees_equal_the_depth_first_walk(seed):
    _assert_matches_the_walk(gen_random(10, 3, seed=seed, p=0.3))


def test_arc_logs_round_as_math_log2():
    # numpy's vectorized log2 rounds log2(0.08209) one ulp away
    inst = validate_instance(
        n_states=3, flaws=[{0}], priority=[0],
        principal={0: [(1, 0.08209), (2, 0.91791)], 1: [(1, 1.0)], 2: [(2, 1.0)]},
        noise={s: [(s, 1.0)] for s in range(3)}, p=0.0, initial=0)
    _assert_matches_the_walk(inst)


def test_a_flawless_root_has_an_empty_red_prefix(star9):
    noisy = attach_noise(star9, NoiseModel.uniform(), 0.2)
    spoke = validate_instance(
        n_states=9, flaws=noisy.member, priority=noisy.priority,
        principal=noisy.principal, noise=noisy.noise, p=noisy.p, initial=3)
    _assert_matches_the_walk(spoke)
    assert {leaf.red for leaf in truncated_tree(spoke, 3.5).leaves} == {()}


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
