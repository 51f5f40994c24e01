import math

import pytest

from flawchain import (Distribution, ImplicitInstance, ModelError, ModelWarning,
                       arc_bound, binary_entropy, require_explicit,
                       shannon_entropy, validate_instance)
from flawchain.core import mixed_rows

from oracles import addressed_at, mixed_support, present_at


# --------------------------------------------------------------- entropies


def test_binary_entropy_endpoints_and_peak():
    assert binary_entropy(0.0) == 0.0
    assert binary_entropy(1.0) == 0.0
    assert binary_entropy(0.5) == 1.0


def test_binary_entropy_symmetric_and_concave_on_grid():
    grid = [i / 100 for i in range(101)]
    for p in grid:
        assert abs(binary_entropy(p) - binary_entropy(1.0 - p)) < 1e-12
        assert 0.0 <= binary_entropy(p) <= 1.0
    # concavity: midpoint value dominates the chord
    for i in range(1, 99):
        a, b = grid[i - 1], grid[i + 1]
        mid = binary_entropy((a + b) / 2)
        assert mid >= (binary_entropy(a) + binary_entropy(b)) / 2 - 1e-12


def test_binary_entropy_rejects_outside_unit_interval():
    with pytest.raises(ValueError):
        binary_entropy(-0.01)
    with pytest.raises(ValueError):
        binary_entropy(1.01)


def test_shannon_entropy_uniform_and_point():
    assert shannon_entropy([(i, 1 / 8) for i in range(8)]) == pytest.approx(3.0)
    assert shannon_entropy([(5, 1.0)]) == 0.0
    d = Distribution.from_pairs([(0, 0.5), (1, 0.5)])
    assert shannon_entropy(d) == pytest.approx(1.0)
    assert d.entropy() == pytest.approx(1.0)


# ------------------------------------------------------------ distributions


def test_distribution_canonicalizes_support_order():
    d = Distribution.from_pairs([(7, 0.25), (0, 0.25), (3, 0.5)])
    assert d.states() == (0, 3, 7)
    assert d.probs() == (0.25, 0.5, 0.25)
    assert len(d) == 3
    assert sum(d.probs()) == pytest.approx(1.0)


def test_distribution_rejects_bad_rows():
    with pytest.raises(ModelError):
        Distribution.from_pairs([(0, 0.5), (0, 0.5)])   # duplicate state
    with pytest.raises(ModelError):
        Distribution.from_pairs([(0, 1.5), (1, -0.5)])  # negative probability
    with pytest.raises(ModelError):
        Distribution.from_pairs([(0, 0.4), (1, 0.4)])   # mass 0.8
    with pytest.raises(ModelError):
        Distribution.from_pairs([])


def test_sample_walks_the_inverse_cdf():
    d = Distribution.from_pairs([(0, 0.25), (3, 0.5), (7, 0.25)])
    assert d.sample(0.0) == 0
    assert d.sample(0.2499) == 0
    assert d.sample(0.25) == 3
    assert d.sample(0.7499) == 3
    assert d.sample(0.75) == 7
    assert d.sample(0.999999) == 7


def test_sample_never_escapes_the_support():
    # u drawn right at 1.0 minus rounding still lands on the last state
    d = Distribution.from_pairs([(2, 1 / 3), (5, 1 / 3), (9, 1 / 3)])
    assert d.sample(1.0 - 1e-16) == 9


def test_unit_self_loop():
    d = Distribution.unit(4)
    assert d.support == ((4, 1.0),)
    assert d.is_unit_self_loop(4)
    assert not d.is_unit_self_loop(3)
    assert not Distribution.from_pairs([(4, 0.5), (5, 0.5)]).is_unit_self_loop(4)


# -------------------------------------------------------------- validation


def _tiny_kernel(n):
    return {s: [(s, 1.0)] for s in range(n)}


def _violations(**kwargs):
    with pytest.raises(ModelError) as exc:
        validate_instance(**kwargs)
    return list(exc.value.violations)


def test_validate_builds_canonical_instance():
    inst = validate_instance(
        n_states=3, flaws=[{0}], priority=[0],
        principal={0: [(2, 0.5), (1, 0.5)], 1: [(1, 1.0)], 2: [(2, 1.0)]},
        noise=_tiny_kernel(3), p=0.0, initial=0)
    assert inst.n_states == 3
    assert inst.m == 1
    assert inst.flaws == (frozenset({0}),)
    assert inst.principal_row(0).states() == (1, 2)
    assert inst.present(0) == (0,)
    assert inst.addressed(0) == 0
    assert inst.addressed(1) is None
    assert inst.is_flawless(2)
    assert inst.flaw_names == ("f1",)
    assert inst.log2_states == pytest.approx(math.log2(3))


def test_validate_collects_every_violation_at_once():
    with pytest.warns(ModelWarning):   # flaw 2 ends up empty after filtering
        problems = _violations(
            n_states=3, flaws=[{0}, {5}], priority=[0, 0],
            principal={0: [(0, 0.7)], 1: [(1, 1.0)], 2: [(2, 1.0)]},
            noise=_tiny_kernel(3), p=1.5, initial=9)
    text = "\n".join(problems)
    assert "members outside" in text
    assert "not a permutation" in text
    assert "mass" in text
    assert "mix probability" in text
    assert "initial state" in text
    assert len(problems) >= 5


def test_validate_pins_flawless_principal_rows():
    with pytest.raises(ModelError, match="unit self-loop"):
        validate_instance(
            n_states=2, flaws=[{0}], priority=[0],
            principal={0: [(1, 1.0)], 1: [(0, 1.0)]},  # state 1 is flawless
            noise=_tiny_kernel(2), p=0.0, initial=0)


def test_validate_warns_on_empty_flaw():
    with pytest.warns(ModelWarning, match="empty") as record:
        validate_instance(
            n_states=2, flaws=[{0}, set()], priority=[0, 1],
            principal={0: [(0, 0.5), (1, 0.5)], 1: [(1, 1.0)]},
            noise=_tiny_kernel(2), p=0.0, initial=0)
    assert record[0].filename == __file__   # blamed on the caller


def test_validate_checks_widths_product_and_names():
    problems = _violations(
        n_states=6, flaws=[{0}, {1}], priority=[0, 1],
        principal={s: [(s, 0.5), ((s + 1) % 6, 0.5)] for s in range(2)}
        | {s: [(s, 1.0)] for s in range(2, 6)},
        noise=_tiny_kernel(6), p=0.0, initial=0,
        flaw_names=["a", "a"], widths=(2, 2))
    text = "\n".join(problems)
    assert "widths" in text
    assert "duplicate flaw names" in text


def test_validate_accepts_theta_initial_and_checks_it():
    theta = Distribution.from_pairs([(0, 0.5), (1, 0.5)])
    inst = validate_instance(
        n_states=2, flaws=[{0}], priority=[0],
        principal={0: [(0, 0.5), (1, 0.5)], 1: [(1, 1.0)]},
        noise=_tiny_kernel(2), p=0.0, initial=theta)
    assert inst.initial is theta
    bad = Distribution.from_pairs([(0, 0.5), (7, 0.5)])
    problems = _violations(
        n_states=2, flaws=[{0}], priority=[0],
        principal={0: [(0, 0.5), (1, 0.5)], 1: [(1, 1.0)]},
        noise=_tiny_kernel(2), p=0.0, initial=bad)
    assert any("unknown states" in t for t in problems)


def test_validate_rejects_missing_rows_and_stray_targets():
    problems = _violations(
        n_states=3, flaws=[{0}], priority=[0],
        principal={0: [(0, 0.5), (9, 0.5)], 2: [(2, 1.0)]},
        noise=_tiny_kernel(3), p=0.0, initial=0)
    text = "\n".join(problems)
    assert "targets outside" in text
    assert "no row for state 1" in text


# ------------------------------------------------- presence and addressing


def test_triangle_presence_and_priority(triangle3):
    # state index is 9*c0 + 3*c1 + c2 over colors (c0, c1, c2)
    assert present_at(triangle3, 0) == {0, 1, 2}
    assert triangle3.present(0) == (0, 1, 2)
    assert triangle3.addressed(0) == 0          # e0_1 outranks the rest
    assert triangle3.present(1) == (0,)          # (0,0,1): only v0 == v1
    assert triangle3.addressed(3) == 2           # (0,1,0): only v0 == v2
    assert triangle3.addressed(4) == 1           # (0,1,1): only v1 == v2
    assert triangle3.is_flawless(5)              # (0,1,2) is a proper coloring
    flawless = [s for s in triangle3.states() if triangle3.is_flawless(s)]
    assert len(flawless) == 6                    # 3! proper colorings


def test_addressing_follows_priority_not_index():
    inst = validate_instance(
        n_states=3, flaws=[{0, 1}, {1}], priority=[1, 0],
        principal={0: [(0, 0.5), (2, 0.5)], 1: [(1, 0.5), (2, 0.5)],
                   2: [(2, 1.0)]},
        noise=_tiny_kernel(3), p=0.0, initial=0)
    assert inst.addressed(1) == 1   # flaw 1 outranks flaw 0 here
    assert inst.addressed(0) == 0
    for s in inst.states():
        assert inst.addressed(s) == addressed_at(inst, s)


# ---------------------------------------------------------------- mixing


def _mixed(instance, state):
    _, targets, probs = mixed_rows(instance, [state])
    return tuple(zip(targets.tolist(), probs.tolist()))


def test_mixed_row_degenerate_mixes_short_circuit(star9):
    assert _mixed(star9, 0) == star9.principal_row(0).support
    noisy = validate_instance(
        n_states=2, flaws=[{0}], priority=[0],
        principal={0: [(0, 0.5), (1, 0.5)], 1: [(1, 1.0)]},
        noise={0: [(1, 1.0)], 1: [(0, 1.0)]}, p=1.0, initial=0)
    assert _mixed(noisy, 0) == noisy.noise_row(0).support


def test_mixed_row_blends_supports(star9_noisy):
    row = _mixed(star9_noisy, 0)
    assert [s for s, _ in row] == list(range(9))
    assert row[0][1] == pytest.approx(0.2)           # noise holds the hub
    for _, pr in row[1:]:
        assert pr == pytest.approx(0.1)              # 0.8 / 8 per spoke
    assert sum(pr for _, pr in row) == pytest.approx(1.0)
    assert dict(row) == pytest.approx(mixed_support(star9_noisy, 0))


def test_mixed_row_union_of_supports_when_strictly_mixed():
    inst = validate_instance(
        n_states=4, flaws=[{0}], priority=[0],
        principal={0: [(1, 0.5), (2, 0.5)], 1: [(1, 1.0)], 2: [(2, 1.0)],
                   3: [(3, 1.0)]},
        noise={0: [(0, 0.5), (3, 0.5)], 1: [(1, 1.0)], 2: [(2, 1.0)],
               3: [(3, 1.0)]},
        p=0.3, initial=0)
    row = _mixed(inst, 0)
    assert [s for s, _ in row] == [0, 1, 2, 3]
    assert dict(row) == pytest.approx(
        {0: 0.15, 1: 0.35, 2: 0.35, 3: 0.15})


# -------------------------------------------------------------- arc bound


def test_arc_bound_frozen_examples(star9, star9_noisy, triangle3, path2):
    assert arc_bound(star9) == 4         # 1/8 arcs need 2^-4 < 1/8
    assert arc_bound(star9_noisy) == 4   # worst arc is 0.1
    assert arc_bound(triangle3) == 4     # 1/9 arcs
    assert arc_bound(path2) == 3         # 1/4 arcs


def test_arc_bound_half_arcs_give_two():
    inst = validate_instance(
        n_states=2, flaws=[{0}], priority=[0],
        principal={0: [(0, 0.5), (1, 0.5)], 1: [(1, 1.0)]},
        noise=_tiny_kernel(2), p=0.0, initial=0)
    assert arc_bound(inst) == 2


def test_arc_bound_rejects_probability_one_flawed_arc():
    inst = validate_instance(
        n_states=2, flaws=[{0}], priority=[0],
        principal={0: [(1, 1.0)], 1: [(1, 1.0)]},
        noise=_tiny_kernel(2), p=0.0, initial=0)
    with pytest.raises(ModelError, match="probability 1"):
        arc_bound(inst)


def test_arc_bound_ignores_flawless_self_loops(star9):
    # spokes hold with probability 1 yet the bound is finite
    assert all(star9.principal_row(s).is_unit_self_loop(s)
               for s in range(1, 9))
    assert arc_bound(star9) == 4


# ------------------------------------------------------- implicit flavor


def _parity_implicit():
    # two binary variables; flaw when they agree; addressing resamples both
    def principal_fn(state, values, flaw):
        return Distribution.from_pairs([(s, 0.25) for s in range(4)])

    return ImplicitInstance(
        widths=(2, 2), flaw_predicates=[lambda v: v[0] == v[1]],
        priority=[0], principal_fn=principal_fn,
        noise_fn=lambda state, values: Distribution.unit(state),
        p=0.0, initial=0)


def test_implicit_mixed_radix_roundtrip():
    inst = ImplicitInstance(
        widths=(2, 3, 2), flaw_predicates=[lambda v: False], priority=[0],
        principal_fn=None, noise_fn=None, p=0.0, initial=0)
    assert inst.n_states == 12
    for s in range(12):
        assert inst.encode(inst.decode(s)) == s
    # last variable fastest
    assert inst.decode(0) == (0, 0, 0)
    assert inst.decode(1) == (0, 0, 1)
    assert inst.decode(2) == (0, 1, 0)
    assert inst.decode(11) == (1, 2, 1)
    assert inst.log2_states == pytest.approx(math.log2(12))


def test_implicit_pins_flawless_rows_and_rejects_analysis():
    inst = _parity_implicit()
    assert inst.addressed(0) == 0
    assert inst.addressed(1) is None
    assert inst.principal_row(1).is_unit_self_loop(1)
    assert inst.principal_row(0).states() == (0, 1, 2, 3)
    with pytest.raises(ModelError, match="explicit"):
        require_explicit(inst, "anything")
    with pytest.raises(ModelError):
        arc_bound(inst)


def test_implicit_validates_widths_priority_and_p():
    with pytest.raises(ModelError):
        ImplicitInstance(widths=(0, 2), flaw_predicates=[], priority=[],
                         principal_fn=None, noise_fn=None, p=0.0, initial=0)
    with pytest.raises(ModelError):
        ImplicitInstance(widths=(2,), flaw_predicates=[lambda v: True],
                         priority=[1], principal_fn=None, noise_fn=None,
                         p=0.0, initial=0)
    with pytest.raises(ModelError):
        ImplicitInstance(widths=(2,), flaw_predicates=[lambda v: True],
                         priority=[0], principal_fn=None, noise_fn=None,
                         p=1.2, initial=0)
