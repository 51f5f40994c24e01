"""The array-backed explicit flavor against the row-by-row rules it replaced.

Digests pin the canonical bytes of every generator family and noise
model (recorded before the kernels moved to CSR arrays), the vectorized
validator is compared with the per-row rules on corrupted rows, and the
analyzer's array passes with the oracles and the row views.
"""

import json
import math
import random

import numpy as np
import pytest

from flawchain import (Distribution, Kernel, ModelError, NoiseModel,
                       arc_bound, attach_noise, certify, congestion, core,
                       flaw_profiles, gen_coloring, gen_ksat, gen_random,
                       gen_star, gen_uniform_singletons, validate_instance)
from flawchain.core import ROW_TOL, _row_problems, mixed_flawed, row_sums
from flawchain.fileio import digest, dumps, loads, to_dict

from oracles import analysis_mismatches, mixed_row, mixed_support

TRIANGLE = [(0, 1), (1, 2), (0, 2)]
CLAUSES = [(1, -2, 3), (-1, 2, 4), (2, -3, -4), (-1, -4)]
NOISES = {"selfloop": (NoiseModel.selfloop(), 0.1),
          "point": (NoiseModel.point(0), 0.05),
          "uniform": (NoiseModel.uniform(), 0.2),
          "greedy": (NoiseModel.greedy_adversarial(), 0.3),
          "greedy_principal": (NoiseModel.greedy_adversarial("principal"), 0.3)}
BASES = {"star": lambda: gen_star(5),
         "coloring": lambda: gen_coloring(TRIANGLE, 3, explicit=True),
         "ksat": lambda: gen_ksat(4, CLAUSES, explicit=True),
         "random": lambda: gen_random(12, 3, seed=5, p=0.1),
         "uniform": lambda: gen_uniform_singletons(12, 3, seed=2)}

# Not canonical: rows and members out of order, flawless principal rows
# and most noise rows omitted, a theta initial over a widths space.
HAND = """{"format": "flawchain-instance-v1", "states": {"widths": [2, 3]},
 "flaws": [{"name": "b", "members": [4, 0, 1]}, {"name": "a", "members": [1, 5]}],
 "priority": ["a", "b"],
 "principal": [[5, [[3, 0.25], [0, 0.75]]], [0, [[2, 0.5], [1, 0.5]]],
               [4, [[4, 0.125], [2, 0.625], [0, 0.25]]], [1, [[5, 0.5], [3, 0.5]]]],
 "noise": [[4, [[1, 1.0]]], [1, [[2, 0.5], [0, 0.5]]]],
 "p": 0.125, "initial": {"theta": [[4, 0.5], [0, 0.5]]}}"""

# sha256 of the canonical text, recorded with the tuple-of-rows storage.
DIGESTS = {
    "coloring": "2d21f4b1081c816b6e998a58fe70f6364b6336c961d6019e69347137cdc01133",
    "coloring+greedy": "8151cedb448704d79392bcc11cd04fbfc65e1a51602fdc0c998aafda9aec1bcf",
    "coloring+greedy_principal": "7aef73c16194c88c31366847f90df52a77e0f451c00428ac0e7839d12ea4c18a",
    "coloring+point": "9baf10414268a24ca7a9c2b23796ac849fb47c8ee8e429c3583b27a9a2634d0e",
    "coloring+selfloop": "e892f4c157dd36fff3f24993f97263301f1f9ebe9c2d0d24c487ad766f86c418",
    "coloring+uniform": "7a4b428a7350c0f525cacce57557f093e130f976544428e4953b976e9215b903",
    "hand": "6797d76e8d61e5a35066c04ff54ebb11e6c3f5c4a2f8e3e11090b68c54e6e892",
    "ksat": "8e21911bd5f46fcfb5c8484149ff4577748fc74c8b176b79005247795c5953f9",
    "ksat+greedy": "e8ac722e4dec9eed614d53c3d3502721aa924013605107baaf2585a837e8704d",
    "ksat+greedy_principal": "64c54bb467f10b8dfef4e860368e505bc3d7b1d94452e26ac0fed436ec055e5f",
    "ksat+point": "297d6b3c65804c16ced453728ad95098cbe42864574f6a62fd45e7278b950fe1",
    "ksat+selfloop": "ac5e7ac556e1a2920d05de18ae2453ab4f36c83810feb73e2e5a7238b569b4c8",
    "ksat+uniform": "badebde1461dc8a366a961fdae0131c4a76d6e9e3b35d641eba26999e73bef3c",
    "random": "d33b817e90cb20c616dfe51dd4de4218149d31ae76b2854792846a2d114df9cb",
    "random+greedy": "dd8942986fe40e5e4819db6a3efd55ad69ace5c003d01a127fdc8b2788b62039",
    "random+greedy_gen": "304a8be5335e81cf55cb26b538f315772e5fb7a7a2e9b7b6f55e65f118d8c627",
    "random+greedy_principal": "95d2b0e4042e78fda6640a245650aee8975a8fc1733a7e7447a3a54eb3b08941",
    "random+point": "eab7ce897de5322d5729728d91a280acafd52d049ffb413647cb765d96e77f0e",
    "random+selfloop": "fda5b4af4228df33547e1c75fc07c035d372d5bfc06041936cac45b0881a02fc",
    "random+uniform": "5fd3a8a029a05d9678c9b8f687b8e6a67266f2790f4103473b685310eabfc869",
    "star": "82d2d043fc8c7034ef3ff90571c5876408e53b2d8cb840d195b3c27c35d7688a",
    "star+greedy": "201523548aee13c54887146a96e68c8ddb90c5f27f15747b42b213a800d4426d",
    "star+greedy_principal": "763a1e32622e52888833abbb055cbfb8b15469408ff202826fc4a30f073dc8c2",
    "star+point": "47b9d47186f771d1f701b9640f0a01f8e499ea9b8beca96907a6cb5c77e89ce2",
    "star+selfloop": "645c1b9cc69a0f77d1358d44a5f75f522b6639211029faf18ccd4c8549ecd2d6",
    "star+uniform": "c5ae71e819e352fe8300e076d6979bd1c355f2e9e8f60bb6e5c80a26ac0715f5",
    "uniform": "335c1904b5361c0f5661f66717cb103b76fca1bc2065be30496644f113e0cfbd",
    "uniform+greedy": "71214670eca58a10a17018f9537e2861410a21ea673c7a2a256628cc0e6e9fcd",
    "uniform+greedy_principal": "2088e06f7a7356b7c40f3545ebff15cb3bc62694ac48768053295aa5517edbbe",
    "uniform+point": "b160473a1628d7d68c76892f4df4b5d03e7814645cc879a1977bbad261473868",
    "uniform+selfloop": "f7cb9e59d52e156d33b234713345a668cd62f7a5c8f7769cfd2ae7491dac5186",
    "uniform+uniform": "51d6b824305435a1101f364773404b9ff9285cb8e091a4406beb25030c5d1fa1",
}


def _instances():
    out = {}
    for name, build in BASES.items():
        base = build()
        out[name] = base
        for noise, (model, p) in NOISES.items():
            out[f"{name}+{noise}"] = attach_noise(base, model, p)
    out["random+greedy_gen"] = attach_noise(gen_random(10, 2, seed=3, p=0.3),
                                            NoiseModel.greedy_adversarial(), 0.3)
    out["hand"] = loads(HAND)
    return out


@pytest.fixture(scope="module")
def instances():
    return _instances()


# ------------------------------------------------------------ byte stability


def test_digests_are_unchanged(instances):
    assert {name: digest(inst) for name, inst in instances.items()} == DIGESTS


def test_array_writer_matches_json_of_to_dict(instances):
    for name, inst in instances.items():
        want = json.dumps(to_dict(inst), sort_keys=True, separators=(",", ":")) + "\n"
        assert dumps(inst) == want, name
        assert dumps(inst) is dumps(inst)          # memoized per instance
        assert dumps(loads(want)) == want, name


def test_rows_and_flaws_read_back_from_the_arrays(instances):
    for name, inst in instances.items():
        for kernel in (inst.principal, inst.noise):
            assert isinstance(kernel, Kernel)
            assert len(kernel) == inst.n_states
            assert [row.support for row in kernel] == \
                [kernel[s].support for s in inst.states()]
            assert all(kernel[s] is kernel[s] for s in inst.states())
        assert inst.principal_row(0) is inst.principal[0]
        assert inst.noise_row(inst.n_states - 1) is inst.noise[-1]
        for outside in (inst.n_states, -inst.n_states - 1):
            with pytest.raises(IndexError):
                inst.principal[outside]
        for i, members in enumerate(inst.flaws):
            assert members == frozenset(np.flatnonzero(inst.member[:, i]).tolist())
    again = _instances()
    for name, inst in instances.items():
        assert again[name].principal == inst.principal
        assert again[name].noise == inst.noise
        assert again[name].flaws == inst.flaws


def test_scalar_accessors_are_python_scalars(instances):
    for inst in instances.values():
        assert type(inst.n_states) is int and type(inst.m) is int
        assert all(type(i) is int for i in inst.priority)
        for s in inst.states():
            flaw = inst.addressed(s)
            assert flaw is None or type(flaw) is int
            assert all(type(i) is int for i in inst.present(s))
            assert all(type(t) is int and type(pr) is float
                       for t, pr in inst.principal_row(s).support)
        assert all(type(s) is int for f in inst.flaws for s in f)
        pf = flaw_profiles(inst)[0]
        assert type(pf.congestion_pr) is int and type(pf.potential) is float
        assert type(congestion(inst, 0, "noise").count) is int
        try:
            assert type(arc_bound(inst)) is int
        except ModelError:
            pass


def test_noise_attachment_reuses_the_principal_arrays(instances):
    base = BASES["ksat"]()
    noisy = attach_noise(base, NoiseModel.point(0), 0.05)
    assert noisy.principal is base.principal
    assert noisy.member is base.member
    with pytest.raises(ModelError, match="target 16 outside 0..15"):
        attach_noise(base, NoiseModel.point(16), 0.05)
    with pytest.raises(ModelError, match="outside"):
        attach_noise(base, NoiseModel.point(10 ** 30), 0.05)


# -------------------------------------------------------------- row sums


def _neumaier(values):
    # CPython 3.12+ sum() of floats: int start, then compensated adds
    it = iter(values)
    try:
        total = 0 + next(it)
    except StopIteration:
        return 0.0
    comp = 0.0
    for x in it:
        t = total + x
        if abs(total) >= abs(x):
            comp += (total - t) + x
        else:
            comp += (x - t) + total
        total = t
    if comp and math.isfinite(comp):
        total += comp
    return total


def _plain(values):
    total = 0
    for x in values:
        total = total + x
    return float(total)


def _random_rows(rng, count):
    rows = []
    for _ in range(count):
        k = rng.randrange(0, 40)
        scale = rng.choice([1.0, 1e-8, 1e8])
        rows.append([rng.uniform(-1, 1) * scale * rng.choice([1, 1e-12, 1e12])
                     for _ in range(k)])
    rows.append([-0.0])
    rows.append([1e308, 1e308, -1e308])
    return rows


def test_row_sums_reproduce_the_builtin_bit_for_bit():
    rows = _random_rows(random.Random(4), 300)
    indptr = np.cumsum([0] + [len(r) for r in rows])
    values = np.array([x for r in rows for x in r])
    with np.errstate(over="ignore"):
        got = row_sums(values, indptr).tolist()
        plain = row_sums(values, indptr, compensated=False).tolist()
        comp = row_sums(values, indptr, compensated=True).tolist()
    for row, a, b, c in zip(rows, got, plain, comp):
        assert repr(a) == repr(float(sum(row)))
        assert repr(b) == repr(_plain(row))
        assert repr(c) == repr(_neumaier(row))


# ------------------------------------------------------------- validation


def _violations(*args):
    """`validate_instance`'s violation list, empty when it accepts."""
    try:
        validate_instance(*args)
    except ModelError as exc:
        return list(exc.violations)
    return []


def _per_row_violations(n, flaws, priority, principal, noise):
    """The kernel rules as they were applied one row at a time."""
    problems = []
    addressed = []
    for s in range(n):
        addressed.append(next((i for i in priority if s in flaws[i]), None))
    rows = {}
    for kernel, label in ((principal, "principal"), (noise, "noise")):
        for s in range(n):
            try:
                pairs = kernel[s]
            except (KeyError, IndexError):
                problems.append(f"{label} kernel has no row for state {s}")
                rows[label, s] = ((s, 1.0),)
                continue
            support = tuple(sorted((int(t), float(pr)) for t, pr in pairs))
            found = _row_problems(support, f"{label} row of state {s}")
            if any(t < 0 or t >= n for t, _ in support):
                found.append(f"{label} row of state {s} targets outside 0..{n - 1}")
            problems.extend(found)
            rows[label, s] = ((s, 1.0),) if found else support
    for s in range(n):
        if addressed[s] is None and rows["principal", s] != ((s, 1.0),):
            problems.append(
                f"flawless state {s} must have the exact unit self-loop as its "
                f"principal row, got {rows['principal', s]}")
    return problems


def _edge_pair(sign):
    """(a, b) with 0.5 + b just inside (sign -1) or just outside (+1) 1 +- ROW_TOL."""
    target = 1.0 + sign * ROW_TOL
    b = 0.5 + sign * ROW_TOL
    inside = lambda x: abs(0.5 + x - 1.0) <= ROW_TOL
    step = math.inf if sign > 0 else -math.inf
    while inside(b):
        b = math.nextafter(b, step)
    while not inside(b):
        b = math.nextafter(b, -step)
    assert abs(0.5 + b - target) < 1e-15
    return b, math.nextafter(b, step)


def _long_edge_rows():
    """Twenty entries whose left-to-right sum sits just inside, and just
    outside, 1 + ROW_TOL."""
    head = [0.05 + 1e-17 * i for i in range(19)]
    inside = lambda x: abs(sum(head + [x]) - 1.0) <= ROW_TOL
    last = 1.0 + ROW_TOL - sum(head)
    while not inside(last):
        last = math.nextafter(last, -math.inf)
    while inside(last):
        last = math.nextafter(last, math.inf)
    return head + [math.nextafter(last, -math.inf)], head + [last]


def test_vectorized_validator_matches_the_per_row_rules():
    n = 24
    flaws = [set(range(9)), {2, 3, 12}]
    priority = [1, 0]
    inside_hi, outside_hi = _edge_pair(+1)
    inside_lo, outside_lo = _edge_pair(-1)
    long_inside, long_outside = _long_edge_rows()
    principal = {s: [(s, 1.0)] for s in range(n)} | {
        0: [(3, 0.5), (1, 0.5)],
        1: [(2, 0.5), (2, 0.5)],                        # duplicate target
        2: [(0, 1.5), (4, -0.5)],                       # negative entry
        3: [(5, 0.5), (6, inside_hi)],                  # mass just inside
        4: [(5, 0.5), (6, outside_hi)],                 # mass just outside
        5: [(5, 0.5), (6, inside_lo)],
        6: [(5, 0.5), (6, outside_lo)],
        7: [],                                          # empty support
        8: [(24, 0.5), (-1, 0.5)],                      # targets outside
        9: [(1, 1.0)],                                  # flawless, not a self-loop
        12: [(12, 0.0), (3, float("nan")), (3, 1.0)],   # several at once
    }
    del principal[11]                                   # no row at all
    noise = {s: [(s, 0.75), ((s + 5) % n, 0.25)] for s in range(n)}
    noise[4] = list(zip(range(20), long_outside))
    noise[5] = list(zip(range(20), long_inside))
    del noise[7]
    want = _per_row_violations(n, flaws, priority, principal, noise)
    got = _violations(n, flaws, priority, principal, noise, 0.1, 0)
    assert got == want
    text = "\n".join(got)
    assert "principal row of state 3" not in text
    assert "principal row of state 4: mass" in text
    assert "principal row of state 5" not in text
    assert "principal row of state 6: mass" in text
    assert "noise row of state 4: mass" in text
    assert "noise row of state 5" not in text
    assert "flawless state 9" in text and "no row for state 11" in text


def test_validator_agrees_on_random_corruptions():
    rng = random.Random(5)
    for trial in range(40):
        n = rng.randrange(3, 9)
        flaws = [set(rng.sample(range(n), rng.randrange(1, n))) for _ in range(2)]
        kernels = []
        for _ in range(2):
            rows = {}
            for s in range(n):
                k = rng.randrange(1, 4)
                rows[s] = [(rng.randrange(n), 1.0 / k) for _ in range(k)]
                roll = rng.random()
                if roll < 0.1:
                    rows[s].append((rng.choice([-2, n, n + 3]), 0.1))
                elif roll < 0.2:
                    rows[s][0] = (rows[s][0][0], rows[s][0][1] + rng.choice([1e-9, -1e-9, 1e-10]))
                elif roll < 0.25:
                    del rows[s]
                elif roll < 0.3:
                    rows[s] = [(s, 1.0)]
            kernels.append(rows)
        want = _per_row_violations(n, flaws, [0, 1], *kernels)
        got = _violations(n, flaws, [0, 1], *kernels, 0.3, 0)
        assert got == want, trial


def test_validate_accepts_kernels_and_a_membership_matrix(star9):
    again = validate_instance(
        n_states=9, flaws=star9.member, priority=star9.priority,
        principal=star9.principal, noise=star9.noise, p=0.0, initial=0)
    assert dumps(again) == dumps(star9)
    with pytest.raises(ModelError, match="membership matrix"):
        validate_instance(n_states=9, flaws=star9.member[:4], priority=[0],
                          principal=star9.principal, noise=star9.noise,
                          p=0.0, initial=0)
    with pytest.raises(ModelError, match="rows for 9 states"):
        validate_instance(n_states=9, flaws=[{0}], priority=[0],
                          principal=Kernel.point(range(8)), noise=star9.noise,
                          p=0.0, initial=0)


# -------------------------------------------------------------- analyzer


def _brute_arc_bound(instance):
    probs = [pr for s in range(instance.n_states) if instance.addressed(s) is not None
             for pr in mixed_support(instance, s).values()]
    if any(pr >= 1.0 for pr in probs):
        return None
    b = 1
    while not all(2.0 ** -b < pr < 1.0 - 2.0 ** -b for pr in probs):
        b += 1
    return b


def _gen_random(n, m, seed, p, noise):
    """gen_random with its own random noise rows, or a NOISES model."""
    inst = gen_random(n, m, seed=seed, p=p)
    return inst if noise == "random" else attach_noise(inst, NOISES[noise][0], p)


@pytest.mark.parametrize("seed", range(20))
def test_profiles_and_arc_bound_match_the_oracles(seed):
    for p, noise in ((0.0, "random"), (0.3, "random"), (0.2, "greedy"),
                     (0.6, "point"), (1.0, "point")):
        inst = _gen_random(10 + seed % 5, 1 + seed % 4, seed, p, noise)
        for addressed_only in (False, True):
            assert analysis_mismatches(
                inst, flaw_profiles(inst, addressed_only), addressed_only) == []
        want = _brute_arc_bound(inst)
        if want is None:
            with pytest.raises(ModelError, match="probability 1"):
                arc_bound(inst)
        else:
            assert arc_bound(inst) == want


@pytest.mark.parametrize("seed", range(20))
def test_mixed_rows_and_potentials_equal_the_row_views(seed):
    inst = _gen_random(12, 3, seed, (0.0, 0.15, 0.5, 1.0)[seed % 4],
                       ("random", "uniform", "greedy", "point")[seed % 4])
    states, indptr, targets, probs = mixed_flawed(inst)
    best = [math.inf] * inst.m
    for k, s in enumerate(states.tolist()):
        row = mixed_row(inst, s)
        a, b = indptr[k], indptr[k + 1]
        assert row.support == tuple(zip(targets[a:b].tolist(), probs[a:b].tolist()))
        best[inst.addressed(s)] = min(best[inst.addressed(s)], row.entropy())
    assert [pf.potential for pf in flaw_profiles(inst)] == best


def test_the_flawed_mixed_rows_are_merged_once_per_instance(monkeypatch):
    inst = gen_random(12, 3, seed=3, p=0.15)
    merges = []
    merge = core.mixed_rows
    monkeypatch.setattr(core, "mixed_rows",
                        lambda *args: merges.append(1) or merge(*args))
    certify(inst)   # the potentials, then arc_bound
    assert len(merges) == 1
    assert mixed_flawed(inst) is mixed_flawed(inst)
    assert not any(array.flags.writeable for array in mixed_flawed(inst))


def test_potential_of_a_unit_mixed_row_keeps_its_sign():
    # a flawed state holding still: entropy -0.0, exactly as the row view
    inst = validate_instance(
        n_states=2, flaws=[{0}], priority=[0],
        principal={0: [(0, 1.0)], 1: [(1, 1.0)]},
        noise={0: [(0, 1.0)], 1: [(1, 1.0)]}, p=0.0, initial=0)
    assert repr(flaw_profiles(inst)[0].potential) == repr(Distribution.unit(0).entropy())
