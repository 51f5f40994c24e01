import hashlib
import json

import pytest

from flawchain import (Distribution, ModelError, attach_noise, NoiseModel,
                       gen_random, validate_instance)
from flawchain.fileio import (FORMAT, digest, dumps, from_dict, load, loads,
                              save, to_dict)


def _roundtrips(instance):
    text = dumps(instance)
    again = dumps(loads(text))
    assert again == text
    assert text.endswith("\n")
    json.loads(text)   # canonical form is plain JSON


def test_fixture_roundtrips(star9, star9_noisy, triangle3, path2):
    for inst in (star9, star9_noisy, triangle3, path2,
                 gen_random(20, 4, seed=7, p=0.1)):
        _roundtrips(inst)


def test_widths_survive_the_roundtrip(triangle3):
    doc = to_dict(triangle3)
    assert doc["states"] == {"widths": [3, 3, 3]}
    back = loads(dumps(triangle3))
    assert back.widths == (3, 3, 3)
    assert back.flaws == triangle3.flaws
    assert back.flaw_names == triangle3.flaw_names


def test_theta_initial_survives(star9):
    theta = validate_instance(
        n_states=9, flaws=[{0}], priority=[0],
        principal=[row.support for row in star9.principal],
        noise=[row.support for row in star9.noise], p=0.0,
        initial=Distribution.from_pairs([(0, 0.25), (3, 0.75)]))
    doc = to_dict(theta)
    assert doc["initial"] == {"theta": [[0, 0.25], [3, 0.75]]}
    back = loads(dumps(theta))
    assert isinstance(back.initial, Distribution)
    assert back.initial.support == ((0, 0.25), (3, 0.75))
    _roundtrips(theta)


def test_omitted_rows_default_to_self_loops():
    doc = {
        "format": FORMAT,
        "states": 3,
        "flaws": [{"name": "f1", "members": [0]}],
        "priority": ["f1"],
        # flawless states 1 and 2 carry no principal entry, noise absent
        "principal": [[0, [[1, 0.5], [2, 0.5]]]],
        "p": 0.0,
        "initial": 0,
    }
    inst = from_dict(doc)
    assert inst.principal[1].is_unit_self_loop(1)
    assert inst.principal[2].is_unit_self_loop(2)
    assert all(inst.noise[s].is_unit_self_loop(s) for s in range(3))


def test_save_load_files(tmp_path, star9_noisy):
    path = tmp_path / "inst.json"
    save(star9_noisy, path)
    assert load(path).principal == star9_noisy.principal
    assert path.read_text() == dumps(star9_noisy)


def test_rejections(star9):
    good = to_dict(star9)
    with pytest.raises(ModelError, match="unknown format"):
        from_dict({**good, "format": "flawchain-instance-v0"})
    for key in ("states", "flaws", "priority", "principal", "p", "initial"):
        bad = dict(good)
        del bad[key]
        with pytest.raises(ModelError, match="missing field"):
            from_dict(bad)
    with pytest.raises(ModelError, match="priority names"):
        from_dict({**good, "priority": ["nope"]})
    with pytest.raises(ModelError, match="entries"):
        from_dict({**good, "principal": [[0]]})
    with pytest.raises(ModelError, match="unknown states"):
        from_dict({**good, "noise": [[99, [[0, 1.0]]]]})
    with pytest.raises(ModelError, match="nonempty"):
        from_dict({**good, "states": {"widths": []}})
    with pytest.raises(ModelError, match="JSON object"):
        from_dict([1, 2, 3])
    with pytest.raises(ModelError, match="not valid JSON"):
        loads("{oops")


def test_implicit_instances_do_not_serialize():
    from flawchain import gen_coloring
    imp = gen_coloring([(0, 1)], 3, explicit=False)
    with pytest.raises(ModelError, match="explicit"):
        to_dict(imp)


def test_digest_tracks_content(star9):
    assert digest(star9) == hashlib.sha256(
        dumps(star9).encode("utf-8")).hexdigest()
    from flawchain import gen_star
    assert digest(gen_star(8)) == digest(star9)
    noisy = attach_noise(star9, NoiseModel.selfloop(), 0.1)
    assert digest(noisy) != digest(star9)


# ------------------------------------------------------------- corruption

BAD_VALUES = ("x", None, True, 3.5, {"bogus": 1}, [[["deep"]]])


def _corruptions(doc):
    """(label, document) pairs, each with one field dropped or retyped."""
    out = []
    for key in doc:
        if key not in ("format", "noise"):       # both may be omitted
            out.append((f"drop {key}", {k: v for k, v in doc.items() if k != key}))
        for bad in BAD_VALUES:
            if key == "noise" and bad is None:   # null noise means omitted
                continue
            out.append((f"{key}={bad!r}", {**doc, key: bad}))
    flaw = doc["flaws"][0]
    for label, entry in (("flaw without name", {"members": flaw["members"]}),
                         ("flaw without members", {"name": flaw["name"]}),
                         ("flaw name 7", {**flaw, "name": 7}),
                         ("members 'x'", {**flaw, "members": "x"}),
                         ("members [0.5]", {**flaw, "members": [0.5]}),
                         ("members [[0]]", {**flaw, "members": [[0]]}),
                         ("members [10**30]", {**flaw, "members": [10 ** 30]})):
        out.append((label, {**doc, "flaws": [entry] + doc["flaws"][1:]}))
    source, row = doc["principal"][0]
    for label, entry in (("row [s]", [source]),
                         ("row [s, 'x']", [source, "x"]),
                         ("row ['x', pairs]", ["x", row]),
                         ("row [1.5, pairs]", [1.5, row]),
                         ("pair [t]", [source, [[row[0][0]]] + row[1:]]),
                         ("pair [t, '0.5']", [source, [[row[0][0], "0.5"]] + row[1:]]),
                         ("pair ['t', pr]", [source, [["1", row[0][1]]] + row[1:]]),
                         ("target 1.5", [source, [[1.5, row[0][1]]] + row[1:]]),
                         ("target 10**30", [source, [[10 ** 30, row[0][1]]] + row[1:]]),
                         ("nested pair", [source, [[row[0][0], [0.5]]] + row[1:]]),
                         ("empty pair", [source, [[]]]),
                         ("row ['x']", [source, ["x"]])):
        out.append((label, {**doc, "principal": [entry] + doc["principal"][1:]}))
    out.append(("repeated row", {**doc, "principal": doc["principal"] + doc["principal"][:1]}))
    out.append(("row for state -1", {**doc, "principal": doc["principal"] + [[-1, row]]}))
    for label, initial in (("theta missing", {"x": 1}), ("theta 'x'", {"theta": "x"}),
                           ("theta pair", {"theta": [[0]]}),
                           ("theta empty pair", {"theta": [[]]}),
                           ("theta mass", {"theta": [[0, 0.5]]})):
        out.append((label, {**doc, "initial": initial}))
    for label, states in (("widths 'x'", {"widths": "x"}), ("widths []", {"widths": []}),
                          ("widths [0]", {"widths": [0]}),
                          ("widths [-3, -3]", {"widths": [-3, -3]}),
                          ("widths too many", {"widths": [10 ** 6, 10 ** 6]}),
                          ("states 10**12", 10 ** 12), ("states 0", 0)):
        out.append((label, {**doc, "states": states}))
    return out


def test_corrupt_documents_exit_two_with_one_line(tmp_path, capsys, star9_noisy,
                                                  triangle3):
    from flawchain.cli import main
    theta = validate_instance(
        n_states=9, flaws=[{0}], priority=[0], principal=star9_noisy.principal,
        noise=star9_noisy.noise, p=0.2,
        initial=Distribution.from_pairs([(0, 0.5), (4, 0.5)]))
    path = tmp_path / "bad.json"
    checked = 0
    for fixture in (star9_noisy, triangle3, theta):
        for label, doc in _corruptions(to_dict(fixture)):
            path.write_text(json.dumps(doc))
            rc = main(["analyze", str(path)])
            err = capsys.readouterr().err
            assert rc == 2, label
            assert err.startswith("flawchain analyze: ") and err.count("\n") == 1, \
                (label, err)
            checked += 1
    for text in ("{oops", "[1, 2]", '"x"'):
        path.write_text(text)
        assert main(["analyze", str(path)]) == 2
        assert capsys.readouterr().err.count("\n") == 1
    assert checked > 150


def test_the_state_cap_applies_before_allocation(monkeypatch, star9):
    doc = to_dict(star9)
    with pytest.raises(ModelError, match="explicit cap 65536"):
        from_dict({**doc, "states": 10 ** 12})
    monkeypatch.setenv("FLAWCHAIN_EXPLICIT_CAP", "8")
    with pytest.raises(ModelError, match="9 states exceed the explicit cap 8"):
        from_dict(doc)
    monkeypatch.setenv("FLAWCHAIN_EXPLICIT_CAP", "9")
    assert from_dict(doc).n_states == 9
    for bad in ("abc", "0", "-4", "1.5"):
        monkeypatch.setenv("FLAWCHAIN_EXPLICIT_CAP", bad)
        with pytest.raises(ModelError, match="FLAWCHAIN_EXPLICIT_CAP must be"):
            from_dict(doc)


def test_rows_in_any_order_load_canonically(star9_noisy):
    doc = to_dict(star9_noisy)
    shuffled = {**doc, "principal": [[s, pairs[::-1]] for s, pairs in doc["principal"][::-1]],
                "noise": doc["noise"][::-1]}
    assert dumps(from_dict(shuffled)) == dumps(star9_noisy)
